import ssn_lab


def test_public_names_resolve_and_are_sorted():
    names = ssn_lab.__all__
    assert [name for name in names if not hasattr(ssn_lab, name)] == []
    assert names == sorted(set(names))
