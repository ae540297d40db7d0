import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssn_lab import LabelMap, LowRankGaussian, ValidationError
from ssn_lab import formats
from conftest import random_instance


def label_map_to_pgm(path, label_map: LabelMap, shape) -> None:
    """Write a two-dimensional binary label map as 8-bit binary PGM
    (foreground 255, background 0)."""
    height, width = shape
    image = (label_map.labels.reshape(shape) > 0).astype(np.uint8) * 255
    Path(path).write_bytes(f"P5\n{width} {height}\n255\n".encode() + image.tobytes())


def load_mutated(loader, data: bytes, mutations, name: str):
    """Overwrite bytes of ``data`` at (position, value) pairs, then load it;
    the loader must return or raise ValidationError, nothing else."""
    raw = bytearray(data)
    for position, value in mutations:
        if raw:
            raw[position % len(raw)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(bytes(raw))
        try:
            return loader(path)
        except ValidationError:
            return None


# Arbitrary bytes, weighted towards JSON syntax so mutations reach the
# document checks and not only the decoder.
byte_mutations = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.one_of(st.integers(0, 255), st.sampled_from(b'-.0123456789eE"[]{}:,')),
    ),
    max_size=6,
)


class TestDistributionContainer:
    def test_roundtrip_preserves_values_exactly(self, tmp_path):
        dist = random_instance(0)
        path = tmp_path / "model.ssnt"
        formats.save_distribution(path, dist)
        loaded = formats.load_distribution(path)
        assert np.array_equal(loaded.mean, dist.mean)
        assert np.array_equal(loaded.factor, dist.factor)
        assert np.array_equal(loaded.diag_raw, dist.diag_raw)
        assert (loaded.num_pixels, loaded.num_classes, loaded.rank) == (
            dist.num_pixels,
            dist.num_classes,
            dist.rank,
        )

    def test_save_load_save_is_byte_identical(self, tmp_path):
        dist = random_instance(1)
        first = tmp_path / "a.ssnt"
        second = tmp_path / "b.ssnt"
        formats.save_distribution(first, dist)
        formats.save_distribution(second, formats.load_distribution(first))
        assert first.read_bytes() == second.read_bytes()

    def test_document_declares_format_and_dims(self, tmp_path):
        dist = random_instance(2)
        path = tmp_path / "model.ssnt"
        formats.save_distribution(path, dist)
        document = json.loads(path.read_text())
        assert document["format"] == "SSNT"
        assert document["version"] == 1
        assert document["S"] == dist.num_pixels
        assert document["C"] == dist.num_classes
        assert document["R"] == dist.rank
        assert document["factor"]["shape"] == [dist.dim, dist.rank]

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.update(format="OTHER"),
            lambda d: d.update(version=2),
            lambda d: d.pop("mean"),
            lambda d: d["factor"].update(shape=[1, 1]),
            lambda d: d.update(S="x"),
        ],
    )
    def test_malformed_documents_rejected(self, tmp_path, mutation):
        dist = random_instance(3)
        path = tmp_path / "model.ssnt"
        formats.save_distribution(path, dist)
        document = json.loads(path.read_text())
        mutation(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError):
            formats.load_distribution(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.ssnt"
        path.write_text("not json at all")
        with pytest.raises(ValidationError):
            formats.load_distribution(path)

    @pytest.mark.parametrize("key", ["S", "C", "R"])
    def test_dims_disagreeing_with_tensors_rejected(self, tmp_path, key):
        path = tmp_path / "model.ssnt"
        formats.save_distribution(path, random_instance(4))
        document = json.loads(path.read_text())
        document[key] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match="model.ssnt"):
            formats.load_distribution(path)


@pytest.mark.parametrize(
    "loader", [formats.load_distribution, formats.load_label_map]
)
def test_non_utf8_bytes_rejected(tmp_path, loader):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format": "SSNT\xff\xfe"}')
    with pytest.raises(ValidationError, match="bad.json"):
        loader(path)


SMALL_MODEL = LowRankGaussian(
    [0.5, -1.0, 2.0, 0.0], [[1.0], [0.0], [-2.5], [1e-3]], [0.1, -3.0, 0.0, 4.0],
    2, 2, 1,
)
SMALL_MAP = LabelMap(labels=[1, 0, 2], num_classes=3, mask=[True, False, True])


@pytest.mark.parametrize(
    "save, load, value",
    [
        (formats.save_distribution, formats.load_distribution, SMALL_MODEL),
        (formats.save_label_map, formats.load_label_map, SMALL_MAP),
    ],
    ids=["ssnt", "label_map"],
)
@settings(max_examples=300, deadline=None)
@given(mutations=byte_mutations)
def test_mutated_bytes_load_or_raise_validation_error(save, load, value, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        save(Path(tmp) / "doc.json", value)
        data = (Path(tmp) / "doc.json").read_bytes()
    load_mutated(load, data, mutations, "doc.json")


class TestLabelMapFiles:
    def test_json_roundtrip_with_mask(self, tmp_path):
        label_map = LabelMap(
            labels=np.array([1, 0, 2, 1]),
            num_classes=3,
            mask=np.array([True, True, False, True]),
        )
        path = tmp_path / "map.json"
        formats.save_label_map(path, label_map, shape=[2, 2])
        loaded, shape = formats.load_label_map(path)
        assert np.array_equal(loaded.labels, label_map.labels)
        assert loaded.num_classes == 3
        assert np.array_equal(loaded.mask, label_map.mask)
        assert shape == [2, 2]

    def test_json_roundtrip_is_byte_identical(self, tmp_path):
        label_map = LabelMap(labels=np.array([1, 0, 1]), num_classes=1)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        formats.save_label_map(first, label_map)
        loaded, shape = formats.load_label_map(first)
        formats.save_label_map(second, loaded, shape=shape)
        assert first.read_bytes() == second.read_bytes()

    def test_numpy_class_count_saves_as_an_int(self, tmp_path):
        """``num_classes`` is stored as an int: a numpy one once made
        ``save_label_map`` fail on JSON."""
        label_map = LabelMap(labels=np.array([1, 0]), num_classes=np.int64(2))
        assert type(label_map.num_classes) is int
        formats.save_label_map(tmp_path / "map.json", label_map)
        assert formats.load_label_map(tmp_path / "map.json")[0].num_classes == 2

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps({"shape": [4], "num_classes": 1, "labels": [1, 0]})
        )
        with pytest.raises(ValidationError):
            formats.load_label_map(path)

    @pytest.mark.parametrize(
        "shape", [[-2, -2], [-1, -4], [2, -2, -1], [3], [4, 0], [1.5, 2]],
        ids=["negative-pair", "negative-pair-2", "two-negatives", "short", "zero",
             "fractional"],
    )
    def test_shape_must_be_extents_of_the_labels(self, tmp_path, shape):
        """Integral, non-negative extents whose product is the label count."""
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps({"shape": shape, "num_classes": 1, "labels": [1, 0, 1, 0]})
        )
        with pytest.raises(ValidationError, match="map.json"):
            formats.load_label_map(path)

    @pytest.mark.parametrize(
        "count, shape",
        [(4, [3]), (2, [2.5]), (4, [-2, -2]), (2, [2, True]), (4, "4"), (4, [])],
        ids=["short", "fractional", "negative-pair", "boolean", "string", "empty"],
    )
    def test_save_rejects_what_load_rejects(self, tmp_path, count, shape):
        """``save_label_map`` checks the shape as its loader does, and
        raises before it writes anything."""
        label_map = LabelMap(labels=np.arange(count) % 2, num_classes=1)
        path = tmp_path / "map.json"
        with pytest.raises(ValidationError, match="map.json"):
            formats.save_label_map(path, label_map, shape=shape)
        assert not path.exists()

    @pytest.mark.parametrize(
        "shape", [(2, 3), [2.0, 3], np.array([2, 3]), [np.int32(6)]],
        ids=["tuple", "integral-float", "numpy-array", "numpy-int"],
    )
    def test_save_accepts_integral_extents(self, tmp_path, shape):
        label_map = LabelMap(labels=np.arange(6) % 2, num_classes=1)
        path = tmp_path / "map.json"
        formats.save_label_map(path, label_map, shape=shape)
        loaded, loaded_shape = formats.load_label_map(path)
        assert loaded_shape == [int(extent) for extent in shape]
        assert np.array_equal(loaded.labels, label_map.labels)

    def test_pgm_roundtrip_for_binary_2d(self, tmp_path):
        labels = np.array([[1, 0, 1], [0, 1, 0]])
        label_map = LabelMap(labels=labels.reshape(-1), num_classes=1)
        path = tmp_path / "map.pgm"
        label_map_to_pgm(path, label_map, shape=(2, 3))
        loaded, shape = formats.label_map_from_pgm(path)
        assert shape == [2, 3]
        assert np.array_equal(loaded.labels, labels.reshape(-1))

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n3 x\n255\n",
            b"P5\n3",
            b"P5\n# c",
            b"P53 2\n255\n" + bytes(6),
            b"P5 2#x 1 255 " + bytes(2),  # a comment starts only a token
            b"P5 2 1 #c",  # a comment with no newline ends the file
            b"P5 1234567890 1 255 " + bytes(2),  # ten digits
            b"P5 0 1 255 ",  # zero width
            b"P5 2 1 255\x00\xff",  # no whitespace after maxval
            b"P5 2 1 255\x00\xff\xff",  # the same, with the two pixels after it
            b"P5 2 #c 1 255 \x00\xff",  # a comment runs to a newline
        ],
    )
    def test_malformed_pgm_header_rejected(self, tmp_path, header):
        path = tmp_path / "map.pgm"
        path.write_bytes(header)
        with pytest.raises(ValidationError, match="map.pgm"):
            formats.label_map_from_pgm(path)

    @pytest.mark.parametrize("header", [b"P5 2 #c\n#d\n 1 255 ", b"P5 2 1 0255 "])
    def test_pgm_header_comments_and_padded_maxval_accepted(self, tmp_path, header):
        path = tmp_path / "map.pgm"
        path.write_bytes(header + b"\x00\xff")
        assert formats._read_pgm_bytes(path).tolist() == [[0, 255]]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.binary(max_size=40), st.binary(max_size=40).map(b"P5".__add__)),
        byte_mutations,
    )
    def test_random_and_mutated_pgm_bytes_load_or_raise_validation_error(
        self, data, mutations
    ):
        loaded = load_mutated(formats.label_map_from_pgm, data, [], "r.pgm")
        assert loaded is None or isinstance(loaded[0], LabelMap)
        valid = b"P5\n# map\n3 2\n255\n" + bytes([0, 255, 128, 127, 255, 0])
        loaded = load_mutated(formats.label_map_from_pgm, valid, mutations, "m.pgm")
        assert loaded is None or isinstance(loaded[0], LabelMap)


class TestStrictFields:
    """Integer fields take only integral JSON numbers, never booleans, and
    masks only ``true``/``false``: each document below loads on a coercing
    reader as a different, valid map or model."""

    LABEL_MAPS = {
        "fractional-label": {"shape": [3], "num_classes": 1, "labels": [1.7, 0, 1]},
        "boolean-label": {"shape": [3], "num_classes": 1, "labels": [True, 0, 1]},
        "non-boolean-mask": {
            "shape": [4], "num_classes": 1, "labels": [1, 0, 1, 0],
            "mask": [1, 0, 2, "x"],
        },
        "integer-mask": {
            "shape": [2], "num_classes": 1, "labels": [1, 0], "mask": [1, 0],
        },
        "fractional-shape": {"shape": [1.9, 2], "num_classes": 1, "labels": [1, 0]},
        "fractional-num-classes": {"shape": [2], "num_classes": 1.5, "labels": [1, 0]},
    }

    @pytest.mark.parametrize("case", sorted(LABEL_MAPS))
    def test_coercible_label_map_rejected(self, tmp_path, case):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(self.LABEL_MAPS[case]))
        with pytest.raises(ValidationError, match="map.json"):
            formats.load_label_map(path)

    SSNT_MUTATIONS = {
        "fractional-S": lambda d: d.update(S=4.9),
        "boolean-R": lambda d: d.update(R=True),
        "fractional-tensor-shape": lambda d: d["mean"].update(shape=[4.2]),
        "negative-tensor-shape": lambda d: d["factor"].update(shape=[-4, -1]),
    }

    @pytest.mark.parametrize("case", sorted(SSNT_MUTATIONS))
    def test_coercible_ssnt_rejected(self, tmp_path, case):
        path = tmp_path / "model.ssnt"
        model = LowRankGaussian(np.zeros(4), np.ones((4, 1)), np.zeros(4), 4, 1, 1)
        formats.save_distribution(path, model)
        document = json.loads(path.read_text())
        self.SSNT_MUTATIONS[case](document)
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match="model.ssnt"):
            formats.load_distribution(path)

    def test_integral_floats_are_integers(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            '{"shape":[2.0,1],"num_classes":2e0,"labels":[1.0,0],'
            '"mask":[true,false]}'
        )
        label_map, shape = formats.load_label_map(path)
        assert shape == [2, 1] and label_map.num_classes == 2
        assert label_map.labels.tolist() == [1, 0]


class TestPgmPlots:
    def test_plot_writes_scale_sidecar(self, tmp_path):
        image = np.linspace(-2.0, 3.0, 12).reshape(3, 4)
        path = tmp_path / "plot.pgm"
        formats.write_pgm_plot(path, image)
        scale = json.loads((tmp_path / "plot.pgm.scale.json").read_text())
        assert scale["min"] == -2.0
        assert scale["max"] == 3.0
        rendered = formats._read_pgm_bytes(path)
        assert rendered.shape == (3, 4)
        assert rendered.min() == 0 and rendered.max() == 255

    def test_constant_image_renders_black(self, tmp_path):
        path = tmp_path / "flat.pgm"
        formats.write_pgm_plot(path, np.full((2, 2), 1.5))
        rendered = formats._read_pgm_bytes(path)
        assert np.all(rendered == 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, tmp_path, value):
        image = np.zeros((2, 3))
        image[1, 2] = value
        with pytest.raises(ValidationError, match="finite"):
            formats.write_pgm_plot(tmp_path / "plot.pgm", image)
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_range_rejected(self, tmp_path):
        """Finite values whose range exceeds the float range would scale to
        nan with three numpy warnings; the plot is refused instead."""
        with pytest.raises(ValidationError, match="finite range"):
            formats.write_pgm_plot(tmp_path / "plot.pgm", [[-1e308, 1e308], [0, 1]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_image_rejected(self, tmp_path, shape):
        """An empty image has no range to scale by; it is refused, not left
        to numpy's reduction error."""
        with pytest.raises(ValidationError, match="non-empty 2-d"):
            formats.write_pgm_plot(tmp_path / "plot.pgm", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []
