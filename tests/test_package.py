import os
import subprocess
import sys
from pathlib import Path

import ssn_lab


def test_public_names_resolve_and_are_sorted():
    names = ssn_lab.__all__
    assert [name for name in names if not hasattr(ssn_lab, name)] == []
    assert names == sorted(set(names))


def test_import_leaves_scipy_linalg_unloaded():
    """``scipy.linalg`` adds tens of milliseconds to start-up, and only the
    log-densities need it, so the package imports it where they run."""
    src = str(Path(ssn_lab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = "import sys, ssn_lab; print('scipy.linalg' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
