"""The package and its tests stay compilable by Python 3.10, the oldest
version the CI matrix runs; numpy need not be installed for it."""

import os
import subprocess
from pathlib import Path

import pytest

_PYTHON310 = Path.home() / ".pyenv" / "versions" / "3.10.13" / "bin" / "python"
_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not _PYTHON310.exists(), reason=f"no interpreter at {_PYTHON310}")
def test_sources_compile(tmp_path):
    # the byte code goes to tmp_path, not into __pycache__ beside the sources
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(tmp_path)}
    done = subprocess.run(
        [str(_PYTHON310), "-m", "compileall", "-q", "src", "tests"],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert list(tmp_path.rglob("*.cpython-310.pyc"))
