"""The package and its tests compile under Python 3.10, the oldest version
the CI matrix runs, and under the newer 3.12 and 3.13, with warnings as
errors: a ``SyntaxWarning`` such as an invalid escape in a string, which 3.12
started to raise, fails the check. numpy need not be installed for it."""

import os
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("version", ["3.10.13", "3.12.1", "3.13.0"])
def test_sources_compile(tmp_path, version):
    python = Path.home() / ".pyenv" / "versions" / version / "bin" / "python"
    if not python.exists():
        pytest.skip(f"no interpreter at {python}")
    # the byte code goes to tmp_path, not into __pycache__ beside the sources
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(tmp_path)}
    done = subprocess.run(
        [str(python), "-W", "error", "-m", "compileall", "-q", "src", "tests"],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    tag = "cpython-" + "".join(version.split(".")[:2])
    assert list(tmp_path.rglob(f"*.{tag}.pyc"))
