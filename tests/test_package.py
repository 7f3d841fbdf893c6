"""What importing the package and its numpy-free modules loads, each
checked in a fresh interpreter so earlier imports cannot hide a load."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = (
    "import sys; print(' '.join(sorted(m for m in sys.modules"
    " if m == 'numpy' or m.split('.')[0] == 'boundfilter')))"
)


def loaded_after(statement):
    """The boundfilter modules and numpy loaded after `statement`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", f"{statement}; {LOADED}"],
        env=env, capture_output=True, text=True, check=True,
    )
    return res.stdout.split()


def test_importing_the_package_loads_nothing_else():
    assert loaded_after("import boundfilter") == ["boundfilter"]


@pytest.mark.parametrize("module", ["errors", "tolerances"])
def test_numpy_free_modules_load_no_numpy(module):
    assert loaded_after(f"import boundfilter.{module}") == [
        "boundfilter", f"boundfilter.{module}"
    ]
