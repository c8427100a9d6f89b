"""The benchmark scripts under bench/ import against the current sources."""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))

#: loads a script as a module without running its ``main``
_IMPORT = (
    "import importlib.util, sys; "
    "spec = importlib.util.spec_from_file_location('bench_script', sys.argv[1]); "
    "spec.loader.exec_module(importlib.util.module_from_spec(spec))"
)


def test_bench_scripts_exist():
    assert {p.name for p in SCRIPTS} >= {"eigh_drivers.py", "means.py", "time_series.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_bench_script_imports(script):
    """A name a script imports from nvrp that was renamed or removed fails here."""
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT, str(script)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
