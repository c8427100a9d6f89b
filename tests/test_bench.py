"""The benchmark scripts under bench/ import against the current sources, and the
benchmark under perfbench/ still finds the program's names it reads."""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from nvrp import oracle, spincore
from nvrp.hamiltonian import FieldConfig
from nvrp.presets import one_nucleus_config
from nvrp.signal import solve_pair

BENCH = Path(__file__).resolve().parent.parent / "bench"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def test_perfbench_finds_the_layers_it_traces():
    """perfbench's tracer binds every layer but ``nvrp.cli.make_propagator``, which cli never had.

    A rename that the benchmark would no longer see fails here, and so does one of the
    other names its child process reads: the per-layout cache counters and the oracle's
    ``record_every``.  Only files under perfbench/ are read.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == ["nvrp.cli.make_propagator"]
        solve_pair(one_nucleus_config("axial3"), FieldConfig(1.16, 0.0, 0.0))
    finally:
        tr.uninstall()
    sizes = {(span.name, span.size) for span in tr.take()}
    assert ("dynamics.make_propagator", 12) in sizes  # the span reads Propagator.dim
    assert tr.missing == ["nvrp.cli.make_propagator"]
    info = spincore.site_operators.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert "record_every" in inspect.signature(oracle.rk4_evolve).parameters
