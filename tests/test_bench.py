"""The benchmark scripts under bench/ import against the current sources and measure
every stage, and the benchmark under perfbench/ still finds the program's names it reads."""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nvrp
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
    assert {p.name for p in SCRIPTS} >= {"kernels.py", "outputs.py"}


def test_outputs_against_its_own_checkout_reads_every_csv_identical(tmp_path):
    """bench/outputs.py runs two small presets on this checkout twice, in fresh processes."""
    record = tmp_path / "outputs.json"
    runs = ["fig3-coupling-map", "fig7-hyperfine-anisotropy-iso"]
    result = subprocess.run(
        [sys.executable, str(BENCH / "outputs.py"), "--against", str(BENCH.parent),
         "--out", str(record), "--runs", *runs],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    rows = json.loads(record.read_text())["runs"]
    assert list(rows) == runs
    assert {name: run["csv"] for name, run in rows.items()} == {
        "fig3-coupling-map": {"coupling_map.csv": "identical"},
        "fig7-hyperfine-anisotropy-iso": {"anisotropy_sweep.csv": "identical"},
    }
    assert all(run["exit"] == [0, 0] and run["manifest"] == [] for run in rows.values())


def test_outputs_measures_each_differing_column_against_its_max(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_outputs", BENCH / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    this, against = tmp_path / "this.csv", tmp_path / "against.csv"
    this.write_text("# seed: 0\r\nx,y,mode\r\n1,-4,a\r\n2,3,b\r\n")
    against.write_text("# seed: 0\r\nx,y,mode\r\n1,-4.002,a\r\n2,3,c\r\n")
    assert outputs.compare_csv(this, this) == "identical"
    deviations = outputs.compare_csv(this, against)
    assert deviations == {"y": pytest.approx(0.002 / 4.002), "mode": float("inf")}
    manifest = {"wall_time_s": 1.0, "numerics": {"level_matching": [{"k": 1}]}}
    other = {"wall_time_s": 2.0, "numerics": {"level_matching": [{"k": 4, "rule": "fixing"}]}}
    assert outputs.diff_manifests(manifest, other) == [
        {"key": ".numerics.level_matching[0].k", "this": 1, "against": 4},
        {"key": ".numerics.level_matching[0].rule", "this": "(absent)", "against": "fixing"},
    ]


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_bench_script_imports(script):
    """A name a script imports from nvrp that was renamed or removed fails here."""
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT, str(script)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def kernels():
    """bench/kernels.py as a module, timing one round per measurement."""
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH / "kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.MIN_CALLS = 1
    return module


#: the keys of the row each set returns
ROW_KEYS = {"stages": {"dim", "cases"}}


@pytest.mark.parametrize("name", sorted(ROW_KEYS))
def test_kernels_measures_each_set_at_d12(kernels, name):
    row = kernels.measure_stages([kernels.load_tree(kernels.ROOT, "nvrp")], 12, 0.01, 6)
    assert set(row) == ROW_KEYS[name]
    json.dumps(row)  # the record is written as JSON
    assert set(row["cases"]) == set(kernels.CASES)
    for stages in row["cases"].values():
        assert list(stages) == [stage for _, stage in kernels.STAGES]
        for stage in stages.values():
            assert set(stage) == {"this"}
            assert set(stage["this"]) == {"median_ms", "q1_ms", "q3_ms", "calls", "peak_mb"}


def test_kernels_against_its_own_checkout_deviates_by_nothing(kernels):
    """Both trees built from one checkout give bit-identical outputs at every stage and case.

    Each tree builds its own inputs; one tree's config handed to the other would pass an
    enum that fails the other's identity checks and change the result (see kernels.py).
    """
    this = kernels.load_tree(kernels.ROOT, "nvrp")
    against = kernels.load_tree(kernels.ROOT, kernels.AGAINST)
    assert this is nvrp and against.dynamics is not nvrp.dynamics
    row = kernels.measure_stages([this, against], 12, 0.01, 6)
    json.dumps(row)
    for case, stages in row["cases"].items():
        for name, stage in stages.items():
            assert "this_tree_only" not in stage, (case, name)
            assert stage["max_deviation_rel"] == 0.0, (case, name)
            assert not stage["resolved"], (case, name)
    # neither tree has a size threshold for the parity blocks left to lift
    for nv in (this, against):
        assert not [name for name in vars(nv.dynamics) if name.startswith("BLOCK")]


def test_kernels_resolves_a_stage_by_its_paired_rounds(kernels):
    fast, slow = [1.0 + 0.01 * i for i in range(10)], [2.0 + 0.01 * i for i in range(10)]
    assert kernels._resolved(fast, slow) and kernels._resolved(slow, fast)
    assert not kernels._resolved(fast[:9], slow[:9])  # too few rounds
    # quartiles apart, but the slow side wins 2 of the 10 paired rounds
    assert not kernels._resolved(fast[:8] + [9.0, 9.0], slow)


def test_kernels_marks_a_modified_checkout_dirty(kernels, tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

    assert kernels.commit(tmp_path) == "unknown"
    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    head = kernels.commit(tmp_path)
    assert len(head) == 40 and "+" not in head
    (tmp_path / "untracked.txt").write_text("not a tracked file\n")
    assert kernels.commit(tmp_path) == head
    (tmp_path / "a.txt").write_text("two\n")
    assert kernels.commit(tmp_path) == head + "+dirty"


def test_kernels_requires_out(kernels, capsys):
    with pytest.raises(SystemExit) as exc:
        kernels.main(["--set", "real"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_perfbench_finds_the_layers_it_traces():
    """perfbench's tracer binds every layer but ``nvrp.cli.make_propagator``, which cli never
    had, and ``nvrp.signal.build_rp_hamiltonian``: signal assembles H as its exact blocks.

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
        assert tr.missing == ["nvrp.signal.build_rp_hamiltonian", "nvrp.cli.make_propagator"]
        solve_pair(one_nucleus_config("axial3"), FieldConfig(1.16, 0.0, 0.0))
    finally:
        tr.uninstall()
    sizes = {(span.name, span.size) for span in tr.take()}
    assert ("dynamics.make_propagator", 12) in sizes  # the span reads Propagator.dim
    assert tr.missing == ["nvrp.signal.build_rp_hamiltonian", "nvrp.cli.make_propagator"]
    info = spincore.site_operators.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert "record_every" in inspect.signature(oracle.rk4_evolve).parameters
