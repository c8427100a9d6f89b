"""Time nvrp's eigenbasis kernels on this tree, or on two trees side by side.

Usage (from the root of a checkout; ``--out`` is required, so that no run
overwrites a committed record by default):

    python3 bench/kernels.py --set complex --out BENCH_6.json
    python3 bench/kernels.py --set real --out BENCH_10.json
    python3 bench/kernels.py --set stages --against ../parent --out /tmp/stages.json

The sets ``complex`` and ``real`` measure this tree alone and back its choice
of eigensolver driver.

``complex`` holds, for each dimension, a few radical-pair Hamiltonians with
B = 1 mT in a random direction and a Haar-random molecular rotation (fixed
seed).  ``real`` holds the same systems at a random polar angle, phi = 0 and
the identity orientation: every shipped tensor is diagonal in the molecular
frame, so these Hamiltonians are real symmetric float64 matrices.  Each is
diagonalised with numpy's ``eigh`` (``zheevd``, or ``dsyevd`` on the real
set) and with ``scipy.linalg.eigh(check_finite=False)`` using the ``evd``
and MRRR ``evr`` drivers; on the real set ``numpy_complex`` times ``zheevd``
on the same matrices stored as complex.  Each driver records the median and
quartiles of its wall time per call, the relative reconstruction residual,
the orthogonality error ||V^dag V - I|| and the largest eigenvalue
difference from numpy's, relative to max|w|.  ``faster_than_numpy`` lists
per dimension the drivers whose upper quartile lies below numpy's lower
quartile; on the real set it backs the choice of ``dsyevd`` at every d.
``evr_crossover_dim``, the smallest measured d from which ``evr`` is faster
than numpy in that sense at every larger one, backs ``nvrp.dynamics.EVR_MIN_DIM``.

``stages`` times the program's entry points per stage: ``build_rp_hamiltonian``,
``make_propagator`` (with the tree's own ``parity_sectors``),
``integrated_observables``, ``observable_series`` (fig4a's grid of 32768
samples over five lifetimes, d <= 216), ``peak_contrast`` (fig6c's 2048
samples with a 5 nm coupling along the field, d <= 64) and
``singlet_yield_mean``, each with the tracemalloc peak of one call, at
1.16 mT in three cases: ``real_one_block`` (theta = 0.6, phi = 0),
``real_blocked`` (theta = 0, where every d splits) and ``complex`` (a Haar
rotation, theta = 0.6, phi = 1.1).  ``level_structure`` takes no rotation and
never splits, so the contrast of the complex case is complex through phi alone.

``--against <checkout>`` takes a tree that, like this one, splits an exact
theta = 0 H at every d (one without ``BLOCK_MIN_DIM``), so that the
``real_blocked`` case runs the same arithmetic in both.  It loads that
checkout's ``src/nvrp`` as a second package, ``nvrp_against``, in the same
interpreter (nvrp imports itself only relatively), times both trees round
robin in alternating order, so that the machine's drift falls on both alike,
and records the largest deviation of this tree's output from the other's, per
row relative to the row's max|value| (a propagator is compared by its levels).  A stage reads
``resolved`` when one tree was faster in at least 9 of 10 paired rounds, over
at least 10 rounds, and the two trees' quartiles lie apart.  Every input is
built from each tree's own modules: an enum or a config of one tree passed
to the other fails identity checks such as ``kind is
InitialElectronState.SINGLET`` and silently changes the result.  A stage
whose entry point takes other parameters in the two trees is timed on this
tree alone and marked ``this_tree_only``; it is never adapted.

Every record names both trees' paths and commits, a commit marked ``+dirty``
when the tree's tracked files differ from it.  BLAS is pinned to one
thread in both bundled OpenBLAS copies (numpy's and scipy's) when the script
runs: the thread variables are set before numpy is imported, and the
libraries' own thread counts are read back and recorded.
"""

from __future__ import annotations

import os

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":  # before numpy loads; importing this module changes no environment
    os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

DRIVERS = {
    "numpy": lambda h: np.linalg.eigh(h),
    "evd": lambda h: scipy.linalg.eigh(h, check_finite=False, driver="evd"),
    "evr": lambda h: scipy.linalg.eigh(h, check_finite=False, driver="evr"),
}

#: set -> (measured dimensions, default timing budget in s per driver row or per stage)
SETS = {
    "complex": ((12, 64, 216, 288, 432, 864), 8.0),
    "real": ((12, 64, 216, 864), 8.0),
    "stages": ((12, 64, 216, 864), 2.0),
}
#: Hamiltonians per dimension of the driver sets; the timed calls cycle through them
MATRICES = 3
#: fewest timed rounds of every measurement
MIN_CALLS = 10
#: a stage reads ``resolved`` only with at least this many paired rounds, one tree faster
#: in at least this share of them, and the two trees' quartiles apart
RESOLVED_ROUNDS, RESOLVED_SHARE = 10, 0.9
#: the modules of a tree that the sets read
MODULES = ("dynamics", "ensemble", "hamiltonian", "presets", "signal", "spincore", "strongcoupling")
#: the package name of the ``--against`` tree, and the names of the two sides of a record
AGAINST = "nvrp_against"
SIDES = ("this", "against")

#: field of every stage point (mT), and each case's (theta, phi, Haar rotation)
FIELD_MT = 1.16
CASES = {
    "real_one_block": (0.6, 0.0, False),
    "real_blocked": (0.0, 0.0, False),
    "complex": (0.6, 1.1, True),
}
#: the timed entry points, (module, function), in the order they are reported
STAGES = (
    ("hamiltonian", "build_rp_hamiltonian"),
    ("dynamics", "make_propagator"),
    ("signal", "integrated_observables"),
    ("signal", "observable_series"),
    ("strongcoupling", "peak_contrast"),
    ("dynamics", "singlet_yield_mean"),
)
#: samples of the series grid (fig4a) and of the contrast grid (fig6c), and their largest d
SERIES_SAMPLES, SERIES_MAX_DIM = 32768, 216
CONTRAST_SAMPLES, CONTRAST_MAX_DIM = 2048, 64
#: sensor distance of the contrasts' coupling, nm
CONTRAST_R_NM = 5.0


def load_tree(root: Path, name: str):
    """The package ``src/nvrp`` of the checkout ``root``, imported as ``name`` with MODULES."""
    if name not in sys.modules:
        src = root / "src" / "nvrp"
        spec = importlib.util.spec_from_file_location(
            name, src / "__init__.py", submodule_search_locations=[str(src)]
        )
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def commit(root: Path) -> str:
    """``git rev-parse HEAD`` of the checkout at ``root``, or "unknown" if it is not one.

    ``+dirty`` is appended when a tracked file differs from ``HEAD``, staged or not.
    """
    git = ["git", "-C", str(root)]
    try:
        top, head = subprocess.run(
            [*git, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "unknown"
    if Path(top).resolve() != root.resolve():
        return "unknown"
    dirty = subprocess.run([*git, "diff", "--quiet", "HEAD", "--"], capture_output=True)
    return head + ("+dirty" if dirty.returncode else "")


def _systems(nv) -> dict[int, object]:
    p = nv.presets
    fad3 = p.fadtrp_config(3)
    return {
        12: p.one_nucleus_config("axial3"),
        36: p.two_nucleus_config("axial3"),
        64: p.strongcoupling_config(),
        216: p.fadtrp_config(2),
        288: dataclasses.replace(fad3, nuclei_radical2=fad3.nuclei_radical2[1:]),
        432: dataclasses.replace(fad3, nuclei_radical2=p.fadtrp_config(2).nuclei_radical2),
        864: fad3,
    }


def _peak_mb(fn) -> float:
    """tracemalloc peak of one call, above the traced size at its start, in MB."""
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (peak - start) / 1e6


def _quartiles(times: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median_ms": 1e3 * med, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3, "calls": len(times)}


def _round_robin(calls: dict, seconds: float) -> dict[str, list[float]]:
    """Wall times of each call(i) in round i, in a rotating order, for ``seconds`` and MIN_CALLS."""
    names = list(calls)
    times = {name: [] for name in names}
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start < seconds:
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            t0 = time.perf_counter()
            calls[name](i)
            times[name].append(time.perf_counter() - t0)
        i += 1
    return times


def _hamiltonians(nv, d: int, seed: int, real: bool) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, d])
    cfg, out = _systems(nv)[d], []
    for _ in range(MATRICES):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        if real:
            field = nv.hamiltonian.FieldConfig(1.0, theta, 0.0)
            h = nv.hamiltonian.build_rp_hamiltonian(cfg, field)
            assert not h.imag.any()
            h = np.ascontiguousarray(h.real)
        else:
            field = nv.hamiltonian.FieldConfig(1.0, theta, rng.uniform(0.0, 2 * math.pi))
            h = nv.hamiltonian.build_rp_hamiltonian(cfg, field, nv.ensemble.random_rotation(rng))
        assert h.shape == (d, d)
        out.append(h)
    return out


def _accuracy(h: np.ndarray, w: np.ndarray, v: np.ndarray, w_ref: np.ndarray) -> dict[str, float]:
    hnorm = np.linalg.norm(h)
    return {
        "residual_rel": float(np.linalg.norm((v * w) @ v.conj().T - h) / hnorm),
        "orthogonality": float(np.linalg.norm(v.conj().T @ v - np.eye(h.shape[0]))),
        "eigenvalue_diff_rel": float(np.max(np.abs(w - w_ref)) / np.max(np.abs(w_ref))),
    }


def measure_drivers(nv, d: int, seconds: float, seed: int, real: bool) -> dict:
    """The eigensolver drivers on the complex or real set at one d (see the module doc)."""
    hs = _hamiltonians(nv, d, seed, real)
    # driver -> (solver, the matrices it is given)
    cases = {name: (fn, hs) for name, fn in DRIVERS.items()}
    if real:
        cases["numpy_complex"] = (DRIVERS["numpy"], [h.astype(complex) for h in hs])
    refs = [np.linalg.eigh(h)[0] for h in hs]
    accuracy = {name: [] for name in cases}
    for k, (h, w_ref) in enumerate(zip(hs, refs)):
        for name, (fn, mats) in cases.items():
            w, v = fn(mats[k])
            accuracy[name].append(_accuracy(h, w, v, w_ref))
    times = _round_robin(
        {name: lambda i, fn=fn, m=mats: fn(m[i % MATRICES]) for name, (fn, mats) in cases.items()},
        seconds,
    )
    drivers = {
        name: dict(_quartiles(times[name]), **{key: max(a[key] for a in acc) for key in acc[0]})
        for name, acc in accuracy.items()
    }
    ref = drivers["numpy"]
    faster = [name for name, r in drivers.items() if r["q3_ms"] < ref["q1_ms"]]
    return {"dim": d, "drivers": drivers, "faster_than_numpy": faster}


def _stage_calls(nv, d: int, case: str, seed: int) -> dict:
    """Each stage at the case's point as a call without arguments, from ``nv``'s own inputs."""
    theta, phi, haar = CASES[case]
    cfg = _systems(nv)[d]
    field = nv.hamiltonian.FieldConfig(FIELD_MT, theta, phi)
    rotation = nv.ensemble.random_rotation(np.random.default_rng([seed, d])) if haar else None
    k, state = cfg.effective_decay_rate, cfg.initial_state
    h = nv.hamiltonian.build_rp_hamiltonian(cfg, field, rotation)
    sectors = nv.spincore.parity_sectors(cfg.layout())
    prop = nv.signal.solve_pair(cfg, field, rotation)
    assert len(prop.blocks) == (2 if case == "real_blocked" else 1)
    calls = {
        "build_rp_hamiltonian": lambda: nv.hamiltonian.build_rp_hamiltonian(cfg, field, rotation),
        "make_propagator": lambda: nv.dynamics.make_propagator(h, k, sectors),
        "integrated_observables": lambda: nv.signal.integrated_observables(cfg, field, rotation),
        "singlet_yield_mean": lambda: nv.dynamics.singlet_yield_mean(prop, state, 5.0 / k),
    }
    if d <= SERIES_MAX_DIM:
        t = np.linspace(0.0, 5.0 / k, SERIES_SAMPLES, endpoint=False)
        calls["observable_series"] = lambda: nv.signal.observable_series(cfg, field, t, rotation)
    if d <= CONTRAST_MAX_DIM:
        geometry = nv.hamiltonian.coupling_geometry(CONTRAST_R_NM, theta, phi)
        levels = nv.strongcoupling.level_structure(cfg, field, geometry)
        t_c = np.linspace(0.0, 5.0 / k, CONTRAST_SAMPLES, endpoint=False)
        calls["peak_contrast"] = lambda: nv.strongcoupling.peak_contrast(levels, state, t_c)
    return calls


def _same_entry(trees, module: str, name: str) -> bool:
    """Whether the entry point takes the same parameters, by name, in every tree."""
    entries = (getattr(getattr(nv, module), name) for nv in trees)
    return len({tuple(inspect.signature(fn).parameters) for fn in entries}) == 1


def _deviation(got, ref) -> float:
    """Largest |got - ref| of a row over the row's max|ref|; a propagator by its levels."""
    got, ref = (np.atleast_2d(getattr(x, "eigenvalues", x)) for x in (got, ref))
    error, scale = np.max(np.abs(got - ref), axis=1), np.max(np.abs(ref), axis=1)
    # a row that is zero in both (a contrast between equal states) deviates by 0
    return float(np.max(np.divide(error, scale, out=np.zeros_like(error), where=error > 0)))


def measure_stages(trees, d: int, seconds: float, seed: int) -> dict:
    """Every stage of every case at one d, on this tree or on both (see the module doc)."""
    row = {"dim": d, "cases": {}}
    for case in CASES:
        calls = [_stage_calls(nv, d, case, seed) for nv in trees]
        stages = {}
        for module, name in STAGES:
            if name not in calls[0]:
                continue
            shared = len(trees) > 1 and _same_entry(trees, module, name)
            stage = _time_stage([c[name] for c in calls][: 2 if shared else 1], seconds)
            if len(trees) > 1 and not shared:
                stage["this_tree_only"] = "the entry point takes other parameters in each tree"
            stages[name] = stage
            print(f"d = {d} {case} {name}: {_summary(stage)}", flush=True)
        row["cases"][case] = stages
    return row


def _time_stage(fns: list, seconds: float) -> dict:
    """Quartiles and peak of each side's call; with two sides, their ratio and deviation."""
    sides = dict(zip(SIDES, fns))
    outputs = {side: fn() for side, fn in sides.items()}
    times = _round_robin({side: lambda i, fn=fn: fn() for side, fn in sides.items()}, seconds)
    stage = {side: dict(_quartiles(times[side]), peak_mb=_peak_mb(sides[side])) for side in sides}
    if len(sides) == 2:
        this, other = stage["this"], stage["against"]
        stage["median_ratio"] = this["median_ms"] / other["median_ms"]
        stage["resolved"] = _resolved(times["this"], times["against"])
        stage["max_deviation_rel"] = _deviation(outputs["this"], outputs["against"])
    return stage


def _resolved(this: list[float], other: list[float]) -> bool:
    """Whether one tree is faster beyond the spread (see RESOLVED_ROUNDS); rounds are paired."""
    rounds = len(this)
    wins = sum(a < b for a, b in zip(this, other))
    (q1, q3), (p1, p3) = np.percentile(this, [25, 75]), np.percentile(other, [25, 75])
    return bool(
        rounds >= RESOLVED_ROUNDS
        and max(wins, rounds - wins) >= RESOLVED_SHARE * rounds
        and (q3 < p1 or p3 < q1)
    )


def _summary(stage: dict) -> str:
    cells = [
        f"{side} {r['median_ms']:.3f} [{r['q1_ms']:.3f}, {r['q3_ms']:.3f}] ms, "
        f"peak {r['peak_mb']:.2f} MB"
        for side, r in stage.items()
        if side in SIDES
    ]
    if "median_ratio" in stage:
        cells.append(
            f"x{stage['median_ratio']:.3f}{'' if stage['resolved'] else ' (unresolved)'}, "
            f"deviation {stage['max_deviation_rel']:.1e}"
        )
    if "this_tree_only" in stage:
        cells.append("this tree only")
    return "; ".join(cells)


def crossover(rows: list[dict]) -> int | None:
    """Smallest d from which ``evr``'s upper quartile lies below numpy's lower quartile."""
    best = None
    for row in sorted(rows, key=lambda r: r["dim"], reverse=True):
        if not row["drivers"]["evr"]["q3_ms"] < row["drivers"]["numpy"]["q1_ms"]:
            break
        best = row["dim"]
    return best


def measure(name: str, trees, d: int, seconds: float, seed: int) -> dict:
    """One row of the set ``name`` at dimension d; only ``stages`` reads a second tree."""
    if name == "stages":
        return measure_stages(trees, d, seconds, seed)
    return measure_drivers(trees[0], d, seconds, seed, real=name == "real")


def _openblas(lib_dir: Path) -> list[dict]:
    """Version string and live thread count of each OpenBLAS copy in a bundled-library folder."""
    out = []
    for path in sorted(glob.glob(str(lib_dir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for key, stem in (("config", "get_config"), ("threads", "get_num_threads")):
            # 64-bit-integer builds suffix their symbols with 64_
            names = (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}")
            for name in names:
                if hasattr(lib, name):
                    fn = getattr(lib, name)
                    fn.argtypes = []
                    fn.restype = ctypes.c_char_p if key == "config" else ctypes.c_int
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(info)
    return out


def environment() -> dict:
    site = Path(np.__file__).resolve().parent.parent
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(site / "numpy.libs"),
        "scipy_openblas": _openblas(site / "scipy.libs"),
        "thread_env": {key: os.environ.get(key) for key in BLAS_PINS},
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", choices=list(SETS), default="complex", help="what to measure")
    parser.add_argument("--seconds", type=float, default=None, help="budget per row or stage")
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    parser.add_argument("--against", type=Path, default=None, help="a checkout (stages only)")
    args = parser.parse_args(argv)
    if args.against is not None and args.set != "stages":
        parser.error("--against compares two trees on --set stages only")
    if args.against is not None and not (args.against / "src" / "nvrp" / "__init__.py").is_file():
        parser.error(f"--against {args.against}: no src/nvrp/__init__.py there")
    dims, seconds = SETS[args.set]
    seconds = args.seconds if args.seconds is not None else seconds

    roots = [ROOT] + ([args.against.resolve()] if args.against is not None else [])
    trees = [load_tree(root, name) for root, name in zip(roots, ("nvrp", AGAINST))]
    env = environment()
    print(json.dumps(env))
    rows = []
    for d in dims:
        row = measure(args.set, trees, d, seconds, args.seed)
        if args.set in ("complex", "real"):
            print(f"d = {d}: " + "  ".join(
                f"{name} {r['median_ms']:.2f} [{r['q1_ms']:.2f}, {r['q3_ms']:.2f}] ms "
                f"res {r['residual_rel']:.1e} orth {r['orthogonality']:.1e}"
                for name, r in row["drivers"].items()
            ), flush=True)
        rows.append(row)
    result = {
        "benchmark": "bench/kernels.py",
        "command": " ".join(["python3", "bench/kernels.py", *(argv or sys.argv[1:])]),
        "set": args.set,
        "seconds": seconds,
        "seed": args.seed,
        "environment": env,
        "trees": {side: {"path": str(r), "commit": commit(r)} for side, r in zip(SIDES, roots)},
        "results": rows,
    }
    if args.set == "stages":
        result.update(field_mT=FIELD_MT, cases=CASES, series_samples=SERIES_SAMPLES,
                      contrast_samples=CONTRAST_SAMPLES)
    else:
        result["evr_crossover_dim"] = crossover(rows)
        print(f"evr crossover: d = {result['evr_crossover_dim']}")
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
