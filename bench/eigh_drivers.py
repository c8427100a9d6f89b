"""Time the Hermitian eigensolver drivers on the shipped spin systems.

Usage (from the root of a checkout):

    python3 bench/eigh_drivers.py                      # writes BENCH_6.json
    python3 bench/eigh_drivers.py --seconds 4 --out /tmp/eigh.json

For each dimension the harness builds a few radical-pair Hamiltonians
(B = 1 mT in a random direction, Haar-random molecular rotation, fixed
seed) and diagonalises them with numpy's ``eigh`` (LAPACK ``zheevd``)
and with ``scipy.linalg.eigh(check_finite=False)`` using the
divide-and-conquer (``evd``) and MRRR (``evr``) drivers.  The drivers run
round-robin, in a rotating order, so that machine drift falls on all
three alike.  It reports the median and quartiles of the wall time per
call, the relative reconstruction residual ||V diag(w) V^dag - H|| / ||H||,
the orthogonality error ||V^dag V - I|| (Frobenius norms) and the
largest eigenvalue difference from numpy's, relative to max|w|.
``evr_crossover_dim`` is the smallest measured dimension at and above which
``evr`` is faster than numpy beyond the timing spread; it backs
``nvrp.dynamics.EVR_MIN_DIM``.

The dimensions are the shipped systems (axial3 d = 12, strongcoupling
d = 64, fadtrp-2n d = 216, fadtrp-3n d = 864) plus two systems built
from the fadtrp-3n nuclei (d = 288 and 432) that bracket the crossover.
BLAS is pinned to one thread in both bundled OpenBLAS copies (numpy's
and scipy's): the thread variables are set before numpy is imported,
and the libraries' own thread counts are read back and recorded.
"""

from __future__ import annotations

import os

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from nvrp.ensemble import random_rotation  # noqa: E402
from nvrp.hamiltonian import FieldConfig, build_rp_hamiltonian  # noqa: E402
from nvrp.presets import fadtrp_config, one_nucleus_config, strongcoupling_config  # noqa: E402

DRIVERS = {
    "numpy": lambda h: np.linalg.eigh(h),
    "evd": lambda h: scipy.linalg.eigh(h, check_finite=False, driver="evd"),
    "evr": lambda h: scipy.linalg.eigh(h, check_finite=False, driver="evr"),
}

#: Hamiltonians per dimension; the timed calls cycle through them
MATRICES = 3
#: fewest timed calls per driver and dimension
MIN_CALLS = 9


def _systems() -> dict[int, object]:
    fad3 = fadtrp_config(3)
    return {
        12: one_nucleus_config("axial3"),
        64: strongcoupling_config(),
        216: fadtrp_config(2),
        288: dataclasses.replace(fad3, nuclei_radical2=fad3.nuclei_radical2[1:]),
        432: dataclasses.replace(fad3, nuclei_radical2=fadtrp_config(2).nuclei_radical2),
        864: fad3,
    }


def _hamiltonians(cfg, d: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, d])
    out = []
    for _ in range(MATRICES):
        field = FieldConfig(1.0, math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi))
        h = build_rp_hamiltonian(cfg, field, random_rotation(rng))
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


def _quartiles(times: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median_ms": 1e3 * med, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3, "calls": len(times)}


def measure(d: int, cfg, seconds: float, seed: int) -> dict:
    hs = _hamiltonians(cfg, d, seed)
    refs = [np.linalg.eigh(h)[0] for h in hs]
    accuracy = {name: [] for name in DRIVERS}
    for h, w_ref in zip(hs, refs):
        for name, fn in DRIVERS.items():
            w, v = fn(h)
            accuracy[name].append(_accuracy(h, w, v, w_ref))

    names = list(DRIVERS)
    times = {name: [] for name in names}
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start < seconds:
        h = hs[i % MATRICES]
        order = names[i % 3 :] + names[: i % 3]
        for name in order:
            t0 = time.perf_counter()
            DRIVERS[name](h)
            times[name].append(time.perf_counter() - t0)
        i += 1

    drivers = {}
    for name in names:
        acc = accuracy[name]
        drivers[name] = dict(
            _quartiles(times[name]),
            **{key: max(a[key] for a in acc) for key in acc[0]},
        )
    return {"dim": d, "drivers": drivers}


def crossover(rows: list[dict]) -> int | None:
    """Smallest measured d at and above which ``evr`` beats numpy at every measured d.

    Beating means that evr's upper quartile lies below numpy's lower
    quartile, so that the gain exceeds the spread of the timings.
    """
    best = None
    for row in sorted(rows, key=lambda r: r["dim"], reverse=True):
        evr, ref = row["drivers"]["evr"], row["drivers"]["numpy"]
        if evr["q3_ms"] >= ref["q1_ms"]:
            break
        best = row["dim"]
    return best


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
    parser.add_argument("--seconds", type=float, default=8.0, help="timing budget per dimension")
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_6.json")
    args = parser.parse_args(argv)

    env = environment()
    print(json.dumps(env))
    rows = []
    for d, cfg in sorted(_systems().items()):
        row = measure(d, cfg, args.seconds, args.seed)
        rows.append(row)
        cells = "  ".join(
            f"{name} {r['median_ms']:.2f} [{r['q1_ms']:.2f}, {r['q3_ms']:.2f}] ms "
            f"res {r['residual_rel']:.1e} orth {r['orthogonality']:.1e}"
            for name, r in row["drivers"].items()
        )
        print(f"d = {d}: {cells}", flush=True)
    result = {
        "benchmark": "bench/eigh_drivers.py",
        "command": " ".join(["python3", "bench/eigh_drivers.py", *(argv or sys.argv[1:])]),
        "seconds_per_dim": args.seconds,
        "seed": args.seed,
        "matrices_per_dim": MATRICES,
        "environment": env,
        "results": rows,
        "evr_crossover_dim": crossover(rows),
    }
    print(f"evr crossover: d = {result['evr_crossover_dim']}")
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
