"""Time the Hermitian eigensolver drivers on the shipped spin systems.

Usage (from the root of a checkout):

    python3 bench/eigh_drivers.py                      # complex set, writes BENCH_6.json
    python3 bench/eigh_drivers.py --set real           # real set, writes BENCH_10.json
    python3 bench/eigh_drivers.py --set blocks         # parity blocks, writes BENCH_16.json
    python3 bench/eigh_drivers.py --seconds 4 --out /tmp/eigh.json

The complex set holds, for each dimension, a few radical-pair
Hamiltonians with B = 1 mT in a random direction and a Haar-random
molecular rotation (fixed seed).  The real set holds the same systems
with B = 1 mT at a random polar angle, phi = 0 and the identity
orientation: every shipped tensor is diagonal in the molecular frame, so
these Hamiltonians have an exactly zero imaginary part and are passed as
real symmetric float64 matrices.  Each is diagonalised with numpy's
``eigh`` (LAPACK ``zheevd``, or ``dsyevd`` on the real set) and with
``scipy.linalg.eigh(check_finite=False)`` using the divide-and-conquer
(``evd``) and MRRR (``evr``) drivers.  On the real set, ``numpy_complex``
also times numpy's ``zheevd`` on the same matrices stored as complex,
which is what diagonalising them without the real path costs.  The
drivers run round-robin, in a rotating order, so that machine drift falls
on all of them alike.  It reports the median and quartiles of the wall
time per call, the relative reconstruction residual
||V diag(w) V^dag - H|| / ||H||, the orthogonality error ||V^dag V - I||
(Frobenius norms) and the largest eigenvalue difference from numpy's,
relative to max|w|.  ``evr_crossover_dim`` is the smallest measured
dimension at and above which ``evr`` is faster than numpy beyond the
timing spread; on the complex set it backs ``nvrp.dynamics.EVR_MIN_DIM``.
``faster_than_numpy`` lists, per dimension, the drivers whose upper
quartile lies below numpy's lower quartile; on the real set it backs the
choice of numpy's ``dsyevd`` at every dimension.

The blocks set holds the same systems at theta = 0 (B = 1 mT at a random
magnitude factor, identity orientation), where every H splits exactly into
the two parity sectors of ``nvrp.spincore.parity_sectors``.  It times, round
robin: ``dsyevd`` on the whole matrix against ``dsyevd`` on both sector
blocks (their gather included); a whole sweep point, ``make_propagator``
plus the closed-form means of ``integrated_observables``, as one block and
per sector; the split propagator of ``make_propagator`` against the previous
one, kept inline below as ``previous_make_propagator``, which assembled a
zero-padded d x d V with the sectors' columns interleaved by eigenvalue; and
the exact block test alone, timed ``TEST_REPS`` at a time, both the current
one (one even row, then the even x odd block) and the previous
``count_nonzero(H.take(cross))`` on a flat d^2/2 cross-sector index that this
script builds once per layout, as the previous ``parity_sectors`` cached it.
The two propagators are also checked to hold the same eigensystem bit for
bit, and the tracemalloc peak of one call of each is recorded.
``test_share_of_point`` is the block test's median over the one-block
point's, and ``block_min_dim`` the smallest measured d at and above which
the blocked point is faster beyond the timing spread at every measured d;
it backs ``nvrp.dynamics.BLOCK_MIN_DIM``.  The blocks set adds d = 36
(two-nucleus axial3, fig9's system).

``padded`` turns a propagator into the previous layout (ascending
eigenvalues, the padded V and one (rows, columns) index pair per block),
which the previous kernels of ``bench/means.py`` and ``bench/time_series.py``
read; ``previous_state_factor`` is their previous state factor on that V.

The dimensions are the shipped systems (axial3 d = 12, strongcoupling
d = 64, fadtrp-2n d = 216, fadtrp-3n d = 864); the complex set adds two
systems built from the fadtrp-3n nuclei (d = 288 and 432) that bracket
the crossover.  BLAS is pinned to one thread in both bundled OpenBLAS
copies (numpy's and scipy's): the thread variables are set before numpy
is imported, and the libraries' own thread counts are read back and
recorded.
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
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from nvrp import dynamics  # noqa: E402
from nvrp.dynamics import (  # noqa: E402
    _eigh,
    _expectation_means,
    _probe_vectors,
    _real_if_exact,
    electron_pair_state,
    make_propagator,
    nyquist_samples,
)
from nvrp.errors import NumericalError, PhysicsError  # noqa: E402
from nvrp.ensemble import random_rotation  # noqa: E402
from nvrp.hamiltonian import ELECTRON_PAIR_SPIN, FieldConfig, build_rp_hamiltonian  # noqa: E402
from nvrp.presets import (  # noqa: E402
    fadtrp_config,
    one_nucleus_config,
    strongcoupling_config,
    two_nucleus_config,
)
from nvrp.spincore import parity_sectors  # noqa: E402

DRIVERS = {
    "numpy": lambda h: np.linalg.eigh(h),
    "evd": lambda h: scipy.linalg.eigh(h, check_finite=False, driver="evd"),
    "evr": lambda h: scipy.linalg.eigh(h, check_finite=False, driver="evr"),
}

#: Hamiltonians per dimension; the timed calls cycle through them
MATRICES = 3
#: fewest timed calls per driver and dimension
MIN_CALLS = 9
#: block tests per timed call of the blocks set's ``block_test``, whose time is per test
TEST_REPS = 100
#: measured dimensions of each matrix set
SET_DIMS = {
    "complex": (12, 64, 216, 288, 432, 864),
    "real": (12, 64, 216, 864),
    "blocks": (12, 36, 64, 216, 864),
}
#: the file each matrix set writes by default
SET_OUT = {"complex": "BENCH_6.json", "real": "BENCH_10.json", "blocks": "BENCH_16.json"}

#: the previous (basis rows, eigen-columns) index of a propagator that is one block
WHOLE = (slice(None), slice(None))


class PaddedPropagator(NamedTuple):
    """The previous propagator layout: one d x d V, zero between the blocks' rows and columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    decay_rate: float
    blocks: tuple = (WHOLE,)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def padded(prop) -> PaddedPropagator:
    """``prop`` in the previous layout, assembled as ``previous_make_propagator`` did it."""
    if len(prop.blocks) == 1:
        (block,) = prop.blocks
        return PaddedPropagator(block.eigenvalues, block.eigenvectors, prop.decay_rate)
    w = np.concatenate([b.eigenvalues for b in prop.blocks])
    order = np.argsort(w, kind="stable")
    w, columns = w[order], np.argsort(order).reshape(len(prop.blocks), -1)
    v = np.zeros((prop.dim,) * 2, dtype=np.result_type(*(b.eigenvectors for b in prop.blocks)))
    blocks = tuple(zip((b.rows for b in prop.blocks), columns))
    for (r, cols), b in zip(blocks, prop.blocks):
        v[r[:, None], cols] = b.eigenvectors
    return PaddedPropagator(w, v, prop.decay_rate, blocks)


def previous_state_factor(prop: PaddedPropagator, state) -> np.ndarray:
    """The previous ``dynamics._state_factor`` on the whole padded V, verbatim."""
    d = prop.dim
    s = electron_pair_state(state)
    return (s.conj() @ prop.eigenvectors.reshape(4, -1)).conj().reshape(d // 4, d)


def previous_sectors(layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The previous ``spincore.parity_sectors``: even and odd states and the flat cross index."""
    even, odd = parity_sectors(layout)
    is_odd = np.zeros(len(even) + len(odd), dtype=bool)
    is_odd[odd] = True
    return even, odd, np.flatnonzero(is_odd[:, None] != is_odd)


def previous_make_propagator(h, k_eff: float, sectors: tuple | None = None) -> PaddedPropagator:
    """The previous ``dynamics.make_propagator``, verbatim but for its result type.

    ``sectors`` is a triple of :func:`previous_sectors`.
    """
    h = _real_if_exact(np.asarray(h))
    if k_eff < 0:
        raise PhysicsError(f"decay rate must be >= 0, got {k_eff}")
    hnorm = np.linalg.norm(h)
    if hnorm > 0 and np.linalg.norm(h - h.conj().T) > 1e-10 * hnorm:
        raise PhysicsError("propagator generator must be Hermitian")
    rows = [slice(None)]
    split = sectors is not None and h.shape[0] >= dynamics.BLOCK_MIN_DIM
    # a general H shows a nonzero among the first d cross entries, so most tests read only those
    if split and not any(np.count_nonzero(h.take(c)) for c in (sectors[2][: len(h)], sectors[2])):
        rows = list(sectors[:2])
    eigs, residual = [], 0.0
    for r in rows:
        part = h if isinstance(r, slice) else h[r[:, None], r]
        w, v = _eigh(part)
        residual = np.hypot(residual, np.linalg.norm((v * w) @ v.conj().T - part))
        eigs.append((w, v))
    if hnorm > 0 and residual > 1e-8 * hnorm:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-8 * ||H|| = {1e-8 * hnorm:.3e}"
        )
    blocks = (WHOLE,)
    if len(eigs) > 1:  # the sectors have d/2 states each; their columns interleave by eigenvalue
        w = np.concatenate([e[0] for e in eigs])
        order = np.argsort(w, kind="stable")
        w, columns = w[order], np.argsort(order).reshape(2, -1)
        v = np.zeros(h.shape, dtype=np.result_type(*(e[1] for e in eigs)))
        blocks = tuple(zip(rows, columns))
        for (r, cols), (_, vb) in zip(blocks, eigs):
            v[r[:, None], cols] = vb
    x = _probe_vectors(h.shape[0])
    back = (v.T @ (v @ x).conj()).conj()  # V^dag V x without a conjugated copy of V
    loss = np.max(np.linalg.norm(back - x, axis=0))
    if loss > 1e-8:
        raise NumericalError(f"eigenvector orthogonality loss {loss:.3e} exceeds 1e-8")
    return PaddedPropagator(eigenvalues=w, eigenvectors=v, decay_rate=k_eff, blocks=blocks)


def _systems() -> dict[int, object]:
    fad3 = fadtrp_config(3)
    return {
        12: one_nucleus_config("axial3"),
        36: two_nucleus_config("axial3"),
        64: strongcoupling_config(),
        216: fadtrp_config(2),
        288: dataclasses.replace(fad3, nuclei_radical2=fad3.nuclei_radical2[1:]),
        432: dataclasses.replace(fad3, nuclei_radical2=fadtrp_config(2).nuclei_radical2),
        864: fad3,
    }


def _hamiltonians(cfg, d: int, seed: int, real: bool) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, d])
    out = []
    for _ in range(MATRICES):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        if real:
            h = build_rp_hamiltonian(cfg, FieldConfig(1.0, theta, 0.0))
            assert not h.imag.any()
            h = np.ascontiguousarray(h.real)
        else:
            field = FieldConfig(1.0, theta, rng.uniform(0.0, 2 * math.pi))
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


def measure(d: int, cfg, seconds: float, seed: int, real: bool = False) -> dict:
    hs = _hamiltonians(cfg, d, seed, real)
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

    names = list(cases)
    times = {name: [] for name in names}
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start < seconds:
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            fn, mats = cases[name]
            t0 = time.perf_counter()
            fn(mats[i % MATRICES])
            times[name].append(time.perf_counter() - t0)
        i += 1

    drivers = {}
    for name in names:
        acc = accuracy[name]
        drivers[name] = dict(
            _quartiles(times[name]),
            **{key: max(a[key] for a in acc) for key in acc[0]},
        )
    ref = drivers["numpy"]
    faster = [name for name in names if drivers[name]["q3_ms"] < ref["q1_ms"]]
    return {"dim": d, "drivers": drivers, "faster_than_numpy": faster}


def _round_robin(cases: dict, seconds: float) -> dict[str, list[float]]:
    """Wall times per call of each case(i), in a rotating order, for ``seconds`` and MIN_CALLS."""
    names = list(cases)
    times = {name: [] for name in names}
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start < seconds:
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            t0 = time.perf_counter()
            cases[name](i % MATRICES)
            times[name].append(time.perf_counter() - t0)
        i += 1
    return times


def measure_blocks(d: int, cfg, seconds: float, seed: int) -> dict:
    """Whole against per-sector ``dsyevd`` and sweep points at theta = 0 (see the module doc).

    ``BLOCK_MIN_DIM`` is lifted for the call, so that every d can take the blocked path.
    """
    dynamics.BLOCK_MIN_DIM, min_dim = 0, dynamics.BLOCK_MIN_DIM
    try:
        return _measure_blocks(d, cfg, seconds, seed)
    finally:
        dynamics.BLOCK_MIN_DIM = min_dim


def _measure_blocks(d: int, cfg, seconds: float, seed: int) -> dict:
    rng = np.random.default_rng([seed, d])
    sectors = parity_sectors(cfg.layout())
    even, odd = sectors
    old_sectors = previous_sectors(cfg.layout())
    index = [(rows[:, None], rows) for rows in sectors]
    k = cfg.effective_decay_rate
    hs = []
    for _ in range(MATRICES):
        h = build_rp_hamiltonian(cfg, FieldConfig(10 ** rng.uniform(-0.5, 0.5), 0.0, 0.0))
        h = np.ascontiguousarray(h.real)
        assert not np.count_nonzero(h.take(old_sectors[2]))
        hs.append(h)

    def block_test(h):
        return not h[even[0]].take(odd).any() and not h.take(even, 0).take(odd, 1).any()

    def point(h, blocked):
        prop = make_propagator(h, k, sectors if blocked else None)
        n = nyquist_samples(prop, 5.0 / k)
        return prop, _expectation_means(prop, cfg.initial_state, ELECTRON_PAIR_SPIN, 5.0 / k / n, n)

    eig_diff, means_diff, same_eigensystem = [], [], True
    for h in hs:
        (full, m_full), (split, m_split) = point(h, False), point(h, True)
        assert len(full.blocks) == 1 and len(split.blocks) == 2
        scale = np.max(np.abs(full.eigenvalues))
        eig_diff.append(float(np.max(np.abs(split.eigenvalues - full.eigenvalues)) / scale))
        means_diff.append(float(np.max(np.abs(m_split - m_full)) / np.max(np.abs(m_full))))
        old, new = previous_make_propagator(h, k, old_sectors), padded(split)
        same_eigensystem &= all(np.array_equal(a, b) for a, b in zip(old[:2], new[:2]))
        same_eigensystem &= all(np.array_equal(a[1], b[1]) for a, b in zip(old.blocks, new.blocks))
    cases = {
        "dsyevd_full": lambda i: np.linalg.eigh(hs[i]),
        "dsyevd_blocks": lambda i: [np.linalg.eigh(hs[i][ix]) for ix in index],
        "point_full": lambda i: point(hs[i], False),
        "point_blocks": lambda i: point(hs[i], True),
        "propagator_previous": lambda i: previous_make_propagator(hs[i], k, old_sectors),
        "propagator": lambda i: make_propagator(hs[i], k, sectors),
        "block_test_previous": lambda i: [
            np.count_nonzero(hs[i].take(old_sectors[2])) for _ in range(TEST_REPS)
        ],
        "block_test": lambda i: [block_test(hs[i]) for _ in range(TEST_REPS)],
    }
    times = _round_robin(cases, seconds)
    for name in ("block_test_previous", "block_test"):
        times[name] = [t / TEST_REPS for t in times[name]]
    cases_ms = {name: _quartiles(t) for name, t in times.items()}
    share = cases_ms["block_test"]["median_ms"] / cases_ms["point_full"]["median_ms"]
    return {
        "dim": d,
        "cases": cases_ms,
        "propagator_peak_mb": {
            "previous": _peak_mb(lambda: previous_make_propagator(hs[0], k, old_sectors)),
            "new": _peak_mb(lambda: make_propagator(hs[0], k, sectors)),
        },
        "cross_index_mb": old_sectors[2].nbytes / 1e6,
        "same_eigensystem": bool(same_eigensystem),
        "test_share_of_point": share,
        "eigenvalue_diff_rel": max(eig_diff),
        "means_diff_rel": max(means_diff),
    }


def block_min_dim(rows: list[dict]) -> int | None:
    """Smallest measured d at and above which the blocked point beats the one-block point.

    Beating means that the blocked point's upper quartile lies below the
    one-block point's lower quartile at that d and at every larger one.
    """
    best = None
    for row in sorted(rows, key=lambda r: r["dim"], reverse=True):
        split, full = row["cases"]["point_blocks"], row["cases"]["point_full"]
        if split["q3_ms"] >= full["q1_ms"]:
            break
        best = row["dim"]
    return best


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
    parser.add_argument("--set", choices=sorted(SET_DIMS), default="complex", help="matrix set")
    parser.add_argument("--seconds", type=float, default=8.0, help="timing budget per dimension")
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--out", type=Path, default=None, help="default: the set's BENCH file")
    args = parser.parse_args(argv)
    real = args.set == "real"
    out = args.out if args.out is not None else ROOT / SET_OUT[args.set]

    env = environment()
    print(json.dumps(env))
    systems = _systems()
    rows = []
    for d in SET_DIMS[args.set]:
        if args.set == "blocks":
            row = measure_blocks(d, systems[d], args.seconds, args.seed)
            cells = "  ".join(
                f"{name} {r['median_ms']:.3f} [{r['q1_ms']:.3f}, {r['q3_ms']:.3f}] ms"
                for name, r in row["cases"].items()
            )
            peak = row["propagator_peak_mb"]
            cells += f"  test/point {row['test_share_of_point']:.2%}"
            cells += f"  propagator peak {peak['previous']:.2f} -> {peak['new']:.2f} MB"
            cells += f"  same eigensystem {row['same_eigensystem']}"
        else:
            row = measure(d, systems[d], args.seconds, args.seed, real)
            cells = "  ".join(
                f"{name} {r['median_ms']:.2f} [{r['q1_ms']:.2f}, {r['q3_ms']:.2f}] ms "
                f"res {r['residual_rel']:.1e} orth {r['orthogonality']:.1e}"
                for name, r in row["drivers"].items()
            )
        rows.append(row)
        print(f"d = {d}: {cells}", flush=True)
    result = {
        "benchmark": "bench/eigh_drivers.py",
        "command": " ".join(["python3", "bench/eigh_drivers.py", *(argv or sys.argv[1:])]),
        "matrix_set": args.set,
        "seconds_per_dim": args.seconds,
        "seed": args.seed,
        "matrices_per_dim": MATRICES,
        "environment": env,
        "results": rows,
    }
    if args.set == "blocks":
        result["block_min_dim"] = block_min_dim(rows)
        print(f"smallest blocked dimension: d = {result['block_min_dim']}")
    else:
        result["evr_crossover_dim"] = crossover(rows)
        print(f"evr crossover: d = {result['evr_crossover_dim']}")
    out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
