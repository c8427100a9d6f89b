"""Time the closed-form means against the previous kernel body, and their memory.

Usage (from the root of a checkout):

    python3 bench/means.py                      # writes BENCH_14.json
    python3 bench/means.py --seconds 2 --out /tmp/means.json

Three cases per dimension, each on propagators from ``solve_pair`` at
1.16 mT times a random factor (fixed seed):

* ``real_one_block``: identity orientation, phi = 0 and a random polar
  angle, so H is real and one block; d_cx and d_cz are weighted.
* ``real_blocked``: the same at theta = 0, where H splits exactly into its
  two parity sectors (``BLOCK_MIN_DIM`` is lifted, so that every d splits);
  only d_cz is weighted.
* ``complex``: a Haar-random molecular rotation at theta = 0, fig5's
  ensemble point; H is complex and one block, and only d_cz is weighted.

The previous kernel, kept inline below as ``previous_means`` with its
weights, evaluated all three pair-spin components of every point, formed
the whole d x d weight matrix of each block through a gather and scatter of
its upper triangle, and multiplied complex Y = V (rho~ o G) through real
GEMMs on the float view.  It reads the propagator in the previous layout,
one zero-padded d x d V, which ``eigh_drivers.padded`` assembles from the
eigen-blocks.  ``previous_point`` is the previous
``integrated_observables``: the complex assembly of H, ``make_propagator``
and the previous means.  The new path is ``_expectation_means`` on the
weighted components alone, and ``integrated_observables`` itself.

Each case records the median and quartiles of the wall time per means call
(both kernels on the same propagators, round robin in a rotating order),
the tracemalloc peak above the start of one means call and of one whole
point, and the largest deviation of the new weighted means from the
previous ones, relative to their max|value|.  BLAS is pinned to one thread
in both bundled OpenBLAS copies, as in ``bench/eigh_drivers.py``, whose
environment record this reuses.
"""

from __future__ import annotations

import os

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from functools import lru_cache  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from eigh_drivers import (  # noqa: E402
    MATRICES,
    _peak_mb,
    _quartiles,
    _round_robin,
    _systems,
    environment,
    padded,
    previous_state_factor,
)
from nvrp import dynamics  # noqa: E402
from nvrp.dynamics import _expectation_means, make_propagator, nyquist_samples  # noqa: E402
from nvrp.ensemble import random_rotation  # noqa: E402
from nvrp.hamiltonian import (  # noqa: E402
    ELECTRON_PAIR_SPIN,
    FieldConfig,
    _rp_terms,
    coupling_geometry,
)
from nvrp.signal import integrated_observables, solve_pair  # noqa: E402
from nvrp.spincore import add_two_site, parity_sectors  # noqa: E402

#: measured dimensions: axial3, strongcoupling, fadtrp-2n, fadtrp-3n
DIMS = (12, 64, 216, 864)
#: propagators per case; ``_round_robin``'s timed calls cycle through them
POINTS = MATRICES
CASES = ("real_one_block", "real_blocked", "complex")


def previous_weights(prop, dt: float, n: int) -> list[np.ndarray]:
    """The previous ``dynamics._geometric_mean_weights``, verbatim."""
    k_dt = prop.decay_rate * dt

    def ratio(x, num):
        den = np.expm1(x)
        zero = np.abs(den) < 1e-300
        num[zero] = n
        den[zero] = 1.0
        num /= den
        num /= n
        return num

    x_diag = np.array([-k_dt], dtype=complex)
    out = []
    for _, block in prop.blocks:
        lam = prop.eigenvalues[block]
        d = lam.shape[0]
        rows, cols = _upper_triangle(d)
        x = np.empty(rows.shape[0], dtype=complex)
        x.real = -k_dt
        x.imag = (lam[cols] - lam[rows]) * dt
        if k_dt * n >= 1.0:
            p = np.exp(-1j * (n * dt) * lam)
            num = (np.exp(-k_dt * n) * p)[rows] * p.conj()[cols]
            num -= 1.0
        else:
            num = np.expm1(x * n)
        upper = ratio(x, num)
        geo = np.empty((d, d), dtype=complex)
        geo[rows, cols] = upper
        geo[cols, rows] = upper.conj()
        geo.flat[:: d + 1] = ratio(x_diag, np.expm1(x_diag * n))
        out.append(geo)
    return out


@lru_cache(maxsize=8)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


def previous_means(prop, state, electron_ops, dt: float, n: int) -> np.ndarray:
    """The previous ``dynamics._expectation_means``, verbatim but for the block rows and W.

    ``prop`` is in the previous layout (``eigh_drivers.padded``), which stores a
    block's basis rows as a 1-D index; the kernel's own propagator stored them as
    a column.
    """
    v = prop.eigenvectors
    w = previous_state_factor(prop, state)
    d_nuc = w.shape[0]
    y = np.zeros(v.shape, dtype=complex) if len(prop.blocks) > 1 else None
    for (rows, cols), rho_g in zip(prop.blocks, previous_weights(prop, dt, n)):
        rows = rows if isinstance(rows, slice) else rows[:, None]
        wb = w[:, cols]
        np.multiply(wb.T @ (wb.conj() / d_nuc), rho_g, out=rho_g)
        vb = v[rows, cols]
        part = vb @ rho_g if np.iscomplexobj(v) else _real_times(vb, rho_g)
        if y is None:
            y = part
        else:
            y[rows, cols] = part
    v4, y4 = v.reshape(4, -1), y.reshape(4, -1).T
    e = v4.conj() @ y4 if np.iscomplexobj(v) else _real_times(v4, y4)
    return np.real(np.einsum("mab,ab->m", electron_ops, e))


def previous_hamiltonian(cfg, field, rotation) -> np.ndarray:
    """H_RP as the previous ``build_rp_hamiltonian`` assembled it: always complex."""
    layout = cfg.layout()
    d = layout.total_dimension
    h = np.zeros((d, d), dtype=complex)
    for local, site_a, site_b in _rp_terms(cfg, field, rotation):
        add_two_site(h, local, site_a, site_b, layout)
    return h


def previous_point(cfg, field, rotation) -> np.ndarray:
    """The previous ``signal.integrated_observables``."""
    h = previous_hamiltonian(cfg, field, rotation)
    prop = make_propagator(h, cfg.effective_decay_rate, parity_sectors(cfg.layout()))
    t_max = 5.0 / cfg.effective_decay_rate
    n = nyquist_samples(prop, t_max)
    means = previous_means(padded(prop), cfg.initial_state, ELECTRON_PAIR_SPIN, t_max / n, n)
    return coupling_geometry(1.0, field.theta, field.phi).d_c * means


def _points(cfg, case: str, d: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng([seed, d, CASES.index(case)])
    out = []
    for _ in range(POINTS):
        b = 1.16 * 10 ** rng.uniform(-0.3, 0.3)
        theta = rng.uniform(0.2, 1.4) if case == "real_one_block" else 0.0
        rotation = random_rotation(rng) if case == "complex" else None
        out.append((FieldConfig(b, theta, 0.0), rotation))
    return out


def measure(cfg, case: str, d: int, seconds: float, seed: int) -> dict:
    t_max = 5.0 / cfg.effective_decay_rate
    runs = []
    for field, rotation in _points(cfg, case, d, seed):
        prop = solve_pair(cfg, field, rotation)
        n = nyquist_samples(prop, t_max)
        d_c = coupling_geometry(1.0, field.theta, field.phi).d_c
        weighted = np.flatnonzero(d_c)
        runs.append((cfg, field, rotation, prop, padded(prop), n, weighted))
    blocks = {len(prop.blocks) for *_, prop, _, _, _ in runs}
    assert blocks == ({2} if case == "real_blocked" else {1}), blocks
    assert np.iscomplexobj(runs[0][4].eigenvectors) == (case == "complex")

    def old(i):
        _, _, _, _, prop, n, _ = runs[i]
        return previous_means(prop, cfg.initial_state, ELECTRON_PAIR_SPIN, t_max / n, n)

    def new(i):
        _, _, _, prop, _, n, weighted = runs[i]
        ops = ELECTRON_PAIR_SPIN[weighted]
        return _expectation_means(prop, cfg.initial_state, ops, t_max / n, n)

    deviation = 0.0
    for i, (*_, weighted) in enumerate(runs):
        ref = old(i)[weighted]
        deviation = max(deviation, float(np.max(np.abs(new(i) - ref)) / np.max(np.abs(ref))))
    times = _round_robin({"previous": old, "new": new}, seconds)
    field, rotation = runs[0][1], runs[0][2]
    peaks = {
        "previous": {
            "means_peak_mb": _peak_mb(lambda: old(0)),
            "point_peak_mb": _peak_mb(lambda: previous_point(cfg, field, rotation)),
        },
        "new": {
            "means_peak_mb": _peak_mb(lambda: new(0)),
            "point_peak_mb": _peak_mb(lambda: integrated_observables(cfg, field, rotation)),
        },
    }
    kernels = {name: dict(_quartiles(t), **peaks[name]) for name, t in times.items()}
    return {
        "kernels": kernels,
        "speedup_median": kernels["previous"]["median_ms"] / kernels["new"]["median_ms"],
        "max_deviation_rel": deviation,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4.0, help="timing budget per case")
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_14.json")
    args = parser.parse_args(argv)

    env = environment()
    print(json.dumps(env))
    systems = _systems()
    rows = []
    min_dim, dynamics.BLOCK_MIN_DIM = dynamics.BLOCK_MIN_DIM, 0
    try:
        for d in DIMS:
            row = {"dim": d, "cases": {}}
            for case in CASES:
                r = measure(systems[d], case, d, args.seconds, args.seed)
                row["cases"][case] = r
                p, n = r["kernels"]["previous"], r["kernels"]["new"]
                print(
                    f"d = {d} {case}: previous {p['median_ms']:.3f} [{p['q1_ms']:.3f}, "
                    f"{p['q3_ms']:.3f}] ms, new {n['median_ms']:.3f} [{n['q1_ms']:.3f}, "
                    f"{n['q3_ms']:.3f}] ms, x{r['speedup_median']:.2f}; point peak "
                    f"{p['point_peak_mb']:.2f} -> {n['point_peak_mb']:.2f} MB, means peak "
                    f"{p['means_peak_mb']:.2f} -> {n['means_peak_mb']:.2f} MB; "
                    f"deviation {r['max_deviation_rel']:.1e}",
                    flush=True,
                )
            rows.append(row)
    finally:
        dynamics.BLOCK_MIN_DIM = min_dim
    result = {
        "benchmark": "bench/means.py",
        "command": " ".join(["python3", "bench/means.py", *(argv or sys.argv[1:])]),
        "seconds_per_case": args.seconds,
        "seed": args.seed,
        "points_per_case": POINTS,
        "environment": env,
        "results": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
