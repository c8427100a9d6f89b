"""Time the time-series kernels against the previous kernel body.

Usage (from the root of a checkout):

    python3 bench/time_series.py                      # writes BENCH_15.json
    python3 bench/time_series.py --seconds 2 --out /tmp/series.json

The previous kernel is kept inline below as ``previous_series``, with its
``previous_phase_blocks``: it took a dense d x d rho0 and dense embedded
operators to the eigenbasis (two d x d x d products each) and ran one phase-table
GEMM over all d levels, whatever the blocks of the propagator.  The new
``_expectation_series`` takes the 4x4 electron operators and the initial
electron state: per block it forms M from the rows of the electron slabs that
the operators read, through the rank-d/4 state factor, and runs the GEMM over
that block's levels only.  The contrasts' kernel changed only in where its
state factor and phase table come from; its previous body is kept as
``previous_projector_series``.  Both previous kernels read the propagator in
the previous layout, one zero-padded d x d V, which ``eigh_drivers.padded``
assembles from the eigen-blocks.

Four cases per dimension, on the shipped systems (axial3 d = 12,
strongcoupling d = 64, fadtrp-2n d = 216) at 1.16 mT, each evaluating the
components a time trace evaluates (d_ci != 0):

* ``blocked``: theta = 0, where H splits into its two parity sectors
  (``BLOCK_MIN_DIM`` is lifted, so that every d splits; fig4a's point at
  d = 216); only z.
* ``real_one_block``: theta = 0.6 rad, phi = 0; H is real and one block; x and z.
* ``complex``: a Haar-random molecular rotation (fixed seed), theta = 0.6 rad,
  phi = 1.1 rad; H is complex and one block; x, y and z.
* ``contrast``: the 2d transition projectors of ``strongcoupling.peak_contrast``
  as rank-1 norms, at theta = 0 with a 5 nm coupling, on fig6c's grid.
  Skipped at d = 216, where one call of either kernel takes about 8 s and
  holds 432 projector columns against 54 state rows (80 MB); fig6c runs at
  d = 64.

The series grid is fig4a's (32768 samples over five lifetimes), the
contrast grid fig6c's (2048 samples).  The kernels run round-robin, in
alternating order, so that machine drift falls on both alike.  Each case
records the median and quartiles of the wall time per call and the largest
deviation of the new result from the previous one, relative to the previous
max|value| of each row.  BLAS is pinned to one thread in both bundled
OpenBLAS copies, as in ``bench/eigh_drivers.py``, whose environment record
this reuses.
"""

from __future__ import annotations

import os

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from eigh_drivers import _quartiles, environment, padded, previous_state_factor  # noqa: E402
from nvrp import dynamics  # noqa: E402
from nvrp.dynamics import (  # noqa: E402
    SERIES_BLOCK_ENTRIES,
    SERIES_CHUNK,
    _check_uniform_grid,
    _expectation_series,
    _pair_spin_ops,
    _projector_series,
    initial_state,
)
from nvrp.ensemble import random_rotation  # noqa: E402
from nvrp.hamiltonian import ELECTRON_PAIR_SPIN, FieldConfig, coupling_geometry  # noqa: E402
from nvrp.presets import fadtrp_config, one_nucleus_config, strongcoupling_config  # noqa: E402
from nvrp.signal import solve_pair  # noqa: E402
from nvrp.strongcoupling import level_structure  # noqa: E402

#: fewest timed calls per kernel and case
MIN_CALLS = 9
#: samples of the series grid (fig4a) and of the contrast grid (fig6c)
SERIES_SAMPLES = 32768
CONTRAST_SAMPLES = 2048
#: largest dimension at which the contrasts are timed
CONTRAST_MAX_DIM = 64
CASES = ("blocked", "real_one_block", "complex", "contrast")


def _to_eigenbasis(prop, op):
    """The previous ``Propagator.to_eigenbasis``."""
    return prop.eigenvectors.conj().T @ op @ prop.eigenvectors


def previous_phase_blocks(prop, t_grid, columns):
    """The previous ``dynamics._phase_blocks``, verbatim."""
    dt = _check_uniform_grid(t_grid)
    n = t_grid.shape[0]
    rows = max(1, min(SERIES_CHUNK, SERIES_BLOCK_ENTRIES // max(columns, 1), n))
    lam = prop.eigenvalues
    table = np.exp(np.outer(np.arange(rows) * dt, -1j * lam))
    for lo in range(0, n, rows):
        yield lo, table[: n - lo], np.exp(-1j * lam * t_grid[lo])


def previous_series(prop, rho0, ops, t_grid):
    """The previous ``dynamics._expectation_series``, verbatim but for ``to_eigenbasis``."""
    t_grid = np.asarray(t_grid, dtype=float)
    rho_e = _to_eigenbasis(prop, rho0)
    # mats[n, m, j] = O~_m,jn rho~_nj
    mats = np.stack([_to_eigenbasis(prop, op).T * rho_e for op in ops], axis=1)
    d, m = mats.shape[:2]
    out = np.empty((m, t_grid.shape[0]))
    for lo, table, shift in previous_phase_blocks(prop, t_grid, m * d):
        folded = (shift[:, None, None] * mats * shift.conj()).reshape(d, m * d)
        y = (table @ folded).view(float).reshape(-1, m, 2 * d)
        # Re sum_j y_bmj conj(table_bj): a real dot over the (re, im) pairs
        dots = np.matmul(y, table.view(float)[:, :, None])
        out[:, lo : lo + len(table)] = dots[:, :, 0].T
    out *= np.exp(-prop.decay_rate * t_grid)
    return out


def previous_projector_series(prop, state, coeffs, t_grid):
    """The previous ``dynamics._projector_series``, verbatim but for its two helpers."""
    t_grid = np.asarray(t_grid, dtype=float)
    w = previous_state_factor(prop, state)
    d_nuc, d = w.shape
    n_cols = coeffs.shape[1]
    z = w.T[:, :, None] * coeffs.conj()[:, None, :]  # (d, d_nuc, n_cols)
    out = np.empty((n_cols, t_grid.shape[0]))
    for lo, table, shift in previous_phase_blocks(prop, t_grid, d_nuc * n_cols):
        a = (table @ (shift[:, None, None] * z).reshape(d, -1)).view(float)
        norms = np.square(a).reshape(-1, d_nuc, 2 * n_cols).sum(axis=1)
        norms = norms.reshape(-1, n_cols, 2).sum(axis=2)
        out[:, lo : lo + len(table)] = norms.T
    out *= np.exp(-prop.decay_rate * t_grid) / d_nuc
    return out


def _systems() -> dict[int, object]:
    return {12: one_nucleus_config("axial3"), 64: strongcoupling_config(), 216: fadtrp_config(2)}


def case(cfg, name: str) -> tuple:
    """(previous kernel, new kernel) of one case, each a call without arguments."""
    t_max = 5.0 / cfg.effective_decay_rate
    state = cfg.initial_state
    if name == "contrast":
        field = FieldConfig(1.16, 0.0, 0.0)
        levels = level_structure(cfg, field, coupling_geometry(5.0, 0.0, 0.0))
        prop = levels.propagator
        old = padded(prop)
        states = np.concatenate([levels.states_1, levels.states_0[:, levels.pairing]], axis=1)
        coeffs = old.eigenvectors.conj().T @ states
        t = np.linspace(0.0, t_max, CONTRAST_SAMPLES, endpoint=False)
        return (
            lambda: previous_projector_series(old, state, coeffs, t),
            lambda: _projector_series(prop, state, coeffs, t),
        )
    theta, phi, rotation = {
        "blocked": (0.0, 0.0, None),
        "real_one_block": (0.6, 0.0, None),
        "complex": (0.6, 1.1, random_rotation(np.random.default_rng(15))),
    }[name]
    prop = solve_pair(cfg, FieldConfig(1.16, theta, phi), rotation)
    old = padded(prop)
    assert len(prop.blocks) == (2 if name == "blocked" else 1)
    assert np.iscomplexobj(old.eigenvectors) == (name == "complex")
    weighted = coupling_geometry(1.0, theta, phi).d_c != 0
    rho0 = initial_state(state, cfg.layout())
    ops = [op for op, w in zip(_pair_spin_ops(cfg.layout()), weighted) if w]
    t = np.linspace(0.0, t_max, SERIES_SAMPLES, endpoint=False)
    return (
        lambda: previous_series(old, rho0, ops, t),
        lambda: _expectation_series(prop, state, ELECTRON_PAIR_SPIN[weighted], t),
    )


def measure(previous, new, seconds: float) -> dict:
    ref, got = previous(), new()
    error, scale = np.max(np.abs(got - ref), axis=1), np.max(np.abs(ref), axis=1)
    # a row that is zero in both (a contrast between equal states) deviates by 0
    deviation = float(np.max(np.divide(error, scale, out=np.zeros_like(error), where=error > 0)))
    kernels = {"previous": previous, "new": new}
    names = list(kernels)
    times = {name: [] for name in names}
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start < seconds:
        for name in names if i % 2 == 0 else names[::-1]:
            t0 = time.perf_counter()
            kernels[name]()
            times[name].append(time.perf_counter() - t0)
        i += 1
    result = {name: _quartiles(times[name]) for name in names}
    result["speedup_median"] = result["previous"]["median_ms"] / result["new"]["median_ms"]
    result["max_deviation_rel"] = deviation
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=8.0, help="timing budget per case")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_15.json")
    args = parser.parse_args(argv)

    env = environment()
    print(json.dumps(env))
    rows = []
    min_dim, dynamics.BLOCK_MIN_DIM = dynamics.BLOCK_MIN_DIM, 0
    try:
        for d, cfg in sorted(_systems().items()):
            row = {"dim": d, "cases": {}}
            for name in CASES:
                if name == "contrast" and d > CONTRAST_MAX_DIM:
                    continue
                r = measure(*case(cfg, name), args.seconds)
                row["cases"][name] = r
                p, n = r["previous"], r["new"]
                print(
                    f"d = {d} {name}: previous {p['median_ms']:.2f} [{p['q1_ms']:.2f}, "
                    f"{p['q3_ms']:.2f}] ms, new {n['median_ms']:.2f} [{n['q1_ms']:.2f}, "
                    f"{n['q3_ms']:.2f}] ms, x{r['speedup_median']:.2f}, "
                    f"deviation {r['max_deviation_rel']:.1e}",
                    flush=True,
                )
            rows.append(row)
    finally:
        dynamics.BLOCK_MIN_DIM = min_dim
    result = {
        "benchmark": "bench/time_series.py",
        "command": " ".join(["python3", "bench/time_series.py", *(argv or sys.argv[1:])]),
        "seconds_per_case": args.seconds,
        "series_samples": SERIES_SAMPLES,
        "contrast_samples": CONTRAST_SAMPLES,
        "environment": env,
        "results": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
