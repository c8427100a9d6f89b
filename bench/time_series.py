"""Time the time-series kernels against the previous kernel body.

Usage (from the root of a checkout):

    python3 bench/time_series.py                      # writes BENCH_8.json
    python3 bench/time_series.py --seconds 2 --out /tmp/series.json

Three cases per dimension, each timed against the previous kernel, whose
body is kept inline below as ``previous_series``: per block of
``SERIES_CHUNK`` samples it rebuilt the phases exp(-i lambda t) with one
complex ``exp`` per sample and level, then contracted them with each
operator in turn.

* ``series_xyz``: the three pair-spin components through both kernels,
  which isolates the one phase table per call and the stacked product.
* ``series_weighted``: what a theta = 0 trace evaluates, the three
  components before against the z component alone now (d_cx = d_cy = 0).
* ``contrast``: the 2d transition projectors |psi><psi| of
  ``strongcoupling.peak_contrast``, as eigenbasis matrices c c^dag before
  and as rank-1 norms ``_projector_series`` now.  Skipped at d = 216, where
  the previous path would hold 432 dense d x d projectors (322 MB).

The systems are the shipped ones (axial3 d = 12, strongcoupling d = 64,
fadtrp-2n d = 216) at 1.16 mT on the sensor axis.  The series grid is
fig4a's (32768 samples over five lifetimes), the contrast grid fig6c's
(2048 samples).  The kernels run round-robin, in alternating order, so
that machine drift falls on both alike.  Each case records the median
and quartiles of the wall time per call and the largest deviation of the
new result from the previous one, relative to the previous max|value|.
BLAS is pinned to one thread in both bundled OpenBLAS copies, as in
``bench/eigh_drivers.py``, whose environment record this reuses.
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

from eigh_drivers import _quartiles, environment  # noqa: E402
from nvrp.dynamics import (  # noqa: E402
    SERIES_CHUNK,
    _expectation_series,
    _pair_spin_ops,
    _projector_series,
)
from nvrp.hamiltonian import FieldConfig, coupling_geometry  # noqa: E402
from nvrp.presets import fadtrp_config, one_nucleus_config, strongcoupling_config  # noqa: E402
from nvrp.signal import solve_pair  # noqa: E402
from nvrp.strongcoupling import level_structure  # noqa: E402

#: fewest timed calls per kernel and case
MIN_CALLS = 9
#: samples of the series grid (fig4a) and of the contrast grid (fig6c)
SERIES_SAMPLES = 32768
CONTRAST_SAMPLES = 2048
#: largest dimension whose dense projectors the previous contrast path is timed at
CONTRAST_MAX_DIM = 64


def previous_series(prop, rho0, ops, t_grid, eigenbasis=False):
    """The previous ``dynamics._expectation_series``, verbatim."""
    rho_e = prop.to_eigenbasis(rho0)
    mats = [(op if eigenbasis else prop.to_eigenbasis(op)).T * rho_e for op in ops]
    t_grid = np.asarray(t_grid)
    out = np.empty((len(ops), len(t_grid)))
    for lo in range(0, len(t_grid), SERIES_CHUNK):
        t = t_grid[lo : lo + SERIES_CHUNK]
        phases = np.exp(np.outer(t, -1j * prop.eigenvalues))  # (chunk, d)
        phases_conj = phases.conj()
        for m, mat in enumerate(mats):
            out[m, lo : lo + len(t)] = np.real(
                np.einsum("tn,nm,tm->t", phases, mat, phases_conj, optimize=True)
            )
    out *= np.exp(-prop.decay_rate * t_grid)[None, :]
    return out


def _systems() -> dict[int, object]:
    return {12: one_nucleus_config("axial3"), 64: strongcoupling_config(), 216: fadtrp_config(2)}


def cases(cfg) -> dict[str, tuple]:
    """Case name -> (previous kernel, new kernel, row of the previous result compared)."""
    field = FieldConfig(1.16, 0.0, 0.0)
    prop, rho0 = solve_pair(cfg, field)
    t_max = 5.0 / cfg.effective_decay_rate
    t = np.linspace(0.0, t_max, SERIES_SAMPLES, endpoint=False)
    ops = _pair_spin_ops(cfg.layout())
    out = {
        "series_xyz": (
            lambda: previous_series(prop, rho0, ops, t),
            lambda: _expectation_series(prop, rho0, ops, t),
            slice(None),
        ),
        "series_weighted": (
            lambda: previous_series(prop, rho0, ops, t),
            lambda: _expectation_series(prop, rho0, ops[2:], t),
            slice(2, 3),
        ),
    }
    if prop.dim <= CONTRAST_MAX_DIM:
        levels = level_structure(cfg, field, coupling_geometry(5.0, 0.0, 0.0))
        states = np.concatenate([levels.states_1, levels.states_0[:, levels.pairing]], axis=1)
        coeffs = prop.eigenvectors.conj().T @ states
        tc = np.linspace(0.0, t_max, CONTRAST_SAMPLES, endpoint=False)
        projectors = [np.outer(c, c.conj()) for c in coeffs.T]
        out["contrast"] = (
            lambda: previous_series(prop, rho0, projectors, tc, eigenbasis=True),
            lambda: _projector_series(prop, cfg.initial_state, coeffs, tc),
            slice(None),
        )
    return out


def measure(previous, new, rows: slice, seconds: float) -> dict:
    ref, got = previous()[rows], new()
    deviation = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
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
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_8.json")
    args = parser.parse_args(argv)

    env = environment()
    print(json.dumps(env))
    rows = []
    for d, cfg in sorted(_systems().items()):
        row = {"dim": d, "cases": {}}
        for name, (previous, new, compared) in cases(cfg).items():
            r = measure(previous, new, compared, args.seconds)
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
