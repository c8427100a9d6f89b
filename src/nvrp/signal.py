"""Sensor-detectable magnetic signals and the field sweeps built on them.

The radical pair's coupling-weighted magnetisation s_tilde_i(t) converts
to a magnetic field at the sensor (in Tesla) through one of two linear
scales:

* per molecule at distance r:   x_i(t) = |D_r(r)| / gamma_e * s_tilde_i(t)
* aligned shell of density xi:  x_i(t) = (xi mu0 gamma_e hbar / 2)
                                          * log(r2/r1) * s_tilde_i(t)

The second form is the single-molecule scale integrated over a shell
r1 < r < r2 of aligned molecules; its radial part is analytic because
the r^-3 prefactor meets the r^2 volume element.  The time-integrated
signal X_i^I is the plain sample mean of a trace (units Tesla): "per
second" in the quantity's name is a label, not an extra 1/s factor.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import GAMMA_E, HBAR, MU0, dipolar_prefactor
from .dynamics import (
    Propagator,
    _check_uniform_grid,
    _expectation_means,
    _expectation_series,
    make_propagator,
)
from .errors import PhysicsError
from .hamiltonian import (
    ELECTRON_PAIR_SPIN,
    FieldConfig,
    RadicalPairConfig,
    SensorParams,
    _assemble,
    _rp_terms,
    coupling_geometry,
    mirror_symmetric,
)
from .spincore import Rotation

#: angular factor guard for theta-corrected signals
NORMALIZE_EPS = 1e-3

#: most entries of H in one batch of sweep points: 455 points at d = 12, 50 at
#: d = 36, 16 at d = 64, 7 at d = 96 and one from d = 216 on, as before batching
BATCH_ENTRIES = 1 << 16


def _parallel_map(fn, items, threads: int) -> list:
    """Order-preserving map on at most ``os.cpu_count()`` threads (BLAS releases the GIL)."""
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class SweepResult:
    """Integrated signal against a swept variable.

    ``x_integrated`` has shape (3, n) in Tesla.  ``normalized`` divides
    each component by its angular factor d_ci where |d_ci| > 1e-3 and is
    NaN elsewhere (angle sweeps only).  ``theta0`` is the propagator at
    theta = 0 of an angle sweep whose grid starts there.
    """

    grid: np.ndarray
    x_integrated: np.ndarray
    normalized: np.ndarray | None = None
    theta0: Propagator | None = None


def single_molecule_prefactor(r_nm: float) -> float:
    """Tesla per unit s_tilde for one molecule at distance r."""
    return abs(dipolar_prefactor(r_nm)) / GAMMA_E


def aligned_prefactor(sensor: SensorParams) -> float:
    """Tesla per unit s_tilde for an aligned sensing shell (Eq.-13 scale)."""
    density_si = sensor.density_per_nm3 * 1e27
    return 0.5 * density_si * MU0 * GAMMA_E * HBAR * math.log(sensor.r2_nm / sensor.r1_nm)


def _default_t_max(cfg: RadicalPairConfig) -> float:
    if cfg.effective_decay_rate == 0:
        raise PhysicsError("t_max must be given explicitly when the decay rate is zero")
    return 5.0 / cfg.effective_decay_rate


def solve_pair(
    cfg: RadicalPairConfig, field_cfg: FieldConfig, rotation: Rotation | None = None
) -> Propagator:
    """The propagator of H_RP at one field, with its decay rate.

    Every series, yield and contrast starts from it and from the pair's
    initial electron state: rho(t) = exp(-k_eff t) U(t) rho0 U(t)^dag.  H is built as its
    exact blocks (``hamiltonian._assemble``) and diagonalised per block (see ``dynamics``).
    X^I is taken by sweep batches instead (:func:`_evaluate`).
    """
    terms = _rp_terms(cfg, [field_cfg], rotation)
    return make_propagator(_assemble(terms, cfg.layout(), split=True), cfg.effective_decay_rate)[0]


def observable_series(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig,
    t_grid: np.ndarray,
    rotation: Rotation | None = None,
) -> np.ndarray:
    """Evolve one molecule and return its s_tilde time series, shape (3, n_t).

    s_tilde[i](t) = d_ci <S1i + S2i>(t) for i in {x, y, z}, dimensionless.  It
    does not depend on the molecule's distance; a distance enters only through
    the prefactor that turns it into Tesla.  Only the components with d_ci != 0
    are evaluated; the others are +0.0.  The grid must be uniform and resolve
    the largest eigenvalue gap (dt < pi / spread), otherwise a ValueError
    reports the required dt: a trace is Fourier-transformed (:func:`spectrum`).
    """
    prop = solve_pair(cfg, field_cfg, rotation)
    t_grid = np.asarray(t_grid, dtype=float)
    dt, spread = _check_uniform_grid(t_grid), prop.spectral_spread
    if spread > 0 and dt >= np.pi / spread:
        raise ValueError(
            f"time grid undersamples the dynamics: dt = {dt:.3e} s but the "
            f"largest eigenvalue gap needs dt < {np.pi / spread:.3e} s"
        )
    d_c = coupling_geometry(1.0, field_cfg.theta, field_cfg.phi).d_c
    out = np.zeros((3, t_grid.shape[0]))
    weighted = d_c != 0
    if weighted.any():
        ops = ELECTRON_PAIR_SPIN[weighted]
        out[weighted] = d_c[weighted, None] * _expectation_series(
            prop, cfg.initial_state, ops, t_grid
        )
    return out


def integrated_observables(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig | Sequence[FieldConfig],
    rotation: Rotation | None = None,
    t_max: float | None = None,
    prop: Propagator | None = None,
) -> np.ndarray:
    """Sample-mean of s_tilde over a Nyquist-resolved uniform grid, shape (3,).

    Dimensionless; multiply by a prefactor to obtain X_i^I in Tesla.  The
    sample count per point adapts to the spectral spread of H, which
    leaves the closed-form mean exact for the grid actually used.  Only the
    components with d_ci != 0 are evaluated; the others are +0.0.  A
    sequence of N fields gives shape (N, 3); without ``prop`` it runs in
    :func:`_evaluate`'s batches, as every sweep does.  ``prop``, passed only by
    :func:`_evaluate`, is the propagator of those fields, already built.
    """
    one = isinstance(field_cfg, FieldConfig)
    fields = [field_cfg] if one else field_cfg
    if prop is None:
        out = _evaluate([cfg], fields, [t_max], 1, rotation=rotation)[0][0]
        return out[0] if one else out
    prop = prop[None] if one else prop
    t_max = t_max if t_max is not None else _default_t_max(cfg)
    out = np.array([coupling_geometry(1.0, f.theta, f.phi).d_c for f in fields]) + 0.0
    weighted = out.any(axis=0)
    if weighted.any():
        ops = ELECTRON_PAIR_SPIN[weighted]
        out[:, weighted] *= _expectation_means(prop, cfg.initial_state, ops, t_max)
        out += 0.0  # -0.0 becomes +0.0, also where a point weights less than the batch
    return out[0] if one else out


def spectrum(t_grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(freq_hz, magnitude) of a trace x, shape (3, n), sampled on the uniform ``t_grid``.

    The one-sided DFT magnitude in Tesla * s per component; the zero bin is
    duration * X^I.
    """
    dt = _check_uniform_grid(t_grid)
    return np.fft.rfftfreq(x.shape[1], dt), np.abs(np.fft.rfft(x, axis=1)) * dt


def field_batches(fields: Sequence[FieldConfig], dim: int) -> list[np.ndarray]:
    """The indices of ``fields`` cut into batches of at most BATCH_ENTRIES entries of H.

    A batch shares the block structure and dtype of H at dimension ``dim``: its fields
    all lie on the z axis or all off it, and all have B_y = 0 or all not.
    """
    b = np.array([f.vector_mT() for f in fields]).reshape(-1, 3)
    kind = 2 * ((b[:, 0] == 0) & (b[:, 1] == 0)) + (b[:, 1] != 0)
    size = max(1, BATCH_ENTRIES // dim ** 2)
    groups = (np.flatnonzero(kind == k) for k in dict.fromkeys(kind.tolist()))
    return [g[lo : lo + size] for g in groups for lo in range(0, g.size, size)]


def _evaluate(
    cfgs: Sequence[RadicalPairConfig],
    fields: list[FieldConfig],
    t_maxes: Sequence[float | None],
    threads: int,
    keep: int | None = None,
    rotation: Rotation | None = None,
) -> tuple[np.ndarray, list[Propagator] | None]:
    """s_tilde means of every pair at every field, shape (n_pairs, n_fields, 3), by batches.

    A batch (:func:`field_batches`; the grid alone fixes it) shares the block
    structure and dtype of H, built as in :func:`solve_pair`.  Per batch the pairs run in
    turn; a pair whose local terms (so H) equal the pair's before it (a lifetime scan's)
    takes that eigensystem with its own decay rate, and no H outlives its propagator.
    With ``keep``, also each pair's propagator at ``fields[keep]``.  ``rotation`` turns
    every pair's tensors.
    """
    batches = field_batches(fields, cfgs[0].layout().total_dimension)

    def run(points: np.ndarray) -> tuple[np.ndarray, list[Propagator]]:
        batch = [fields[i] for i in points]
        out, kept, prev, prop = [], [], None, None
        for cfg, t_max in zip(cfgs, t_maxes):
            terms = _rp_terms(cfg, batch, rotation)
            key = [(a, b, t.shape, t.dtype.str, t.tobytes()) for t, a, b in terms]  # exact
            k = cfg.effective_decay_rate
            if key == prev:
                prop = replace(prop, decay_rate=k)  # H does not depend on the decay
            else:
                prop = make_propagator(_assemble(terms, cfg.layout(), split=True), k)
            prev = key
            out.append(integrated_observables(cfg, batch, t_max=t_max, prop=prop))
            kept += [prop[i] for i in np.flatnonzero(points == keep)[:1]]
        return np.stack(out), kept

    values = np.empty((len(cfgs), len(fields), 3))
    kept = None
    for points, (vals, props) in zip(batches, _parallel_map(run, batches, threads)):
        values[:, points] = vals
        kept = props or kept
    return values, kept


def sweep_field_magnitude(
    cfg: RadicalPairConfig,
    b_grid_mT: Sequence[float],
    prefactor: float,
    t_max: float | None = None,
    densify: bool = False,
    threads: int = 1,
) -> SweepResult:
    """X_i^I against field magnitude, with the field on the sensor axis.

    The field stays at theta = 0: large transverse fields break the
    two-level sensor approximation.  With ``densify`` a second pass adds
    a 5x denser patch of points around the detected maximum of |X_z^I|.
    ``prefactor`` is the Tesla scale (:func:`single_molecule_prefactor` or
    :func:`aligned_prefactor`).
    """
    b_grid = np.asarray(b_grid_mT, dtype=float)

    def points(grid: np.ndarray) -> np.ndarray:
        fields = [FieldConfig(b, 0.0, 0.0) for b in grid]
        return prefactor * _evaluate([cfg], fields, [t_max], threads)[0][0].T

    values = points(b_grid)

    if densify and b_grid.shape[0] >= 3:
        i = int(np.argmax(np.abs(values[2])))
        lo = b_grid[max(i - 1, 0)]
        hi = b_grid[min(i + 1, b_grid.shape[0] - 1)]
        extra = np.logspace(math.log10(lo), math.log10(hi), 5 * 2 + 1)[1:-1]
        # the sorted extra fields not on the grid at 12 digits: np.setdiff1d without
        # numpy.ma, which its first call imports (about 1.5 MB of peak RSS)
        extra, grid = np.sort(np.round(extra, 12)), np.sort(np.round(b_grid, 12))
        extra = extra[np.r_[True, extra[1:] != extra[:-1]]]
        extra = extra[grid[grid.searchsorted(extra).clip(max=grid.size - 1)] != extra]
        if extra.size:
            order = np.argsort(np.concatenate([b_grid, extra]))
            b_grid = np.concatenate([b_grid, extra])[order]
            values = np.concatenate([values, points(extra)], axis=1)[:, order]

    return SweepResult(grid=b_grid, x_integrated=values)


def sweep_field_angle(
    cfg: RadicalPairConfig,
    b_mT: float,
    theta_grid: Sequence[float],
    phi: float,
    prefactor: float,
    t_max: float | None = None,
    normalize: bool = False,
    threads: int = 1,
) -> SweepResult:
    """X_i^I against the field polar angle at fixed magnitude.

    With ``normalize``, each component is divided by its angular factor
    d_ci(theta, phi) wherever |d_ci| > 1e-3; undefined points are NaN.
    ``prefactor`` is the Tesla scale, as in :func:`sweep_field_magnitude`.

    Where :func:`hamiltonian.mirror_symmetric` holds (phi == 0 and no tensor
    with an xy or xz entry: every preset and shipped config), X(pi - theta) =
    -X(theta) exactly.  A point theta > pi/2 whose mirror image pi - theta is on
    the grid (to 4 ulp) then takes its negated value, so X_x^I at theta = pi is
    exactly 0, and only the other points are diagonalised.  Any other pair
    computes every point.
    """
    return scan_field_angle([cfg], b_mT, theta_grid, phi, prefactor, [t_max], normalize, threads)[0]


def scan_field_angle(
    cfgs: Sequence[RadicalPairConfig],
    b_mT: float,
    theta_grid: Sequence[float],
    phi: float,
    prefactor: float,
    t_maxes: Sequence[float | None],
    normalize: bool = False,
    threads: int = 1,
) -> list[SweepResult]:
    """:func:`sweep_field_angle` of each pair of ``cfgs``, with its window in ``t_maxes``.

    The pairs run batch by batch (:func:`_evaluate`), and points mirror only
    where every pair is mirror-symmetric.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    source = np.full(thetas.shape, -1)  # per point, the grid index of its mirror image
    if all(mirror_symmetric(cfg, phi) for cfg in cfgs):
        low = np.flatnonzero(thetas <= np.pi / 2)
        for j in np.flatnonzero(thetas > np.pi / 2):
            near = low[np.abs(thetas[low] + thetas[j] - np.pi) <= 4 * np.spacing(np.pi)]
            if near.size:
                source[j] = near[0]
    computed, mirrored = np.flatnonzero(source < 0), np.flatnonzero(source >= 0)
    fields = [FieldConfig(b_mT, thetas[i], phi) for i in computed]
    keep = 0 if thetas[0] == 0.0 else None
    raw, theta0 = _evaluate(cfgs, fields, t_maxes, threads, keep)
    d_c = np.stack([coupling_geometry(1.0, th, phi).d_c for th in thetas], axis=1)
    results = []
    for raw_c, prop in zip(raw, theta0 or [None] * len(cfgs)):
        values = np.empty((3, thetas.shape[0]))
        values[:, computed] = prefactor * raw_c.T
        values[:, mirrored] = 0.0 - values[:, source[mirrored]]  # 0.0 - 0.0 is +0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = np.where(np.abs(d_c) > NORMALIZE_EPS, values / d_c, np.nan)
        results.append(SweepResult(thetas, values, normalized if normalize else None, prop))
    return results


def with_exchange(cfg: RadicalPairConfig, j_mT: float) -> RadicalPairConfig:
    """Copy of a configuration with a different exchange constant."""
    return replace(cfg, j_exchange_mT=j_mT)


def with_lifetime(cfg: RadicalPairConfig, tau_s: float) -> RadicalPairConfig:
    """Copy of a configuration with lifetime tau (k = 1/tau)."""
    if not tau_s > 0:  # NaN fails too
        raise PhysicsError(f"lifetime must be positive, got {tau_s}")
    return replace(cfg, recombination_rate=1.0 / tau_s)
