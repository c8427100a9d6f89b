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
    build_rp_hamiltonian,
    coupling_geometry,
)
from .spincore import Rotation, parity_sectors

#: angular factor guard for theta-corrected signals
NORMALIZE_EPS = 1e-3


def _parallel_map(fn, items, threads: int) -> list:
    """Order-preserving map, optionally on a thread pool (BLAS releases the GIL)."""
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class SweepResult:
    """Integrated signal against a swept variable.

    ``x_integrated`` has shape (3, n) in Tesla.  ``normalized`` divides
    each component by its angular factor d_ci where |d_ci| > 1e-3 and is
    NaN elsewhere (angle sweeps only).
    """

    grid: np.ndarray
    x_integrated: np.ndarray
    normalized: np.ndarray | None = None


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
    """The propagator of H_RP with its decay rate.

    Every signal, yield and contrast starts from it and from the pair's
    initial electron state: rho(t) = exp(-k_eff t) U(t) rho0 U(t)^dag.  An H
    split exactly into the layout's parity sectors is diagonalised per sector
    (see ``dynamics``).
    """
    h = build_rp_hamiltonian(cfg, field_cfg, rotation)
    return make_propagator(h, cfg.effective_decay_rate, parity_sectors(cfg.layout()))


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
    field_cfg: FieldConfig,
    rotation: Rotation | None = None,
    t_max: float | None = None,
) -> np.ndarray:
    """Sample-mean of s_tilde over a Nyquist-resolved uniform grid.

    Dimensionless; multiply by a prefactor to obtain X_i^I in Tesla.  The
    sample count per point adapts to the spectral spread of H, which
    leaves the closed-form mean exact for the grid actually used.  Only the
    components with d_ci != 0 are evaluated; the others are +0.0.
    """
    prop = solve_pair(cfg, field_cfg, rotation)
    t_max = t_max if t_max is not None else _default_t_max(cfg)
    out = coupling_geometry(1.0, field_cfg.theta, field_cfg.phi).d_c + 0.0  # -0.0 becomes +0.0
    weighted = out != 0
    if weighted.any():
        ops = ELECTRON_PAIR_SPIN[weighted]
        out[weighted] *= _expectation_means(prop, cfg.initial_state, ops, t_max)
    return out


def spectrum(t_grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(freq_hz, magnitude) of a trace x, shape (3, n), sampled on the uniform ``t_grid``.

    The one-sided DFT magnitude in Tesla * s per component; the zero bin is
    duration * X^I.
    """
    dt = _check_uniform_grid(t_grid)
    return np.fft.rfftfreq(x.shape[1], dt), np.abs(np.fft.rfft(x, axis=1)) * dt


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

    def point(b: float) -> np.ndarray:
        return prefactor * integrated_observables(cfg, FieldConfig(b, 0.0, 0.0), t_max=t_max)

    values = np.stack(_parallel_map(point, b_grid, threads), axis=1)

    if densify and b_grid.shape[0] >= 3:
        i = int(np.argmax(np.abs(values[2])))
        lo = b_grid[max(i - 1, 0)]
        hi = b_grid[min(i + 1, b_grid.shape[0] - 1)]
        extra = np.logspace(math.log10(lo), math.log10(hi), 5 * 2 + 1)[1:-1]
        extra = np.setdiff1d(np.round(extra, 12), np.round(b_grid, 12))
        if extra.size:
            extra_vals = np.stack(_parallel_map(point, extra, threads), axis=1)
            order = np.argsort(np.concatenate([b_grid, extra]))
            b_grid = np.concatenate([b_grid, extra])[order]
            values = np.concatenate([values, extra_vals], axis=1)[:, order]

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
    """
    thetas = np.asarray(theta_grid, dtype=float)

    def point(th: float) -> np.ndarray:
        return prefactor * integrated_observables(cfg, FieldConfig(b_mT, th, phi), t_max=t_max)

    values = np.stack(_parallel_map(point, thetas, threads), axis=1)
    normalized = None
    if normalize:
        d_c = np.stack(
            [coupling_geometry(1.0, th, phi).d_c for th in thetas], axis=1
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = np.where(np.abs(d_c) > NORMALIZE_EPS, values / d_c, np.nan)
    return SweepResult(grid=thetas, x_integrated=values, normalized=normalized)


def with_exchange(cfg: RadicalPairConfig, j_mT: float) -> RadicalPairConfig:
    """Copy of a configuration with a different exchange constant."""
    return replace(cfg, j_exchange_mT=j_mT)


def with_lifetime(cfg: RadicalPairConfig, tau_s: float) -> RadicalPairConfig:
    """Copy of a configuration with lifetime tau (k = 1/tau)."""
    if not tau_s > 0:  # NaN fails too
        raise PhysicsError(f"lifetime must be positive, got {tau_s}")
    return replace(cfg, recombination_rate=1.0 / tau_s)
