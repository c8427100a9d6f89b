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
    ObservableSeries,
    Propagator,
    _check_uniform_grid,
    _expectation_means,
    evolve_observables,
    initial_state,
    make_propagator,
    nyquist_samples,
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
class SignalTrace:
    """Time-resolved detectable signal, Tesla per component."""

    t_grid: np.ndarray
    x: np.ndarray  # shape (3, n)


@dataclass(frozen=True)
class SignalSpectrum:
    """One-sided DFT magnitude of a trace, Tesla * s per component."""

    freq_hz: np.ndarray
    magnitude: np.ndarray  # shape (3, n_freq)


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


def signal_single_molecule(series: ObservableSeries, r_nm: float) -> SignalTrace:
    """Signal of a single molecule at distance r, in Tesla."""
    pref = single_molecule_prefactor(r_nm)
    return SignalTrace(t_grid=series.t_grid, x=pref * series.s_tilde)


def _default_t_max(cfg: RadicalPairConfig) -> float:
    if cfg.effective_decay_rate == 0:
        raise PhysicsError("t_max must be given explicitly when the decay rate is zero")
    return 5.0 / cfg.effective_decay_rate


def solve_pair(
    cfg: RadicalPairConfig, field_cfg: FieldConfig, rotation: Rotation | None = None
) -> tuple[Propagator, np.ndarray]:
    """The propagator of H_RP with its decay rate, and the initial state rho0.

    Every signal, yield and contrast starts from this pair:
    rho(t) = exp(-k_eff t) U(t) rho0 U(t)^dag.  An H split exactly into the
    layout's parity sectors is diagonalised per sector (see ``dynamics``).
    """
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, field_cfg, rotation)
    prop = make_propagator(h, cfg.effective_decay_rate, parity_sectors(layout))
    return prop, initial_state(cfg.initial_state, layout)


def observable_series(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig,
    t_grid: np.ndarray,
    rotation: Rotation | None = None,
) -> ObservableSeries:
    """Evolve one molecule and return its s_tilde time series.

    s_tilde does not depend on the molecule's distance; a distance enters
    only through the prefactor that turns it into Tesla.
    """
    prop, rho0 = solve_pair(cfg, field_cfg, rotation)
    geom = coupling_geometry(1.0, field_cfg.theta, field_cfg.phi)
    return evolve_observables(rho0, prop, t_grid, geom, cfg.layout())


def integrated_observables(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig,
    rotation: Rotation | None = None,
    t_max: float | None = None,
) -> np.ndarray:
    """Sample-mean of s_tilde over a Nyquist-resolved uniform grid.

    Dimensionless; multiply by a prefactor to obtain X_i^I in Tesla.  The
    sample count per point adapts to the spectral spread of H, which
    leaves the closed-form mean exact for the grid actually used.
    """
    prop, _ = solve_pair(cfg, field_cfg, rotation)
    t_max = t_max if t_max is not None else _default_t_max(cfg)
    n = nyquist_samples(prop, t_max)
    means = _expectation_means(prop, cfg.initial_state, ELECTRON_PAIR_SPIN, t_max / n, n)
    geom = coupling_geometry(1.0, field_cfg.theta, field_cfg.phi)
    return geom.d_c * means


def spectrum(trace: SignalTrace) -> SignalSpectrum:
    """One-sided DFT magnitude of a uniformly sampled trace; the zero bin is duration * X^I."""
    dt = _check_uniform_grid(trace.t_grid)
    mag = np.abs(np.fft.rfft(trace.x, axis=1)) * dt
    freq = np.fft.rfftfreq(trace.x.shape[1], dt)
    return SignalSpectrum(freq_hz=freq, magnitude=mag)


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
    if tau_s <= 0:
        raise PhysicsError(f"lifetime must be positive, got {tau_s}")
    return replace(cfg, recombination_rate=1.0 / tau_s)
