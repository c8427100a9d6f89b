"""Signal conversion, spectra, and the field sweeps."""

import numpy as np
import pytest

from nvrp.errors import PhysicsError
from nvrp.hamiltonian import FieldConfig, SensorParams
from nvrp.signal import (
    aligned_prefactor,
    integrated_observables,
    observable_series,
    single_molecule_prefactor,
    spectrum,
    sweep_field_angle,
    sweep_field_magnitude,
)
from nvrp.spincore import isotropic_tensor

from conftest import log_grid, make_pair


def _const_trace(values, n=64, dt=1e-8):
    t = np.arange(n) * dt
    return t, np.tile(np.asarray(values, dtype=float)[:, None], (1, n))


# -- prefactors and linear maps ----------------------------------------------


def test_zero_series_zero_trace(axial3_pair):
    # theta = 0: d_cx = d_cy = 0, so the trace's x and y rows are exact zeros
    t = np.linspace(0.0, 5e-6, 1024, endpoint=False)
    s_tilde = observable_series(axial3_pair, FieldConfig(0.05, 0.0, 0.0), t)
    assert s_tilde.shape == (3, t.shape[0])
    x = single_molecule_prefactor(10.0) * s_tilde
    assert np.all(x[:2] == 0.0) and not np.any(np.signbit(x[:2]))
    assert np.all(single_molecule_prefactor(10.0) * np.zeros_like(s_tilde) == 0.0)


def test_density_linearity():
    a1 = aligned_prefactor(SensorParams(density_per_nm3=0.05))
    a2 = aligned_prefactor(SensorParams(density_per_nm3=0.10))
    assert a2 == pytest.approx(2.0 * a1, rel=1e-15)


def test_log_ratio_invariance():
    a1 = aligned_prefactor(SensorParams(r1_nm=5.0, r2_nm=20.0))
    a2 = aligned_prefactor(SensorParams(r1_nm=10.0, r2_nm=40.0))
    assert a1 == pytest.approx(a2, rel=1e-15)


def test_volume_matches_aligned_max():
    # the aligned-shell scale is the single-molecule scale integrated over the
    # shell: density x 2 pi (beta) x 1 (alpha: sin over [0, pi/2]) x the radial
    # integral of r^2 |D_r| / gamma_e, here by Gauss-Legendre in r
    nodes, weights = np.polynomial.legendre.leggauss(32)
    for sensor in (SensorParams(), SensorParams(r1_nm=3.0, r2_nm=30.0, density_per_nm3=0.2)):
        r1, r2 = sensor.r1_nm, sensor.r2_nm
        rs = 0.5 * (nodes + 1.0) * (r2 - r1) + r1
        scale = np.array([single_molecule_prefactor(r) for r in rs])
        radial_m3 = 0.5 * (r2 - r1) * np.sum(weights * rs**2 * scale) * 1e-27
        density_si = sensor.density_per_nm3 * 1e27
        volume = density_si * 2 * np.pi * radial_m3
        assert aligned_prefactor(sensor) == pytest.approx(volume, rel=1e-10)


def test_shell_ordering_enforced():
    with pytest.raises(PhysicsError, match="r2 > r1"):
        SensorParams(r1_nm=20.0, r2_nm=5.0)


def test_single_molecule_scale_at_10nm():
    # field of a unit moment at 10 nm: about 1.86 uT per unit s_tilde
    assert single_molecule_prefactor(10.0) == pytest.approx(1.857e-6, rel=1e-3)


# -- time integration ----------------------------------------------------------


def test_axial_field_zeroes_transverse_integrals(fadtrp2, sensor):
    x_int = aligned_prefactor(sensor) * integrated_observables(
        fadtrp2, FieldConfig(1.16, 0.0, 0.0)
    )
    assert x_int[0] == 0.0 and x_int[1] == 0.0
    assert x_int[2] != 0.0


# -- spectrum -------------------------------------------------------------------


def test_spectrum_of_sinusoid():
    n, dt = 4096, 1e-8
    t = np.arange(n) * dt
    f0 = 2.0e6
    x = np.stack([np.sin(2 * np.pi * f0 * t)] * 3) * 1e-9
    freq_hz, magnitude = spectrum(t, x)
    peak = freq_hz[np.argmax(magnitude[0])]
    assert peak == pytest.approx(f0, abs=freq_hz[1])


def test_spectrum_zero_bin_is_duration_times_mean():
    _, magnitude = spectrum(*_const_trace([3.0e-9, 0.0, -1.0e-9], n=256, dt=2e-9))
    assert magnitude[0, 0] == pytest.approx(256 * 2e-9 * 3.0e-9, rel=1e-12)


def test_spectrum_parseval():
    rng = np.random.default_rng(3)
    n, dt = 1024, 1e-8
    x = np.stack([rng.normal(size=n)] * 3) * 1e-9
    _, magnitude = spectrum(np.arange(n) * dt, x)
    mags = magnitude[0] / dt
    weights = np.full(mags.shape, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    lhs = np.sum(x[0] ** 2)
    rhs = np.sum(weights * mags**2) / n
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_spectrum_rejects_non_uniform_trace():
    t = np.arange(64) * 1e-8
    t[40:] += 1e-10
    with pytest.raises(ValueError, match="uniform"):
        spectrum(t, np.zeros((3, 64)))


def test_spectrum_band_limited(fadtrp2):
    # oscillation content of the flavin pair at 1.16 mT dies off within tens of MHz
    t = np.linspace(0.0, 25e-6, 32768, endpoint=False)
    s_tilde = observable_series(fadtrp2, FieldConfig(1.16, 0.0, 0.0), t)
    freq_hz, magnitude = spectrum(t, single_molecule_prefactor(10.0) * s_tilde)
    z = magnitude[2]
    above = freq_hz > 100e6
    assert np.max(z[above]) < 1e-3 * np.max(z)


# -- magnitude sweep -----------------------------------------------------------


def test_symmetric_iso_zero_field_null(sensor):
    # equal isotropic tensors, no dipolar: at B = 0 the full rotational
    # symmetry forces every component to vanish
    cfg = make_pair(
        tensors1=[isotropic_tensor(0.5)], tensors2=[isotropic_tensor(0.5)],
        spins1=[0.5], spins2=[0.5], j_mT=0.25,
    )
    x = integrated_observables(cfg, FieldConfig(0.0, 0.0, 0.0))
    assert np.max(np.abs(x)) < 1e-14


def test_high_field_suppression(axial3_pair, sensor):
    grid = log_grid(0.01, 50.0, 24)
    res = sweep_field_magnitude(axial3_pair, grid, aligned_prefactor(sensor))
    z = np.abs(res.x_integrated[2])
    assert z[-1] < 0.10 * np.max(z)


def test_lfe_peak_location_against_oracle(axial3_pair, sensor):
    """Locate the low-field maximum on the sweep, re-check with the RK4 oracle."""
    from nvrp.dynamics import initial_state
    from nvrp.hamiltonian import build_rp_hamiltonian
    from nvrp.oracle import rk4_evolve
    from nvrp.spincore import site_operators

    grid = log_grid(0.1, 5.0, 18)
    res = sweep_field_magnitude(axial3_pair, grid, aligned_prefactor(sensor))
    z = np.abs(res.x_integrated[2])
    i_peak = int(np.argmax(z))
    assert 0 < i_peak < len(grid) - 1

    layout = axial3_pair.layout()
    rho0 = initial_state(axial3_pair.initial_state, layout)
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    sz = s1[2] + s2[2]
    k = axial3_pair.recombination_rate

    def oracle_xz(b):
        # a two-lifetime window keeps the oracle fast; the peak ordering is
        # compared oracle-to-oracle over the same window
        h = build_rp_hamiltonian(axial3_pair, FieldConfig(b, 0.0, 0.0))
        lam = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        t_max = 2.0 / k
        dt = 0.08 / lam
        n = int(round(t_max / dt))
        res = rk4_evolve(rho0, h, k, t_max / n, t_max, observables=[sz], record_every=1)
        return 2.0 * np.mean(res.observables[0][:-1])

    # oracle agrees that the sweep peak beats its grid neighbours
    vals = [abs(oracle_xz(grid[i])) for i in (i_peak - 1, i_peak, i_peak + 1)]
    assert vals[1] >= vals[0] and vals[1] >= vals[2]


def test_densify_adds_points(axial3_pair, sensor):
    grid = log_grid(0.1, 5.0, 10)
    res = sweep_field_magnitude(axial3_pair, grid, aligned_prefactor(sensor), densify=True)
    assert res.grid.shape[0] > 10
    assert np.all(np.diff(res.grid) > 0)


# -- angle sweep ----------------------------------------------------------------


def test_angle_sweep_zeros_and_normalization(axial3_pair, sensor):
    thetas = np.linspace(0.0, np.pi, 45)
    res = sweep_field_angle(
        axial3_pair, 0.05, thetas, 0.0, aligned_prefactor(sensor), normalize=True
    )
    # theta = 0: transverse components vanish identically
    assert res.x_integrated[0, 0] == 0.0
    assert res.x_integrated[1, 0] == 0.0
    # phi = 0: X_y vanishes along the whole sweep
    assert np.max(np.abs(res.x_integrated[1])) == 0.0
    # magic angle: d_cz changes sign, so the raw X_z flips sign across it
    magic = np.arccos(1 / np.sqrt(3))
    i = int(np.searchsorted(thetas, magic)) - 1
    assert res.x_integrated[2, i] * res.x_integrated[2, i + 1] < 0
    # normalization gaps where |d_c| < eps
    assert np.isnan(res.normalized[0, 0])
    assert np.isfinite(res.normalized[2, 0])


def test_angle_sweep_spike_presence(sensor):
    # exchange comparable to the transverse hyperfine components produces
    # a pronounced narrow feature next to 90 degrees
    from nvrp.presets import one_nucleus_config

    cfg = one_nucleus_config("axial3", j_exchange_mT=0.25)
    thetas = np.deg2rad(np.arange(60.0, 120.5, 1.0))
    res = sweep_field_angle(cfg, 0.05, thetas, 0.0, aligned_prefactor(sensor))
    z = np.abs(res.x_integrated[2])
    i90 = int(np.argmin(np.abs(thetas - np.pi / 2)))
    near = z[max(i90 - 25, 0) : i90 + 26]
    assert np.max(near) > 2.0 * z[0]
