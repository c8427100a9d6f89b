"""Signal conversion, spectra, and the field sweeps."""

import concurrent.futures
import dataclasses
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from nvrp import signal
from nvrp.config import load_config, read_params
from nvrp.dynamics import singlet_yield_mean
from nvrp.errors import PhysicsError
from nvrp.hamiltonian import FieldConfig, Nucleus, SensorParams, coupling_geometry
from nvrp.presets import one_nucleus_config, two_nucleus_config
from nvrp.signal import (
    NORMALIZE_EPS,
    aligned_prefactor,
    integrated_observables,
    observable_series,
    scan_field_angle,
    single_molecule_prefactor,
    solve_pair,
    spectrum,
    sweep_field_angle,
    sweep_field_magnitude,
    with_lifetime,
)
from nvrp.spincore import isotropic_tensor

from conftest import block_sizes, count_propagators, log_grid, make_pair, rotation_xyz


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


@pytest.mark.parametrize(
    "grid, added", [(log_grid(0.1, 5.0, 10), 8), (np.linspace(0.02, 3.0, 7), 9)]
)
def test_densified_grid_matches_setdiff1d(axial3_pair, sensor, grid, added):
    """The densified grid and values equal those of the set difference at 12 digits.

    On a log grid the middle extra field lies on the grid and is dropped.  The reference
    is the former ``np.setdiff1d`` expression, its extra fields evaluated as one sweep.
    """
    prefactor = aligned_prefactor(sensor)
    res = sweep_field_magnitude(axial3_pair, grid, prefactor, densify=True)
    base = sweep_field_magnitude(axial3_pair, grid, prefactor).x_integrated
    i = int(np.argmax(np.abs(base[2])))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.shape[0] - 1)]
    extra = np.logspace(np.log10(lo), np.log10(hi), 11)[1:-1]
    extra = np.setdiff1d(np.round(extra, 12), np.round(grid, 12))
    assert extra.size == added
    order = np.argsort(np.concatenate([grid, extra]))
    want = sweep_field_magnitude(axial3_pair, extra, prefactor).x_integrated
    assert np.array_equal(res.grid, np.concatenate([grid, extra])[order])
    assert np.array_equal(res.x_integrated, np.concatenate([base, want], axis=1)[:, order])


#: a fresh interpreter runs a densified field sweep and lists the numpy.ma modules loaded
_DENSIFY_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
from nvrp.presets import one_nucleus_config
from nvrp.signal import sweep_field_magnitude

res = sweep_field_magnitude(one_nucleus_config("axial3"), [0.1, 0.3, 1.0, 3.0], 1.0, densify=True)
assert res.grid.size > 4
print([m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")])
"""


def test_densified_sweep_leaves_numpy_ma_unloaded():
    """A densified sweep imports no ``numpy.ma`` (about 1.5 MB of peak RSS), which the
    first ``np.setdiff1d`` or ``np.unique`` of a process would.  A fresh interpreter."""
    src = Path(signal.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _DENSIFY_MODULES, str(src)], capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


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


def _pydma_sweep():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "pydma_angle_sweep.json")
    p = read_params(cfg.kind, cfg.params)
    return cfg.radical_pair, p["b_mT"], np.deg2rad(p["theta_deg"])


#: system -> (pair, field in mT, theta grid in rad): d = 12, 36 and 96
MIRROR_SYSTEMS = {
    "axial3": lambda: (one_nucleus_config("axial3"), 0.05, np.deg2rad(np.linspace(0, 180, 181))),
    "axial3-2n": lambda: (two_nucleus_config("axial3"), 0.05, np.deg2rad(np.linspace(0, 180, 61))),
    "pydma": _pydma_sweep,
}


def _counted_sweep(monkeypatch, rp, b, thetas, phi):
    """sweep_field_angle with normalisation, and the number of propagators it built."""
    built = count_propagators(monkeypatch)
    res = sweep_field_angle(rp, b, thetas, phi, single_molecule_prefactor(10.0), normalize=True)
    return res, len(built)


def _assert_direct(res, rp, b, phi, points):
    """The sweep's raw and normalised columns at ``points`` against direct calls there."""
    pref = single_molecule_prefactor(10.0)
    raw_max = np.max(np.abs(res.x_integrated), axis=1)
    norm_max = np.nanmax(np.abs(res.normalized), axis=1, initial=0.0)
    for j in points:
        theta = res.grid[j]
        direct = pref * integrated_observables(rp, FieldConfig(b, theta, phi))
        d_c = coupling_geometry(1.0, theta, phi).d_c
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = np.where(np.abs(d_c) > NORMALIZE_EPS, direct / d_c, np.nan)
        assert np.all(np.abs(res.x_integrated[:, j] - direct) <= 1e-12 * raw_max)
        assert np.array_equal(np.isnan(res.normalized[:, j]), np.isnan(normalized))
        assert np.all(np.abs(np.nan_to_num(res.normalized[:, j] - normalized)) <= 1e-12 * norm_max)


@pytest.mark.parametrize("system", sorted(MIRROR_SYSTEMS))
def test_mirrored_points_match_direct_calls(monkeypatch, system):
    """At phi = 0, only theta <= pi/2 is diagonalised, and every other point is what a
    direct call there gives, to 1e-12 of its column's max."""
    rp, b, thetas = MIRROR_SYSTEMS[system]()
    res, built = _counted_sweep(monkeypatch, rp, b, thetas, 0.0)
    assert built == np.count_nonzero(thetas <= np.pi / 2)
    _assert_direct(res, rp, b, 0.0, np.flatnonzero(thetas > np.pi / 2))
    # d_cx = 1.5 sin(2 pi) != 0 at theta = pi, but the mirror of theta = 0 is exactly 0
    assert res.x_integrated[0, -1] == 0.0 and not np.signbit(res.x_integrated[0, -1])
    assert not np.any(np.signbit(res.x_integrated[1]))


def _tilted_axial3():
    """axial3 with its tensor turned 30 degrees about y: a nonzero xz entry."""
    rp = one_nucleus_config("axial3")
    nuc = rp.nuclei_radical1[0]
    r = rotation_xyz(0.0, np.deg2rad(30.0), 0.0).matrix
    return dataclasses.replace(rp, nuclei_radical1=(Nucleus(nuc.species, r @ nuc.tensor_mT @ r.T),))


def test_tilted_tensor_runs_every_point(monkeypatch):
    rp = _tilted_axial3()
    thetas = np.deg2rad(np.linspace(0, 180, 37))
    res, built = _counted_sweep(monkeypatch, rp, 0.05, thetas, 0.0)
    assert built == thetas.size
    _assert_direct(res, rp, 0.05, 0.0, range(thetas.size))
    # without the symmetry, X(pi - theta) = -X(theta) fails: the predicate is not vacuous
    x = res.x_integrated
    assert np.max(np.abs(x + x[:, ::-1])) > 1e-6 * np.max(np.abs(x))


def test_phi_off_zero_runs_every_point(monkeypatch):
    thetas = np.deg2rad(np.linspace(0, 180, 37))
    rp = one_nucleus_config("axial3")
    res, built = _counted_sweep(monkeypatch, rp, 0.05, thetas, np.pi / 4)
    assert built == thetas.size
    _assert_direct(res, rp, 0.05, np.pi / 4, range(thetas.size))


@pytest.mark.parametrize(
    "theta_deg, computed",
    [(np.linspace(0, 150, 6), 4), ([0.0, 40.0, 90.0, 100.0, 140.0, 175.0], 5)],
)
def test_only_points_with_a_mirror_on_the_grid_are_paired(monkeypatch, theta_deg, computed):
    """150 and 120 pair with 30 and 60; 100 and 175 have no mirror (80, 5) on the grid."""
    rp = one_nucleus_config("axial3")
    thetas = np.deg2rad(theta_deg)
    res, built = _counted_sweep(monkeypatch, rp, 0.05, thetas, 0.0)
    assert built == computed
    _assert_direct(res, rp, 0.05, 0.0, range(thetas.size))


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


# -- batches ---------------------------------------------------------------------


def _stack_sizes(monkeypatch) -> list[int]:
    """A list that gets the number of matrices of each stack ``signal`` diagonalises."""
    sizes, make_propagator = [], signal.make_propagator

    def recording(h, *args):
        stack = block_sizes(h)[1]
        sizes.append(stack.shape[0] if stack.ndim == 3 else 1)
        return make_propagator(h, *args)

    monkeypatch.setattr(signal, "make_propagator", recording)
    return sizes


_DEG = np.deg2rad

#: case -> (sweep of a pair with the field at (b, theta, phi), its points, t_max)
BATCH_CASES = {
    # a field sweep: every point on the z axis, one stack of parity-blocked H
    "theta0-blocked": lambda rp: (
        sweep_field_magnitude(rp, [0.05, 0.3, 1.16, 5.0], 1.0),
        [(b, 0.0, 0.0) for b in (0.05, 0.3, 1.16, 5.0)], None,
    ),
    "one-block": lambda rp: (
        sweep_field_angle(rp, 1.16, _DEG(np.linspace(0, 180, 13)), 0.0, 1.0),
        [(1.16, th, 0.0) for th in _DEG(np.linspace(0, 180, 13))], None,
    ),
    "complex": lambda rp: (
        sweep_field_angle(rp, 1.16, _DEG(np.linspace(0, 180, 13)), 1.1, 1.0),
        [(1.16, th, 1.1) for th in _DEG(np.linspace(0, 180, 13))], None,
    ),
    # k T = 0.2: the weights take the expm1 numerators
    "short-window": lambda rp: (
        sweep_field_angle(rp, 0.05, _DEG(np.linspace(0, 180, 13)), 0.0, 1.0, t_max=1e-6),
        [(0.05, th, 0.0) for th in _DEG(np.linspace(0, 180, 13))], 1e-6,
    ),
    # B = 0 and k = 0: every point is the same H, whose exactly degenerate levels take the
    # weights' vanishing-denominator case, and only d_c changes
    "zero-field": lambda rp: (
        sweep_field_angle(
            dataclasses.replace(rp, recombination_rate=0.0), 0.0,
            _DEG(np.linspace(0, 90, 7)), 0.0, 1.0, t_max=5e-6,
        ),
        [(0.0, th, 0.0) for th in _DEG(np.linspace(0, 90, 7))], 5e-6,
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@pytest.mark.parametrize(
    "make_pair", [lambda: one_nucleus_config("axial3"), lambda: two_nucleus_config("axial3")],
    ids=["d12", "d36"],
)
def test_batched_sweep_matches_batches_of_one(monkeypatch, make_pair, case):
    """Every point of a sweep run in stacks equals a batch-of-one call there, to 1e-12 of
    its column's max, with unweighted components +0.0."""
    rp = make_pair()
    sizes = _stack_sizes(monkeypatch)
    res, points, t_max = BATCH_CASES[case](rp)
    assert max(sizes) > 1  # the sweep did run a stack
    if case == "zero-field":
        rp = dataclasses.replace(rp, recombination_rate=0.0)
    direct = np.array(
        [integrated_observables(rp, FieldConfig(*point), t_max=t_max) for point in points]
    ).T
    scale = np.max(np.abs(direct), axis=1, keepdims=True)
    if case == "zero-field":
        # H and rho0 are time-reversal invariant at B = 0, so every mean is 0 but for
        # round-off: both sides must be that small, on the O(1) scale of s_tilde
        scale = np.maximum(scale, 1.0)
        assert np.max(np.abs(res.x_integrated)) <= 1e-12 and np.max(np.abs(direct)) <= 1e-12
    assert np.all(np.abs(res.x_integrated - direct) <= 1e-12 * scale)
    unweighted = res.x_integrated[direct == 0.0]
    assert np.all(unweighted == 0.0) and not np.any(np.signbit(unweighted))


def test_lifetimes_share_each_batch_eigensystem(monkeypatch):
    """fig9's five lifetimes diagonalise 31 matrices, one eigensystem per batch, and every
    point and theta = 0 yield equals that of each lifetime's own propagators to 1e-12."""
    base = two_nucleus_config("axial3")
    cases = [with_lifetime(base, tau * 1e-6) for tau in (1.0, 2.5, 5.0, 10.0, 25.0)]
    thetas = _DEG(np.linspace(0, 180, 61))
    built = count_propagators(monkeypatch)
    results = scan_field_angle(cases, 0.05, thetas, 0.0, 1.0, [None] * len(cases))
    assert len(built) == 31
    for rp, res in zip(cases, results):
        fields = [FieldConfig(0.05, th, 0.0) for th in thetas]
        own = np.array([integrated_observables(rp, f, prop=solve_pair(rp, f)) for f in fields]).T
        scale = np.max(np.abs(own), axis=1, keepdims=True)
        assert np.all(np.abs(res.x_integrated - own) <= 1e-12 * scale)
        t_max = 5.0 / rp.effective_decay_rate
        shared = singlet_yield_mean(res.theta0, rp.initial_state, t_max)
        alone = singlet_yield_mean(solve_pair(rp, fields[0]), rp.initial_state, t_max)
        assert res.theta0.decay_rate == rp.effective_decay_rate
        assert abs(shared - alone) <= 1e-12 * abs(alone)


def _h_alive_at_each_mean(monkeypatch) -> tuple[list, list[bool]]:
    """(the blocks of every H ``signal`` assembles, per ``_expectation_means`` call whether
    any of them is still alive), as weak references to each block's stack."""
    built, alive = [], []
    assemble, means = signal._assemble, signal._expectation_means

    def assembling(*args, **kwargs):
        blocks = assemble(*args, **kwargs)
        built.append([weakref.ref(h) for _, h in blocks])
        return blocks

    def averaging(*args):
        alive.append(any(ref() is not None for refs in built for ref in refs))
        return means(*args)

    monkeypatch.setattr(signal, "_assemble", assembling)
    monkeypatch.setattr(signal, "_expectation_means", averaging)
    return built, alive


def test_single_point_frees_h_before_the_means(monkeypatch):
    """No later pair can share a lone pair's H, so the means run without it."""
    built, alive = _h_alive_at_each_mean(monkeypatch)
    integrated_observables(one_nucleus_config("axial3"), FieldConfig(1.16, 0.6, 0.0))
    assert [len(refs) for refs in built] == [1] and alive == [False]


def test_lifetime_scan_shares_eigensystems_without_keeping_h(monkeypatch):
    """Pairs that differ only in their decay share one eigensystem per batch, found by
    comparing their local terms: no H outlives its propagator, split or not."""
    built, alive = _h_alive_at_each_mean(monkeypatch)
    base = two_nucleus_config("axial3")
    cfgs = [with_lifetime(base, tau) for tau in (1e-6, 5e-6, 25e-6)]
    thetas = [0.0, 0.3, 0.6]
    results = scan_field_angle(cfgs, 0.05, thetas, 0.0, 1.0, [None] * 3)
    # theta = 0 is one batch of two parity blocks, theta = 0.3 and 0.6 one of one block each
    assert [len(refs) for refs in built] == [2, 1] and alive == [False] * 6
    for cfg, res in zip(cfgs, results):
        fields = [FieldConfig(0.05, th, 0.0) for th in thetas]
        alone = np.array([integrated_observables(cfg, f) for f in fields]).T
        scale = np.max(np.abs(alone), axis=1, keepdims=True)
        assert np.all(np.abs(res.x_integrated - alone) <= 1e-12 * scale)


def test_parallel_map_asks_for_at_most_cpu_count_workers(monkeypatch):
    """A stand-in pool records ``max_workers`` and maps serially: no thread is started."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert signal._parallel_map(abs, [-1, 2, -3], 10_000) == [1, 2, 3]
    assert signal._parallel_map(abs, [-1, 2], 2) == [1, 2]
    assert asked == [3, 2]
