"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured values behind them.

Criterion 3 asserts an exact isotropic-hyperfine signal null at the
1e-12 T level.  The assertion is kept faithful and is expected to fail:
with the Zeeman term acting on the electrons only, the isotropic
one-nucleus system at nonzero exchange in a nonzero field has no exact
null (the singlet-triplet channels sit at field-asymmetric detunings
2J +- gamma_e B, leaving a residual ~1e-9 T here).  The null is exact
only at J = 0 or B = 0, where criteria 5 and 6 become unattainable
instead.  The test is marked strict-xfail so a change in behaviour would
itself fail the suite.
"""

import time

import numpy as np
import pytest

from nvrp.dynamics import (
    _expectation_series,
    _projector_series,
    initial_state,
    make_propagator,
    nyquist_samples,
    singlet_yield_mean,
)
from nvrp.ensemble import EnsembleSpec, OrientationMode, ensemble_sweep
from nvrp.hamiltonian import (
    ELECTRON_PAIR_SPIN,
    FieldConfig,
    SensorParams,
    build_rp_hamiltonian,
    coupling_geometry,
)
from nvrp.oracle import rk4_evolve
from nvrp.presets import (
    fadtrp_config,
    one_nucleus_config,
    strongcoupling_config,
    two_nucleus_config,
)
from nvrp.signal import (
    integrated_observables,
    observable_series,
    single_molecule_prefactor,
    sweep_field_angle,
    sweep_field_magnitude,
    with_exchange,
)
from nvrp.spincore import site_operators
from nvrp.strongcoupling import count_resolved_peaks, level_structure

from conftest import log_grid

PREFACTOR_10NM = single_molecule_prefactor(10.0)


class Budget:
    """Context manager that measures and enforces a runtime budget."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: runtime {self.elapsed:.1f} s exceeds "
                f"budget {self.seconds:.0f} s"
            )
        return False


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_trace_law():
    """Trace of rho(t) follows exp(-k t) to 1e-9 on the dim-216 system."""
    with Budget("criterion 1", 30.0) as budget:
        cfg = fadtrp_config(2)
        assert cfg.layout().total_dimension == 216
        k = cfg.recombination_rate
        assert k == 2e5
        h = build_rp_hamiltonian(cfg, FieldConfig(1.16, 0.0, 0.0))
        prop = make_propagator(h, k)
        rho0 = initial_state(cfg.initial_state, cfg.layout())
        worst = 0.0
        min_eig = np.inf
        for t in np.linspace(0.0, 25e-6, 26):
            rho = prop.evolve(rho0, t)
            worst = max(worst, abs(np.real(np.trace(rho)) - np.exp(-k * t)))
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(rho))))
    ok = worst < 1e-9 and min_eig > -1e-9
    _report(
        1,
        ok,
        f"max |trace - exp(-kt)| = {worst:.2e} (< 1e-9), min eigenvalue "
        f"{min_eig:.2e}, runtime {budget.elapsed:.1f} s",
    )


def _oracle_deviation(cfg, b_mT: float, t_max: float = 1e-6) -> float:
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(b_mT, 0.0, 0.0))
    k = cfg.effective_decay_rate
    prop = make_propagator(h, k)
    rho0 = initial_state(cfg.initial_state, layout)
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    ops = [s1[i] + s2[i] for i in range(3)]
    lam = max(float(np.max(np.abs(prop.eigenvalues))), k, 1.0)
    n = int(round(t_max / (0.02 / lam)))
    res = rk4_evolve(rho0, h, k, t_max / n, t_max, observables=ops,
                     record_every=max(n // 32, 1))
    exact = _expectation_series(prop, cfg.initial_state, ELECTRON_PAIR_SPIN, res.t_grid)
    return float(np.max(np.abs(exact - res.observables)))


def test_criterion_2_oracle_equivalence():
    """Eigen-propagator matches RK4 on every small preset; RK4 is order 4."""
    with Budget("criterion 2", 60.0) as budget:
        small_presets = {
            f"one-nucleus {case}": one_nucleus_config(case)
            for case in ("iso", "axial1", "axial2", "axial3", "rhombic")
        }
        small_presets["exchange-study base"] = one_nucleus_config("axial3", r_rp_nm=2.5)
        small_presets["two-nucleus axial3"] = two_nucleus_config("axial3")
        deviations = {}
        for name, cfg in small_presets.items():
            assert cfg.layout().total_dimension <= 36
            deviations[name] = _oracle_deviation(cfg, 0.05)
        worst = max(deviations.values())

        # convergence order via step halving on the axial3 system
        cfg = one_nucleus_config("axial3")
        h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 0.0, 0.0))
        lam = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        layout = cfg.layout()
        rho0 = initial_state(cfg.initial_state, layout)
        s1 = site_operators(layout, 0)
        s2 = site_operators(layout, 1)
        ops = [s1[i] + s2[i] for i in range(3)]
        prop = make_propagator(h, cfg.recombination_rate)
        errs = []
        for i in range(3):
            dt = (0.08 / lam) / 2**i
            n = int(round(1e-6 / dt))
            res = rk4_evolve(rho0, h, cfg.recombination_rate, 1e-6 / n, 1e-6,
                             observables=ops, record_every=max(n // 32, 1))
            exact = _expectation_series(prop, cfg.initial_state, ELECTRON_PAIR_SPIN, res.t_grid)
            errs.append(float(np.max(np.abs(exact - res.observables))))
        orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = worst < 1e-6 and all(3.7 <= o <= 4.3 for o in orders)
    _report(
        2,
        ok,
        f"max deviation {worst:.2e} (< 1e-6), observed orders "
        f"{[f'{o:.2f}' for o in orders]} in [3.7, 4.3], runtime {budget.elapsed:.1f} s",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with the Zeeman term on the electrons only, the isotropic case with "
        "J = 0.25 mT in a 50 uT field has signal ~1e-9 T, not < 1e-12 T; the "
        "null is exact only at J = 0 or B = 0 (see the module docstring)"
    ),
)
def test_criterion_3_symmetry_null():
    """Isotropic preset: |X_x^I|, |X_z^I| < 1e-12 T at every grid angle."""
    with Budget("criterion 3", 60.0) as budget:
        cfg = one_nucleus_config("iso", j_exchange_mT=0.25)
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 181))
        res = sweep_field_angle(
            cfg, 0.05, thetas, 0.0, prefactor=PREFACTOR_10NM
        )
        worst_x = float(np.max(np.abs(res.x_integrated[0])))
        worst_z = float(np.max(np.abs(res.x_integrated[2])))
    ok = worst_x < 1e-12 and worst_z < 1e-12
    _report(
        3,
        ok,
        f"max |X_x^I| = {worst_x:.2e} T, max |X_z^I| = {worst_z:.2e} T "
        f"(required < 1e-12 T), runtime {budget.elapsed:.1f} s",
    )


def test_criterion_4_geometric_zeros():
    """Exact angular zeros of the coupling coefficients."""
    with Budget("criterion 4", 5.0) as budget:
        cfg = one_nucleus_config("axial3")
        # theta = 0: transverse integrated components are exactly zero
        x_axial = integrated_observables(cfg, FieldConfig(0.05, 0.0, 0.0))
        axial_zero = x_axial[0] == 0.0 and x_axial[1] == 0.0
        # phi = 0: X_y(t) vanishes identically along the trace
        t = np.linspace(0.0, 5e-6, 8192, endpoint=False)
        series = observable_series(cfg, FieldConfig(0.05, 0.8, 0.0), t)
        y_zero = float(np.max(np.abs(series[1]))) == 0.0
        # magic angle kills d_cz
        d_cz = coupling_geometry(10.0, float(np.arccos(1 / np.sqrt(3))), 0.0).d_cz
    ok = axial_zero and y_zero and abs(d_cz) < 1e-12
    _report(
        4,
        ok,
        f"theta=0 transverse zeros: {axial_zero}, phi=0 X_y identically zero: "
        f"{y_zero}, |d_cz(magic)| = {abs(d_cz):.1e}, runtime {budget.elapsed:.1f} s",
    )


def test_criterion_5_lfe_shape():
    """One dominant low-field maximum below 5 mT; high-field tail < 10%."""
    with Budget("criterion 5", 600.0) as budget:
        cfg = one_nucleus_config("axial3")
        grid = log_grid(0.01, 50.0, 60)
        res = sweep_field_magnitude(cfg, grid, prefactor=PREFACTOR_10NM)
        z = np.abs(res.x_integrated[2])
        i_max = int(np.argmax(z))
        dominant = [
            i
            for i in range(1, len(grid) - 1)
            if z[i] >= z[i - 1] and z[i] >= z[i + 1] and z[i] >= 0.5 * z[i_max]
        ]
        tail_ratio = float(z[-1] / z[i_max])
    ok = len(dominant) == 1 and res.grid[dominant[0]] < 5.0 and tail_ratio < 0.10
    _report(
        5,
        ok,
        f"dominant maxima at {[f'{res.grid[i]:.3f}' for i in dominant]} mT "
        f"(exactly one, < 5 mT), |X(50 mT)|/max = {tail_ratio:.4f} (< 0.10), "
        f"runtime {budget.elapsed:.1f} s",
    )


def _spike_metrics(case: str) -> tuple[float, float]:
    """Amplitude and interpolated FWHM of the |X_z^I| lobe nearest 90 deg."""
    cfg = one_nucleus_config(case, j_exchange_mT=0.25)
    th_deg = np.arange(55.0, 125.25, 0.5)
    res = sweep_field_angle(
        cfg, 0.05, np.deg2rad(th_deg), 0.0, prefactor=PREFACTOR_10NM
    )
    y = np.abs(res.x_integrated[2])
    # first local maximum above 90 degrees (the profile is symmetric)
    above = np.where(th_deg > 90.25)[0]
    peak = None
    for i in above:
        if 0 < i < len(y) - 1 and y[i] >= y[i - 1] and y[i] >= y[i + 1]:
            peak = i
            break
    assert peak is not None, f"no lobe found for {case}"
    amp = float(y[peak])
    half = amp / 2.0

    def cross(start: int, step: int) -> float:
        i = start
        while 0 < i < len(y) - 1 and y[i + step] > half:
            i += step
        # linear interpolation between i and i+step
        y0, y1 = y[i], y[i + step]
        frac = (y0 - half) / (y0 - y1) if y0 != y1 else 0.0
        return th_deg[i] + step * 0.5 * frac

    width = abs(cross(peak, 1) - cross(peak, -1))
    return amp, width


def test_criterion_6_spike_trends():
    """Spike amplitude strictly increases and FWHM strictly decreases."""
    with Budget("criterion 6", 900.0) as budget:
        metrics = {case: _spike_metrics(case) for case in ("axial1", "axial2", "axial3")}
        amps = [metrics[c][0] for c in ("axial1", "axial2", "axial3")]
        widths = [metrics[c][1] for c in ("axial1", "axial2", "axial3")]
    ok = amps[0] < amps[1] < amps[2] and widths[0] > widths[1] > widths[2]
    _report(
        6,
        ok,
        f"amplitudes {[f'{a:.2e}' for a in amps]} T strictly increasing, "
        f"FWHM {[f'{w:.1f}' for w in widths]} deg strictly decreasing, "
        f"runtime {budget.elapsed:.1f} s",
    )


def test_criterion_7_exchange_trend():
    """Yield non-decreasing and max signal non-increasing in J_ex."""
    with Budget("criterion 7", 600.0) as budget:
        base = one_nucleus_config("axial3", r_rp_nm=2.5)
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 61))
        yields, maxima = [], []
        for j in (0.0, 0.25, 0.5, 1.0):
            cfg = with_exchange(base, j)
            res = sweep_field_angle(
                cfg, 0.05, thetas, 0.0, prefactor=PREFACTOR_10NM
            )
            maxima.append(float(np.max(np.abs(res.x_integrated))))
            h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 0.0, 0.0))
            prop = make_propagator(h, cfg.effective_decay_rate)
            t_max = 5.0 / cfg.effective_decay_rate
            n = nyquist_samples(prop, t_max)
            yields.append(singlet_yield_mean(prop, cfg.initial_state, t_max, n))
        yield_ok = all(a <= b + 1e-12 for a, b in zip(yields, yields[1:]))
        signal_ok = all(a >= b - 1e-15 for a, b in zip(maxima, maxima[1:]))
    ok = yield_ok and signal_ok
    _report(
        7,
        ok,
        f"phi_s {[f'{y:.4f}' for y in yields]} non-decreasing: {yield_ok}; "
        f"max|X^I| {[f'{m:.2e}' for m in maxima]} non-increasing: {signal_ok}; "
        f"runtime {budget.elapsed:.1f} s",
    )


def test_criterion_8_ensemble_averaging():
    """Random orientations suppress the aligned ensemble's peak feature."""
    with Budget("criterion 8", 1800.0) as budget:
        cfg = fadtrp_config(2)
        grid = log_grid(0.1, 5.0, 14)
        common = dict(
            n_realizations=50,
            r_range_nm=(5.0, 20.0),
            seed=7,
            density_per_nm3=None,
            n_molecules=25,
        )
        aligned = ensemble_sweep(
            cfg,
            EnsembleSpec(orientation_mode=OrientationMode.ALIGNED, **common),
            b_grid_mT=grid,
        )
        i_peak = int(np.argmax(np.abs(aligned.mean[2])))
        b_peak = float(grid[i_peak])
        aligned_mean = abs(float(aligned.mean[2, i_peak]))

        spec = EnsembleSpec(orientation_mode=OrientationMode.HAAR, **common)
        random1 = ensemble_sweep(cfg, spec, b_grid_mT=[b_peak])
        random2 = ensemble_sweep(cfg, spec, b_grid_mT=[b_peak])
        reproducible = random1.mean.tobytes() == random2.mean.tobytes() and (
            random1.variance.tobytes() == random2.variance.tobytes()
        )
        random_mean = abs(float(random1.mean[2, 0]))
        ratio = random_mean / aligned_mean
    ok = ratio < 0.5 and reproducible
    _report(
        8,
        ok,
        f"aligned peak at {b_peak:.2f} mT: |mean| {aligned_mean:.2e} T, random "
        f"|mean| {random_mean:.2e} T, ratio {ratio:.3f} (< 0.5), byte-reproducible: "
        f"{reproducible}, runtime {budget.elapsed:.1f} s",
    )


def test_criterion_9_strong_coupling_bounds():
    """Peak-count bounds and eigenprojector completeness."""
    with Budget("criterion 9", 300.0) as budget:
        from nvrp.hamiltonian import RadicalPairConfig

        gamma = SensorParams(t2=1e-3).gamma_hz
        geom = coupling_geometry(5.0, 0.0, 0.0)

        bare = RadicalPairConfig(recombination_rate=2e5)
        bare_ok = True
        for b in log_grid(0.05, 10.0, 16):
            levels = level_structure(bare, FieldConfig(float(b), 0.0, 0.0), geom)
            bare_ok &= count_resolved_peaks(levels.transition_freqs_hz, gamma).count <= 4

        cfg = strongcoupling_config()
        n_nuclei = len(cfg.nuclei)
        bound = 2 ** (n_nuclei + 2)
        assert cfg.layout().total_dimension == bound == 64
        peaks_ok = True
        for b in log_grid(0.05, 10.0, 16):
            levels = level_structure(cfg, FieldConfig(float(b), 0.0, 0.0), geom)
            peaks_ok &= count_resolved_peaks(levels.transition_freqs_hz, gamma).count <= bound

        # completeness: sum_n <P_psi_n>(t) = exp(-k t)
        field = FieldConfig(0.5, 0.0, 0.0)
        levels = level_structure(cfg, field, geom)
        prop = levels.propagator
        k = prop.decay_rate
        t = np.linspace(0.0, 25e-6, 32)
        coeffs = prop.eigenvectors.conj().T @ levels.states_0[:, : levels.n_transitions]
        series = _projector_series(prop, cfg.initial_state, coeffs, t)
        completeness = float(np.max(np.abs(np.sum(series, axis=0) - np.exp(-k * t))))
    ok = bare_ok and peaks_ok and completeness < 1e-9
    _report(
        9,
        ok,
        f"bare-pair count <= 4: {bare_ok}, proton-pair count <= {bound}: {peaks_ok}, "
        f"completeness deviation {completeness:.2e} (< 1e-9), "
        f"runtime {budget.elapsed:.1f} s",
    )


def test_criterion_10_signal_magnitude():
    """Single-molecule peak |X_z(t)| lands in the 10 nT - 10 uT bracket."""
    with Budget("criterion 10", 120.0) as budget:
        cfg = fadtrp_config(2)
        t = np.linspace(0.0, 25e-6, 32768, endpoint=False)
        x = PREFACTOR_10NM * observable_series(cfg, FieldConfig(1.16, 0.0, 0.0), t)
        peak = float(np.max(np.abs(x[2])))
    ok = 10e-9 < peak < 10e-6
    _report(
        10,
        ok,
        f"peak |X_z(t)| = {peak:.3e} T in (1e-8, 1e-5) T, "
        f"runtime {budget.elapsed:.1f} s",
    )
