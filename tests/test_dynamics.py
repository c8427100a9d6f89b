"""State preparation, eigen-propagation, observables, and the singlet yield."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrp import dynamics
from nvrp.dynamics import (
    SERIES_CHUNK,
    _expectation_means,
    _expectation_series,
    _geometric_mean_weights,
    _state_factor,
    electron_singlet_projector,
    initial_state,
    make_propagator,
    nyquist_samples,
    singlet_yield_mean,
)
from nvrp.ensemble import random_rotation
from nvrp.errors import NumericalError, PhysicsError
from nvrp.hamiltonian import (
    ELECTRON_PAIR_SPIN,
    DecayConvention,
    FieldConfig,
    InitialElectronState,
    build_coupling_hamiltonian,
    build_rp_hamiltonian,
    coupling_geometry,
)
from nvrp.oracle import rk4_evolve
from nvrp.presets import (
    fadtrp_config,
    get_preset,
    one_nucleus_config,
    pydma_config,
    strongcoupling_config,
    two_nucleus_config,
)
from nvrp.signal import integrated_observables, observable_series, solve_pair
from nvrp.spincore import SpinSystemLayout, parity_sectors, site_operators, spin_matrices
from nvrp.strongcoupling import level_structure

from conftest import (
    SPIN1_LAYOUTS,
    dense_eigensystem,
    dense_series,
    evolve,
    make_pair,
    random_pair,
    singlet_projector,
    skew_null_pair,
)

S = InitialElectronState.SINGLET
T0 = InitialElectronState.TRIPLET_ZERO


def _pair_ops(layout):
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    return [s1[i] + s2[i] for i in range(3)]


# -- initial states ----------------------------------------------------------


def test_singlet_state_correlation():
    layout = SpinSystemLayout.for_radical_pair()
    rho = initial_state(S, layout)
    assert rho.shape == (4, 4)
    assert np.linalg.matrix_rank(rho, tol=1e-12) == 1
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    s1s2 = sum(s1[i] @ s2[i] for i in range(3))
    assert np.real(np.trace(s1s2 @ rho)) == pytest.approx(-0.75, abs=1e-12)
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-13)


def test_nuclear_block_maximally_mixed():
    from nvrp.spincore import SpinSpecies

    layout = SpinSystemLayout.for_radical_pair((SpinSpecies("N", 1.0),))
    rho = initial_state(S, layout)
    # trace over electrons: each nuclear level carries weight 1/3
    block = rho.reshape(4, 3, 4, 3)
    nuclear = np.einsum("iaib->ab", block)
    assert np.allclose(nuclear, np.eye(3) / 3.0, atol=1e-13)


def test_triplet_zero_properties():
    layout = SpinSystemLayout.for_radical_pair()
    rho = initial_state(T0, layout)
    ops = _pair_ops(layout)
    assert abs(np.trace(ops[2] @ rho)) < 1e-13
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    s1s2 = sum(s1[i] @ s2[i] for i in range(3))
    assert np.real(np.trace(s1s2 @ rho)) == pytest.approx(0.25, abs=1e-12)


# -- propagator --------------------------------------------------------------


def test_zero_generator_identity_evolution():
    layout = SpinSystemLayout.for_radical_pair()
    rho0 = initial_state(S, layout)
    prop = make_propagator(np.zeros((4, 4)), 0.0)
    assert np.allclose(evolve(prop, rho0, 3.7e-6), rho0, atol=1e-14)


def test_pure_decay_trace():
    layout = SpinSystemLayout.for_radical_pair()
    rho0 = initial_state(S, layout)
    k = 2e5
    prop = make_propagator(np.zeros((4, 4)), k)
    rho = evolve(prop, rho0, 5e-6)
    assert np.real(np.trace(rho)) == pytest.approx(np.exp(-1.0), abs=1e-10)


def test_unitary_part_preserves_spectrum():
    cfg = make_pair(tensors1=[np.diag([0.1, 0.2, 0.9])], spins1=[0.5], j_mT=0.3)
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.5, 0.0, 0.0))
    prop = make_propagator(h, 0.0)
    rho0 = initial_state(S, layout)
    w0 = np.sort(np.linalg.eigvalsh(rho0))
    w1 = np.sort(np.linalg.eigvalsh(evolve(prop, rho0, 2e-6)))
    assert np.allclose(w0, w1, atol=1e-9)


def test_non_hermitian_rejected():
    with pytest.raises(PhysicsError, match="Hermitian"):
        make_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


def test_nan_decay_rate_and_infinite_norm_rejected(axial3_pair):
    """NaN fails the decay rate's bound, and an H whose norm overflows fails before eigh.

    A config already rejects a NaN recombination rate (``test_nan_rejected``).
    """
    h = build_rp_hamiltonian(axial3_pair, FieldConfig(1.16, 0.0, 0.0))
    with pytest.raises(PhysicsError, match="decay rate"):
        make_propagator(h, math.nan)
    # finite entries of up to about 1e208, whose squares overflow
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=r"\|\|H\|\| = inf"):
        make_propagator(1e200 * h, 0.0)


def test_orthogonality_probe_catches_what_the_residual_misses(monkeypatch):
    # Zeeman only (no nuclei, J = 0, no dipolar term): levels -w, 0, 0, +w.
    # phi = 0.2 gives a complex H and V, phi = 0 a real H and a real V.
    cfg = make_pair()
    for phi, dtype in ((0.2, np.complex128), (0.0, np.float64)):
        h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 0.3, phi))
        corrupted = skew_null_pair(dynamics._eigh)
        w, v = corrupted(h)
        assert v.dtype == dtype
        assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-12 * np.linalg.norm(h)
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) > 1e-3
        make_propagator(h, cfg.effective_decay_rate)  # the true eigenvectors pass
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "_eigh", corrupted)
            with pytest.raises(NumericalError, match="orthogonality"):
                make_propagator(h, cfg.effective_decay_rate)


def test_drivers_agree_on_integrated_observables(monkeypatch):
    """zheevr (scipy) and zheevd (numpy) give the same means at d >= EVR_MIN_DIM.

    fadtrp-3n nuclei on the flavin, fadtrp-2n nuclei on the tryptophan
    (d = 432), Haar rotation, two fields.
    """
    fad3 = fadtrp_config(3)
    cfg = dataclasses.replace(fad3, nuclei_radical2=fadtrp_config(2).nuclei_radical2)
    d = cfg.layout().total_dimension
    assert d >= dynamics.EVR_MIN_DIM
    rotation = random_rotation(np.random.default_rng(6))
    fields = [FieldConfig(0.4, 0.7, 2.1), FieldConfig(2.5, 2.0, 0.4)]

    drivers = []
    real_eigh = scipy.linalg.eigh

    def spy(*args, **kwargs):
        drivers.append(kwargs["driver"])
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    evr = np.array([integrated_observables(cfg, f, rotation) for f in fields])
    assert drivers == ["evr", "evr"]
    monkeypatch.setattr(dynamics, "EVR_MIN_DIM", d + 1)
    evd = np.array([integrated_observables(cfg, f, rotation) for f in fields])
    assert drivers == ["evr", "evr"]
    assert np.all(np.abs(evr - evd) <= 1e-12 * np.max(np.abs(evd), axis=0))


def test_real_generator_takes_the_real_path(fadtrp2):
    """Only an exactly real H (phi = 0, molecular frame) gets float64 eigenvectors."""
    field = FieldConfig(1.0, 0.7, 0.0)
    (block,) = solve_pair(fadtrp2, field).blocks
    assert block.eigenvectors.dtype == np.float64
    d_nuc = fadtrp2.layout().nuclear_dimension
    assert _state_factor(block, fadtrp2.initial_state, d_nuc).dtype == np.float64
    haar = random_rotation(np.random.default_rng(3))
    for prop in (
        solve_pair(fadtrp2, field, haar),
        solve_pair(fadtrp2, FieldConfig(1.0, 0.7, 0.3)),
    ):
        (block,) = prop.blocks
        assert block.eigenvectors.dtype == np.complex128


def test_real_path_agrees_with_complex_path(fadtrp2, monkeypatch):
    """Means, series and yields from dsyevd match those from zheevd on the same H.

    fadtrp-2n (d = 216) at phi = 0; each column within 1e-12 of its max.
    """
    cfg = fadtrp2
    fields = [FieldConfig(b, th, 0.0) for b, th in [(0.05, 0.0), (1.0, 0.7), (3.0, 2.2)]]
    t_max = 5.0 / cfg.effective_decay_rate
    # 512 samples at half the Nyquist interval of each field's real-path spectrum
    grids = [np.arange(512) * (0.5 * np.pi / solve_pair(cfg, f).spectral_spread) for f in fields]

    def results():
        means, series, yields = [], [], []
        for field, t in zip(fields, grids):
            means.append(integrated_observables(cfg, field))
            prop = solve_pair(cfg, field)
            series.append(observable_series(cfg, field, t))
            yields.append(singlet_yield_mean(prop, cfg.initial_state, t_max))
        return np.array(means), np.concatenate(series, axis=1).T, np.array(yields)[:, None]

    real = results()
    # the complex path on the same H: zheevd on H cast to complex
    monkeypatch.setattr(dynamics, "_eigh", lambda h: np.linalg.eigh(np.asarray(h, dtype=complex)))
    (block,) = solve_pair(cfg, fields[1]).blocks
    assert block.eigenvectors.dtype == np.complex128
    for got, ref in zip(real, results()):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))


def test_propagator_composition():
    cfg = make_pair(tensors1=[np.diag([0.4, 0.4, 1.2])], spins1=[1.0], j_mT=0.2)
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.3, 0.0, 0.0))
    prop = make_propagator(h, 2e5)
    rho0 = initial_state(S, layout)
    t1, t2 = 1.3e-6, 3.1e-6
    one_shot = evolve(prop, rho0, t2)
    two_step = evolve(prop, evolve(prop, rho0, t1), t2 - t1)
    assert np.linalg.norm(one_shot - two_step) < 1e-9


# -- observables -------------------------------------------------------------


def test_singlet_initial_observables_vanish(axial3_pair):
    t = np.linspace(0.0, 1e-6, 512, endpoint=False)
    series = observable_series(axial3_pair, FieldConfig(0.05, 0.7, 0.0), t)
    assert np.all(np.abs(series[:, 0]) < 1e-12)


def test_conserved_z_magnetization_stays_zero():
    # no hyperfine, no dipolar, J = 0, B along z: [H, S1z + S2z] = 0
    cfg = make_pair(j_mT=0.0)
    h = build_rp_hamiltonian(cfg, FieldConfig(1.0, 0.0, 0.0))
    prop = make_propagator(h, 0.0)
    t = np.linspace(0.0, 2e-6, 1024, endpoint=False)
    series = _expectation_series(prop, S, ELECTRON_PAIR_SPIN[2:], t)
    assert np.max(np.abs(series)) < 1e-12


def test_observables_match_rk4_oracle(one_proton_pair):
    cfg = one_proton_pair
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.0, 0.0, 0.0))
    k = cfg.recombination_rate
    prop = make_propagator(h, k)
    rho0 = initial_state(S, layout)

    lam = float(np.max(np.abs(prop.eigenvalues)))
    dt = 0.02 / lam
    t_max = 2e-6
    n = int(round(t_max / dt))
    dt = t_max / n
    ops = _pair_ops(layout)
    res = rk4_evolve(rho0, h, k, dt, t_max, observables=ops, record_every=8)
    series = _expectation_series(prop, S, ELECTRON_PAIR_SPIN, res.t_grid)
    assert np.max(np.abs(series - res.observables)) < 1e-6


def test_undersampled_grid_rejected(axial3_pair):
    t = np.linspace(0.0, 25e-6, 64, endpoint=False)
    with pytest.raises(ValueError, match="dt <"):
        observable_series(axial3_pair, FieldConfig(10.0, 0.0, 0.0), t)


def test_time_averaged_matches_materialized_mean(axial3_pair):
    cfg = axial3_pair
    field = FieldConfig(0.05, 0.4, 0.0)
    prop = solve_pair(cfg, field)
    t_max = 5.0 / cfg.recombination_rate
    n = nyquist_samples(prop, t_max)  # the grid integrated_observables averages over
    t = np.linspace(0.0, t_max, n, endpoint=False)
    series = observable_series(cfg, field, t)
    direct = np.mean(series, axis=1)
    closed = integrated_observables(cfg, field, t_max=t_max)
    assert np.allclose(direct, closed, rtol=1e-10, atol=1e-15)


def test_series_blocks_join_at_chunk_boundaries(axial3_pair):
    prop = solve_pair(axial3_pair, FieldConfig(0.3, 0.6, 1.0))
    rho0, ops = initial_state(S, axial3_pair.layout()), _pair_ops(axial3_pair.layout())
    t = np.arange(SERIES_CHUNK + 3) * 2e-9
    series = _expectation_series(prop, S, ELECTRON_PAIR_SPIN, t)
    for j in (0, SERIES_CHUNK - 1, SERIES_CHUNK, SERIES_CHUNK + 2):
        rho_t = evolve(prop, rho0, t[j])
        direct = [np.real(np.trace(op @ rho_t)) for op in ops]
        assert np.allclose(series[:, j], direct, rtol=0, atol=1e-13)


def test_series_matches_evolve_at_late_times():
    # fadtrp-2n at 1.16 mT: the last samples reach lambda t ~ 3e4 rad, where the
    # phases are one table row times a block-start phase; 3 SERIES_CHUNK + 5 samples
    cfg = fadtrp_config(2)
    prop = solve_pair(cfg, FieldConfig(1.16, 0.5, 0.2))
    rho0, ops = initial_state(S, cfg.layout()), _pair_ops(cfg.layout())
    n = 3 * SERIES_CHUNK + 5
    t = np.linspace(0.0, 25e-6, n, endpoint=False)
    assert np.max(np.abs(prop.eigenvalues)) * t[-1] > 1e4
    series = _expectation_series(prop, S, ELECTRON_PAIR_SPIN, t)
    scale = np.max(np.abs(series))
    for j in (n - 1, n - 2, 2 * SERIES_CHUNK, 2 * SERIES_CHUNK - 1, n // 2 + 7):
        rho_t = evolve(prop, rho0, t[j])
        direct = [np.real(np.trace(op @ rho_t)) for op in ops]
        assert np.max(np.abs(series[:, j] - direct)) <= 1e-12 * scale


def test_unweighted_components_are_exact_zeros(axial3_pair):
    # theta = 0: d_cx = d_cy = 0, only z is evaluated; phi = 0 also zeroes d_cy off-axis
    t = np.linspace(0.0, 2e-6, 1000, endpoint=False)
    for theta, zero in ((0.0, [0, 1]), (0.7, [1])):
        field = FieldConfig(0.3, theta, 0.0)
        prop = solve_pair(axial3_pair, field)
        geom = coupling_geometry(10.0, theta, 0.0)
        s_tilde = observable_series(axial3_pair, field, t)
        assert np.all(s_tilde[zero] == 0.0) and not np.any(np.signbit(s_tilde[zero]))
        for i in sorted(set(range(3)) - set(zero)):
            # the stacked product may round differently from a single operator's
            want = geom.d_c[i] * _expectation_series(prop, S, ELECTRON_PAIR_SPIN[i : i + 1], t)[0]
            assert np.max(np.abs(s_tilde[i] - want)) <= 1e-14 * np.max(np.abs(want))


def test_non_uniform_grid_rejected(axial3_pair):
    prop = solve_pair(axial3_pair, FieldConfig(0.3, 0.0, 0.0))
    t = np.linspace(0.0, 1e-6, 64) ** 2 * 1e6
    with pytest.raises(ValueError, match="uniform"):
        _expectation_series(prop, S, ELECTRON_PAIR_SPIN, t)


@pytest.mark.parametrize(
    "make_cfg, field, rotation_seed, state",
    [
        (lambda: one_nucleus_config("axial3"), FieldConfig(0.7, 0.0, 0.0), None, S),
        (strongcoupling_config, FieldConfig(0.7, 0.0, 0.0), None, S),
        (pydma_config, FieldConfig(0.7, 0.0, 0.0), None, S),
        (lambda: one_nucleus_config("axial3"), FieldConfig(1.16, 0.6, 1.1), 11, S),
        (lambda: one_nucleus_config("axial3"), FieldConfig(1.16, 0.6, 0.0), None, S),
        (lambda: one_nucleus_config("rhombic"), FieldConfig(0.7, 0.0, 0.0), None, T0),
        (lambda: one_nucleus_config("rhombic"), FieldConfig(1.16, 0.6, 1.1), 12, T0),
    ],
    ids=["axial3-blocked", "strongcoupling-blocked", "pydma-blocked", "haar", "real-s_y",
         "triplet-blocked", "triplet-haar"],
)
def test_series_match_dense_evolution(make_cfg, field, rotation_seed, state):
    """The blocked, rank-d/4 series equal Re Tr(O rho(t)) from the dense ``evolve``.

    All three pair-spin components and the singlet projector (S_y is imaginary, also
    on real eigenvectors), sampled across the first ``SERIES_CHUNK`` boundary, within
    1e-12 of each operator's max; a theta = 0 molecule in its own frame splits into two
    parity blocks.  The components that ``observable_series`` does not weight are +0.0.
    """
    cfg = dataclasses.replace(make_cfg(), initial_state=state)
    rotation = rotation_seed and random_rotation(np.random.default_rng(rotation_seed))
    prop = solve_pair(cfg, field, rotation)
    assert len(prop.blocks) == (2 if field.theta == 0.0 and rotation is None else 1)
    for block in prop.blocks:
        assert np.iscomplexobj(block.eigenvectors) == (field.phi != 0.0 or rotation is not None)
    t = np.arange(SERIES_CHUNK + 3) * (0.5 * np.pi / prop.spectral_spread)
    samples = np.r_[0 : SERIES_CHUNK - 1 : 97, SERIES_CHUNK - 1, SERIES_CHUNK, SERIES_CHUNK + 2]
    layout = cfg.layout()
    ops = np.concatenate([ELECTRON_PAIR_SPIN, electron_singlet_projector()[None]])
    dense_ops = [np.kron(o, np.eye(layout.nuclear_dimension)) for o in ops]
    want = dense_series(prop, initial_state(state, layout), dense_ops, t[samples])
    _assert_close(_expectation_series(prop, state, ops, t)[:, samples], want)

    d_c = coupling_geometry(1.0, field.theta, field.phi).d_c
    s_tilde = observable_series(cfg, field, t, rotation)
    unweighted = s_tilde[d_c == 0]
    assert np.all(unweighted == 0.0) and not np.any(np.signbit(unweighted))
    _assert_close(s_tilde[:, samples], d_c[:, None] * want[:3])


# -- closed-form means ---------------------------------------------------------


def _dense_means(prop, state, layout, electron_ops, dt, n):
    """Re sum (V^dag O V)^T o (V^dag rho0 V) o G over the whole eigenbasis, complex G."""
    lam, v = dense_eigensystem(prop)
    rho_e = v.conj().T @ initial_state(state, layout) @ v
    geo = _geometric_mean_weights(lam, prop.decay_rate, dt, n)
    eye = np.eye(layout.nuclear_dimension)
    return np.array(
        [np.real(np.sum((v.conj().T @ np.kron(o, eye) @ v).T * rho_e * geo)) for o in electron_ops]
    )


@given(st.integers(0, 2**32 - 1), st.sampled_from(SPIN1_LAYOUTS), st.sampled_from([S, T0]))
@settings(max_examples=30, deadline=None)
def test_fused_means_match_dense_definition(seed, spins, state):
    """The low-rank, fused means equal Re sum (V^dag O V)^T o (V^dag rho0 V) o G.

    O = o x I_nuc for the three pair-spin components and the singlet
    projector, on random layouts with a Haar-rotated molecule, a random
    field and a full dipolar tensor.
    """
    rng = np.random.default_rng(seed)
    cfg = random_pair(rng, spins, initial=state)
    field = FieldConfig(
        rng.uniform(0.1, 3.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
    )
    prop = solve_pair(cfg, field, random_rotation(rng))
    t_max = 5.0 / cfg.effective_decay_rate
    n = nyquist_samples(prop, t_max)
    electron_ops = np.concatenate([ELECTRON_PAIR_SPIN, electron_singlet_projector()[None]])

    fused = _expectation_means(prop, state, electron_ops, t_max)
    dense = _dense_means(prop, state, cfg.layout(), electron_ops, t_max / n, n)
    assert np.max(np.abs(fused - dense)) <= 1e-12 * np.max(np.abs(dense))


@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.sampled_from([0.0, 0.032, 1.0, 5.0]))
@settings(max_examples=40, deadline=None)
def test_geometric_weights_match_direct_sum(seed, d, k_t_max):
    """G_nm = (1/n) sum_j z_nm^j for n = 16, with degenerate and near-degenerate levels.

    k t_max = 0 and 0.032 (k = 2e5 /s) take the expm1 numerators, 1 (the
    threshold) and 5 (the default t_max = 5/k) the phase numerators.
    """
    rng = np.random.default_rng(seed)
    dt = 1e-8
    n = 16
    k = k_t_max / (n * dt)
    lam = rng.normal(size=d) / dt
    lam[1] = lam[0]  # exactly degenerate
    lam[2] = lam[0] + 1e-7 / dt  # nearly degenerate
    lam = np.sort(lam)
    geo = _geometric_mean_weights(lam, k, dt, n)
    real = _geometric_mean_weights(lam, k, dt, n, real=True)
    z = np.exp((-k - 1j * (lam[:, None] - lam[None, :])) * dt)
    direct = sum(z**j for j in range(n)) / n
    assert np.array_equal(geo, geo.conj().T)
    assert np.max(np.abs(geo - direct)) < 1e-13
    # Re G alone, in float64, for real eigenvectors and operators
    assert real.dtype == np.float64 and np.array_equal(real, real.T)
    assert np.max(np.abs(real - direct.real)) < 1e-13


def test_phase_numerators_match_expm1_at_sweep_size(fadtrp2):
    """The phase and expm1 numerators give the same weights on a fadtrp-2n sweep point.

    Nyquist sample count at the default t_max = 5/k.  The phases
    lambda t_max reach ~1e4 rad, and both forms round their arguments
    differently (2.5e-14 relative at most here).
    """
    rotation = random_rotation(np.random.default_rng(3))
    prop = solve_pair(fadtrp2, FieldConfig(1.16, 0.4, 0.0), rotation)
    t_max = 5.0 / prop.decay_rate
    n = nyquist_samples(prop, t_max)
    dt = t_max / n
    geo = _geometric_mean_weights(prop.eigenvalues, prop.decay_rate, dt, n)
    x = (-prop.decay_rate - 1j * (prop.eigenvalues[:, None] - prop.eigenvalues[None, :])) * dt
    reference = np.expm1(x * n) / np.expm1(x) / n
    assert np.max(np.abs(prop.eigenvalues)) * t_max > 1e4
    assert np.max(np.abs(geo - reference) / np.abs(reference)) < 1e-12


def test_geometric_weights_of_zero_generator_are_one():
    # nucleus-free pair, B = 0, J = 0, no dipolar term, k = 0: H = 0, every z = 1
    cfg = make_pair(k=0.0)
    h = build_rp_hamiltonian(cfg, FieldConfig(0.0, 0.0, 0.0))
    assert not np.any(h)
    prop = make_propagator(h, cfg.effective_decay_rate)
    assert prop.decay_rate == 0.0
    for real in (False, True):
        geo = _geometric_mean_weights(prop.eigenvalues, prop.decay_rate, 1e-8, 4096, real)
        assert np.array_equal(geo, np.ones((4, 4)))


# -- weighted components only -------------------------------------------------


def _weighted_and_dense(cfg, field, rotation=None):
    """integrated_observables and the singlet yield, and the same from the dense means.

    Checks that a component with d_ci = 0 is exactly +0.0.  Returns the propagator, both
    signals and both yields.
    """
    prop = solve_pair(cfg, field, rotation)
    t_max = 5.0 / cfg.effective_decay_rate
    n = nyquist_samples(prop, t_max)
    ops = np.concatenate([ELECTRON_PAIR_SPIN, electron_singlet_projector()[None]])
    dense = _dense_means(prop, cfg.initial_state, cfg.layout(), ops, t_max / n, n)
    d_c = coupling_geometry(1.0, field.theta, field.phi).d_c
    got = integrated_observables(cfg, field, rotation)
    unweighted = got[d_c == 0]
    assert np.all(unweighted == 0.0) and not np.any(np.signbit(unweighted))
    phi_s = singlet_yield_mean(prop, cfg.initial_state, t_max)
    return prop, got, d_c * dense[:3], phi_s, prop.decay_rate * t_max * dense[3]


def _assert_close(got, want):
    """Within 1e-12 of each column's max|value| (the last axis runs over points)."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_weighted_means_over_the_angle_sweep_grid(fadtrp2):
    """fig4e's 181 angles on axial3 (real, one block); fig4e's own system at four of them.

    At theta = pi/2, d_cx = 1.5 sin(pi) = 1.8e-16 is not zero, so S_x is still evaluated.
    Each column is compared against its max over the grid, as a sweep's CSV column is.
    """
    lo, hi, count = get_preset("fig4e-angle-sweep").params["theta_deg"]
    thetas = np.deg2rad(np.linspace(lo, hi, count))
    assert np.pi / 2 in thetas and coupling_geometry(1.0, np.pi / 2).d_cx != 0.0
    for cfg, grid in ((one_nucleus_config("axial3"), thetas), (fadtrp2, thetas[[0, 37, 90, 143]])):
        rows = []
        for theta in grid:
            prop, *values = _weighted_and_dense(cfg, FieldConfig(1.16, theta, 0.0))
            assert not any(np.iscomplexobj(b.eigenvectors) for b in prop.blocks)
            assert len(prop.blocks) == (2 if theta == 0.0 else 1)
            rows.append(values)
        got, want, phi_s, phi_want = (np.array(column) for column in zip(*rows))
        _assert_close(got.T, want.T)
        _assert_close(phi_s, phi_want)


@pytest.mark.parametrize(
    "make_cfg",
    [lambda: one_nucleus_config("axial3"), strongcoupling_config, pydma_config],
    ids=["axial3", "strongcoupling", "pydma"],
)
def test_weighted_means_of_parity_blocks(make_cfg):
    prop, got, want, phi_s, phi_want = _weighted_and_dense(make_cfg(), FieldConfig(0.7, 0.0, 0.0))
    assert len(prop.blocks) == 2
    _assert_close(got, want)
    _assert_close(phi_s, phi_want)


@pytest.mark.parametrize(
    "field",
    [FieldConfig(1.16, 0.0, 0.0), FieldConfig(1.16, 0.6, 1.1), FieldConfig(0.3, 2.2, 4.0)],
    ids=["axis", "general", "obtuse"],
)
def test_weighted_means_of_a_haar_rotated_pair(field, axial3_pair):
    rotation = random_rotation(np.random.default_rng(11))
    for cfg in (axial3_pair, one_nucleus_config("rhombic")):
        prop, got, want, phi_s, phi_want = _weighted_and_dense(cfg, field, rotation)
        (block,) = prop.blocks
        assert np.iscomplexobj(block.eigenvectors)
        _assert_close(got, want)
        _assert_close(phi_s, phi_want)


def test_means_of_a_complex_operator_with_real_eigenvectors(axial3_pair):
    """S_y, which is imaginary, on a real propagator takes complex weights."""
    prop = solve_pair(axial3_pair, FieldConfig(1.16, 0.6, 0.0))
    (block,) = prop.blocks
    assert not np.iscomplexobj(block.eigenvectors)
    t_max = 5.0 / prop.decay_rate
    n = nyquist_samples(prop, t_max)
    for ops in (ELECTRON_PAIR_SPIN[1:2], ELECTRON_PAIR_SPIN):
        got = _expectation_means(prop, S, ops, t_max)
        want = _dense_means(prop, S, axial3_pair.layout(), ops, t_max / n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(want[1]) > 1e-6 * np.max(np.abs(want))


# -- exact parity blocks ------------------------------------------------------


def _pair_means(prop, cfg, t_max):
    ops = np.concatenate([ELECTRON_PAIR_SPIN, electron_singlet_projector()[None]])
    return _expectation_means(prop, cfg.initial_state, ops, t_max)


#: the shipped systems up to d = 216 (d = 12, 36, 64, 96 and 216); fadtrp-3n (d = 864) is
#: left out for its run time
SHIPPED_SYSTEMS = pytest.mark.parametrize(
    "make_cfg",
    [lambda: one_nucleus_config("axial3"), lambda: two_nucleus_config("axial3"),
     strongcoupling_config, pydma_config, lambda: fadtrp_config(2)],
    ids=["axial3", "axial3-2n", "strongcoupling", "pydma", "fadtrp-2n"],
)


@SHIPPED_SYSTEMS
def test_blocked_propagator_matches_one_block(make_cfg):
    """The means, the signal and the yield of the split H match those of one block."""
    cfg = make_cfg()
    field = FieldConfig(1.16, 0.0, 0.0)
    h = build_rp_hamiltonian(cfg, field)
    k = cfg.effective_decay_rate
    split = make_propagator(h, k, parity_sectors(cfg.layout()))
    whole = make_propagator(h, k)
    assert (len(split.blocks), len(whole.blocks)) == (2, 1)
    assert sum(b.eigenvectors.size for b in split.blocks) == h.size // 2
    assert np.max(np.abs(split.eigenvalues - whole.eigenvalues)) <= 1e-12 * np.linalg.norm(h)
    assert np.all(np.diff(split.eigenvalues) >= 0)

    t_max = 5.0 / k
    # integrated_observables runs on solve_pair's split propagator: S_z alone, times d_cz
    observed = integrated_observables(cfg, field)
    blocked = _pair_means(split, cfg, t_max), observed, singlet_yield_mean(split, S, t_max)
    means = _pair_means(whole, cfg, t_max)
    d_c = coupling_geometry(1.0, 0.0).d_c
    reference = means, d_c * means[:3], singlet_yield_mean(whole, S, t_max)
    for a, b in zip(blocked, reference):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_one_nonzero_cross_sector_pair_forces_one_block(axial3_pair):
    sectors = parity_sectors(axial3_pair.layout())
    even, odd = sectors
    split = build_rp_hamiltonian(axial3_pair, FieldConfig(1.16, 0.0, 0.0)).real
    assert len(make_propagator(split, 0.0, sectors).blocks) == 2
    # in the first even row, which the test reads first, and in a row past it
    for i, j in ((even[0], odd[-1]), (even[-1], odd[-1])):
        h = split.copy()
        h[i, j] = h[j, i] = 1e-300
        assert len(make_propagator(h, 0.0, sectors).blocks) == 1


@SHIPPED_SYSTEMS
def test_solve_pair_splits_every_shipped_system_at_theta_0(make_cfg):
    cfg = make_cfg()
    field = FieldConfig(1.16, 0.0, 0.0)
    assert len(solve_pair(cfg, field).blocks) == 2
    # off the sensor axis, or with a rotated molecule, H does not split
    assert len(solve_pair(cfg, FieldConfig(1.16, 0.3, 0.0)).blocks) == 1
    rotation = random_rotation(np.random.default_rng(4))
    assert len(solve_pair(cfg, field, rotation).blocks) == 1
    # nor does the strong-coupling level analysis, which never hands over the sectors
    levels = level_structure(cfg, field, coupling_geometry(5.0, 0.0))
    assert len(levels.propagator.blocks) == 1


def test_four_spin_1_nuclei_split_into_slabs_of_41_and_40():
    """Two spin-1 nuclei per radical (d = 324) split into two parity sectors.

    Of the 81 nuclear states 41 have one parity and 40 the other, so in each sector
    alpha alpha and beta beta hold one count and alpha beta and beta alpha the other.
    The blocked means, yield and a short S_z series match the one-block propagator
    within 1e-12 of their max.
    """
    rng = np.random.default_rng(16)
    cfg = make_pair(
        tensors1=[np.diag(rng.uniform(-0.3, 1.0, 3)) for _ in range(2)],
        tensors2=[np.diag(rng.uniform(-0.3, 1.0, 3)) for _ in range(2)],
        spins1=[1.0, 1.0], spins2=[1.0, 1.0], j_mT=0.2,
    )
    d = cfg.layout().total_dimension
    assert d == 324
    field = FieldConfig(1.16, 0.0, 0.0)
    split = solve_pair(cfg, field)
    whole = make_propagator(build_rp_hamiltonian(cfg, field), cfg.effective_decay_rate)
    assert (len(split.blocks), len(whole.blocks)) == (2, 1)
    assert sum(b.eigenvectors.size for b in split.blocks) == d * d // 2
    rows = np.concatenate([b.rows for b in split.blocks])
    assert np.array_equal(np.sort(rows), np.arange(d))
    for block in split.blocks:
        slabs = np.diff(np.searchsorted(block.rows, np.arange(5) * (d // 4)))
        assert slabs[0] == slabs[3] and slabs[1] == slabs[2]
        assert sorted(slabs) == [40, 40, 41, 41]

    t_max = 5.0 / cfg.effective_decay_rate
    t = np.arange(300) * (0.5 * np.pi / whole.spectral_spread)

    def results(prop):
        series = _expectation_series(prop, S, ELECTRON_PAIR_SPIN[2:], t)
        return _pair_means(prop, cfg, t_max), singlet_yield_mean(prop, S, t_max), series

    for got, want in zip(results(split), results(whole)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spins", SPIN1_LAYOUTS)
def test_parity_sectors_are_the_pi_rotation_about_z(spins):
    """H at theta = 0 commutes with the tensor product of exp(i pi S_z) over every spin."""
    rng = np.random.default_rng(len(spins[0]) + 3 * len(spins[1]))
    cfg = make_pair(
        tensors1=[np.diag(rng.normal(size=3)) for _ in spins[0]],
        tensors2=[np.diag(rng.normal(size=3)) for _ in spins[1]],
        spins1=spins[0], spins2=spins[1], j_mT=0.3,
    )
    cfg = dataclasses.replace(cfg, dipolar_tensor_mT=np.diag(rng.normal(size=3)))
    layout = cfg.layout()
    d = layout.total_dimension
    even, odd = parity_sectors(layout)
    assert len(even) == len(odd) == d // 2
    assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(d))
    rotation = np.ones(1)
    for species in layout.species:
        rotation = np.kron(rotation, np.exp(1j * np.pi * np.diag(spin_matrices(species)[2])))
    sign = rotation / rotation[even[0]]
    assert np.allclose(sign[even], 1.0, atol=1e-14) and np.allclose(sign[odd], -1.0, atol=1e-14)
    h = build_rp_hamiltonian(cfg, FieldConfig(0.7, 0.0, 0.0))
    commutator = rotation[:, None] * h - h * rotation[None, :]
    assert np.max(np.abs(commutator)) <= 1e-14 * np.max(np.abs(h))
    assert not h[even[:, None], odd].any() and not h[odd[:, None], even].any()


def test_blocked_means_at_zero_field_match_one_block():
    """At B = 0 the levels are exactly degenerate, also across the two blocks."""
    cfg = make_pair(tensors1=[np.eye(3)] * 2, tensors2=[np.eye(3)], spins1=[0.5, 0.5],
                    spins2=[0.5], j_mT=0.0)
    h = build_rp_hamiltonian(cfg, FieldConfig(0.0, 0.0, 0.0))
    k = cfg.effective_decay_rate
    split = make_propagator(h, k, parity_sectors(cfg.layout()))
    whole = make_propagator(h, k)
    assert len(split.blocks) == 2
    assert np.any(np.diff(split.eigenvalues) == 0.0)  # exact degeneracies
    blocked, reference = _pair_means(split, cfg, 5.0 / k), _pair_means(whole, cfg, 5.0 / k)
    assert np.max(np.abs(blocked - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_level_structure_never_blocks():
    cfg = strongcoupling_config()
    field = FieldConfig(1.0, 0.0, 0.0)
    assert len(solve_pair(cfg, field).blocks) == 2
    geom = coupling_geometry(5.0, 0.0)
    even, odd = parity_sectors(cfg.layout())
    assert not build_coupling_hamiltonian(geom, cfg.layout())[even[:, None], odd].any()
    assert len(level_structure(cfg, field, geom).propagator.blocks) == 1


# -- trace law and positivity -------------------------------------------------


def test_trace_law_and_positivity(axial3_pair):
    cfg = axial3_pair
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 1.2, 0.0))
    k = cfg.recombination_rate
    prop = make_propagator(h, k)
    rho0 = initial_state(S, layout)
    for t in np.linspace(0.0, 25e-6, 40):
        rho = evolve(prop, rho0, t)
        assert np.real(np.trace(rho)) == pytest.approx(np.exp(-k * t), abs=1e-9)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


# -- singlet probability and yield --------------------------------------------


def test_singlet_probability_of_initial_states():
    layout = SpinSystemLayout.for_radical_pair()
    p_s = singlet_projector(layout)
    assert np.real(np.trace(p_s @ initial_state(S, layout))) == pytest.approx(1.0)
    assert np.real(np.trace(p_s @ initial_state(T0, layout))) == pytest.approx(0.0, abs=1e-14)


def test_yield_saturates_for_singlet_conserving_hamiltonian():
    # B along z with no hyperfine: [H, P_S] = 0, so phi_s -> 1 - e^(-k_eff T)
    rate_k = make_pair(j_mT=0.3)
    rate_2k = dataclasses.replace(rate_k, decay_convention=DecayConvention.RATE_2K)
    assert rate_2k.effective_decay_rate == 2.0 * rate_k.effective_decay_rate
    for cfg in (rate_k, rate_2k):
        h = build_rp_hamiltonian(cfg, FieldConfig(1.0, 0.0, 0.0))
        k = cfg.effective_decay_rate
        prop = make_propagator(h, k)
        t_max = 5.0 / k
        ys = singlet_yield_mean(prop, S, t_max)
        k_dt = k * t_max / nyquist_samples(prop, t_max)
        # the left-endpoint Riemann sum, which overshoots 1 - e^(-k T) by ~k dt / 2
        expected = (1.0 - np.exp(-k * t_max)) * k_dt / -np.expm1(-k_dt)
        assert ys == pytest.approx(expected, rel=2e-4)
        assert 0.0 <= ys <= 1.0


def test_yield_zero_from_orthogonal_sector():
    cfg = make_pair(j_mT=0.3, initial=T0)
    h = build_rp_hamiltonian(cfg, FieldConfig(1.0, 0.0, 0.0))
    k = cfg.recombination_rate
    prop = make_propagator(h, k)
    ys = singlet_yield_mean(prop, T0, 5.0 / k)
    assert abs(ys) < 1e-12


def test_yield_against_rk4_oracle(axial3_pair):
    cfg = axial3_pair
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 0.0, 0.0))
    k = cfg.recombination_rate
    prop = make_propagator(h, k)
    rho0 = initial_state(S, layout)

    t_max = 5.0 / k
    n = nyquist_samples(prop, t_max)
    dt_grid = t_max / n
    ys_eigen = singlet_yield_mean(prop, S, t_max)

    # oracle on a coarser recorded grid but fine integration steps
    lam = float(np.max(np.abs(prop.eigenvalues)))
    sub = max(int(np.ceil(dt_grid / (0.02 / lam))), 1)
    res = rk4_evolve(
        rho0, h, k, dt_grid / sub, t_max, observables=[singlet_projector(layout)],
        record_every=sub,
    )
    ys_oracle = k * dt_grid * np.sum(res.observables[0][:n])
    assert ys_eigen == pytest.approx(ys_oracle, abs=1e-4)


def test_nyquist_samples_power_of_two(axial3_pair):
    h = build_rp_hamiltonian(axial3_pair, FieldConfig(50.0, 0.0, 0.0))
    prop = make_propagator(h, axial3_pair.recombination_rate)
    n = nyquist_samples(prop, 25e-6)
    assert n & (n - 1) == 0
    assert 25e-6 / n < np.pi / prop.spectral_spread


def test_propagator_eigenvectors_unitary(axial3_pair):
    h = build_rp_hamiltonian(axial3_pair, FieldConfig(0.3, 0.5, 0.0))
    (block,) = make_propagator(h, 0.0).blocks
    v = block.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0])) < 1e-10
