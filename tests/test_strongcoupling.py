"""Conditional level structure, peak clustering, and contrasts."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nvrp
from nvrp import cli, dynamics, strongcoupling
from nvrp.config import ExperimentConfig
from nvrp.dynamics import initial_state, make_propagator
from nvrp.errors import NumericalError, PhysicsError
from nvrp.hamiltonian import (
    FieldConfig,
    SensorParams,
    build_coupling_hamiltonian,
    build_rp_hamiltonian,
    coupling_geometry,
)
from nvrp.presets import STRONG_SENSOR, one_nucleus_config, strongcoupling_config
from nvrp.strongcoupling import (
    _stabilize_degenerate,
    count_resolved_peaks,
    level_structure,
    peak_contrast,
)

from conftest import dense_series, make_pair, singlet_projector


def _geom(r_nm=5.0, theta=0.0):
    return coupling_geometry(r_nm, theta, 0.0)


def _levels_for(cfg, b=0.5, r_nm=5.0, theta=0.0):
    return level_structure(cfg, FieldConfig(b, theta, 0.0), _geom(r_nm, theta))


def test_zero_coupling_zero_offsets(bare_pair):
    geom = coupling_geometry(1e6, 0.3, 0.0)  # effectively infinite distance
    levels = level_structure(bare_pair, FieldConfig(0.5, 0.3, 0.0), geom)
    assert np.max(np.abs(levels.transition_freqs_hz)) < 1e-6


def test_weak_geometry_warns_and_fig6c_does_not():
    """g_eff / 2pi = 26.0 kHz at r = 20 nm is below Gamma = 31.8 kHz at T2 = 10 us."""
    cfg, field = one_nucleus_config("axial3"), FieldConfig(0.5, 0.0, 0.0)
    with pytest.warns(UserWarning, match="weak-coupling"):
        level_structure(cfg, field, _geom(20.0), SensorParams(t2=10e-6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        level_structure(cfg, field, _geom(5.0), STRONG_SENSOR)  # fig6c's r and T2


def test_no_nuclei_at_most_four_transitions(bare_pair):
    levels = _levels_for(bare_pair)
    assert levels.n_transitions == 4


def test_singlet_level_shifts_second_order():
    """The singlet-dominated level shifts only quadratically in the coupling.

    At zero field the pair Hamiltonian is real, so time reversal forces
    every spin expectation (the first-order shift) to vanish exactly; the
    leading response to the coupling is then second order.  At nonzero
    field the triplet admixture acquires a net spin and the shift turns
    linear, so the quadratic law is a zero-field statement.
    """
    from nvrp.presets import one_nucleus_config

    cfg = one_nucleus_config("axial3")
    p_s = singlet_projector(cfg.layout())

    def singlet_offset(r_nm):
        levels = _levels_for(cfg, b=0.0, r_nm=r_nm, theta=0.7)
        weights = np.real(
            np.einsum("in,ij,jn->n", levels.states_1.conj(), p_s, levels.states_1)
        )
        n = int(np.argmax(weights))
        assert weights[n] > 0.5
        return levels.transition_freqs_hz[n]

    f1 = singlet_offset(5.0)
    f2 = singlet_offset(5.0 * 2 ** (1 / 3))  # halves D_r
    ratio = abs(f1) / abs(f2)
    assert 3.8 < ratio < 4.2  # quadratic: expect 4


def test_cluster_all_identical():
    peaks = count_resolved_peaks(np.array([100.0, 100.0, 100.0]), gamma_hz=10.0)
    assert peaks.count == 1
    assert peaks.multiplicities[0] == 3


def test_cluster_widely_spaced():
    peaks = count_resolved_peaks(np.array([0.0, 100.0, 200.0, 300.0]), gamma_hz=10.0)
    assert peaks.count == 4
    assert np.all(np.diff(peaks.centers_hz) >= 10.0)


def test_cluster_gamma_positive():
    levels = _levels_for(make_pair())
    with pytest.raises(PhysicsError, match="positive"):
        count_resolved_peaks(levels.transition_freqs_hz, gamma_hz=0.0)


def test_peak_count_monotone_in_resolution():
    cfg = strongcoupling_config()
    levels = _levels_for(cfg, b=0.5)
    coarse = count_resolved_peaks(levels.transition_freqs_hz, gamma_hz=1e3)
    fine = count_resolved_peaks(levels.transition_freqs_hz, gamma_hz=1e2)
    assert fine.count >= coarse.count


def test_peak_count_bounded_by_dimension():
    cfg = strongcoupling_config()
    dim = cfg.layout().total_dimension
    for b in (0.05, 0.5, 5.0):
        levels = _levels_for(cfg, b=b)
        peaks = count_resolved_peaks(levels.transition_freqs_hz, gamma_hz=318.0)
        assert peaks.count <= dim


def test_contrast_zero_for_maximally_mixed(bare_pair):
    import dataclasses

    cfg = dataclasses.replace(bare_pair, recombination_rate=0.0)
    geom = _geom()
    t = np.linspace(0.0, 1e-6, 256, endpoint=False)
    # build the contrast series by hand for a maximally mixed state
    levels = level_structure(cfg, FieldConfig(0.5, 0.0, 0.0), geom)
    rho_mixed = np.eye(4) / 4.0
    projs = []
    for n in range(levels.n_transitions):
        p1 = np.outer(levels.states_1[:, n], levels.states_1[:, n].conj())
        p0 = np.outer(
            levels.states_0[:, levels.pairing[n]],
            levels.states_0[:, levels.pairing[n]].conj(),
        )
        projs.extend([p1, p0])
    series = dense_series(levels.propagator, rho_mixed, projs, t)
    contrast = series[0::2] - series[1::2]
    assert np.max(np.abs(contrast)) < 1e-12


def test_contrast_initially_zero_for_identical_projector_pairs(bare_pair):
    # transitions whose |0> and |1> states coincide start at zero contrast
    geom = _geom(r_nm=1e5)
    t = np.linspace(0.0, 1e-6, 128, endpoint=False)
    levels = level_structure(bare_pair, FieldConfig(0.5, 0.0, 0.0), geom)
    c = peak_contrast(levels, bare_pair.initial_state, t)
    assert np.max(np.abs(c[:, 0])) < 1e-9


def test_contrast_matches_rk4_on_toy_pair(bare_pair):
    from nvrp.oracle import rk4_evolve

    cfg = bare_pair
    field = FieldConfig(0.5, 0.0, 0.0)
    geom = _geom(r_nm=5.0)
    levels = level_structure(cfg, field, geom)
    h0 = build_rp_hamiltonian(cfg, field)
    rho0 = initial_state(cfg.initial_state, cfg.layout())
    k = cfg.recombination_rate

    lam = max(float(np.max(np.abs(np.linalg.eigvalsh(h0)))), k)
    dt = 0.05 / lam
    t_max = 1e-6
    n = int(round(t_max / dt))
    projs = []
    for m in range(levels.n_transitions):
        p1 = np.outer(levels.states_1[:, m], levels.states_1[:, m].conj())
        p0 = np.outer(
            levels.states_0[:, levels.pairing[m]],
            levels.states_0[:, levels.pairing[m]].conj(),
        )
        projs.extend([p1, p0])
    res = rk4_evolve(rho0, h0, k, t_max / n, t_max, observables=projs, record_every=64)
    oracle_contrast = res.observables[0::2] - res.observables[1::2]
    c = peak_contrast(levels, cfg.initial_state, res.t_grid)
    assert np.max(np.abs(c - oracle_contrast)) < 1e-6


def test_contrast_matches_full_space_projectors():
    """The rank-1 contrasts reproduce Re Tr(P rho(t)) of the full-space projectors.

    Strong-coupling system (d = 64), off-axis field and coupling, 2048
    samples over five lifetimes as in the peak-count runner.
    """
    from nvrp.signal import solve_pair

    cfg = strongcoupling_config()
    field = FieldConfig(0.5, 0.9, 0.3)
    geom = coupling_geometry(5.0, 0.9, 0.3)
    t = np.linspace(0.0, 5.0 / cfg.effective_decay_rate, 2048, endpoint=False)
    levels = level_structure(cfg, field, geom)
    contrast = peak_contrast(levels, cfg.initial_state, t)

    prop = solve_pair(cfg, field)
    rho0 = initial_state(cfg.initial_state, cfg.layout())
    projs = []
    for n in range(levels.n_transitions):
        p1 = np.outer(levels.states_1[:, n], levels.states_1[:, n].conj())
        p0_state = levels.states_0[:, levels.pairing[n]]
        projs.extend([p1, np.outer(p0_state, p0_state.conj())])
    series = dense_series(prop, rho0, projs, t)
    reference = series[0::2] - series[1::2]
    assert np.max(np.abs(contrast - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_projector_completeness_tracks_trace():
    cfg = strongcoupling_config()
    field = FieldConfig(0.5, 0.0, 0.0)
    geom = _geom()
    levels = level_structure(cfg, field, geom)
    prop = levels.propagator
    k = prop.decay_rate
    from nvrp.dynamics import _projector_series

    t = np.linspace(0.0, 10e-6, 32)
    (block,) = prop.blocks
    coeffs = block.eigenvectors.conj().T @ levels.states_0[:, : levels.n_transitions]
    series = _projector_series(prop, cfg.initial_state, coeffs, t)
    totals = np.sum(series, axis=0)
    assert np.max(np.abs(totals - np.exp(-k * t))) < 1e-9


def test_transition_continuity_in_field():
    cfg = strongcoupling_config()
    geom = _geom()
    f1 = _levels_for(cfg, b=1.00).transition_freqs_hz
    f2 = _levels_for(cfg, b=1.01).transition_freqs_hz
    # matched transitions move smoothly: shifts stay well under the spectral span
    span = np.max(f1) - np.min(f1)
    assert np.max(np.abs(np.sort(f2) - np.sort(f1))) < 0.2 * span



@pytest.mark.parametrize("phi, dtype", [(0.0, np.float64), (0.3, np.complex128)])
def test_stabilized_states_take_the_operators_dtype(bare_pair, phi, dtype):
    """Real eigenvectors stay real for a real operator and turn complex for a complex one.

    Zeeman levels of the bare pair along z: -w, 0, 0, +w.  Inside the
    zero-level cluster the stabilised states diagonalise the operator.
    """
    prop = make_propagator(build_rp_hamiltonian(bare_pair, FieldConfig(0.5, 0.0, 0.0)), 0.0)
    (block,) = prop.blocks
    assert block.eigenvectors.dtype == np.float64
    op = build_coupling_hamiltonian(coupling_geometry(5.0, 0.4, phi), bare_pair.layout())
    v = _stabilize_degenerate(prop, op)
    assert v.dtype == dtype
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-14)
    sub = v[:, 1:3].conj().T @ op @ v[:, 1:3]
    assert abs(sub[0, 1]) < 1e-12 * np.linalg.norm(op)


def test_level_structure_checks_the_coupled_manifold(monkeypatch):
    # a decomposition of H_RP + coupling that misses the residual bound; at
    # phi = 0 both are real, so the corrupted V is real
    cfg = strongcoupling_config()
    field = FieldConfig(0.5, 0.4, 0.0)
    geom = coupling_geometry(5.0, 0.4, 0.0)
    h1 = build_rp_hamiltonian(cfg, field) + build_coupling_hamiltonian(geom, cfg.layout())
    real_eigh = dynamics._eigh

    def corrupted(h):  # make_propagator diagonalises a stack: here one matrix
        w, v = real_eigh(h)
        if np.array_equal(h, h1[None]):
            assert v.dtype == np.float64
            w = w.copy()
            w[:, 0] += 1e-6 * np.linalg.norm(h1)
        return w, v

    level_structure(cfg, field, geom)
    monkeypatch.setattr(dynamics, "_eigh", corrupted)
    with pytest.raises(NumericalError, match="residual"):
        level_structure(cfg, field, geom)


def test_peak_count_diagonalises_each_manifold_once(tmp_path, monkeypatch):
    """Five field points: one checked eigh per manifold and point, none for the contrast."""
    cfg = ExperimentConfig(
        kind="peak-count", radical_pair=strongcoupling_config(), sensor=STRONG_SENSOR,
        params={"r_nm": 5.0, "b_grid": [0.5, 2.0, 5]},
    )
    d = cfg.radical_pair.layout().total_dimension
    callers = []

    def counting(eigh):
        def spy(h):
            if h.shape[-1] == d:
                callers.append(sys._getframe(1).f_code.co_name)
            return eigh(h)

        return spy

    monkeypatch.setattr(dynamics, "_eigh", counting(dynamics._eigh))
    monkeypatch.setattr(strongcoupling, "_eigh", counting(strongcoupling._eigh))
    cli.run(cfg, tmp_path)
    assert callers == ["make_propagator"] * 10


#: a fresh interpreter: imports the package and runs one d = 12 point, lists the scipy
#: modules loaded by then, and then matches the strong-coupling levels
_IMPORT_GRAPH = """
import sys
sys.path.insert(0, sys.argv[1])
import nvrp, nvrp.cli
from nvrp.hamiltonian import FieldConfig, coupling_geometry
from nvrp.presets import one_nucleus_config, strongcoupling_config
from nvrp.signal import integrated_observables
from nvrp.strongcoupling import level_structure

integrated_observables(one_nucleus_config("axial3"), FieldConfig(0.5, 0.3, 0.0))
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
levels = level_structure(strongcoupling_config(), FieldConfig(0.5, 0.0, 0.0),
                         coupling_geometry(5.0, 0.0, 0.0))
print(levels.n_transitions, "scipy.optimize" in sys.modules)
"""


def test_only_level_matching_imports_scipy():
    """``import nvrp`` and a point load no scipy; ``level_structure`` imports it and runs.

    A fresh interpreter, since this suite's conftest imports scipy.
    """
    src = Path(nvrp.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH, str(src)], capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded, levels = result.stdout.splitlines()
    assert loaded == "[]"
    assert levels == f"{strongcoupling_config().layout().total_dimension} True"
