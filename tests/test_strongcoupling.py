"""Conditional level structure, peak clustering, and contrasts."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvrp
from nvrp import cli, dynamics, strongcoupling
from nvrp.config import ExperimentConfig, read_params
from nvrp.dynamics import initial_state, make_propagator
from nvrp.errors import NumericalError, PhysicsError
from nvrp.hamiltonian import (
    FieldConfig,
    SensorParams,
    build_coupling_hamiltonian,
    build_rp_hamiltonian,
    coupling_geometry,
)
from nvrp.presets import STRONG_SENSOR, get_preset, one_nucleus_config, strongcoupling_config
from nvrp.strongcoupling import (
    _stabilize_degenerate,
    count_resolved_peaks,
    level_structure,
    match_levels,
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
    """Five field points: one stacked, checked eigh per manifold, none for the contrast."""
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
    assert callers == ["make_propagator"] * 2  # one stack of five fields per manifold


#: a fresh interpreter: imports the package, runs one d = 12 point, matches the
#: strong-coupling levels and runs fig6c, listing the scipy modules loaded after each
_IMPORT_GRAPH = """
import sys
sys.path.insert(0, sys.argv[1])
import nvrp, nvrp.cli
from nvrp.hamiltonian import FieldConfig, coupling_geometry
from nvrp.presets import get_preset, one_nucleus_config, strongcoupling_config
from nvrp.signal import integrated_observables
from nvrp.strongcoupling import level_structure

def scipy_modules():
    print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])

integrated_observables(one_nucleus_config("axial3"), FieldConfig(0.5, 0.3, 0.0))
scipy_modules()
level_structure(strongcoupling_config(), FieldConfig(0.5, 0.0, 0.0),
                coupling_geometry(5.0, 0.0, 0.0))
scipy_modules()
nvrp.cli.run(nvrp.cli.experiment_from_preset(get_preset("fig6c-peak-count"), None), sys.argv[2])
scipy_modules()
"""


def test_no_run_imports_scipy(tmp_path):
    """``import nvrp``, a point, ``level_structure`` and a whole fig6c run load no scipy.

    A fresh interpreter, since this suite's conftest imports scipy.
    """
    src = Path(nvrp.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH, str(src), str(tmp_path)], capture_output=True,
        text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"] * 3
    assert (tmp_path / "peak_count.csv").exists()


# -- level matching --------------------------------------------------------------


def _scipy_pairing(overlap):
    """scipy's optimal pairing (pairing[n] = m) and its total overlap."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(overlap, maximize=True)
    pairing = np.empty(overlap.shape[1], dtype=int)
    pairing[cols] = rows
    return pairing, float(overlap[rows, cols].sum())


def _second_best_gap(overlap, pairing):
    """Total overlap of ``pairing`` less the best assignment that leaves out one of its pairs."""
    from scipy.optimize import linear_sum_assignment

    best = overlap[pairing, np.arange(overlap.shape[1])].sum()
    runner_up = -np.inf
    for n, m in enumerate(pairing):
        barred = overlap.copy()
        barred[m, n] = -overlap.shape[0]  # never worth taking
        rows, cols = linear_sum_assignment(barred, maximize=True)
        runner_up = max(runner_up, barred[rows, cols].sum())
    return best - runner_up


def _random_overlaps(n, seed, spread, clusters, tilt):
    """|U_mn|^2 of a random unitary: near-degenerate clusters after exp(i s A), columns permuted.

    ``spread`` s scales a GUE generator A (0: no rotation, 3: nearly Haar).  The
    ``clusters`` alternate between pairs rotated by pi/4 + ``tilt`` x (two levels split
    evenly between two partners; a tie at tilt 0) and Haar-random triples.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh((a + a.conj().T) / (2 * np.sqrt(n)))
    u = (v * np.exp(1j * spread * w)) @ v.conj().T
    lo = 0
    for c in range(clusters):
        size = 2 + c % 2
        if lo + size > n:
            break
        if size == 2:
            angle = np.pi / 4 + tilt * rng.standard_normal()
            mix = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        else:
            mix = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        u[:, lo : lo + size] = u[:, lo : lo + size] @ mix
        lo += size
    return np.abs(u[:, rng.permutation(n)]) ** 2


def _tied_profits(n, seed, levels):
    """Non-negative integers below ``levels``: ties everywhere, row and column sums unequal."""
    return np.random.default_rng(seed).integers(0, levels, (n, n)).astype(float)


@given(
    st.integers(1, 64), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.3, 1.0, 3.0]),
    st.integers(0, 24), st.sampled_from([0.0, 1e-9, 1e-3]), st.sampled_from([None, 2, 3, 50]),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_match_levels_against_scipy(n, seed, spread, clusters, tilt, levels):
    """The optimum equals scipy's; so does the pairing where the optimum is unique.

    Overlaps of a unitary (``levels`` None) or, since the solver assumes nothing of O's sums,
    tied non-negative integers.  k counts the rows that are no column's argmax.
    """
    if levels is None:
        overlap = _random_overlaps(n, seed, spread, clusters, tilt)
    else:
        overlap = _tied_profits(n, seed, levels)
    match = match_levels(overlap)
    assert np.array_equal(np.sort(match.pairing), np.arange(n))
    reference, best = _scipy_pairing(overlap)
    assert abs(overlap[match.pairing, np.arange(n)].sum() - best) <= 1e-12
    if _second_best_gap(overlap, reference) > 1e-9:
        assert np.array_equal(match.pairing, reference)
    assert match.k == n - len(set(overlap.argmax(axis=0).tolist()))
    assert match.min_column_max == np.min(np.max(overlap, axis=0))


#: column 0's largest overlap, 0.505 in row 2, is above 1/2 but not in the optimum (0.98
#: against 0.935 on columns 0 and 1, where row 0, no column's argmax, must go)
_HALF_IS_NOT_ENOUGH = np.array([[0.485, 0.43, 0.085], [0.01, 0.075, 0.915], [0.505, 0.495, 0.0]])


@pytest.mark.parametrize(
    "overlap, k, pairing",
    [
        pytest.param(np.eye(3), 0, [0, 1, 2], id="identity"),
        pytest.param(np.full((2, 2), 0.5), 1, None, id="tie"),
        pytest.param(
            np.block([[np.eye(1), np.zeros((1, 2))], [np.zeros((2, 1)), np.full((2, 2), 0.5)]]),
            1, None, id="tie-beside-a-fixed-level",
        ),
        pytest.param(_HALF_IS_NOT_ENOUGH, 1, [0, 2, 1], id="half-is-not-enough"),
    ],
)
def test_match_levels_counts_its_augmenting_paths(overlap, k, pairing):
    match = match_levels(overlap)
    assert match.k == k
    assert np.array_equal(np.sort(match.pairing), np.arange(overlap.shape[0]))
    if pairing is not None:
        assert match.pairing.tolist() == pairing


def _fig6c():
    cfg = cli.experiment_from_preset(get_preset("fig6c-peak-count"), None)
    p = read_params(cfg.kind, cfg.params)
    theta, phi = np.deg2rad(p["theta_deg"]), np.deg2rad(p["phi_deg"])
    fields = [FieldConfig(float(b), theta, phi) for b in p["b_grid"]]
    return cfg.radical_pair, fields, coupling_geometry(p["r_nm"], theta, phi)


def test_fig6c_pairing_equals_scipys_at_every_field():
    rp, fields, geom = _fig6c()
    levels = level_structure(rp, fields, geom)
    assert len(levels) == 24
    for lv in levels:
        overlap = np.abs(lv.states_0.conj().T @ lv.states_1) ** 2
        assert np.array_equal(lv.pairing, _scipy_pairing(overlap)[0])
    assert [lv.matching.k for lv in levels] == [1] + [0] * 9 + [1] + [0] * 13  # 0.05, 0.50 mT


def test_level_structure_of_a_sequence_equals_one_field_at_a_time(monkeypatch):
    """Stacks give every field's levels bit for bit, in order, dtype included.

    phi = 0.3 makes B_y != 0 complex, while b = 0 stays real: two stacks of one dtype each.
    """
    cfg = one_nucleus_config("axial3")
    geom = coupling_geometry(5.0, 0.4, 0.3)
    fields = [FieldConfig(b, 0.4, 0.3) for b in (0.5, 0.0, 1.0, 2.0)]
    calls = []
    real_make = strongcoupling.make_propagator
    monkeypatch.setattr(
        strongcoupling, "make_propagator", lambda h, k: calls.append(h.shape) or real_make(h, k)
    )
    levels = level_structure(cfg, fields, geom)
    assert calls == [(3, 12, 12)] * 2 + [(1, 12, 12)] * 2
    for field, stacked in zip(fields, levels):
        single = level_structure(cfg, field, geom)
        for name in ("states_0", "states_1", "pairing", "transition_freqs_hz"):
            a, b = getattr(stacked, name), getattr(single, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        (block,), (block1,) = stacked.propagator.blocks, single.propagator.blocks
        assert np.array_equal(block.eigenvectors, block1.eigenvectors)
    assert levels[1].states_0.dtype == np.complex128  # the coupling is complex at phi != 0
    assert level_structure(cfg, [], geom) == []


def test_peak_count_manifest_states_the_matching_margins(tmp_path):
    cfg = ExperimentConfig(
        kind="peak-count", radical_pair=strongcoupling_config(), sensor=STRONG_SENSOR,
        params={"r_nm": 5.0, "b_grid": [0.05, 0.5, 3]},
    )
    cli.run(cfg, tmp_path)
    rows = json.loads((tmp_path / "manifest.json").read_text())["numerics"]["level_matching"]
    assert [r["b_mT"] for r in rows] == pytest.approx([0.05, np.sqrt(0.05 * 0.5), 0.5])
    for r in rows:
        assert set(r) == {"b_mT", "min_column_max", "k"}
        assert 0 < r["min_column_max"] <= 1 + 1e-12
    assert [r["k"] for r in rows] == [1, 0, 1]
    assert rows[0]["min_column_max"] < 0.5


# -- peak clustering ---------------------------------------------------------------


def _greedy_reference(freqs_hz, gamma_hz):
    """The clustering as first written: np.mean of the growing cluster for every frequency."""
    centers, counts, members = [], [], []
    for f in np.sort(freqs_hz):
        if members and f - np.mean(members) > gamma_hz:
            centers.append(float(np.mean(members)))
            counts.append(len(members))
            members = []
        members.append(f)
    if members:
        centers.append(float(np.mean(members)))
        counts.append(len(members))
    return centers, counts


#: ten frequencies whose sequential sum and ``np.mean`` (pairwise) differ in the last bit
_TEN = np.array([
    2738.500170148095, 33585.57530546436, 175655.620602559, 299711.8905373848,
    422687.22119765845, 541461.2202490917, 729655.446429944, 815853.5541215321,
    857404.2765875694, 863178.9223498866,
])


def test_cluster_gap_of_exactly_gamma_joins():
    """A member at exactly gamma from np.mean of ten joins; one ulp of gamma less splits."""
    f = 1294769.38352483
    gamma = f - np.mean(_TEN)
    assert sum(_TEN.tolist()) / 10 != np.mean(_TEN)  # a running sum alone would split
    freqs = np.append(_TEN, f)
    peaks = count_resolved_peaks(freqs, gamma)
    assert peaks.multiplicities.tolist() == [11]
    assert peaks.centers_hz.tolist() == [np.mean(freqs)]
    peaks = count_resolved_peaks(freqs, np.nextafter(gamma, 0.0))
    assert peaks.multiplicities.tolist() == [10, 1]
    assert peaks.centers_hz.tolist() == [np.mean(_TEN), f]


@pytest.mark.parametrize("seed", range(4))
def test_clustering_matches_the_growing_mean(seed):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-5e4, 5e4, 30)
    freqs = np.concatenate([rng.normal(c, 40.0, rng.integers(1, 12)) for c in centres])
    for gamma in (10.0, 318.0, 3e3):
        peaks = count_resolved_peaks(freqs, gamma)
        centers, counts = _greedy_reference(freqs, gamma)
        assert peaks.centers_hz.tolist() == centers
        assert peaks.multiplicities.tolist() == counts
    empty = count_resolved_peaks(np.array([]), 1.0)
    assert empty.count == 0 and empty.multiplicities.dtype == int
