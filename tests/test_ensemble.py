"""Ensemble sampling and the orientation-averaged statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrp.dynamics import _expectation_means, nyquist_samples
from nvrp.ensemble import (
    MAX_MOLECULES,
    EnsembleSpec,
    OrientationMode,
    ensemble_sweep,
    random_rotation,
    realization_rngs,
    sample_realization,
)
from nvrp.errors import PhysicsError
from nvrp.hamiltonian import ELECTRON_PAIR_SPIN, FieldConfig
from nvrp.presets import one_nucleus_config
from nvrp.signal import integrated_observables, single_molecule_prefactor, solve_pair
from nvrp.spincore import Rotation

from conftest import SPIN1_LAYOUTS, random_pair


def _spec(**kw):
    base = dict(
        n_realizations=4,
        orientation_mode=OrientationMode.HAAR,
        r_range_nm=(5.0, 20.0),
        seed=11,
        density_per_nm3=None,
        n_molecules=3,
    )
    base.update(kw)
    return EnsembleSpec(**base)


def test_aligned_mode_gives_identity_rotations():
    spec = _spec(orientation_mode=OrientationMode.ALIGNED)
    rng = realization_rngs(spec)[0]
    for r_nm, rotation in sample_realization(spec, rng):
        assert rotation is Rotation.identity()
        assert 5.0 <= r_nm <= 20.0


@pytest.mark.parametrize("count", [0, MAX_MOLECULES + 1, 2**63])
def test_fixed_molecule_count_is_capped(count):
    """A library caller's count outside [1, MAX_MOLECULES] fails when the spec is built.

    Only the construction runs: a spec of 2**63 molecules would sample until killed.
    """
    with pytest.raises(PhysicsError, match="molecule count"):
        _spec(n_molecules=count)
    assert _spec(n_molecules=MAX_MOLECULES).n_molecules == MAX_MOLECULES


def test_same_seed_bitwise_identical():
    spec = _spec()
    a = [sample_realization(spec, rng) for rng in realization_rngs(spec)]
    b = [sample_realization(spec, rng) for rng in realization_rngs(spec)]
    for mols_a, mols_b in zip(a, b):
        for (r_a, rot_a), (r_b, rot_b) in zip(mols_a, mols_b):
            assert r_a == r_b
            assert np.array_equal(rot_a.matrix, rot_b.matrix)


def test_so3_uniformity_mean():
    rng = np.random.default_rng(5)
    n = 10_000
    total = np.zeros((3, 3))
    for _ in range(n):
        total += random_rotation(rng).matrix
    mean = total / n
    # per-entry variance is 1/3 for Haar; 3-sigma bound on the mean
    assert np.max(np.abs(mean)) < 3.0 * np.sqrt(1.0 / 3.0 / n)


def test_poisson_count_clamped():
    spec = EnsembleSpec(
        n_realizations=1, r_range_nm=(5.0, 20.0), seed=1,
        density_per_nm3=5e-2,
    )
    rng = realization_rngs(spec)[0]
    mols = sample_realization(spec, rng)
    # shell holds ~825 molecules at this density; the clamp caps at 100
    assert len(mols) == MAX_MOLECULES


def test_poisson_mean_numpy_cannot_draw_takes_the_cap():
    """A Poisson mean above numpy's limit (about 9.2e18) is not drawn: the count is the cap,
    and the distances start at the stream's first draw."""
    spec = EnsembleSpec(
        n_realizations=1, r_range_nm=(1e-93, 1e102), seed=1, density_per_nm3=5e-2,
    )
    assert spec.density_per_nm3 * spec.shell_volume_nm3() > 1e300
    mols = sample_realization(spec, realization_rngs(spec)[0])
    assert len(mols) == MAX_MOLECULES
    assert mols[0][0] == realization_rngs(spec)[0].uniform(*spec.r_range_nm)


def test_degenerate_aligned_ensemble_equals_single_molecule():
    cfg = one_nucleus_config("axial3")
    spec = EnsembleSpec(
        n_realizations=1, orientation_mode=OrientationMode.ALIGNED,
        r_range_nm=(9.999999, 10.000001), seed=3,
        density_per_nm3=None, n_molecules=1,
    )
    stats = ensemble_sweep(cfg, spec, b_grid_mT=[0.5, 1.2])
    for i, b in enumerate(stats.grid):
        single = single_molecule_prefactor(10.0) * integrated_observables(
            cfg, FieldConfig(b, 0.0, 0.0)
        )
        assert np.allclose(stats.mean[:, i], single, rtol=1e-5)
        assert np.allclose(stats.variance[:, i], 0.0)


def test_realization_linearity():
    """Each Haar molecule's grid runs as one batch; the realization's total is still the
    sum over molecules of their per-point signals."""
    cfg = one_nucleus_config("axial3")
    spec = _spec(n_realizations=1, n_molecules=3)
    rng = realization_rngs(spec)[0]
    molecules = sample_realization(spec, rng)
    grid = [0.5, 1.2]
    total = np.zeros((3, len(grid)))
    for r_nm, rotation in molecules:
        for i, b in enumerate(grid):
            raw = integrated_observables(cfg, FieldConfig(b, 0.0, 0.0), rotation)
            total[:, i] += single_molecule_prefactor(r_nm) * raw
    stats = ensemble_sweep(cfg, spec, b_grid_mT=grid)
    np.testing.assert_allclose(stats.mean, total, rtol=1e-10, atol=0.0)


def test_random_orientation_variance_positive_two_seed_sets():
    cfg = one_nucleus_config("axial3")
    for seed in (101, 202):
        spec = _spec(seed=seed, n_realizations=6, n_molecules=2)
        stats = ensemble_sweep(cfg, spec, b_grid_mT=[1.2])
        assert stats.variance[2, 0] > 0.0


def test_aligned_mean_is_radial_average_of_single_molecule():
    cfg = one_nucleus_config("axial3")
    spec = _spec(orientation_mode=OrientationMode.ALIGNED, n_realizations=3, n_molecules=4)
    stats = ensemble_sweep(cfg, spec, b_grid_mT=[1.0])
    raw = integrated_observables(cfg, FieldConfig(1.0, 0.0, 0.0))
    expected = np.zeros(3)
    for rng in realization_rngs(spec):
        for r_nm, _ in sample_realization(spec, rng):
            expected += single_molecule_prefactor(r_nm) * raw
    expected /= spec.n_realizations
    assert np.allclose(stats.mean[:, 0], expected, rtol=1e-10)


# -- rotational covariance -----------------------------------------------------


def _field_along(vector_mT: np.ndarray) -> FieldConfig:
    b = float(np.linalg.norm(vector_mT))
    theta = math.acos(min(1.0, max(-1.0, vector_mT[2] / b)))
    phi = math.atan2(vector_mT[1], vector_mT[0]) % (2 * math.pi)
    return FieldConfig(b, theta, phi if phi < 2 * math.pi else 0.0)


@given(st.integers(0, 2**32 - 1), st.sampled_from(SPIN1_LAYOUTS))
@settings(max_examples=20, deadline=None)
def test_pair_spin_means_are_rotation_covariant(seed, spins):
    """m(R, B) = R m(I, R^T B) for the raw time-averaged <S1 + S2>.

    The Zeeman term is isotropic and rho0 = |S0><S0| x I / d_nuc is
    invariant under a global spin rotation, so rotating every coupling
    tensor by R is the same as rotating the field by R^T and the result
    back by R.  Every ensemble average rests on this convention.
    """
    rng = np.random.default_rng(seed)
    cfg = random_pair(rng, spins)
    direction = rng.normal(size=3)
    field = _field_along(rng.uniform(0.1, 3.0) * direction / np.linalg.norm(direction))
    rotation = random_rotation(rng)
    r = rotation.matrix

    t_max = 5.0 / cfg.effective_decay_rate
    prop = solve_pair(cfg, field, rotation)
    prop_back = solve_pair(cfg, _field_along(r.T @ field.vector_mT()))
    # both means sample the window at one n
    prop, prop_back = prop[None], prop_back[None]  # each a batch of one
    assert np.array_equal(nyquist_samples(prop, t_max), nyquist_samples(prop_back, t_max))
    rotated = _expectation_means(prop, cfg.initial_state, ELECTRON_PAIR_SPIN, t_max)
    back = _expectation_means(prop_back, cfg.initial_state, ELECTRON_PAIR_SPIN, t_max) @ r.T
    assert np.linalg.norm(rotated - back) <= 1e-10 * np.linalg.norm(back)
