"""Ensemble sampling and the orientation-averaged statistics."""

import numpy as np

from nvrp.ensemble import (
    EnsembleSpec,
    OrientationMode,
    ensemble_sweep,
    random_rotation,
    realization_rngs,
    sample_realization,
)
from nvrp.hamiltonian import FieldConfig
from nvrp.presets import one_nucleus_config
from nvrp.signal import integrated_observables, single_molecule_prefactor


def _spec(**kw):
    base = dict(
        n_realizations=4,
        orientation_mode=OrientationMode.RANDOM_EULER,
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
    for geom in sample_realization(spec, rng):
        assert geom.rotation.is_identity
        assert 5.0 <= geom.r_nm <= 20.0


def test_same_seed_bitwise_identical():
    spec = _spec()
    a = [sample_realization(spec, rng) for rng in realization_rngs(spec)]
    b = [sample_realization(spec, rng) for rng in realization_rngs(spec)]
    for mols_a, mols_b in zip(a, b):
        for ga, gb in zip(mols_a, mols_b):
            assert ga.r_nm == gb.r_nm
            assert np.array_equal(ga.rotation.matrix, gb.rotation.matrix)


def test_so3_uniformity_mean():
    rng = np.random.default_rng(5)
    n = 10_000
    total = np.zeros((3, 3))
    for _ in range(n):
        total += random_rotation(rng).matrix
    mean = total / n
    # per-entry variance is 1/3 for Haar; 3-sigma bound on the mean
    assert np.max(np.abs(mean)) < 3.0 * np.sqrt(1.0 / 3.0 / n)


def test_uniform_angle_mode_runs():
    rng = np.random.default_rng(7)
    r = random_rotation(rng, uniform_angles=True)
    assert abs(np.linalg.det(r.matrix) - 1.0) < 1e-12


def test_poisson_count_clamped():
    spec = EnsembleSpec(
        n_realizations=1, r_range_nm=(5.0, 20.0), seed=1,
        density_per_nm3=5e-2, max_molecules=100,
    )
    rng = realization_rngs(spec)[0]
    mols = sample_realization(spec, rng)
    # shell holds ~825 molecules at this density; the clamp caps at 100
    assert len(mols) == 100


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
    cfg = one_nucleus_config("axial3")
    spec = _spec(n_realizations=1, n_molecules=3)
    rng = realization_rngs(spec)[0]
    molecules = sample_realization(spec, rng)
    total = np.zeros(3)
    for g in molecules:
        raw = integrated_observables(cfg, FieldConfig(1.2, 0.0, 0.0), g.rotation)
        total += single_molecule_prefactor(g.r_nm) * raw
    stats = ensemble_sweep(cfg, spec, b_grid_mT=[1.2])
    assert np.allclose(stats.mean[:, 0], total, rtol=1e-10)


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
        for geom in sample_realization(spec, rng):
            expected += single_molecule_prefactor(geom.r_nm) * raw
    expected /= spec.n_realizations
    assert np.allclose(stats.mean[:, 0], expected, rtol=1e-10)
