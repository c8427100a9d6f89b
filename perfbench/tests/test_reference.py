"""The independent reference against nvrp's RK4 oracle and exact nulls."""

import math

import numpy as np
import pytest
from nvrp.hamiltonian import FieldConfig, build_rp_hamiltonian
from nvrp.oracle import rk4_evolve
from nvrp.presets import one_nucleus_config, two_nucleus_config
from nvrp.spincore import Rotation

import reference as ref
from checks import haar_rotation


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_spin_matrices_obey_the_algebra(s):
    sx, sy, sz = ref.spin_matrices(s)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    assert np.allclose(sx @ sx + sy @ sy + sz @ sz, s * (s + 1) * np.eye(sz.shape[0]), atol=1e-14)


def test_hamiltonian_agrees_with_the_program_under_rotation():
    rp = one_nucleus_config("rhombic", r_rp_nm=2.5)
    rot = Rotation(haar_rotation(np.random.default_rng(3)))
    field = FieldConfig(0.7, 1.1, 0.4)
    want = build_rp_hamiltonian(rp, field, rot)
    got = ref.hamiltonian(ref.spec_from_config(rp), ref.field_vector(0.7, 1.1, 0.4), rot.matrix)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _oracle_inputs(spec, b_vec):
    h = ref.hamiltonian(spec, b_vec)
    rho0 = ref.singlet_density(spec)
    ops = ref.pair_spin_operators(spec)
    lam = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return h, rho0, ops, lam


def test_series_matches_rk4_oracle_at_d12():
    spec = ref.spec_from_config(one_nucleus_config("axial3"))
    b_vec = ref.field_vector(0.05, 0.7)
    h, rho0, ops, lam = _oracle_inputs(spec, b_vec)
    t_max = 2e-6
    n_steps = int(round(t_max * lam / 0.01))
    res = rk4_evolve(rho0, h, spec.k_eff, t_max / n_steps, t_max, observables=ops, record_every=100)
    series = ref.Reference(spec, b_vec).series(res.t_grid)
    assert np.max(np.abs(series - res.observables)) < 1e-7


def test_sample_mean_matches_rk4_oracle_on_the_documented_grid():
    spec = ref.spec_from_config(one_nucleus_config("axial3"))
    b_vec = ref.field_vector(0.05, 0.7)
    h, rho0, ops, lam = _oracle_inputs(spec, b_vec)
    r = ref.Reference(spec, b_vec)
    grid_dt = r.t_max / r.n
    sub = math.ceil(grid_dt * lam / 0.03)
    res = rk4_evolve(
        rho0, h, spec.k_eff, grid_dt / sub, r.t_max - grid_dt, observables=ops, record_every=sub
    )
    assert res.observables.shape[1] == r.n
    rk4_mean = res.observables.mean(axis=1)
    assert np.max(np.abs(r.mean_pair_spin() - rk4_mean)) < 1e-9


def test_nucleus_free_pair_gives_exactly_zero_signal():
    dipolar = ref.point_dipole_rad(2.0) / ref.RAD_PER_MT * np.diag([-1.0, -1.0, 2.0])
    spec = ref.PairSpec(nuclei1=(), nuclei2=(), j_mT=0.25, dipolar_mT=dipolar, k_eff=2e5)
    assert spec.dim == 4
    r = ref.Reference(spec, ref.field_vector(1.3, 0.8, 0.3))
    assert np.max(np.abs(r.mean_pair_spin())) < 1e-15
    assert np.max(np.abs(r.series(np.linspace(0.0, 1e-5, 17)))) < 1e-15


@pytest.mark.parametrize("rp", [one_nucleus_config("rhombic"), two_nucleus_config("axial3")])
def test_geometric_series_matches_explicit_sum(rp):
    spec = ref.spec_from_config(rp)
    r = ref.Reference(spec, ref.field_vector(0.4, 1.0))
    explicit, geometric = r.mean_pair_spin(explicit=True), r.mean_pair_spin(explicit=False)
    assert np.max(np.abs(explicit - geometric)) < 1e-13 * np.max(np.abs(explicit))
    assert abs(r.singlet_yield(True) - r.singlet_yield(False)) < 1e-13


def test_sample_count_follows_the_documented_rule():
    assert ref.sample_count(0.0, 25e-6) == 4096
    spread = 3e9
    n = ref.sample_count(spread, 25e-6)
    need = math.ceil(1.05 * 25e-6 * spread / math.pi) + 1
    assert n >= need and n // 2 < need and n & (n - 1) == 0
