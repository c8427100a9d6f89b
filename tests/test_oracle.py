"""RK4 reference integrator: exactness limits and convergence order."""

import numpy as np
import pytest

from nvrp.dynamics import initial_state, make_propagator
from nvrp.hamiltonian import (
    ELECTRON_PAIR_SPIN,
    FieldConfig,
    InitialElectronState,
    build_rp_hamiltonian,
)
from nvrp.oracle import rk4_evolve
from nvrp.spincore import SpinSystemLayout, site_operators

from conftest import make_pair

S = InitialElectronState.SINGLET


def test_zero_generator_exact():
    layout = SpinSystemLayout.for_radical_pair()
    rho0 = initial_state(S, layout)
    # Re Tr(E_ab rho) = Re rho_ba and Re Tr(i E_ab rho) = -Im rho_ba: every entry of rho
    units = np.eye(16).reshape(16, 4, 4)
    res = rk4_evolve(rho0, np.zeros((4, 4)), 0.0, 1e-7, 1e-5, observables=[*units, *(1j * units)])
    re, im = res.observables[:, -1].reshape(2, 4, 4)
    assert np.array_equal(re.T, rho0) and not im.any()


def test_pure_decay():
    layout = SpinSystemLayout.for_radical_pair()
    rho0 = initial_state(S, layout)
    k = 2e5
    res = rk4_evolve(rho0, np.zeros((4, 4)), k, 1.0 / (100 * k), 5.0 / k, observables=[np.eye(4)])
    assert res.observables[0, -1] == pytest.approx(np.exp(-5.0), abs=1e-10)


def test_dimension_bound():
    with pytest.raises(ValueError, match="dim <= 64"):
        rk4_evolve(np.eye(128) / 128, np.zeros((128, 128)), 0.0, 1e-9, 1e-8, observables=[])


def test_stability_bound_suggests_dt():
    h = np.diag([0.0, 1e9])
    with pytest.raises(ValueError, match="use dt <"):
        rk4_evolve(np.eye(2) / 2, h, 0.0, 1e-9, 1e-7, observables=[])


def _max_observable_error(cfg, dt, t_max=1e-6):
    layout = cfg.layout()
    h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 0.0, 0.0))
    k = cfg.recombination_rate
    rho0 = initial_state(S, layout)
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    ops = [s1[i] + s2[i] for i in range(3)]

    n = int(round(t_max / dt))
    dt = t_max / n
    res = rk4_evolve(rho0, h, k, dt, t_max, observables=ops, record_every=max(n // 64, 1))
    prop = make_propagator(h, k)
    from nvrp.dynamics import _expectation_series

    exact = _expectation_series(prop, S, ELECTRON_PAIR_SPIN, res.t_grid)
    return float(np.max(np.abs(exact - res.observables)))


def test_convergence_order_about_four(axial3_pair):
    # needs a system with genuinely nonzero observables; zero exchange and
    # dipolar coupling would leave every expectation at the roundoff floor
    cfg = axial3_pair
    h = build_rp_hamiltonian(cfg, FieldConfig(0.05, 0.0, 0.0))
    lam = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    dt0 = 0.08 / lam
    errs = [_max_observable_error(cfg, dt0 / 2**i) for i in range(3)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.7 <= order <= 4.3, f"observed order {orders}"


def test_agrees_with_propagator_on_dim12(axial3_pair):
    err = _max_observable_error(axial3_pair, dt=1e-10, t_max=1.5e-6)
    assert err < 1e-6


def test_agrees_on_two_nucleus_system():
    cfg = make_pair(
        tensors1=[np.diag([-0.39, -0.39, 1.76])],
        tensors2=[np.diag([-0.39, -0.39, 1.76])],
        spins1=[1.0],
        spins2=[1.0],
        j_mT=0.25,
    )
    err = _max_observable_error(cfg, dt=1e-10, t_max=1e-6)
    assert err < 1e-6
