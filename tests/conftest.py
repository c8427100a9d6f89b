"""Shared fixtures: small reference systems used across the suite."""

import dataclasses
import math

import numpy as np
import pytest

from nvrp.dynamics import electron_singlet_projector
from nvrp.hamiltonian import (
    FieldConfig,
    InitialElectronState,
    Nucleus,
    RadicalPairConfig,
    SensorParams,
)
from nvrp.presets import fadtrp_config, one_nucleus_config
from nvrp.spincore import SpinSpecies, SpinSystemLayout, isotropic_tensor


@pytest.fixture
def bare_pair() -> RadicalPairConfig:
    """Two electrons, no nuclei (dim 4)."""
    return RadicalPairConfig(recombination_rate=2e5)


@pytest.fixture
def one_proton_pair() -> RadicalPairConfig:
    """One spin-1/2 nucleus with isotropic coupling on radical 1 (dim 8)."""
    return RadicalPairConfig(
        nuclei_radical1=(Nucleus(SpinSpecies("H", 0.5), isotropic_tensor(0.5)),),
        recombination_rate=2e5,
    )


@pytest.fixture
def axial3_pair() -> RadicalPairConfig:
    """The one-nucleus axial3 model (dim 12)."""
    return one_nucleus_config("axial3")


@pytest.fixture
def fadtrp2() -> RadicalPairConfig:
    """Flavin-tryptophan pair, two nuclei per radical (dim 216)."""
    return fadtrp_config(2)


@pytest.fixture
def earth_field() -> FieldConfig:
    return FieldConfig(0.05, 0.0, 0.0)


@pytest.fixture
def sensor() -> SensorParams:
    return SensorParams()


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n fields from lo to hi, evenly spaced in log10, as a params ``b_grid`` makes them."""
    return np.logspace(math.log10(lo), math.log10(hi), n)


def make_pair(
    tensors1=(), tensors2=(), spins1=(), spins2=(), j_mT=0.0, r_rp_nm=None, k=2e5,
    initial=InitialElectronState.SINGLET,
) -> RadicalPairConfig:
    """Helper for ad-hoc pair configurations in tests."""
    n1 = tuple(
        Nucleus(SpinSpecies(f"n1_{i}", s), np.asarray(t, dtype=float))
        for i, (t, s) in enumerate(zip(tensors1, spins1))
    )
    n2 = tuple(
        Nucleus(SpinSpecies(f"n2_{i}", s), np.asarray(t, dtype=float))
        for i, (t, s) in enumerate(zip(tensors2, spins2))
    )
    return RadicalPairConfig(
        nuclei_radical1=n1,
        nuclei_radical2=n2,
        j_exchange_mT=j_mT,
        r_rp_nm=r_rp_nm,
        recombination_rate=k,
        initial_state=initial,
    )


def singlet_projector(layout: SpinSystemLayout) -> np.ndarray:
    """P_S = |S0><S0| tensor I_nuc on the full space."""
    return np.kron(electron_singlet_projector(), np.eye(layout.nuclear_dimension, dtype=complex))


def dense_series(prop, rho0: np.ndarray, ops, t_grid: np.ndarray) -> np.ndarray:
    """Re Tr(O rho(t)) from ``Propagator.evolve`` at each sample, shape (len(ops), len(t_grid))."""
    rho_t = np.array([prop.evolve(rho0, t).T for t in t_grid])  # Tr(O rho) = sum O o rho^T
    return np.real(np.reshape(ops, (len(ops), -1)) @ rho_t.reshape(len(t_grid), -1).T)


#: nuclear spins of radicals 1 and 2; every layout has a spin-1 nucleus, d = 12 to 36
SPIN1_LAYOUTS = [((1.0,), ()), ((1.0,), (0.5,)), ((1.0, 0.5), ()), ((1.0,), (1.0,))]


def random_pair(rng, spins, initial=InitialElectronState.SINGLET) -> RadicalPairConfig:
    """Random symmetric hyperfine tensors, exchange and full dipolar tensor for a layout."""

    def symmetric():
        a = rng.normal(size=(3, 3))
        return a + a.T

    spins1, spins2 = spins
    cfg = make_pair(
        tensors1=[symmetric() for _ in spins1], tensors2=[symmetric() for _ in spins2],
        spins1=spins1, spins2=spins2, j_mT=rng.uniform(-0.5, 0.5), initial=initial,
    )
    return dataclasses.replace(cfg, dipolar_tensor_mT=rng.normal(size=(3, 3)))


def skew_null_pair(eigh, eps=1e-3, null=None):
    """Wrap an eigensolver so that it returns a non-orthogonal V.

    The two eigenvectors of smallest |eigenvalue| are mixed, V' = V (I + E)
    with E_ij = E_ji = eps: V'^dag V' - I = 2E + E^2, while
    V' diag(w) V'^dag - H gains only terms of order eps * (w_i, w_j).  On a
    spectrum with two zero eigenvalues the residual cannot see the change.
    With ``null`` given, only a matrix whose two smallest |eigenvalues| are at
    most ``null`` is skewed: of the per-block calls of a split H, that is the
    block that holds the null pair of the assembled spectrum.
    """

    def corrupted(h):
        w, v = eigh(h)
        i, j = np.argsort(np.abs(w))[:2]
        if null is not None and max(abs(w[i]), abs(w[j])) > null:
            return w, v
        v = v.copy()
        vi = v[:, i].copy()
        v[:, i] += eps * v[:, j]
        v[:, j] += eps * vi
        return w, v

    return corrupted
