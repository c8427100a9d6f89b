"""Independent reference for the radical-pair signals that nvrp computes.

Only numpy is used; nothing here imports nvrp.  The Hamiltonian is built
term by term from the formula in the nvrp README,

    H = -gamma_e B.(S1 + S2) - 2 J S1.S2 + S1.D.S2
        + sum_i S1.A_1i.I_1i + sum_j S2.A_2j.I_2j          (rad/s),

with spin matrices made from the ladder operators and every operator
embedded by its own Kronecker chain.  The state starts as
|S0><S0| x I / d_nuc and decays as exp(-k t) under uniform recombination.

The integrated signal X_i^I is the mean of X_i(t_j) over the documented
sample grid: t_max = 5 / k_eff, t_j = j t_max / n for j < n, with n the
smallest power of two >= max(4096, ceil(1.05 t_max spread / pi) + 1),
where spread is the largest eigenvalue gap.  Up to d = 216 the samples
are summed one by one; at d = 864 the mean is the geometric series of
each eigenvalue pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: CODATA 2018 values, typed in here so that the reference shares no code
MU0 = 1.25663706212e-6
HBAR = 1.054571817e-34
GAMMA_E = 1.760859630e11
RAD_PER_MT = GAMMA_E * 1e-3

#: largest dimension whose sample mean is summed sample by sample
EXPLICIT_MAX_DIM = 216

_TIME_CHUNK = 512


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for spin s, basis ordered m = s, s-1, ..., -s."""
    m = np.arange(s, -s - 1.0, -1.0)
    plus = np.diag(np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0)), k=1).astype(complex)
    minus = plus.conj().T
    return 0.5 * (plus + minus), -0.5j * (plus - minus), np.diag(m).astype(complex)


def point_dipole_rad(r_nm: float) -> float:
    """Signed point-dipole prefactor -mu0 gamma_e^2 hbar / (4 pi r^3), rad/s."""
    r = r_nm * 1e-9
    return -MU0 * GAMMA_E**2 * HBAR / (4.0 * math.pi * r**3)


def single_molecule_scale(r_nm: float) -> float:
    """Tesla per unit of d_ci <S1i + S2i> for one molecule at distance r."""
    return abs(point_dipole_rad(r_nm)) / GAMMA_E


def angular_factors(theta: float, phi: float = 0.0) -> np.ndarray:
    """(d_cx, d_cy, d_cz) of the sensor coupling for a field at (theta, phi)."""
    return np.array(
        [
            1.5 * math.sin(2 * theta) * math.cos(phi),
            1.5 * math.sin(2 * theta) * math.sin(phi),
            3.0 * math.cos(theta) ** 2 - 1.0,
        ]
    )


def field_vector(b_mT: float, theta: float, phi: float = 0.0) -> np.ndarray:
    return b_mT * np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


@dataclass(frozen=True)
class PairSpec:
    """Plain description of a radical pair: spins and tensors in mT."""

    nuclei1: tuple[tuple[float, np.ndarray], ...]
    nuclei2: tuple[tuple[float, np.ndarray], ...]
    j_mT: float
    dipolar_mT: np.ndarray
    k_eff: float

    @property
    def dims(self) -> tuple[int, ...]:
        return (2, 2) + tuple(int(round(2 * s + 1)) for s, _ in self.nuclei1 + self.nuclei2)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


def spec_from_config(rp) -> PairSpec:
    """Read a radical-pair configuration object into a PairSpec.

    Only attributes are read.  The dipolar tensor given as a distance is
    made here from the secular point-dipole form D diag(-1, -1, 2).
    """
    if rp.dipolar_tensor_mT is not None:
        dip = np.array(rp.dipolar_tensor_mT, dtype=float)
    elif rp.r_rp_nm is not None:
        dip = point_dipole_rad(rp.r_rp_nm) / RAD_PER_MT * np.diag([-1.0, -1.0, 2.0])
    else:
        dip = np.zeros((3, 3))
    factor = {"rate_k": 1.0, "rate_2k": 2.0}[rp.decay_convention.value]
    if rp.initial_state.value != "singlet":
        raise ValueError("the reference covers the singlet start only")
    return PairSpec(
        nuclei1=tuple((n.species.spin, np.array(n.tensor_mT, float)) for n in rp.nuclei_radical1),
        nuclei2=tuple((n.species.spin, np.array(n.tensor_mT, float)) for n in rp.nuclei_radical2),
        j_mT=float(rp.j_exchange_mT),
        dipolar_mT=dip,
        k_eff=factor * float(rp.recombination_rate),
    )


def _embed(dims: tuple[int, ...], local: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over all sites, `local[site]` or the identity."""
    out = np.ones((1, 1), dtype=complex)
    for site, d in enumerate(dims):
        out = np.kron(out, local.get(site, np.eye(d, dtype=complex)))
    return out


def _bilinear(dims, site_a, ops_a, site_b, ops_b, tensor) -> np.ndarray:
    """sum_ab T_ab A_a B_b as three Kronecker chains."""
    h = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for a in range(3):
        combo = sum(tensor[a, b] * ops_b[b] for b in range(3))
        h += _embed(dims, {site_a: ops_a[a], site_b: combo})
    return h


def hamiltonian(spec: PairSpec, b_vec_mT: np.ndarray, rotation: np.ndarray | None = None):
    """H in rad/s; every coupling tensor T becomes R T R^T, the field does not."""
    rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    dims = spec.dims
    half = spin_matrices(0.5)
    h = np.zeros((spec.dim,) * 2, dtype=complex)
    b = np.asarray(b_vec_mT, dtype=float) * RAD_PER_MT
    for site in (0, 1):
        h -= _embed(dims, {site: sum(b[i] * half[i] for i in range(3))})
    exchange = -2.0 * spec.j_mT * np.eye(3)
    dipolar = rot @ spec.dipolar_mT @ rot.T
    h += RAD_PER_MT * _bilinear(dims, 0, half, 1, half, exchange + dipolar)
    nuclei = [(0, n) for n in spec.nuclei1] + [(1, n) for n in spec.nuclei2]
    for idx, (electron, (spin, tensor)) in enumerate(nuclei):
        a = rot @ tensor @ rot.T
        h += RAD_PER_MT * _bilinear(dims, electron, half, 2 + idx, spin_matrices(spin), a)
    return h


def singlet_density(spec: PairSpec) -> np.ndarray:
    """|S0><S0| x I / d_nuc with |S0> = (|ud> - |du>) / sqrt 2."""
    s0 = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    d_nuc = spec.dim // 4
    return np.kron(np.outer(s0, s0.conj()), np.eye(d_nuc, dtype=complex) / d_nuc)


def pair_spin_operators(spec: PairSpec) -> list[np.ndarray]:
    half = spin_matrices(0.5)
    return [_embed(spec.dims, {0: half[i]}) + _embed(spec.dims, {1: half[i]}) for i in range(3)]


def singlet_projector(spec: PairSpec) -> np.ndarray:
    return singlet_density(spec) * (spec.dim // 4)


def sample_count(spread: float, t_max: float, minimum: int = 4096) -> int:
    need = max(minimum, math.ceil(1.05 * t_max * spread / math.pi) + 1)
    return 1 << (need - 1).bit_length()


class Reference:
    """Eigen-decomposition of one (spec, field, rotation) point."""

    def __init__(self, spec: PairSpec, b_vec_mT, rotation=None):
        self.spec = spec
        self.w, self.v = np.linalg.eigh(hamiltonian(spec, b_vec_mT, rotation))
        self.rho = self._eig(singlet_density(spec))
        self.t_max = 5.0 / spec.k_eff
        self.n = sample_count(float(self.w[-1] - self.w[0]), self.t_max)

    def _eig(self, op: np.ndarray) -> np.ndarray:
        return self.v.conj().T @ op @ self.v

    def _weights(self, ops: list[np.ndarray]) -> list[np.ndarray]:
        """M_nm = rho~_nm O~_mn, so that <O>(t) = sum_nm M_nm e^{-i(l_n - l_m) t}."""
        return [self.rho * self._eig(op).T for op in ops]

    def _series(self, mats: list[np.ndarray], times: np.ndarray) -> np.ndarray:
        out = np.empty((len(mats), times.shape[0]))
        stacked = np.concatenate([m.T for m in mats], axis=1)  # (d, len(mats) d)
        d = self.w.shape[0]
        for lo in range(0, times.shape[0], _TIME_CHUNK):
            t = times[lo : lo + _TIME_CHUNK]
            phase = np.exp(-1j * np.outer(t, self.w))
            q = phase.conj() @ stacked
            for i in range(len(mats)):
                vals = np.sum(phase * q[:, i * d : (i + 1) * d], axis=1)
                out[i, lo : lo + _TIME_CHUNK] = np.real(vals) * np.exp(-self.spec.k_eff * t)
        return out

    def series(self, times) -> np.ndarray:
        """<S1i + S2i>(t), shape (3, len(times))."""
        ops = pair_spin_operators(self.spec)
        return self._series(self._weights(ops), np.asarray(times, dtype=float))

    def _mean(self, mats: list[np.ndarray], explicit: bool) -> np.ndarray:
        dt = self.t_max / self.n
        if explicit:
            return np.sum(self._series(mats, np.arange(self.n) * dt), axis=1) / self.n
        x = (-self.spec.k_eff - 1j * (self.w[:, None] - self.w[None, :])) * dt
        geometric = np.expm1(self.n * x) / (self.n * np.expm1(x))
        return np.array([np.real(np.sum(m * geometric)) for m in mats])

    def mean_pair_spin(self, explicit: bool | None = None) -> np.ndarray:
        """Sample mean of <S1i + S2i> over the documented grid, shape (3,)."""
        if explicit is None:
            explicit = self.spec.dim <= EXPLICIT_MAX_DIM
        return self._mean(self._weights(pair_spin_operators(self.spec)), explicit)

    def singlet_yield(self, explicit: bool | None = None) -> float:
        """k_eff dt sum_j Tr[P_S rho(t_j)] on the documented grid."""
        if explicit is None:
            explicit = self.spec.dim <= EXPLICIT_MAX_DIM
        mean = self._mean(self._weights([singlet_projector(self.spec)]), explicit)[0]
        return float(self.spec.k_eff * self.t_max * mean)

