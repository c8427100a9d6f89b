"""Spin Hamiltonians of the radical pair and of its coupling to the sensor.

The NV centre's own Hamiltonian cancels out of every level offset; none is built.

All builders return dense Hermitian matrices in angular-frequency units
(rad/s).  Coupling tensors and field magnitudes are supplied in mT and
converted once via ``constants.MT_TO_RAD_PER_S``.

The radical-pair Hamiltonian is

    H_RP = -gamma_e B . (S1 + S2) - 2 J_ex S1 . S2 + S1 . D . S2
           + sum_i S1 . A_1i . I_1i + sum_j S2 . A_2j . I_2j

with every tensor optionally rotated into the sensor frame.

Every term acts on at most two spins, so each is assembled on its local
space (the 4-dimensional electron pair, or one electron and one nucleus)
and added in place with ``spincore.add_two_site`` into the exact blocks of H
(:func:`_assemble`).  The electron terms are summed into one 4x4 block first.
The same path serves every dimension; no d x d product is formed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import MT_TO_RAD_PER_S, dipolar_prefactor, dipolar_prefactor_mT
from .errors import PhysicsError
from .spincore import (
    Rotation,
    SpinSpecies,
    SpinSystemLayout,
    _two_site_slots,
    add_two_site,
    parity_sectors,
    rotate_tensor,
    spin_matrices,
)

#: secular point-dipole pattern: S1 . diag(-1,-1,2) . S2 = 3 S1z S2z - S1.S2
_SECULAR_PATTERN = np.diag([-1.0, -1.0, 2.0])


@dataclass(frozen=True)
class Nucleus:
    """One nuclear spin and its hyperfine tensor (mT, molecular frame), stored read-only.

    A tensor with |T - T^T| above 1e-12 * max(1, max|T|) anywhere is stored as (T + T^T) / 2.
    """

    species: SpinSpecies
    tensor_mT: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.tensor_mT, dtype=float)  # a copy: the caller's array stays writeable
        if t.shape != (3, 3):
            raise PhysicsError(
                f"hyperfine tensor for {self.species.label!r} must be 3x3, got {t.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise PhysicsError(f"hyperfine tensor for {self.species.label!r} is not finite")
        if np.max(np.abs(t - t.T)) > 1e-12 * max(1.0, np.max(np.abs(t))):
            t = 0.5 * (t + t.T)
        t.setflags(write=False)
        object.__setattr__(self, "tensor_mT", t)


class InitialElectronState(enum.Enum):
    SINGLET = "singlet"
    TRIPLET_ZERO = "triplet_zero"


class DecayConvention(enum.Enum):
    """Trace-decay reading of the uniform recombination Lindbladian.

    RATE_K: trace(rho(t)) = exp(-k t), i.e. lifetime tau = 1/k.  This is
    the projector-sum form of the recombination dissipator with equal
    singlet and triplet rates, and matches a 5 us lifetime quoted together
    with k = 2e5 1/s.  RATE_2K doubles the decay, the literal reading of
    the anticommutator shorthand -k {I, rho}.
    """

    RATE_K = "rate_k"
    RATE_2K = "rate_2k"


@dataclass(frozen=True)
class RadicalPairConfig:
    """Radical-pair couplings in the molecular frame.

    ``dipolar_tensor_mT`` and ``r_rp_nm`` are two entry paths for the
    inter-radical dipolar coupling: provide the full 3x3 tensor, or a
    distance from which the secular point-dipole form is generated.
    """

    nuclei_radical1: tuple[Nucleus, ...] = ()
    nuclei_radical2: tuple[Nucleus, ...] = ()
    j_exchange_mT: float = 0.0
    dipolar_tensor_mT: np.ndarray | None = None
    r_rp_nm: float | None = None
    recombination_rate: float = 2e5
    initial_state: InitialElectronState = InitialElectronState.SINGLET
    decay_convention: DecayConvention = DecayConvention.RATE_K

    def __post_init__(self) -> None:
        if not self.recombination_rate >= 0:  # NaN fails too
            raise PhysicsError(f"recombination rate must be >= 0, got {self.recombination_rate}")
        for side, nuclei in (("1", self.nuclei_radical1), ("2", self.nuclei_radical2)):
            if len(nuclei) > 3:
                raise PhysicsError(
                    f"radical {side} has {len(nuclei)} nuclei; desk-scale bound is 3"
                )
        if self.dipolar_tensor_mT is not None and self.r_rp_nm is not None:
            raise PhysicsError("give either dipolar_tensor_mT or r_rp_nm, not both")
        if self.dipolar_tensor_mT is not None:
            t = np.array(self.dipolar_tensor_mT, dtype=float)
            if t.shape != (3, 3) or not np.all(np.isfinite(t)):
                raise PhysicsError("dipolar tensor must be a finite 3x3 matrix")
            t.setflags(write=False)
            object.__setattr__(self, "dipolar_tensor_mT", t)
        if self.r_rp_nm is not None and not self.r_rp_nm > 0:
            raise PhysicsError(f"inter-radical distance must be positive, got {self.r_rp_nm}")
        object.__setattr__(self, "nuclei_radical1", tuple(self.nuclei_radical1))
        object.__setattr__(self, "nuclei_radical2", tuple(self.nuclei_radical2))

    @property
    def nuclei(self) -> tuple[Nucleus, ...]:
        return self.nuclei_radical1 + self.nuclei_radical2

    def layout(self) -> SpinSystemLayout:
        return SpinSystemLayout.for_radical_pair(
            tuple(n.species for n in self.nuclei_radical1),
            tuple(n.species for n in self.nuclei_radical2),
        )

    def dipolar_mT(self) -> np.ndarray:
        """Resolved dipolar tensor in mT (zeros when no coupling is set)."""
        if self.dipolar_tensor_mT is not None:
            return np.asarray(self.dipolar_tensor_mT)
        if self.r_rp_nm is not None:
            return dipolar_prefactor_mT(self.r_rp_nm) * _SECULAR_PATTERN
        return np.zeros((3, 3))

    @property
    def effective_decay_rate(self) -> float:
        k = self.recombination_rate
        return k if self.decay_convention is DecayConvention.RATE_K else 2.0 * k


@dataclass(frozen=True)
class FieldConfig:
    """Applied magnetic field: magnitude (mT) and direction (theta, phi)."""

    magnitude_mT: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not self.magnitude_mT >= 0:  # NaN fails too
            raise PhysicsError(f"field magnitude must be >= 0, got {self.magnitude_mT}")
        if not 0.0 <= self.theta <= math.pi:
            raise PhysicsError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise PhysicsError(f"phi must lie in [0, 2 pi), got {self.phi}")

    def vector_mT(self) -> np.ndarray:
        b, th, ph = self.magnitude_mT, self.theta, self.phi
        return np.array(
            [b * math.sin(th) * math.cos(ph), b * math.sin(th) * math.sin(ph), b * math.cos(th)]
        )


@dataclass(frozen=True)
class SensorParams:
    """NV sensing parameters: dephasing, sensing shell, density."""

    t2: float = 10e-6
    r1_nm: float = 5.0
    r2_nm: float = 20.0
    density_per_nm3: float = 5e-2

    def __post_init__(self) -> None:
        if not self.t2 > 0:  # NaN fails too
            raise PhysicsError(f"T2 must be positive, got {self.t2}")
        if not (self.r1_nm > 0 and self.r2_nm > self.r1_nm):
            raise PhysicsError(
                f"sensing shell needs r2 > r1 > 0, got r1={self.r1_nm}, r2={self.r2_nm}"
            )
        if not self.density_per_nm3 >= 0:
            raise PhysicsError("density must be >= 0")

    @property
    def gamma_hz(self) -> float:
        """Dephasing-limited linewidth Gamma = 1 / (pi T2)."""
        return 1.0 / (math.pi * self.t2)


@dataclass(frozen=True)
class CouplingGeometry:
    """Sensor-molecule geometry and the derived coupling coefficients.

    d_r is the signed point-dipole prefactor at distance r; the d_c
    coefficients depend on the applied-field direction (theta, phi):
    d_cx = (3/2) sin(2 theta) cos(phi), d_cy = (3/2) sin(2 theta) sin(phi),
    d_cz = 3 cos^2(theta) - 1.  g_eff is the trace norm
    2 |d_r| sqrt(d_cx^2 + d_cy^2 + d_cz^2).
    """

    r_nm: float
    d_r: float
    d_cx: float
    d_cy: float
    d_cz: float
    g_eff: float

    @property
    def d_c(self) -> np.ndarray:
        return np.array([self.d_cx, self.d_cy, self.d_cz])


def coupling_geometry(r_nm: float, theta: float, phi: float = 0.0) -> CouplingGeometry:
    """Geometry record for a molecule at distance r with field at (theta, phi)."""
    if not r_nm > 0:  # NaN fails too
        raise PhysicsError(f"sensor-molecule distance must be positive, got {r_nm} nm")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise PhysicsError(f"field angles must be finite, got theta = {theta}, phi = {phi}")
    d_r = dipolar_prefactor(r_nm)
    d_cx = 1.5 * math.sin(2 * theta) * math.cos(phi)
    d_cy = 1.5 * math.sin(2 * theta) * math.sin(phi)
    d_cz = 3 * math.cos(theta) ** 2 - 1
    g_eff = 2.0 * abs(d_r) * math.sqrt(d_cx**2 + d_cy**2 + d_cz**2)
    return CouplingGeometry(r_nm=r_nm, d_r=d_r, d_cx=d_cx, d_cy=d_cy, d_cz=d_cz, g_eff=g_eff)


def _bilinear_basis(partner_spin: float) -> np.ndarray:
    """(3, 3, 2m, 2m) stack of s_a x i_b: an electron and one partner spin."""
    s = spin_matrices(SpinSpecies.electron())
    i = spin_matrices(SpinSpecies("partner", partner_spin))
    basis = np.array([[np.kron(s_a, i_b) for i_b in i] for s_a in s])
    basis.setflags(write=False)
    return basis


#: two-site bilinear bases, keyed by the partner's spin quantum number
_BASIS = {spin: _bilinear_basis(spin) for spin in (0.5, 1.0)}

#: electron-pair operators on the 4-dimensional (S1, S2) space
_PAIR = _BASIS[0.5]
_S1S2 = np.trace(_PAIR)

#: S1i + S2i (i = x, y, z) on the 4-dimensional two-electron space, shape (3, 4, 4)
ELECTRON_PAIR_SPIN = np.stack(
    [np.kron(s, np.eye(2)) + np.kron(np.eye(2), s) for s in spin_matrices(SpinSpecies.electron())]
)
ELECTRON_PAIR_SPIN.setflags(write=False)


def _rp_terms(
    cfg: RadicalPairConfig, fields: Sequence[FieldConfig], rotation: Rotation | None
) -> list[tuple[np.ndarray, int, int]]:
    """The local terms of H_RP, rad/s: (operator, site_a, site_b) for ``add_two_site``.

    The electron-pair term is a stack (N, 4, 4), one per field; the hyperfine
    terms do not depend on the field and serve every matrix of the stack.
    """
    rot = rotation if rotation is not None else Rotation.identity()
    b_rad = np.array([f.vector_mT() for f in fields]).reshape(-1, 3) * MT_TO_RAD_PER_S
    pair = np.zeros((len(b_rad), 4, 4), dtype=complex)
    for i in range(3):
        if b_rad[:, i].any():
            pair -= b_rad[:, i, None, None] * ELECTRON_PAIR_SPIN[i]

    j_rad = cfg.j_exchange_mT * MT_TO_RAD_PER_S
    if j_rad:
        pair -= 2.0 * j_rad * _S1S2

    dip = rotate_tensor(rot, cfg.dipolar_mT()) * MT_TO_RAD_PER_S
    if np.any(dip):
        pair += np.einsum("ab,abij->ij", dip, _PAIR)

    terms = [(pair, 0, 1)]
    n1 = len(cfg.nuclei_radical1)
    for idx, nuc in enumerate(cfg.nuclei):
        a_rad = rotate_tensor(rot, nuc.tensor_mT) * MT_TO_RAD_PER_S
        if np.any(a_rad):
            local = np.einsum("ab,abij->ij", a_rad, _BASIS[nuc.species.spin])
            terms.append((local, 0 if idx < n1 else 1, 2 + idx))
    return terms


def _assemble(terms: list, layout: SpinSystemLayout, split: bool = False) -> list:
    """The sum of the local terms (operator, site_a, site_b), as its exact blocks (rows, stack).

    One block of all d rows, or with ``split`` the two parity sectors where no term joins
    local states of unequal parity (no field off z, no tensor entry coupling z to x or y),
    each term added straight into them, so that a block is the whole H on its rows bit for
    bit.  Local stacks (..., 4, 4) give stacks (..., d_b, d_b), float64 exactly when no
    local term has a nonzero imaginary entry, complex128 otherwise.
    """
    real = not any(np.count_nonzero(local.imag) for local, _, _ in terms)
    # split where no entry of a term leaves the even sector (then none leaves the odd one)
    leaves = (_two_site_slots(layout, a, b, 0)[2] for _, a, b in terms)
    split = split and not any(local[..., m].any() for (local, _, _), m in zip(terms, leaves))
    lead = np.broadcast_shapes(*(local.shape[:-2] for local, _, _ in terms))
    d = layout.total_dimension
    parts = enumerate(parity_sectors(layout)) if split else [(None, np.arange(d))]
    blocks = []
    for sector, rows in parts:
        h = np.zeros(lead + (rows.size,) * 2, dtype=float if real else complex)
        for local, site_a, site_b in terms:
            add_two_site(h, local.real if real else local, site_a, site_b, layout, sector)
        blocks.append((rows, h))
    return blocks


def build_rp_hamiltonian(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig | Sequence[FieldConfig],
    rotation: Rotation | None = None,
) -> np.ndarray:
    """Radical-pair Hamiltonian in the sensor frame, rad/s: :func:`_assemble`'s one block.

    The field stays in the sensor frame; all molecular-frame coupling
    tensors (hyperfine and dipolar) are rotated by ``rotation``.  The matrix
    is float64 when no local term has an imaginary part (every shipped system
    at phi = 0 in its molecular frame), complex128 otherwise.
    A sequence of N fields gives the stack (N, d, d) of their Hamiltonians, in
    one dtype: complex128 if any of them has an imaginary part.
    """
    one = isinstance(field_cfg, FieldConfig)
    terms = _rp_terms(cfg, [field_cfg] if one else field_cfg, rotation)
    ((_, h),) = _assemble(terms, cfg.layout())
    return h[0] if one else h


def mirror_symmetric(cfg: RadicalPairConfig, phi: float) -> bool:
    """Whether the pi rotation of every spin about x maps H_RP(theta) to H_RP(pi - theta).

    (Sx, Sy, Sz) -> (Sx, -Sy, -Sz) leaves rho0 alone.  It maps the field exactly when phi == 0
    (not pi: sin(pi) != 0 in floats), and a tensor when its xy, yx, xz and zx entries are 0.
    """
    tensors = [nuc.tensor_mT for nuc in cfg.nuclei] + [cfg.dipolar_mT()]
    return phi == 0.0 and not any(np.any(t[[0, 1, 0, 2], [1, 0, 2, 0]]) for t in tensors)


def build_coupling_hamiltonian(
    geom: CouplingGeometry, layout: SpinSystemLayout
) -> np.ndarray:
    """Sensor-conditioned coupling operator D_r sum_i d_ci (S1i + S2i).

    This is the radical-pair factor multiplying Jz; the x and y cross
    terms are kept in full (they are never negligible at low field).  Only
    S_y is imaginary, so the operator is float64 where d_cy = 0 (phi = 0),
    complex128 otherwise (:func:`_assemble`).
    """
    pair = np.zeros((4, 4), dtype=complex)
    for i, d_ci in enumerate(geom.d_c):
        if d_ci:
            pair += geom.d_r * d_ci * ELECTRON_PAIR_SPIN[i]
    return _assemble([(pair, 0, 1)], layout)[0][1]


class Regime(enum.Enum):
    WEAK = "weak"
    STRONG = "strong"


def classify_regime(g_eff: float, sensor: SensorParams) -> Regime:
    """Weak iff g_eff / 2pi <= Gamma = 1/(pi T2): g_eff is in rad/s, Gamma in Hz."""
    return Regime.WEAK if g_eff / (2 * math.pi) <= sensor.gamma_hz else Regime.STRONG
