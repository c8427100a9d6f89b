"""Spin-operator algebra for multi-spin radical-pair systems.

Single-spin angular momentum matrices (spin 1/2 and spin 1), Kronecker
embedding into a product Hilbert space, in-place addition of two-site
operators, and rotation of 3x3 coupling tensors between molecular and
sensor frames.

Conventions
-----------
* hbar = 1; spin matrices are dimensionless.
* A layout always starts with the two unpaired electrons, followed by the
  nuclei of radical 1 and then the nuclei of radical 2.  This keeps the
  singlet/triplet projectors block operators on the leading 4-dimensional
  electron factor.
* Dense complex matrices; the largest system built at desk scale is
  864-dimensional, where dense Hermitian solvers win.  A Hamiltonian
  assembled from them can still have an exactly zero imaginary part, and
  ``dynamics.make_propagator`` then diagonalises it in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

_SUPPORTED_SPINS = (0.5, 1.0)

_SQRT2 = np.sqrt(2.0)

_SPIN_HALF = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)

_SPIN_ONE = (
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2,
    np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2,
    np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class SpinSpecies:
    """A spin-carrying particle: an electron or a nucleus.

    ``spin`` is the spin quantum number, restricted to 1/2 (electrons,
    protons) and 1 (e.g. nitrogen-14).
    """

    label: str
    spin: float

    def __post_init__(self) -> None:
        if self.spin not in _SUPPORTED_SPINS:
            raise ValueError(
                f"unsupported spin quantum number {self.spin!r} for species "
                f"{self.label!r}: only 1/2 and 1 are supported"
            )

    @property
    def dimension(self) -> int:
        return int(round(2 * self.spin + 1))

    @classmethod
    def electron(cls, label: str = "e") -> "SpinSpecies":
        return cls(label, 0.5)


@dataclass(frozen=True)
class SpinSystemLayout:
    """Ordered spin species defining the tensor-product structure.

    The first two entries must be the unpaired electrons.
    """

    species: tuple[SpinSpecies, ...]

    def __post_init__(self) -> None:
        if len(self.species) < 2:
            raise ValueError("a radical-pair layout needs at least two electrons")
        for s in self.species[:2]:
            if s.spin != 0.5:
                raise ValueError(
                    f"the first two layout entries must be spin-1/2 electrons, got {s}"
                )

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.species)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dimensions)

    @property
    def nuclear_dimension(self) -> int:
        return self.total_dimension // 4

    @classmethod
    @lru_cache(maxsize=64)
    def for_radical_pair(
        cls,
        nuclei_radical1: tuple[SpinSpecies, ...] = (),
        nuclei_radical2: tuple[SpinSpecies, ...] = (),
    ) -> "SpinSystemLayout":
        """The layout of two electrons and the given nuclei; one cached instance per species."""
        electrons = (SpinSpecies.electron("e1"), SpinSpecies.electron("e2"))
        return cls(electrons + tuple(nuclei_radical1) + tuple(nuclei_radical2))


def spin_matrices(species: SpinSpecies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for a species, satisfying [Sx, Sy] = i Sz."""
    if species.spin == 0.5:
        return _SPIN_HALF
    return _SPIN_ONE


def embed(local: np.ndarray, site: int, layout: SpinSystemLayout) -> np.ndarray:
    """Embed a single-site operator: I x ... x local x ... x I.

    Raises ``ValueError`` when the site index or the local dimension does
    not match the layout.
    """
    dims = layout.dimensions
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range for a {len(dims)}-site layout")
    local = np.asarray(local, dtype=complex)
    if local.shape != (dims[site], dims[site]):
        raise ValueError(
            f"operator of shape {local.shape} does not fit site {site} "
            f"with dimension {dims[site]}"
        )
    factors = [
        local if i == site else np.eye(d, dtype=complex) for i, d in enumerate(dims)
    ]
    return reduce(np.kron, factors)


def add_two_site(
    h: np.ndarray, local: np.ndarray, site_a: int, site_b: int, layout: SpinSystemLayout
) -> None:
    """Add a two-site operator into ``h`` in place: h += local x I(elsewhere).

    ``local`` acts on the product space of ``site_a`` (major factor) and
    ``site_b`` (minor factor), with ``site_a < site_b``.  The sum runs
    through a writeable diagonal view of ``h``, so only the d * d_a * d_b
    entries the operator can reach are touched.
    """
    dims = layout.dimensions
    if not 0 <= site_a < site_b < len(dims):
        raise ValueError(
            f"sites ({site_a}, {site_b}) must satisfy 0 <= a < b < {len(dims)}"
        )
    da, db = dims[site_a], dims[site_b]
    if local.shape != (da * db, da * db):
        raise ValueError(
            f"operator of shape {local.shape} does not fit sites ({site_a}, {site_b}) "
            f"with dimensions ({da}, {db})"
        )
    if h.shape != (math.prod(dims),) * 2 or not h.flags.c_contiguous:
        raise ValueError("h must be a C-contiguous d x d array for the layout")
    pre = math.prod(dims[:site_a])
    mid = math.prod(dims[site_a + 1 : site_b])
    post = math.prod(dims[site_b + 1 :])
    blocks = np.einsum(
        "pambqpAmBq->pmqabAB", h.reshape(pre, da, mid, db, post, pre, da, mid, db, post)
    )
    blocks += local.reshape(da, db, da, db)


@lru_cache(maxsize=64)
def site_operators(layout: SpinSystemLayout, site: int) -> tuple[np.ndarray, ...]:
    """Cached embedded (Sx, Sy, Sz) for one site of a layout."""
    ops = tuple(embed(m, site, layout) for m in spin_matrices(layout.species[site]))
    for o in ops:
        o.setflags(write=False)
    return ops


@lru_cache(maxsize=16)
def parity_sectors(layout: SpinSystemLayout) -> tuple[np.ndarray, np.ndarray]:
    """Basis states of even and odd sum_i (s_i + m_i), each in ascending order.

    The parity, sum_i (d_i - 1 - j_i) mod 2 over local indices j_i, is a state's sign under
    the pi rotation about z of every spin.  Each sector holds d/2 states.  Cached, read-only.
    """
    label = np.zeros(1, dtype=np.intp)
    for d in layout.dimensions:
        label = (label[:, None] + np.arange(d - 1, -1, -1)).ravel()
    odd = label % 2 == 1
    out = (np.flatnonzero(~odd), np.flatnonzero(odd))
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class Rotation:
    """A proper rotation, stored as its 3x3 matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got shape {m.shape}")
        if not np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-12:  # NaN fails too
            raise ValueError("rotation matrix is not orthogonal to 1e-12")
        if np.linalg.det(m) < 0:
            raise ValueError("rotation matrix has determinant -1 (improper rotation)")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Rotation":
        """The shared identity rotation (validated once; its matrix is read-only)."""
        return _IDENTITY


_IDENTITY = Rotation(np.eye(3))
_IDENTITY.matrix.setflags(write=False)


def _axis_rotation(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(3)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return m


def euler_rotation(alpha: float, beta: float, gamma: float) -> Rotation:
    """Rotation Rx(alpha) . Ry(beta) . Rz(gamma); identity at zero angles."""
    m = _axis_rotation(0, alpha) @ _axis_rotation(1, beta) @ _axis_rotation(2, gamma)
    return Rotation(m)


def rotate_tensor(rotation: Rotation, tensor: np.ndarray) -> np.ndarray:
    """Transform a 3x3 coupling tensor into the rotated frame: R T R^T."""
    t = np.asarray(tensor, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"coupling tensor must be 3x3, got shape {t.shape}")
    r = rotation.matrix
    return r @ t @ r.T


def isotropic_tensor(a: float) -> np.ndarray:
    """Isotropic coupling tensor a * I, components in mT."""
    return a * np.eye(3)


def diagonal_tensor(axx: float, ayy: float, azz: float) -> np.ndarray:
    """Diagonal coupling tensor with the given principal components (mT)."""
    return np.diag([axx, ayy, azz]).astype(float)


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Symmetric part (T + T^T) / 2 of a coupling tensor."""
    t = np.asarray(tensor, dtype=float)
    return 0.5 * (t + t.T)
