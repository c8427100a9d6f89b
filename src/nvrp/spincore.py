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
    h: np.ndarray, local: np.ndarray, site_a: int, site_b: int, layout: SpinSystemLayout,
    sector: int | None = None,
) -> None:
    """Add a two-site operator into ``h`` in place: h += local x I(elsewhere), on one block.

    ``local`` acts on the product space of ``site_a`` (major factor) and ``site_b`` (minor
    factor), with ``site_a < site_b``.  ``h`` is the block on the states
    :func:`parity_sectors` ``[sector]``, or on all d for None; entries that leave it are
    dropped.  Only the entries the operator reaches are touched, by cached flat indices.
    ``h`` may be a stack (..., d_b, d_b), and ``local`` one operator for every matrix of
    it or a stack of its own that broadcasts against it.
    """
    dims = layout.dimensions
    if not 0 <= site_a < site_b < len(dims):
        raise ValueError(f"sites ({site_a}, {site_b}) must satisfy 0 <= a < b < {len(dims)}")
    da, db = dims[site_a], dims[site_b]
    if local.shape[-2:] != (da * db, da * db):
        raise ValueError(
            f"operator of shape {local.shape} does not fit sites ({site_a}, {site_b}) "
            f"with dimensions ({da}, {db})"
        )
    d = math.prod(dims) if sector is None else parity_sectors(layout)[sector].size
    if h.shape[-2:] != (d, d) or not h.flags.c_contiguous:
        raise ValueError("h must be a C-contiguous d x d array for the layout's block")
    source, target, _ = _two_site_slots(layout, site_a, site_b, sector)
    flat = local.reshape(local.shape[:-2] + (-1,))
    h.reshape(h.shape[:-2] + (-1,))[..., target] += flat[..., source]


@lru_cache(maxsize=64)
def _two_site_slots(layout: SpinSystemLayout, site_a: int, site_b: int, sector) -> tuple:
    """Flat indices (into local, into the block) of the entries of local x I in a block,
    and the mask of the local entries (i, j) that join a state in it to one outside it."""
    dims = layout.dimensions
    d, da, db = math.prod(dims), dims[site_a], dims[site_b]
    shape = (math.prod(dims[:site_a]), da, math.prod(dims[site_a + 1 : site_b]), db, -1)
    # the basis state of (spectators, local state), shape (d / (da db), da db)
    states = np.arange(d).reshape(shape).transpose(0, 2, 4, 1, 3).reshape(-1, da * db)
    rows = np.arange(d) if sector is None else parity_sectors(layout)[sector]
    at = np.full(d, -1)
    at[rows] = np.arange(rows.size)
    at = at[states]
    inside = at >= 0
    s, i, j = np.nonzero(inside[:, :, None] & inside[:, None, :])
    leaves = (inside[:, :, None] != inside[:, None, :]).any(axis=0)
    return i * (da * db) + j, at[s, i] * rows.size + at[s, j], leaves


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
