"""Monte Carlo statistics of the signal from many molecules.

Each realization draws a set of molecules in the sensing shell: a
distance uniform in ``r_range`` and an orientation that is either the
identity (aligned mode) or Haar-random on SO(3) (via uniform
quaternions).  The sensor couples to a molecule through its distance and
its orientation only (the d_c coefficients follow the field direction),
so no position angles are drawn.

A realization's signal is the sum of its molecules' signals (the map
from magnetisation to field is linear); statistics are taken across
realizations.  A molecule's signal over the whole field grid is one
``integrated_observables`` call, run in the sweep batches like any other
X^I; aligned molecules share one such call.  Per-realization RNG
streams are spawned from (seed, realization index), so results are
bit-reproducible for a fixed seed and independent of evaluation order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PhysicsError
from .hamiltonian import FieldConfig, RadicalPairConfig
from .signal import _parallel_map, integrated_observables, single_molecule_prefactor
from .spincore import Rotation

#: most molecules in one realization: caps the Poisson draw and bounds ``params.n_molecules``
MAX_MOLECULES = 100

#: the largest mean ``Generator.poisson`` accepts; numpy rejects any above it
POISSON_MAX_MEAN = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


class OrientationMode(enum.Enum):
    ALIGNED = "aligned"
    HAAR = "haar"


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling plan for a molecular ensemble."""

    n_realizations: int = 50
    orientation_mode: OrientationMode = OrientationMode.HAAR
    r_range_nm: tuple[float, float] = (5.0, 20.0)
    seed: int = 0
    density_per_nm3: float | None = 5e-2
    n_molecules: int | None = None

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise PhysicsError("ensemble needs at least one realization")
        r1, r2 = self.r_range_nm
        if not 0 < r1 < r2:
            raise PhysicsError(f"r_range must be ordered and positive, got {self.r_range_nm}")
        if self.n_molecules is None and self.density_per_nm3 is None:
            raise PhysicsError("give either a fixed molecule count or a density")
        if self.n_molecules is not None and not 1 <= self.n_molecules <= MAX_MOLECULES:
            raise PhysicsError(
                f"fixed molecule count must lie in [1, {MAX_MOLECULES}], got {self.n_molecules}"
            )

    def shell_volume_nm3(self) -> float:
        r1, r2 = self.r_range_nm
        return (2.0 * np.pi / 3.0) * (r2**3 - r1**3)


@dataclass(frozen=True)
class EnsembleStatistics:
    """Per-field mean and variance of X_i^I across realizations."""

    grid: np.ndarray
    mean: np.ndarray  # (3, n)
    variance: np.ndarray  # (3, n)


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Haar-uniform rotation from a normalised Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    return Rotation(m)


def _molecule_count(spec: EnsembleSpec, rng: np.random.Generator) -> int:
    if spec.n_molecules is not None:
        return spec.n_molecules
    mean = spec.density_per_nm3 * spec.shell_volume_nm3()
    if mean > POISSON_MAX_MEAN:  # a draw there would be far above the cap
        return MAX_MOLECULES
    return int(min(max(rng.poisson(mean), 1), MAX_MOLECULES))


def sample_realization(
    spec: EnsembleSpec, rng: np.random.Generator
) -> list[tuple[float, Rotation]]:
    """Draw one realization's molecules as (distance in nm, rotation) pairs.

    Distances are uniform in ``r_range``; the rotation follows the
    orientation mode.
    """
    out = []
    for _ in range(_molecule_count(spec, rng)):
        r = rng.uniform(*spec.r_range_nm)
        if spec.orientation_mode is OrientationMode.ALIGNED:
            rot = Rotation.identity()
        else:
            rot = random_rotation(rng)
        out.append((r, rot))
    return out


def realization_rngs(spec: EnsembleSpec) -> list[np.random.Generator]:
    """Independent, reproducible per-realization RNG streams."""
    seqs = np.random.SeedSequence(spec.seed).spawn(spec.n_realizations)
    return [np.random.default_rng(s) for s in seqs]


def ensemble_sweep(
    cfg: RadicalPairConfig,
    spec: EnsembleSpec,
    b_grid_mT: Sequence[float],
    threads: int = 1,
) -> EnsembleStatistics:
    """Mean and variance of the summed molecular signal against field magnitude.

    The field lies on the sensor axis (theta = 0).  Every molecule
    contributes its own rotated evolution over the whole grid, one
    :func:`integrated_observables` call in the sweep's batches, scaled by the
    point-dipole factor at its distance; aligned molecules share one call over
    the grid, made before the workers start.
    """
    grid = np.asarray(b_grid_mT, dtype=float)
    fields = [FieldConfig(b, 0.0, 0.0) for b in grid]
    realizations = [sample_realization(spec, rng) for rng in realization_rngs(spec)]

    aligned = spec.orientation_mode is OrientationMode.ALIGNED
    unrotated = integrated_observables(cfg, fields) if aligned else None

    def realization_total(molecules: list[tuple[float, Rotation]]) -> np.ndarray:
        signals = [
            single_molecule_prefactor(r_nm)
            * (unrotated if aligned else integrated_observables(cfg, fields, rotation))
            for r_nm, rotation in molecules
        ]
        return np.sum(signals, axis=0).T

    totals = np.stack(_parallel_map(realization_total, realizations, threads))

    return EnsembleStatistics(
        grid=grid, mean=np.mean(totals, axis=0), variance=np.var(totals, axis=0)
    )
