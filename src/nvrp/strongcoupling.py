"""Strong-coupling level analysis: conditional spectra and peak contrasts.

Everything here is per molecule: one ``CouplingGeometry`` fixes its
distance and the field direction.

When the coupling exceeds the dephasing linewidth, the sensor transition
splits into resonances at offsets f_n = (E'_n - E_n) / 2 pi, where E_n
and E'_n are eigenvalues of the pair Hamiltonian alone and of the pair
Hamiltonian plus the conditional coupling operator.  Eigenstates of the
two manifolds are matched by maximum total overlap, a linear assignment on
O_mn = |<psi_m|psi'_n>|^2; nearly degenerate clusters are rotated to
diagonalise the coupling operator inside the cluster first, which makes the
matching stable.  :func:`match_levels` solves the assignment exactly in
numpy: column reduction pairs each level with its largest overlap where that
is free, and shortest augmenting paths place the k levels it leaves.  No run
imports scipy.

Each manifold is diagonalised once per field, by the checked ``make_propagator``,
in stacks of at most ``signal.BATCH_ENTRIES`` entries of H (16 fields at d = 64);
the contrasts evolve under the |0>-manifold propagator the ``LevelStructure``
keeps, so nothing here builds or diagonalises a Hamiltonian twice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Propagator, _eigh, _projector_series, make_propagator
from .errors import PhysicsError
from .hamiltonian import (
    CouplingGeometry,
    FieldConfig,
    InitialElectronState,
    RadicalPairConfig,
    Regime,
    SensorParams,
    build_coupling_hamiltonian,
    build_rp_hamiltonian,
    classify_regime,
)
from .signal import field_batches

#: eigenvalue gap below which states count as one degenerate cluster, rad/s
DEGENERACY_GAP = 1e-6


@dataclass(frozen=True)
class Matching:
    """An optimal pairing of the two manifolds' levels, as :func:`match_levels` found it.

    ``pairing[n]`` is the |0>-manifold state matched to the n-th |1>-manifold state.
    ``k`` is the number of |0>-manifold states that are no column's largest overlap,
    each placed by one augmenting path; k = 0 exactly when the per-column argmax is a
    permutation, and then it is the pairing.  ``min_column_max`` is the smallest column
    maximum of the overlaps: below 1/2 some |psi'_n> has no dominant partner.
    """

    pairing: np.ndarray
    k: int
    min_column_max: float


@dataclass(frozen=True)
class LevelStructure:
    """Eigen systems of the two sensor-state manifolds plus transitions.

    ``pairing[n]`` is the index of the |0>-manifold state matched to the
    n-th |1>-manifold state (``matching`` says how); ``transition_freqs_hz[n]``
    is the resonance offset (E'_n - E_pairing[n]) / 2 pi from the bare sensor
    transition.  ``propagator`` is that of H_RP at the pair's decay rate, one
    eigen-block; ``states_0`` are its eigenvectors, rotated within degenerate clusters.
    """

    states_0: np.ndarray
    states_1: np.ndarray
    matching: Matching
    transition_freqs_hz: np.ndarray
    propagator: Propagator

    @property
    def pairing(self) -> np.ndarray:
        return self.matching.pairing

    @property
    def n_transitions(self) -> int:
        return self.transition_freqs_hz.shape[0]


@dataclass(frozen=True)
class PeakSet:
    """Resolution-clustered resonance peaks."""

    centers_hz: np.ndarray
    multiplicities: np.ndarray

    @property
    def count(self) -> int:
        return self.centers_hz.shape[0]


def _stabilize_degenerate(prop: Propagator, op: np.ndarray) -> np.ndarray:
    """The eigenvectors of a one-block ``prop``, degenerate clusters rotated to diagonalise ``op``.

    The result has the dtype of the eigenvectors and ``op`` together: real
    eigenvectors stay real unless ``op`` is complex, as the coupling operator
    is only where phi != 0.
    """
    (block,) = prop.blocks
    w = block.eigenvalues
    v = block.eigenvectors.astype(np.result_type(block.eigenvectors, op))
    i = 0
    n = w.shape[0]
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] < DEGENERACY_GAP:
            j += 1
        if j - i > 1:
            block = v[:, i:j]
            sub = block.conj().T @ op @ block
            _, u = _eigh(0.5 * (sub + sub.conj().T))
            v[:, i:j] = block @ u
        i = j
    return v


def _solve_assignment(profit: np.ndarray) -> tuple[np.ndarray, int]:
    """``row[j]`` per column j of a square ``profit``, maximising sum_j profit[row[j], j], and k.

    Jonker and Volgenant's column reduction (Computing 38, 325 (1987)) starts the dual:
    each column's potential is its best entry, and each row that is the best of some
    column takes the first such column.  That start is feasible and tight, so each of the
    k rows it leaves free joins by one shortest augmenting path (Kuhn, Naval Res. Logist.
    Q. 2, 83 (1955)), a Dijkstra search over reduced costs that the potentials keep >= 0.
    O(k d^2), each step vectorised over columns; column d is a search's virtual start.
    """
    cost = -np.asarray(profit, dtype=float)
    d = cost.shape[0]
    u, v = np.zeros(d), np.append(cost.min(axis=0), 0.0)
    first = np.full(d, d)  # first[i]: the first column whose best row is i, d if none
    np.minimum.at(first, cost.argmin(axis=0), np.arange(d))
    row = np.full(d + 1, -1)  # row[j]: the row assigned to column j
    free_rows = np.flatnonzero(first == d)
    row[first[first < d]] = np.flatnonzero(first < d)
    way = np.zeros(d + 1, dtype=int)  # way[j]: the column before j on the search path
    for i in free_rows:
        row[d], j0 = i, d
        dist = np.full(d + 1, np.inf)
        used = np.zeros(d + 1, dtype=bool)
        while row[j0] >= 0:
            used[j0] = True
            free = ~used[:d]
            reduced = cost[row[j0]] - u[row[j0]] - v[:d]
            closer = free & (reduced < dist[:d])
            dist[:d][closer] = reduced[closer]
            way[:d][closer] = j0
            j0 = int(np.argmin(np.where(free, dist[:d], np.inf)))
            delta = dist[j0]
            u[row[used]] += delta
            v[used] -= delta
            dist[:d][free] -= delta
        while j0 != d:  # augment along the path back to the virtual column
            row[j0] = row[way[j0]]
            j0 = way[j0]
    return row[:d], free_rows.size


def match_levels(overlap: np.ndarray) -> Matching:
    """The assignment maximising sum_n O[pairing[n], n] over the overlaps O as computed."""
    pairing, k = _solve_assignment(overlap)
    return Matching(pairing, k, float(overlap.max(axis=0).min()))


def _levels(prop: Propagator, prop1: Propagator, coupling: np.ndarray) -> LevelStructure:
    """The matched level structure at one field from the propagators of both manifolds."""
    v0 = _stabilize_degenerate(prop, coupling)
    v1 = _stabilize_degenerate(prop1, coupling)
    overlap = np.abs(v0.conj().T @ v1) ** 2  # overlap[m, n] = |<psi_m|psi'_n>|^2
    matching = match_levels(overlap)
    (block,), (block1,) = prop.blocks, prop1.blocks
    freqs = (block1.eigenvalues - block.eigenvalues[matching.pairing]) / (2 * np.pi)
    return LevelStructure(
        states_0=v0,
        states_1=v1,
        matching=matching,
        transition_freqs_hz=freqs,
        propagator=prop,
    )


def level_structure(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig | Sequence[FieldConfig],
    geom: CouplingGeometry,
    sensor: SensorParams | None = None,
) -> LevelStructure | list[LevelStructure]:
    """Conditional level structure of the coupled sensor-pair system.

    The |0>-manifold generator is H_RP; the |1>-manifold generator is
    H_RP + D_r sum_i d_ci (S1i + S2i).  In the strong-coupling analysis
    the caller should be in the strong regime; with a ``sensor`` given,
    a weak-regime geometry (g_eff/2pi <= Gamma) draws a warning.  A
    sequence of fields gives one structure per field, in order; both
    manifolds are diagonalised in stacks (``signal.field_batches``).
    """
    if sensor is not None and classify_regime(geom.g_eff, sensor) is not Regime.STRONG:
        warnings.warn(
            "level_structure called in the weak-coupling regime "
            "(g_eff/2pi <= Gamma); peaks will not be resolvable",
            stacklevel=2,
        )
    one = isinstance(field_cfg, FieldConfig)
    fields = [field_cfg] if one else list(field_cfg)
    coupling = build_coupling_hamiltonian(geom, cfg.layout())
    k = cfg.effective_decay_rate
    out: list[LevelStructure] = [None] * len(fields)
    for points in field_batches(fields, cfg.layout().total_dimension):
        h0 = build_rp_hamiltonian(cfg, [fields[i] for i in points])
        prop, prop1 = make_propagator(h0, k), make_propagator(h0 + coupling, k)
        for j, i in enumerate(points):
            out[i] = _levels(prop[j], prop1[j], coupling)
    return out[0] if one else out


def count_resolved_peaks(freqs_hz: np.ndarray, gamma_hz: float) -> PeakSet:
    """Greedy clustering of transition frequencies at resolution Gamma.

    Transitions are swept in ascending frequency; a new cluster opens when
    the gap to the current cluster's running center exceeds ``gamma_hz``.
    The center is ``np.mean`` of the cluster.  A running sum decides each
    gap; where it lies within rounding of ``gamma_hz`` (the sum and
    ``np.mean`` differ by at most about n eps max|f| for n members), the
    cluster's ``np.mean`` decides instead.
    """
    if not gamma_hz > 0:  # NaN fails too
        raise PhysicsError(f"resolution linewidth must be positive, got {gamma_hz}")
    freqs = np.sort(freqs_hz)
    scale = 4.0 * np.finfo(float).eps * float(np.max(np.abs(freqs), initial=0.0))
    starts = [0] if freqs.size else []
    total = 0.0
    for i, f in enumerate(freqs.tolist()):
        n = i - starts[-1]
        if n:
            gap = f - total / n
            if abs(gap - gamma_hz) <= (n + 2) * scale:
                gap = f - np.mean(freqs[starts[-1] : i])
            if gap > gamma_hz:
                starts.append(i)
                total = 0.0
        total += f
    bounds = list(zip(starts, starts[1:] + [freqs.size]))
    return PeakSet(
        centers_hz=np.array([np.mean(freqs[lo:hi]) for lo, hi in bounds]),
        multiplicities=np.array([hi - lo for lo, hi in bounds], dtype=int),
    )


def peak_contrast(
    levels: LevelStructure, state: InitialElectronState, t_grid: np.ndarray
) -> np.ndarray:
    """Population-difference contrast C_n(t) per transition, shape (d, n_t).

    The pair starts from |state><state| x I/d_nuc and evolves under
    ``levels.propagator``: H_RP alone (the pulsed scheme keeps the sensor
    in |0>, no backaction) with the uniform recombination decay.
    C_n(t) = <P_psi'_n>(t) - <P_psi_n>(t) for the molecule ``levels`` describes.
    Each sample is exact, and ``t_grid`` need not resolve the spectrum:
    fig6c's 2048 samples over five lifetimes have dt = 12.2 ns against
    pi / spread = 6.9 ns (1.76x the Nyquist interval), so its C_n(t) must
    not be Fourier-transformed.
    """
    prop = levels.propagator
    # eigenbasis coefficients c = V^dag psi of each |psi'_n>, then of its matched |psi_n>
    states = np.concatenate([levels.states_1, levels.states_0[:, levels.pairing]], axis=1)
    (block,) = prop.blocks
    coeffs = block.eigenvectors.conj().T @ states
    series = _projector_series(prop, state, coeffs, t_grid)
    n = levels.n_transitions
    return series[:n] - series[n:]
