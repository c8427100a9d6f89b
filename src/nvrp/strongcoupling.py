"""Strong-coupling level analysis: conditional spectra and peak contrasts.

Everything here is per molecule: one ``CouplingGeometry`` fixes its
distance and the field direction.

When the coupling exceeds the dephasing linewidth, the sensor transition
splits into resonances at offsets f_n = (E'_n - E_n) / 2 pi, where E_n
and E'_n are eigenvalues of the pair Hamiltonian alone and of the pair
Hamiltonian plus the conditional coupling operator.  Eigenstates of the
two manifolds are matched by maximum overlap (Hungarian assignment on
|<psi_m|psi'_n>|^2); nearly degenerate clusters are rotated to diagonalise
the coupling operator inside the cluster first, which makes the matching
stable.

Each manifold is diagonalised once, by the checked ``make_propagator``; the
contrasts evolve under the |0>-manifold propagator the ``LevelStructure``
keeps, so nothing here builds or diagonalises a Hamiltonian twice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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

#: eigenvalue gap below which states count as one degenerate cluster, rad/s
DEGENERACY_GAP = 1e-6


@dataclass(frozen=True)
class LevelStructure:
    """Eigen systems of the two sensor-state manifolds plus transitions.

    ``pairing[n]`` is the index of the |0>-manifold state matched to the
    n-th |1>-manifold state; ``transition_freqs_hz[n]`` is the resonance
    offset (E'_n - E_pairing[n]) / 2 pi from the bare sensor transition.
    ``propagator`` is that of H_RP at the pair's decay rate, one eigen-block;
    ``states_0`` are its eigenvectors, rotated within degenerate clusters.
    """

    states_0: np.ndarray
    states_1: np.ndarray
    pairing: np.ndarray
    transition_freqs_hz: np.ndarray
    propagator: Propagator

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


def level_structure(
    cfg: RadicalPairConfig,
    field_cfg: FieldConfig,
    geom: CouplingGeometry,
    sensor: SensorParams | None = None,
) -> LevelStructure:
    """Conditional level structure of the coupled sensor-pair system.

    The |0>-manifold generator is H_RP; the |1>-manifold generator is
    H_RP + D_r sum_i d_ci (S1i + S2i).  In the strong-coupling analysis
    the caller should be in the strong regime; with a ``sensor`` given,
    a weak-regime geometry draws a warning.
    """
    if sensor is not None and classify_regime(geom.g_eff, sensor) is not Regime.STRONG:
        warnings.warn(
            "level_structure called in the weak-coupling regime "
            "(g_eff <= Gamma); peaks will not be resolvable",
            stacklevel=2,
        )
    h0 = build_rp_hamiltonian(cfg, field_cfg)
    coupling = build_coupling_hamiltonian(geom, cfg.layout())
    prop = make_propagator(h0, cfg.effective_decay_rate)
    prop1 = make_propagator(h0 + coupling, cfg.effective_decay_rate)
    v0 = _stabilize_degenerate(prop, coupling)
    v1 = _stabilize_degenerate(prop1, coupling)

    overlap = np.abs(v0.conj().T @ v1) ** 2  # overlap[m, n] = |<psi_m|psi'_n>|^2
    row, col = linear_sum_assignment(-overlap)
    pairing = np.empty(prop1.dim, dtype=int)
    pairing[col] = row
    (block,), (block1,) = prop.blocks, prop1.blocks
    freqs = (block1.eigenvalues - block.eigenvalues[pairing]) / (2 * np.pi)
    return LevelStructure(
        states_0=v0,
        states_1=v1,
        pairing=pairing,
        transition_freqs_hz=freqs,
        propagator=prop,
    )


def count_resolved_peaks(freqs_hz: np.ndarray, gamma_hz: float) -> PeakSet:
    """Greedy clustering of transition frequencies at resolution Gamma.

    Transitions are swept in ascending frequency; a new cluster opens when
    the gap to the current cluster's running center exceeds ``gamma_hz``.
    """
    if not gamma_hz > 0:  # NaN fails too
        raise PhysicsError(f"resolution linewidth must be positive, got {gamma_hz}")
    freqs = np.sort(freqs_hz)
    centers: list[float] = []
    counts: list[int] = []
    members: list[float] = []
    for f in freqs:
        if members and f - np.mean(members) > gamma_hz:
            centers.append(float(np.mean(members)))
            counts.append(len(members))
            members = []
        members.append(f)
    if members:
        centers.append(float(np.mean(members)))
        counts.append(len(members))
    return PeakSet(
        centers_hz=np.asarray(centers),
        multiplicities=np.asarray(counts, dtype=int),
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
