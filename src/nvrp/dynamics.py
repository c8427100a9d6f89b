"""Density-matrix propagation with uniform recombination decay.

With equal singlet and triplet recombination rates the dissipator
commutes with the coherent part, so the solution of

    d rho / dt = -i [H, rho] - L_rec[rho]

factorises into a scalar decay times a unitary rotation:

    rho(t) = exp(-k_eff t) U(t) rho0 U(t)^dag,   U(t) = V exp(-i lambda t) V^dag.

The propagator stores the eigendecomposition (lambda, V) of H once; every
expectation value and every time average is then evaluated in the
eigenbasis.  Uniform time grids additionally admit a closed-form mean
over samples (a geometric series per eigenvalue pair), which is what the
field sweeps use: it is algebraically identical to averaging the sampled
series, independent of the grid length.

The closed-form mean uses the structure of the model: rho0 = |s><s| x
I/d_nuc has rank d_nuc = d/4, and every averaged observable is a 4x4
electron-pair matrix x I_nuc.  A mean then costs one d x d x d product,
one d x d/4 x d product and O(d^2) work besides, on top of ``eigh`` and
the reconstruction residual of :func:`make_propagator`; no operator is
taken to the eigenbasis.

``eigh`` is LAPACK's divide-and-conquer ``zheevd`` (numpy) below
``EVR_MIN_DIM`` and the faster MRRR driver ``zheevr`` (scipy; Dhillon,
Parlett & Voemel, ACM TOMS 32, 533 (2006)) from there on.  MRRR keeps
tight clusters less orthogonal, which the residual cannot see, so every
propagator also checks V^dag (V x) = x on fixed probe vectors.  The two
drivers agree to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import NumericalError, PhysicsError
from .hamiltonian import CouplingGeometry, InitialElectronState
from .spincore import SpinSystemLayout, site_operators

_SQRT2 = np.sqrt(2.0)

#: fewest samples of a closed-form mean, a power of two
MIN_SAMPLES = 4096

#: time samples per block of a time-series evaluation
SERIES_CHUNK = 2048

#: smallest dimension diagonalised by ``zheevr`` rather than ``zheevd``.  BENCH_6.json
#: (``bench/eigh_drivers.py``, one BLAS thread): 68 against 97 ms at d = 432, 555 against
#: 883 ms at d = 864; overlapping quartiles at d = 288, zheevd faster at d <= 216.
EVR_MIN_DIM = 432

#: probe vectors of the orthogonality check in :func:`make_propagator`
PROBE_VECTORS = 4


@lru_cache(maxsize=32)
def electron_pair_state(kind: InitialElectronState) -> np.ndarray:
    """|S0> or |T0> on the 4-dimensional two-electron space."""
    v = np.zeros(4, dtype=complex)
    sign = -1.0 if kind is InitialElectronState.SINGLET else 1.0
    v[1] = 1.0 / _SQRT2
    v[2] = sign / _SQRT2
    v.setflags(write=False)
    return v


@lru_cache(maxsize=32)
def initial_state(kind: InitialElectronState, layout: SpinSystemLayout) -> np.ndarray:
    """rho0 = |S0><S0| (or |T0><T0|) tensor I/d_nuc; trace 1.  Cached, read-only."""
    v = electron_pair_state(kind)
    rho_e = np.outer(v, v.conj())
    d_nuc = layout.nuclear_dimension
    rho0 = np.kron(rho_e, np.eye(d_nuc, dtype=complex) / d_nuc)
    rho0.setflags(write=False)
    return rho0


def electron_singlet_projector() -> np.ndarray:
    """|S0><S0| on the 4-dimensional two-electron space."""
    v = electron_pair_state(InitialElectronState.SINGLET)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of a Hermitian generator plus a uniform decay rate.

    eigenvalues are in rad/s; ``decay_rate`` is the effective trace-decay
    rate k_eff in 1/s (already doubled for the rate_2k convention).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    decay_rate: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_spread(self) -> float:
        """Largest eigenvalue gap max(lambda) - min(lambda), rad/s."""
        if self.dim == 0:
            return 0.0
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        return self.eigenvectors.conj().T @ op @ self.eigenvectors

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """rho(t) for a single time point."""
        v = self.eigenvectors
        rho_e = self.to_eigenbasis(rho0)
        phase = np.exp(-1j * self.eigenvalues * t)
        rho_t = (phase[:, None] * rho_e) * phase.conj()[None, :]
        return np.exp(-self.decay_rate * t) * (v @ rho_t @ v.conj().T)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix.

    ``zheevd`` (numpy) below ``EVR_MIN_DIM``, ``zheevr`` (scipy) from it on.
    The eigenvectors are C-ordered either way: scipy returns them
    Fortran-ordered, and the means' row reshapes would copy them.
    """
    if h.shape[0] < EVR_MIN_DIM:
        return np.linalg.eigh(h)
    w, v = scipy.linalg.eigh(h, check_finite=False, driver="evr")
    return w, np.ascontiguousarray(v)


@lru_cache(maxsize=8)
def _probe_vectors(d: int) -> np.ndarray:
    """Fixed unit vectors, shape (d, PROBE_VECTORS), Gaussian with seed 0; read-only."""
    x = np.random.default_rng(0).standard_normal((d, PROBE_VECTORS)).astype(complex)
    x /= np.linalg.norm(x, axis=0)
    x.setflags(write=False)
    return x


def make_propagator(h: np.ndarray, k_eff: float) -> Propagator:
    """Diagonalise a Hermitian Hamiltonian and attach the decay rate.

    ``k_eff`` is the trace-decay rate, already resolved for the decay
    convention (``RadicalPairConfig.effective_decay_rate``).  Rejects
    non-Hermitian input and aborts when the reconstruction residual
    exceeds 1e-8 * ||H|| or when ||V^dag (V x) - x|| exceeds 1e-8 on any
    probe vector.  The residual is blind to a loss of orthogonality
    among eigenvectors of eigenvalues near zero (V = Q (I + E) changes it
    only by Q (E Lambda + Lambda E^dag) Q^dag); the O(d^2) probe sees it.
    """
    h = np.asarray(h, dtype=complex)
    if k_eff < 0:
        raise PhysicsError(f"decay rate must be >= 0, got {k_eff}")
    hnorm = np.linalg.norm(h)
    if hnorm > 0 and np.linalg.norm(h - h.conj().T) > 1e-10 * hnorm:
        raise PhysicsError("propagator generator must be Hermitian")
    w, v = _eigh(h)
    residual = np.linalg.norm((v * w) @ v.conj().T - h)
    if hnorm > 0 and residual > 1e-8 * hnorm:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-8 * ||H|| = {1e-8 * hnorm:.3e}"
        )
    x = _probe_vectors(h.shape[0])
    back = (v.T @ (v @ x).conj()).conj()  # V^dag V x without a conjugated copy of V
    loss = np.max(np.linalg.norm(back - x, axis=0))
    if loss > 1e-8:
        raise NumericalError(f"eigenvector orthogonality loss {loss:.3e} exceeds 1e-8")
    return Propagator(eigenvalues=w, eigenvectors=v, decay_rate=k_eff)


@dataclass(frozen=True)
class ObservableSeries:
    """Uniform time grid plus the weighted pair-spin expectations.

    ``s_tilde`` has shape (3, n): s_tilde[i] = d_ci * <S1i + S2i>(t),
    dimensionless.  ``pair_spin`` holds the raw <S1i + S2i>(t).
    """

    t_grid: np.ndarray
    s_tilde: np.ndarray
    pair_spin: np.ndarray


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape[0] < 2:
        raise ValueError("time grid must be a 1-D array with at least two samples")
    dts = np.diff(t_grid)
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * abs(dt):
        raise ValueError("time grid must be uniform")
    return float(dt)


def _require_resolved(prop: Propagator, dt: float) -> None:
    spread = prop.spectral_spread
    if spread > 0 and dt >= np.pi / spread:
        raise ValueError(
            f"time grid undersamples the dynamics: dt = {dt:.3e} s but the "
            f"largest eigenvalue gap needs dt < {np.pi / spread:.3e} s"
        )


def _expectation_series(
    prop: Propagator, rho0: np.ndarray, ops: list[np.ndarray], t_grid: np.ndarray,
    eigenbasis: bool = False,
) -> np.ndarray:
    """<O_m(t)> for each operator, shape (len(ops), len(t_grid)).

    Evaluated as sum_nm (O~^T * rho~)_nm exp(-(k + i omega_nm) t) with
    omega_nm = lambda_n - lambda_m, in blocks of ``SERIES_CHUNK`` times.
    With ``eigenbasis`` set, ``ops`` are already O~ = V^dag O V.
    """
    rho_e = prop.to_eigenbasis(rho0)
    # M_nm = O~_mn rho~_nm
    mats = [(op if eigenbasis else prop.to_eigenbasis(op)).T * rho_e for op in ops]
    t_grid = np.asarray(t_grid)
    out = np.empty((len(ops), len(t_grid)))
    for lo in range(0, len(t_grid), SERIES_CHUNK):
        t = t_grid[lo : lo + SERIES_CHUNK]
        phases = np.exp(np.outer(t, -1j * prop.eigenvalues))  # (chunk, d)
        phases_conj = phases.conj()
        for m, mat in enumerate(mats):
            out[m, lo : lo + len(t)] = np.real(
                np.einsum("tn,nm,tm->t", phases, mat, phases_conj, optimize=True)
            )
    out *= np.exp(-prop.decay_rate * t_grid)[None, :]
    return out


def _geometric_mean_weights(prop: Propagator, dt: float, n: int) -> np.ndarray:
    """G_nm = (1/n) sum_{j=0}^{n-1} z_nm^j with z_nm = exp((-k - i omega_nm) dt).

    G is Hermitian, so only the strict upper triangle is evaluated, as
    (z^n - 1) / expm1(x) / n with x = (-k - i omega_nm) dt; the lower
    triangle is its conjugate and the diagonal (omega = 0) is real.
    With T = n dt and k T >= 1 the numerator
    is the outer product z_nm^n - 1 = exp(-k T) p_n conj(p_m) - 1 of the
    d phases p = exp(-i lambda T).  Since |z^n| = exp(-k T), forming it
    adds a relative error of at most about
    (1 + 4 exp(-k T) / (1 - exp(-k T))) eps: 3.3 eps at k T = 1 and
    1.03 eps at the default T = 5/k, on top of the rounding of the phase
    arguments that expm1(n x) carries too.  Below k T = 1 that bound grows
    like 1/(k T), and the numerator is expm1(n x).
    Where expm1(x) vanishes (k = 0 and exactly degenerate levels) every
    z^j is 1, and so is the weight.
    """
    lam = prop.eigenvalues
    d = lam.shape[0]
    k_dt = prop.decay_rate * dt

    def ratio(x, num):
        den = np.expm1(x)
        zero = np.abs(den) < 1e-300
        num[zero] = n
        den[zero] = 1.0
        num /= den
        num /= n
        return num

    rows, cols = _upper_triangle(d)
    x = np.empty(rows.shape[0], dtype=complex)
    x.real = -k_dt
    x.imag = (lam[cols] - lam[rows]) * dt
    if k_dt * n >= 1.0:
        p = np.exp(-1j * (n * dt) * lam)
        num = (np.exp(-k_dt * n) * p)[rows] * p.conj()[cols]
        num -= 1.0
    else:
        num = np.expm1(x * n)
    upper = ratio(x, num)
    geo = np.empty((d, d), dtype=complex)
    geo[rows, cols] = upper
    geo[cols, rows] = upper.conj()
    x_diag = np.array([-k_dt], dtype=complex)
    geo.flat[:: d + 1] = ratio(x_diag, np.expm1(x_diag * n))
    return geo


@lru_cache(maxsize=8)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a d x d matrix."""
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _expectation_means(
    prop: Propagator,
    state: InitialElectronState,
    electron_ops: np.ndarray,
    dt: float,
    n: int,
) -> np.ndarray:
    """Mean over the n uniform samples of <o_m x I_nuc>(t_j), t_j = j dt.

    ``electron_ops`` are 4x4 operators on the two electrons, shape
    (n_ops, 4, 4); rho0 = |s><s| x I/d_nuc for the electron state
    ``state``.  With V4 = V.reshape(4, d_nuc, d) and
    W = sum_a s_a conj(V4[a]) (d_nuc x d), the eigenbasis state is
    rho~ = W^T conj(W) / d_nuc.  The mean of O = o x I_nuc is
    Tr(O V (rho~ o G) V^dag) = Re sum_ab o_ab E_ab, where
    E_ab = sum_kn conj(V4[a, k, n]) Y4[b, k, n] and Y = V (rho~ o G).
    """
    v = prop.eigenvectors
    d = prop.dim
    d_nuc = d // 4
    v4 = v.reshape(4, d_nuc * d)
    s = electron_pair_state(state)
    w = (s.conj() @ v4).conj().reshape(d_nuc, d)
    rho_e = w.T @ (w.conj() / d_nuc)
    rho_e *= _geometric_mean_weights(prop, dt, n)
    y = v @ rho_e
    e = v4.conj() @ y.reshape(4, d_nuc * d).T
    return np.real(np.einsum("mab,ab->m", electron_ops, e))


def _pair_spin_ops(layout: SpinSystemLayout) -> list[np.ndarray]:
    s1 = site_operators(layout, 0)
    s2 = site_operators(layout, 1)
    return [s1[i] + s2[i] for i in range(3)]


def evolve_observables(
    rho0: np.ndarray,
    prop: Propagator,
    t_grid: np.ndarray,
    geom: CouplingGeometry,
    layout: SpinSystemLayout,
) -> ObservableSeries:
    """Time series of the coupling-weighted collective spin components.

    Returns s_tilde[i](t) = d_ci <S1i + S2i>(t) for i in {x, y, z}.  The
    grid must be uniform and resolve the largest eigenvalue gap
    (dt < pi / spread), otherwise a ValueError reports the required dt.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_uniform_grid(t_grid)
    _require_resolved(prop, dt)
    ops = _pair_spin_ops(layout)
    pair = _expectation_series(prop, rho0, ops, t_grid)
    s_tilde = geom.d_c[:, None] * pair
    return ObservableSeries(t_grid=t_grid, s_tilde=s_tilde, pair_spin=pair)


def nyquist_samples(prop: Propagator, t_max: float) -> int:
    """Smallest power-of-two count, at least MIN_SAMPLES, resolving the spectral spread."""
    spread = prop.spectral_spread
    n = MIN_SAMPLES
    if spread > 0:
        required = int(np.ceil(1.05 * t_max * spread / np.pi)) + 1
        n = max(n, required)
    return 1 << (n - 1).bit_length()


def singlet_yield_mean(
    prop: Propagator,
    state: InitialElectronState,
    k: float,
    t_max: float,
    n_samples: int,
) -> float:
    """phi_s = k dt sum_j Tr[rho(t_j) P_S], t_j = j dt, dt = t_max / n.

    The rate-weighted singlet yield from rho0 = |state><state| x I/d_nuc,
    summed in closed form.  ``t_max`` should reach at least five
    lifetimes; the truncation error is then below exp(-5).
    """
    dt = t_max / n_samples
    mean = _expectation_means(prop, state, electron_singlet_projector()[None], dt, n_samples)[0]
    return float(k * dt * mean * n_samples)
