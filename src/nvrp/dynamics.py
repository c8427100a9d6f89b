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
taken to the eigenbasis.  With real eigenvectors (below) the d x d x d
product is one real d x d x 2d GEMM over the real and imaginary parts of
its complex factor, half the flops of the complex product, and the
residual is a real GEMM, a quarter of them.

A time series of T uniform samples costs T d^2 per evaluated operator
plus one T_b x d phase table exp(-i lambda b dt) per call (T_b <=
``SERIES_CHUNK`` rows), reused for every block after a d-phase shift.
Only the components the sensor weights (d_ci != 0) are evaluated.  A
transition projector |psi><psi| costs T d^2 / 4 through the rank-d/4 state.

A Hamiltonian whose imaginary part is exactly zero (every shipped system
at phi = 0 in its molecular frame) is diagonalised as a real symmetric
matrix by LAPACK's ``dsyevd`` (numpy), and its eigenvectors stay real.
At one BLAS thread ``dsyevd`` takes 6.0 against 16.7 ms for ``zheevd`` at
d = 216 and 170 against 972 ms at d = 864, and scipy's real ``evd`` and
``evr`` are no faster beyond the timing spread at any measured d
(BENCH_10.json, ``bench/eigh_drivers.py --set real``).  Any other
Hamiltonian is complex: ``eigh`` is then the divide-and-conquer ``zheevd``
(numpy) below ``EVR_MIN_DIM`` and the faster MRRR driver ``zheevr`` (scipy;
Dhillon, Parlett & Voemel, ACM TOMS 32, 533 (2006)) from there on.  MRRR
keeps tight clusters less orthogonal, which the residual cannot see, so
every propagator, real or complex, also checks V^dag (V x) = x on fixed
probe vectors.  The drivers agree to rounding, not bit for bit.
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

#: most time samples per block of a time-series evaluation
SERIES_CHUNK = 2048

#: most complex entries of one block's product in a time series (8 MB)
SERIES_BLOCK_ENTRIES = 1 << 19

#: smallest dimension of a complex H diagonalised by ``zheevr`` rather than ``zheevd``; a real
#: H takes ``dsyevd`` at every d.  BENCH_6.json (``bench/eigh_drivers.py``, one BLAS thread):
#: 68 against 97 ms at d = 432, 555 against 883 ms at d = 864; overlapping quartiles at
#: d = 288, zheevd faster at d <= 216.
EVR_MIN_DIM = 432

#: probe vectors of the orthogonality check in :func:`make_propagator`
PROBE_VECTORS = 4


@lru_cache(maxsize=32)
def electron_pair_state(kind: InitialElectronState) -> np.ndarray:
    """|S0> or |T0> on the 4-dimensional two-electron space; real."""
    v = np.zeros(4)
    sign = -1.0 if kind is InitialElectronState.SINGLET else 1.0
    v[1] = 1.0 / _SQRT2
    v[2] = sign / _SQRT2
    v.setflags(write=False)
    return v


@lru_cache(maxsize=32)
def initial_state(kind: InitialElectronState, layout: SpinSystemLayout) -> np.ndarray:
    """rho0 = |S0><S0| (or |T0><T0|) tensor I/d_nuc; real, trace 1.  Cached, read-only."""
    v = electron_pair_state(kind)
    d_nuc = layout.nuclear_dimension
    rho0 = np.kron(np.outer(v, v), np.eye(d_nuc) / d_nuc)
    rho0.setflags(write=False)
    return rho0


def electron_singlet_projector() -> np.ndarray:
    """|S0><S0| on the 4-dimensional two-electron space; real."""
    v = electron_pair_state(InitialElectronState.SINGLET)
    return np.outer(v, v)


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of a Hermitian generator plus a uniform decay rate.

    eigenvalues are in rad/s; ``decay_rate`` is the effective trace-decay
    rate k_eff in 1/s (already doubled for the rate_2k convention).
    ``eigenvectors`` are float64 when the generator was real (see
    :func:`make_propagator`), complex128 otherwise.
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


def _real_if_exact(h: np.ndarray) -> np.ndarray:
    """``h`` as float64 when its imaginary part is exactly zero, else ``h`` itself.

    The one choice between real and complex arithmetic, without tolerance.
    """
    if np.iscomplexobj(h):
        return np.ascontiguousarray(h.real) if not h.imag.any() else h
    return np.asarray(h, dtype=float)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix.

    A matrix with an exactly zero imaginary part is real symmetric and goes
    to ``dsyevd`` (numpy), with real eigenvectors.  A complex one goes to
    ``zheevd`` (numpy) below ``EVR_MIN_DIM`` and to ``zheevr`` (scipy) from it
    on.  The eigenvectors are C-ordered either way: scipy returns them
    Fortran-ordered, and the means' row reshapes would copy them.
    """
    h = _real_if_exact(h)
    if not np.iscomplexobj(h) or h.shape[0] < EVR_MIN_DIM:
        return np.linalg.eigh(h)
    w, v = scipy.linalg.eigh(h, check_finite=False, driver="evr")
    return w, np.ascontiguousarray(v)


@lru_cache(maxsize=8)
def _probe_vectors(d: int) -> np.ndarray:
    """Fixed real unit vectors, shape (d, PROBE_VECTORS), Gaussian with seed 0; read-only."""
    x = np.random.default_rng(0).standard_normal((d, PROBE_VECTORS))
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
    A generator with an exactly zero imaginary part is diagonalised in real
    arithmetic and gets real eigenvectors; the three checks and their
    bounds are the same for either dtype.
    """
    h = _real_if_exact(np.asarray(h))
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
    dimensionless; exactly +0.0 where d_ci = 0.
    """

    t_grid: np.ndarray
    s_tilde: np.ndarray


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    """Spacing of a uniform 1-D grid, its span over n - 1; ValueError otherwise."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape[0] < 2:
        raise ValueError("time grid must be a 1-D array with at least two samples")
    dt = (t_grid[-1] - t_grid[0]) / (t_grid.shape[0] - 1)
    if np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * abs(dt):
        raise ValueError("time grid must be uniform")
    return float(dt)


def _phase_blocks(prop: Propagator, t_grid: np.ndarray, columns: int):
    """Yield (lo, table, shift), exp(-i lambda t_{lo+b}) = table[b] * shift, on a uniform grid.

    The table exp(-i lambda b dt) is built once per call, the shift
    exp(-i lambda t_lo) once per block.  A block has at most ``SERIES_CHUNK``
    rows, fewer where ``columns`` entries per row exceed ``SERIES_BLOCK_ENTRIES``.
    """
    dt = _check_uniform_grid(t_grid)
    n = t_grid.shape[0]
    rows = max(1, min(SERIES_CHUNK, SERIES_BLOCK_ENTRIES // max(columns, 1), n))
    lam = prop.eigenvalues
    table = np.exp(np.outer(np.arange(rows) * dt, -1j * lam))
    for lo in range(0, n, rows):
        yield lo, table[: n - lo], np.exp(-1j * lam * t_grid[lo])


def _expectation_series(
    prop: Propagator, rho0: np.ndarray, ops: list[np.ndarray], t_grid: np.ndarray
) -> np.ndarray:
    """<O_m(t)> for each operator on a uniform grid (else ValueError), shape (m, n_t).

    Re sum_nj p_n M_nj conj(p_j) exp(-k t) with p = exp(-i lambda t) and
    M_nj = rho~_nj O~_jn.  Per block the start phases D are folded into each
    M as D M D^dag, one GEMM takes the phase table against the stacked M
    (d x m d), and a row-wise dot with the conjugate table ends each sample.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rho_e = prop.to_eigenbasis(rho0)
    # mats[n, m, j] = O~_m,jn rho~_nj
    mats = np.stack([prop.to_eigenbasis(op).T * rho_e for op in ops], axis=1)
    d, m = mats.shape[:2]
    out = np.empty((m, t_grid.shape[0]))
    for lo, table, shift in _phase_blocks(prop, t_grid, m * d):
        folded = (shift[:, None, None] * mats * shift.conj()).reshape(d, m * d)
        y = (table @ folded).view(float).reshape(-1, m, 2 * d)
        # Re sum_j y_bmj conj(table_bj): a real dot over the (re, im) pairs
        dots = np.matmul(y, table.view(float)[:, :, None])
        out[:, lo : lo + len(table)] = dots[:, :, 0].T
    out *= np.exp(-prop.decay_rate * t_grid)
    return out


def _state_factor(prop: Propagator, state: InitialElectronState) -> np.ndarray:
    """W = sum_a s_a conj(V4[a]), shape (d_nuc, d), with V4 = V.reshape(4, d_nuc, d).

    For rho0 = |s><s| x I/d_nuc the eigenbasis state is rho~ = W^T conj(W) / d_nuc.
    W is real when V is.
    """
    d = prop.dim
    s = electron_pair_state(state)
    return (s.conj() @ prop.eigenvectors.reshape(4, -1)).conj().reshape(d // 4, d)


def _projector_series(
    prop: Propagator, state: InitialElectronState, coeffs: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """<|psi><psi|>(t) for each column c = V^dag psi of ``coeffs``, shape (n_cols, n_t).

    rho0 = |s><s| x I/d_nuc for the electron state ``state``.  With W from
    :func:`_state_factor`, <P>(t) = exp(-k t) / d_nuc * ||W diag(p(t)) conj(c)||^2,
    p = exp(-i lambda t).  Per block one GEMM takes the phase table against
    Z[m, (a, c)] = W_am conj(c_m) shift_m (d x d_nuc n_cols): a quarter of
    the work of the full projectors c c^dag.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    w = _state_factor(prop, state)
    d_nuc, d = w.shape
    n_cols = coeffs.shape[1]
    z = w.T[:, :, None] * coeffs.conj()[:, None, :]  # (d, d_nuc, n_cols)
    out = np.empty((n_cols, t_grid.shape[0]))
    for lo, table, shift in _phase_blocks(prop, t_grid, d_nuc * n_cols):
        a = (table @ (shift[:, None, None] * z).reshape(d, -1)).view(float)
        norms = np.square(a).reshape(-1, d_nuc, 2 * n_cols).sum(axis=1)
        norms = norms.reshape(-1, n_cols, 2).sum(axis=2)
        out[:, lo : lo + len(table)] = norms.T
    out *= np.exp(-prop.decay_rate * t_grid) / d_nuc
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


def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real ``a`` and complex ``b``: one real GEMM on b's float view, ``a`` not upcast."""
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


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
    ``state``; rho~ = W^T conj(W) / d_nuc with W from :func:`_state_factor`
    and V4 = V.reshape(4, d_nuc, d).  The mean of O = o x I_nuc is
    Tr(O V (rho~ o G) V^dag) = Re sum_ab o_ab E_ab, where
    E_ab = sum_kn conj(V4[a, k, n]) Y4[b, k, n] and Y = V (rho~ o G).
    With real eigenvectors W and rho~ are real too, and both products are
    real GEMMs on the real and imaginary parts of their complex factor.
    """
    v = prop.eigenvectors
    w = _state_factor(prop, state)
    d_nuc = w.shape[0]
    rho_e = w.T @ (w.conj() / d_nuc)
    rho_g = _geometric_mean_weights(prop, dt, n)
    np.multiply(rho_e, rho_g, out=rho_g)
    v4 = v.reshape(4, -1)
    if np.iscomplexobj(v):
        y = v @ rho_g
        e = v4.conj() @ y.reshape(4, -1).T
    else:
        y = _real_times(v, rho_g)
        e = _real_times(v4, y.reshape(4, -1).T)
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

    Returns s_tilde[i](t) = d_ci <S1i + S2i>(t) for i in {x, y, z}.  Only
    the components with d_ci != 0 are evaluated; the others are +0.0.  The
    grid must be uniform and resolve the largest eigenvalue gap
    (dt < pi / spread), otherwise a ValueError reports the required dt.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt, spread = _check_uniform_grid(t_grid), prop.spectral_spread
    if spread > 0 and dt >= np.pi / spread:
        raise ValueError(
            f"time grid undersamples the dynamics: dt = {dt:.3e} s but the "
            f"largest eigenvalue gap needs dt < {np.pi / spread:.3e} s"
        )
    ops = _pair_spin_ops(layout)
    weighted = np.flatnonzero(geom.d_c)
    s_tilde = np.zeros((3, t_grid.shape[0]))
    if weighted.size:
        series = _expectation_series(prop, rho0, [ops[i] for i in weighted], t_grid)
        s_tilde[weighted] = geom.d_c[weighted, None] * series
    return ObservableSeries(t_grid=t_grid, s_tilde=s_tilde)


def nyquist_samples(prop: Propagator, t_max: float) -> int:
    """Smallest power-of-two count, at least MIN_SAMPLES, resolving the spectral spread."""
    spread = prop.spectral_spread
    n = MIN_SAMPLES
    if spread > 0:
        required = int(np.ceil(1.05 * t_max * spread / np.pi)) + 1
        n = max(n, required)
    return 1 << (n - 1).bit_length()


def singlet_yield_mean(
    prop: Propagator, state: InitialElectronState, t_max: float, n_samples: int
) -> float:
    """phi_s = k dt sum_j Tr[rho(t_j) P_S], t_j = j dt, dt = t_max / n, k = prop.decay_rate.

    The rate-weighted singlet yield from rho0 = |state><state| x I/d_nuc,
    summed in closed form.  ``t_max`` should reach at least five
    lifetimes; the truncation error is then below exp(-5).
    """
    dt = t_max / n_samples
    mean = _expectation_means(prop, state, electron_singlet_projector()[None], dt, n_samples)[0]
    return float(prop.decay_rate * dt * mean * n_samples)
