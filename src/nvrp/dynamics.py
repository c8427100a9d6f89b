"""Density-matrix propagation with uniform recombination decay.

With equal singlet and triplet recombination rates the dissipator
commutes with the coherent part, so the solution of

    d rho / dt = -i [H, rho] - L_rec[rho]

factorises into a scalar decay times a unitary rotation:

    rho(t) = exp(-k_eff t) U(t) rho0 U(t)^dag,   U(t) = V exp(-i lambda t) V^dag.

The propagator stores the eigendecomposition (lambda, V) of H once, per exact
block of H (below); every expectation value and every time average is then
evaluated in the eigenbasis.  Uniform time grids additionally admit a closed-form mean
over samples (a geometric series per eigenvalue pair), which is what the
field sweeps use: it is algebraically identical to averaging the sampled
series, independent of the grid length.

The closed-form mean uses the structure of the model: rho0 = |s><s| x
I/d_nuc has rank d_nuc = d/4, and every averaged observable is a 4x4
electron-pair matrix o x I_nuc, which reads only some of the four electron
slabs of d/4 basis states each: S_z reads alpha alpha and beta beta, the
singlet projector alpha beta and beta alpha, S_x and S_y all four.  With r
the rows of the slabs read (d/2 for S_z or the projector, d with S_x), a
mean costs the state's product rho~ = W^T conj(W) (d x d/4 x d, half of it
as a real ``syrk``), d^2/2 weights and one r x d x d product V_r (rho~ o G),
on top of ``eigh`` and the reconstruction residual of
:func:`make_propagator`; no operator is taken to the eigenbasis.
``signal.integrated_observables`` asks only for the components the sensor
weights (d_ci != 0): S_z alone at theta = 0, S_x and S_z at phi = 0.  The
mean runs over the n = :func:`nyquist_samples` samples of the window, a
count that only this module picks.  With real eigenvectors and real operators
(every preset but fig5's Haar half) only Re G enters, in float64, and every
product is a real GEMM: d x d x d at a phi = 0 point, d/2 x d x d at an S_z
point.  Each weight costs a sine and a cosine, in row chunks of
``WEIGHT_CHUNK_ENTRIES``.

A time series reads the same state W and the same slab rows as the means,
per block of d_b levels (d_b = d, or d/2 per parity sector): M = rho~ o O~^T
is formed in d_b x r x d_b products over the r <= d_b slab rows that rho0 and
each operator read, and T uniform samples then cost T d_b^2 per
evaluated operator, plus one T_b x d_b phase table exp(-i lambda b dt) per
block and call (T_b <= ``SERIES_CHUNK`` rows), reused for every chunk of
samples after a d_b-phase shift.  Two sectors thus halve the series, T d^2/2
against T d^2.  ``signal.observable_series`` asks only for the components the
sensor weights (d_ci != 0) and checks that its grid resolves the spectrum; the
kernel reads exact samples on any uniform grid.  A transition projector
|psi><psi| costs T d^2 / 4 through the rank-d/4 state.  The dense rho0 of
:func:`initial_state` serves only the RK4 oracle.

The dtype of the Hamiltonian picks the arithmetic, and ``hamiltonian``'s builders
pick the dtype: float64 exactly when no local term has an imaginary entry (every
shipped system at phi = 0 in its molecular frame).  A float64 H is diagonalised as a
real symmetric matrix by LAPACK's ``dsyevd`` (numpy), and its eigenvectors stay real.
At one BLAS thread ``dsyevd`` takes 6.0 against 16.7 ms for ``zheevd`` at
d = 216 and 170 against 972 ms at d = 864, and scipy's real ``evd`` and
``evr`` are no faster beyond the timing spread at any measured d
(BENCH_10.json, ``bench/kernels.py --set real``).  For a complex128
Hamiltonian ``eigh`` is the divide-and-conquer ``zheevd``
(numpy) below ``EVR_MIN_DIM`` and the faster MRRR driver ``zheevr`` (scipy;
Dhillon, Parlett & Voemel, ACM TOMS 32, 533 (2006)) from there on.  MRRR
keeps tight clusters less orthogonal, which the residual cannot see, so
every propagator, real or complex, also checks V^dag (V x) = x on fixed
probe vectors.  The drivers agree to rounding, not bit for bit.

With the field on z and no tensor entry coupling z to x or y (every shipped
system at theta = 0 in its molecular frame), H commutes with the pi rotation about
z of all spins and splits exactly into two parity sectors of d/2 states, which
``signal.solve_pair`` hands over (``strongcoupling`` does not).  At every d, ``eigh``
then runs per sector, and the propagator holds one eigen-block per sector,
its d/2 rows and its own d/2 x d/2 V: d^2/2 eigenvector entries in all, none between
sectors.  The means form d^2/4 weights per sector; the state has d/8 nonzero rows in
each, and S_z reads d/4 of its d/2 rows, so the largest product is d/4 x d/2 x d/2 per
sector, d^3/8 in all against d^3/2 for one block of all d rows.  A time series runs per
sector too (above).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import NumericalError, PhysicsError
from .hamiltonian import InitialElectronState
from .spincore import SpinSystemLayout

_SQRT2 = np.sqrt(2.0)

#: fewest samples of a closed-form mean, a power of two
MIN_SAMPLES = 4096

#: most time samples per block of a time-series evaluation
SERIES_CHUNK = 2048

#: most complex entries of one block's product in a time series (8 MB)
SERIES_BLOCK_ENTRIES = 1 << 19

#: most entries of one row chunk of the closed-form weights (128 kB as complex)
WEIGHT_CHUNK_ENTRIES = 1 << 13

#: smallest dimension of a complex H diagonalised by ``zheevr`` rather than ``zheevd``; a real
#: H takes ``dsyevd`` at every d.  BENCH_6.json (``bench/kernels.py --set complex``, one BLAS
#: thread): 68 against 97 ms at d = 432, 555 against 883 ms at d = 864; overlapping quartiles
#: at d = 288, zheevd faster at d <= 216.
EVR_MIN_DIM = 432

#: probe vectors of the orthogonality check in :func:`make_propagator`
PROBE_VECTORS = 4

#: the electron slabs alpha beta and beta alpha, the only ones where |S0> and |T0> have weight
_HELD_SLABS = np.arange(1, 3)
_HELD_SLABS.setflags(write=False)


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
class EigenBlock:
    """One exact block of a Hermitian generator: its basis states ``rows`` and its levels
    (rad/s), both ascending, and its own d_b x d_b V on those rows, column n for level n;
    V is float64 when the generator was (see :func:`make_propagator`), else complex128.
    """

    rows: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class Propagator:
    """The eigen-blocks of a Hermitian generator plus a uniform decay rate.

    ``blocks`` covers the basis once: one block of all d rows for an H diagonalised whole,
    one per parity sector of an H that splits exactly.  ``decay_rate`` is the effective
    trace-decay rate k_eff in 1/s (already doubled for the rate_2k convention).
    """

    blocks: tuple[EigenBlock, ...]
    decay_rate: float

    @property
    def dim(self) -> int:
        return sum(b.rows.shape[0] for b in self.blocks)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every level of every block in ascending order, rad/s."""
        return np.sort(np.concatenate([b.eigenvalues for b in self.blocks]))

    @property
    def spectral_spread(self) -> float:
        """Largest eigenvalue gap max(lambda) - min(lambda), rad/s."""
        if self.dim == 0:
            return 0.0
        top = max(b.eigenvalues[-1] for b in self.blocks)
        return float(top - min(b.eigenvalues[0] for b in self.blocks))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix.

    The dtype of ``h`` picks the arithmetic.  A real matrix goes to ``dsyevd``
    (numpy), with real eigenvectors.  A complex one goes to ``zheevd`` (numpy)
    below ``EVR_MIN_DIM`` and to ``zheevr`` (scipy) from it on, even where its
    imaginary part is zero.  The eigenvectors are C-ordered either way: scipy
    returns them Fortran-ordered, and the means' row reshapes would copy them.
    """
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


def make_propagator(h: np.ndarray, k_eff: float, sectors: tuple | None = None) -> Propagator:
    """Diagonalise a Hermitian Hamiltonian and attach the decay rate.

    ``k_eff`` is the trace-decay rate, already resolved for the decay
    convention (``RadicalPairConfig.effective_decay_rate``).  Rejects
    non-Hermitian input and aborts when the reconstruction residual
    exceeds 1e-8 * ||H|| or when ||V^dag (V x) - x|| exceeds 1e-8 on any
    probe vector.  The residual is blind to a loss of orthogonality
    among eigenvectors of eigenvalues near zero (V = Q (I + E) changes it
    only by Q (E Lambda + Lambda E^dag) Q^dag); the O(d^2) probe sees it.
    The dtype of ``h`` picks the arithmetic: a float64 generator (as
    ``hamiltonian``'s builders return one whenever no local term has an
    imaginary entry) is diagonalised in real arithmetic and gets real
    eigenvectors, a complex one in complex arithmetic; the three checks and
    their bounds are the same for either dtype.

    ``sectors`` (internal; ``spincore.parity_sectors`` of the layout) lets a generator
    whose (Hermitian) even x odd block is exactly zero be diagonalised per sector, each
    block keeping what ``eigh`` returned.  The blocks'
    residuals, and per probe vector their probe norms, combine to the whole one.
    """
    h = np.asarray(h)
    if not k_eff >= 0:  # NaN fails too
        raise PhysicsError(f"decay rate must be >= 0, got {k_eff}")
    hnorm = np.linalg.norm(h)
    if not np.isfinite(hnorm):  # the bounds below scale with ||H||, so none could fire
        raise NumericalError(f"||H|| = {hnorm} is not finite")
    if hnorm > 0 and np.linalg.norm(h - h.conj().T) > 1e-10 * hnorm:
        raise PhysicsError("propagator generator must be Hermitian")
    d = h.shape[0]
    parts = (np.arange(d),)
    if sectors is not None:
        even, odd = sectors
        # a general H shows a nonzero in the first even row, so most tests read only that row
        if not h[even[0]].take(odd).any() and not h.take(even, 0).take(odd, 1).any():
            parts = sectors
    x = _probe_vectors(d)
    blocks, residual, loss = [], 0.0, 0.0
    for rows in parts:
        part, xb = (h, x) if len(parts) == 1 else (h.take(rows, 0).take(rows, 1), x[rows])
        w, v = _eigh(part)
        residual = np.hypot(residual, np.linalg.norm((v * w) @ v.conj().T - part))
        back = (v.T @ (v @ xb).conj()).conj()  # V^dag V x without a conjugated copy of V
        loss = np.hypot(loss, np.linalg.norm(back - xb, axis=0))
        blocks.append(EigenBlock(rows, w, v))
    if hnorm > 0 and residual > 1e-8 * hnorm:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-8 * ||H|| = {1e-8 * hnorm:.3e}"
        )
    loss = np.max(loss)
    if loss > 1e-8:
        raise NumericalError(f"eigenvector orthogonality loss {loss:.3e} exceeds 1e-8")
    return Propagator(blocks=tuple(blocks), decay_rate=k_eff)


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    """Spacing of a uniform 1-D grid, its span over n - 1; ValueError otherwise."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape[0] < 2:
        raise ValueError("time grid must be a 1-D array with at least two samples")
    dt = (t_grid[-1] - t_grid[0]) / (t_grid.shape[0] - 1)
    if np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * abs(dt):
        raise ValueError("time grid must be uniform")
    return float(dt)


def _phase_blocks(lam: np.ndarray, t_grid: np.ndarray, columns: int):
    """Yield (lo, table, shift), exp(-i lam t_{lo+b}) = table[b] * shift, on a uniform grid.

    The table exp(-i lam b dt) is built once per call, the shift
    exp(-i lam t_lo) once per block.  A block has at most ``SERIES_CHUNK``
    rows, fewer where ``columns`` entries per row exceed ``SERIES_BLOCK_ENTRIES``.
    """
    dt = _check_uniform_grid(t_grid)
    n = t_grid.shape[0]
    rows = max(1, min(SERIES_CHUNK, SERIES_BLOCK_ENTRIES // max(columns, 1), n))
    table = np.exp(np.outer(np.arange(rows) * dt, -1j * lam))
    for lo in range(0, n, rows):
        yield lo, table[: n - lo], np.exp(-1j * lam * t_grid[lo])


def _expectation_series(
    prop: Propagator, state: InitialElectronState, electron_ops: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """<o_m x I_nuc>(t) on a uniform grid (else ValueError), shape (n_ops, n_t).

    ``electron_ops`` are 4x4 operators on the two electrons, shape (n_ops, 4, 4);
    rho0 = |s><s| x I/d_nuc for the electron state ``state``.  Per block of ``prop``,
    <O>(t) = Re sum_nj p_n M_nj conj(p_j) exp(-k t) with p = exp(-i lambda t) and
    M_nj = rho~_nj O~_jn, where rho~ = W^T conj(W) / d_nuc (W from :func:`_state_factor`)
    and O~ = sum_ab o_ab V4[a]^dag V4[b] over the slab rows that the operators read
    (:func:`_slab_plan`): rho~ vanishes between blocks.  Per chunk of samples the start
    phases D are folded into each M as D M D^dag, one GEMM takes the block's phase table
    against the stacked M (d_b x n_ops d_b), and a row-wise dot with the conjugate table
    ends each sample.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ops = np.asarray(electron_ops)
    _, whole, parity = _slab_plan(ops.shape, ops.dtype.str, ops.tobytes())
    groups = whole if len(prop.blocks) == 1 else parity
    d_nuc, m = prop.dim // 4, ops.shape[0]
    out = np.zeros((m, t_grid.shape[0]))
    for block in prop.blocks:
        w = _state_factor(block, state, d_nuc)
        d_b = w.shape[1]
        mats = np.zeros((m, d_b, d_b), dtype=complex)  # O~^T, per operator
        for group, ops_g in groups:
            vs = _slab_rows(block, group, d_nuc)
            y = ops_g.reshape(m, len(group), -1) @ vs.reshape(len(group), -1)  # (o x I) V4
            mats += y.reshape(m, -1, d_b).transpose(0, 2, 1) @ vs.reshape(-1, d_b).conj()
        # mats[n, m, j] = O~_m,jn rho~_nj d_nuc
        mats = np.ascontiguousarray((mats * (w.T @ w.conj())).transpose(1, 0, 2))
        for lo, table, shift in _phase_blocks(block.eigenvalues, t_grid, m * d_b):
            folded = (shift[:, None, None] * mats * shift.conj()).reshape(d_b, m * d_b)
            y = (table @ folded).view(float).reshape(-1, m, 2 * d_b)
            # Re sum_j y_bmj conj(table_bj): a real dot over the (re, im) pairs
            dots = np.matmul(y, table.view(float)[:, :, None])
            out[:, lo : lo + len(table)] += dots[:, :, 0].T
    out *= np.exp(-prop.decay_rate * t_grid) / d_nuc
    return out


def _state_factor(block: EigenBlock, state: InitialElectronState, d_nuc: int) -> np.ndarray:
    """W = sum_a s_a conj(V4[a]) within one eigen-block, shape (r, d_b).

    V4[a] are the block's eigenvector rows in electron slab a
    (:func:`_slab_rows`), r nuclear states each; for a whole V, r = d_nuc and
    d_b = d.  For rho0 = |s><s| x I/d_nuc the block's eigenbasis state is
    rho~ = W^T conj(W) / d_nuc.  W is real when V is.
    """
    vw = _slab_rows(block, _HELD_SLABS, d_nuc)
    s = electron_pair_state(state)[_HELD_SLABS]
    return (s @ vw.reshape(len(s), -1)).reshape(vw.shape[1:]).conj()


def _projector_series(
    prop: Propagator, state: InitialElectronState, coeffs: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """<|psi><psi|>(t) for each column c = V^dag psi of ``coeffs``, shape (n_cols, n_t).

    rho0 = |s><s| x I/d_nuc for the electron state ``state``.  With W from
    :func:`_state_factor`, <P>(t) = exp(-k t) / d_nuc * ||W diag(p(t)) conj(c)||^2,
    p = exp(-i lambda t), V the eigenvectors of ``prop``, one block.  Per chunk one GEMM
    takes the phase table against Z[m, (a, c)] = W_am conj(c_m) shift_m
    (d x d_nuc n_cols): a quarter of the work of the full projectors c c^dag.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    (block,) = prop.blocks
    w = _state_factor(block, state, prop.dim // 4)
    d_nuc, d = w.shape
    n_cols = coeffs.shape[1]
    z = w.T[:, :, None] * coeffs.conj()[:, None, :]  # (d, d_nuc, n_cols)
    out = np.empty((n_cols, t_grid.shape[0]))
    for lo, table, shift in _phase_blocks(block.eigenvalues, t_grid, d_nuc * n_cols):
        a = (table @ (shift[:, None, None] * z).reshape(d, -1)).view(float)
        norms = np.square(a).reshape(-1, d_nuc, 2 * n_cols).sum(axis=1)
        norms = norms.reshape(-1, n_cols, 2).sum(axis=2)
        out[:, lo : lo + len(table)] = norms.T
    out *= np.exp(-prop.decay_rate * t_grid) / d_nuc
    return out


def _geometric_mean_weights(
    lam: np.ndarray, k: float, dt: float, n: int, real: bool = False
) -> np.ndarray:
    """G_nm = (1/n) sum_{j=0}^{n-1} z_nm^j, z_nm = exp((-k - i omega_nm) dt), for levels ``lam``.

    G is Hermitian; with ``real`` only Re G is formed, in float64.  It is
    filled in chunks of rows [lo, hi) against the columns [lo, m), each
    mirrored into the rows below, so that a temporary holds at most about
    ``WEIGHT_CHUNK_ENTRIES`` entries.  A chunk evaluates its square
    [lo, hi) x [lo, hi) from both sides and keeps the mean of the two
    triangles.  An entry is (z^n - 1) / expm1(x) / n with x = -k dt + i phi,
    phi = (lambda_m - lambda_n) dt, and expm1(x) = expm1(-k dt)
    - 2 exp(-k dt) (s^2 - i s c), s = sin(phi / 2), c = cos(phi / 2): its
    real part sums two terms of one sign, so near-degenerate levels keep
    their relative accuracy.  With T = n dt and k T >= 1 the numerator is
    the outer product z_nm^n - 1 = exp(-k T) p_n conj(p_m) - 1 of the phases
    p = exp(-i lambda T).  Since |z^n| = exp(-k T), forming it adds a
    relative error of at most about (1 + 4 exp(-k T) / (1 - exp(-k T))) eps:
    3.3 eps at k T = 1 and 1.03 eps at the default T = 5/k, on top of the
    rounding of the phase arguments that expm1(n x) carries too.  Below
    k T = 1 that bound grows like 1/(k T), and the numerator is expm1(n x)
    in the same half-angle form.  Where expm1(x) vanishes (k = 0 and exactly
    degenerate levels) every z^j is 1, and so is the weight.
    """
    m = lam.shape[0]
    k_dt, k_t = k * dt, k * dt * n
    den_0, den_s = n * np.expm1(-k_dt), -2.0 * n * np.exp(-k_dt)
    num_0, decay = np.expm1(-k_t), np.exp(-k_t)
    vanishing = abs(den_0) < n * 1e-300  # else |expm1(x)| >= |expm1(-k dt)| everywhere
    if k_t >= 1.0:
        p = np.exp(-1j * (n * dt) * lam)
        p_k, p_c = decay * p, p.conj()
    out = np.empty((m, m), dtype=float if real else complex)
    rows = max(1, WEIGHT_CHUNK_ENTRIES // max(m, 1))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        half = lam[lo:] - lam[lo:hi, None]
        half *= 0.5 * dt
        if k_t >= 1.0:
            g = np.multiply.outer(p_k[lo:hi], p_c[lo:])
            g -= 1.0
        else:
            g = _expm1_half_angle(half * n, num_0, -2.0 * decay)
        den = _expm1_half_angle(half, den_0, den_s)
        if vanishing:
            zero = np.abs(den) < n * 1e-300
            den[zero] = g[zero] = 1.0
        g /= den
        w = hi - lo
        square = g[:, :w]  # holds both triangles: their mean is exactly Hermitian
        square += square.T.conj()
        square *= 0.5
        if real:
            g = g.real
        out[lo:hi, lo:] = g
        if hi < m:
            out[hi:, lo:hi] = g[:, w:].T.conj()
    return out


def _expm1_half_angle(half: np.ndarray, re: float, scale: float) -> np.ndarray:
    """re + scale (s^2 - i s c), s = sin(half), c = cos(half).

    With re = f expm1(a) and scale = -2 f exp(a) for a real a, this is
    f expm1(a + 2i half).
    """
    s = np.sin(half)
    out = np.empty(half.shape, dtype=complex)
    np.multiply(s, s, out=out.real)
    out.real *= scale
    out.real += re
    np.cos(half, out=out.imag)
    out.imag *= s
    out.imag *= -scale
    return out


def _slab_rows(block: EigenBlock, slabs: np.ndarray, d_nuc: int) -> np.ndarray:
    """The block's eigenvector rows in each electron slab of ``slabs``, shape (len(slabs), r, d_b).

    Slab a holds the basis states a d_nuc to (a + 1) d_nuc - 1: the contiguous
    run of the block's ascending rows from searchsorted(rows, a d_nuc).  In a
    parity block, slabs of equal parity (alpha alpha and beta beta, or alpha
    beta and beta alpha) hold the same r nuclear states, in the same order.
    A view when ``slabs`` form a range.
    """
    v = block.eigenvectors
    bounds = block.rows.searchsorted(np.arange(0, 5 * d_nuc, d_nuc))
    lo, hi = slabs[0], slabs[-1] + 1
    if hi - lo == len(slabs):
        return v[bounds[lo] : bounds[hi]].reshape(len(slabs), -1, v.shape[1])
    return np.stack([v[bounds[a] : bounds[a + 1]] for a in slabs])


@lru_cache(maxsize=32)
def _slab_plan(shape: tuple, dtype: str, data: bytes) -> tuple:
    """What ``electron_ops`` (given by shape, dtype and bytes) read, per kind of block.

    Returns (real, whole, parity): ``real`` when every operator is real;
    and, for a whole and for a parity block, the groups of slabs that pair,
    each with the operators' entries between them, shape
    (n_ops, len(group) ** 2).  In a parity block a slab pairs only with
    slabs of its own parity.  Cached, read-only.
    """
    ops = np.frombuffer(data, dtype=dtype).reshape(shape)
    real = not np.imag(ops).any()
    ops = ops.real if real else ops
    reads = ops.any(axis=0)
    slabs = np.flatnonzero(reads.any(axis=0) | reads.any(axis=1))

    def groups(parts):
        return tuple((g, ops[:, g[:, None], g].reshape(len(ops), -1)) for g in parts if g.size)

    whole = groups([slabs])
    parity = groups([slabs[np.isin(slabs, pair)] for pair in ((0, 3), (1, 2))])
    for a in (a for group in whole + parity for a in group):
        a.setflags(write=False)
    return real, whole, parity


def _expectation_means(
    prop: Propagator,
    state: InitialElectronState,
    electron_ops: np.ndarray,
    t_max: float,
) -> np.ndarray:
    """Mean over n uniform samples of <o_m x I_nuc>(t_j), t_j = j dt, dt = t_max / n.

    n is :func:`nyquist_samples` of ``prop`` and ``t_max``.  ``electron_ops``
    are 4x4 operators on the two electrons, shape (n_ops, 4, 4); rho0 =
    |s><s| x I/d_nuc for the electron state ``state``; rho~ = W^T conj(W) /
    d_nuc with W from :func:`_state_factor` and V4[a] V's rows in slab a
    (:func:`_slab_rows`).  The mean of O = o x I_nuc is
    Tr(O V (rho~ o G) V^dag) = Re sum_ab o_ab E_ab, where
    E_ab = sum_kn conj(V4[a, k, n]) Y4[b, k, n] and Y = V (rho~ o G).

    Only the rows of Y in the electron slabs that some o reads are formed
    (S_z reads alpha alpha and beta beta, the singlet projector alpha beta
    and beta alpha, S_x and S_y all four), per block of ``prop`` only that
    block's rows: rho0 keeps the parity of its basis states, so rho~ is zero
    between blocks, and so is E_ab between slabs of opposite parity.  With
    real V and real operators only Re(rho~ o G) = rho~ o Re G enters, and
    every product is a real GEMM.
    """
    ops = np.asarray(electron_ops)
    real_ops, whole, parity = _slab_plan(ops.shape, ops.dtype.str, ops.tobytes())
    groups = whole if len(prop.blocks) == 1 else parity
    d_nuc = prop.dim // 4
    n = nyquist_samples(prop, t_max)
    dt = t_max / n
    out = np.zeros(ops.shape[0])
    for block in prop.blocks:
        real = real_ops and not np.iscomplexobj(block.eigenvectors)
        w = _state_factor(block, state, d_nuc)
        rho_g = _geometric_mean_weights(block.eigenvalues, prop.decay_rate, dt, n, real)
        rho_g *= w.T @ w if real else w.T @ w.conj()
        for group, ops_g in groups:
            vs = _slab_rows(block, group, d_nuc)
            y = vs.reshape(-1, vs.shape[2]) @ rho_g
            e = vs.reshape(len(group), -1).conj() @ y.reshape(len(group), -1).T
            out += np.real(ops_g @ e.ravel())
    out /= d_nuc
    return out


def nyquist_samples(prop: Propagator, t_max: float) -> int:
    """Smallest power-of-two count, at least MIN_SAMPLES, resolving the spectral spread."""
    spread = prop.spectral_spread
    n = MIN_SAMPLES
    if spread > 0:
        required = int(np.ceil(1.05 * t_max * spread / np.pi)) + 1
        n = max(n, required)
    return 1 << (n - 1).bit_length()


def singlet_yield_mean(prop: Propagator, state: InitialElectronState, t_max: float) -> float:
    """phi_s = k dt sum_j Tr[rho(t_j) P_S], t_j = j dt, dt = t_max / n, k = prop.decay_rate.

    The rate-weighted singlet yield from rho0 = |state><state| x I/d_nuc,
    summed in closed form over n = :func:`nyquist_samples` samples: k t_max
    times their mean (n dt = t_max exactly, n being a power of two).
    ``t_max`` should reach at least five lifetimes; the truncation error is
    then below exp(-5).
    """
    mean = _expectation_means(prop, state, electron_singlet_projector()[None], t_max)[0]
    return float(prop.decay_rate * t_max * mean)
