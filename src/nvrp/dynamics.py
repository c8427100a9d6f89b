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

Both time series read exact samples on any uniform grid of T samples.  An expectation
value is a sum of K = sum_b d_b (d_b - 1) / 2 level-pair exponentials per operator (d_b = d,
or d/2 per parity sector; :func:`_pair_terms`), which :func:`_phase_sums` evaluates by FFT:
each pair's phase step is binned to the nearest frequency of an N-point transform (N the
smallest power of two >= T) and the rest is a Taylor series of P orders derived from T (22
at fig4a's 32768 samples): P (K + N log N) work per operator in O(T + K) memory, within a
few (max bin count + log2 N) eps sum |c| of the exact sum.  fig4a's trace takes about 13 ms
against 91 ms for the T K phase products as GEMMs.  The transforms do not shrink with d, so
at d = 12 a trace is x1.6 to x2.9 slower than those products were (``BENCH_31.json``); no
shipped trace runs below d = 216.  A transition projector (:func:`_projector_series`, fig6c's 128
contrasts) is a squared norm over d_nuc states per column, not a pair sum of few terms, so
it stays one real GEMM per chunk of the grid against Z = W^T o conj(c), in at most
``SERIES_BLOCK_ENTRIES`` float64 entries (2 MB) per chunk.  ``signal.observable_series``
asks only for the components the sensor weights (d_ci != 0) and checks that its grid
resolves the spectrum.  One fig6c contrast call peaks at 5.5 MB of tracemalloc, one fig4a
trace at 3.3 MB with its ``eigh``.  The dense rho0 of :func:`initial_state` serves only the
RK4 oracle.

The dtype of the Hamiltonian picks the arithmetic, and ``hamiltonian``'s builders
pick the dtype: float64 exactly when no local term has an imaginary entry (every
shipped system at phi = 0 in its molecular frame).  numpy's ``eigh`` diagonalises every
H at every d: a float64 H as a real symmetric matrix by LAPACK's divide-and-conquer
``dsyevd``, with real eigenvectors, and a complex128 one by ``zheevd``.  At one BLAS
thread ``dsyevd`` takes 6.0 against 16.7 ms for ``zheevd`` at d = 216 and 170 against
972 ms at d = 864 (BENCH_10.json).  The residual cannot see orthogonality lost among
eigenvectors of near-zero eigenvalues, so every propagator also checks V^dag (V x) = x
on fixed probe vectors.

With the field on z and no tensor entry coupling z to x or y (every shipped
system at theta = 0 in its molecular frame), H commutes with the pi rotation about
z of all spins and splits exactly into two parity sectors of d/2 states, which
``hamiltonian._assemble`` finds on the local terms and fills directly when ``signal``
asks (``strongcoupling`` and the oracle do not).  At every d, ``eigh`` then runs per
sector, and the propagator holds one eigen-block per sector, its d/2 rows and its own
d/2 x d/2 V: d^2/2 eigenvector entries in all, none between sectors.  The means form
d^2/4 weights per sector; the state has d/8 nonzero rows in each, and S_z reads d/4 of
its d/2 rows, so the largest product is d/4 x d/2 x d/2 per sector, d^3/8 in all
against d^3/2 for one block of all d rows.  A time series has d^2/4 pairs instead of
d^2/2 with two sectors (above).

Sweeps run in batches of at most ``signal.BATCH_ENTRIES`` entries of H (455 points at
d = 12, 50 at d = 36, one from d = 216 on), each of one dtype and one block structure.
:func:`make_propagator` takes the blocks of such a stack, diagonalises them by one
stacked ``eigh`` per block, and holds every matrix to its own ||H_p|| in the
Hermiticity, residual and probe checks, with the bounds of a single H.  The means take
only such a batch: the sample counts, the weights and the slab products run over its
N points as stacked arithmetic, and one propagator enters them as a batch of one
(``prop[None]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import NumericalError, PhysicsError
from .hamiltonian import InitialElectronState
from .spincore import SpinSystemLayout

_SQRT2 = np.sqrt(2.0)

#: fewest samples of a closed-form mean, a power of two
MIN_SAMPLES = 4096

#: most time samples per chunk of a projector series (:func:`_projector_series`)
SERIES_CHUNK = 512

#: most float64 entries of one projector-series chunk's table, phases, lhs and product (2 MB)
SERIES_BLOCK_ENTRIES = 1 << 18

#: most entries of one row chunk of the closed-form weights (128 kB as complex)
WEIGHT_CHUNK_ENTRIES = 1 << 13

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
    trace-decay rate k_eff in 1/s (already doubled for the rate_2k convention).  A batch
    of N generators on the same blocks holds a leading axis of N in every block's
    eigenvalues and eigenvectors; ``prop[i]`` is its i-th point, and ``prop[None]`` one
    propagator as a batch of one.
    """

    blocks: tuple[EigenBlock, ...]
    decay_rate: float

    def __getitem__(self, i) -> "Propagator":
        blocks = (EigenBlock(b.rows, b.eigenvalues[i], b.eigenvectors[i]) for b in self.blocks)
        return Propagator(blocks=tuple(blocks), decay_rate=self.decay_rate)

    @property
    def dim(self) -> int:
        return sum(b.rows.shape[0] for b in self.blocks)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every level of every block in ascending order, rad/s (per point of a batch)."""
        return np.sort(np.concatenate([b.eigenvalues for b in self.blocks], axis=-1), axis=-1)

    @property
    def spectral_spread(self):
        """Largest eigenvalue gap max(lambda) - min(lambda), rad/s (per point of a batch)."""
        top = np.max([b.eigenvalues[..., -1] for b in self.blocks], axis=0)
        return top - np.min([b.eigenvalues[..., 0] for b in self.blocks], axis=0)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a stack (N, d, d) of Hermitian matrices.

    numpy's ``eigh``: ``dsyevd`` for float64, with real eigenvectors, and ``zheevd`` for
    complex128, once per matrix.  The one name through which every diagonalisation runs,
    so that a test can substitute a corrupted decomposition.
    """
    return np.linalg.eigh(h)


@lru_cache(maxsize=8)
def _probe_vectors(d: int) -> np.ndarray:
    """Fixed real unit vectors, shape (d, PROBE_VECTORS), Gaussian with seed 0; read-only."""
    x = np.random.default_rng(0).standard_normal((d, PROBE_VECTORS))
    x /= np.linalg.norm(x, axis=0)
    x.setflags(write=False)
    return x


def make_propagator(h: np.ndarray | list, k_eff: float) -> Propagator:
    """Diagonalise a Hermitian Hamiltonian, or a stack (N, d, d) of them, and attach the decay rate.

    ``h`` is a matrix, a stack, or the exact blocks of a stack as a list of (rows, stack)
    pairs (``hamiltonian._assemble``, which alone decides a split), diagonalised block by
    block; the list is emptied meanwhile, so a block no caller holds is freed before the
    next ``eigh``.  ``k_eff`` is the trace-decay rate, already resolved for the decay
    convention (``RadicalPairConfig.effective_decay_rate``).  Rejects
    non-Hermitian input and aborts when the reconstruction residual
    exceeds 1e-8 * ||H|| or when ||V^dag (V x) - x|| exceeds 1e-8 on any
    probe vector.  The residual is blind to a loss of orthogonality
    among eigenvectors of eigenvalues near zero (V = Q (I + E) changes it
    only by Q (E Lambda + Lambda E^dag) Q^dag); the O(d^2) probe sees it.
    ||H||, the Hermiticity error, the residual and each probe norm combine over the blocks
    in quadrature to the whole matrix's.  The dtype of ``h`` picks the arithmetic: a float64
    generator (as ``hamiltonian``'s builders return one whenever no local term has an
    imaginary entry) is diagonalised in real arithmetic (``dsyevd``) and gets
    real eigenvectors, a complex one in complex arithmetic (``zheevd``), at
    every d; the three checks and their bounds are the same for either dtype.
    A stack gives a batch (:class:`Propagator`), each matrix held to its own ||H_p||.
    """
    if not isinstance(h, list):
        h = np.asarray(h)
        if h.ndim == 2:
            return make_propagator(h[None], k_eff)[0]
        h = [(np.arange(h.shape[-1]), h)]
    if not k_eff >= 0:  # NaN fails too
        raise PhysicsError(f"decay rate must be >= 0, got {k_eff}")
    n = h[0][1].shape[0]
    hnorm = reduce(np.hypot, [np.linalg.norm(b.reshape(n, -1), axis=1) for _, b in h])
    if not np.all(np.isfinite(hnorm)):  # the bounds below scale with ||H||, so none could fire
        raise NumericalError(f"||H|| = {np.max(hnorm)} is not finite")  # numpy warned on it
    asymmetry = reduce(np.hypot, [_norms(b - b.conj().swapaxes(1, 2)) for _, b in h])
    if np.any((hnorm > 0) & (asymmetry > 1e-10 * hnorm)):
        raise PhysicsError("propagator generator must be Hermitian")
    x = _probe_vectors(sum(rows.size for rows, _ in h))
    blocks, residual, loss = [], 0.0, 0.0
    for rows, part in map(h.pop, [0] * len(h)):  # empties h block by block
        xb = x[rows]
        w, v = _eigh(part)
        residual = np.hypot(residual, _norms((v * w[:, None]) @ v.conj().swapaxes(1, 2) - part))
        back = (v.swapaxes(1, 2) @ (v @ xb).conj()).conj()  # V^dag V x, no conjugated copy of V
        loss = np.hypot(loss, np.linalg.norm(back - xb, axis=1))
        blocks.append(EigenBlock(rows, w, v))
    where = "" if n == 1 else f" at point {{}} of a batch of {n}"
    for i in np.flatnonzero((hnorm > 0) & (residual > 1e-8 * hnorm))[:1]:
        raise NumericalError(
            f"eigendecomposition residual {residual[i]:.3e} exceeds 1e-8 * ||H|| = "
            f"{1e-8 * hnorm[i]:.3e}" + where.format(i)
        )
    for i in np.flatnonzero(np.max(loss, axis=1) > 1e-8)[:1]:
        raise NumericalError(
            f"eigenvector orthogonality loss {np.max(loss[i]):.3e} exceeds 1e-8" + where.format(i)
        )
    return Propagator(blocks=tuple(blocks), decay_rate=k_eff)


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (N, d, d), with no temporary of the stack."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return np.sqrt(sum(np.einsum("nij,nij->n", x, x) for x in parts))


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    """Spacing of a uniform 1-D grid, its span over n - 1; ValueError otherwise."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape[0] < 2:
        raise ValueError("time grid must be a 1-D array with at least two samples")
    dt = (t_grid[-1] - t_grid[0]) / (t_grid.shape[0] - 1)
    if np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * abs(dt):
        raise ValueError("time grid must be uniform")
    return float(dt)


def _phase_sums(c: np.ndarray, omega: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Re sum_k c[:, k] exp(i omega_k t_j) on a uniform grid (else ValueError), shape (m, n_t).

    ``c`` has shape (m, K), ``omega`` (K,) in rad/s.  With t_j = t_0 + j dt and
    theta = omega dt taken into [-pi, pi] (exp(i j theta) has period 2 pi in theta), a
    term with theta < 0 becomes (conj c, -omega), so every theta lies in [0, pi].  Each is
    binned to l = round(theta N / 2 pi) on the smallest power of two N >= n_t, leaving
    |delta| <= pi / N, and exp(i j theta) = exp(2 pi i j l / N) exp(i j_c delta)
    exp(i x delta j_c) with j_c = (n_t - 1) / 2 and x = (j - j_c) / j_c in [-1, 1]; the
    phases of t_0 and of j_c delta go into the coefficients.  The last factor is its Taylor
    series to order P - 1: per operator and order p, two ``np.bincount`` calls bin the real
    and imaginary parts of c (i delta j_c)^p / p!, one Hermitian ``np.fft.irfft`` of N
    sums them, and x^p times its first n_t samples is added.  P is the smallest order with
    r^P e^r / P! <= eps, r = pi j_c / N < pi / 2, which bounds the remainder by
    eps sum_k |c_k|: 22 orders at fig4a's 32768 samples, 17 at T = 2.  m P (K + N log N)
    work in all, in O(n_t + K) memory beyond ``c`` and the result.
    """
    dt = _check_uniform_grid(t_grid)
    n = t_grid.shape[0]
    size, half = 1 << (n - 1).bit_length(), 0.5 * (n - 1)
    step = omega * dt
    step -= 2.0 * np.pi * np.rint(step / (2.0 * np.pi))
    flip = step < 0
    np.abs(step, out=step)
    index = np.rint(step * (size / (2.0 * np.pi)))
    step -= index * (2.0 * np.pi / size)
    step *= half  # delta j_c, |delta j_c| <= r
    index = index.astype(np.intp)
    # the phase of t_0 and j_c delta, halved: with both end bins doubled below, the
    # transform is 2 Re sum
    angle = np.where(flip, -omega, omega)
    angle *= t_grid[0]
    angle += step
    cos, sin = np.cos(angle), np.sin(angle, out=angle)
    cos *= 0.5
    sin *= 0.5
    r, orders = np.pi * half / size, 0
    tail = np.exp(r)
    while tail > np.finfo(float).eps:
        orders += 1
        tail *= r / orders
    x = (np.arange(n) - half) / half
    spectrum = np.empty(size // 2 + 1, dtype=complex)
    out = np.zeros((c.shape[0], n))
    for row, coeff in zip(out, c):
        # (re, im) = (conj) c times (cos, sin)
        re, im = coeff.real * cos, coeff.real * sin
        if np.iscomplexobj(coeff):
            imag = np.where(flip, -coeff.imag, coeff.imag)
            re -= imag * sin
            im += imag * cos
        power = np.ones(n)
        for p in range(orders):
            if p:  # times i delta j_c / p: (re, im) -> (-im, re) delta j_c / p
                re, im = im, re
                re *= step
                re *= -1.0 / p
                im *= step
                im *= 1.0 / p
                power *= x
            spectrum.real = np.bincount(index, re, spectrum.size)
            spectrum.imag = np.bincount(index, im, spectrum.size)
            spectrum[0] *= 2.0  # irfft counts l = 0 and N / 2 once, every other bin twice
            spectrum[-1] *= 2.0
            row += np.fft.irfft(spectrum, size, norm="forward")[:n] * power
    return out


def _expectation_series(
    prop: Propagator, state: InitialElectronState, electron_ops: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """<o_m x I_nuc>(t) on a uniform grid (else ValueError), shape (n_ops, n_t).

    ``electron_ops`` are 4x4 operators on the two electrons, shape (n_ops, 4, 4);
    rho0 = |s><s| x I/d_nuc for the electron state ``state``.  Per block of ``prop``,
    <O>(t) = exp(-k t) / d_nuc (sum_n M_nn + Re sum_{n<j} (M_nj + conj M_jn)
    exp(i (lambda_j - lambda_n) t)) (:func:`_pair_terms`); the pairs of every block and
    operator go through one :func:`_phase_sums`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ops = np.asarray(electron_ops)
    real, whole, parity = _slab_plan(ops.shape, ops.dtype.str, ops.tobytes())
    groups = whole if len(prop.blocks) == 1 else parity
    real = real and not any(np.iscomplexobj(b.eigenvectors) for b in prop.blocks)
    d_nuc = prop.dim // 4
    ends = np.cumsum([0] + [b.rows.shape[0] * (b.rows.shape[0] - 1) // 2 for b in prop.blocks])
    coeffs = np.empty((ops.shape[0], ends[-1]), dtype=float if real else complex)
    omegas, diagonal = np.empty(ends[-1]), np.zeros(ops.shape[0])
    for block, lo, hi in zip(prop.blocks, ends, ends[1:]):
        diagonal += _pair_terms(block, state, groups, d_nuc, coeffs[:, lo:hi], omegas[lo:hi])
    out = _phase_sums(coeffs, omegas, t_grid)
    out += diagonal[:, None]
    out *= np.exp(-prop.decay_rate * t_grid) / d_nuc
    return out


def _pair_terms(
    block: EigenBlock,
    state: InitialElectronState,
    groups: tuple,
    d_nuc: int,
    coeffs: np.ndarray,
    omegas: np.ndarray,
) -> np.ndarray:
    """One block's terms of :func:`_expectation_series`; returns sum_n M_nn per operator.

    M_nj = rho~_nj O~_jn d_nuc, with rho~ = W^T conj(W) / d_nuc (:func:`_state_factor`)
    and O~ = sum_ab o_ab V4[a]^dag V4[b] over the slab rows that the operators read
    (``groups`` of :func:`_slab_plan`): rho~ vanishes between blocks.  For the pairs
    n < j in row-major order, writes M_nj + conj M_jn into ``coeffs`` (n_ops,
    d_b (d_b - 1) / 2) and lambda_j - lambda_n into ``omegas``.  One operator's d_b x d_b
    M at a time.
    """
    w = _state_factor(block, state, d_nuc)
    rho = w.T @ w.conj()
    d_b = rho.shape[0]
    n, j = np.triu_indices(d_b, 1)
    np.subtract(block.eigenvalues[j], block.eigenvalues[n], out=omegas)
    slabs = [(ops_g, _slab_rows(block, g, d_nuc).reshape(len(g), -1)) for g, ops_g in groups]
    diagonal = np.empty(coeffs.shape[0])
    for i, row in enumerate(coeffs):
        mat = np.zeros((d_b, d_b), dtype=coeffs.dtype)
        for ops_g, vs in slabs:
            y = ops_g[i].reshape(vs.shape[0], -1) @ vs  # (o x I) V4
            mat += y.reshape(-1, d_b).T @ vs.reshape(-1, d_b).conj()
        mat *= rho
        np.add(mat[n, j], mat[j, n].conj(), out=row)
        diagonal[i] = np.trace(mat).real
    return diagonal


def _state_factor(block: EigenBlock, state: InitialElectronState, d_nuc: int) -> np.ndarray:
    """W = sum_a s_a conj(V4[a]) within one eigen-block, shape (r, d_b), or (N, r, d_b).

    V4[a] are the block's eigenvector rows in electron slab a
    (:func:`_slab_rows`), r nuclear states each; for a whole V, r = d_nuc and
    d_b = d.  For rho0 = |s><s| x I/d_nuc the block's eigenbasis state is
    rho~ = W^T conj(W) / d_nuc.  W is real when V is.
    """
    vw = _slab_rows(block, _HELD_SLABS, d_nuc)
    s = electron_pair_state(state)[_HELD_SLABS]
    lead = vw.shape[:-3]
    return (s @ vw.reshape(lead + (len(s), -1))).reshape(lead + vw.shape[-2:]).conj()


def _projector_series(
    prop: Propagator, state: InitialElectronState, coeffs: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """<|psi><psi|>(t) for each column c = V^dag psi of ``coeffs``, shape (n_cols, n_t).

    rho0 = |s><s| x I/d_nuc for the electron state ``state``.  With W from
    :func:`_state_factor`, <P>(t) = exp(-k t) / d_nuc * ||W diag(p(t)) conj(c)||^2,
    p = exp(-i lambda t) = cos - i sin, V the eigenvectors of ``prop``, one block.  The
    sums p^T Z run against Z[m, c, a] = W_am conj(c_m), d x n_cols x d_nuc: a quarter of
    the work of the full projectors c c^dag.  One real GEMM per chunk of the uniform grid
    (else ValueError) takes [cos; -sin] (2k x d) against Re Z, or [cos, sin; -sin, cos]
    (2k x 2d) against [Re Z; Im Z] where Z has a nonzero imaginary part; the real and
    imaginary parts of p^T Z are squared and added in place, then summed over d_nuc.  The
    table exp(-i lambda b dt) is built once per call and turned to each chunk's start by
    angle addition, into buffers that every chunk reuses.  A chunk has at most
    ``SERIES_CHUNK`` samples, fewer where its table, turned phases, lhs and product would
    hold more than ``SERIES_BLOCK_ENTRIES`` float64 entries.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_uniform_grid(t_grid)
    (block,), d_nuc = prop.blocks, prop.dim // 4
    lam, w = block.eigenvalues, _state_factor(block, state, d_nuc)
    z = coeffs.conj()[..., None] * w.T[:, None]
    stack = np.iscomplexobj(z) and z.imag.any()
    z = np.concatenate((z.real, z.imag)) if stack else np.ascontiguousarray(z.real)
    n, d, depth, cols = t_grid.shape[0], lam.shape[0], z.shape[0], z[0].size
    rows = max(1, min(SERIES_CHUNK, SERIES_BLOCK_ENTRIES // (4 * d + 2 * depth + 2 * cols), n))
    table = np.exp(np.outer(np.arange(rows) * dt, -1j * lam))
    phase_buf, lhs_buf = np.empty(rows * d, dtype=complex), np.empty(2 * rows * depth)
    prod_buf = np.empty(2 * rows * cols)
    out = np.zeros((coeffs.shape[1], n))
    for lo in range(0, n, rows):
        k = min(rows, n - lo)  # a shorter last chunk takes the buffers' contiguous heads
        phases, lhs = phase_buf[: k * d].reshape(k, d), lhs_buf[: 2 * k * depth].reshape(2, k, -1)
        prod = prod_buf[: 2 * k * cols].reshape((2, k) + z.shape[1:])
        np.multiply(table[:k], np.exp(-1j * lam * t_grid[lo]), out=phases)  # cos - i sin
        lhs[0, :, :d], lhs[1, :, :d] = phases.real, phases.imag
        if stack:
            np.negative(lhs[1, :, :d], out=lhs[0, :, d:])
            lhs[1, :, d:] = lhs[0, :, :d]
        np.matmul(lhs.reshape(2 * k, depth), z.reshape(depth, cols), out=prod.reshape(2 * k, cols))
        np.square(prod, out=prod)
        prod[0] += prod[1]
        out[:, lo : lo + k] += prod[0].sum(axis=2).T
    out *= np.exp(-prop.decay_rate * t_grid) / d_nuc
    return out


def _geometric_mean_weights(
    lam: np.ndarray, k: float, dt: np.ndarray, n: np.ndarray, real: bool = False
) -> np.ndarray:
    """G_nm = (1/n) sum_{j=0}^{n-1} z_nm^j, z_nm = exp((-k - i omega_nm) dt), for levels ``lam``.

    A batch: ``lam`` is (N, m) with a ``dt`` and an ``n`` per point, and G is
    (N, m, m).  G is Hermitian; with ``real`` only Re G is formed, in float64.
    It is filled in chunks of rows [lo, hi) against the columns [lo, m), each
    mirrored into the rows below, so that a temporary holds at most about
    ``WEIGHT_CHUNK_ENTRIES`` entries over the whole batch.  A chunk evaluates
    its square [lo, hi) x [lo, hi) from both sides and keeps the mean of the
    two triangles.  An entry is (z^n - 1) / expm1(x) / n with x = -k dt + i phi,
    phi = (lambda_m - lambda_n) dt, and expm1(x) = expm1(-k dt)
    - 2 exp(-k dt) (s^2 - i s c), s = sin(phi / 2), c = cos(phi / 2): its
    real part sums two terms of one sign, so near-degenerate levels keep
    their relative accuracy.  With T = n dt and k T >= 1 at every point (the
    points of a batch share T) the numerator is the outer product
    z_nm^n - 1 = exp(-k T) p_n conj(p_m) - 1 of the phases p = exp(-i lambda T).
    Since |z^n| = exp(-k T), forming it adds a relative error of at most about
    (1 + 4 exp(-k T) / (1 - exp(-k T))) eps:
    3.3 eps at k T = 1 and 1.03 eps at the default T = 5/k, on top of the
    rounding of the phase arguments that expm1(n x) carries too.  Below
    k T = 1 that bound grows like 1/(k T), and the numerator is expm1(n x)
    in the same half-angle form.  Where expm1(x) vanishes (k = 0 and exactly
    degenerate levels) every z^j is 1, and so is the weight.
    """
    b, m = lam.shape
    dt, n = (np.reshape(a, (-1, 1, 1)).astype(float) for a in (dt, n))  # against (b, rows, m)
    k_dt, k_t = k * dt, k * dt * n
    den_0, den_s = n * np.expm1(-k_dt), -2.0 * n * np.exp(-k_dt)
    num_0, decay = np.expm1(-k_t), np.exp(-k_t)
    vanishing = np.any(np.abs(den_0) < n * 1e-300)  # else |expm1(x)| >= |expm1(-k dt)|
    phases = bool(np.all(k_t >= 1.0))
    if phases:
        p = np.exp(-1j * (n * dt)[:, 0] * lam)
        p_k, p_c = decay[:, 0] * p, p.conj()
    out = np.empty((b, m, m), dtype=float if real else complex)
    rows = max(1, WEIGHT_CHUNK_ENTRIES // max(b * m, 1))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        half = lam[:, None, lo:] - lam[:, lo:hi, None]
        half *= 0.5 * dt
        if phases:
            g = p_k[:, lo:hi, None] * p_c[:, None, lo:]
            g -= 1.0
        else:
            g = _expm1_half_angle(half * n, num_0, -2.0 * decay)
        den = _expm1_half_angle(half, den_0, den_s)
        if vanishing:
            zero = np.abs(den) < n * 1e-300
            den[zero] = g[zero] = 1.0
        g /= den
        w = hi - lo
        square = g[:, :, :w]  # holds both triangles: their mean is exactly Hermitian
        square += square.swapaxes(1, 2).conj()
        square *= 0.5
        if real:
            g = g.real
        out[:, lo:hi, lo:] = g
        if hi < m:
            out[:, hi:, lo:hi] = g[:, :, w:].swapaxes(1, 2).conj()
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
    A view when ``slabs`` form a range.  A batch keeps its leading axis:
    (N, len(slabs), r, d_b).
    """
    v = block.eigenvectors
    bounds = block.rows.searchsorted(np.arange(0, 5 * d_nuc, d_nuc))
    lo, hi = slabs[0], slabs[-1] + 1
    if hi - lo == len(slabs):
        rows = v[..., bounds[lo] : bounds[hi], :]
        return rows.reshape(v.shape[:-2] + (len(slabs), -1, v.shape[-1]))
    return np.stack([v[..., bounds[a] : bounds[a + 1], :] for a in slabs], axis=-3)


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

    ``prop`` is a batch of N points, with n per point :func:`nyquist_samples` of
    ``prop`` and ``t_max``; the result has shape (N, n_ops).  ``electron_ops``
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
    every product is a real GEMM, stacked over the batch.
    """
    ops = np.asarray(electron_ops)
    real_ops, whole, parity = _slab_plan(ops.shape, ops.dtype.str, ops.tobytes())
    groups = whole if len(prop.blocks) == 1 else parity
    d_nuc = prop.dim // 4
    n = nyquist_samples(prop, t_max)
    dt = t_max / n
    b = n.shape[0]
    out = np.zeros((b, ops.shape[0]))
    for block in prop.blocks:
        real = real_ops and not np.iscomplexobj(block.eigenvectors)
        w = _state_factor(block, state, d_nuc)
        rho_g = _geometric_mean_weights(block.eigenvalues, prop.decay_rate, dt, n, real)
        rho_g *= w.swapaxes(1, 2) @ (w if real else w.conj())
        for group, ops_g in groups:
            vs = _slab_rows(block, group, d_nuc)
            y = vs.reshape(b, -1, vs.shape[-1]) @ rho_g
            e = vs.reshape(b, len(group), -1).conj() @ y.reshape(b, len(group), -1).swapaxes(1, 2)
            out += np.real(e.reshape(b, -1) @ ops_g.T)
    out /= d_nuc
    return out


def nyquist_samples(prop: Propagator, t_max: float) -> np.ndarray:
    """Smallest power-of-two count, at least MIN_SAMPLES, resolving the spectral spread.

    One count per point of the batch ``prop``, as float64 (which holds every power of two
    exactly).  A count that is not finite raises NumericalError.
    """
    spread = prop.spectral_spread
    with np.errstate(over="ignore"):  # an overflow is reported below
        required = np.ceil(1.05 * t_max * spread / np.pi) + 1
    # a finite count is below DBL_MAX / pi + 1 < 2^1023 (the product overflows before the
    # division), so the power of two above it is finite too
    if not np.all(np.isfinite(required)):
        raise NumericalError(
            f"the signal window T = {t_max:.3e} s over the spectral spread "
            f"{np.max(spread):.3e} rad/s needs a sample count that is not finite"
        )
    return np.ldexp(1.0, np.frexp(np.maximum(required, MIN_SAMPLES) - 1)[1])


def singlet_yield_mean(prop: Propagator, state: InitialElectronState, t_max: float) -> float:
    """phi_s = k dt sum_j Tr[rho(t_j) P_S], t_j = j dt, dt = t_max / n, k = prop.decay_rate.

    The rate-weighted singlet yield from rho0 = |state><state| x I/d_nuc,
    summed in closed form over n = :func:`nyquist_samples` samples: k t_max
    times their mean (n dt = t_max exactly, n being a power of two).
    ``t_max`` should reach at least five lifetimes; the truncation error is
    then below exp(-5).
    """
    mean = _expectation_means(prop[None], state, electron_singlet_projector()[None], t_max)
    return float(prop.decay_rate * t_max * mean[0, 0])
