"""Hierarchical integrator for the Drude-Lorentz spin-boson bath.

The bath correlation function is expanded over its Drude pole plus a
finite Matsubara comb; the remainder of the comb is folded into a
time-local correction applied to every tier. Auxiliary matrices are
kept in the renormalized convention (raising and lowering factors
sqrt((n_k+1)|c_k|) and sqrt(n_k/|c_k|)) so their entries stay O(1) and
the divergence guard only trips on genuine instability.

The full hierarchy is one linear, time-independent system x' = G x, so
a grid step is the fixed operator exp(G dt). G couples each auxiliary
only to its tier neighbours, is a fraction of a percent full and is
built only as a sparse matrix of its D^2 x D^2 blocks (scipy's BSR),
converted to CSR (int32 indices): each block row holds its auxiliary's
neighbours, which the enumeration of the occupations finds, and takes
their blocks from the distinct ones, the diagonal block of each
auxiliary and, for each mode and count, one raising and one lowering
block.
Every rate and the terminator are real and Q is Hermitian, so every
auxiliary stays Hermitian (Tanimura, J. Chem. Phys. 153, 020901, 2020)
and, in the basis I, sigma_x, sigma_y, sigma_z of each auxiliary, G is
a real matrix. G is built in that real Pauli form, each D^2 x D^2 block
converted by an exact congruence that refuses any nonzero imaginary
part; ``gen_heom`` steps it and maps the physical block back to the
|a><b| basis once, for all frames.
The frames exp(k G dt) come from one Chebyshev series of the sparse
G dt (``ChebyshevPlan``), planned once per hierarchy. Gershgorin discs
of its symmetric and skew parts, summed on the CSR arrays by scipy's
compiled kernels, bound the numerical range to a box; the series' foci
lie on the box's real axis, symmetric about its centre; the degree is
the least whose tail on the Bernstein ellipse around the box is below
double precision by the Crouzeix-Palencia bound (its terms from one
Bessel function and a recurrence for the ratios of the rest), and the
window of steps one series serves is the widest whose bound on the
series' rounding amplification stays within MAX_AMPLIFICATION. Foci
closer than the box's ends fit the ellipse to the box where the
exponential grows, so windows span more steps; the plan searches five
focal half-widths, from the box's half-width down to half of it, for
the one the work estimate finds cheapest, and takes none whose vectors
could grow past e^MAX_LOG_GROWTH. The series' value at the scalar the
conserved trace row takes divides each step, so that row does not
drift with the rounding of the coefficients. Where one
frame alone would exceed that bound, as at coarse steps, the plan is of
G dt / s for the fewest substeps s that keep it, and ``gen_heom`` steps
a grid s times finer and keeps every s-th frame. The vectors T_j(X) v
of the series do not depend on time, so one recurrence on the stacked
state gives every step of a window as a small combination of them. Each
vector is one call of scipy's compiled CSR kernel, which adds
2 X T_(j-1) in place to the slot holding -T_(j-2); it reads and writes
flat buffers, so the slots are C-contiguous float64 rows of one stack.
Only what is kept is combined: the physical D^2 x D^2 block of every
step, which becomes a frame, and the whole last step, which the next
window starts from. The divergence guard reads those; the inner steps'
other rows are covered by the plan's bound, which caps every entry of a
window's steps at (1 + sqrt 2) MAX_AMPLIFICATION times the largest
column norm of the state it starts from. A window that bound cannot
keep under the guard, or whose kept rows are over it or not finite, is
formed again in full so the guard names the first step over it. The
one-step series either forms the dense step, acting on blocks of
identity columns, after which all D^2 basis columns ride through one
dense product per step, or the windowed series acts on the N x D^2
stacked state with no dense step at all. The work estimate (in N,
the nonzeros, the window, the degrees and the number of steps) that
picks the plan's focus also picks the way, once, and the plan keeps it.
Dense generators, such as the Lindblad one, step through ``step_matrix``.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
# scipy's compiled CSR kernels, which its sparse operators end in: y += A x
# over the m columns of flat x and y (`@`), the transpose, sum and difference
from scipy.sparse._sparsetools import (csr_matvecs, csr_minus_csr, csr_plus_csr,
                                       csr_tocsc)
from scipy.special import ive

from .errors import ConfigurationError, DivergenceError
from .liouville import PAULI, spre, spost
from .models import bath_correlation_modes, matsubara_tail
from .trajectories import BasisTrajectorySet, TimeGrid

log = logging.getLogger(__name__)

DIVERGENCE_GUARD = 1e6

# B0: columns vec(I), vec(sigma_x), vec(sigma_y), vec(sigma_z), entries
# 0, +-1 or +-i, so B0 B0^H = 2 I exactly.
PAULI_BASIS = np.stack([m.reshape(-1) for m in (np.eye(2), *PAULI)], axis=1)

# Identity columns per application of the one-step series when forming
# the dense step: within 6 % of the fastest block up to DENSE_ROWS.
COLUMN_BLOCK = 64

# The largest amplification bound M a window of steps may have. The
# series combines vectors whose rounding it amplifies by at most M, so
# M <= 2^10 keeps a frame within about 2^-43 = 1.1e-13 of the exact
# exponential, relative to the state: the accuracy the dense step and
# the hierarchy's tests hold every frame to.
MAX_AMPLIFICATION = 2.0 ** 10
# log(2^-53 / (1 + sqrt 2)): the series' tail beyond its degree stays below
LOG_TAIL = -53 * math.log(2.0) - math.log1p(math.sqrt(2.0))
# The most log(rho^degree) a series may reach: its vectors grow like rho^j,
# and e^600 = 3.8e260 times a state within DIVERGENCE_GUARD stays finite.
MAX_LOG_GROWTH = 600.0

# Entries of the stacked state a window may span over all its frames
# (32 MB): this bounds the full frames a window is formed in when the
# guard falls back to them.
WINDOW_ENTRIES = 2 ** 22

# Chebyshev vectors combined into a window's kept rows per matrix product:
# the ring buffer of the recurrence, which needs at least 3 slots (T_j is
# formed in a slot of its own from those of T_(j-1) and T_(j-2)). Chunks
# of 8-32 step about as fast, and faster than holding every vector.
COMBINE_CHUNK = 16

# The most rows for which the work estimate costs a dense product at
# DENSE_WORK per entry: up to N = 512 the 8 N^2 bytes of the step fit a
# core's 2 MiB L2 cache. Above it the product runs from memory, at
# MEMORY_DENSE_WORK; so costed, the estimate takes windowed frames in
# every case with a window of more than one step timed at N = 660 and
# 880, where they were the faster way, and forms the dense step at
# N = 660, dt = 0.2 over 10^4 frames (window 9), where that was: 3.4 s
# against 4.0 s (whole gen_heom runs, minimum of 3, one BLAS thread).
DENSE_ROWS = 512

# Work units of the estimate that picks the plan's focus and the way to
# step (``_step_work``), about 0.75 ns each on one Xeon vCPU with one
# BLAS thread (least-squares fits over the benchmark hierarchies and
# N = 40 and 336). A vector of the recurrence on the N x 4 state costs
# one unit per nonzero and column plus CALL_OVERHEAD for the kernel's
# call; one on COLUMN_BLOCK identity columns, its combination included,
# BLOCK_WORK per nonzero and column; a dense product with the step
# DENSE_WORK per entry up to DENSE_ROWS rows and MEMORY_DENSE_WORK above;
# a coefficient of the window's series (scipy's ive) COEFFICIENT_WORK.
# Combining a vector into the window's kept rows (0.45 units per entry)
# and the kernel's call per block of identity columns are left out: over
# the benchmark hierarchies, the stepping tests' cases and a grid of
# couplings, depths, steps and frame counts, neither changes a focus or
# a way the estimate picks.
CALL_OVERHEAD = 3000
BLOCK_WORK = 0.75
DENSE_WORK = 0.3
COEFFICIENT_WORK = 600
MEMORY_DENSE_WORK = 1.0


@dataclass(frozen=True)
class HeomConfig:
    """Hierarchy truncation settings.

    Attributes
    ----------
    depth : int
        Maximum total excitation of the auxiliary multi-index.
    n_matsubara : int
        Matsubara modes kept alongside the Drude pole; the neglected
        tail acts through the time-local correction.
    """

    depth: int
    n_matsubara: int

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigurationError(f"depth must be nonnegative, got {self.depth}")
        if self.n_matsubara < 0:
            raise ConfigurationError(
                f"n_matsubara must be nonnegative, got {self.n_matsubara}"
            )


def hierarchy_generator(h, q_op, coeffs, rates, tail, depth):
    """Sparse real generator of the full auxiliary hierarchy.

    Returns the float64 CSR matrix ``gen`` (int32 indices) such that the
    stacked (renormalized) auxiliary vector obeys x' = gen x, with the
    physical block first and every auxiliary in the coordinates of the
    basis I, sigma_x, sigma_y, sigma_z (PAULI_BASIS). Over the sorted
    occupations n, the generator of the |a><b| basis is the Kronecker sum
    I (x) S - diag(n . rates) (x) I + sum_k [R_k (x) C + L_k (x) Lambda_k]
    (S: system superoperator and terminator; C = -i[Q, .]; R_k, L_k and
    Lambda_k: mode k's raising and lowering ladders and lowering
    superoperator). Each of its D^2 x D^2 blocks T becomes 1/2 B0^H T B0;
    every entry of B0 is 0, +-1 or +-i, so when every rate and the
    terminator are real and Q is Hermitian the imaginary parts cancel
    exactly. An off-diagonal block depends only on its mode k, on
    whether it raises or lowers, and on the count n_k of the raised
    auxiliary (sqrt(n_k |c_k|) C or sqrt(n_k / |c_k|) Lambda_k), so
    there are 2 K depth distinct ones. The congruence is taken once for
    each of those and for each diagonal block, in one batch. The
    occupations are enumerated a mode at a time, which finds every
    auxiliary's neighbours on the way, in time proportional to their
    number. Block row a of G holds, in 2 K + 1 slots by ascending
    column, the blocks of a's neighbours (an all-zero block where a has
    none), with no sum that could flip the sign of a zero part; scipy's
    block-sparse (BSR) type converts it to CSR, and exact zeros are
    dropped.

    Raises
    ------
    ConfigurationError
        If any block has a nonzero imaginary part in the Pauli basis: the
        hierarchy does not keep its auxiliaries Hermitian.
    """
    blk, n_modes = h.shape[0] ** 2, len(coeffs)
    # the occupations in lexicographic order, a mode at a time: each row so
    # far followed by every count its total leaves room for. up[k, a] is a
    # with mode k raised by one, valid where a's total is below depth (an
    # index in range elsewhere, so the next mode can gather it)
    occ, total = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    up = np.zeros((0, 1), dtype=np.int64)
    for _ in range(n_modes):
        room = depth + 1 - total
        start = np.cumsum(room) - room
        parent = np.repeat(np.arange(len(room)), room)
        count = np.arange(len(parent)) - start[parent]
        up = np.vstack([start[up[:, parent]] + count, np.arange(1, len(parent) + 1)])
        occ, total = np.column_stack([occ[parent], count]), total[parent] + count
        up[:, total == depth] = 0
    n_ado = len(occ)
    below = np.flatnonzero(total < depth)
    spre_q, spost_q = spre(q_op), spost(q_op)
    commut = spre_q - spost_q
    sys_gen = -1j * (spre(h) - spost(h)) - tail * (commut @ commut)
    # one dot per auxiliary: the batched occ @ rates rounds differently
    decay = np.array(list(map(np.asarray(rates).dot, occ.astype(float))))
    abs_c = np.abs(coeffs)
    safe_c = np.where(abs_c > 0, abs_c, 1.0)

    # every distinct block once: the diagonal block of each auxiliary, then
    # mode k's raising and lowering blocks for the counts 1..depth of the
    # raised auxiliary (stack rows n_ado + (2 k or 2 k + 1) depth + count - 1)
    counts = np.arange(1, depth + 1)
    blocks = [sys_gen - decay[:, None, None] * np.eye(blk)]
    for k, c in enumerate(coeffs):
        lower_op = -1j * (c * spre_q - np.conj(c) * spost_q)
        blocks += [(-1j * np.sqrt(counts * abs_c[k]))[:, None, None] * commut,
                   np.sqrt(counts / safe_c[k])[:, None, None] * lower_op]
    blocks = (0.5 * PAULI_BASIS.conj().T) @ np.concatenate(blocks) @ PAULI_BASIS
    if np.any(blocks.imag):
        raise ConfigurationError(
            "the hierarchy does not keep its auxiliaries Hermitian (largest "
            f"imaginary part {np.abs(blocks.imag).max():.3g} in the Pauli "
            "basis); the rates and terminator must be real and Q Hermitian"
        )
    # the neighbours of each auxiliary by ascending index: the lowering of
    # modes 0..K-1, itself, the raising of modes K-1..0; a slot with no
    # neighbour takes the appended zero block at block column 0
    n_slots = 2 * n_modes + 1
    slot_ado = np.zeros((n_ado, n_slots), dtype=np.int32)
    slot_block = np.full(slot_ado.shape, len(blocks))
    slot_ado[:, n_modes] = slot_block[:, n_modes] = np.arange(n_ado)
    for k in range(n_modes):
        above = up[k, below]
        offset = n_ado + 2 * k * depth
        slot_ado[below, 2 * n_modes - k] = above
        slot_block[below, 2 * n_modes - k] = offset + occ[below, k]
        slot_ado[above, k] = below
        slot_block[above, k] = offset + depth + occ[below, k]
    # block row a holds its slots' blocks; dropping the exact zeros (-0.0
    # too) drops every empty slot and leaves each row's columns ascending.
    # int32 holds the indices of any hierarchy that fits in memory
    stack = np.concatenate([blocks.real, np.zeros((1, blk, blk))])
    gen = sparse.bsr_array(
        (stack[slot_block.ravel()], slot_ado.ravel(),
         np.arange(0, n_ado * n_slots + 1, n_slots, dtype=np.int32)),
        shape=(n_ado * blk,) * 2).tocsr()
    gen.eliminate_zeros()
    return gen


def _csr_binop(kernel, n, a, b):
    """kernel(A, B) for n x n CSR triples (indptr, indices, data) of one index dtype.

    ``kernel`` is scipy's compiled ``csr_plus_csr`` or ``csr_minus_csr``,
    which scipy's sparse sum and difference end in: each row is merged by
    column, exact zeros are dropped, and only the entries within indptr
    are read. Returns the triple of the result.
    """
    index, size = a[1].dtype, a[0][-1] + b[0][-1]
    indptr, indices = np.empty(n + 1, index), np.empty(size, index)
    data = np.empty(size)
    kernel(n, n, *a, *b, indptr, indices, data)
    return indptr, indices[:indptr[-1]], data[:indptr[-1]]


def _box(matrix):
    """(lo, hi, eta): a box holding the numerical range of a real sparse matrix.

    Re z in [lo, hi] from the Gershgorin discs of the symmetric part
    (A + A^T)/2, |Im z| <= eta from those of the skew part, in O(nnz).
    The sums are taken on the CSR arrays by the compiled kernels scipy's
    sparse operators end in: A^T by ``csr_tocsc`` (A's CSC arrays are
    its transpose's CSR arrays), A +- A^T by ``_csr_binop``, and each
    row's sum of magnitudes by one ``np.add.reduceat``, as scipy's row
    sums reduce, so the box is the one those operators give.
    """
    n, index = matrix.shape[0], matrix.indices.dtype
    a = (matrix.indptr.astype(index, copy=False), matrix.indices, matrix.data)
    nnz = a[0][-1]
    transposed = (np.empty(n + 1, index), np.empty(nnz, index), np.empty(nnz))
    csr_tocsc(n, n, *a, *transposed)
    sums = []
    for kernel in (csr_plus_csr, csr_minus_csr):
        indptr, _, data = _csr_binop(kernel, n, a, transposed)
        rows, total = np.flatnonzero(np.diff(indptr)), np.zeros(n)
        if len(rows):
            total[rows] = np.add.reduceat(np.abs(data), indptr[rows])
        sums.append(total)
    diagonal = matrix.diagonal()
    sym_radius = sums[0] / 2 - abs(diagonal)
    return (float((diagonal - sym_radius).min()), float((diagonal + sym_radius).max()),
            float(sums[1].max() / 2))


@dataclass(frozen=True)
class ChebyshevPlan:
    """exp(k A) b for the steps k of a window from one Chebyshev series.

    A is one substep: the matrix the plan is made of, or that matrix
    divided by the fewest substeps s that keep one step within the
    amplification bound below (s = 1 unless the step is coarse). Every
    attribute and method describes A; only the caller that steps a grid
    s times finer reads s. The numerical range W(A) of a real sparse A
    lies in a box (``_box``): Re z in [lo, hi], |Im z| <= eta. With the
    box's centre c, foci c -+ h' on its real axis, X = (A - c) / h' and
    exp(z x) = I_0(z) + 2 sum_j I_j(z) T_j(x) (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967, 1984), step k is sum_j a_j(k) T_j(X) b with
    a_j(k) = 2 e^(k (c + h')) ive(j, k h'), a_0 halved. The vectors
    T_j(X) b do not depend on k, so one three-term recurrence serves
    every step of a window. By Crouzeix & Palencia (SIAM J. Matrix Anal.
    Appl. 38, 649, 2017), ||p(A) - f(A)||_2 <= (1 + sqrt 2) max over
    W(A) of |p - f|, and |T_j| <= rho^j on the Bernstein ellipse E_rho
    with those foci through the box's corners (hi, +-eta), which holds
    the whole box: it is symmetric about c. So step k is exact to double
    precision at the least degree n with
    (1 + sqrt 2) sum_{j > n} |a_j(k)| rho^j < 2^-53, and the sum
    M = sum_j |a_j(k)| rho^j bounds how much the series amplifies the
    rounding of its vectors. As I_j'(z) / I_j(z) >= j / z,
    d/dk log |a_j(k)| >= c + j / k: beyond j = -k c every term grows with
    k. M grows with k as e^(k g) does, g >= hi >= 0 when A has a zero
    eigenvalue (the hierarchy's conserved trace). So a window's last step
    L sets its M, and its degree too where that degree passes -L c.

    The focal half-width h' is h 2^(-i/4), i = 0..4, of the box's
    half-width h. Foci at the box's ends (h' = h) give a thin ellipse
    that reaches about eta / 2 past hi; closer foci fit the box more
    tightly on the right, where the growth of e^(k z) sets M, so a
    window spans more steps, at a larger rho and degree. ``of`` keeps
    the focus the work estimate ``_step_work`` finds cheapest, and the
    way to step it finds cheaper there (``dense``). The vectors grow
    like rho^j, so no focus inside the box's ends is taken whose degree
    times log rho exceeds MAX_LOG_GROWTH, or whose degree falls short
    of -L c. Where the box holds 0, a zero row of
    A (the conserved trace) maps to the scalar x0 = -c / h', outside
    [-1, 1] when h' < h. There T_j(x0) grows like rho^j, and the rounding
    of the coefficients, amplified up to M times, would make that row
    drift from window to window. So ``coefficients`` divides each step
    by its series' value at x0, formed by the recurrence the vectors
    take, and the row keeps its entry to the rounding of the sum.

    Attributes
    ----------
    doubled : scipy.sparse.csr_array
        2 X, formed as (2 / h') A - 2 (c / h') I: a zero row of A keeps
        the exact diagonal -2 c / h'.
    half : float
        h', the focal half-width.
    shift : float
        c / h'.
    lo, hi : float
        The box's real range: Re z in [lo, hi] over W(A).
    eta : float
        The box's imaginary extent: |Im z| <= eta over W(A).
    rho : float
        The Bernstein ellipse through the corners of the box scaled to X.
    focus : float
        h' / h.
    substeps : int
        s: A is the matrix given to ``of`` divided by s. X and rho do not
        depend on it.
    window : int
        The steps of A one series serves.
    dense : bool
        Whether the work estimate ``_step_work`` that chose the focus
        found forming the dense step cheaper than windowed steps over the
        ``n_steps`` given to ``of``: the way ``gen_heom`` steps.
    """

    doubled: sparse.csr_array
    half: float
    shift: float
    lo: float
    hi: float
    eta: float
    rho: float
    focus: float
    substeps: int
    window: int
    dense: bool = False
    # log terms by substep, shared by every window of the same plan
    _terms: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def of(cls, gen_dt, n_steps, window=None):
        """Plan ``n_steps`` steps of exp(gen_dt), up to ``window`` per series.

        ``window`` defaults to ``n_steps``. Tries the foci h' = h 2^(-i/4)
        for i = 0, 1, ..., 4 and stops at the first that ``_step_work``
        finds no cheaper than the one before it, whose vectors could grow
        past e^MAX_LOG_GROWTH, or whose degree falls short of -L c over
        its window of L steps; it keeps the one before, with the way the
        estimate took for it (``dense``). 2 X is formed for that focus
        alone.
        """
        lo, hi, eta = _box(gen_dt)
        window = n_steps if window is None else min(window, n_steps)
        best, least = None, math.inf
        for i in range(5):
            plan = cls._focused(lo, hi, eta, 2.0 ** (-i / 4), window)
            degree = plan.degree(plan.window)
            if i and (degree * math.log(plan.rho) > MAX_LOG_GROWTH
                      or degree < -plan.shift * plan.half * plan.window):
                break
            work, dense = _step_work(gen_dt, plan, n_steps * plan.substeps)
            if work >= least:
                break
            best, least = replace(plan, dense=dense), work
        # (2 / h') A - 2 (c / h') I on the CSR arrays, as scipy's operators form it
        n, index = gen_dt.shape[0], gen_dt.indices.dtype
        scaled = (gen_dt.indptr.astype(index, copy=False), gen_dt.indices,
                  gen_dt.data * (2.0 / (best.half * best.substeps)))
        diagonal = (np.arange(n + 1, dtype=index), np.arange(n, dtype=index),
                    np.full(n, 2.0 * best.shift))
        indptr, indices, data = _csr_binop(csr_minus_csr, n, scaled, diagonal)
        return replace(best, doubled=sparse.csr_array((data, indices, indptr),
                                                      shape=gen_dt.shape))

    @classmethod
    def _focused(cls, lo, hi, eta, focus, window):
        """The plan, without ``doubled``, of foci c -+ ``focus`` h on the box.

        s is 1 unless the bound M of one step would exceed
        MAX_AMPLIFICATION; then it is the fewest substeps that keep it.
        The window is the largest number of steps L <= ``window`` whose
        bound M stays within MAX_AMPLIFICATION (at least 1). M grows with
        L and lies between e^(L g) and 2 e^(L g), so the search steps up
        from the floor the upper bound proves while the next window stays
        within it.
        """
        # a box of no width keeps a valid, wider one: the series needs h > 0
        half = (0.5 * (hi - lo) or eta or 1.0) * focus
        shift = 0.5 * (lo + hi) / half
        # the ellipse with foci -1, 1 through the corner (1 + i eta / h) / focus
        x, y = 1.0 / focus, eta / half
        axis = 0.5 * (math.hypot(x - 1.0, y) + math.hypot(x + 1.0, y))
        rho = axis + math.sqrt(axis * axis - 1.0)
        # e^(L g) <= M <= 2 e^(L g), g = c + h' (rho + 1/rho) / 2: the series
        # summed to every order at the ellipse's right vertex. So substeps
        # with g <= log(MAX_AMPLIFICATION / 2) keep every substep within
        # the bound, and so does every window up to the floor of
        # log(MAX_AMPLIFICATION / 2) / g; where g <= 0, every window
        growth = half * (shift + 0.5 * (rho + 1.0 / rho))
        most, least = math.log(MAX_AMPLIFICATION), math.log(MAX_AMPLIFICATION / 2)
        substeps = max(1, math.ceil(growth / least))
        growth /= substeps
        plan = cls(None, half / substeps, shift, lo / substeps, hi / substeps,
                   eta / substeps, rho, focus, substeps, 1)
        if growth > 0:
            wanted, window = window, max(1, int(min(window, least / growth)))
            while (window < wanted
                   and np.logaddexp.reduce(plan._log_terms(window + 1)) <= most):
                window += 1
        return replace(plan, window=window)

    def _log_terms(self, k):
        """log(|a_j(k)| rho^j) for j = 0, 1, ... past the negligible tail.

        With z = k h', log ive(j, z) is log ive(0, z) plus the logs of the
        ratios r_i = I_(i+1)(z) / I_i(z), i < j, which I_(i-1) - I_(i+1) =
        (2 i / z) I_i gives by the backward recurrence
        r_i = z / (2 (i + 1) + z r_(i+1)). The recurrence scales a relative
        error in r_(i+1) by r_i r_(i+1), which is below 1/16 past the kept
        orders (there i > 2 z, so r_i <= z / (2 (i + 1)) < 1/4). So it
        starts 16 orders past them from the lower bound
        z / (i + 1 + sqrt((i + 1)^2 + z^2)) of r_i, within 25 % of it,
        and reaches them with less than 2^-64 of that error. One ``ive``
        serves every order, and the logs of the ratios stay finite where
        ive itself underflows.
        """
        if k not in self._terms:
            z = k * self.half
            # the terms peak near j = z (rho - 1/rho) / 2 and, as
            # I_(j+1) / I_j < z / (2 (j + 1)), fall by more than half per
            # term beyond j = z rho
            size = 64 + int(z * (self.rho + 1.0 / self.rho))
            while True:
                # from the bound on r_top, 16 orders past the last kept one
                top = size + 16
                ratio, ratios = z / (top + 1 + math.hypot(top + 1, z)), []
                for twice in range(2 * top, 0, -2):  # 2 (i + 1), i = top - 1..0
                    ratio = z / (twice + z * ratio)
                    ratios.append(ratio)
                # term j + 1 is term j times r_j rho, and twice that at j = 0
                steps = np.log(ratios[:-size:-1])
                steps += math.log(self.rho)
                terms = np.empty(size)
                terms[0] = z * (self.shift + 1.0) + math.log(ive(0, z))
                np.cumsum(steps, out=terms[1:])
                terms[1:] += terms[0] + math.log(2.0)
                if terms[-1] < LOG_TAIL - 40.0:
                    break
                size *= 2
            self._terms[k] = terms
        return self._terms[k]

    def degree(self, count):
        """The series degree n for a window of ``count`` steps."""
        tails = np.logaddexp.accumulate(self._log_terms(count)[::-1])[::-1]
        return int(np.argmax(tails[1:] < LOG_TAIL))

    def bound(self, count):
        """The amplification bound M for a window of ``count`` steps."""
        return math.exp(np.logaddexp.reduce(self._log_terms(count)))

    def coefficients(self, count):
        """a_j(k) for the steps k = 1..``count`` (rows), j = 0..degree(count).

        Where the box holds 0, each row is divided by its series' value
        at x0 = -shift, the scalar a zero row of A takes in X. T_j(x0) is
        formed as the recurrence forms that row of T_j(X) b: T_0 = 1,
        T_1 = x0 and T_j = -T_(j-2) + (-2 shift) T_(j-1). The series
        gives e^0 = 1 there to within its tail plus the rounding of the
        coefficients amplified at most M times, so the division moves a
        step by no more than the plan's accuracy allows.
        """
        j = np.arange(self.degree(count) + 1)
        z = self.half * np.arange(1, count + 1)[:, None]
        series = (np.where(j == 0, 1.0, 2.0) * np.exp(z * (self.shift + 1.0))
                  * ive(j, z))
        if self.lo <= 0.0 <= self.hi:
            diagonal, chebyshev = -2.0 * self.shift, np.empty(len(j))
            chebyshev[0], chebyshev[1:2] = 1.0, -self.shift
            for m in range(2, len(j)):
                chebyshev[m] = -chebyshev[m - 2] + diagonal * chebyshev[m - 1]
            series /= series @ chebyshev[:, None]
        return series

    def products(self, n_steps):
        """Sparse products to make ``n_steps`` steps, a window at a time."""
        return math.ceil(n_steps / self.window) * self.degree(self.window)

    def _series(self, b, degree):
        """The vectors T_j(X) b, j = 0..``degree``, COMBINE_CHUNK at a time.

        Yields (j, chunk): the chunk's vectors from T_j(X) b on, stacked
        in one array that the next chunk overwrites. Each vector past
        T_0 is one call of scipy's compiled CSR kernel ``csr_matvecs``,
        which ``@`` itself ends in and which adds A x to y in place, here
        with A = 2 X: for j >= 2 the slot first holds -T_(j-2) and the
        kernel adds 2 X T_(j-1) to it, with no zeroed result and no
        subtract pass; T_1 is the kernel's product into a zeroed slot,
        halved exactly. The kernel reads and writes its buffers flat, so
        they must be C-contiguous float64: ``b`` is copied into the first
        slot, whatever its order or strides, and every slot is a
        contiguous row of the stack. The kernel does not check sizes, so
        ``b`` must have N rows.
        """
        a, n = self.doubled, self.doubled.shape[0]
        if b.shape[0] != n:
            raise ValueError(f"b has {b.shape[0]} rows, the plan's matrix {n}")
        columns = b.size // n
        vectors = np.empty((COMBINE_CHUNK,) + b.shape)
        flat = vectors.reshape(COMBINE_CHUNK, -1)  # a view: the stack is C-ordered
        for j in range(degree + 1):
            slot = j % COMBINE_CHUNK
            if j == 0:
                vectors[0] = b
            elif j == 1:
                flat[1] = 0.0
                csr_matvecs(n, n, columns, a.indptr, a.indices, a.data,
                            flat[0], flat[1])
                flat[1] *= 0.5
            else:  # T_j = 2 X T_(j-1) - T_(j-2); slot - 1 and - 2 wrap
                np.negative(flat[slot - 2], out=flat[slot])
                csr_matvecs(n, n, columns, a.indptr, a.indices, a.data,
                            flat[slot - 1], flat[slot])
            if slot == COMBINE_CHUNK - 1 or j == degree:
                yield j - slot, vectors[:slot + 1]

    def apply(self, b, coefficients):
        """The steps sum_j a_j(k) T_j(X) b of ``coefficients``, stacked.

        ``b`` is a real N x m array and is left untouched; row k - 1 of
        ``coefficients`` gives step k. Every row of every step is formed
        (``apply_heads`` with all N rows): the dense step is formed this
        way, and a window the divergence guard cannot certify
        (``gen_heom``) is formed again so.
        """
        return self.apply_heads(b, coefficients, b.shape[0])[0]

    def apply_heads(self, b, coefficients, rows):
        """The first ``rows`` rows of every step of ``apply``, and its last step.

        Returns (heads, last): heads is count x ``rows`` x m, last the
        whole N x m last step. The vectors T_j(X) b are combined into the
        steps COMBINE_CHUNK at a time: per chunk, the heads take one small
        matrix product and the last step one vector-matrix product; the
        other rows of the inner steps are never formed. With all N rows,
        last is the heads' last step, and takes no product of its own.
        """
        count, degree = coefficients.shape[0], coefficients.shape[1] - 1
        heads = np.zeros((count, rows * b.shape[1]))
        whole = rows == b.shape[0]
        last = heads[-1] if whole else np.zeros(b.size)
        for j, chunk in self._series(b, degree):
            weights = coefficients[:, j:j + len(chunk)]
            heads += weights @ chunk[:, :rows].reshape(len(chunk), -1)
            if not whole:
                last += weights[-1] @ chunk.reshape(len(chunk), -1)
        return heads.reshape(count, rows, b.shape[1]), last.reshape(b.shape)


def _dense_step(plan):
    """Dense exp(A) of the plan's one-step series, COLUMN_BLOCK columns at a time."""
    n = plan.doubled.shape[0]
    coefficients = plan.coefficients(1)
    step = np.empty((n, n))
    for start in range(0, n, COLUMN_BLOCK):
        width = min(COLUMN_BLOCK, n - start)
        columns = np.zeros((n, width))
        columns[start + np.arange(width), np.arange(width)] = 1.0
        step[:, start:start + width] = plan.apply(columns, coefficients)[0]
    return step


def _dense_plan(gen_dt):
    """One-step plan of dense complex A as real CSR [[Re A, -Im A], [Im A, Re A]]."""
    re, im = gen_dt.real, gen_dt.imag
    return ChebyshevPlan.of(sparse.csr_array(np.block([[re, -im], [im, re]])), 1)


def _stability_substeps(gen, dt):
    """Substeps per step dt of x' = gen x, dense and complex: its plan's."""
    return _dense_plan(gen * dt).substeps


def step_matrix(gen, dt, substeps):
    """exp(gen dt) of a dense complex ``gen``: the dense step of its plan per substep.

    The real form's exponential holds the complex one's in its blocks.
    Too few substeps for the plan's bound are made up by its own.
    """
    plan = _dense_plan(gen * (dt / substeps))
    step = np.linalg.matrix_power(_dense_step(plan), substeps * plan.substeps)
    re, im = np.vsplit(step[:, :len(gen)], 2)
    return re + 1j * im


def _step_work(matrix, plan, n_steps):
    """(work, dense): the cheaper way to make ``n_steps`` steps of the plan.

    ``plan`` is a candidate of ``ChebyshevPlan.of`` for ``matrix``, whose
    rows N and nonzeros set the cost of a sparse product. The work is in
    CALL_OVERHEAD's units, and ``dense`` tells whether forming the dense
    step is the cheaper way: it costs the one-step series on N identity
    columns plus a pass over the N^2 step per step (DENSE_WORK per entry
    up to DENSE_ROWS rows, MEMORY_DENSE_WORK above); windowed steps of
    the N x 4 state cost the window's coefficients, then its series per
    window, one kernel call per vector. This is the only rule for the way:
    ``of`` keeps ``dense`` with the focus it picks by the work.
    """
    n, nnz = matrix.shape[0], matrix.nnz
    frames = (COEFFICIENT_WORK * plan.window * (plan.degree(plan.window) + 1)
              + plan.products(n_steps) * (4 * nnz + CALL_OVERHEAD))
    per_entry = DENSE_WORK if n <= DENSE_ROWS else MEMORY_DENSE_WORK
    dense = plan.degree(1) * BLOCK_WORK * n * nnz + n_steps * per_entry * n * n
    return min(dense, frames), dense <= frames


def gen_heom(params, cfg, grid):
    """Open-system basis trajectories from the hierarchy integrator.

    The frames exp(k G dt) of the hierarchy generator G come from one
    Chebyshev plan of the sparse, real Pauli form of G
    (``hierarchy_generator``), exact to double precision by its bound.
    Where one frame alone would amplify rounding by more than
    MAX_AMPLIFICATION, as at coarse steps, the plan is of G dt / s for
    the fewest substeps s that keep it; the hierarchy is then stepped on
    a grid s times finer and every s-th frame is kept. Either the plan's
    one-step series forms the dense step and every step is one dense
    product with the stacked auxiliary state, or one series of the
    plan's window acts on that state and gives every step of the window.
    The plan's ``dense`` names the way: the cheaper by the work estimate
    ``_step_work`` that picked its focus. The windowed series forms only
    the physical block of every step, which is stored, and the whole
    last step, from which the next window starts; the divergence guard
    reads those. No entry of an inner
    step exceeds (1 + sqrt 2) M max_c ||b_c||_2 (``ChebyshevPlan``, with
    M <= MAX_AMPLIFICATION and b_c the columns the window starts from),
    so where that is within the guard the inner steps cannot trip it.
    Where it is not, or a kept entry is over the guard or not finite,
    the window is formed in full and the guard names the first step
    over it. The state starts from the inputs I,
    sigma_x, sigma_y and sigma_z; the maps of the |a><b| basis follow
    from its physical block by one change of basis, exact at frame 0. A
    DEBUG record on this module's logger reports the hierarchy size, the
    nonzeros of the real Pauli form that is stepped, the way taken, its
    window, the substeps per frame, and the degree, the box of the
    numerical range and the amplification bound, all three of one
    substep, with the series' focal half-width as a fraction of the
    box's (``ChebyshevPlan``), then the sparse products made over the
    finer grid (for the dense step, those that form it), the set-up
    times (building G, planning it, and forming the dense step or the
    window's coefficients, each apart), the stepping time, the peak
    entry (in Pauli coordinates) of the rows the guard read (the
    physical blocks and every window's last step) and the time per
    sparse product: of forming the dense step, or of stepping the
    frames, over the products it made.

    Parameters
    ----------
    params : SpinBosonParams
        Model definition (two-level system plus Drude-Lorentz bath).
    cfg : HeomConfig
        Truncation settings.
    grid : TimeGrid
        Output sampling grid.

    Raises
    ------
    ConfigurationError
        If the Pauli form of G is not real (``hierarchy_generator``).
    DivergenceError
        If any hierarchy entry exceeds the divergence guard, naming the
        first offending step of the grid stepped, within a window too.
    """
    started = time.perf_counter()
    coeffs, rates = bath_correlation_modes(
        params.lam, params.gamma, params.beta, cfg.n_matsubara
    )
    tail = matsubara_tail(params.lam, params.gamma, params.beta, cfg.n_matsubara)
    gen_dt = hierarchy_generator(params.hamiltonian, params.coupling_op,
                                 coeffs, rates, tail, cfg.depth) * grid.dt
    generated = time.perf_counter()
    blk = params.dim ** 2
    n = gen_dt.shape[0]
    plan = ChebyshevPlan.of(gen_dt, grid.n_steps, max(1, WINDOW_ENTRIES // (n * blk)))
    fine = TimeGrid(dt=grid.dt / plan.substeps, n_steps=grid.n_steps * plan.substeps)
    planned = time.perf_counter()
    if plan.dense:
        window, step = 1, _dense_step(plan)
        products = plan.degree(1) * math.ceil(n / COLUMN_BLOCK)
    else:
        window, products = plan.window, plan.products(fine.n_steps)
        # a last, shorter window takes the first rows of the same series
        series = plan.coefficients(window)
    built = time.perf_counter()

    # the inputs I, sigma_x, sigma_y, sigma_z in Pauli coordinates
    state = np.zeros((n, blk))
    state[:blk, :] = np.eye(blk)
    frames = np.empty((fine.n_steps + 1, blk, blk))
    frames[0] = state[:blk]
    run_peak = 1.0
    for start in range(0, fine.n_steps, window):
        count = min(window, fine.n_steps - start)
        if plan.dense:
            last = step @ state
            heads = last[None, :blk]
        else:
            heads, last = plan.apply_heads(state, series[:count], blk)
        peak, certified = float(np.abs(last).max()), True
        if count > 1:
            peak = max(peak, float(np.abs(heads).max()))
            # no entry of an inner step exceeds (1 + sqrt 2) M ||b_c||_2 over
            # the columns b_c of the state, with M <= MAX_AMPLIFICATION
            # (ChebyshevPlan)
            certified = ((1.0 + math.sqrt(2.0)) * MAX_AMPLIFICATION
                         * np.linalg.norm(state, axis=0).max() <= DIVERGENCE_GUARD)
        if not (peak <= DIVERGENCE_GUARD and certified):  # NaN too
            # every step in full, to name the first over the guard; a
            # window of one step is its last step
            block = last[None] if count == 1 else plan.apply(state, series[:count])
            peaks = np.abs(block).max(axis=(1, 2))
            over = ~(peaks <= DIVERGENCE_GUARD)
            if over.any():
                bad = int(np.argmax(over))
                k = start + 1 + bad
                raise DivergenceError(
                    f"hierarchy diverged at step {k} of dt = {fine.dt:.6g} (t = "
                    f"{k * fine.dt:.6g}), peak entry {peaks[bad]:.3g}; reduce the "
                    "step or increase depth",
                    step=k,
                    time=k * fine.dt,
                )
        run_peak = max(run_peak, peak)
        frames[start + 1:start + 1 + count] = heads
        state = last
    stepped = time.perf_counter()
    # the sparse products form the dense step, or step the frames
    product_s = ((built - planned if plan.dense else stepped - built)
                 / max(products, 1))
    log.debug(
        "hierarchy: %d rows (%d ADOs), %d nonzeros in the real Pauli form; "
        "%s, window %d, %d substeps, Chebyshev degree %d, box Re [%.6g, %.6g] "
        "|Im| <= %.6g, foci c +- %.3g h, bound %.3g, %d sparse products; built "
        "in %.3g s, planned in %.3g s, %s in %.3g s, %d steps in %.3g s, peak "
        "entry at window ends %.3g, %.3g us per sparse product",
        n, n // blk, gen_dt.nnz, "dense step" if plan.dense else "frames", window,
        plan.substeps, plan.degree(window), plan.lo, plan.hi, plan.eta, plan.focus,
        plan.bound(window), products, generated - started, planned - generated,
        "dense step" if plan.dense else "coefficients", built - planned,
        grid.n_steps, stepped - built, run_peak, product_s * 1e6,
    )
    # back to the |a><b| basis: E_k = B0 M_k B0^H / 2, so E_0 = I exactly
    maps = PAULI_BASIS @ frames[::plan.substeps] @ (0.5 * PAULI_BASIS.conj().T)
    return BasisTrajectorySet.from_maps(grid, maps)
