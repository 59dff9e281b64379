"""Chebyshev exponential integrator for a fixed real sparse generator.

``evolve`` gives every step exp(k A) b of a real sparse A = G dt and a
real N x m state b, from one Chebyshev series (``ChebyshevPlan``)
planned once per call. Nothing here knows what G models: the hierarchy
(``ttmkit.heom``) and the real form of the Lindblad generator
(``ttmkit.generators``, ``real_form``) step through the same loop.

The plan. The Gershgorin discs of the symmetric part of A and the
discs of its skew part weighted by a few power steps toward their
Perron vector (Collatz-Wielandt), formed on the CSR arrays by scipy's
compiled kernels, bound the numerical range to a box. The Gershgorin
discs of the Hermitian part of e^(-i t) A bound its support in
RANGE_DIRECTIONS directions t between the box's sides, and those
half-planes cut the box's corners to a polygon (``_polygon``). The
series' foci lie on the box's real axis, symmetric about its centre. The
degree is the least whose tail on the Bernstein ellipse through the
polygon's outermost vertex is below double precision by the
Crouzeix-Palencia bound (its terms from one Bessel function and a
recurrence for the ratios of the rest), and the window of steps one
series serves is the widest whose bound on the series' rounding
amplification stays within MAX_AMPLIFICATION. Foci closer than the
box's ends fit the ellipse to the polygon where the exponential grows,
so windows span more steps; the plan searches five
focal half-widths, from the box's half-width down to half of it, for
the one the work estimate finds cheapest, and takes none whose vectors
could grow past e^MAX_LOG_GROWTH. Where the box holds 0, the series'
value at the scalar a zero row of A (a conserved trace) takes divides
each step, so that row does not drift with the rounding of the
coefficients. Where one step alone would exceed the amplification
bound, as at coarse steps, the plan is of A / s for the fewest
substeps s that keep it, and ``evolve`` steps a grid s times finer and
keeps every s-th frame.

The stepping. The vectors T_j(X) b of the series do not depend on
time, so one recurrence on the state gives every step of a window as a
small combination of them. Each vector is one call of scipy's compiled
CSC kernel on the columns of 2 X, which adds 2 X T_(j-1) in place to
the slot holding -T_(j-2); it reads and writes flat buffers, so the
slots are C-contiguous float64 rows of one stack. The CSC kernel
scatters each column's products to different rows, where the CSR
kernel adds a row's products into the same entries one after another,
each add waiting for the last; every entry still takes its terms in
ascending column order, so both give the same bits. Only what is kept
is combined: the caller's rows of every step, which become a frame,
and the whole last step, which the next window starts from. The
one-step series either forms the dense step, acting on blocks of
identity columns, after which the state rides through one dense product
per step, or the windowed series acts on the N x m state with no dense
step at all.
The work estimate (``_step_work``: in N, the nonzeros, the window, the
degrees and the number of steps) that picks the plan's focus also
picks the way, once, and the plan keeps it.

The certificate. The divergence guard reads the kept rows and every
window's last step; the inner steps' other rows are covered by the
plan's bound, which caps every entry of a window's steps at
(1 + sqrt 2) MAX_AMPLIFICATION times the largest column norm of the
state it starts from (Crouzeix-Palencia, as above). A window that
bound cannot keep under the guard, or whose kept rows are over it or
not finite, is formed again in full so the guard names the first step
over it.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
# scipy's compiled CSR and CSC kernels, which its sparse operators end in:
# y += A x over the m columns of flat x and y (`@`), the transpose (CSR to
# CSC arrays), sum and difference
from scipy.sparse._sparsetools import (csc_matvecs, csr_matvecs, csr_minus_csr,
                                       csr_plus_csr, csr_tocsc)
from scipy.special import ive

from .errors import DivergenceError

# The largest entry a stepped state may reach (``evolve``)
DIVERGENCE_GUARD = 1e6

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

# Iterates of the weighted discs that bound the box's imaginary extent
# (``_polygon``), d = 1 the first. Over the benchmark hierarchies and C7a, the
# sparse products of their plans are 19822 with the discs alone, 18463
# with 3 iterates, 17591 with 10 and 17521 with 30; C4 alone takes 15400,
# 14175, 13664 and 13671. 10 iterates cost C4 0.2 ms of planning.
SKEW_STEPS = 10

# Directions t = k pi / RANGE_DIRECTIONS in which ``_polygon`` bounds the
# numerical range besides the box's sides. Over the benchmark hierarchies
# and C7a, the sparse products of their plans are 17591 with the box alone,
# 12590 with 8 directions, 11992 with 12, 11941 with 16 and 11608 with 32;
# C4 alone takes 13664, 9798, 9177, 9146 and 8790. 16 directions take 7
# passes over the nonzeros: C4's polygon takes 1.34 ms against 0.63 ms
# for its box (minimum of 400 interleaved calls, one Xeon vCPU).
RANGE_DIRECTIONS = 16

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
# N = 660, dt = 2 over 400 frames (one-step windows), where that is:
# 0.50 s against 1.81 s (whole gen_heom runs, minimum of 5, one BLAS
# thread). At dt = 0.2 over 10^4 frames it formed the dense step with
# the ellipse through the box's corners (3.4 s against 4.0 s); with the
# polygon it takes windows of 12, and the two ways tie (3.52 against
# 3.73 s, minimum of 3, the dense step faster in 2 of 3 pairs).
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
# a way the estimate picks. The units were fitted with the CSR kernel. The
# CSC kernel the series calls takes 0.8-1.0 of its time on 4 and on 64
# columns; the units stay as fitted, so every focus and way stays the same.
CALL_OVERHEAD = 3000
BLOCK_WORK = 0.75
DENSE_WORK = 0.3
COEFFICIENT_WORK = 600
MEMORY_DENSE_WORK = 1.0


def _csr_binop(kernel, n, a, b):
    """kernel(A, B) for n x n CSR triples (indptr, indices, data) of one index dtype.

    ``kernel`` is scipy's compiled ``csr_plus_csr`` or ``csr_minus_csr``,
    which scipy's sparse sum and difference end in: each row is merged by
    column, exact zeros are dropped, and only the entries within indptr
    are read. Returns the triple of the result.
    """
    index, size = a[1].dtype, a[0][-1] + b[0][-1]
    indptr, indices = np.empty(n + 1, index), np.empty(size, index)
    data = np.empty(size, np.result_type(a[2], b[2]))
    kernel(n, n, *a, *b, indptr, indices, data)
    return indptr, indices[:indptr[-1]], data[:indptr[-1]]


def _csc_arrays(n, a):
    """The CSC arrays of the n x n CSR triple ``a``, by scipy's ``csr_tocsc``.

    The CSC arrays of A are the CSR arrays of A^T, with the row indices
    of each column in ascending order.
    """
    index, nnz = a[1].dtype, a[0][-1]
    csc = (np.empty(n + 1, index), np.empty(nnz, index), np.empty(nnz))
    csr_tocsc(n, n, *a, *csc)
    return csc


def _polygon(matrix):
    """(lo, hi, eta, vertices): a polygon holding the numerical range of a real sparse matrix.

    Its sides are those of a box and the half-planes of RANGE_DIRECTIONS
    directions between them; ``vertices`` (complex) are those of its
    upper half, Im z >= 0. Re z in [lo, hi] from the Gershgorin discs
    of the symmetric part H = (A + A^T)/2, in O(nnz). |Im z| <= eta from
    weighted discs of the skew part S = (A - A^T)/2: Im x^H A x =
    x^H S x / i for a unit x, so |Im z| <= rho(S), as S is normal;
    rho(S) <= rho(|S|) by Wielandt's theorem; and for every positive d,
    rho(|S|) <= max_i (|S| d)_i / d_i by Collatz-Wielandt. d = 1 gives the
    discs of S, and eta is the least of these bounds over d = 1 and the
    SKEW_STEPS - 1 power steps d <- (|S| + I) d / max (|S| + I) d after
    it, which tend to the Perron vector of |S|. The added d keeps every
    d_i > 0, also on the rows |S| leaves empty (13 of C4's), and the
    shift by I keeps the steps from alternating where |S| is bipartite.
    Every iterate gives a bound, so the least is one, and no larger than
    the discs'; without rounding the bounds do not rise from one step to
    the next, since |S| + I >= 0.

    The other sides bound the support of W(A) in the directions
    t = k pi / RANGE_DIRECTIONS off the axes: Re(e^(-i t) x^H A x) =
    x^H (cos t H - i sin t S) x for a unit x, with cos t H - i sin t S
    the Hermitian part of e^(-i t) A; that is at most its largest
    eigenvalue, so at most its Gershgorin bound
    max_i (cos t a_ii + sum_(j != i) sqrt(cos^2 t H_ij^2 + sin^2 t S_ij^2)).
    The radii do not change from t to -t or to pi - t, so one pass over
    the off-diagonal entries serves four sides. W(A), as A is real, and
    so the polygon lie symmetric about the real axis, and the sides of
    t <= 0 only mirror those of t >= 0: the upper half is cut by those
    and Im z >= 0. Its vertices are the crossings of two of these sides'
    lines that no side excludes, to 1e-12 of the polygon's extent (a
    point so near it only widens the polygon).

    The sums are taken on the CSR arrays by the compiled kernels scipy's
    sparse operators end in: A^T by ``_csc_arrays``, A +- A^T by
    ``_csr_binop``, each row's sum of magnitudes by one
    ``np.add.reduceat``, as scipy's row sums reduce, so the discs are the
    ones those operators give, and |S| d by one ``csr_matvecs`` on the
    magnitudes of A - A^T, halved. (a_ij, a_ji) come on the union of
    both patterns from one ``_csr_binop`` of A and i A^T, and each pass's
    radii from one ``np.bincount``.
    """
    n, index = matrix.shape[0], matrix.indices.dtype
    a = (matrix.indptr.astype(index, copy=False), matrix.indices, matrix.data)
    transposed = _csc_arrays(n, a)
    sums = []
    for kernel in (csr_plus_csr, csr_minus_csr):
        indptr, indices, data = _csr_binop(kernel, n, a, transposed)
        rows, total = np.flatnonzero(np.diff(indptr)), np.zeros(n)
        if len(rows):
            total[rows] = np.add.reduceat(np.abs(data), indptr[rows])
        sums.append(total)
    diagonal = matrix.diagonal()
    sym_radius = sums[0] / 2 - abs(diagonal)
    # (|S| d)_i / d_i from d = 1, on the last kernel's triple A - A^T
    magnitudes, weights = 0.5 * np.abs(data), np.ones(n)
    eta = float(sums[1].max() / 2)
    for _ in range(SKEW_STEPS):
        image = np.zeros(n)
        csr_matvecs(n, n, 1, indptr, indices, magnitudes, weights, image)
        eta = min(eta, float((image / weights).max()))
        weights += image
        weights /= weights.max()
    lo, hi = float((diagonal - sym_radius).min()), float((diagonal + sym_radius).max())

    # H_ij^2 and S_ij^2 off the diagonal, from a_ij + i a_ji on the union pattern
    indptr, indices, data = _csr_binop(csr_plus_csr, n, a[:2] + (a[2].astype(complex),),
                                       transposed[:2] + (1j * transposed[2],))
    rows = np.repeat(np.arange(n, dtype=index), np.diff(indptr))
    data[indices == rows] = 0.0  # adds exact zeros to the radii
    sym = (0.5 * (data.real + data.imag)) ** 2
    excess = (0.5 * (data.real - data.imag)) ** 2 - sym
    # the upper sides x cos t + y sin t <= b, t in [0, pi]: the box's three,
    # those of t and pi - t, and y >= 0, which cuts off the mirror image
    cosines, sines, bounds = [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [hi, -lo, eta, 0.0]
    radii = np.empty(len(data))
    for k in range(1, (RANGE_DIRECTIONS + 1) // 2):
        t = k * math.pi / RANGE_DIRECTIONS
        cos, sin = math.cos(t), math.sin(t)
        # sqrt(cos^2 H_ij^2 + sin^2 S_ij^2), in place
        np.multiply(excess, sin * sin, out=radii)
        radii += sym
        np.sqrt(radii, out=radii)
        radius = np.bincount(rows, weights=radii, minlength=n)
        cosines += [cos, -cos]
        sines += [sin, sin]
        bounds += [float((cos * diagonal + radius).max()),
                   float((radius - cos * diagonal).max())]
    cosines, sines, bounds = np.array(cosines), np.array(sines), np.array(bounds)
    # where the lines of sides p < q cross, by Cramer's rule
    p, q = np.triu_indices(len(bounds), 1)
    det = cosines[p] * sines[q] - sines[p] * cosines[q]
    crossing = det != 0  # parallel sides do not cross
    p, q, det = p[crossing], q[crossing], det[crossing]
    x = (bounds[p] * sines[q] - bounds[q] * sines[p]) / det
    y = (cosines[p] * bounds[q] - cosines[q] * bounds[p]) / det
    slack = cosines[:, None] * x + sines[:, None] * y - bounds[:, None]
    inside = (slack <= 1e-12 * np.abs(bounds).max()).all(axis=0)
    return lo, hi, eta, x[inside] + 1j * y[inside]


@dataclass(frozen=True)
class ChebyshevPlan:
    """exp(k A) b for the steps k of a window from one Chebyshev series.

    A is one substep: the matrix the plan is made of, or that matrix
    divided by the fewest substeps s that keep one step within the
    amplification bound below (s = 1 unless the step is coarse). Every
    attribute and method describes A; only the caller that steps a grid
    s times finer reads s. The numerical range W(A) of a real sparse A
    lies in a polygon (``_polygon``): a box, Re z in [lo, hi] and
    |Im z| <= eta (the Gershgorin discs of the symmetric part and
    Perron-weighted discs of the skew part), with its corners cut by
    Gershgorin bounds on the support of W(A) in RANGE_DIRECTIONS
    directions. With the box's centre c, foci c -+ h' on its real axis,
    X = (A - c) / h' and
    exp(z x) = I_0(z) + 2 sum_j I_j(z) T_j(x) (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967, 1984), step k is sum_j a_j(k) T_j(X) b with
    a_j(k) = 2 e^(k (c + h')) ive(j, k h'), a_0 halved. The vectors
    T_j(X) b do not depend on k, so one three-term recurrence serves
    every step of a window. By Crouzeix & Palencia (SIAM J. Matrix Anal.
    Appl. 38, 649, 2017), ||p(A) - f(A)||_2 <= (1 + sqrt 2) max over
    W(A) of |p - f|, and |T_j| <= rho^j on the Bernstein ellipse E_rho
    with those foci through the polygon's outermost vertex, which holds
    every vertex and, as it is symmetric about the real axis, their
    mirror images, and so the whole polygon, as both are convex. So step
    k is exact to double
    precision at the least degree n with
    (1 + sqrt 2) sum_{j > n} |a_j(k)| rho^j < 2^-53, and the sum
    M = sum_j |a_j(k)| rho^j bounds how much the series amplifies the
    rounding of its vectors. As I_j'(z) / I_j(z) >= j / z,
    d/dk log |a_j(k)| >= c + j / k: beyond j = -k c every term grows with
    k. M grows with k as e^(k g) does, g >= 0 when A has a zero
    eigenvalue (the hierarchy's conserved trace), which W(A) and so
    E_rho hold. So a window's last step
    L sets its M, and its degree too where that degree passes -L c.

    The focal half-width h' is h 2^(-i/4), i = 0..4, of the box's
    half-width h. Foci at the box's ends (h' = h) give a thin ellipse
    that reaches past hi; closer foci fit the polygon more tightly on
    the right, where the growth of e^(k z) sets M and W(A) is narrow,
    so a window spans more steps, at a larger rho and degree. ``of`` keeps
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
    doubled : scipy.sparse.csc_array
        2 X, formed as (2 / h') A - 2 (c / h') I on the CSR arrays and
        held as CSC arrays, which ``_series`` steps through: a zero row
        of A keeps the exact diagonal -2 c / h'.
    half : float
        h', the focal half-width.
    shift : float
        c / h'.
    lo, hi : float
        The box's real range: Re z in [lo, hi] over W(A).
    eta : float
        The box's imaginary extent: |Im z| <= eta over W(A).
    rho : float
        The Bernstein ellipse through the polygon's outermost vertex
        scaled to X.
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
        ``n_steps`` given to ``of``: the way ``evolve`` steps.
    """

    doubled: sparse.csc_array
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
    # log terms and degrees by substep, shared by every window of the same plan
    _terms: dict = field(default_factory=dict, repr=False, compare=False)
    _degrees: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def of(cls, gen_dt, n_steps, window=None):
        """Plan ``n_steps`` steps of exp(gen_dt), up to ``window`` per series.

        ``window`` defaults to ``n_steps``. Tries the foci h' = h 2^(-i/4)
        for i = 0, 1, ..., 4 up to the first whose vectors could grow past
        e^MAX_LOG_GROWTH or whose degree falls short of -L c over its
        window of L steps, and keeps the one ``_step_work`` finds
        cheapest, with the way the estimate took for it (``dense``). The
        windows divide the frames unevenly, so the work need not fall to
        its least before it first rises: on one of the benchmark's
        hierarchies it rises from h to 0.84 h and falls below both at
        0.71 h. 2 X is formed for the focus kept alone, and kept as CSC
        arrays.
        """
        polygon = _polygon(gen_dt)
        window = n_steps if window is None else min(window, n_steps)
        best, least = None, math.inf
        for i in range(5):
            plan = cls._focused(*polygon, 2.0 ** (-i / 4), window)
            degree = plan.degree(plan.window)
            if i and (degree * math.log(plan.rho) > MAX_LOG_GROWTH
                      or degree < -plan.shift * plan.half * plan.window):
                break
            work, dense = _step_work(gen_dt, plan, n_steps * plan.substeps)
            if work < least:
                best, least = replace(plan, dense=dense), work
        # (2 / h') A - 2 (c / h') I on the CSR arrays, as scipy's operators
        # form it, then its CSC arrays; the CSR ones are freed on return
        n, index = gen_dt.shape[0], gen_dt.indices.dtype
        scaled = (gen_dt.indptr.astype(index, copy=False), gen_dt.indices,
                  gen_dt.data * (2.0 / (best.half * best.substeps)))
        diagonal = (np.arange(n + 1, dtype=index), np.arange(n, dtype=index),
                    np.full(n, 2.0 * best.shift))
        indptr, indices, data = _csc_arrays(
            n, _csr_binop(csr_minus_csr, n, scaled, diagonal))
        return replace(best, doubled=sparse.csc_array((data, indices, indptr),
                                                      shape=gen_dt.shape))

    @classmethod
    def _focused(cls, lo, hi, eta, vertices, focus, window):
        """The plan, without ``doubled``, of foci c -+ ``focus`` h on the polygon.

        The polygon is ``_polygon``'s: its box Re z in [lo, hi],
        |Im z| <= eta sets c and h, and rho is the largest parameter of
        the ellipse with those foci over its ``vertices``, so the ellipse
        holds the polygon, which is convex.

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
        # the ellipses with foci -1, 1 through the vertices scaled to X
        x, y = vertices.real / half - shift, vertices.imag / half
        axis = max(1.0, 0.5 * float((np.hypot(x - 1.0, y) + np.hypot(x + 1.0, y)).max()))
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
        if count not in self._degrees:
            tails = np.logaddexp.accumulate(self._log_terms(count)[::-1])[::-1]
            self._degrees[count] = int(np.argmax(tails[1:] < LOG_TAIL))
        return self._degrees[count]

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
        # in place, one count x (degree + 1) array; doubling is exact
        series = ive(j, z)
        series *= np.exp(z * (self.shift + 1.0))
        series[:, 1:] *= 2.0
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
        T_0 is one call of scipy's compiled CSC kernel ``csc_matvecs``,
        which ``@`` on CSC arrays ends in and which adds A x to y in
        place, here with A = 2 X: for j >= 2 the slot first holds
        -T_(j-2) and the kernel adds 2 X T_(j-1) to it, with no zeroed
        result and no subtract pass; T_1 is the kernel's product into a
        zeroed slot, halved exactly. Column by column, the kernel adds
        each product to its row's entries, so every entry takes its
        terms in ascending column order, as the CSR kernel adds them
        row by row: the same bits, without the chain of dependent adds
        into one row's entries that slows the CSR kernel. The kernel
        reads and writes its buffers flat, so they must be C-contiguous
        float64: ``b`` is copied into the first slot, whatever its order
        or strides, and every slot is a contiguous row of the stack. The
        kernel does not check sizes, so ``b`` must have N rows.
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
                csc_matvecs(n, n, columns, a.indptr, a.indices, a.data,
                            flat[0], flat[1])
                flat[1] *= 0.5
            else:  # T_j = 2 X T_(j-1) - T_(j-2); slot - 1 and - 2 wrap
                np.negative(flat[slot - 2], out=flat[slot])
                csc_matvecs(n, n, columns, a.indptr, a.indices, a.data,
                            flat[slot - 1], flat[slot])
            if slot == COMBINE_CHUNK - 1 or j == degree:
                yield j - slot, vectors[:slot + 1]

    def apply(self, b, coefficients):
        """The steps sum_j a_j(k) T_j(X) b of ``coefficients``, stacked.

        ``b`` is a real N x m array and is left untouched; row k - 1 of
        ``coefficients`` gives step k. Every row of every step is formed
        (``apply_heads`` with all N rows): the dense step is formed this
        way, and a window the divergence guard cannot certify
        (``evolve``) is formed again so.
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


def real_form(a):
    """[[Re A, -Im A], [Im A, Re A]] of a dense complex A, as CSR.

    Its exponential acting on [b; 0] gives [Re exp(A) b; Im exp(A) b].
    """
    return sparse.csr_array(np.block([[a.real, -a.imag], [a.imag, a.real]]))


def evolve(gen_dt, n_steps, state, rows, dt):
    """The first ``rows`` rows of exp(k ``gen_dt``) ``state``, k = 0..``n_steps``.

    ``gen_dt`` is a real sparse CSR matrix, ``state`` a real N x m array
    and ``dt`` the caller's step, which only the error names. One plan
    (``ChebyshevPlan.of``) serves every step; where it needs s substeps,
    a grid s times finer is stepped and every s-th frame kept.

    Returns (frames, report): frames is (``n_steps`` + 1) x ``rows`` x m,
    frame 0 the state's own rows. report holds the ``plan`` (its
    ``dense`` names the way), the ``window`` (1 for the dense step), the
    sparse ``products`` made over the finer grid (for the dense step,
    those that form it), the times ``plan_s``, ``setup_s`` (forming the
    dense step or the window's coefficients) and ``step_s``, and the
    ``peak`` entry (at least 1) of the rows the guard read.

    Raises
    ------
    DivergenceError
        If any entry exceeds DIVERGENCE_GUARD, naming the first step over
        it of the finer grid, within a window too.
    """
    started = time.perf_counter()
    n, columns = state.shape
    plan = ChebyshevPlan.of(gen_dt, n_steps, max(1, WINDOW_ENTRIES // (n * columns)))
    fine_dt, fine_steps = dt / plan.substeps, n_steps * plan.substeps
    planned = time.perf_counter()
    if plan.dense:
        window, step = 1, _dense_step(plan)
        products = plan.degree(1) * math.ceil(n / COLUMN_BLOCK)
    else:
        window, products = plan.window, plan.products(fine_steps)
        # a last, shorter window takes the first rows of the same series
        series = plan.coefficients(window)
    built = time.perf_counter()

    frames = np.empty((fine_steps + 1, rows, columns))
    frames[0] = state[:rows]
    run_peak = 1.0
    for start in range(0, fine_steps, window):
        count = min(window, fine_steps - start)
        if plan.dense:
            last = step @ state
            heads = last[None, :rows]
        else:
            heads, last = plan.apply_heads(state, series[:count], rows)
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
                    f"diverged at step {k} of dt = {fine_dt:.6g} (t = {k * fine_dt:.6g}), "
                    f"peak entry {peaks[bad]:.3g}", step=k, time=k * fine_dt)
        run_peak = max(run_peak, peak)
        frames[start + 1:start + 1 + count] = heads
        state = last
    return frames[::plan.substeps], dict(
        plan=plan, window=window, products=products, peak=run_peak, plan_s=planned - started,
        setup_s=built - planned, step_s=time.perf_counter() - built)
