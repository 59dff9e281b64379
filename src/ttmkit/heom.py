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
built only as a CSR matrix (int32 indices) from its Kronecker terms.
Every rate and the terminator are real and Q is Hermitian, so every
auxiliary stays Hermitian (Tanimura, J. Chem. Phys. 153, 020901, 2020)
and, in the basis I, sigma_x, sigma_y, sigma_z of each auxiliary, G is
a real matrix. G is built in that real Pauli form, each D^2 x D^2 block
converted by an exact congruence that refuses any nonzero imaginary
part; ``gen_heom`` steps it and maps the physical block back to the
|a><b| basis once, for all frames.
The frames exp(k G dt) come from one Chebyshev series of the sparse
G dt (``ChebyshevPlan``), planned once per hierarchy. Gershgorin discs
of its symmetric and skew parts bound the numerical range to a box; the
degree is the least whose tail on the Bernstein ellipse around the box
is below double precision by the Crouzeix-Palencia bound, and the
window of frames one series serves is the widest whose bound on the
series' rounding amplification stays within MAX_AMPLIFICATION. The
vectors T_j(X) v of the series do not depend on time, so one recurrence
on the stacked state gives every frame of a window as a small
combination of them. The one-frame series either forms the dense step,
acting on blocks of identity columns, after which all D^2 basis columns
ride through one dense product per frame, or the windowed series acts on
the N x D^2 stacked state with no dense step at all. ``gen_heom`` takes
whichever a work estimate in N, the nonzeros, the window, the degrees
and the number of frames finds cheaper.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.special import ive

from .errors import ConfigurationError, DivergenceError
# Unused here: perfbench/test_perfbench.py requires both names in ttmkit.heom.
from .generators import _stability_substeps, step_matrix  # noqa: F401
from .liouville import PAULI, spre, spost
from .models import bath_correlation_modes, matsubara_tail
from .trajectories import BasisTrajectorySet

log = logging.getLogger(__name__)

DIVERGENCE_GUARD = 1e6

# B0: columns vec(I), vec(sigma_x), vec(sigma_y), vec(sigma_z), entries
# 0, +-1 or +-i, so B0 B0^H = 2 I exactly.
PAULI_BASIS = np.stack([m.reshape(-1) for m in (np.eye(2), *PAULI)], axis=1)

# Identity columns per application of the one-frame series when forming
# exp(G dt). In real arithmetic on one Xeon vCPU, one BLAS thread, blocks
# of 64 built the step as fast as blocks of 128 or faster (N = 224, 480,
# 660, 880, 1820: 2.4, 13.2, 22.1, 43 and 514 ms against 2.3, 13.8, 22.6,
# 48 and 585 ms, with the Taylor series this step used before) with half
# the memory per block; blocks of 256 took 1.2-1.7x longer, and blocks of
# 32 gained 7-11 % at N = 480 and 1820 but lost 24 % at N = 880.
COLUMN_BLOCK = 64

# The largest amplification bound M a window of substeps may have. The
# series combines vectors whose rounding it amplifies by at most M, so
# M <= 2^10 keeps a frame within about 2^-43 = 1.1e-13 of the exact
# exponential, relative to the state: the accuracy the dense step and
# the hierarchy's tests hold every frame to. At C4 (N = 1820) windows of
# 1-5 frames have M = 6.7, 25, 89, 317 and 1130.
MAX_AMPLIFICATION = 2.0 ** 10
# log(2^-53 / (1 + sqrt 2)): the series' tail beyond its degree stays below
LOG_TAIL = -53 * math.log(2.0) - math.log1p(math.sqrt(2.0))

# Entries of the stacked state a window holds for all its frames at once
# (32 MB). The bound M lets a window span more frames the smaller the
# step is: C7a's N = 660 at dt = 0.0025 takes 911 frames, 2.4 M entries.
WINDOW_ENTRIES = 2 ** 22

# Chebyshev vectors combined into a window's frames per matrix product.
# At C4 over 1000 frames (window 4, degree 80) chunks of 16 stepped in
# 1.14-1.54 s against 1.08-1.68 s holding all 81 vectors (four runs each,
# one BLAS thread, shared 2-vCPU host), with a fifth of the memory.
COMBINE_CHUNK = 16

# Work units for choosing how to step the real Pauli form: a step of the
# recurrence on the N x 4 state costs nnz units per column plus
# CALL_OVERHEAD; one on COLUMN_BLOCK identity columns, which vectorises
# better, BLOCK_WORK per nonzero and column; a frame of the dense step
# DENSE_WORK per entry of the step; combining the stored vectors into a
# window's frames COMBINE_WORK per entry of a vector and frame; and a
# coefficient of the window's series (scipy's ive) COEFFICIENT_WORK. On
# one Xeon vCPU, one BLAS thread, over the eleven benchmark hierarchies
# (N = 140-1980) and N = 40 and 336, a step on the N x 4 state took
# 0.83-1.02 ns per nonzero and column plus 5.0-5.8 us per call
# (least-squares fits, two runs), so a call costs 5600-6000 units; a
# 64-column step of the one-frame series, its combination included,
# 0.6-1.3 units per nonzero and column; a dense frame 0.17-0.43 units
# per entry up to N = 480 and 0.7-1.2 from N = 660; a combination
# 0.06-0.12 units; and a coefficient 300-1000 units. Timing both ways of
# 16 (hierarchy, frames) cases, these weights pick the faster way in all
# 16, by a factor of 1.6 or more in the estimate; without the
# coefficient term they take frames at N = 224 over 200 frames, where
# the dense step is 1.5 times faster. Above N = 480 the dense frame is
# underestimated, but there the dense step's build alone costs more than
# windowed frames.
CALL_OVERHEAD = 6000
BLOCK_WORK = 0.75
DENSE_WORK = 0.3
COMBINE_WORK = 0.08
COEFFICIENT_WORK = 600


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
    exactly. The blocks are placed in one pass, since a sparse sum would
    flip the sign of zero parts; exact zeros are dropped.

    Raises
    ------
    ConfigurationError
        If any block has a nonzero imaginary part in the Pauli basis: the
        hierarchy does not keep its auxiliaries Hermitian.
    """
    blk = h.shape[0] ** 2
    # the occupations, sorted: each mode's count prepended to the rest's
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in coeffs:
        total = occ.sum(axis=1)
        occ = np.concatenate([np.insert(occ[total <= depth - n], 0, n, axis=1)
                              for n in range(depth + 1)])
    commut = spre(q_op) - spost(q_op)
    sys_gen = -1j * (spre(h) - spost(h)) - tail * (commut @ commut)
    # one dot per auxiliary: the batched occ @ rates rounds differently
    decay = np.array([np.dot(idx, rates) for idx in occ])
    abs_c = np.abs(coeffs)
    safe_c = np.where(abs_c > 0, abs_c, 1.0)

    rows, cols = [np.arange(len(occ))], [np.arange(len(occ))]
    blocks = [sys_gen - decay[:, None, None] * np.eye(blk)]
    # occ's rows as records, which numpy orders lexicographically
    records = occ.view([("", occ.dtype)] * len(coeffs)).ravel()
    below = np.flatnonzero(occ.sum(axis=1) < depth)
    for k, c in enumerate(coeffs):
        raised = occ[below]
        raised[:, k] += 1
        above = np.searchsorted(records, raised.view(records.dtype).ravel())
        lower_op = -1j * (c * spre(q_op) - np.conj(c) * spost(q_op))
        rows += [below, above]
        cols += [above, below]
        blocks += [(-1j * np.sqrt(raised[:, k] * abs_c[k]))[:, None, None] * commut,
                   np.sqrt(raised[:, k] / safe_c[k])[:, None, None] * lower_op]

    blocks = (0.5 * PAULI_BASIS.conj().T) @ np.concatenate(blocks) @ PAULI_BASIS
    if np.any(blocks.imag):
        raise ConfigurationError(
            "the hierarchy does not keep its auxiliaries Hermitian (largest "
            f"imaginary part {np.abs(blocks.imag).max():.3g} in the Pauli "
            "basis); the rates and terminator must be real and Q Hermitian"
        )
    # int32 holds the indices of any hierarchy that fits in memory
    rows, cols = (np.concatenate(a).astype(np.int32) for a in (rows, cols))
    i, j = np.indices((blk, blk), dtype=np.int32)
    n = len(occ) * blk
    gen = sparse.csr_array((blocks.real.ravel(),
                            ((rows[:, None, None] * blk + i).ravel(),
                             (cols[:, None, None] * blk + j).ravel())),
                           shape=(n, n))
    gen.eliminate_zeros()
    return gen


@dataclass(frozen=True)
class ChebyshevPlan:
    """exp(k A) b for the substeps k of a window from one Chebyshev series.

    A substep is the frame A itself unless one frame alone would exceed
    the amplification bound below; then it is A / s for the fewest
    substeps s that keep it. The numerical range W(A) of a real sparse A
    lies in a box, found in O(nnz): Re z in [lo, hi] from the Gershgorin
    discs of the symmetric part (A + A^T)/2, |Im z| <= eta from those of
    the skew part. With the centre c and half-width h of [lo, hi],
    X = (A - c) / h and exp(z x) = I_0(z) + 2 sum_j I_j(z) T_j(x)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), substep k is
    sum_j a_j(k) T_j(X) b with a_j(k) = 2 e^(k hi / s) ive(j, k h / s),
    a_0 halved. The vectors T_j(X) b do not depend on k, so one
    three-term recurrence serves every substep of a window. By Crouzeix
    & Palencia (SIAM J. Matrix Anal. Appl. 38, 649, 2017),
    ||p(A) - f(A)||_2 <= (1 + sqrt 2) max over W(A) of |p - f|, and
    |T_j| <= rho^j on the Bernstein ellipse E_rho through the box's
    corners. So substep k is exact to double precision at the least
    degree n with (1 + sqrt 2) sum_{j > n} |a_j(k)| rho^j < 2^-53, and the
    sum M = sum_j |a_j(k)| rho^j bounds how much the series amplifies the
    rounding of its vectors. Beyond j = k h / s every term grows with k
    when hi >= 0, as it is when A has a zero eigenvalue (the hierarchy's
    conserved trace), so a window's last substep sets its degree and M.

    Attributes
    ----------
    doubled : scipy.sparse.csr_array
        2 X, formed as (2 / h) A - 2 (c / h) I: a zero row of A keeps the
        exact diagonal -c / h, and the coefficients take e^(k hi / s) as
        e^((k h / s) (c / h + 1)) with the same c / h, so they cancel to
        rounding and a conserved trace does not drift.
    half : float
        h / s, the half-width of one substep's box.
    shift : float
        c / h.
    eta : float
        The box's imaginary extent: |Im z| <= eta over W(A).
    rho : float
        The Bernstein ellipse through the corners of the box scaled to X.
    substeps : int
        s, the substeps per frame; X and rho do not depend on it.
    window : int
        The substeps one series serves.
    """

    doubled: sparse.csr_array
    half: float
    shift: float
    eta: float
    rho: float
    substeps: int
    window: int
    # log terms by substep, shared by every window of the same box
    _terms: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def of(cls, gen_dt, window):
        """Plan exp(k gen_dt) for the widest window of substeps up to ``window``.

        A frame is one substep unless its bound M would exceed
        MAX_AMPLIFICATION. The window is the largest number of substeps
        L <= ``window`` whose bound M stays within MAX_AMPLIFICATION (at
        least 1). M grows with L, so the search bisects on it.
        """
        diagonal, transposed = gen_dt.diagonal(), gen_dt.T.tocsr()
        sym_radius = abs(gen_dt + transposed).sum(axis=1) / 2 - abs(diagonal)
        lo = float((diagonal - sym_radius).min())
        hi = float((diagonal + sym_radius).max())
        eta = float(abs(gen_dt - transposed).sum(axis=1).max() / 2)
        # a box of no width keeps a valid, wider one: the series needs h > 0
        half = 0.5 * (hi - lo) or eta or 1.0
        shift = 0.5 * (lo + hi) / half
        doubled = (gen_dt * (2.0 / half)
                   - sparse.eye_array(gen_dt.shape[0], format="csr") * (2.0 * shift))
        # the ellipse with foci -1, 1 through the corner 1 + i eta / h
        axis = 0.5 * (eta / half + math.hypot(2.0, eta / half))
        rho = axis + math.sqrt(axis * axis - 1.0)
        # e^(L g) <= M <= 2 e^(L g), g = c + h (rho + 1/rho) / 2: the series
        # summed to every order at the ellipse's right vertex. So substeps
        # with g <= log(MAX_AMPLIFICATION / 2) keep every substep within
        # the bound, and the bisection runs over the few windows between
        # the two bounds
        growth = half * (shift + 0.5 * (rho + 1.0 / rho))
        most, least = math.log(MAX_AMPLIFICATION), math.log(MAX_AMPLIFICATION / 2)
        substeps = max(1, math.ceil(growth / least))
        growth /= substeps
        plan = cls(doubled, half / substeps, shift, eta, rho, substeps, 1)
        low = 1
        if growth > 0:
            low = max(1, min(window, int(least / growth)))
            window = max(1, min(window, int(most / growth)))
        while low < window:
            mid = (low + window + 1) // 2
            if plan.bound(mid) <= MAX_AMPLIFICATION:
                low = mid
            else:
                window = mid - 1
        return replace(plan, window=window)

    @property
    def lo(self):
        """The left end of the box's real range."""
        return (self.shift - 1.0) * self.half * self.substeps

    @property
    def hi(self):
        """The right end of the box's real range."""
        return (self.shift + 1.0) * self.half * self.substeps

    def _log_terms(self, k):
        """log(|a_j(k)| rho^j) for j = 0, 1, ... past the negligible tail."""
        if k not in self._terms:
            z = k * self.half
            # the terms peak near j = z (rho - 1/rho) / 2 and fall faster
            # than geometrically beyond j = z rho
            size = 64 + int(2 * z * self.rho)
            while True:
                j = np.arange(size)
                with np.errstate(divide="ignore"):  # ive underflows to 0 far out
                    terms = (np.log(np.where(j == 0, 1.0, 2.0)) + z * (self.shift + 1.0)
                             + np.log(ive(j, z)) + j * math.log(self.rho))
                if terms[-1] < LOG_TAIL - 40.0:
                    break
                size *= 2
            self._terms[k] = terms
        return self._terms[k]

    def degree(self, count):
        """The series degree n for a window of ``count`` substeps."""
        tails = np.logaddexp.accumulate(self._log_terms(count)[::-1])[::-1]
        return int(np.argmax(tails[1:] < LOG_TAIL))

    def bound(self, count):
        """The amplification bound M for a window of ``count`` substeps."""
        return math.exp(np.logaddexp.reduce(self._log_terms(count)))

    def coefficients(self, count):
        """a_j(k) for the substeps k = 1..``count`` (rows), j = 0..degree(count)."""
        j = np.arange(self.degree(count) + 1)
        z = self.half * np.arange(1, count + 1)[:, None]
        return (np.where(j == 0, 1.0, 2.0) * np.exp(z * (self.shift + 1.0))
                * ive(j, z))

    def products(self, n_steps):
        """Sparse products to step ``n_steps`` frames, a window at a time."""
        return math.ceil(n_steps * self.substeps / self.window) * self.degree(self.window)

    def apply(self, b, coefficients):
        """The substeps sum_j a_j(k) T_j(X) b of ``coefficients``, stacked.

        ``b`` is a real N x m array and is left untouched; row k - 1 of
        ``coefficients`` gives substep k. The vectors T_j(X) b are combined
        into the substeps COMBINE_CHUNK at a time, by one small matrix
        product per chunk.
        """
        count, degree = coefficients.shape[0], coefficients.shape[1] - 1
        vectors = np.empty((COMBINE_CHUNK,) + b.shape)
        out = np.zeros((count, b.size))
        for j in range(degree + 1):
            slot = j % COMBINE_CHUNK
            if j == 0:
                vectors[0] = b
            elif j == 1:
                np.multiply(self.doubled @ b, 0.5, out=vectors[1])
            else:  # T_j = 2 X T_(j-1) - T_(j-2); slot - 1 and - 2 wrap
                np.subtract(self.doubled @ vectors[slot - 1], vectors[slot - 2],
                            out=vectors[slot])
            if slot == COMBINE_CHUNK - 1 or j == degree:
                out += (coefficients[:, j - slot:j + 1]
                        @ vectors[:slot + 1].reshape(slot + 1, -1))
        return out.reshape((count,) + b.shape)


def _dense_step(plan):
    """Dense exp(G dt) by the plan's one-substep series, COLUMN_BLOCK columns at a time."""
    n = plan.doubled.shape[0]
    coefficients = plan.coefficients(1)
    step = np.empty((n, n))
    for start in range(0, n, COLUMN_BLOCK):
        width = min(COLUMN_BLOCK, n - start)
        columns = np.zeros((n, width))
        columns[start + np.arange(width), np.arange(width)] = 1.0
        for _ in range(plan.substeps):
            columns = plan.apply(columns, coefficients)[0]
        step[:, start:start + width] = columns
    return step


def _prefers_dense_step(plan, n_steps):
    """Whether forming the dense step beats windowed frames of the N x 4 state.

    Estimated in CALL_OVERHEAD's work units. The dense step costs the
    one-substep series on ceil(N / COLUMN_BLOCK) blocks of columns per
    substep plus a pass over the N^2 step per frame; windowed frames cost
    the window's coefficients, its series on the state per window and the
    combination of the series' vectors into every substep.
    """
    n, nnz = plan.doubled.shape[0], plan.doubled.nnz
    terms = plan.degree(plan.window) + 1
    dense = (plan.substeps * plan.degree(1)
             * (BLOCK_WORK * n * nnz + math.ceil(n / COLUMN_BLOCK) * CALL_OVERHEAD)
             + n_steps * DENSE_WORK * n * n)
    frames = (COEFFICIENT_WORK * plan.window * terms
              + plan.products(n_steps) * (4 * nnz + CALL_OVERHEAD)
              + n_steps * plan.substeps * terms * COMBINE_WORK * 4 * n)
    return dense <= frames


def gen_heom(params, cfg, grid):
    """Open-system basis trajectories from the hierarchy integrator.

    The frames exp(k G dt) of the hierarchy generator G come from one
    Chebyshev plan of the sparse, real Pauli form of G
    (``hierarchy_generator``), exact to double precision by its bound.
    Either its one-frame series forms the dense step and every frame is
    one dense product with the stacked auxiliary state, or one series of
    the plan's window acts on that state and gives every frame of the
    window; the cheaper way by a work estimate is taken. A frame is split
    into substeps only where one frame alone would amplify rounding by
    more than MAX_AMPLIFICATION, as at coarse steps. The state
    starts from the inputs I, sigma_x, sigma_y and sigma_z; the maps of
    the |a><b| basis follow from its physical block by one change of
    basis, exact at frame 0. A DEBUG record on this module's logger
    reports the hierarchy size, the nonzeros of the real Pauli form that
    is stepped, the way taken, its window, substeps and degree, the box of the
    numerical range and the amplification bound, the sparse products
    made, the set-up and stepping times and the peak auxiliary entry (in
    Pauli coordinates).

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
        first offending step, within a window too.
    """
    started = time.perf_counter()
    coeffs, rates = bath_correlation_modes(
        params.lam, params.gamma, params.beta, cfg.n_matsubara
    )
    tail = matsubara_tail(params.lam, params.gamma, params.beta, cfg.n_matsubara)
    gen_dt = hierarchy_generator(params.hamiltonian, params.coupling_op,
                                 coeffs, rates, tail, cfg.depth) * grid.dt
    blk = params.dim ** 2
    n = gen_dt.shape[0]
    plan = ChebyshevPlan.of(gen_dt, min(grid.n_steps, max(1, WINDOW_ENTRIES // (n * blk))))
    if _prefers_dense_step(plan, grid.n_steps):
        way, window, per_frame, step = "dense step", 1, 1, _dense_step(plan)
        products = plan.substeps * plan.degree(1) * math.ceil(n / COLUMN_BLOCK)

        def advance(state, count):
            return (step @ state)[None]
    else:
        way, window, per_frame = "frames", plan.window, plan.substeps
        products = plan.products(grid.n_steps)
        # a last, shorter window takes the first rows of the same series
        series = plan.coefficients(window)

        def advance(state, count):
            return plan.apply(state, series[:count])
    built = time.perf_counter()

    # the inputs I, sigma_x, sigma_y, sigma_z in Pauli coordinates
    state = np.zeros((n, blk))
    state[:blk, :] = np.eye(blk)
    frames = np.empty((grid.n_steps + 1, blk, blk))
    frames[0] = state[:blk]
    run_peak = 1.0
    total = grid.n_steps * per_frame
    for start in range(0, total, window):
        block = advance(state, min(window, total - start))
        peak = float(np.abs(block).max())
        if not peak <= DIVERGENCE_GUARD:  # NaN too
            peaks = np.abs(block).max(axis=(1, 2))
            bad = int(np.argmax(~(peaks <= DIVERGENCE_GUARD)))
            k = -(-(start + 1 + bad) // per_frame)  # the frame it falls in
            raise DivergenceError(
                f"hierarchy diverged at step {k} (t = {k * grid.dt:.6g}), "
                f"peak entry {peaks[bad]:.3g}; reduce the step or increase "
                "depth",
                step=k,
                time=k * grid.dt,
            )
        run_peak = max(run_peak, peak)
        # the substeps of the block that end a frame
        first = -(-(start + 1) // per_frame) * per_frame
        frames[first // per_frame:(start + len(block)) // per_frame + 1] = \
            block[first - start - 1::per_frame, :blk]
        state = block[-1]
    log.debug(
        "hierarchy: %d rows (%d ADOs), %d nonzeros in the real Pauli form; "
        "%s, window %d, %d substeps, Chebyshev degree %d, box Re [%.6g, %.6g] "
        "|Im| <= %.6g, bound %.3g, %d sparse products; set up in %.3f s, %d "
        "steps in %.3f s, peak auxiliary entry %.3g",
        n, n // blk, gen_dt.nnz, way, window, plan.substeps, plan.degree(window),
        plan.lo, plan.hi, plan.eta, plan.bound(window), products,
        built - started, grid.n_steps, time.perf_counter() - built, run_peak,
    )
    # back to the |a><b| basis: E_k = B0 M_k B0^H / 2, so E_0 = I exactly
    maps = PAULI_BASIS @ frames @ (0.5 * PAULI_BASIS.conj().T)
    return BasisTrajectorySet.from_maps(grid, maps)
