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
exp(G dt) acts through one truncated Taylor series of the sparse G dt
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011), planned once
per hierarchy: the degree m and the number of substeps s come from the
exact 1-norm of G dt shifted by its mean diagonal, and all m terms are
applied with no per-term norm checks. The series either forms the dense
step, acting on blocks of identity columns, after which all D^2 basis
columns ride through one dense product per frame, or acts on the N x D^2
stacked state at every frame with no dense step at all. ``gen_heom``
takes whichever a work estimate in N, the nonzeros, m*s and the number
of frames finds cheaper.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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

# Identity columns per Taylor application when forming exp(G dt). In
# real arithmetic on one Xeon vCPU, one BLAS thread, blocks of 64 built
# the step as fast as blocks of 128 or faster (N = 224, 480, 660, 880,
# 1820: 2.4, 13.2, 22.1, 43 and 514 ms against 2.3, 13.8, 22.6, 48 and
# 585 ms) with half the memory per block; blocks of 256 took 1.2-1.7x
# longer, and blocks of 32 gained 7-11 % at N = 480 and 1820 but lost
# 24 % at N = 880.
COLUMN_BLOCK = 64

# theta_m: the largest 1-norm of A for which m Taylor terms of exp(A)
# meet double precision (Al-Mohy & Higham 2011, Table 3.1; m <= 30 from
# Higham & Al-Mohy, Acta Numerica 19, 159, 2010, Table A.3).
THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

# Work units for choosing how to step the real Pauli form: a sparse
# product of the N x 4 state costs nnz units per column plus
# CALL_OVERHEAD; a product with COLUMN_BLOCK identity columns, which
# vectorises better, BLOCK_WORK per nonzero and column; and a frame of
# the dense step DENSE_WORK per entry of the step. On one Xeon vCPU, one
# BLAS thread, over the eleven benchmark hierarchies (N = 140-1980) and
# N = 336: the N x 4 product took 0.80 ns per nonzero and column plus
# 3.7-5.4 us per call (least-squares fits, three runs), so a call costs
# 4600-6700 units; a 64-column product took 0.39-0.50 ns per nonzero
# and column, about half a unit; a dense frame took 0.19-0.28 ns per
# entry up to N = 480 and 0.75-1.17 ns from N = 660 (0.24-1.45 units).
# Timing both ways of 16 (hierarchy, frames) cases, these weights pick
# the faster way in all 16; the complex-arithmetic weights (5000, 1, 1)
# picked it in 13, forming no dense step at N = 336 or at N = 480 over
# 200 frames, where it is twice as fast.
CALL_OVERHEAD = 6000
BLOCK_WORK = 0.5
DENSE_WORK = 0.75


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
class TaylorPlan:
    """exp(A + mu I) as s substeps of the degree-m Taylor series of A / s.

    Attributes
    ----------
    shifted : scipy.sparse.csr_array
        A, the matrix with its mean diagonal mu taken off, real or complex.
    mu : float or complex
        The shift, trace / N; real when the trace is.
    degree, substeps : int
        m and s, minimising m * s subject to ||A||_1 / s <= theta_m.
    norm : float
        The exact 1-norm of A.
    """

    shifted: sparse.csr_array
    mu: float | complex
    degree: int
    substeps: int
    norm: float

    @classmethod
    def of(cls, gen_dt):
        """Plan exp(gen_dt) for a sparse square ``gen_dt``."""
        n = gen_dt.shape[0]
        mu = gen_dt.trace().item() / n
        shifted = sparse.csr_array(gen_dt - mu * sparse.eye_array(n))
        norm = float(abs(shifted).sum(axis=0).max())
        degree, substeps = min(
            ((m, max(1, math.ceil(norm / theta))) for m, theta in THETA.items()),
            key=lambda pair: pair[0] * pair[1],
        )
        return cls(shifted, mu, degree, substeps, norm)

    @property
    def products(self):
        """Sparse products per application, m * s."""
        return self.degree * self.substeps

    def apply(self, b):
        """exp(A + mu I) b for a dense ``b``, leaving ``b`` untouched.

        The result has the common dtype of ``b`` and A.
        """
        eta = np.exp(self.mu / self.substeps)
        out = np.asarray(b)
        out = out.astype(np.promote_types(out.dtype, self.shifted.dtype))
        for _ in range(self.substeps):
            term = out
            for j in range(1, self.degree + 1):
                term = self.shifted @ term
                term *= 1.0 / (self.substeps * j)
                out += term
            out *= eta
        return out


def _dense_step(plan):
    """Dense exp(G dt) of a planned series, COLUMN_BLOCK columns at a time."""
    n = plan.shifted.shape[0]
    step = np.empty((n, n), dtype=plan.shifted.dtype)
    for start in range(0, n, COLUMN_BLOCK):
        width = min(COLUMN_BLOCK, n - start)
        columns = np.zeros((n, width), dtype=plan.shifted.dtype)
        columns[start + np.arange(width), np.arange(width)] = 1.0
        step[:, start:start + width] = plan.apply(columns)
    return step


def _prefers_dense_step(plan, n_steps):
    """Whether forming the dense step beats Taylor frames on the N x 4 state.

    Estimated in CALL_OVERHEAD's work units. The dense step costs its
    ceil(N / COLUMN_BLOCK) applications of the series plus a pass over
    the N^2 step per frame; Taylor frames cost one application per frame.
    """
    n, nnz = plan.shifted.shape[0], plan.shifted.nnz
    dense = (plan.products * (BLOCK_WORK * n * nnz
                              + math.ceil(n / COLUMN_BLOCK) * CALL_OVERHEAD)
             + n_steps * DENSE_WORK * n * n)
    frames = n_steps * plan.products * (4 * nnz + CALL_OVERHEAD)
    return dense <= frames


def gen_heom(params, cfg, grid):
    """Open-system basis trajectories from the hierarchy integrator.

    The grid step exp(G dt) of the hierarchy generator G is one Taylor
    series of the sparse, real Pauli form of G (``hierarchy_generator``),
    planned once and exact to double precision. Either it forms the
    dense step and every frame is one dense product with the stacked
    auxiliary state, or it acts on that state at every frame; the
    cheaper way by a work estimate is taken. The state starts from the
    inputs I, sigma_x, sigma_y and sigma_z; the maps of the |a><b| basis
    follow from its physical block by one change of basis, exact at
    frame 0. A DEBUG record on this module's logger reports the
    hierarchy size, the nonzeros of the real Pauli form that is stepped,
    the way taken, the series' degree, substeps and 1-norm, the sparse
    products made, the set-up and stepping times and the peak auxiliary
    entry (in Pauli coordinates).

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
        offending step.
    """
    started = time.perf_counter()
    coeffs, rates = bath_correlation_modes(
        params.lam, params.gamma, params.beta, cfg.n_matsubara
    )
    tail = matsubara_tail(params.lam, params.gamma, params.beta, cfg.n_matsubara)
    gen_dt = hierarchy_generator(params.hamiltonian, params.coupling_op,
                                 coeffs, rates, tail, cfg.depth) * grid.dt
    plan = TaylorPlan.of(gen_dt)
    blk = params.dim ** 2
    n = gen_dt.shape[0]
    if _prefers_dense_step(plan, grid.n_steps):
        way, step = "dense step", _dense_step(plan)
        products = plan.products * math.ceil(n / COLUMN_BLOCK)
    else:
        way, step = "Taylor frames", None
        products = plan.products * grid.n_steps
    built = time.perf_counter()

    # the inputs I, sigma_x, sigma_y, sigma_z in Pauli coordinates
    state = np.zeros((n, blk))
    state[:blk, :] = np.eye(blk)
    frames = np.empty((grid.n_steps + 1, blk, blk))
    frames[0] = state[:blk]
    run_peak = 1.0
    for k in range(1, grid.n_steps + 1):
        state = plan.apply(state) if step is None else step @ state
        peak = float(np.abs(state).max())
        if not np.isfinite(peak) or peak > DIVERGENCE_GUARD:
            raise DivergenceError(
                f"hierarchy diverged at step {k} (t = {k * grid.dt:.6g}), "
                f"peak entry {peak:.3g}; reduce the step or increase depth",
                step=k,
                time=k * grid.dt,
            )
        run_peak = max(run_peak, peak)
        frames[k] = state[:blk]
    log.debug(
        "hierarchy: %d rows (%d ADOs), %d nonzeros in the real Pauli form; "
        "%s, Taylor degree %d, %d substeps, 1-norm %.6g, %d sparse products; "
        "set up in %.3f s, %d steps in %.3f s, peak auxiliary entry %.3g",
        n, n // blk, gen_dt.nnz, way, plan.degree, plan.substeps,
        plan.norm, products, built - started, grid.n_steps,
        time.perf_counter() - built, run_peak,
    )
    # back to the |a><b| basis: E_k = B0 M_k B0^H / 2, so E_0 = I exactly
    maps = PAULI_BASIS @ frames @ (0.5 * PAULI_BASIS.conj().T)
    return BasisTrajectorySet.from_maps(grid, maps)
