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
built only as a CSR matrix (int32 indices) from its Kronecker terms, so
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
from .liouville import spre, spost
from .models import bath_correlation_modes, matsubara_tail
from .trajectories import BasisTrajectorySet

log = logging.getLogger(__name__)

DIVERGENCE_GUARD = 1e6

# Identity columns per Taylor application when forming exp(G dt). At
# C4's N = 1820 (degree 55) on one Xeon vCPU, one BLAS thread, blocks of
# 128 built the step in 2.0-2.2 s; blocks of 32-64 took 2.6-2.9 s, of
# 256-512 3.0-3.4 s, and the whole identity at once 3.1-3.5 s and
# 135 MB more memory.
COLUMN_BLOCK = 128

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

# Work units for choosing how to step: a sparse product with w columns
# costs nnz * w units plus CALL_OVERHEAD, and a frame of the dense step
# costs N^2 (one pass over the step). On one Xeon vCPU, one BLAS thread,
# over the eleven benchmark hierarchies (N = 140-1980), a product of the
# N x 4 state took 2.4 ns per nonzero and column plus 12 us per call
# (a least-squares fit), so a call costs about 5000 units; a dense frame
# took 1.2-3.6 ns per entry.
CALL_OVERHEAD = 5000


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
    """Sparse generator of the full auxiliary hierarchy.

    Returns the CSR matrix ``gen`` (int32 indices) such that the stacked
    (renormalized) auxiliary vector obeys x' = gen x, with the physical
    block first. Over the sorted occupations n it is the Kronecker sum
    I (x) S - diag(n . rates) (x) I + sum_k [R_k (x) C + L_k (x) Lambda_k]
    (S: system superoperator and terminator; C = -i[Q, .]; R_k, L_k and
    Lambda_k: mode k's raising and lowering ladders and lowering
    superoperator). Its D^2 x D^2 blocks are placed in one pass, since a
    sparse sum would flip the sign of zero parts; exact zeros are dropped.
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

    # int32 holds the indices of any hierarchy that fits in memory
    rows, cols = (np.concatenate(a).astype(np.int32) for a in (rows, cols))
    i, j = np.indices((blk, blk), dtype=np.int32)
    n = len(occ) * blk
    gen = sparse.csr_array((np.concatenate(blocks).ravel(),
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
        A, the matrix with its mean diagonal mu taken off.
    mu : complex
        The shift, trace / N.
    degree, substeps : int
        m and s, minimising m * s subject to ||A||_1 / s <= theta_m.
    norm : float
        The exact 1-norm of A.
    """

    shifted: sparse.csr_array
    mu: complex
    degree: int
    substeps: int
    norm: float

    @classmethod
    def of(cls, gen_dt):
        """Plan exp(gen_dt) for a sparse square ``gen_dt``."""
        n = gen_dt.shape[0]
        mu = complex(gen_dt.trace()) / n
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
        """exp(A + mu I) b for a dense ``b``, leaving ``b`` untouched."""
        eta = np.exp(self.mu / self.substeps)
        out = np.array(b, dtype=complex)
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
    step = np.empty((n, n), dtype=complex)
    for start in range(0, n, COLUMN_BLOCK):
        width = min(COLUMN_BLOCK, n - start)
        columns = np.zeros((n, width), dtype=complex)
        columns[start + np.arange(width), np.arange(width)] = 1.0
        step[:, start:start + width] = plan.apply(columns)
    return step


def _prefers_dense_step(plan, n_steps, width):
    """Whether forming the dense step beats Taylor frames on ``width`` columns.

    Estimated in CALL_OVERHEAD's work units. The dense step costs its
    ceil(N / COLUMN_BLOCK) applications of the series plus N^2 per
    frame; Taylor frames cost one application per frame.
    """
    n, nnz = plan.shifted.shape[0], plan.shifted.nnz
    dense = (plan.products * (n * nnz + math.ceil(n / COLUMN_BLOCK) * CALL_OVERHEAD)
             + n_steps * n * n)
    frames = n_steps * plan.products * (width * nnz + CALL_OVERHEAD)
    return dense <= frames


def gen_heom(params, cfg, grid):
    """Open-system basis trajectories from the hierarchy integrator.

    The grid step exp(G dt) of the hierarchy generator G is one Taylor
    series of G's sparse form, planned once and exact to double
    precision. Either it forms the dense step and every frame is one
    dense product with the stacked auxiliary state, or it acts on that
    state at every frame; the cheaper way by a work estimate is taken.
    A DEBUG record on this module's logger reports the hierarchy size,
    the generator's nonzeros, the way taken, the series' degree,
    substeps and 1-norm, the sparse products made, the set-up and
    stepping times and the peak auxiliary entry.

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
    if _prefers_dense_step(plan, grid.n_steps, blk):
        way, step = "dense step", _dense_step(plan)
        products = plan.products * math.ceil(n / COLUMN_BLOCK)
    else:
        way, step = "Taylor frames", None
        products = plan.products * grid.n_steps
    built = time.perf_counter()

    state = np.zeros((n, blk), dtype=complex)
    state[:blk, :] = np.eye(blk)
    maps = np.empty((grid.n_steps + 1, blk, blk), dtype=complex)
    maps[0] = state[:blk]
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
        maps[k] = state[:blk]
    log.debug(
        "hierarchy: %d rows (%d ADOs), %d nonzeros; %s, Taylor degree %d, "
        "%d substeps, 1-norm %.6g, %d sparse products; set up in %.3f s, "
        "%d steps in %.3f s, peak auxiliary entry %.3g",
        n, n // blk, gen_dt.nnz, way, plan.degree, plan.substeps, plan.norm,
        products, built - started, grid.n_steps, time.perf_counter() - built,
        run_peak,
    )
    return BasisTrajectorySet.from_maps(grid, maps)
