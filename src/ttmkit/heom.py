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
part; ``gen_heom`` steps it with the Chebyshev integrator
(``ttmkit.chebyshev.evolve``) and maps the physical block back to the
|a><b| basis once, for all frames.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import chebyshev
from .errors import ConfigurationError, DivergenceError
from .liouville import PAULI, spre, spost
from .models import bath_correlation_modes, matsubara_tail
from .trajectories import BasisTrajectorySet

log = logging.getLogger(__name__)

# B0: columns vec(I), vec(sigma_x), vec(sigma_y), vec(sigma_z), entries
# 0, +-1 or +-i, so B0 B0^H = 2 I exactly.
PAULI_BASIS = np.stack([m.reshape(-1) for m in (np.eye(2), *PAULI)], axis=1)


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


# No caller in the package; perfbench pins them until ROADMAP item 2 deletes them.
def _dense_plan(gen_dt):
    """One-step plan of dense complex A as real CSR [[Re A, -Im A], [Im A, Re A]]."""
    return chebyshev.ChebyshevPlan.of(chebyshev.real_form(gen_dt), 1)


def _stability_substeps(gen, dt):
    """Substeps per step dt of x' = gen x, dense and complex: its plan's."""
    return _dense_plan(gen * dt).substeps


def step_matrix(gen, dt, substeps):
    """exp(gen dt) of a dense complex ``gen``: the dense step of its plan per substep.

    The real form's exponential holds the complex one's in its blocks.
    Too few substeps for the plan's bound are made up by its own.
    """
    plan = _dense_plan(gen * (dt / substeps))
    step = np.linalg.matrix_power(chebyshev._dense_step(plan), substeps * plan.substeps)
    re, im = np.vsplit(step[:, :len(gen)], 2)
    return re + 1j * im


def gen_heom(params, cfg, grid):
    """Open-system basis trajectories from the hierarchy integrator.

    The frames exp(k G dt) of the hierarchy generator G come from
    ``chebyshev.evolve`` on the sparse, real Pauli form of G
    (``hierarchy_generator``), exact to double precision by its plan's
    bound, starting from the inputs I, sigma_x, sigma_y and sigma_z and
    keeping the physical block of every frame; the maps of the |a><b|
    basis follow from it by one change of basis, exact at frame 0. A
    DEBUG record on this module's logger reports the hierarchy size, the
    nonzeros of the real Pauli form that is stepped, the way taken
    (dense step or windowed frames), its window, the substeps per frame,
    and the degree, the box of the numerical range and the amplification
    bound, all three of one substep, with the series' focal half-width
    as a fraction of the box's (``chebyshev.ChebyshevPlan``), then the
    sparse products made over the finer grid (for the dense step, those
    that form it), the set-up times (building G, planning it, and
    forming the dense step or the window's coefficients, each apart),
    the stepping time, the peak entry (in Pauli coordinates) of the rows
    the guard read (the physical blocks and every window's last step)
    and the time per sparse product: of forming the dense step, or of
    stepping the frames, over the products it made.

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
    try:
        # from the inputs I, sigma_x, sigma_y, sigma_z in Pauli coordinates
        frames, run = chebyshev.evolve(gen_dt, grid.n_steps, np.eye(n, blk), blk, grid.dt)
    except DivergenceError as error:
        raise DivergenceError(f"hierarchy {error}; reduce the step or increase depth",
                              step=error.step, time=error.time) from None
    plan, window, products = run["plan"], run["window"], run["products"]
    # the sparse products form the dense step, or step the frames
    product_s = (run["setup_s"] if plan.dense else run["step_s"]) / max(products, 1)
    log.debug(
        "hierarchy: %d rows (%d ADOs), %d nonzeros in the real Pauli form; "
        "%s, window %d, %d substeps, Chebyshev degree %d, box Re [%.6g, %.6g] "
        "|Im| <= %.6g, foci c +- %.3g h, bound %.3g, %d sparse products; built "
        "in %.3g s, planned in %.3g s, %s in %.3g s, %d steps in %.3g s, peak "
        "entry at window ends %.3g, %.3g us per sparse product",
        n, n // blk, gen_dt.nnz, "dense step" if plan.dense else "frames", window,
        plan.substeps, plan.degree(window), plan.lo, plan.hi, plan.eta, plan.focus,
        plan.bound(window), products, generated - started, run["plan_s"],
        "dense step" if plan.dense else "coefficients", run["setup_s"],
        grid.n_steps, run["step_s"], run["peak"], product_s * 1e6,
    )
    # back to the |a><b| basis: E_k = B0 M_k B0^H / 2, so E_0 = I exactly
    maps = PAULI_BASIS @ frames @ (0.5 * PAULI_BASIS.conj().T)
    return BasisTrajectorySet.from_maps(grid, maps)
