"""Hierarchical integrator for the Drude-Lorentz spin-boson bath.

The bath correlation function is expanded over its Drude pole plus a
finite Matsubara comb; the remainder of the comb is folded into a
time-local correction applied to every tier. Auxiliary matrices are
kept in the renormalized convention (raising and lowering factors
sqrt((n_k+1)|c_k|) and sqrt(n_k/|c_k|)) so their entries stay O(1) and
the divergence guard only trips on genuine instability.

The full hierarchy is one linear, time-independent system x' = G x, so
a grid step is the fixed matrix exp(G dt). G couples each auxiliary
only to its tier neighbours and is a fraction of a percent full, so
exp(G dt) is formed exactly from its sparse form with ``expm_multiply``
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011), acting on
blocks of identity columns. All D^2 basis columns then ride through
the dense step at once.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .errors import ConfigurationError, DivergenceError
# Unused here: perfbench/test_perfbench.py requires both names in ttmkit.heom.
from .generators import _stability_substeps, step_matrix  # noqa: F401
from .liouville import spre, spost
from .models import bath_correlation_modes, matsubara_tail
from .trajectories import BasisTrajectorySet

log = logging.getLogger(__name__)

DIVERGENCE_GUARD = 1e6

# Identity columns per expm_multiply call when forming exp(G dt). At
# N = 1820 on one Xeon vCPU, blocks of 128 built the step in 2.5-5.1 s;
# the whole identity in one call took 3.4-6.6 s and 157 MB more memory.
COLUMN_BLOCK = 128


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


def _multi_indices(n_modes, depth):
    """All mode occupation tuples with total excitation <= depth, sorted."""
    if n_modes == 0:
        return [()]
    return [
        (n,) + rest
        for n in range(depth + 1)
        for rest in _multi_indices(n_modes - 1, depth - n)
    ]


def hierarchy_generator(h, q_op, coeffs, rates, tail, depth):
    """Dense generator of the full auxiliary hierarchy.

    Returns the matrix ``gen`` such that the stacked (renormalized)
    auxiliary vector obeys x' = gen x, with the physical block first.
    """
    dim = h.shape[0]
    n_modes = len(coeffs)
    indices = _multi_indices(n_modes, depth)
    lookup = {idx: a for a, idx in enumerate(indices)}
    n_ado = len(indices)
    blk = dim * dim

    commut = spre(q_op) - spost(q_op)
    sys_gen = -1j * (spre(h) - spost(h)) - tail * (commut @ commut)
    lower_ops = [
        -1j * (coeffs[k] * spre(q_op) - np.conj(coeffs[k]) * spost(q_op))
        for k in range(n_modes)
    ]
    abs_c = np.abs(coeffs)
    safe_c = np.where(abs_c > 0, abs_c, 1.0)

    gen = np.zeros((n_ado * blk, n_ado * blk), dtype=complex)
    for a, idx in enumerate(indices):
        sl_a = slice(a * blk, (a + 1) * blk)
        decay = complex(np.dot(idx, rates))
        gen[sl_a, sl_a] = sys_gen - decay * np.eye(blk)
        for k in range(n_modes):
            up = idx[:k] + (idx[k] + 1,) + idx[k + 1:]
            if sum(up) <= depth:
                b = lookup[up]
                gen[sl_a, b * blk:(b + 1) * blk] = (
                    -1j * math.sqrt((idx[k] + 1) * abs_c[k]) * commut
                )
            if idx[k] > 0:
                down = idx[:k] + (idx[k] - 1,) + idx[k + 1:]
                b = lookup[down]
                gen[sl_a, b * blk:(b + 1) * blk] = (
                    math.sqrt(idx[k] / safe_c[k]) * lower_ops[k]
                )
    return gen


def _step_propagator(gen_dt):
    """Dense exp(gen_dt) of a sparse ``gen_dt``, COLUMN_BLOCK columns at a time."""
    n = gen_dt.shape[0]
    step = np.empty((n, n), dtype=complex)
    for start in range(0, n, COLUMN_BLOCK):
        width = min(COLUMN_BLOCK, n - start)
        columns = np.zeros((n, width), dtype=complex)
        columns[start + np.arange(width), np.arange(width)] = 1.0
        step[:, start:start + width] = expm_multiply(gen_dt, columns)
    return step


def gen_heom(params, cfg, grid):
    """Open-system basis trajectories from the hierarchy integrator.

    The grid step exp(G dt) of the hierarchy generator G is formed once,
    exactly to double precision, from G's sparse form; every frame is
    then one dense product with the stacked auxiliary state. A DEBUG
    record on this module's logger reports the hierarchy size, the
    generator's nonzeros, the build and stepping times and the peak
    auxiliary entry.

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
    h = params.hamiltonian
    q_op = params.coupling_op
    dim = params.dim
    coeffs, rates = bath_correlation_modes(
        params.lam, params.gamma, params.beta, cfg.n_matsubara
    )
    tail = matsubara_tail(params.lam, params.gamma, params.beta, cfg.n_matsubara)
    gen_dt = sparse.csr_array(
        hierarchy_generator(h, q_op, coeffs, rates, tail, cfg.depth)
    ) * grid.dt
    step = _step_propagator(gen_dt)
    built = time.perf_counter()

    blk = dim * dim
    state = np.zeros((gen_dt.shape[0], blk), dtype=complex)
    state[:blk, :] = np.eye(blk)
    maps = np.empty((grid.n_steps + 1, blk, blk), dtype=complex)
    maps[0] = state[:blk]
    run_peak = 1.0
    for k in range(1, grid.n_steps + 1):
        state = step @ state
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
        "hierarchy: %d rows (%d ADOs), %d nonzeros; step propagator built "
        "in %.3f s, %d steps in %.3f s, peak auxiliary entry %.3g",
        gen_dt.shape[0], gen_dt.shape[0] // blk, gen_dt.nnz, built - started,
        grid.n_steps, time.perf_counter() - built, run_peak,
    )
    return BasisTrajectorySet.from_maps(grid, maps)

