"""Reference trajectory generators: unitary, Lindblad, exact dephasing.

Each generator builds the stack of dynamical maps E_k (E_0 = identity)
and stores it with :meth:`~ttmkit.trajectories.BasisTrajectorySet.from_maps`,
which lays it out as the evolved operator basis. The
hierarchy integrator for the non-perturbative bath lives in
:mod:`ttmkit.heom`; its Chebyshev step also steps the Lindblad equation.
"""

import numpy as np

from .errors import ConfigurationError, DimensionError
from .heom import _stability_substeps, step_matrix
from .liouville import is_hermitian, spre, spost, unitary_superop
from .models import lineshape
from .trajectories import BasisTrajectorySet


def _hamiltonian(h):
    """``h`` as a complex array, refused unless square and Hermitian."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hamiltonian must be square, got shape {h.shape}")
    if not is_hermitian(h):
        raise DimensionError("hamiltonian must be Hermitian")
    return h


def gen_unitary(h, grid):
    """Closed-system basis trajectories under a Hermitian ``h``.

    Every frame is produced from the exact propagator exp(-i h t_k)
    via the eigendecomposition of ``h``, not by accumulating steps, so
    frames carry no integration error.
    """
    h = _hamiltonian(h)
    energies, modes = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * grid.times[:, None])
    maps = unitary_superop((modes * phases[:, None, :]) @ modes.conj().T)
    maps[0] = np.eye(h.shape[0] ** 2)
    return BasisTrajectorySet.from_maps(grid, maps)


def lindblad_superop(h, jump_ops, rates):
    """Vectorized generator of a Lindblad master equation.

    Parameters
    ----------
    h : ndarray
        Hermitian system Hamiltonian; ``DimensionError`` if it is not.
    jump_ops : sequence of ndarray
        Jump operators A_m.
    rates : sequence of float
        Nonnegative rates r_m, one per jump operator.
    """
    h = _hamiltonian(h)
    dim = h.shape[0]
    if len(jump_ops) != len(rates):
        raise ConfigurationError(
            f"{len(jump_ops)} jump operators but {len(rates)} rates"
        )
    gen = -1j * (spre(h) - spost(h))
    for op, rate in zip(jump_ops, rates):
        op = np.asarray(op, dtype=complex)
        if op.shape != (dim, dim):
            raise DimensionError(
                f"jump operator shape {op.shape} does not match dim {dim}"
            )
        if rate < 0:
            raise ConfigurationError(f"negative rate {rate}")
        opdop = op.conj().T @ op
        gen += rate * (
            np.kron(op, op.conj())
            - 0.5 * (spre(opdop) + spost(opdop))
        )
    return gen


def gen_lindblad(h, jump_ops, rates, grid):
    """Basis trajectories of a Lindblad equation on ``grid``.

    Each frame is the one before times exp(gen dt) of the vectorized
    generator, exact to double precision by the bound of the hierarchy's
    Chebyshev plan (:func:`~ttmkit.heom.step_matrix`).
    """
    gen = lindblad_superop(h, jump_ops, rates)
    step = step_matrix(gen, grid.dt, _stability_substeps(gen, grid.dt))
    maps = np.empty((grid.n_steps + 1,) + gen.shape, dtype=complex)
    maps[0] = np.eye(gen.shape[0])
    for k in range(1, grid.n_steps + 1):
        maps[k] = step @ maps[k - 1]
    return BasisTrajectorySet.from_maps(grid, maps)


def gen_dephasing_analytic(params, grid):
    """Exactly solvable pure-dephasing basis trajectories.

    Requires the coupling operator to commute with the system
    Hamiltonian. In the common eigenbasis each matrix element (a, b)
    evolves independently:

        exp(-i (E_a - E_b) t)                    free phase
        * exp(-(q_a - q_b)^2 * reg(t))           Gaussian decoherence
        * exp(-i (q_a^2 - q_b^2) * img(t))       bath-induced shift

    with q the coupling-operator eigenvalues and reg/img the real and
    imaginary parts of the bath lineshape g(t) of
    :func:`~ttmkit.models.lineshape`, summed over the same mode
    expansion the hierarchy integrator uses.
    """
    h = params.hamiltonian
    q_op = params.coupling_op
    dim = params.dim
    scale = max(1.0, float(np.abs(h).max()), float(np.abs(q_op).max()))
    if np.abs(h @ q_op - q_op @ h).max() > 1e-10 * scale:
        raise ConfigurationError(
            "coupling operator must commute with the Hamiltonian for the "
            "pure-dephasing solution"
        )
    # the common eigenbasis: Q's within each eigenspace of H (to the tolerance above)
    energies, modes = np.linalg.eigh(h)
    edges = np.flatnonzero(np.diff(energies) > 1e-10 * scale) + 1
    for space in np.split(np.arange(dim), edges):
        basis = modes[:, space]
        modes[:, space] = basis @ np.linalg.eigh(basis.conj().T @ q_op @ basis)[1]
    q = np.diag(modes.conj().T @ q_op @ modes).real

    gap = energies[:, None] - energies[None, :]
    damp = (q[:, None] - q[None, :]) ** 2
    shift = (q[:, None] ** 2 - q[None, :] ** 2)

    # Elementwise factors in the eigenbasis, as a diagonal superoperator.
    t = grid.times[1:, None, None]
    g = lineshape(t, params.lam, params.gamma, params.beta)
    factors = np.ones((grid.n_steps + 1, dim, dim), dtype=complex)
    factors[1:] = np.exp(-1j * gap * t - damp * g.real - 1j * shift * g.imag)
    rotate = unitary_superop(modes)
    maps = (rotate * factors.reshape(-1, 1, dim * dim)) @ rotate.conj().T
    maps[0] = np.eye(dim * dim)
    return BasisTrajectorySet.from_maps(grid, maps)
