"""Transfer tensors: learning, truncation and long-time propagation.

The tensors T_s are defined by peeling repeated-map content out of the
maps E_k of a :class:`~ttmkit.trajectories.BasisTrajectorySet`,

    T_1 = E_1,    T_n = E_n - sum_{m=1}^{n-1} T_{n-m} E_m,

so that rho(t_m) = sum_{s=1}^{K} T_s rho(t_{m-s}) continues the dynamics
with a finite memory depth K. Under time-translation invariance of the
bath influence this is an identity, and the discarded tail norm bounds
the truncation error per step.

Propagation, map reconstruction and peeling are all this one memory
recursion: peeling runs it on the inverse power series, since
E(z) = (1 - T(z))^-1. Rebuilt maps come back as a basis trajectory
set too, so maps have one container in both directions.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InsufficientLearningError, NumericalError
from .liouville import devectorize, superop_norm, superop_stack
from .maps import MAP_TOL
from .trajectories import BasisTrajectorySet, TimeGrid, check_step


@dataclass(frozen=True)
class TransferTensorSequence:
    """Tensors T_1 .. T_N sharing one grid step.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension D.
    dt : float
        Grid step the tensors were learned on.
    tensors : ndarray, shape (N, D^2, D^2)
        ``tensors[s - 1]`` is T_s.
    """

    dim: int
    dt: float
    tensors: np.ndarray = field(repr=False)

    def __post_init__(self):
        tensors = superop_stack(self.tensors, self.dim, 3)
        if len(tensors) < 1:
            raise DimensionError("need at least one tensor")
        check_step(self.dt)
        object.__setattr__(self, "tensors", tensors)

    def __len__(self):
        return self.tensors.shape[0]

    def truncated(self, k_cutoff):
        """First ``k_cutoff`` tensors as a new sequence."""
        if not 1 <= k_cutoff <= len(self):
            raise DimensionError(
                f"cutoff {k_cutoff} outside 1..{len(self)}"
            )
        return TransferTensorSequence(
            dim=self.dim,
            dt=self.dt,
            tensors=self.tensors[:k_cutoff].copy(),
        )


def _recurse(kernel, frames, start):
    """Fill ``frames[m] = sum_{s=1}^{min(m, K)} kernel[s-1] @ frames[m-s]``.

    ``frames`` is a C-contiguous (n, D^2, B) array, filled in place for
    m >= ``start``, so B columns move through the recursion together.
    Each step is one matmul of the stacked [K_K ... K_1] against the
    history, rows (m - K) D^2 .. m D^2 of one flat (n D^2, B) view of
    ``frames``, written straight into ``frames[m]``. While m < K (the
    warm-up) only frames 0 .. m - 1 exist, and the last m D^2 columns of
    the stack, [K_m ... K_1], meet them.
    """
    k, d2, _ = kernel.shape
    n = frames.shape[0]
    stacked = kernel[::-1].transpose(1, 0, 2).reshape(d2, k * d2)
    flat = frames.reshape(n * d2, -1)  # a view: frames is C-ordered
    for m in range(start, min(k, n)):
        np.matmul(stacked[:, (k - m) * d2:], flat[:m * d2], out=frames[m])
    for m in range(max(start, k), n):
        np.matmul(stacked, flat[(m - k) * d2:m * d2], out=frames[m])


def maps_to_tensors(seq):
    """Learn transfer tensors from the maps of a basis trajectory set.

    ``seq`` is a :class:`~ttmkit.trajectories.BasisTrajectorySet`, whose
    ``.maps`` are E_0 .. E_n with n >= 1; E_0 must be the identity to
    ``MAP_TOL`` and is otherwise not read. The inverse series F = 1 - T
    obeys F_n = sum_{s=1}^{n} (-E_s) F_{n-s}.
    """
    initial = seq.initial_defect()
    if not initial <= MAP_TOL:
        raise DimensionError(f"map at t = 0 deviates from the identity by "
                             f"{initial:.3g}")
    n, d2 = seq.maps.shape[:2]
    # C order, so that _recurse reads each history as one view
    inverse = np.empty((n, d2, d2), dtype=complex)
    inverse[0] = np.eye(d2)
    _recurse(-seq.maps[1:], inverse, 1)
    return TransferTensorSequence(dim=seq.dim, dt=seq.grid.dt,
                                  tensors=-inverse[1:])


def tensors_to_maps(tensors, n_steps=None):
    """Rebuild the maps generated by a tensor family.

    With ``n_steps`` equal to the tensor count (the default) this is
    the exact inverse of :func:`maps_to_tensors`; larger values
    extrapolate with the finite memory. Returns the
    :class:`~ttmkit.trajectories.BasisTrajectorySet` of the maps.
    """
    grid = TimeGrid(dt=tensors.dt,
                    n_steps=len(tensors) if n_steps is None else n_steps)
    d2 = tensors.dim * tensors.dim
    maps = np.empty((grid.n_steps + 1, d2, d2), dtype=complex)
    maps[0] = np.eye(d2)
    _recurse(tensors.tensors, maps, 1)
    return BasisTrajectorySet.from_maps(grid, maps)


def markovianity_profile(tensors):
    """Spectral norms ||T_s|| for s = 1 .. N.

    A memoryless evolution has everything beyond s = 1 at the numerical
    floor; the decay of the tail is the memory fingerprint.
    """
    return np.linalg.norm(tensors.tensors, 2, axis=(1, 2))


def truncation_error(tensors, k_cutoff):
    """Norm of the first discarded tensor, ||T_{K+1}||.

    This is the standard per-step estimate of the error committed by
    cutting the memory at K.
    """
    if not 1 <= k_cutoff < len(tensors):
        raise DimensionError(
            f"cutoff {k_cutoff} leaves no discarded tensor in 1..{len(tensors)}"
        )
    return superop_norm(tensors.tensors[k_cutoff])


def choose_cutoff(norms, tol):
    """Smallest K whose entire discarded tail stays below ``tol``.

    ``norms`` are the tail norms ||T_s||, s = 1 .. N, of
    :func:`markovianity_profile`.

    Raises
    ------
    InsufficientLearningError
        If the last learned tensor is itself above ``tol``; the error
        carries the tail norms so the caller can size a longer learning
        window.
    ValueError
        If ``tol`` is not positive; no window can meet it.
    """
    if not tol > 0:
        raise ValueError(f"cutoff tolerance must be positive, got {tol}")
    if norms[-1] >= tol:
        raise InsufficientLearningError(
            f"tail norm {norms[-1]:.3g} at s = {len(norms)} still above "
            f"tol = {tol:.3g}; extend the learning window",
            tail_norms=norms,
        )
    return int(np.flatnonzero(norms >= tol).max(initial=0)) + 1


def propagate(tensors, k_cutoff, seed, n_total):
    """Propagate a state with the first ``k_cutoff`` tensors.

    Parameters
    ----------
    tensors : TransferTensorSequence
    k_cutoff : int
        Memory depth K; only T_1 .. T_K are used.
    seed : ndarray
        Either a single (D, D) initial state or an (m, D, D) history
        occupying t_0 .. t_{m-1}. During warm-up (fewer than K past
        states known) the recursion runs over the history available,
        which reproduces the learning-window maps exactly.
    n_total : int
        Final step index; the result holds t_0 .. t_{n_total}.

    Returns
    -------
    ndarray, shape (n_total + 1, D, D)
    """
    if not 1 <= k_cutoff <= len(tensors):
        raise DimensionError(f"cutoff {k_cutoff} outside 1..{len(tensors)}")
    d = tensors.dim
    seed = np.asarray(seed, dtype=complex)
    if seed.shape == (d, d):
        seed = seed[None]
    if seed.ndim != 3 or seed.shape[1:] != (d, d):
        raise DimensionError(
            f"seed shape {seed.shape} does not match dim {d}"
        )
    n_seed = seed.shape[0]
    if n_seed > n_total + 1:
        raise DimensionError(
            f"seed supplies {n_seed} frames but only {n_total + 1} requested"
        )
    out = np.empty((n_total + 1, d, d), dtype=complex)
    out[:n_seed] = seed
    _recurse(tensors.tensors[:k_cutoff], out.reshape(n_total + 1, d * d, 1),
             n_seed)
    return out


def stationary_state(tensors):
    """Unit-trace Hermitian fixed point rho = (sum_s T_s) rho.

    This is the state the recursion relaxes to (Cerrillo & Cao, PRL 112,
    110401, 2014), read off the eigenvector of the summed tensors whose
    eigenvalue lies nearest 1 instead of by propagating. Raises
    NumericalError unless exactly one eigenvalue lies within 1e-8 of 1,
    that is when the fixed point is missing or not unique.
    """
    w, v = np.linalg.eig(tensors.tensors.sum(axis=0))
    gaps = np.abs(w - 1.0)
    near = np.count_nonzero(gaps <= 1e-8)
    if near != 1:
        raise NumericalError(f"{near} eigenvalues of the summed tensors lie "
                             "within 1e-8 of 1; a unique fixed point has one")
    rho = devectorize(v[:, np.argmin(gaps)])
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)
