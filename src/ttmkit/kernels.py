"""Discrete memory kernels from transfer tensors and back.

On a grid of step dt the tensors and the time-convolution picture are
related by exact identities:

    T_1 = 1 - i L dt + K_1 dt^2,      T_s = K_s dt^2   (s >= 2),

with L the coherent generator. Solving for K_s turns a learned tensor
family into a sampled memory kernel; the inverse map rebuilds the
tensors without loss. K_1 absorbs an O(dt) discretization bias on top
of the physical kernel value near zero delay; it is reported as-is
rather than massaged (fitting and subtracting the bias would trade a
documented artifact for an undocumented one).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .liouville import liouvillian_superop, superop_norm, superop_stack
from .tensors import TransferTensorSequence
from .trajectories import check_step


@dataclass(frozen=True)
class LiouvillianFit:
    """Commutator-form fit of a short-time generator.

    Attributes
    ----------
    hamiltonian : ndarray
        Traceless Hermitian matrix whose commutator superoperator best
        matches the raw estimate (least squares).
    residual : ndarray
        Raw estimate minus the fitted commutator part; anything
        dissipative the single-step data contains.
    residual_norm : float
        Spectral norm of the residual.
    """

    hamiltonian: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    residual_norm: float


def extract_liouvillian(t1, dt):
    """Coherent generator fitted to the first transfer tensor.

    The raw estimate R = i (T_1 - 1)/dt is projected (least squares)
    onto the commutator superoperators of traceless Hermitian matrices.
    In closed form the projection is the Hermitian traceless part of

        x[a, c] = (sum_b R[ab, cb] - sum_b R[bc, ba]) / (2 D),

    the adjoint of rho -> [h, rho] applied to R. The orthogonal
    remainder is dissipative content plus O(dt) kernel contamination.
    ``liouvillian_superop(fit.hamiltonian)`` is the generator L that
    :func:`extract_kernel` takes; with a known Hamiltonian, pass its
    ``liouvillian_superop`` there instead.

    Returns
    -------
    LiouvillianFit
    """
    check_step(dt)
    t1 = superop_stack(t1, ndim=2)
    d2 = t1.shape[0]
    dim = round(np.sqrt(d2))
    raw = 1j * (t1 - np.eye(d2)) / dt
    r4 = raw.reshape(dim, dim, dim, dim)
    x = (np.einsum("abcb->ac", r4) - np.einsum("bcba->ac", r4)) / (2 * dim)
    h = 0.5 * (x + x.conj().T)
    h -= np.trace(h) / dim * np.eye(dim)
    resid = raw - liouvillian_superop(h)
    return LiouvillianFit(
        hamiltonian=h, residual=resid, residual_norm=superop_norm(resid)
    )


@dataclass(frozen=True)
class KernelSequence:
    """Sampled memory kernel plus the coherent generator it pairs with.

    ``kernels[s - 1]`` is K_s, carrying units of energy squared.
    """

    dim: int
    dt: float
    liouvillian: np.ndarray = field(repr=False)
    kernels: np.ndarray = field(repr=False)

    def __post_init__(self):
        liou = superop_stack(self.liouvillian, self.dim, 2)
        kern = superop_stack(self.kernels, self.dim, 3)
        if len(kern) < 1:
            raise DimensionError("need at least one kernel sample")
        check_step(self.dt)
        object.__setattr__(self, "liouvillian", liou)
        object.__setattr__(self, "kernels", kern)

    def __len__(self):
        return self.kernels.shape[0]


def extract_kernel(tensors, liouvillian):
    """Memory kernel samples solving the discrete identities.

    Parameters
    ----------
    tensors : TransferTensorSequence
    liouvillian : ndarray
        Commutator-form generator, ``liouvillian_superop`` of a known
        Hamiltonian or of the one :func:`extract_liouvillian` fits.
    """
    liou = superop_stack(liouvillian, tensors.dim, 2)
    d2 = tensors.dim * tensors.dim
    dt = tensors.dt
    kern = tensors.tensors / dt**2
    kern[0] = (tensors.tensors[0] - np.eye(d2) + 1j * liou * dt) / dt**2
    return KernelSequence(
        dim=tensors.dim, dt=dt, liouvillian=liou, kernels=kern
    )


def kernel_to_tensors(kernel):
    """Exact inverse of :func:`extract_kernel`."""
    d2 = kernel.dim * kernel.dim
    dt = kernel.dt
    tensors = kernel.kernels * dt**2
    tensors[0] = (
        np.eye(d2) - 1j * kernel.liouvillian * dt + kernel.kernels[0] * dt**2
    )
    return TransferTensorSequence(dim=kernel.dim, dt=dt, tensors=tensors)


def kernel_norms(kernel):
    """Spectral norm of each kernel sample (decay diagnostic)."""
    return np.linalg.norm(kernel.kernels, 2, axis=(1, 2))


def kernel_element_series(kernel, source, target):
    """Time series of one kernel matrix element.

    Parameters
    ----------
    source : (int, int)
        Zero-based (row, col) of the density-matrix element the kernel
        acts on.
    target : (int, int)
        Zero-based (row, col) of the density-matrix element it feeds.

    Returns
    -------
    times : ndarray
        Delays s*dt for s = 1 .. N.
    values : complex ndarray
    """
    d = kernel.dim
    si, sj = source
    ti, tj = target
    for idx in (si, sj, ti, tj):
        if not 0 <= idx < d:
            raise DimensionError(f"element index {idx} out of range for dim {d}")
    row = ti * d + tj
    col = si * d + sj
    times = kernel.dt * np.arange(1, len(kernel) + 1)
    return times, kernel.kernels[:, row, col].copy()
