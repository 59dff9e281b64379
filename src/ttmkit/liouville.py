"""Liouville-space conventions and small operator utilities.

Density matrices are plain complex ndarrays. A ``D x D`` matrix is
flattened row-major, ``vec(rho)[i*D + j] = rho[i, j]``, so superoperators
are ``D^2 x D^2`` matrices acting on these vectors and

    vec(A rho B) = (A kron B^T) vec(rho).

Everything in the package sticks to this one convention.
"""

import numpy as np

from .errors import DimensionError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Hermiticity, trace and positivity tolerance of a physical state
# (validate_state).
STATE_TOL = 1e-8
# Smallest resolvable traceless part or Pauli component (bloch_axis).
AXIS_TOL = 1e-12


def vectorize(rho):
    """Flatten a square matrix to a Liouville vector (row-major)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1)


def devectorize(vec):
    """Inverse of :func:`vectorize`.

    Raises
    ------
    DimensionError
        If the vector length is not a perfect square.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {vec.shape}")
    dim = round(np.sqrt(vec.size))
    if dim * dim != vec.size:
        raise DimensionError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape(dim, dim)


def spre(op):
    """Superoperator of left multiplication, rho -> op rho."""
    op = np.asarray(op, dtype=complex)
    n = op.shape[0]
    # np.kron(op, I): the same products, without its generic axis handling
    return (op[:, None, :, None] * np.eye(n)[:, None, :]).reshape(n * n, n * n)


def spost(op):
    """Superoperator of right multiplication, rho -> rho op."""
    op = np.asarray(op, dtype=complex)
    n = op.shape[0]
    # np.kron(I, op^T)
    return (np.eye(n)[:, None, :, None] * op.T[:, None, :]).reshape(n * n, n * n)


def is_hermitian(m):
    """Whether square ``m`` equals m^dagger to 1e-12 of its largest entry."""
    return np.allclose(m, m.conj().T, atol=1e-12 * max(1.0, np.abs(m).max()))


def liouvillian_superop(h):
    """Commutator superoperator of a Hermitian ``h``: rho -> [h, rho].

    Note the bare commutator; the Schroedinger generator is -1j times
    this matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise DimensionError("hamiltonian must be Hermitian")
    return spre(h) - spost(h)


def unitary_superop(u):
    """Conjugation superoperator rho -> u rho u^dagger, or a stack of them."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise DimensionError(f"expected square matrices, got shape {u.shape}")
    d2 = u.shape[-1] ** 2
    out = np.einsum("...ab,...cd->...acbd", u, u.conj())
    return out.reshape(u.shape[:-2] + (d2, d2))


def superop_norm(s):
    """Spectral norm (largest singular value) of a superoperator."""
    s = np.asarray(s)
    if s.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {s.shape}")
    return float(np.linalg.norm(s, 2))


def superop_stack(s, dim=None, ndim=None):
    """``s`` as a complex (..., D^2, D^2) array.

    The one shape rule for superoperators and their stacks: ``dim``
    pins D and ``ndim`` the number of axes (2 for one superoperator, 3
    for a sequence); callers add only their own count rule. Raises
    :class:`DimensionError` otherwise.
    """
    s = np.asarray(s, dtype=complex)
    side = round(np.sqrt(s.shape[-1])) if s.ndim >= 2 else 0
    if (s.ndim < 2 or side * side != s.shape[-1] or s.shape[-2] != s.shape[-1]
            or dim not in (None, side) or ndim not in (None, s.ndim)):
        d2 = "D^2" if dim is None else dim * dim
        lead = "..., " if ndim is None else "n, " * (ndim - 2)
        raise DimensionError(
            f"superoperator shape {s.shape} is not ({lead}{d2}, {d2})"
        )
    return s


def _four_index(s):
    """View of a checked stack indexed [..., out_row, out_col, in_row, in_col]."""
    dim = round(np.sqrt(s.shape[-1]))
    return s.reshape(s.shape[:-2] + (dim,) * 4)


def dagger_flip(s):
    """Superoperator conjugated by the adjoint map, A -> (S(A^+))^+.

    A superoperator preserves Hermiticity iff ``dagger_flip(s) == s``.
    Stacks (extra leading axes) are flipped one superoperator at a time.
    """
    s = superop_stack(s)
    return np.einsum("...abcd->...badc", _four_index(s)).conj().reshape(s.shape)


def hermiticity_defect(s):
    """Max deviation of a superoperator from preserving Hermiticity.

    Returns a float, or one value per superoperator of a stack.
    """
    s = np.asarray(s, dtype=complex)
    return np.abs(s - dagger_flip(s)).max(axis=(-2, -1))


def trace_defect(s):
    """Max deviation of a superoperator from preserving the trace.

    The trace functional in vectorized form is the row vector
    ``vec(I)^T``; trace preservation means it is a left fixed point.
    Returns a float, or one value per superoperator of a stack.
    """
    s = superop_stack(s)
    tr_row = np.eye(round(np.sqrt(s.shape[-1])), dtype=complex).reshape(-1)
    return np.abs(tr_row @ s - tr_row).max(axis=-1)


def choi_matrix(s):
    """Choi matrix of a superoperator under the row-major convention.

    The map is completely positive iff the returned matrix is positive
    semidefinite. Stacks give one Choi matrix per superoperator.
    """
    s = superop_stack(s)
    return np.einsum("...abcd->...cadb", _four_index(s)).reshape(s.shape)


def validate_state(rho):
    """Check that ``rho`` is a physical density matrix.

    Hermiticity, unit trace and positivity hold to ``STATE_TOL``.
    Returns the array unchanged; raises :class:`DimensionError` on a
    non-square input and ``ValueError`` on a non-finite or unphysical one.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > STATE_TOL:
        raise ValueError("state is not Hermitian")
    if abs(rho.trace() - 1.0) > STATE_TOL:
        raise ValueError(f"state trace {rho.trace():.6g} differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {w.min():.3g}")
    return rho


def bloch_vector(m):
    """Pauli components (tr(m sigma_i)/2) of a 2x2 Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DimensionError(f"Bloch decomposition needs a 2x2 matrix, got {m.shape}")
    return np.array([np.trace(m @ p).real / 2.0 for p in PAULI])


def bloch_axis(m):
    """Unit Bloch axis of a 2x2 Hermitian matrix, or ``None``.

    The traceless part of ``m`` is decomposed over the Pauli basis and
    normalized. The overall sign is fixed by making the first component
    larger than ``AXIS_TOL`` in magnitude positive, so that ``m`` and
    ``-m`` (and any positive rescaling) give the same axis. Returns
    ``None`` when the traceless part is smaller than ``AXIS_TOL`` (no
    resolvable axis).
    """
    b = bloch_vector(m)
    norm = np.linalg.norm(b)
    if norm < AXIS_TOL:
        return None
    b = b / norm
    for comp in b:
        if abs(comp) > AXIS_TOL:
            if comp < 0:
                b = -b
            break
    return b
