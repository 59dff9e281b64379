"""Independent expected-value constructions shared by the test modules.

These deliberately avoid the library's own kernel path: the
second-order memory tensor is assembled from the bath correlation
function by direct quadrature, so agreement with the extracted kernel
is a genuine cross-check rather than a reimplementation.

The ``reference_*`` functions are the direct forms of code the library
now runs batched or in closed form, kept as oracles for it: the dense
per-pair hierarchy generator of the |a><b| basis (with its recursive
``_multi_indices``) and the congruence ``pauli_form`` that takes it to
the Pauli basis, behind the block assembly of
``ttmkit.heom.hierarchy_generator``, and that function as it was before
it formed each distinct block once (``reference_batched_generator``);
the one ``ive`` per order behind the ratio recurrence of
``ttmkit.chebyshev.ChebyshevPlan._log_terms``, the bisection behind the
window search of ``ttmkit.chebyshev.ChebyshevPlan._focused``; the
nested-loop memory recursion (one 4x4 product per lag and step) behind
``ttmkit.tensors``, the per-superoperator diagnostics behind
``ttmkit.maps.validate_maps`` and
the stack helpers of ``ttmkit.liouville``, the frame-layout basis
checks behind ``BasisTrajectorySet.initial_defect``/``dagger_defect``,
and the least
squares over the generalized Pauli basis behind the fitted
``ttmkit.kernels.extract_liouvillian``, and scipy's ``expm_multiply``
over blocks of identity columns behind the dense step of
``ttmkit.chebyshev``, the Chebyshev recurrence through scipy's sparse ``@``
behind the compiled kernel calls of ``ttmkit.chebyshev.ChebyshevPlan``, the
complex stepping of the |a><b| basis, with the
truncated Taylor series ``TaylorPlan`` the hierarchy was stepped with
before its Chebyshev plan, behind the real Pauli form that
``ttmkit.heom.gen_heom`` steps, and the frequency
quadrature of the dephasing exponent behind the mode sum of
``ttmkit.models.lineshape``, and the classical 4th-order step
``reference_rk4_step`` that ``ttmkit.generators.gen_lindblad`` stepped
with before its Chebyshev step (``ttmkit.chebyshev.evolve``).
``projected_tensors``
gives a hierarchy's transfer tensors in Nakajima-Zwanzig form, with no
peel.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln, ive, logsumexp

from ttmkit.errors import ConfigurationError, DimensionError
from ttmkit.chebyshev import LOG_TAIL, MAX_AMPLIFICATION, ChebyshevPlan
from ttmkit.heom import PAULI_BASIS
from ttmkit.liouville import (
    PAULI,
    liouvillian_superop,
    spost,
    spre,
    unitary_superop,
)
from ttmkit.maps import MapValidationReport
from ttmkit.models import bath_correlation_modes, matsubara_tail
from ttmkit.tensors import TransferTensorSequence
from ttmkit.trajectories import BasisTrajectorySet, TimeGrid

# Terms of the power series of I_j that ``reference_log_terms`` sums
# where ive underflows: they reach C4's 61-step window (z = 326), where
# 237 orders underflow, and not the 2000-step window of a box
# Re [-4, 0] (z = 2378), where the bound stands.
SERIES_TERMS = 256

# Relative accuracy of the dephasing-exponent quadrature.
QUAD_EPSREL = 1e-10


def basis_element(dim, i, j):
    """Matrix unit |i><j| in dimension ``dim`` (zero-based indices)."""
    if not (0 <= i < dim and 0 <= j < dim):
        raise DimensionError(f"basis indices ({i}, {j}) out of range for dim {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[i, j] = 1.0
    return out


def second_order_memory_tensor(s, dt, h, q, coeffs, rates, nodes=17):
    """Second-order prediction for the transfer tensor T_s with s >= 2.

    Computed as the double cell integral over t1 in [(s-1) dt, s dt] and
    t2 in [0, dt] of U0(s dt - t1) K2(t1 - t2) U0(t2), where K2 is the
    one-loop memory superoperator of the coupling operator ``q`` and the
    bath correlation C(tau) = sum_k c_k exp(-nu_k tau). The retained
    modes must match the simulation being checked, otherwise the
    short-time structure of the two kernels differs.

    Simpson quadrature with ``nodes`` points per axis (odd), summed in
    one einsum over the free propagators at the nodes and K2 at every
    node pair.
    """
    if s < 2:
        raise ValueError("the quadrature form applies to s >= 2 only")
    left = spre(q) - spost(q)
    evals, vecs = np.linalg.eigh(h)

    def free(times):
        """Superoperators U0(t) for an array of times."""
        phases = np.exp(-1j * evals * times[..., None])
        return unitary_superop((vecs * phases[..., None, :]) @ vecs.conj().T)

    offsets = np.linspace(0.0, dt, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (dt / (nodes - 1)) / 3.0

    # t1 = (s-1) dt + offsets[i] and t2 = offsets[j]
    tau = (s - 1) * dt + offsets[:, None] - offsets[None, :]
    c = np.exp(-tau[..., None] * rates) @ coeffs
    k2 = -left @ free(tau) @ (c[..., None, None] * spre(q)
                              - np.conj(c)[..., None, None] * spost(q))
    return np.einsum("i,j,iab,ijbc,jcd->ad", w, w, free(dt - offsets), k2,
                     free(offsets))


def second_order_kernel_series(n_tensors, dt, h, q, lam, gamma, beta,
                               n_matsubara, nodes=17):
    """Stack of second-order kernel samples K_s = T_s / dt^2 for s >= 2.

    Returns an array of shape (n_tensors - 1, D^2, D^2) holding
    s = 2 .. n_tensors, using the same truncated mode expansion the
    hierarchy integrator retains.
    """
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n_matsubara)
    out = []
    for s in range(2, n_tensors + 1):
        t_s = second_order_memory_tensor(s, dt, h, q, coeffs, rates, nodes)
        out.append(t_s / dt**2)
    return np.array(out)


def reference_maps_to_tensors(seq):
    """Learn transfer tensors from the maps of a basis trajectory set."""
    maps = seq.maps
    n = seq.grid.n_steps
    tensors = np.empty_like(maps[1:])
    for s in range(1, n + 1):
        acc = maps[s].copy()
        for m in range(1, s):
            acc -= tensors[s - m - 1] @ maps[m]
        tensors[s - 1] = acc
    return TransferTensorSequence(dim=seq.dim, dt=seq.grid.dt, tensors=tensors)


def reference_tensors_to_maps(tensors, n_steps=None):
    """Rebuild the map sequence generated by a tensor family.

    With ``n_steps`` equal to the tensor count (the default) this is
    the exact inverse of :func:`reference_maps_to_tensors`; larger values
    extrapolate with the finite memory.
    """
    grid = TimeGrid(dt=tensors.dt,
                    n_steps=len(tensors) if n_steps is None else n_steps)
    n_steps = grid.n_steps
    d2 = tensors.dim * tensors.dim
    t_arr = tensors.tensors
    maps = np.empty((n_steps + 1, d2, d2), dtype=complex)
    maps[0] = np.eye(d2)
    for n in range(1, n_steps + 1):
        acc = np.zeros((d2, d2), dtype=complex)
        for s in range(1, min(n, len(tensors)) + 1):
            acc += t_arr[s - 1] @ maps[n - s]
        maps[n] = acc
    return BasisTrajectorySet.from_maps(grid, maps)


def reference_propagate(tensors, k_cutoff, seed, n_total):
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
    t_arr = tensors.tensors[:k_cutoff]
    out = np.empty((n_total + 1, d, d), dtype=complex)
    out[:n_seed] = seed
    for m in range(n_seed, n_total + 1):
        depth = min(m, k_cutoff)
        acc = np.zeros(d * d, dtype=complex)
        for s in range(1, depth + 1):
            acc += t_arr[s - 1] @ out[m - s].reshape(-1)
        out[m] = acc.reshape(d, d)
    return out


def reference_recurse(kernel, frames, start):
    """Fill ``frames[m] = sum_{s=1}^{min(m, K)} kernel[s-1] @ frames[m-s]``.

    ``ttmkit.tensors._recurse`` as it ran before it wrote each step into
    ``frames[m]`` through one flat view: per step, the depth min(m, K),
    the history ``frames[m - depth:m]`` reshaped, and a product copied
    into place.
    """
    k, d2, _ = kernel.shape
    stacked = kernel[::-1].transpose(1, 0, 2).reshape(d2, k * d2)
    for m in range(start, frames.shape[0]):
        depth = min(m, k)
        history = frames[m - depth:m].reshape(depth * d2, -1)
        frames[m] = stacked[:, (k - depth) * d2:] @ history


def reference_superop_diagnostics(s):
    """Trace defect, Hermiticity defect and Choi matrix of one superoperator.

    Also returns the adjoint-conjugated superoperator the Hermiticity
    defect compares against.
    """
    d2 = s.shape[0]
    d = round(np.sqrt(d2))
    s4 = s.reshape(d, d, d, d)  # [out_row, out_col, in_row, in_col]
    flipped = s4.transpose(1, 0, 3, 2).conj().reshape(d2, d2)
    tr_row = np.eye(d, dtype=complex).reshape(-1)
    trace = float(np.abs(tr_row @ s - tr_row).max())
    choi = s4.transpose(2, 0, 3, 1).reshape(d2, d2)
    return trace, float(np.abs(s - flipped).max()), choi, flipped


def reference_validate_maps(seq):
    """Map diagnostics computed one step at a time."""
    n = seq.maps.shape[0]
    tr = np.empty(n)
    he = np.empty(n)
    ch = np.empty(n)
    for k in range(n):
        tr[k], he[k], choi, _ = reference_superop_diagnostics(seq.maps[k])
        ch[k] = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    return MapValidationReport(
        trace_defects=tr, hermiticity_defects=he, choi_min_eigs=ch
    )


def reference_basis_defects(trajs):
    """Initial-frame and adjoint-pairing defects read in the frame layout."""
    d = trajs.dim
    expected = np.stack(
        [basis_element(d, i, j) for i in range(d) for j in range(d)]
    )
    initial = float(np.abs(trajs.data[:, 0] - expected).max())
    sw = trajs.data.reshape(d, d, -1, d, d)
    flipped = sw.transpose(1, 0, 2, 4, 3).conj().reshape(trajs.data.shape)
    return initial, float(np.abs(trajs.data - flipped).max())


def _generalized_pauli_basis(dim):
    """Orthogonal traceless Hermitian basis (generalized Pauli set)."""
    if dim == 2:
        return list(PAULI)
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(basis_element(dim, i, j) + basis_element(dim, j, i))
            out.append(-1j * basis_element(dim, i, j)
                       + 1j * basis_element(dim, j, i))
    for level in range(1, dim):
        diag = np.zeros(dim)
        diag[:level] = 1.0
        diag[level] = -level
        out.append(np.diag(diag * np.sqrt(2.0 / (level * (level + 1))))
                   .astype(complex))
    return out


def reference_fit_hamiltonian(t1, dt):
    """Traceless Hermitian h whose commutator best matches i (T_1 - 1)/dt.

    Real least squares over the generalized Pauli coefficients.
    """
    d2 = t1.shape[0]
    dim = round(np.sqrt(d2))
    raw = 1j * (t1 - np.eye(d2)) / dt
    basis = _generalized_pauli_basis(dim)
    columns = np.stack(
        [liouvillian_superop(g).reshape(-1) for g in basis], axis=1
    )
    target = raw.reshape(-1)
    # Force real coefficients by stacking real and imaginary parts.
    lhs = np.vstack([columns.real, columns.imag])
    rhs = np.concatenate([target.real, target.imag])
    coeff, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return sum(c * g for c, g in zip(coeff, basis))


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


@dataclass(frozen=True)
class TaylorPlan:
    """exp(A + mu I) as s substeps of the degree-m Taylor series of A / s.

    The hierarchy's exponential before ``ttmkit.chebyshev.ChebyshevPlan``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011), kept as the
    oracle of the complex stepping and of the projected tensors.

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


def projected_tensors(plan, n):
    """Exact transfer tensors T_1..T_n of a two-level hierarchy.

    With U = exp(G dt) applied by the ``TaylorPlan`` ``plan``, P the projector on the physical block (the first 4 rows)
    and Q = 1 - P, splitting every path at its first return to the
    physical block gives T_k = P U (Q U)^(k-1) P: the Nakajima-Zwanzig
    form of the tensors, with no subtraction. They are in the basis of
    the plan's generator (|a><b| or Pauli), stepped in its dtype.
    """
    v = np.zeros((plan.shifted.shape[0], 4), dtype=plan.shifted.dtype)
    v[:4] = np.eye(4)
    tensors = np.empty((n, 4, 4), dtype=complex)
    for k in range(n):
        v = plan.apply(v)
        tensors[k] = v[:4]
        v[:4] = 0.0
    return tensors


def _multi_indices(n_modes, depth):
    """All mode occupation tuples with total excitation <= depth, sorted."""
    if n_modes == 0:
        return [()]
    return [
        (n,) + rest
        for n in range(depth + 1)
        for rest in _multi_indices(n_modes - 1, depth - n)
    ]


def reference_hierarchy_generator(h, q_op, coeffs, rates, tail, depth):
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


def pauli_form(gen):
    """The real matrix of a hierarchy generator in the Hermitian basis.

    Returns the CSR matrix 1/2 (I (x) B0)^H gen (I (x) B0), which acts on
    the coordinates of every auxiliary in the basis I, sigma_x, sigma_y,
    sigma_z (PAULI_BASIS). Every entry of B0 is 0, +-1 or +-i, so each
    entry of the result is half a signed sum of entries of ``gen`` and
    of i times them; when every rate and the terminator are real and Q
    is Hermitian, each auxiliary stays Hermitian and the imaginary parts
    cancel exactly.

    Raises
    ------
    ConfigurationError
        If any imaginary part is nonzero: the hierarchy does not keep
        its auxiliaries Hermitian.
    """
    ados = sparse.eye_array(gen.shape[0] // len(PAULI_BASIS))
    to_pauli = sparse.kron(ados, PAULI_BASIS, format="csr")
    from_pauli = sparse.kron(ados, 0.5 * PAULI_BASIS.conj().T, format="csr")
    pauli = from_pauli @ gen @ to_pauli
    if np.any(pauli.data.imag):
        raise ConfigurationError(
            "the hierarchy does not keep its auxiliaries Hermitian (largest "
            f"imaginary part {np.abs(pauli.data.imag).max():.3g} in the Pauli "
            "basis); the rates and terminator must be real and Q Hermitian"
        )
    return pauli.real.sorted_indices()


def reference_batched_generator(h, q_op, coeffs, rates, tail, depth):
    """The real Pauli form of the hierarchy, one congruence per block.

    ``ttmkit.heom.hierarchy_generator`` as it was before it formed each
    distinct block once: the occupations built a mode at a time with
    ``np.insert``, the neighbours found by ``searchsorted`` on the rows
    viewed as records, every coupling block (one per auxiliary pair)
    converted by its own congruence, and the blocks placed by a COO
    build with exact zeros dropped afterwards.
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
        raise ConfigurationError("the auxiliaries do not stay Hermitian")
    rows, cols = (np.concatenate(a).astype(np.int32) for a in (rows, cols))
    i, j = np.indices((blk, blk), dtype=np.int32)
    n = len(occ) * blk
    gen = sparse.csr_array((blocks.real.ravel(),
                            ((rows[:, None, None] * blk + i).ravel(),
                             (cols[:, None, None] * blk + j).ravel())),
                           shape=(n, n))
    gen.eliminate_zeros()
    return gen


def reference_log_terms(plan, k):
    """log(|a_j(k)| rho^j) of a ``ChebyshevPlan``, one ``ive`` per order.

    ``ChebyshevPlan._log_terms`` as it was before its ratio recurrence,
    over the same orders: log ive(j, z), z = k h', for every j at once.
    Where ive underflows to 0, log ive(j, z) comes from the power series
    I_j(z) = (z / 2)^j / j! sum_m (z^2 / 4)^m j! / (m! (j + m)!), its
    first SERIES_TERMS terms summed in logs, wherever the ratio of its
    terms past them, below (z^2 / 4) / ((m + 1) (j + m + 1)), bounds the
    rest below 2^-60 of the sum; elsewhere the bound
    j log(z / 2) - log j! + z^2 / (4 (j + 1)) - z above it, from the
    same series. Returns (terms, bounded): ``bounded`` marks the orders
    that took the bound.
    """
    z = k * plan.half
    size = 64 + int(z * (plan.rho + 1.0 / plan.rho))
    while True:
        j = np.arange(size)
        with np.errstate(divide="ignore"):
            scaled = np.log(ive(j, z))
        under = j[scaled == -np.inf]
        power = under * math.log(z / 2) - gammaln(under + 1.0) - z
        m = np.arange(SERIES_TERMS + 1)[:, None]
        logs = (m * math.log(z * z / 4) - gammaln(m + 1.0)
                - (gammaln(under + m + 1.0) - gammaln(under + 1.0)))
        series = logsumexp(logs[:-1], axis=0)
        ratio = z * z / 4 / ((SERIES_TERMS + 1) * (under + SERIES_TERMS + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            summed = (ratio < 1) & (logs[-1] - np.log1p(-ratio) - series
                                    < -60 * math.log(2.0))
        scaled[under] = np.where(summed, power + series,
                                 power + z * z / (4.0 * (under + 1.0)))
        bounded = np.zeros(size, bool)
        bounded[under[~summed]] = True
        terms = (np.log(np.where(j == 0, 1.0, 2.0)) + z * (plan.shift + 1.0)
                 + scaled + j * math.log(plan.rho))
        if terms[-1] < LOG_TAIL - 40.0:
            return terms, bounded
        size *= 2


def reference_focused(lo, hi, eta, vertices, focus, window):
    """(substeps, window) of ``ChebyshevPlan._focused`` by bisection.

    ``ttmkit.chebyshev.ChebyshevPlan._focused`` as it was before it stepped
    its window up from the floor of its bound: the same substeps, and the
    window bisected over the steps L between the floors of
    log(MAX_AMPLIFICATION / 2) / g and log(MAX_AMPLIFICATION) / g, which
    e^(L g) <= M <= 2 e^(L g) leave open, by the plan's own log terms.
    rho is the plan's: the largest over the polygon's ``vertices``.
    """
    half = (0.5 * (hi - lo) or eta or 1.0) * focus
    shift = 0.5 * (lo + hi) / half
    x, y = vertices.real / half - shift, vertices.imag / half
    axis = max(1.0, 0.5 * float((np.hypot(x - 1.0, y) + np.hypot(x + 1.0, y)).max()))
    rho = axis + math.sqrt(axis * axis - 1.0)
    growth = half * (shift + 0.5 * (rho + 1.0 / rho))
    most, least = math.log(MAX_AMPLIFICATION), math.log(MAX_AMPLIFICATION / 2)
    substeps = max(1, math.ceil(growth / least))
    growth /= substeps
    plan = ChebyshevPlan(None, half / substeps, shift, lo / substeps, hi / substeps,
                         eta / substeps, rho, focus, substeps, 1)
    low = 1
    if growth > 0:
        low = max(1, min(window, int(least / growth)))
        window = max(1, min(window, int(most / growth)))
    while low < window:
        mid = (low + window + 1) // 2
        if np.logaddexp.reduce(plan._log_terms(mid)) <= most:
            low = mid
        else:
            window = mid - 1
    return substeps, window


def reference_step_propagator(gen_dt, block=128):
    """Dense exp(gen_dt) of a sparse ``gen_dt`` by scipy's ``expm_multiply``.

    Acts on ``block`` identity columns per call, as the hierarchy step
    was formed before the library's own series replaced this.
    """
    n = gen_dt.shape[0]
    step = np.empty((n, n), dtype=complex)
    for start in range(0, n, block):
        width = min(block, n - start)
        columns = np.zeros((n, width), dtype=complex)
        columns[start + np.arange(width), np.arange(width)] = 1.0
        step[:, start:start + width] = expm_multiply(gen_dt, columns)
    return step


def reference_chebyshev_series(doubled, b, degree):
    """The vectors T_j(X) b, j = 0..``degree``, stacked, with 2 X = ``doubled``.

    The three-term recurrence T_j = 2 X T_(j-1) - T_(j-2) through
    scipy's sparse ``@`` and a separate subtraction, as
    ``ttmkit.chebyshev.ChebyshevPlan`` ran it before it called the compiled
    CSR kernel itself.
    """
    vectors = np.empty((degree + 1,) + b.shape)
    vectors[0] = b
    if degree >= 1:
        vectors[1] = 0.5 * (doubled @ b)
    for j in range(2, degree + 1):
        vectors[j] = doubled @ vectors[j - 1] - vectors[j - 2]
    return vectors


def reference_gen_heom(params, cfg, grid):
    """Basis trajectories of the hierarchy, stepped in complex arithmetic.

    The stepping ``ttmkit.heom.gen_heom`` did before it stepped the real
    Pauli form: the Taylor plan of the complex generator (the CSR form of
    ``reference_hierarchy_generator``) applied to the N x 4 state of the
    |a><b| inputs at every frame, with no divergence guard and no log.
    """
    coeffs, rates = bath_correlation_modes(
        params.lam, params.gamma, params.beta, cfg.n_matsubara
    )
    tail = matsubara_tail(params.lam, params.gamma, params.beta, cfg.n_matsubara)
    gen_dt = sparse.csr_array(reference_hierarchy_generator(
        params.hamiltonian, params.coupling_op, coeffs, rates, tail,
        cfg.depth)) * grid.dt
    plan = TaylorPlan.of(gen_dt)
    blk = params.dim ** 2

    state = np.zeros((gen_dt.shape[0], blk), dtype=complex)
    state[:blk, :] = np.eye(blk)
    maps = np.empty((grid.n_steps + 1, blk, blk), dtype=complex)
    maps[0] = state[:blk]
    for k in range(1, grid.n_steps + 1):
        state = plan.apply(state)
        maps[k] = state[:blk]
    return BasisTrajectorySet.from_maps(grid, maps)


def reference_rk4_step(gen, dt):
    """exp(gen dt) by classical 4th-order substeps of x' = gen x.

    The row-sum norm bounds the spectrum; substeps h with h ||gen|| <= 0.08,
    and at least 10 of them, keep the local error near 1e-9 per step.
    """
    bound = float(np.abs(gen).sum(axis=1).max())
    substeps = max(10, math.ceil(dt * bound / 0.08))
    m = (dt / substeps) * gen
    eye = np.eye(gen.shape[0], dtype=complex)
    r = eye + m / 4.0
    r = eye + (m @ r) / 3.0
    r = eye + (m @ r) / 2.0
    return np.linalg.matrix_power(eye + m @ r, substeps)


def reference_dephasing_exponent(t, lam, gamma, beta):
    """Real decoherence exponent of the Drude-Lorentz dephasing bath.

    Evaluates (1/pi) * integral of J(w)/w^2 * coth(beta w/2) * (1 - cos wt)
    over w >= 0 by adaptive quadrature to relative accuracy
    ``QUAD_EPSREL``. The low-frequency window, up to at least w = 1/t,
    is integrated directly (the integrand is finite at w = 0); the
    smooth and oscillatory parts of the tail are handled separately so
    large t stays cheap and accurate.
    """
    if t == 0.0:
        return 0.0
    if t < 0:
        raise ValueError("t must be nonnegative")
    if lam == 0.0:
        return 0.0

    def smooth(w):
        x = 0.5 * beta * w
        cth = 1.0 / x + x / 3.0 if x < 1e-8 else 1.0 / np.tanh(x)
        return 2.0 * lam * gamma / (w * (w * w + gamma * gamma)) * cth

    def window(w):
        if w == 0.0:
            return 2.0 * lam * t * t / (beta * gamma)
        return smooth(w) * 2.0 * np.sin(0.5 * w * t) ** 2

    # Below w = 1/t the tail's smooth and cosine parts would cancel to
    # the digits of 1 - cos wt, so the window reaches at least that far.
    split = max(min(gamma, 1.0 / beta, 50.0 / t), 1.0 / t)
    part_lo, _ = quad(window, 0.0, split, epsabs=0.0, epsrel=QUAD_EPSREL,
                      limit=400)
    part_hi, _ = quad(smooth, split, np.inf, epsabs=0.0, epsrel=QUAD_EPSREL,
                      limit=400)
    scale = max(abs(part_lo), abs(part_hi), 1e-300)
    part_osc, _ = quad(
        smooth, split, np.inf, weight="cos", wvar=t,
        epsabs=QUAD_EPSREL * scale, limlst=200,
    )
    return (part_lo + part_hi - part_osc) / np.pi
