"""Independent expected-value constructions shared by the test modules.

These deliberately avoid the library's own kernel path: the
second-order memory tensor is assembled from the bath correlation
function by direct quadrature, so agreement with the extracted kernel
is a genuine cross-check rather than a reimplementation.

The ``reference_*`` functions are the direct forms of code the library
now runs batched or in closed form, kept as oracles for it: the
nested-loop memory recursion (one 4x4 product per lag and step) behind
``ttmkit.tensors``, the per-superoperator diagnostics behind
``ttmkit.maps.validate_maps`` and the stack helpers of
``ttmkit.liouville``, the frame-layout basis checks behind
``BasisTrajectorySet.initial_defect``/``dagger_defect``, and the least
squares over the generalized Pauli basis behind the fitted
``ttmkit.kernels.extract_liouvillian``, and scipy's ``expm_multiply``
over blocks of identity columns behind the dense hierarchy step of
``ttmkit.heom``, and the frequency quadrature of the dephasing exponent
behind the mode sum of ``ttmkit.models.lineshape``. ``projected_tensors``
gives a hierarchy's transfer tensors in Nakajima-Zwanzig form, with no
peel.
"""

import numpy as np
from scipy.integrate import quad
from scipy.sparse.linalg import expm_multiply

from ttmkit.errors import DimensionError
from ttmkit.liouville import (
    PAULI,
    liouvillian_superop,
    spost,
    spre,
    unitary_superop,
)
from ttmkit.maps import MapValidationReport
from ttmkit.models import bath_correlation_modes
from ttmkit.tensors import TransferTensorSequence
from ttmkit.trajectories import BasisTrajectorySet, TimeGrid

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


def projected_tensors(plan, n):
    """Exact transfer tensors T_1..T_n of a two-level hierarchy.

    With U = exp(G dt) applied by the ``ttmkit.heom.TaylorPlan``
    ``plan``, P the projector on the physical block (the first 4 rows)
    and Q = 1 - P, splitting every path at its first return to the
    physical block gives T_k = P U (Q U)^(k-1) P: the Nakajima-Zwanzig
    form of the tensors, with no subtraction.
    """
    v = np.zeros((plan.shifted.shape[0], 4), dtype=complex)
    v[:4] = np.eye(4)
    tensors = np.empty((n, 4, 4), dtype=complex)
    for k in range(n):
        v = plan.apply(v)
        tensors[k] = v[:4]
        v[:4] = 0.0
    return tensors


def reference_step_propagator(gen_dt, block=128):
    """Dense exp(gen_dt) of a sparse ``gen_dt`` by scipy's ``expm_multiply``.

    Acts on ``block`` identity columns per call, as the hierarchy step
    was formed before its own Taylor series replaced this.
    """
    n = gen_dt.shape[0]
    step = np.empty((n, n), dtype=complex)
    for start in range(0, n, block):
        width = min(block, n - start)
        columns = np.zeros((n, width), dtype=complex)
        columns[start + np.arange(width), np.arange(width)] = 1.0
        step[:, start:start + width] = expm_multiply(gen_dt, columns)
    return step


def reference_dephasing_exponent(t, lam, gamma, beta):
    """Real decoherence exponent of the Drude-Lorentz dephasing bath.

    Evaluates (1/pi) * integral of J(w)/w^2 * coth(beta w/2) * (1 - cos wt)
    over w >= 0 by adaptive quadrature to relative accuracy
    ``QUAD_EPSREL``. The low-frequency window is integrated directly
    (the integrand is finite at w = 0); the smooth and oscillatory parts
    of the tail are handled separately so large t stays cheap and
    accurate.
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

    split = min(gamma, 1.0 / beta, 50.0 / t)
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
