"""Vectorization conventions and superoperator building blocks."""

import numpy as np
import pytest

from ttmkit import (
    BasisTrajectorySet,
    KernelSequence,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TimeGrid,
    TransferTensorSequence,
    bloch_axis,
    bloch_vector,
    choi_matrix,
    devectorize,
    liouvillian_superop,
    spost,
    spre,
    superop_norm,
    unitary_superop,
    validate_state,
    vectorize,
)
from ttmkit.errors import DimensionError
from ttmkit.liouville import dagger_flip, hermiticity_defect, trace_defect
from oracles import basis_element, reference_superop_diagnostics


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorize_roundtrip(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.array_equal(devectorize(vectorize(x)), x)


def test_vectorize_is_row_major():
    x = np.arange(4.0).reshape(2, 2) + 0j
    np.testing.assert_array_equal(vectorize(x), [0, 1, 2, 3])


def test_devectorize_rejects_non_square_length():
    with pytest.raises(DimensionError):
        devectorize(np.zeros(5, dtype=complex))


@pytest.mark.parametrize("dim", [2, 3])
def test_spre_spost_act_by_multiplication(dim):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    np.testing.assert_allclose(devectorize(spre(a) @ vectorize(x)), a @ x,
                               atol=1e-14)
    np.testing.assert_allclose(devectorize(spost(a) @ vectorize(x)), x @ a,
                               atol=1e-14)


def test_liouvillian_is_commutator():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = devectorize(liouvillian_superop(h) @ vectorize(x))
    np.testing.assert_allclose(out, h @ x - x @ h, atol=1e-13)


def test_liouvillian_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        liouvillian_superop(h)


def test_commutator_antisymmetry_under_dagger():
    # S vec(A.H) must equal -(S vec(A)).H elementwise, on a full basis
    rng = np.random.default_rng(11)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = h + h.conj().T
    s = liouvillian_superop(h)
    for i in range(2):
        for j in range(2):
            a = basis_element(2, i, j)
            left = devectorize(s @ vectorize(a.conj().T))
            right = -devectorize(s @ vectorize(a)).conj().T
            np.testing.assert_allclose(left, right, atol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_unitary_superop_homomorphism(seed):
    rng = np.random.default_rng(seed)
    u1 = random_unitary(rng, 3)
    u2 = random_unitary(rng, 3)
    lhs = unitary_superop(u1) @ unitary_superop(u2)
    rhs = unitary_superop(u1 @ u2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_unitary_superop_conjugates():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    rho = validate_state(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    out = devectorize(unitary_superop(u) @ vectorize(rho))
    np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_superop_norm_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert superop_norm(a @ b) <= superop_norm(a) * superop_norm(b) * (1 + 1e-10)


def test_superop_norm_of_unitary_map_is_one():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 2)
    assert abs(superop_norm(unitary_superop(u)) - 1.0) < 1e-12


def test_dagger_flip_fixes_hermiticity_preserving_maps():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 2)
    s = unitary_superop(u)
    assert hermiticity_defect(s) < 1e-14
    # a generic matrix is moved by the flip
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.abs(dagger_flip(g) - g).max() > 0.1


def test_trace_defect_detects_leak():
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 2)
    s = unitary_superop(u)
    assert trace_defect(s) < 1e-14
    assert trace_defect(0.9 * s) > 0.05


@pytest.mark.parametrize("dim", [2, 3])
def test_stack_helpers_match_per_superop_reference(dim):
    rng = np.random.default_rng(40 + dim)
    d2 = dim * dim
    stack = (rng.normal(size=(3, 2, d2, d2))
             + 1j * rng.normal(size=(3, 2, d2, d2)))
    flat = stack.reshape(-1, d2, d2)
    ref = [reference_superop_diagnostics(s) for s in flat]
    lead = stack.shape[:2]
    assert np.abs(trace_defect(stack)
                  - np.reshape([r[0] for r in ref], lead)).max() <= 1e-12
    assert np.abs(hermiticity_defect(stack)
                  - np.reshape([r[1] for r in ref], lead)).max() <= 1e-12
    assert np.abs(choi_matrix(stack).reshape(flat.shape)
                  - np.stack([r[2] for r in ref])).max() <= 1e-12
    assert np.abs(dagger_flip(stack).reshape(flat.shape)
                  - np.stack([r[3] for r in ref])).max() <= 1e-12
    # a single superoperator still gives plain floats
    assert isinstance(trace_defect(flat[0]), float)
    assert isinstance(hermiticity_defect(flat[0]), float)
    us = np.stack([random_unitary(rng, dim) for _ in range(4)])
    assert np.abs(unitary_superop(us)
                  - np.stack([np.kron(u, u.conj()) for u in us])).max() <= 1e-12


def test_stack_helpers_reject_non_superoperator_shapes():
    for bad in (np.zeros(4), np.zeros((2, 3, 3)), np.zeros((4, 9))):
        with pytest.raises(DimensionError):
            hermiticity_defect(bad)
    with pytest.raises(DimensionError):
        unitary_superop(np.zeros((5, 2, 3)))


def _identities(rows, cols=None):
    return np.broadcast_to(np.eye(rows, cols, dtype=complex),
                           (3, rows, cols or rows))


# Each container built from a stack and a step, with D = 2 where it
# takes a dim; from_maps reads D off the stack and has no step of its own.
CONTAINERS = {
    "from_maps": lambda s, dt: BasisTrajectorySet.from_maps(
        TimeGrid(dt=0.1, n_steps=2), s),
    "tensors": lambda s, dt: TransferTensorSequence(dim=2, dt=dt, tensors=s),
    "kernel-liouvillian": lambda s, dt: KernelSequence(
        dim=2, dt=dt, liouvillian=s[0], kernels=_identities(4)),
    "kernel-samples": lambda s, dt: KernelSequence(
        dim=2, dt=dt, liouvillian=np.eye(4), kernels=s),
}
BAD_INPUTS = {
    "non-square-d2": (_identities(3), 0.1, DimensionError),
    "unequal-sides": (_identities(4, 9), 0.1, DimensionError),
    "wrong-d": (_identities(9), 0.1, DimensionError),
    "zero-dt": (_identities(4), 0.0, ValueError),
    "negative-dt": (_identities(4), -0.1, ValueError),
}


@pytest.mark.parametrize("container, bad", [
    (c, b) for c in CONTAINERS for b in BAD_INPUTS
    if c != "from_maps" or b in ("non-square-d2", "unequal-sides")
])
def test_containers_share_the_superoperator_stack_rule(container, bad):
    stack, dt, error = BAD_INPUTS[bad]
    CONTAINERS[container](_identities(4), 0.1)  # the good input builds
    with pytest.raises(error) as info:
        CONTAINERS[container](stack, dt)
    assert (info.type is DimensionError) == (error is DimensionError)


def test_choi_matrix_of_unitary_is_rank_one():
    rng = np.random.default_rng(6)
    u = random_unitary(rng, 2)
    evals = np.linalg.eigvalsh(choi_matrix(unitary_superop(u)))
    np.testing.assert_allclose(sorted(evals), [0, 0, 0, 2], atol=1e-12)


def test_validate_state_normalizes_and_checks():
    rho = validate_state(np.eye(2, dtype=complex) * 0.5)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        validate_state(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        validate_state(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def test_bloch_vector_of_pauli_eigenstates():
    # components are tr(m sigma_i)/2, so pure states sit at radius 1/2
    up = basis_element(2, 0, 0)
    np.testing.assert_allclose(bloch_vector(up), [0, 0, 0.5], atol=1e-14)
    plus = np.full((2, 2), 0.5, dtype=complex)
    np.testing.assert_allclose(bloch_vector(plus), [0.5, 0, 0], atol=1e-14)


def test_bloch_axis_sign_convention_and_degeneracy():
    rho = 0.5 * (np.eye(2, dtype=complex) - 0.3 * SIGMA_Z)
    axis = bloch_axis(rho)
    np.testing.assert_allclose(axis, [0, 0, 1], atol=1e-12)
    assert bloch_axis(np.eye(2, dtype=complex) / 2) is None


def test_pauli_algebra_sanity():
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    np.testing.assert_allclose(SIGMA_X @ SIGMA_X, np.eye(2))
