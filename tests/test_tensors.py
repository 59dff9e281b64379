"""Transfer-tensor learning, truncation and propagation."""

import numpy as np
import pytest

from oracles import (
    reference_maps_to_tensors,
    reference_propagate,
    reference_tensors_to_maps,
)

from ttmkit import (
    SIGMA_X,
    SIGMA_Z,
    HeomConfig,
    SpinBosonParams,
    TimeGrid,
    TransferTensorSequence,
    choose_cutoff,
    extract_maps,
    gen_dephasing_analytic,
    gen_heom,
    gen_lindblad,
    gen_unitary,
    lindblad_superop,
    maps_to_tensors,
    markovianity_profile,
    propagate,
    stationary_state,
    tensors_to_maps,
    truncation_error,
)
from ttmkit.errors import (
    DimensionError,
    InsufficientLearningError,
    NumericalError,
)
from ttmkit.liouville import devectorize

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _memory_tensors(n_steps=30):
    """Tensor family with a genuine memory tail (Gaussian dephasing)."""
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=0.3, gamma=1.0,
                             beta=1.0)
    trajs = gen_dephasing_analytic(params, TimeGrid(dt=0.2, n_steps=n_steps))
    return extract_maps(trajs)


def test_learning_roundtrip_is_exact():
    seq = _memory_tensors()
    tensors = maps_to_tensors(seq)
    back = tensors_to_maps(tensors)
    assert np.abs(back.maps - seq.maps).max() < 1e-10


def test_tensors_match_peeling_recursion():
    seq = _memory_tensors(n_steps=6)
    t_arr = maps_to_tensors(seq).tensors
    e = seq.maps
    np.testing.assert_allclose(t_arr[0], e[1], atol=1e-14)
    np.testing.assert_allclose(t_arr[1], e[2] - e[1] @ e[1], atol=1e-13)
    t3 = e[3] - t_arr[0] @ e[2] - t_arr[1] @ e[1]
    np.testing.assert_allclose(t_arr[2], t3, atol=1e-13)


def test_memoryless_evolution_has_null_tail():
    h = 0.5 * (SIGMA_Z + SIGMA_X)
    trajs = gen_lindblad(h, [SIGMA_MINUS, SIGMA_Z], [0.4, 0.1],
                         TimeGrid(dt=0.05, n_steps=40))
    tensors = maps_to_tensors(extract_maps(trajs))
    norms = markovianity_profile(tensors)
    assert norms[0] > 0.9
    assert norms[1:].max() < 1e-10


def test_single_tensor_propagation_recovers_semigroup():
    h = 0.5 * SIGMA_Z
    grid = TimeGrid(dt=0.05, n_steps=40)
    trajs = gen_lindblad(h, [SIGMA_MINUS], [0.3], grid)
    tensors = maps_to_tensors(extract_maps(trajs))
    rho0 = np.array([[0.2, 0.3j], [-0.3j, 0.8]], dtype=complex)
    run = propagate(tensors, 1, rho0, 120)
    # extend the reference by brute-force powers of the one-step map
    e1 = extract_maps(trajs).maps[1]
    ref = rho0.copy()
    for k in range(1, 121):
        ref = (e1 @ ref.reshape(-1)).reshape(2, 2)
        assert np.abs(run[k] - ref).max() < 1e-8


def test_propagation_is_linear():
    tensors = maps_to_tensors(_memory_tensors())
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mix = 0.3 * a + 0.7 * b
    ra = propagate(tensors, len(tensors), a, 60)
    rb = propagate(tensors, len(tensors), b, 60)
    rm = propagate(tensors, len(tensors), mix, 60)
    assert np.abs(rm - (0.3 * ra + 0.7 * rb)).max() < 1e-10


def test_warmup_reproduces_learning_window():
    seq = _memory_tensors()
    tensors = maps_to_tensors(seq)
    rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
    run = propagate(tensors, len(tensors), rho0, seq.grid.n_steps)
    for k in range(seq.grid.n_steps + 1):
        ref = (seq.maps[k] @ rho0.reshape(-1)).reshape(2, 2)
        assert np.abs(run[k] - ref).max() < 1e-11


def test_history_seed_continues_midstream():
    seq = _memory_tensors()
    tensors = maps_to_tensors(seq)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    full = propagate(tensors, len(tensors), rho0, 50)
    resumed = propagate(tensors, len(tensors), full[:20], 50)
    assert np.abs(resumed - full).max() < 1e-12


def _hierarchy_maps():
    """D = 2 maps of a small hierarchy with a genuine memory tail."""
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.5, gamma=1.0,
                             beta=1.0)
    trajs = gen_heom(params, HeomConfig(depth=4, n_matsubara=1),
                     TimeGrid(dt=0.05, n_steps=240))
    return extract_maps(trajs)


def _random_maps():
    """D = 3 maps of a random tensor family whose norms sum below one."""
    shape = (40, 9, 9)
    rng = np.random.default_rng(31)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw /= np.linalg.norm(raw, 2, axis=(1, 2))[:, None, None]
    weights = 0.25 * 0.5 ** np.arange(shape[0])
    weights[0] = 0.7
    tensors = TransferTensorSequence(dim=3, dt=0.1,
                                     tensors=weights[:, None, None] * raw)
    return reference_tensors_to_maps(tensors)


@pytest.mark.parametrize("make_maps", [_hierarchy_maps, _random_maps],
                         ids=["hierarchy-d2", "random-d3"])
def test_batched_recursion_matches_reference_loops(make_maps):
    seq = make_maps()
    n = seq.grid.n_steps
    d = seq.dim
    tensors = maps_to_tensors(seq)
    ref = reference_maps_to_tensors(seq)
    assert np.abs(tensors.tensors - ref.tensors).max() <= 1e-10

    maps = tensors_to_maps(ref, 3 * n)
    ref_maps = reference_tensors_to_maps(ref, 3 * n)
    assert np.abs(maps.maps - ref_maps.maps).max() <= 1e-10

    rng = np.random.default_rng(5)
    rho0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    history = reference_propagate(ref, n, rho0, 9)
    for cutoff, seed in [(n, rho0), (n // 3, rho0), (n // 3, history)]:
        frames = propagate(ref, cutoff, seed, 3 * n)
        expected = reference_propagate(ref, cutoff, seed, 3 * n)
        assert np.abs(frames - expected).max() <= 1e-10


def _synthetic_tail(norms):
    stack = [np.eye(4, dtype=complex)] + [
        v * np.eye(4, dtype=complex) for v in norms
    ]
    return TransferTensorSequence(dim=2, dt=0.1, tensors=np.stack(stack))


def test_cutoff_covers_entire_discarded_tail():
    tensors = _synthetic_tail([1e-3, 1e-5, 1e-9, 1e-12])
    assert choose_cutoff(markovianity_profile(tensors), tol=1e-8) == 3
    assert choose_cutoff(markovianity_profile(tensors), tol=1e-4) == 2
    # a non-monotone dip must not fool the cutoff into stopping early
    bumpy = _synthetic_tail([1e-3, 1e-10, 1e-5, 1e-12])
    assert choose_cutoff(markovianity_profile(bumpy), tol=1e-8) == 4


def test_insufficient_learning_reports_tail():
    tensors = _synthetic_tail([1e-3, 1e-5, 1e-9, 1e-12])
    with pytest.raises(InsufficientLearningError) as info:
        choose_cutoff(markovianity_profile(tensors), tol=1e-13)
    assert info.value.tail_norms.shape == (5,)


def test_truncation_error_is_first_discarded_norm():
    tensors = maps_to_tensors(_memory_tensors())
    norms = markovianity_profile(tensors)
    assert truncation_error(tensors, 4) == pytest.approx(norms[4])
    with pytest.raises(DimensionError):
        truncation_error(tensors, len(tensors))


@pytest.mark.parametrize("k,dim", [(5, 2), (10, 2), (5, 3)])
def test_truncated_storage_scales_as_k_d4(k, dim):
    d2 = dim * dim
    arr = np.zeros((k + 3, d2, d2), dtype=complex)
    arr[0] = np.eye(d2)
    tensors = TransferTensorSequence(dim=dim, dt=0.1, tensors=arr)
    assert tensors.truncated(k).tensors.size == k * dim**4


def _lindblad_tensors():
    h = 0.5 * (SIGMA_Z + SIGMA_X)
    ops, rates = [SIGMA_MINUS, SIGMA_Z], [0.4, 0.1]
    trajs = gen_lindblad(h, ops, rates, TimeGrid(dt=0.05, n_steps=4))
    return maps_to_tensors(extract_maps(trajs)), lindblad_superop(h, ops, rates)


def test_stationary_state_is_the_lindblad_steady_state():
    tensors, generator = _lindblad_tensors()
    # the exact steady state spans the generator's null space
    null = devectorize(np.linalg.svd(generator)[2][-1].conj())
    exact = null / np.trace(null)
    assert np.abs(stationary_state(tensors) - exact).max() <= 1e-12


def test_stationary_state_matches_the_inline_eigen_solve():
    tensors = maps_to_tensors(_hierarchy_maps())
    w, v = np.linalg.eig(tensors.tensors.sum(axis=0))
    rho = devectorize(v[:, np.argmin(np.abs(w - 1.0))])
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    assert np.array_equal(stationary_state(tensors), rho)


def test_stationary_state_refuses_a_missing_or_shared_fixed_point():
    # unitary dynamics keeps every population of the energy basis fixed
    unitary = gen_unitary(0.5 * (SIGMA_Z + SIGMA_X),
                          TimeGrid(dt=0.05, n_steps=4))
    with pytest.raises(NumericalError, match="^2 eigenvalues"):
        stationary_state(maps_to_tensors(extract_maps(unitary)))
    # scaled off trace preservation, no eigenvalue is left at 1
    tensors, _ = _lindblad_tensors()
    scaled = TransferTensorSequence(dim=2, dt=tensors.dt,
                                    tensors=1.01 * tensors.tensors)
    with pytest.raises(NumericalError, match="^0 eigenvalues"):
        stationary_state(scaled)
