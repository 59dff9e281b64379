"""Memory-kernel extraction: bijection, structure and weak-coupling limit."""

import numpy as np
import pytest

from ttmkit import (
    HeomConfig,
    SIGMA_X,
    SIGMA_Z,
    SpinBosonParams,
    TimeGrid,
    extract_kernel,
    extract_liouvillian,
    extract_maps,
    gen_heom,
    gen_unitary,
    kernel_element_series,
    kernel_norms,
    kernel_to_tensors,
    liouvillian_superop,
    maps_to_tensors,
    tls_hamiltonian,
    vectorize,
)
from ttmkit.errors import DimensionError
from oracles import reference_fit_hamiltonian, second_order_kernel_series

H_FIG = tls_hamiltonian(1.0, 0.0)
BATH = dict(lam=0.05, gamma=1.0, beta=4.79)


@pytest.fixture(scope="module")
def heom_tensors():
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, coupling_op=SIGMA_X,
                             **BATH)
    grid = TimeGrid(dt=0.025, n_steps=40)
    trajs = gen_heom(params, HeomConfig(depth=5, n_matsubara=4), grid)
    return maps_to_tensors(extract_maps(trajs))


def test_kernel_tensor_bijection(heom_tensors):
    liou = liouvillian_superop(H_FIG)
    kernel = extract_kernel(heom_tensors, liou)
    back = kernel_to_tensors(kernel)
    assert np.abs(back.tensors - heom_tensors.tensors).max() < 1e-12
    again = extract_kernel(back, liou)
    assert np.abs(again.kernels - kernel.kernels).max() < 1e-12


def test_kernel_annihilates_trace(heom_tensors):
    liou = liouvillian_superop(H_FIG)
    kernel = extract_kernel(heom_tensors, liou)
    tr = vectorize(np.eye(2, dtype=complex))
    # trace preservation of the maps makes tr a left null vector of every
    # kernel sample; division by dt^2 amplifies rounding, nothing else
    assert np.abs(np.einsum("i,sij->sj", tr, kernel.kernels)).max() < 1e-9


def test_first_sample_matches_squared_generator_for_unitary():
    # exact unitary tensors give K_1 = (e^{-iL dt} - 1 + iL dt)/dt^2,
    # whose leading term is -L^2/2
    h = tls_hamiltonian(1.3, 0.4)
    dt = 0.01
    trajs = gen_unitary(h, TimeGrid(dt=dt, n_steps=3))
    tensors = maps_to_tensors(extract_maps(trajs))
    liou = liouvillian_superop(h)
    kernel = extract_kernel(tensors, liou)
    expect = -0.5 * liou @ liou
    assert np.abs(kernel.kernels[0] - expect).max() < dt * np.abs(liou).max()**3
    # the remaining samples vanish for a memoryless evolution
    assert np.abs(kernel.kernels[1:]).max() < 1e-7


def test_kernel_norms_decay_with_delay(heom_tensors):
    liou = liouvillian_superop(H_FIG)
    norms = kernel_norms(extract_kernel(heom_tensors, liou))
    head = norms[1:6].max()
    tail = norms[-5:].max()
    assert tail < 0.5 * head


def test_weak_coupling_kernel_matches_quadrature(heom_tensors):
    """Dominant kernel entries agree with the one-loop cell integral."""
    liou = liouvillian_superop(H_FIG)
    kernel = extract_kernel(heom_tensors, liou)
    oracle = second_order_kernel_series(
        len(heom_tensors), heom_tensors.dt, H_FIG, SIGMA_X,
        BATH["lam"], BATH["gamma"], BATH["beta"], n_matsubara=4)
    measured = kernel.kernels[1:]
    mask = np.abs(oracle) >= 0.2 * np.abs(oracle).max()
    rel = np.abs(measured - oracle)[mask] / np.abs(oracle)[mask]
    assert rel.max() < 0.10


def test_fitted_liouvillian_recovers_hamiltonian():
    h = tls_hamiltonian(0.9, 0.3)
    dt = 0.005
    trajs = gen_unitary(h, TimeGrid(dt=dt, n_steps=2))
    t1 = extract_maps(trajs).maps[1]
    fit = extract_liouvillian(t1, dt)
    superop = liouvillian_superop(fit.hamiltonian)
    # the commutator projection sees H only through its traceless part
    np.testing.assert_allclose(fit.hamiltonian,
                               h - np.trace(h) / 2 * np.eye(2), atol=1e-4)
    # the raw estimate carries the Trotter remainder -i dt L^2 / 2, which
    # lies outside the commutator span and stays behind as the residual
    assert fit.residual_norm < dt * np.abs(liouvillian_superop(h)).max() ** 2
    assert np.abs(superop - liouvillian_superop(h)).max() < 1e-4


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_closed_form_fit_matches_least_squares(dim):
    rng = np.random.default_rng(300 + dim)
    d2 = dim * dim
    dt = 0.05
    for _ in range(20):
        t1 = np.eye(d2) + 0.1 * (rng.normal(size=(d2, d2))
                                 + 1j * rng.normal(size=(d2, d2)))
        fit = extract_liouvillian(t1, dt)
        h_ref = reference_fit_hamiltonian(t1, dt)
        assert np.abs(fit.hamiltonian - h_ref).max() <= 1e-12
        raw = 1j * (t1 - np.eye(d2)) / dt
        assert np.abs(fit.residual - (raw - liouvillian_superop(h_ref))
                      ).max() <= 1e-12


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_fit_refuses_a_non_positive_step(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        extract_liouvillian(np.eye(4, dtype=complex), dt)


def test_fitted_liouvillian_flags_dissipation(heom_tensors):
    fit = extract_liouvillian(heom_tensors.tensors[0], heom_tensors.dt)
    superop = liouvillian_superop(fit.hamiltonian)
    known = liouvillian_superop(H_FIG)
    # coherent part close to the true Hamiltonian, residual clearly nonzero
    assert np.abs(superop - known).max() < 0.05
    assert fit.residual_norm > 1e-4


def test_element_series_indexing(heom_tensors):
    liou = liouvillian_superop(H_FIG)
    kernel = extract_kernel(heom_tensors, liou)
    times, series = kernel_element_series(kernel, (0, 0), (1, 1))
    np.testing.assert_allclose(
        times, heom_tensors.dt * np.arange(1, len(kernel) + 1))
    np.testing.assert_allclose(series, kernel.kernels[:, 3, 0])
    with pytest.raises(DimensionError):
        kernel_element_series(kernel, (0, 2), (0, 0))
