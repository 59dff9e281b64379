"""Reference trajectory generators: unitary, Lindblad, analytic dephasing."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import polygamma

from ttmkit import (
    SpinBosonParams,
    TimeGrid,
    gen_dephasing_analytic,
    gen_lindblad,
    gen_unitary,
    lindblad_superop,
    tls_hamiltonian,
    vectorize,
)
from ttmkit.errors import ConfigurationError
from ttmkit.heom import _stability_substeps
from ttmkit.liouville import SIGMA_X, SIGMA_Z, unitary_superop
from ttmkit.models import bath_correlation_modes, lineshape

from oracles import reference_dephasing_exponent, reference_rk4_step

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_unitary_population_oscillation():
    # H = sigma_x gives rho_00(t) = cos^2(t) from the excited state
    grid = TimeGrid(dt=0.01, n_steps=500)
    trajs = gen_unitary(SIGMA_X, grid)
    pops = trajs.element(0, 0)[:, 0, 0].real
    np.testing.assert_allclose(pops, np.cos(grid.times) ** 2, atol=1e-12)


def test_unitary_frames_are_conjugations():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    grid = TimeGrid(dt=0.1, n_steps=6)
    trajs = gen_unitary(h, grid)
    evals, vecs = np.linalg.eigh(h)
    for k in (1, 4, 6):
        u = (vecs * np.exp(-1j * evals * grid.times[k])) @ vecs.conj().T
        for i in range(3):
            for j in range(3):
                seed = np.zeros((3, 3), dtype=complex)
                seed[i, j] = 1.0
                np.testing.assert_allclose(trajs.element(i, j)[k],
                                           u @ seed @ u.conj().T, atol=1e-12)


def test_lindblad_with_zero_rates_matches_unitary():
    h = 0.5 * (SIGMA_Z + SIGMA_X)
    grid = TimeGrid(dt=0.05, n_steps=100)
    a = gen_unitary(h, grid)
    b = gen_lindblad(h, [SIGMA_MINUS], [0.0], grid)
    assert np.abs(a.data - b.data).max() < 1e-9


def test_amplitude_damping_rate():
    grid = TimeGrid(dt=0.02, n_steps=200)
    trajs = gen_lindblad(np.zeros((2, 2), dtype=complex), [SIGMA_MINUS], [0.3],
                         grid)
    excited = trajs.element(1, 1)[:, 1, 1].real
    np.testing.assert_allclose(excited, np.exp(-0.3 * grid.times), atol=1e-10)
    coh = np.abs(trajs.element(0, 1)[:, 0, 1])
    np.testing.assert_allclose(coh, np.exp(-0.15 * grid.times), atol=1e-10)


def test_lindblad_dephasing_rate():
    # D[sigma_z] at rate r damps coherences at 2r and leaves populations alone
    grid = TimeGrid(dt=0.02, n_steps=150)
    trajs = gen_lindblad(np.zeros((2, 2), dtype=complex), [SIGMA_Z], [0.4],
                         grid)
    coh = np.abs(trajs.element(0, 1)[:, 0, 1])
    np.testing.assert_allclose(coh, np.exp(-0.8 * grid.times), atol=1e-10)
    pops = trajs.element(0, 0)[:, 0, 0].real
    np.testing.assert_allclose(pops, 1.0, atol=1e-12)


def test_lindblad_superop_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = h + h.conj().T
    gen = lindblad_superop(h, [SIGMA_MINUS, SIGMA_Z], [0.2, 0.1])
    # trace functional is a left null vector of any Lindblad generator
    tr = vectorize(np.eye(2, dtype=complex))
    assert np.abs(tr @ gen).max() < 1e-14


def _random_d3_case():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    return h + h.conj().T, ops, [0.3, 0.2], TimeGrid(dt=0.05, n_steps=40)


# (h, jump operators, rates, grid): C1's case, the amplitude-damping and
# dephasing cases above, a random D = 3 case and a coarse step with substeps
LINDBLAD_CASES = {
    "c1": lambda: (tls_hamiltonian(1.0, 0.4), [SIGMA_MINUS, SIGMA_Z], [0.2, 0.1],
                   TimeGrid(dt=0.05, n_steps=50)),
    "amplitude-damping": lambda: (np.zeros((2, 2)), [SIGMA_MINUS], [0.3],
                                  TimeGrid(dt=0.02, n_steps=200)),
    "dephasing": lambda: (np.zeros((2, 2)), [SIGMA_Z], [0.4],
                          TimeGrid(dt=0.02, n_steps=150)),
    "random-d3": _random_d3_case,
    "coarse": lambda: (tls_hamiltonian(1.0, 0.4), [SIGMA_MINUS, SIGMA_Z],
                       [50.0, 30.0], TimeGrid(dt=2.0, n_steps=5)),
}


@pytest.mark.parametrize("case", LINDBLAD_CASES)
def test_lindblad_maps_match_the_matrix_exponential(case):
    h, ops, rates, grid = LINDBLAD_CASES[case]()
    gen = lindblad_superop(h, ops, rates)
    assert (_stability_substeps(gen, grid.dt) > 1) == (case == "coarse")
    exact = np.array([expm(gen * t) for t in grid.times])
    maps = gen_lindblad(h, ops, rates, grid).maps
    assert np.abs(maps - exact).max() <= 1e-12


def test_lindblad_maps_agree_with_rk4_within_its_error():
    h, ops, rates, grid = LINDBLAD_CASES["c1"]()
    gen = lindblad_superop(h, ops, rates)
    exact = np.array([expm(gen * t) for t in grid.times])
    step = reference_rk4_step(gen, grid.dt)
    rk4 = np.array([np.linalg.matrix_power(step, k) for k in range(grid.n_steps + 1)])
    rk4_error = np.abs(rk4 - exact).max()
    assert 1e-12 < rk4_error < 2e-11  # 1.0e-11 measured
    maps = gen_lindblad(h, ops, rates, grid).maps
    assert np.abs(maps - rk4).max() <= rk4_error + 1e-12


def _series_exponent(t, lam, gamma, beta, n_modes=20000):
    """Independent oracle: mode sum for the Gaussian dephasing exponent.

    Re g(t) = sum_k Re[c_k] (exp(-nu_k t) - 1 + nu_k t) / nu_k^2 over the
    exponential decomposition of C(t), with the truncated linear tail
    restored in closed form through the trigamma function.
    """
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n_modes)
    total = sum(c.real * (np.exp(-nu * t) - 1.0 + nu * t) / nu**2
                for c, nu in zip(coeffs, rates))
    tail = (4 * lam * gamma * t / beta) * (beta / (2 * np.pi)) ** 2 \
        * float(polygamma(1, n_modes))
    return total + tail


def _exponent(t, lam, gamma, beta):
    """Re g(t) at one time: the Gaussian dephasing exponent."""
    return lineshape([t], lam, gamma, beta)[0].real


@pytest.mark.parametrize("t,lam,gamma,beta", [
    (1.0, 0.1, 1.0, 1.0),
    (5.0, 0.1, 1.0, 1.0),
    (2.0, 0.5, 2.0, 0.5),
])
def test_dephasing_exponent_against_mode_series(t, lam, gamma, beta):
    series_val = _series_exponent(t, lam, gamma, beta)
    assert abs(_exponent(t, lam, gamma, beta) - series_val) < 1e-8


def test_dephasing_exponent_regression_values():
    assert abs(_exponent(5.0, 0.1, 1.0, 1.0) - 0.8162027660892653) < 1e-8
    assert abs(_exponent(1.0, 0.1, 1.0, 1.0) - 0.08231236354227014) < 1e-8


def test_dephasing_phase_closed_form():
    lam, gamma = 0.1, 1.0
    t = np.array([0.5, 5.0])
    expect = -lam * (gamma * t - 1.0 + np.exp(-gamma * t)) / gamma
    assert np.abs(lineshape(t, lam, gamma, 1.0).imag - expect).max() < 1e-14


# Grids of the C10 check, the three cases above, the hierarchy
# cross-check in test_heom and a small gamma*beta bath.
@pytest.mark.parametrize("times,lam,gamma,beta", [
    (0.05 * np.arange(1, 1001), 0.1, 1.0, 1.0),
    (np.array([1.0, 5.0]), 0.1, 1.0, 1.0),
    (np.array([2.0]), 0.5, 2.0, 0.5),
    (0.05 * np.arange(1, 101), 0.05, 1.0, 1.0),
    (0.05 * np.arange(1, 201), 0.1, 1.0, 0.125),
], ids=["c10", "mode-series", "mode-series-hot", "heom", "small-gamma-beta"])
def test_lineshape_matches_quadrature(times, lam, gamma, beta):
    g = lineshape(times, lam, gamma, beta)
    quad = np.array([reference_dephasing_exponent(t, lam, gamma, beta)
                     for t in times])
    assert np.abs(g.real / quad - 1.0).max() < 1e-10
    drude = -lam * (gamma * times - 1.0 + np.exp(-gamma * times)) / gamma
    assert np.abs(g.imag - drude).max() < 1e-14


def test_lineshape_small_step_matches_precise_mode_sum():
    """dt = 1e-3 needs 6367 explicit modes, summed without a frames x modes array.

    The references are the Drude-plus-Matsubara mode sum at 40 digits
    (Euler-Maclaurin summation of the Matsubara series); the quadrature
    oracle must meet them too.
    """
    times = 1e-3 * np.arange(1, 1001)
    tracemalloc.start()
    g = lineshape(times, 0.1, 1.0, 1.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**24  # the frames x modes array would hold 100 MB
    precise = {0: 3.0164103998380400953e-7, 1: 1.1183101059455218216e-6,
               9: 2.2834864711903596604e-5, 99: 1.5511145763107917541e-3,
               999: 8.2312363542259837281e-2}
    for k, value in precise.items():
        assert abs(g[k].real / value - 1.0) < 1e-10
        quad = reference_dephasing_exponent(times[k], 0.1, 1.0, 1.0)
        assert abs(quad / value - 1.0) < 1e-10
    drude = -0.1 * (times - 1.0 + np.exp(-times))
    assert np.abs(g.imag - drude).max() < 1e-14


def test_analytic_dephasing_populations_and_coherence():
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=0.1, gamma=1.0,
                             beta=1.0)
    grid = TimeGrid(dt=0.25, n_steps=20)
    trajs = gen_dephasing_analytic(params, grid)
    # populations are frozen
    np.testing.assert_allclose(trajs.element(0, 0)[:, 0, 0].real, 1.0,
                               atol=1e-12)
    # coherence decays by the exponent with the sigma_z eigenvalue gap of 2
    coh = trajs.element(0, 1)[:, 0, 1]
    for k in (4, 12, 20):
        t = grid.times[k]
        decay = np.exp(-4.0 * reference_dephasing_exponent(t, 0.1, 1.0, 1.0))
        np.testing.assert_allclose(abs(coh[k]), decay, atol=1e-9)
    # free phase rotates at the level splitting omega0 = 1
    phases = np.angle(coh[1:]) + grid.times[1:]
    wrapped = (phases + np.pi) % (2 * np.pi) - np.pi
    np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)


def test_analytic_dephasing_rejects_noncommuting_hamiltonian():
    params = SpinBosonParams(omega0=1.0, j_coupling=0.5, lam=0.1, gamma=1.0,
                             beta=1.0)
    with pytest.raises(ConfigurationError):
        gen_dephasing_analytic(params, TimeGrid(dt=0.1, n_steps=4))


def test_degenerate_dephasing_is_the_sigma_z_case_rotated():
    # H = 0 commutes with sigma_x; the Hadamard gate takes sigma_z to it
    grid = TimeGrid(dt=0.1, n_steps=50)
    maps = {}
    for name, q_op in (("x", SIGMA_X), ("z", SIGMA_Z)):
        params = SpinBosonParams(omega0=0.0, j_coupling=0.0, lam=0.1, gamma=1.0,
                                 beta=1.0, coupling_op=q_op)
        maps[name] = gen_dephasing_analytic(params, grid).maps
    hadamard = unitary_superop((SIGMA_X + SIGMA_Z) / np.sqrt(2.0))
    rotated = hadamard @ maps["z"] @ hadamard.conj().T
    assert np.abs(maps["x"] - rotated).max() <= 1e-12
