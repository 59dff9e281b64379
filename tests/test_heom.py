"""Hierarchy integrator checks against closed-form limits."""

import logging
import re
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from ttmkit import (
    HeomConfig,
    SpinBosonParams,
    TimeGrid,
    gen_dephasing_analytic,
    gen_heom,
    gen_unitary,
)
from ttmkit.errors import ConfigurationError, DivergenceError
from ttmkit import heom as heom_module
from ttmkit.models import bath_correlation_modes, matsubara_tail


def test_pure_dephasing_matches_quadrature():
    # commuting coupling: the hierarchy must track the exact Gaussian decay
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=0.05, gamma=1.0,
                             beta=1.0)
    grid = TimeGrid(dt=0.05, n_steps=100)
    numeric = gen_heom(params, HeomConfig(depth=5, n_matsubara=4), grid)
    exact = gen_dephasing_analytic(params, grid)
    assert np.abs(numeric.data - exact.data).max() < 1e-4


def test_zero_coupling_reduces_to_unitary():
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.0, gamma=1.0,
                             beta=0.5)
    grid = TimeGrid(dt=0.05, n_steps=80)
    closed = gen_heom(params, HeomConfig(depth=3, n_matsubara=1), grid)
    free = gen_unitary(params.hamiltonian, grid)
    assert np.abs(closed.data - free.data).max() < 1e-6


def test_structural_defects_stay_at_zero():
    params = SpinBosonParams(omega0=1.0, j_coupling=0.5, lam=0.2, gamma=1.0,
                             beta=1.0)
    trajs = gen_heom(params, HeomConfig(depth=4, n_matsubara=2),
                     TimeGrid(dt=0.1, n_steps=40))
    assert trajs.initial_defect() == 0.0
    assert trajs.dagger_defect() < 1e-12
    # trace of each propagated basis element is conserved
    traces = np.einsum("bkii->bk", trajs.data)
    assert np.abs(traces - traces[:, :1]).max() < 1e-10


@pytest.mark.parametrize("lam,gamma,dt,n_steps,depth,n_matsubara", [
    (0.1, 1.0, 0.1, 20, 3, 1),
    (2.0, 1.0, 0.05, 40, 6, 2),  # stiff, like C4 (N = 336)
    (8.0, 5.0, 0.01, 40, 6, 2),  # stiff, like the top C6 point
], ids=["weak", "stiff-c4", "stiff-c6"])
def test_stepping_matches_exact_exponential(lam, gamma, dt, n_steps, depth,
                                            n_matsubara):
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam, gamma=gamma,
                             beta=0.5)
    grid = TimeGrid(dt=dt, n_steps=n_steps)
    trajs = gen_heom(params, HeomConfig(depth=depth, n_matsubara=n_matsubara),
                     grid)
    coeffs, rates = bath_correlation_modes(params.lam, params.gamma,
                                           params.beta, n_matsubara)
    tail = matsubara_tail(params.lam, params.gamma, params.beta, n_matsubara)
    gen = heom_module.hierarchy_generator(params.hamiltonian,
                                          params.coupling_op, coeffs, rates,
                                          tail, depth)
    step = expm(gen * grid.dt)
    state = np.zeros((gen.shape[0], 4), dtype=complex)
    state[:4] = np.eye(4)
    deviation = 0.0
    for k in range(1, grid.n_steps + 1):
        state = step @ state
        exact = state[:4].T.reshape(4, 2, 2)
        deviation = max(deviation, np.abs(trajs.data[:, k] - exact).max())
    assert deviation < 1e-12


def test_generation_ignores_the_global_random_state():
    # expm_multiply's norm estimates draw from numpy's global generator;
    # reruns of `ttm generate` must still be byte-identical
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=8.0, gamma=5.0,
                             beta=0.5)
    runs = []
    for seed in (0, 2024):
        np.random.seed(seed)
        runs.append(gen_heom(params, HeomConfig(depth=6, n_matsubara=2),
                             TimeGrid(dt=0.01, n_steps=5)).data)
    assert np.array_equal(runs[0], runs[1])


def test_generation_logs_size_cost_and_peak(caplog):
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                             beta=0.5)
    with caplog.at_level(logging.DEBUG, logger="ttmkit.heom"):
        gen_heom(params, HeomConfig(depth=3, n_matsubara=1),
                 TimeGrid(dt=0.1, n_steps=10))
    (record,) = [r for r in caplog.records if r.name == "ttmkit.heom"]
    assert record.levelno == logging.DEBUG
    coeffs, rates = bath_correlation_modes(params.lam, params.gamma,
                                           params.beta, 1)
    tail = matsubara_tail(params.lam, params.gamma, params.beta, 1)
    nnz = np.count_nonzero(heom_module.hierarchy_generator(
        params.hamiltonian, params.coupling_op, coeffs, rates, tail, 3))
    # C(3 + 2, 2) = 10 ADOs of 2 x 2 blocks
    match = re.fullmatch(
        rf"hierarchy: 40 rows \(10 ADOs\), {nnz} nonzeros; step propagator "
        r"built in (\S+) s, 10 steps in (\S+) s, peak auxiliary entry (\S+)",
        record.getMessage())
    assert match, record.getMessage()
    build_s, step_s, peak = map(float, match.groups())
    assert build_s >= 0 and step_s >= 0 and peak >= 1.0


@pytest.mark.parametrize("n_modes", range(6))
def test_multi_indices_match_brute_force_filter(n_modes):
    for depth in range(9):
        brute = sorted(idx for idx in product(range(depth + 1), repeat=n_modes)
                       if sum(idx) <= depth)
        assert heom_module._multi_indices(n_modes, depth) == brute


def test_divergence_guard_reports_step(monkeypatch):
    # the guard itself is exercised by lowering the threshold below the
    # physical entry scale, which every healthy run exceeds immediately
    monkeypatch.setattr(heom_module, "DIVERGENCE_GUARD", 1e-3)
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                             beta=0.5)
    with pytest.raises(DivergenceError) as info:
        gen_heom(params, HeomConfig(depth=2, n_matsubara=1),
                 TimeGrid(dt=0.1, n_steps=10))
    assert info.value.step == 1
    assert info.value.time == pytest.approx(0.1)


@pytest.mark.parametrize("kwargs", [
    {"depth": -1, "n_matsubara": 0},
    {"depth": 2, "n_matsubara": -1},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        HeomConfig(**kwargs)
