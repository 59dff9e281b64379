"""Hierarchy integrator checks against closed-form limits."""

import ast
import json
import logging
import re
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply, spsolve, splu
from scipy.special import ive

from ttmkit import (
    HeomConfig,
    SpinBosonParams,
    TimeGrid,
    TransferTensorSequence,
    extract_maps,
    gen_dephasing_analytic,
    gen_heom,
    gen_unitary,
    maps_to_tensors,
    truncation_error,
)
from ttmkit.errors import ConfigurationError, DivergenceError
from ttmkit import chebyshev
from ttmkit import heom as heom_module
from ttmkit.liouville import SIGMA_X, superop_norm
from ttmkit.models import bath_correlation_modes, matsubara_tail

from oracles import (
    TaylorPlan,
    _multi_indices,
    pauli_form,
    projected_tensors,
    reference_batched_generator,
    reference_chebyshev_series,
    reference_focused,
    reference_gen_heom,
    reference_hierarchy_generator,
    reference_log_terms,
    reference_step_propagator,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def spin_boson(lam, gamma, beta, j_coupling=1.0, coupling_op=None):
    return SpinBosonParams(omega0=1.0, j_coupling=j_coupling, lam=lam,
                           gamma=gamma, beta=beta, coupling_op=coupling_op)


# C7a's strong-coupling point: sigma_x coupling, no tunnelling
C7A = spin_boson(0.25, 0.05, 4.79, j_coupling=0.0, coupling_op=SIGMA_X)

# The hierarchies of the benchmark's heom_sweep (C6's coupling and
# temperature sweeps) and cli_pipeline, as (params, depth, Matsubara modes).
SWEEP = (
    [(spin_boson(lam, 5.0, 0.5), depth, 2)
     for lam, depth in [(0.05, 4), (0.2, 5), (1.0, 7), (3.0, 9), (8.0, 12)]]
    + [(spin_boson(1.0, 5.0, beta), 8, n)
       for beta, n in [(1.0, 3), (0.5, 2), (0.25, 1), (0.125, 1)]]
)
CLI_PIPELINE = (spin_boson(0.2, 1.0, 1.0), 5, 2)
# C4's couplings and depths (gamma = 1, beta = 0.5, 2 Matsubara modes)
C4_POINTS = [(0.01, 4), (0.1, 6), (0.5, 8), (2.0, 12)]
# C4's strong-coupling point, the benchmark's extrapolate hierarchy
C4 = (spin_boson(2.0, 1.0, 0.5), 12, 2)
# The eleven hierarchies the benchmark runs, with their grid steps.
BENCHMARK_HIERARCHIES = ([(*C4, 0.05)] + [(*point, 0.01) for point in SWEEP]
                         + [(*CLI_PIPELINE, 0.05)])
BENCHMARK_IDS = ["c4", *(f"sweep-{i}" for i in range(len(SWEEP))), "cli-pipeline"]


def generator_args(params, depth, n_matsubara):
    """The arguments of hierarchy_generator for a spin-boson hierarchy."""
    coeffs, rates = bath_correlation_modes(params.lam, params.gamma,
                                           params.beta, n_matsubara)
    tail = matsubara_tail(params.lam, params.gamma, params.beta, n_matsubara)
    return (params.hamiltonian, params.coupling_op, coeffs, rates, tail, depth)


def sparse_step_generator(params, depth, n_matsubara, dt):
    """The sparse complex G dt of the |a><b| basis (the reference build)."""
    return sparse.csr_array(reference_hierarchy_generator(
        *generator_args(params, depth, n_matsubara))) * dt


def pauli_step_generator(params, depth, n_matsubara, dt):
    """The real G dt of the Pauli basis, whose exponential gen_heom steps with."""
    return heom_module.hierarchy_generator(
        *generator_args(params, depth, n_matsubara)) * dt


def force_way(monkeypatch, dense):
    """Make gen_heom step the dense way or not; the estimate still picks the focus."""
    work = chebyshev._step_work
    monkeypatch.setattr(chebyshev, "_step_work", lambda matrix, plan, n_steps: (
        work(matrix, plan, n_steps)[0], dense))


# Each hierarchy names the way gen_heom takes for it, so both ways are
# checked against the exact exponential.
STEPPING_CASES = pytest.mark.parametrize(
    "lam,gamma,dt,n_steps,depth,n_matsubara,dense", [
        (0.1, 1.0, 0.1, 20, 3, 1, True),
        (2.0, 1.0, 0.05, 40, 6, 2, False),  # stiff, like C4 (N = 336)
        (8.0, 5.0, 0.01, 40, 6, 2, False),  # stiff, like the top C6 point
        (2.0, 1.0, 0.05, 10, 6, 2, False),
        (8.0, 5.0, 0.01, 10, 6, 2, False),
        # enough frames to form the step: 22.3 ms against 26.8 ms for
        # windowed frames (whole gen_heom runs, minimum of 15 alternating,
        # dense faster in 15, one BLAS thread, pinned to one CPU); over 200
        # frames the rule takes windowed frames at foci 0.71 h (window 23),
        # 29.8 ms against 33.2 ms for the dense step (faster in 14 of 15)
        (2.0, 1.0, 0.05, 300, 6, 2, True),
        # windowed frames at foci 0.5 h (window 40): 11.5 ms against 20.5 ms
        # for the dense step (minimum of 15 alternating runs, faster in 15)
        (8.0, 5.0, 0.01, 400, 6, 2, False),
    ], ids=["weak", "stiff-c4", "stiff-c6", "stiff-c4-short", "stiff-c6-short",
            "stiff-c4-long", "stiff-c6-long"])


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


@STEPPING_CASES
def test_stepping_matches_exact_exponential(lam, gamma, dt, n_steps, depth,
                                            n_matsubara, dense):
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam, gamma=gamma,
                             beta=0.5)
    grid = TimeGrid(dt=dt, n_steps=n_steps)
    pauli = pauli_step_generator(params, depth, n_matsubara, dt)
    assert chebyshev.ChebyshevPlan.of(pauli, n_steps).dense == dense
    gen_dt = sparse_step_generator(params, depth, n_matsubara, dt)
    trajs = gen_heom(params, HeomConfig(depth=depth, n_matsubara=n_matsubara),
                     grid)
    step = expm(gen_dt.toarray())
    state = np.zeros((gen_dt.shape[0], 4), dtype=complex)
    state[:4] = np.eye(4)
    deviation = 0.0
    for k in range(1, grid.n_steps + 1):
        state = step @ state
        exact = state[:4].T.reshape(4, 2, 2)
        deviation = max(deviation, np.abs(trajs.data[:, k] - exact).max())
    assert deviation < 1e-12


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "frames"])
@pytest.mark.parametrize("params,depth,n_matsubara,dt", BENCHMARK_HIERARCHIES,
                         ids=BENCHMARK_IDS)
def test_real_form_matches_the_complex_oracle(monkeypatch, params, depth,
                                              n_matsubara, dt, dense):
    # both ways of stepping the real Pauli form against the complex
    # stepping of the |a><b| basis, which keeps its own cost rule
    force_way(monkeypatch, dense)
    cfg = HeomConfig(depth=depth, n_matsubara=n_matsubara)
    grid = TimeGrid(dt=dt, n_steps=4)
    trajs = gen_heom(params, cfg, grid)
    assert trajs.initial_defect() == 0.0
    assert trajs.dagger_defect() < 1e-12
    oracle = reference_gen_heom(params, cfg, grid)
    assert np.abs(trajs.data - oracle.data).max() <= 1e-12


@pytest.mark.parametrize("q_op,rate_shift", [
    (np.array([[1.0, 1.0], [0.0, -1.0]]), 0.0),  # Q not Hermitian
    (np.diag([1.0, -1.0]), 0.1j),                # a complex decay rate
], ids=["non-hermitian-q", "complex-rate"])
def test_step_refuses_a_generator_whose_pauli_form_is_not_real(monkeypatch,
                                                               q_op,
                                                               rate_shift):
    params = spin_boson(0.5, 1.0, 0.5)
    h, _, coeffs, rates, tail, depth = generator_args(params, 3, 1)
    with pytest.raises(ConfigurationError, match="auxiliaries Hermitian"):
        heom_module.hierarchy_generator(h, q_op, coeffs, rates + rate_shift,
                                        tail, depth)
    # the same Q past the parameters' own check, and the same bath
    object.__setattr__(params, "coupling_op", q_op)
    monkeypatch.setattr(heom_module, "bath_correlation_modes",
                        lambda *args: (coeffs, rates + rate_shift))
    with pytest.raises(ConfigurationError, match="auxiliaries Hermitian"):
        gen_heom(params, HeomConfig(depth=3, n_matsubara=1),
                 TimeGrid(dt=0.05, n_steps=2))


def test_terminator_rounding_keeps_a_slow_bath_steppable():
    # at lambda = 0.2, gamma = 0.05, beta = 0.5 the terminator's sum
    # rounds to an imaginary part of 2.8e-17, which the real Pauli form
    # refused before matsubara_tail returned the real part
    params = spin_boson(0.2, 0.05, 0.5)
    assert isinstance(matsubara_tail(0.2, 0.05, 0.5, 2), float)
    trajs = gen_heom(params, HeomConfig(depth=5, n_matsubara=2),
                     TimeGrid(dt=0.1, n_steps=3))
    assert trajs.initial_defect() == 0.0
    assert trajs.dagger_defect() < 1e-12


def test_coupling_hermitian_to_rounding_steps_as_the_exact_one():
    # the parameters keep the Hermitian part of a coupling operator that
    # passes their 1e-12 check, so its Pauli form is real
    grid = TimeGrid(dt=0.05, n_steps=3)
    cfg = HeomConfig(depth=3, n_matsubara=1)
    runs = [gen_heom(spin_boson(0.5, 1.0, 0.5, coupling_op=q), cfg, grid).data
            for q in (np.array([[1.0, 1e-14], [0.0, -1.0]]), np.diag([1.0, -1.0]))]
    assert np.abs(runs[0] - runs[1]).max() <= 1e-13


@STEPPING_CASES
def test_dense_step_matches_expm_multiply(lam, gamma, dt, n_steps, depth,
                                          n_matsubara, dense):
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam, gamma=gamma,
                             beta=0.5)
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    step = chebyshev._dense_step(chebyshev.ChebyshevPlan.of(gen_dt, 1))
    assert step.dtype == float
    assert np.abs(step - reference_step_propagator(gen_dt)).max() <= 1e-14


@pytest.mark.parametrize("params,depth,dt,n", [
    # C4's strong-coupling point, learned over K = 100 frames
    (SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=2.0, gamma=1.0,
                     beta=0.5), 12, 0.05, 100),
    # the top point of C6's coupling sweep, K = 200
    (SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=8.0, gamma=5.0,
                     beta=0.5), 12, 0.01, 200),
    # C4's lambda = 0.5 point, K = 100
    (spin_boson(0.5, 1.0, 0.5), 8, 0.05, 100),
    # C7a's point over its whole learning window, K = 1600
    (C7A, 8, 0.0025, 1600),
], ids=["c4", "c6-top", "c4-lam0.5", "c7a"])
def test_peeled_tensors_match_the_projected_hierarchy(heom_run, params, depth,
                                                     dt, n):
    # the peel of the hierarchy's maps is the Nakajima-Zwanzig form
    # T_k = P U (Q U)^(k-1) P of the same step, to rounding
    trajs = heom_run(params, HeomConfig(depth=depth, n_matsubara=2),
                     TimeGrid(dt=dt, n_steps=n))
    peeled = maps_to_tensors(extract_maps(trajs)).tensors
    plan = TaylorPlan.of(sparse_step_generator(params, depth, 2, dt))
    assert np.abs(peeled - projected_tensors(plan, n)).max() <= 1e-13


def test_exact_tail_beyond_the_learned_window_peaks_at_its_first_tensor():
    # the premise of C4 and C8: the memory cut at K = 100 frames discards
    # no exact tensor larger than truncation_error's ||T_101|| (measured
    # 1.51e-6, 1.67e-6, 6.23e-6 and 1.24e-5 at T_101), which is itself
    # below the last learned ||T_100||
    for lam, depth in C4_POINTS:
        plan = TaylorPlan.of(
            pauli_step_generator(spin_boson(lam, 1.0, 0.5), depth, 2, 0.05))
        pauli = projected_tensors(plan, 400)
        exact = TransferTensorSequence(dim=2, dt=0.05, tensors=(
            heom_module.PAULI_BASIS @ pauli @ (0.5 * heom_module.PAULI_BASIS.conj().T)))
        norms = [superop_norm(t) for t in exact.tensors]
        assert truncation_error(exact, 100) == max(norms[100:]) < norms[99], lam


@pytest.mark.parametrize("x,degree,substeps", [
    (0.0, 1, 1),    # a multiple of the identity: the shift is exact
    (1.0, 18, 1),   # theta_17 < 1 <= theta_18
    (20.0, 45, 3),  # 45 * 3 = 135 products beat 50 * 3 and 40 * 4
])
def test_taylor_plan_minimises_products(x, degree, substeps):
    diagonal = np.array([0.5 + x, 0.5 - x])
    plan = TaylorPlan.of(sparse.csr_array(np.diag(diagonal)))
    assert (plan.degree, plan.substeps) == (degree, substeps)
    assert plan.mu == 0.5 and plan.norm == x
    # a real matrix keeps a real shift, and the series keeps its operand's dtype
    assert isinstance(plan.mu, float)
    exact = np.diag(np.exp(diagonal))
    for operand in (np.eye(2), np.eye(2, dtype=complex)):
        out = plan.apply(operand)
        assert out.dtype == operand.dtype
        assert np.abs(out - exact).max() <= 1e-14 * exact.max()


# The frames each benchmark hierarchy is stepped over (C4 1000, the sweep
# 200, cli_pipeline 800) and the way the cost rule takes. Whole gen_heom
# runs, dense step against windowed frames, each at the focus the
# estimate picks (ms, minimum of 7 alternating runs, of 2 from N = 1820,
# one Xeon vCPU, one BLAS thread): c4 4400/505, sweep-0 6.8/17.5,
# sweep-2 39.0/12.8, sweep-3 210/20.7, sweep-4 1067/53.1, sweep-5
# 1252/33.4, sweep-6 95.7/13.0, sweep-8 7.6/9.8; near the crossover, 15
# alternating runs: sweep-1 9.2/10.7 (dense faster in 15), sweep-7
# 7.0/7.5 (12), cli_pipeline 20.6/23.7 (15). The rule takes the faster
# way at each.
BENCHMARK_WAYS = [(1000, False)] + [(200, i in (0, 1, 7, 8))
                                    for i in range(len(SWEEP))] + [(800, True)]


@pytest.mark.parametrize("params,depth,n_matsubara,dt,n_steps,dense", [
    (*point, *way) for point, way in zip(BENCHMARK_HIERARCHIES, BENCHMARK_WAYS)
], ids=BENCHMARK_IDS)
def test_cost_rule_picks_the_way(params, depth, n_matsubara, dt, n_steps,
                                 dense):
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    assert chebyshev.ChebyshevPlan.of(gen_dt, n_steps).dense == dense


@pytest.mark.parametrize("params,depth,n_matsubara,dt,n_steps,rows", [
    # C4's lambda = 0.5 point (N = 660) over 1000 frames: 0.440 s with the
    # dense step, 0.107 s with windowed frames (whole gen_heom runs,
    # minimum of 5 alternating, one Xeon vCPU, one BLAS thread)
    (spin_boson(0.5, 1.0, 0.5), 8, 2, 0.05, 1000, 660),
    # C4's coupling at depth 8 (N = 660) over 10^4 frames: 3.85 s against
    # 1.10 s (minimum of 2, windowed at foci 0.59 h, window 48)
    (spin_boson(2.0, 1.0, 0.5), 8, 2, 0.05, 10 ** 4, 660),
    # the benchmark hierarchies above DENSE_ROWS and C7a, over their frames
    *((*BENCHMARK_HIERARCHIES[i], BENCHMARK_WAYS[i][0], rows)
      for i, rows in [(0, 1820), (4, 880), (5, 1820), (6, 1980), (7, 660)]),
    (C7A, 8, 2, 0.0025, 1600, 660),
], ids=["c4-lam0.5", "c4-depth8-long", "c4", *(f"sweep-{i}" for i in range(3, 7)),
        "c7a"])
def test_no_dense_step_above_dense_rows(params, depth, n_matsubara, dt, n_steps,
                                        rows):
    # the work estimate, costing the dense product at MEMORY_DENSE_WORK per
    # entry above DENSE_ROWS rows, picks windowed frames here; with the
    # in-cache DENSE_WORK it formed the dense step over c4-depth8-long's
    # 10^4 frames when the ellipse went through the box's corners (window
    # 9 at foci h), and picks windowed frames there too since it fits
    # the polygon
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    assert plan.doubled.shape[0] == rows > chebyshev.DENSE_ROWS
    assert plan.window > 1
    assert not plan.dense


@pytest.mark.parametrize("dt,n_steps,dense", [
    (4.0, 20, False), (4.0, 400, True), (2.0, 100, True), (2.0, 400, True),
], ids=["dt4-20", "dt4-400", "dt2-100", "dt2-400"])
def test_coarse_step_above_dense_rows_takes_the_faster_way(dt, n_steps, dense):
    # C4's coupling at depth 8 (N = 660): one substep is the whole window,
    # and the work estimate decides. The polygon keeps dt = 2 over 40
    # frames and every dt up to 3 over 20 to one substep (foci 0.5-0.59 h,
    # degree 308-436), so these steps are where the plan still splits.
    # Whole gen_heom runs, dense step against windowed frames (s, minimum
    # of 15 alternating runs over 20 frames, 7 over 100 and 5 over 400,
    # one Xeon vCPU, one BLAS thread, slow host phase): dt = 4 (2 substeps
    # at foci 0.59 h) 0.366/0.143 over 20 frames and 0.686/3.30 over 400;
    # dt = 2 (3 and 2 substeps at foci 0.84 h and 0.71 h) 0.266/0.481
    # over 100 and 0.498/1.81 over 400
    gen_dt = pauli_step_generator(spin_boson(2.0, 1.0, 0.5), 8, 2, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    assert plan.doubled.shape[0] == 660 > chebyshev.DENSE_ROWS
    assert plan.substeps > 1 and plan.window == 1
    assert plan.dense == dense


def test_generation_ignores_the_global_random_state():
    # the Chebyshev plan's box takes its power steps from d = 1 and draws
    # no random numbers, so reruns of `ttm generate` are byte-identical
    # whatever the global generator's state
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=8.0, gamma=5.0,
                             beta=0.5)
    runs = []
    for seed in (0, 2024):
        np.random.seed(seed)
        runs.append(gen_heom(params, HeomConfig(depth=6, n_matsubara=2),
                             TimeGrid(dt=0.01, n_steps=5)).data)
    assert np.array_equal(runs[0], runs[1])


def test_generation_logs_size_cost_and_peak(monkeypatch, caplog):
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                             beta=0.5)
    nnz = pauli_step_generator(params, 3, 1, 0.1).nnz
    assert nnz < sparse_step_generator(params, 3, 1, 0.1).nnz
    plan = chebyshev.ChebyshevPlan.of(pauli_step_generator(params, 3, 1, 0.1), 10)
    # C(3 + 2, 2) = 10 ADOs of 2 x 2 blocks; a small hierarchy forms the
    # dense step from ceil(40 / COLUMN_BLOCK) = 1 block of columns by the
    # one-frame series, and the frames way runs ceil(10 / L) windows
    # (the set-up's last part forms the dense step, or the window's coefficients)
    for way, formed, dense, window, products in [
            ("dense step", "dense step", None, 1, plan.degree(1)),
            ("frames", "coefficients", False, plan.window, plan.products(10))]:
        if dense is not None:
            force_way(monkeypatch, dense)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ttmkit.heom"):
            gen_heom(params, HeomConfig(depth=3, n_matsubara=1),
                     TimeGrid(dt=0.1, n_steps=10))
        (record,) = [r for r in caplog.records if r.name == "ttmkit.heom"]
        assert record.levelno == logging.DEBUG
        match = re.fullmatch(
            rf"hierarchy: 40 rows \(10 ADOs\), {nnz} nonzeros in the real Pauli "
            rf"form; {way}, window (\d+), 1 substeps, Chebyshev degree (\d+), box Re "
            r"\[(\S+), (\S+)\] \|Im\| <= (\S+), foci c \+- (\S+) h, bound (\S+), "
            r"(\d+) sparse products; built in (\S+) s, planned in (\S+) s, "
            rf"{formed} in (\S+) s, "
            r"10 steps in (\S+) s, peak entry at window ends (\S+), (\S+) us per "
            r"sparse product",
            record.getMessage())
        assert match, record.getMessage()
        assert int(match[1]) == window and int(match[2]) == plan.degree(window)
        lo, hi, eta, focus, bound = map(float, match.groups()[2:7])
        assert lo < 0 < hi and eta > 0
        assert focus == float(f"{plan.focus:.3g}")
        assert 1.0 <= bound <= chebyshev.MAX_AMPLIFICATION
        assert int(match[8]) == products > 0
        build_s, plan_s, form_s, step_s, peak, product_us = map(float,
                                                                match.groups()[8:])
        assert min(build_s, plan_s, form_s, step_s) >= 0 and peak >= 1.0
        # forming the dense step is the set-up's last part
        spent_s = form_s if way == "dense step" else step_s
        assert 0 < product_us * products * 1e-6 <= spent_s + 1e-3


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "frames"])
def test_coarse_step_is_split_into_substeps(monkeypatch, dense):
    # at dt = 2 one frame of the stiff C4-like hierarchy (N = 336) would
    # amplify rounding by 4.7e16, and its error reached 3e-10 unsplit
    params = spin_boson(2.0, 1.0, 0.5)
    gen_dt = pauli_step_generator(params, 6, 2, 2.0)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, 5)
    assert plan.substeps > 1
    assert plan.bound(plan.window) <= chebyshev.MAX_AMPLIFICATION
    force_way(monkeypatch, dense)
    trajs = gen_heom(params, HeomConfig(depth=6, n_matsubara=2),
                     TimeGrid(dt=2.0, n_steps=5))
    step = expm(gen_dt.toarray())
    state = np.zeros((gen_dt.shape[0], 4))
    state[:4] = np.eye(4)
    for k in range(1, 6):
        state = step @ state
        exact = heom_module.PAULI_BASIS @ state[:4] @ (0.5 * heom_module.PAULI_BASIS.conj().T)
        assert np.abs(trajs.maps[k] - exact).max() <= 1e-13, k


def test_window_holds_at_most_window_entries(monkeypatch, caplog):
    # a cap of 3 frames of the N x 4 state (N = 40) shortens the window
    # the bound allows, and the frames stay those of the wider window
    params = spin_boson(0.1, 1.0, 0.5)
    cfg, grid = HeomConfig(depth=3, n_matsubara=1), TimeGrid(dt=0.1, n_steps=10)
    force_way(monkeypatch, False)
    wide = gen_heom(params, cfg, grid)
    monkeypatch.setattr(chebyshev, "WINDOW_ENTRIES", 40 * 4 * 3)
    with caplog.at_level(logging.DEBUG, logger="ttmkit.heom"):
        narrow = gen_heom(params, cfg, grid)
    assert "frames, window 3," in caplog.text
    assert np.abs(narrow.data - wide.data).max() <= 1e-14


def series_terms(plan, k):
    """|a_j(k)| rho^j of a plan's series for substep k by ive, 256 orders past its window's degree."""
    j = np.arange(plan.degree(plan.window) + 256)
    z = k * plan.half
    with np.errstate(divide="ignore"):
        terms = np.exp(np.log(np.where(j == 0, 1.0, 2.0)) + z * (plan.shift + 1.0)
                       + np.log(ive(j, z)) + j * np.log(plan.rho))
    assert terms[-1] < 1e-40  # the rest of the series is negligible
    return terms


# The real matrix of blocks [[a, -b], [b, a]]: normal, so its numerical
# range is the hull of its eigenvalues a +- i b.
ROTATION_A = np.array([0.0, -0.25, -0.5, -1.0])
ROTATION_B = np.array([1.0, 0.5, -0.25, 0.0])


def rotation_blocks():
    """The CSR block matrix of ROTATION_A and ROTATION_B."""
    a, b = ROTATION_A, ROTATION_B
    blocks = np.stack([np.stack([a, -b], -1), np.stack([b, a], -1)], -2)
    return sparse.csr_array(sparse.block_diag(blocks))


def test_chebyshev_plan_matches_rotation_blocks():
    # the blocks' exponential is e^(k a) times a rotation by k b: the box
    # is Re [-1, 0], |Im| <= 1. Rounding grows with the bound M of the
    # window: every frame is within 1e-14 of the exact one over 4 frames
    # (M = 33), and within the plan's 2^-43 = MAX_AMPLIFICATION * 2^-53
    # over the widest window (M = 572)
    a, b, matrix = ROTATION_A, ROTATION_B, rotation_blocks()
    for window, bound in [(4, 1e-14), (50, 2.0 ** -43)]:
        plan = chebyshev.ChebyshevPlan.of(matrix, window)
        assert (plan.lo, plan.hi, plan.eta) == (-1.0, 0.0, 1.0)
        assert plan.window == min(window, 8)
        frames = plan.apply(np.eye(8), plan.coefficients(plan.window))
        for k, frame in enumerate(frames, 1):
            rotation = np.exp(k * a)[:, None, None] * np.stack(
                [np.stack([np.cos(k * b), -np.sin(k * b)], -1),
                 np.stack([np.sin(k * b), np.cos(k * b)], -1)], -2)
            exact = sparse.block_diag(rotation).toarray()
            assert np.abs(frame - exact).max() <= bound * np.abs(exact).max(), k


# The benchmark hierarchies and C7a with the frames they are stepped over.
PLAN_CASES = pytest.mark.parametrize("params,depth,n_matsubara,dt,n_steps", [
    *((*point, n_steps) for point, (n_steps, _) in zip(BENCHMARK_HIERARCHIES,
                                                      BENCHMARK_WAYS)),
    (C7A, 8, 2, 0.0025, 1600),
], ids=[*BENCHMARK_IDS, "c7a"])


@PLAN_CASES
def test_chebyshev_degree_is_the_least_meeting_the_tail_bound(
        params, depth, n_matsubara, dt, n_steps):
    # (1 + sqrt 2) sum_{j > n} |a_j(k)| rho^j < 2^-53 at every frame of the
    # window, and not at n - 1
    plan = chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt), n_steps)
    n = plan.degree(plan.window)
    tails = [(1 + np.sqrt(2)) * np.array([series_terms(plan, k)[m + 1:].sum()
                                          for m in (n, n - 1)])
             for k in range(1, plan.window + 1)]
    assert max(tail[0] for tail in tails) < 2.0 ** -53
    assert max(tail[1] for tail in tails) >= 2.0 ** -53


@PLAN_CASES
def test_chebyshev_window_is_the_widest_within_the_amplification_bound(
        params, depth, n_matsubara, dt, n_steps):
    plan = chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt), n_steps)
    bounds = [series_terms(plan, k).sum() for k in range(1, plan.window + 2)]
    assert max(bounds[:-1]) <= chebyshev.MAX_AMPLIFICATION
    assert plan.window == n_steps or bounds[-1] > chebyshev.MAX_AMPLIFICATION
    assert plan.bound(plan.window) == pytest.approx(max(bounds[:-1]), rel=1e-12)


@PLAN_CASES
def test_first_two_windows_match_the_exponential(params, depth, n_matsubara,
                                                 dt, n_steps):
    # every frame k of two windows against scipy's expm_multiply of
    # k G dt, from the inputs I, sigma_x, sigma_y, sigma_z
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    state = np.zeros((gen_dt.shape[0], 4))
    state[:4] = np.eye(4)
    coefficients = plan.coefficients(plan.window)
    first = plan.apply(state, coefficients)
    frames = np.concatenate([first, plan.apply(first[-1], coefficients)])
    exact = expm_multiply(gen_dt, state, start=0, stop=len(frames),
                          num=len(frames) + 1, endpoint=True)[1:]
    assert np.abs(frames - exact).max() <= 1e-13


def focus_candidates(gen_dt, n_steps):
    """(plans, estimates, refused) of the foci c -+ h 2^(-i/4), i = 0..4.

    ``estimates`` holds each plan's (work, dense) by ``_step_work``, and
    ``refused`` whether its growth or its degree would stop the search.
    """
    polygon = chebyshev._polygon(gen_dt)
    candidates = [chebyshev.ChebyshevPlan._focused(*polygon, 2.0 ** (-i / 4), n_steps)
                  for i in range(5)]
    estimates = [chebyshev._step_work(gen_dt, c, n_steps * c.substeps)
                 for c in candidates]
    refused = [c.degree(c.window) * np.log(c.rho) > chebyshev.MAX_LOG_GROWTH
               or c.degree(c.window) < -c.shift * c.half * c.window
               for c in candidates]
    return candidates, estimates, refused


@PLAN_CASES
def test_plan_keeps_the_cheapest_focus_whose_ellipse_holds_the_box(
        params, depth, n_matsubara, dt, n_steps):
    # the foci c -+ h 2^(-i/4) up to the first refused one (its vectors
    # would grow past the cap, or its degree falls short of -L c): the
    # plan is, field for field, the one the work estimate finds cheapest
    # among them, with the way the estimate took for it; its ellipse holds
    # every vertex of the polygon the box's corners are cut to (the name
    # keeps its ids from when the ellipse went through the box's corners)
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    candidates, estimates, refused = focus_candidates(gen_dt, n_steps)
    works = [work for work, _ in estimates]
    chosen = [c.focus for c in candidates].index(plan.focus)
    fields = ("half", "shift", "lo", "hi", "eta", "rho", "substeps", "window")
    assert all(getattr(plan, f) == getattr(candidates[chosen], f) for f in fields)
    assert plan.dense == estimates[chosen][1]
    tried = len(candidates) if not any(refused[1:]) else refused.index(True, 1)
    assert chosen == min(range(tried), key=works.__getitem__)
    assert not refused[chosen]
    assert ellipse_parameters(plan, chebyshev._polygon(gen_dt)[3]).max() <= (
        plan.rho * (1 + 1e-12))


@PLAN_CASES
def test_every_step_is_one_at_the_trace_row(params, depth, n_matsubara, dt,
                                            n_steps):
    # the series of each step sums to 1 at x0 = -shift, the scalar the
    # zero row of G dt (the conserved trace) takes in X, with T_j(x0)
    # formed as the kernel's recurrence forms that row; so does that row
    # of every step the kernel forms
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    assert gen_dt[[0]].nnz == 0
    coefficients = plan.coefficients(plan.window)
    at_x0 = [1.0, -plan.shift]
    while len(at_x0) < coefficients.shape[1]:
        at_x0.append(-at_x0[-2] + (-2.0 * plan.shift) * at_x0[-1])
    eps = np.finfo(float).eps
    assert np.abs(coefficients @ np.array(at_x0) - 1.0).max() <= 4 * eps
    state = np.zeros((gen_dt.shape[0], 4))
    state[:4] = np.eye(4)
    steps = plan.apply(state, coefficients)
    assert np.abs(steps[:, 0, 0] - 1.0).max() <= 4 * eps
    assert not steps[:, 0, 1:].any()


@PLAN_CASES
def test_focus_search_keeps_the_cheapest_candidate(params, depth, n_matsubara,
                                                   dt, n_steps):
    # the windows divide the frames unevenly, so the work need not fall
    # to its least before it first rises: sweep-5's rises from h to 0.84 h
    # and falls below both at 0.71 h, which a search stopping at the first
    # rise missed (as C4's did at 0.71 h with the discs alone, where 0.5 h
    # was cheaper). The plan is the cheapest of every focus tried before
    # the first refused one
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    candidates, estimates, refused = focus_candidates(gen_dt, n_steps)
    tried = len(candidates) if not any(refused[1:]) else refused.index(True, 1)
    cheapest = min(range(tried), key=lambda i: estimates[i][0])
    assert (plan.focus, plan.dense) == (candidates[cheapest].focus,
                                        estimates[cheapest][1])


@pytest.mark.parametrize("hierarchy,ceiling", [
    *((case[:4], 2.0 if name == "c4" else np.inf)
      for case, name in zip(PLAN_CASES.args[1], PLAN_CASES.kwargs["ids"])),
    # the first three stepping cases: the rest repeat their hierarchies
    *(((spin_boson(lam, gamma, 0.5), depth, n_matsubara, dt), np.inf)
      for lam, gamma, dt, _, depth, n_matsubara, _ in STEPPING_CASES.args[1][:3]),
], ids=[*PLAN_CASES.kwargs["ids"], *STEPPING_CASES.kwargs["ids"][:3]])
def test_weighted_skew_bound_holds_the_numerical_range(hierarchy, ceiling):
    # ||S||_2 of the skew part S = (A - A^T) / 2, the most |Im z| over
    # W(A) can reach, from a dense eigvalsh of S^T S, against the box's
    # eta and the Gershgorin discs of S it improves on. C4's discs read
    # 2.291 and its ||S||_2 1.862: an eta of the discs alone fails there
    gen_dt = pauli_step_generator(*hierarchy)
    skew = (gen_dt - gen_dt.T) / 2
    full = skew.toarray()
    exact = np.sqrt(np.linalg.eigvalsh(full.T @ full)[-1])
    discs = abs(skew).sum(axis=1).max()
    eta = chebyshev._polygon(gen_dt)[2]
    assert exact <= eta <= discs
    assert eta < ceiling


# The matrices whose polygons are checked against their numerical range:
# the plan cases, the distinct hierarchies of the stepping cases and the
# rotation blocks.
ENCLOSURE_CASES = pytest.mark.parametrize("case", [
    *(case[:4] for case in PLAN_CASES.args[1]),
    *((spin_boson(lam, gamma, 0.5), depth, n_matsubara, dt)
      for lam, gamma, dt, _, depth, n_matsubara, _ in STEPPING_CASES.args[1][:3]),
    None,
], ids=[*PLAN_CASES.kwargs["ids"], *STEPPING_CASES.kwargs["ids"][:3], "rotation-blocks"])


def enclosure_matrix(case):
    """G dt of a hierarchy case, or the rotation blocks for None."""
    return rotation_blocks() if case is None else pauli_step_generator(*case)


def hermitian_part(matrix, t):
    """The Hermitian part of e^(-i t) A, as a CSC array: cos t H - i sin t S."""
    return sparse.csc_array(np.exp(-1j * t) * matrix + np.exp(1j * t) * matrix.T) / 2


def support_below(matrix, t, bound):
    """Whether W(A) lies in Re(e^(-i t) z) < ``bound``.

    The support of W(A) in the direction t is the largest eigenvalue of
    the Hermitian part of e^(-i t) A. It lies below ``bound`` exactly
    when ``bound`` I minus that part is positive definite, so when the
    pivots of its LDL^H factorization are positive (Sylvester's law of
    inertia). SuperLU gives that factorization with a symmetric ordering
    and diagonal pivots: U = D L^H.
    """
    shifted = bound * sparse.identity(matrix.shape[0], format="csc") - hermitian_part(
        matrix, t)
    lu = splu(sparse.csc_array(shifted), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return bool((lu.U.diagonal().real > 0).all())


def ellipse_parameters(plan, points):
    """rho of the Bernstein ellipse with the plan's foci through each point."""
    x = (points - plan.shift * plan.half) / plan.half
    return np.abs(x + np.sqrt(x - 1) * np.sqrt(x + 1))


@pytest.mark.parametrize("case", ENCLOSURE_CASES.args[1][-4:],
                         ids=ENCLOSURE_CASES.kwargs["ids"][-4:])
def test_support_test_matches_the_largest_eigenvalue(case):
    # the inertia test against a dense eigvalsh, on the last four
    # enclosure cases (the stepping hierarchies, N <= 336, and the
    # rotation blocks): the support lies below the largest eigenvalue
    # plus 1e-9 and not below it minus 1e-9, in every direction of a side
    matrix = enclosure_matrix(case)
    for t in np.arange(2 * chebyshev.RANGE_DIRECTIONS) * np.pi / chebyshev.RANGE_DIRECTIONS:
        largest = np.linalg.eigvalsh(hermitian_part(matrix, t).toarray())[-1]
        margin = 1e-9 * (1.0 + abs(largest))
        assert support_below(matrix, t, largest + margin)
        assert not support_below(matrix, t, largest - margin)


@ENCLOSURE_CASES
def test_polygon_holds_the_numerical_range(case):
    # the polygon's support, its largest Re(e^(-i t) v) over the vertices
    # v, is no less than W(A)'s in every direction t of its sides, and at
    # the midpoints between them (W(A) and the polygon are symmetric about
    # the real axis, so t in [0, pi])
    matrix = enclosure_matrix(case)
    vertices = chebyshev._polygon(matrix)[3]
    slack = 1e-12 * np.abs(vertices).max()
    for t in np.arange(2 * chebyshev.RANGE_DIRECTIONS + 1) * np.pi / (
            2 * chebyshev.RANGE_DIRECTIONS):
        support = (np.exp(-1j * t) * vertices).real.max()
        assert support_below(matrix, t, support + slack), t


@ENCLOSURE_CASES
def test_polygon_vertices_keep_every_side(case):
    # every vertex lies in the box and, in every direction t = k pi / D,
    # within the Gershgorin bound of the Hermitian part of e^(-i t) A,
    # formed by scipy's sparse operators: no side is dropped
    matrix = enclosure_matrix(case)
    lo, hi, eta, vertices = chebyshev._polygon(matrix)
    slack = 1e-12 * np.abs(vertices).max()
    assert len(vertices) >= 3
    assert (vertices.real <= hi + slack).all() and (vertices.real >= lo - slack).all()
    assert (np.abs(vertices.imag) <= eta + slack).all()
    for k in range(2 * chebyshev.RANGE_DIRECTIONS):
        t = k * np.pi / chebyshev.RANGE_DIRECTIONS
        part = hermitian_part(matrix, t)
        diagonal = part.diagonal().real
        radius = np.abs(part).sum(axis=1) - np.abs(part.diagonal())
        bound = (diagonal + radius).max()
        assert (np.exp(-1j * t) * vertices).real.max() <= bound + slack, k


@ENCLOSURE_CASES
def test_every_focus_fits_an_ellipse_no_wider_than_the_box_corners(case):
    # at each focus the search tries, the ellipse holds every vertex of
    # the polygon to 1e-12, and its rho is no larger than that of the
    # ellipse through the box's corners (hi, +-eta) it replaces
    polygon = chebyshev._polygon(enclosure_matrix(case))
    lo, hi, eta, vertices = polygon
    for i in range(5):
        plan = chebyshev.ChebyshevPlan._focused(*polygon, 2.0 ** (-i / 4), 1000)
        assert ellipse_parameters(plan, vertices).max() <= plan.rho * (1 + 1e-12), i
        corner = ellipse_parameters(plan, np.array([hi + 1j * eta]))[0]
        assert plan.rho <= corner * (1 + 1e-12), i


def test_a_focus_past_the_growth_cap_is_refused(monkeypatch):
    # blocks [[a, -0.2], [0.2, a]], a in [-1, 0] (N = 600), over 3000
    # steps: the estimate's cheapest focus lies inside the box's ends.
    # With the cap below its degree times log rho, the plan keeps the
    # focus before it, which the cap allows
    a = -np.linspace(0.0, 1.0, 300)
    blocks = np.stack([np.stack([a, np.full(300, -0.2)], -1),
                       np.stack([np.full(300, 0.2), a], -1)], -2)
    matrix = sparse.csr_array(sparse.block_diag(blocks))
    plan = chebyshev.ChebyshevPlan.of(matrix, 3000)
    growth = plan.degree(plan.window) * np.log(plan.rho)
    assert plan.focus < 1.0 and growth <= chebyshev.MAX_LOG_GROWTH
    monkeypatch.setattr(chebyshev, "MAX_LOG_GROWTH", growth - 1.0)
    capped = chebyshev.ChebyshevPlan.of(matrix, 3000)
    assert capped.focus == pytest.approx(plan.focus * 2.0 ** 0.25, rel=1e-15)
    assert capped.degree(capped.window) * np.log(capped.rho) <= growth - 1.0


def oracle_log_terms(monkeypatch):
    """Make every ChebyshevPlan take its log terms from the ive oracle."""
    def log_terms(self, k):
        if k not in self._terms:
            self._terms[k] = reference_log_terms(self, k)[0]
        return self._terms[k]
    monkeypatch.setattr(chebyshev.ChebyshevPlan, "_log_terms", log_terms)


# The box Re [-4, 0], |Im| <= 0.1 (a polygon of its four corners) over 2000
# steps at foci 0.59 h, where ive underflows to 0 while rho^j still lifts
# the terms.
UNDERFLOW_BOX = (-4.0, 0.0, 0.1, np.array([0.1j, -0.1j, -4 + 0.1j, -4 - 0.1j]),
                 2.0 ** -0.75, 2000)


def test_series_terms_past_the_underflow_of_ive_are_bounded_not_dropped(
        monkeypatch):
    # there the terms read -inf and gave degree 0 when they were taken
    # from ive alone; the ratios of I_j keep them finite, below the bound
    # the power series of I_j gives. The oracle, which took that bound
    # where ive underflows, gives the same window; its degree is higher
    # (3209 against 3139), as its bound lies above the terms there
    plan = chebyshev.ChebyshevPlan._focused(*UNDERFLOW_BOX)
    z = plan.window * plan.half
    terms = plan._log_terms(plan.window)
    oracle, bounded = reference_log_terms(plan, plan.window)
    assert bounded.any() and np.isfinite(terms).all()
    assert len(terms) == len(oracle)
    assert np.all(terms[bounded] <= oracle[bounded])
    # ive is exact to its last bit only above the subnormal range
    normal = ive(np.arange(len(terms)), z) >= np.finfo(float).tiny
    assert np.abs(terms[normal] - oracle[normal]).max() <= 1e-11
    assert plan.degree(plan.window) > z
    oracle_log_terms(monkeypatch)
    reference = chebyshev.ChebyshevPlan._focused(*UNDERFLOW_BOX)
    assert reference.window == plan.window
    assert reference.degree(reference.window) >= plan.degree(plan.window)


@pytest.mark.parametrize("hierarchy,n_steps", [
    *((case[:4], case[4]) for case in PLAN_CASES.args[1]),
    *(((spin_boson(lam, gamma, 0.5), depth, n_matsubara, dt), n_steps)
      for lam, gamma, dt, n_steps, depth, n_matsubara, _ in STEPPING_CASES.args[1]),
    *(((spin_boson(2.0, 1.0, 0.5), 8, 2, dt), n_steps)
      for dt, n_steps in product((0.5, 2.0), (40, 400))),
    (None, UNDERFLOW_BOX[-1]),
], ids=[*PLAN_CASES.kwargs["ids"], *STEPPING_CASES.kwargs["ids"], "dt0.5-40",
        "dt0.5-400", "dt2-40", "dt2-400", "underflow-box"])
def test_window_search_matches_the_bisection_oracle(hierarchy, n_steps):
    # stepping up from the floor of the bound finds the window the
    # bisection between the two bounds found, at every focus
    polygon = (UNDERFLOW_BOX[:4] if hierarchy is None
               else chebyshev._polygon(pauli_step_generator(*hierarchy)))
    for i in range(5):
        focus = 2.0 ** (-i / 4)
        plan = chebyshev.ChebyshevPlan._focused(*polygon, focus, n_steps)
        assert (plan.substeps, plan.window) == reference_focused(*polygon, focus,
                                                                 n_steps), i


@PLAN_CASES
def test_log_terms_match_the_ive_oracle(monkeypatch, params, depth, n_matsubara,
                                        dt, n_steps):
    # within 1e-11 in the log at one step and at the window, and the plan
    # the oracle's terms give is the same plan
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    for k in (1, plan.window):
        terms, (oracle, bounded) = plan._log_terms(k), reference_log_terms(plan, k)
        assert len(terms) == len(oracle) and not bounded.any()
        assert np.abs(terms - oracle).max() <= 1e-11
    oracle_log_terms(monkeypatch)
    reference = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    fields = ("half", "shift", "lo", "hi", "eta", "rho", "focus", "substeps",
              "window", "dense")
    assert [getattr(reference, f) for f in fields] == [getattr(plan, f) for f in fields]
    for count in (1, plan.window):
        assert reference.degree(count) == plan.degree(count)
    assert all(np.array_equal(getattr(reference.doubled, a), getattr(plan.doubled, a))
               for a in ("indptr", "indices", "data"))


def series_vectors(plan, b, degree):
    """Every vector T_j(X) b of the plan's ``_series``, j = 0..``degree``, stacked."""
    return np.concatenate([chunk.copy() for _, chunk in plan._series(b, degree)])


def test_csr_kernel_adds_the_product_in_place():
    # the compiled kernel the box's power steps call: y += A x over the
    # columns of a C-ordered x and y, A = [[1, 0, 2], [0, 3, 0], [4, 0, 5]]
    indptr, indices = np.array([0, 2, 3, 5]), np.array([0, 2, 1, 0, 2])
    data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    x, y = np.arange(6.0).reshape(3, 2), np.ones((3, 2))
    chebyshev.csr_matvecs(3, 3, 2, indptr.astype(np.int32),
                            indices.astype(np.int32), data, x.ravel(), y.ravel())
    assert np.array_equal(y, [[9.0, 12.0], [7.0, 10.0], [21.0, 30.0]])


def test_csc_kernel_adds_the_product_in_place():
    # the compiled kernel the series calls, on the CSC arrays of the same A
    indptr, indices = np.array([0, 2, 3, 5]), np.array([0, 2, 1, 0, 2])
    data = np.array([1.0, 4.0, 3.0, 2.0, 5.0])
    x, y = np.arange(6.0).reshape(3, 2), np.ones((3, 2))
    chebyshev.csc_matvecs(3, 3, 2, indptr.astype(np.int32),
                          indices.astype(np.int32), data, x.ravel(), y.ravel())
    assert np.array_equal(y, [[9.0, 12.0], [7.0, 10.0], [21.0, 30.0]])


def csr_series(doubled, b, degree):
    """The series' in-place recurrence through ``csr_matvecs`` on CSR ``doubled``."""
    n, columns = doubled.shape[0], b.shape[1]
    vectors = np.zeros((degree + 1, n, columns))
    flat = vectors.reshape(degree + 1, -1)
    vectors[0] = b
    chebyshev.csr_matvecs(n, n, columns, doubled.indptr, doubled.indices,
                          doubled.data, flat[0], flat[1])
    flat[1] *= 0.5
    for j in range(2, degree + 1):
        np.negative(flat[j - 2], out=flat[j])
        chebyshev.csr_matvecs(n, n, columns, doubled.indptr, doubled.indices,
                              doubled.data, flat[j - 1], flat[j])
    return vectors


@PLAN_CASES
def test_series_gives_the_bits_of_the_csr_kernel(params, depth, n_matsubara,
                                                 dt, n_steps):
    # every entry takes its terms in ascending column order in both
    # kernels, so the CSC series is the CSR one bit for bit: on the N x 4
    # state of the windowed frames and on a block of identity columns of
    # the dense step
    plan = chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt), n_steps)
    n, degree = plan.doubled.shape[0], plan.degree(plan.window)
    assert plan.doubled.format == "csc"
    csr = plan.doubled.tocsr()
    for b in (np.eye(n, 4), np.eye(n, chebyshev.COLUMN_BLOCK)):
        assert np.array_equal(series_vectors(plan, b, degree),
                              csr_series(csr, b, degree))


@PLAN_CASES
def test_series_matches_the_dispatching_recurrence(params, depth, n_matsubara,
                                                    dt, n_steps):
    # the kernel's in-place recurrence against T_j = 2 X T_(j-1) - T_(j-2)
    # through scipy's `@`, over the window's degree from the inputs. The
    # two add in another order, and the recurrence carries the rounding
    # of each vector on as the ellipse allows, up to rho^j times it,
    # however far T_j b itself cancels (sweep-5: max |T_j b| 84, the
    # vectors apart by 1.7e-10 at j = 64). The steps weigh T_j b by
    # |a_j(k)|, whose sum with rho^j is the bound M, so vectors within
    # 1e-15 rho^j max |b| of the oracle keep the steps within 1e-15 M;
    # the eleven hierarchies and C7a read at most 1.02e-16 rho^j.
    plan = chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt), n_steps)
    state = np.zeros((plan.doubled.shape[0], 4))
    state[:4] = np.eye(4)
    degree = plan.degree(plan.window)
    ours = series_vectors(plan, state, degree)
    reference = reference_chebyshev_series(plan.doubled, state, degree)
    assert ours.shape == reference.shape
    # j = 0 is a copy and j = 1 an exact halving of the same product
    assert np.array_equal(ours[:2], reference[:2])
    deviation = np.abs(ours - reference).max(axis=(1, 2))
    assert np.all(deviation <= 1e-15 * plan.rho ** np.arange(degree + 1))


def test_series_reads_any_index_width_and_layout():
    # int64 indices, and a b in Fortran order or strided, give the same
    # vectors: the kernel reads and writes flat buffers, so the series
    # must hand it C-contiguous float64 ones
    params, depth, n_matsubara, dt = BENCHMARK_HIERARCHIES[-1]  # cli_pipeline
    plan = chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt), 800)
    state = np.random.default_rng(5).standard_normal((plan.doubled.shape[0], 4))
    expected = series_vectors(plan, state, 40)
    wide = plan.doubled.copy()
    wide.indices, wide.indptr = (a.astype(np.int64) for a in (wide.indices, wide.indptr))
    assert plan.doubled.indices.dtype == np.int32 and wide.indices.dtype == np.int64
    big = np.zeros((state.shape[0], 8))
    big[:, ::2] = state
    for variant, b in [(replace(plan, doubled=wide), state),
                       (plan, np.asfortranarray(state)), (plan, big[:, ::2])]:
        assert np.array_equal(series_vectors(variant, b, 40), expected)
    # the kernel checks no sizes: a b of other rows is refused before it runs
    with pytest.raises(ValueError, match="rows"):
        series_vectors(plan, state[1:], 40)


# The benchmark hierarchies that take windowed frames (C4 and sweep points
# 2-6) and C7a, with the frames they are stepped over.
WINDOWED_CASES = pytest.mark.parametrize("params,depth,n_matsubara,dt,n_steps", [
    *((*point, n_steps) for point, (n_steps, dense)
      in zip(BENCHMARK_HIERARCHIES, BENCHMARK_WAYS) if not dense),
    (C7A, 8, 2, 0.0025, 1600),
], ids=[*(name for name, (_, dense) in zip(BENCHMARK_IDS, BENCHMARK_WAYS)
          if not dense), "c7a"])


@WINDOWED_CASES
def test_window_heads_and_last_step_match_the_full_frames(
        params, depth, n_matsubara, dt, n_steps):
    # over two windows: the physical block of every step and the whole last
    # step against the full frames, whose inner steps keep the guard's
    # certificate max |x_k| <= (1 + sqrt 2) M max_c ||b_c||_2
    gen_dt = pauli_step_generator(params, depth, n_matsubara, dt)
    plan = chebyshev.ChebyshevPlan.of(gen_dt, n_steps)
    assert not plan.dense
    assert plan.window > 1
    bound = plan.bound(plan.window)
    assert bound <= chebyshev.MAX_AMPLIFICATION
    coefficients = plan.coefficients(plan.window)
    state = np.zeros((gen_dt.shape[0], 4))
    state[:4] = np.eye(4)
    for _ in range(2):
        full = plan.apply(state, coefficients)
        heads, last = plan.apply_heads(state, coefficients, 4)
        scale = np.abs(state).max()
        assert np.abs(heads - full[:, :4]).max() <= 1e-15 * scale
        assert np.abs(last - full[-1]).max() <= 1e-15 * scale
        certificate = (1 + np.sqrt(2)) * bound * np.linalg.norm(state, axis=0).max()
        assert np.abs(full).max() <= certificate
        state = last


@WINDOWED_CASES
def test_no_benchmark_window_falls_back_to_full_frames(
        monkeypatch, params, depth, n_matsubara, dt, n_steps):
    # at the default guard the certificate covers every window, so no
    # full-frame series runs
    def spy(self, b, coefficients):
        raise AssertionError("a window fell back to full frames")
    monkeypatch.setattr(chebyshev.ChebyshevPlan, "apply", spy)
    gen_heom(params, HeomConfig(depth=depth, n_matsubara=n_matsubara),
             TimeGrid(dt=dt, n_steps=n_steps))


def test_guard_the_certificate_cannot_cover_recomputes_each_window(monkeypatch):
    # a guard of 100 lies above every entry but below the certificate
    # (1 + sqrt 2) MAX_AMPLIFICATION ||b_c||_2 >= 2472: every window of two
    # or more steps is formed in full, and the frames do not change
    params, cfg = spin_boson(8.0, 5.0, 0.5), HeomConfig(depth=6, n_matsubara=2)
    grid = TimeGrid(dt=0.01, n_steps=40)
    force_way(monkeypatch, False)
    certified = gen_heom(params, cfg, grid)
    calls = []
    full = chebyshev.ChebyshevPlan.apply
    monkeypatch.setattr(chebyshev.ChebyshevPlan, "apply",
                        lambda self, b, c: calls.append(len(c)) or full(self, b, c))
    monkeypatch.setattr(chebyshev, "DIVERGENCE_GUARD", 100.0)
    recomputed = gen_heom(params, cfg, grid)
    window = chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, 6, 2, 0.01), 40).window
    assert 1 < window < 40
    counts = [min(window, 40 - start) for start in range(0, 40, window)]
    assert calls == [count for count in counts if count > 1]
    assert np.array_equal(recomputed.data, certified.data)


@pytest.mark.parametrize("params,depth,n_matsubara,dt,n_steps", [
    (*point, n_steps) for point, (n_steps, _) in zip(BENCHMARK_HIERARCHIES,
                                                     BENCHMARK_WAYS)
], ids=BENCHMARK_IDS)
def test_stepping_matches_the_taylor_oracle_over_the_benchmark_frames(
        heom_run, params, depth, n_matsubara, dt, n_steps):
    # the way gen_heom takes against the Taylor series it was stepped
    # with before, applied to the real Pauli form at every frame
    trajs = heom_run(params, HeomConfig(depth=depth, n_matsubara=n_matsubara),
                     TimeGrid(dt=dt, n_steps=n_steps))
    plan = TaylorPlan.of(pauli_step_generator(params, depth, n_matsubara, dt))
    state = np.zeros((plan.shifted.shape[0], 4))
    state[:4] = np.eye(4)
    pauli = np.empty((n_steps + 1, 4, 4))
    pauli[0] = np.eye(4)
    for k in range(1, n_steps + 1):
        state = plan.apply(state)
        pauli[k] = state[:4]
    taylor = heom_module.PAULI_BASIS @ pauli @ (0.5 * heom_module.PAULI_BASIS.conj().T)
    assert np.abs(trajs.maps - taylor).max() <= 2e-12
    # the trace does not drift: scaling G dt - c as (G dt - c) / h in place
    # of the plan's (2 / h) G dt - 2 (c / h) reads 8.9e-13 at C4
    traces = np.einsum("bkii->bk", trajs.data)
    assert np.abs(traces - traces[:, :1]).max() <= 2e-13


@pytest.mark.parametrize("params,depth,n_matsubara", [
    *[(spin_boson(lam, 1.0, 0.5), depth, 2) for lam, depth in C4_POINTS],
    *SWEEP,
    CLI_PIPELINE,
    (C7A, 8, 2),
    # no coupling: every ladder block is an exact zero and is dropped
    (spin_boson(0.0, 1.0, 0.5), 4, 2),
], ids=[*(f"c4-lam{lam}" for lam, _ in C4_POINTS),
        *(f"sweep-{i}" for i in range(len(SWEEP))),
        "cli-pipeline", "c7a", "lam0"])
def test_generator_is_the_dense_reference_bit_for_bit(params, depth,
                                                      n_matsubara):
    # C4 at lambda = 2 is also the benchmark's extrapolate hierarchy
    args = generator_args(params, depth, n_matsubara)
    gen = heom_module.hierarchy_generator(*args)
    reference = pauli_form(sparse.csr_array(reference_hierarchy_generator(*args)))
    assert gen.format == "csr" and gen.dtype == np.float64
    assert gen.indices.dtype == gen.indptr.dtype == np.int32
    assert np.array_equal(gen.indptr, reference.indptr)
    assert np.array_equal(gen.indices, reference.indices)
    # byte equality pins the last bit of every entry
    assert gen.data.tobytes() == reference.data.tobytes()


@pytest.mark.parametrize("params,depth,n_matsubara", [
    *((params, depth, n) for params, depth, n, _ in BENCHMARK_HIERARCHIES),
    (C7A, 8, 2),
    (spin_boson(0.5, 1.0, 0.5), 0, 2),  # the system alone
    (spin_boson(0.5, 1.0, 0.5), 4, 0),  # the Drude pole alone
    (spin_boson(0.0, 1.0, 0.5), 4, 2),  # every coefficient zero
    (spin_boson(0.5, 1.0, 0.5, coupling_op=SIGMA_X), 4, 2),
    (spin_boson(0.5, 1.0, 0.5), 4, 3),  # four modes
], ids=[*BENCHMARK_IDS, "c7a", "depth0", "matsubara0", "lam0", "sigma-x",
        "four-modes"])
def test_generator_is_the_batched_oracle_bit_for_bit(params, depth, n_matsubara):
    # each distinct block formed once and placed by its neighbours' keys,
    # against one congruence per auxiliary pair placed by a COO build
    args = generator_args(params, depth, n_matsubara)
    gen = heom_module.hierarchy_generator(*args)
    oracle = reference_batched_generator(*args)
    assert gen.indptr.dtype == gen.indices.dtype == np.int32
    for part in ("indptr", "indices", "data"):
        assert getattr(gen, part).tobytes() == getattr(oracle, part).tobytes(), part


def test_generator_build_never_forms_the_dense_matrix():
    # C4's strong-coupling hierarchy, N = 1820: the dense N x N array
    # alone is 53 MB
    args = generator_args(spin_boson(2.0, 1.0, 0.5), 12, 2)
    tracemalloc.start()
    try:
        heom_module.hierarchy_generator(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("workload,index,point", [
    *(("heom_sweep", i, point) for i, point in enumerate(SWEEP)),
    ("cli_pipeline", None, CLI_PIPELINE),
], ids=[*(f"sweep-{i}" for i in range(len(SWEEP))), "cli-pipeline"])
def test_sparse_solve_reproduces_the_stored_steady_states(workload, index,
                                                          point):
    # the stationary state of each hierarchy, as the benchmark's stored
    # reference defines it: the null vector of the real generator with
    # the row of the physical I coordinate replaced by the unit-trace
    # condition 2 x_0 = 1, mapped back from the Pauli basis
    gen = heom_module.hierarchy_generator(*generator_args(*point)).tolil()
    rhs = np.zeros(gen.shape[0])
    gen[0, :] = 0.0
    gen[0, 0], rhs[0] = 2.0, 1.0
    x = spsolve(gen.tocsc(), rhs)
    rho = (heom_module.PAULI_BASIS @ x[:4]).reshape(2, 2)
    stored = json.loads(REFERENCE.read_text())[workload]["steady_state"]
    if index is not None:
        stored = stored[index]
    stored = np.asarray(stored)
    assert np.abs(rho - (stored[..., 0] + 1j * stored[..., 1])).max() <= 1e-12


@pytest.mark.parametrize("workload,index,point,dt", [
    *(("heom_sweep", i, point, 0.01) for i, point in enumerate(SWEEP)
      if i in (0, 1, 2, 7, 8)),
    ("cli_pipeline", None, CLI_PIPELINE, 0.05),
], ids=[*(f"sweep-{i}" for i in (0, 1, 2, 7, 8)), "cli-pipeline"])
def test_summed_projected_tensors_fix_the_stored_steady_states(workload, index,
                                                               point, dt):
    # the exact sum of every transfer tensor, sum_k P U (Q U)^(k-1) P =
    # P U (1 - Q U)^-1 P, has the hierarchy's stationary state as its
    # fixed point (the N <= 480 hierarchies of the benchmark)
    step = expm(sparse_step_generator(*point, dt).toarray())
    returns = step.copy()
    returns[:4] = 0.0  # Q U
    first = np.linalg.solve(np.eye(len(step)) - returns, np.eye(len(step), 4))
    total = (step @ first)[:4]
    w, v = np.linalg.eig(total)
    rho = v[:, np.argmin(np.abs(w - 1.0))].reshape(2, 2)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    stored = json.loads(REFERENCE.read_text())[workload]["steady_state"]
    if index is not None:
        stored = stored[index]
    stored = np.asarray(stored)
    assert np.abs(rho - (stored[..., 0] + 1j * stored[..., 1])).max() <= 1e-10


@pytest.mark.parametrize("n_modes", range(6))
def test_multi_indices_match_brute_force_filter(n_modes):
    # the oracle's auxiliary order, which the bit-for-bit generator test
    # pins the library to
    for depth in range(9):
        brute = sorted(idx for idx in product(range(depth + 1), repeat=n_modes)
                       if sum(idx) <= depth)
        assert _multi_indices(n_modes, depth) == brute


@pytest.mark.parametrize("dense,dt,substeps", [
    (True, 0.1, 1), (False, 0.1, 1), (True, 4.0, 2), (False, 4.0, 2),
], ids=["dense", "frames", "dense-coarse", "frames-coarse"])
def test_divergence_guard_reports_step(monkeypatch, dense, dt, substeps):
    # the guard itself is exercised by lowering the threshold below the
    # physical entry scale, which every healthy run exceeds immediately;
    # a coarse step is split into substeps, and the guard names the first
    # step of the finer grid stepped (dt = 4 plans 2 substeps; the polygon
    # keeps dt = 3 to one)
    monkeypatch.setattr(chebyshev, "DIVERGENCE_GUARD", 1e-3)
    force_way(monkeypatch, dense)
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                             beta=0.5)
    assert chebyshev.ChebyshevPlan.of(
        pauli_step_generator(params, 2, 1, dt), 10).substeps == substeps
    with pytest.raises(DivergenceError) as info:
        gen_heom(params, HeomConfig(depth=2, n_matsubara=1),
                 TimeGrid(dt=dt, n_steps=10))
    assert info.value.step == 1
    assert info.value.time == pytest.approx(dt / substeps)


def test_divergence_mid_window_names_the_first_frame_over_the_guard(
        monkeypatch):
    # stiff, like the top C6 point: the peak entry of the state first
    # rises above 1 (the conserved I coordinate) at a frame inside the
    # second window; the guard between that peak and every earlier one
    # must name that frame, not the window's end
    params = spin_boson(8.0, 5.0, 0.5)
    gen_dt = pauli_step_generator(params, 6, 2, 0.01)
    window = chebyshev.ChebyshevPlan.of(gen_dt, 20).window
    step = expm(gen_dt.toarray())
    state = np.zeros((gen_dt.shape[0], 4))
    state[:4] = np.eye(4)
    peaks = []
    for _ in range(20):
        state = step @ state
        peaks.append(np.abs(state).max())
    first = next(k for k in range(2, 21) if peaks[k - 1] > max(peaks[:k - 1]) + 1e-3)
    assert first % window != 0
    monkeypatch.setattr(chebyshev, "DIVERGENCE_GUARD",
                        0.5 * (max(peaks[:first - 1]) + peaks[first - 1]))
    force_way(monkeypatch, False)
    with pytest.raises(DivergenceError) as info:
        gen_heom(params, HeomConfig(depth=6, n_matsubara=2),
                 TimeGrid(dt=0.01, n_steps=20))
    assert info.value.step == first
    assert info.value.time == pytest.approx(first * 0.01)


@pytest.mark.parametrize("kwargs", [
    {"depth": -1, "n_matsubara": 0},
    {"depth": 2, "n_matsubara": -1},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        HeomConfig(**kwargs)


def imported_modules(module):
    """Every module a module's import statements name, relative ones resolved."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [
                module.__package__ if node.level else None, node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_integrator_knows_no_model_and_heom_no_integrator():
    # chebyshev steps any real sparse generator; heom only builds the
    # hierarchy and keeps none of the integrator's names or kernels
    assert not imported_modules(chebyshev) & {
        f"ttmkit.{name}" for name in ("heom", "models", "liouville",
                                      "trajectories", "generators")}
    heom_imports = imported_modules(heom_module)
    assert "ttmkit.chebyshev" in heom_imports
    assert not {"scipy.sparse._sparsetools", "scipy.special"} & heom_imports
    for name in ("ChebyshevPlan", "_polygon", "_csr_binop", "_step_work",
                 "_dense_step", "DIVERGENCE_GUARD", "MAX_AMPLIFICATION"):
        assert not hasattr(heom_module, name)
