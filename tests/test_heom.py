"""Hierarchy integrator checks against closed-form limits."""

import json
import logging
import re
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve

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
from ttmkit import heom as heom_module
from ttmkit.liouville import SIGMA_X, superop_norm
from ttmkit.models import bath_correlation_modes, matsubara_tail

from oracles import (
    _multi_indices,
    pauli_form,
    projected_tensors,
    reference_gen_heom,
    reference_hierarchy_generator,
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


# Each hierarchy names the way gen_heom takes for it, so both ways are
# checked against the exact exponential.
STEPPING_CASES = pytest.mark.parametrize(
    "lam,gamma,dt,n_steps,depth,n_matsubara,dense", [
        (0.1, 1.0, 0.1, 20, 3, 1, True),
        (2.0, 1.0, 0.05, 40, 6, 2, True),  # stiff, like C4 (N = 336)
        (8.0, 5.0, 0.01, 40, 6, 2, True),  # stiff, like the top C6 point
        (2.0, 1.0, 0.05, 10, 6, 2, False),  # too few frames to form the step
        (8.0, 5.0, 0.01, 10, 6, 2, False),
    ], ids=["weak", "stiff-c4", "stiff-c6", "stiff-c4-short", "stiff-c6-short"])


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
    plan = heom_module.TaylorPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt))
    assert heom_module._prefers_dense_step(plan, n_steps) == dense
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
    monkeypatch.setattr(heom_module, "_prefers_dense_step",
                        lambda plan, n_steps: dense)
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
    step = heom_module._dense_step(heom_module.TaylorPlan.of(gen_dt))
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
def test_peeled_tensors_match_the_projected_hierarchy(params, depth, dt, n):
    # the peel of the hierarchy's maps is the Nakajima-Zwanzig form
    # T_k = P U (Q U)^(k-1) P of the same step, to rounding
    trajs = gen_heom(params, HeomConfig(depth=depth, n_matsubara=2),
                     TimeGrid(dt=dt, n_steps=n))
    peeled = maps_to_tensors(extract_maps(trajs)).tensors
    plan = heom_module.TaylorPlan.of(sparse_step_generator(params, depth, 2, dt))
    assert np.abs(peeled - projected_tensors(plan, n)).max() <= 1e-13


def test_exact_tail_beyond_the_learned_window_peaks_at_its_first_tensor():
    # the premise of C4 and C8: the memory cut at K = 100 frames discards
    # no exact tensor larger than truncation_error's ||T_101|| (measured
    # 1.51e-6, 1.67e-6, 6.23e-6 and 1.24e-5 at T_101), which is itself
    # below the last learned ||T_100||
    for lam, depth in C4_POINTS:
        plan = heom_module.TaylorPlan.of(
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
    plan = heom_module.TaylorPlan.of(sparse.csr_array(np.diag(diagonal)))
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
# runs, dense against Taylor frames (ms, minimum of 3, one Xeon vCPU, one
# BLAS thread): sweep-0 9.6/53.3, sweep-1 13.5/65.6, sweep-2 49.8/113,
# sweep-3 283/143, sweep-4 1658/334, sweep-5 1760/184, sweep-6 131/116,
# sweep-7 9.0/66.8, sweep-8 11.6/89.1, cli_pipeline 19.6/322; the rule
# takes the faster way at each.
BENCHMARK_WAYS = [(1000, False)] + [(200, i in (0, 1, 2, 7, 8))
                                    for i in range(len(SWEEP))] + [(800, True)]


@pytest.mark.parametrize("params,depth,n_matsubara,dt,n_steps,dense", [
    (*point, *way) for point, way in zip(BENCHMARK_HIERARCHIES, BENCHMARK_WAYS)
], ids=BENCHMARK_IDS)
def test_cost_rule_picks_the_way(params, depth, n_matsubara, dt, n_steps,
                                 dense):
    plan = heom_module.TaylorPlan.of(
        pauli_step_generator(params, depth, n_matsubara, dt))
    assert heom_module._prefers_dense_step(plan, n_steps) == dense


def test_generation_ignores_the_global_random_state():
    # the Taylor plan takes the exact 1-norm and draws no random numbers,
    # so reruns of `ttm generate` are byte-identical whatever the global
    # generator's state
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
    nnz = pauli_step_generator(params, 3, 1, 0.1).nnz
    assert nnz < sparse_step_generator(params, 3, 1, 0.1).nnz
    # C(3 + 2, 2) = 10 ADOs of 2 x 2 blocks; a small hierarchy forms the
    # dense step from ceil(40 / COLUMN_BLOCK) = 1 block of columns
    match = re.fullmatch(
        rf"hierarchy: 40 rows \(10 ADOs\), {nnz} nonzeros in the real Pauli "
        r"form; dense step, Taylor "
        r"degree (\d+), (\d+) substeps, 1-norm (\S+), (\d+) sparse products; "
        r"set up in (\S+) s, 10 steps in (\S+) s, peak auxiliary entry (\S+)",
        record.getMessage())
    assert match, record.getMessage()
    degree, substeps, products = int(match[1]), int(match[2]), int(match[4])
    assert products == degree * substeps > 0 and float(match[3]) > 0
    set_up_s, step_s, peak = map(float, match.groups()[4:])
    assert set_up_s >= 0 and step_s >= 0 and peak >= 1.0


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


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "frames"])
def test_divergence_guard_reports_step(monkeypatch, dense):
    # the guard itself is exercised by lowering the threshold below the
    # physical entry scale, which every healthy run exceeds immediately
    monkeypatch.setattr(heom_module, "DIVERGENCE_GUARD", 1e-3)
    monkeypatch.setattr(heom_module, "_prefers_dense_step",
                        lambda plan, n_steps: dense)
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
