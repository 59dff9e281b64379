"""End-to-end acceptance suite.

Each check prints one `[C<n>] PASS/FAIL` line with its measured numbers
and then asserts the same verdict, so a verbose run doubles as the
acceptance report. The heavy hierarchy runs share module-scoped
fixtures; everything is deterministic (fixed seeds, no sampling).
"""

import base64
import json
import time

import numpy as np
import pytest

from oracles import second_order_kernel_series

from ttmkit import (
    BasisTrajectorySet,
    HeomConfig,
    SpinBosonParams,
    TimeGrid,
    TransferTensorSequence,
    canonical_state,
    detect_equilibrium,
    extract_kernel,
    extract_liouvillian,
    extract_maps,
    gen_dephasing_analytic,
    gen_heom,
    gen_lindblad,
    gen_unitary,
    kernel_element_series,
    kernel_to_tensors,
    maps_to_tensors,
    markovianity_profile,
    noncanonical_angle,
    oscillation_metrics,
    propagate,
    save_tensors,
    stationary_state,
    tensors_to_maps,
    tls_hamiltonian,
)
from ttmkit.liouville import SIGMA_X, SIGMA_Z, liouvillian_superop


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} {detail}"


def test_criterion_01_memoryless_generators_have_no_tail():
    """Closed and Lindblad evolutions leave nothing beyond T_1."""
    grid = TimeGrid(dt=0.05, n_steps=50)
    h = tls_hamiltonian(1.0, 0.4)

    t0 = time.perf_counter()
    uni = markovianity_profile(maps_to_tensors(extract_maps(gen_unitary(h, grid))))
    t_uni = time.perf_counter() - t0

    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t0 = time.perf_counter()
    lin = markovianity_profile(maps_to_tensors(extract_maps(
        gen_lindblad(h, [sm, SIGMA_Z], [0.2, 0.1], grid))))
    t_lin = time.perf_counter() - t0

    worst = max(uni[1:].max(), lin[1:].max())
    ok = worst < 1e-8 and t_uni < 1.0 and t_lin < 1.0
    _verdict("C1", ok,
             f"tail norms max {worst:.2e} (bound 1e-8), "
             f"runtimes {t_uni:.2f}s/{t_lin:.2f}s (bound 1s)")


def test_criterion_02_single_tensor_reproduces_rabi_oscillation():
    """A one-tensor memory continues e^(-i*sx*t) exactly."""
    dt = 0.01
    t0 = time.perf_counter()
    trajs = gen_unitary(SIGMA_X, TimeGrid(dt=dt, n_steps=5))
    tensors = maps_to_tensors(extract_maps(trajs)).truncated(1)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    frames = propagate(tensors, 1, rho0, 1000)
    elapsed = time.perf_counter() - t0
    expected = np.cos(dt * np.arange(1001)) ** 2
    err = np.abs(frames[:, 0, 0].real - expected).max()
    ok = err < 1e-6 and elapsed < 1.0
    _verdict("C2", ok,
             f"population error {err:.2e} over 1000 steps "
             f"(bound 1e-6), runtime {elapsed:.2f}s (bound 1s)")


def test_criterion_03_decompositions_invert_exactly():
    """Map<->tensor and tensor<->kernel round trips at 1e-10."""
    worst_maps = 0.0
    worst_kernel = 0.0
    for dim in (2, 3):
        d2 = dim * dim
        for seed in range(20):
            rng = np.random.default_rng(seed + 100 * dim)
            maps = np.empty((9, d2, d2), dtype=complex)
            maps[0] = np.eye(d2)
            maps[1:] = np.eye(d2) + 0.1 * (
                rng.standard_normal((8, d2, d2))
                + 1j * rng.standard_normal((8, d2, d2)))
            seq = BasisTrajectorySet.from_maps(TimeGrid(dt=0.1, n_steps=8),
                                               maps)
            tensors = maps_to_tensors(seq)
            back = tensors_to_maps(tensors)
            worst_maps = max(worst_maps, np.abs(back.maps - seq.maps).max())
            fit = extract_liouvillian(tensors.tensors[0], seq.grid.dt)
            liou = liouvillian_superop(fit.hamiltonian)
            kernel = extract_kernel(tensors, liou)
            again = kernel_to_tensors(kernel)
            worst_kernel = max(
                worst_kernel, np.abs(again.tensors - tensors.tensors).max())
    ok = worst_maps < 1e-10 and worst_kernel < 1e-10
    _verdict("C3", ok,
             f"20 seeds, dims 2 and 3: map round trip {worst_maps:.2e}, "
             f"kernel round trip {worst_kernel:.2e} (bound 1e-10)")


BENCH_GRID = TimeGrid(dt=0.05, n_steps=1000)
BENCH_LEARN = 100
BENCH_CASES = [(0.01, 4), (0.1, 6), (0.5, 8), (2.0, 12)]


@pytest.fixture(scope="module")
def bench_grid(heom_run):
    """Hierarchy benchmark at four coupling strengths.

    Learns tensors on the first tenth of each trajectory and measures
    extrapolation error over the full window for several cutoffs.
    """
    results = {}
    for lam, depth in BENCH_CASES:
        params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam,
                                 gamma=1.0, beta=0.5)
        ref = heom_run(params, HeomConfig(depth=depth, n_matsubara=2),
                       BENCH_GRID)
        window = BasisTrajectorySet(
            dim=2, grid=TimeGrid(dt=BENCH_GRID.dt, n_steps=BENCH_LEARN),
            data=ref.data[:, :BENCH_LEARN + 1].copy())
        tensors = maps_to_tensors(extract_maps(window))
        errs = {}
        for k in (30, 35, 60, 65, 100):
            worst = 0.0
            for col in range(4):
                frames = propagate(tensors.truncated(k), k,
                                   ref.data[col, :k + 1], BENCH_GRID.n_steps)
                worst = max(worst, np.abs(frames - ref.data[col]).max())
            errs[k] = worst
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        frames = propagate(tensors, BENCH_LEARN, rho0, BENCH_GRID.n_steps)
        met = oscillation_metrics(frames[:, 0, 0].real, dt=BENCH_GRID.dt)
        results[lam] = {"errs": errs, "signs": met.sign_changes}
    return results


def test_criterion_04_extrapolation_error_across_couplings(bench_grid):
    """Tenfold extrapolation stays below 5e-3 from weak to strong coupling."""
    errs = {lam: bench_grid[lam]["errs"][100] for lam, _ in BENCH_CASES}
    worst = max(errs.values())
    detail = ", ".join(f"lam={lam}: {e:.2e}" for lam, e in errs.items())
    _verdict("C4", worst <= 5e-3, f"{detail} (bound 5e-3)")


def test_criterion_05_oscillation_counts_track_coupling(bench_grid):
    """Weak coupling rings, strong coupling is overdamped."""
    weak = bench_grid[0.01]["signs"]
    strong = bench_grid[2.0]["signs"]
    ok = weak >= 3 and strong <= 1
    _verdict("C5", ok,
             f"population crossings: {weak} at lam=0.01 (need >=3), "
             f"{strong} at lam=2.0 (need <=1)")


C6_LAMBDAS = [(0.05, 4), (0.2, 5), (1.0, 7), (3.0, 9), (8.0, 12)]
C6_BETAS = [(1.0, 3), (0.5, 2), (0.25, 1), (0.125, 1)]


def _equilibrium_angle(heom_run, lam, beta, depth, nmats):
    """Fixed point of the learned memory recursion vs the Boltzmann state.

    The stationary state solves rho = sum_s T_s rho; propagating to
    stationarity gives the same state but takes ~10^5 steps in the slow
    strong-coupling regimes.
    """
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam, gamma=5.0,
                             beta=beta, coupling_op=SIGMA_Z)
    trajs = heom_run(params, HeomConfig(depth=depth, n_matsubara=nmats),
                     TimeGrid(dt=0.01, n_steps=200))
    rho = stationary_state(maps_to_tensors(extract_maps(trajs)))
    h = tls_hamiltonian(1.0, 1.0)
    return noncanonical_angle(rho, canonical_state(h, beta)).theta


def test_criterion_06_equilibrium_angle_trends(heom_run):
    """Deviation angle grows with coupling and shrinks with temperature."""
    up = [_equilibrium_angle(heom_run, lam, 0.5, d, 2) for lam, d in C6_LAMBDAS]
    lam_monotone = all(b >= a for a, b in zip(up, up[1:]))
    plateau = up[-1] / (np.pi / 4)
    down = [_equilibrium_angle(heom_run, 1.0, beta, 8, nm) for beta, nm in C6_BETAS]
    t_monotone = all(b <= a for a, b in zip(down, down[1:]))
    ok = lam_monotone and abs(plateau - 1.0) <= 0.15 and t_monotone
    _verdict(
        "C6", ok,
        "coupling sweep "
        + "->".join(f"{t:.4f}" for t in up)
        + f" ({'non' if not lam_monotone else ''}monotone), top point at "
        f"{plateau:.2%} of pi/4 (need 85-115%), temperature sweep "
        + "->".join(f"{t:.4f}" for t in down)
        + f" ({'non' if not t_monotone else ''}monotone)")


def test_criterion_07a_kernel_symmetries_at_strong_coupling(heom_run):
    """Pairwise symmetries of the extracted memory kernel elements.

    Trace preservation ties the population-target rows together and
    hermiticity preservation ties the two coherence transfers; those
    hold at machine precision. The two sign relations also involve the
    contact slice K_1, which carries the lambda-independent step
    curvature -L^2/2, so they cannot reach the same floor.
    """
    dt = 0.0025
    h = tls_hamiltonian(1.0, 0.0)
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=0.25,
                             gamma=0.05, beta=4.79, coupling_op=SIGMA_X)
    trajs = heom_run(params, HeomConfig(depth=8, n_matsubara=2),
                     TimeGrid(dt=dt, n_steps=1600))
    tensors = maps_to_tensors(extract_maps(trajs))
    liou = liouvillian_superop(h)
    kernel = extract_kernel(tensors, liou)

    def series(src, tgt):
        return kernel_element_series(kernel, src, tgt)[1].real

    relations = [
        ("K11->11=-K11->22", series((0, 0), (0, 0)), series((0, 0), (1, 1)), -1),
        ("K22->22=-K22->11", series((1, 1), (1, 1)), series((1, 1), (0, 0)), -1),
        ("K12->21=-K21->21", series((0, 1), (1, 0)), series((1, 0), (1, 0)), -1),
        ("K12->21=-K12->12", series((0, 1), (1, 0)), series((0, 1), (0, 1)), -1),
        ("K12->21=+K21->12", series((0, 1), (1, 0)), series((1, 0), (0, 1)), +1),
    ]
    devs = {}
    for name, a, b, sign in relations:
        devs[name] = np.abs(a - sign * b).max() / max(
            np.abs(a).max(), np.abs(b).max())
    worst = max(devs.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in devs.items())
    _verdict("C7a", worst < 1e-6, f"{detail} (bound 1e-6)")


def test_criterion_07b_weak_coupling_kernel_matches_quadrature():
    """Extracted kernel agrees with the second-order cell integral."""
    dt = 0.025
    n_steps = 320
    lam, gamma, beta = 0.05, 1.0, 4.79
    h = tls_hamiltonian(1.0, 0.0)
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=lam, gamma=gamma,
                             beta=beta, coupling_op=SIGMA_X)
    trajs = gen_heom(params, HeomConfig(depth=6, n_matsubara=4),
                     TimeGrid(dt=dt, n_steps=n_steps))
    tensors = maps_to_tensors(extract_maps(trajs))
    liou = liouvillian_superop(h)
    kernel = extract_kernel(tensors, liou)

    n_compare = 120
    oracle = second_order_kernel_series(n_compare, dt, h, SIGMA_X, lam, gamma,
                                        beta, n_matsubara=4)
    measured = kernel.kernels[1:n_compare]
    peak = np.abs(oracle).max()
    mask = np.abs(oracle) >= 0.2 * peak
    rel = (np.abs(measured - oracle)[mask] / np.abs(oracle)[mask]).max()
    _verdict("C7b", rel < 0.10,
             f"dominant-element relative deviation {rel:.2%} over "
             f"s=2..{n_compare} (bound 10%)")


def test_criterion_08_longer_memory_never_hurts(bench_grid):
    """Error at cutoff K+5 does not exceed error at K."""
    rows = []
    ok = True
    for lam, _ in BENCH_CASES:
        errs = bench_grid[lam]["errs"]
        ok = ok and errs[35] <= errs[30] and errs[65] <= errs[60]
        rows.append(f"lam={lam}: {errs[30]:.1e}->{errs[35]:.1e}, "
                    f"{errs[60]:.1e}->{errs[65]:.1e}")
    _verdict("C8", ok, "; ".join(rows))


def test_criterion_09_stored_payload_scales_as_k_d4(tmp_path):
    """Serialized tensor payload holds exactly K*D^4 complex entries."""
    rng = np.random.default_rng(7)
    counts = {}
    ok = True
    for k, dim in [(5, 2), (10, 2), (5, 3)]:
        d2 = dim * dim
        seq = TransferTensorSequence(
            dim=dim, dt=0.1,
            tensors=rng.standard_normal((k, d2, d2))
            + 1j * rng.standard_normal((k, d2, d2)))
        path = tmp_path / f"tensors_{k}_{dim}.json"
        save_tensors(path, seq, profile=markovianity_profile(seq))
        doc = json.loads(path.read_text())
        # one base64 string of 16 bytes (little-endian complex128) per entry
        payload = base64.b64decode(doc["tensors"], validate=True)
        counts[(k, dim)] = len(payload) // 16
        ok = ok and len(payload) % 16 == 0
        ok = ok and len(payload) // 16 == k * dim ** 4
    detail = ", ".join(f"K={k},D={d}: {n} entries (want {k * d ** 4})"
                       for (k, d), n in counts.items())
    _verdict("C9", ok, detail)


def test_criterion_10_dephasing_extrapolates_tenfold():
    """Pure-dephasing tensors hold 1e-4 accuracy far beyond the window."""
    dt = 0.05
    learn, total = 100, 1000
    params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=0.1, gamma=1.0,
                             beta=1.0, coupling_op=SIGMA_Z)
    ref = gen_dephasing_analytic(params, TimeGrid(dt=dt, n_steps=total))
    window = BasisTrajectorySet(dim=2, grid=TimeGrid(dt=dt, n_steps=learn),
                                data=ref.data[:, :learn + 1].copy())
    tensors = maps_to_tensors(extract_maps(window))
    worst = 0.0
    for col in range(4):
        frames = propagate(tensors, learn, ref.data[col, :learn + 1], total)
        worst = max(worst, np.abs(frames - ref.data[col]).max())
    _verdict("C10", worst < 1e-4,
             f"deviation {worst:.2e} at ten windows (bound 1e-4)")
