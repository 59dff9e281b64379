"""The benchmark's workloads: what each one runs and how its outputs are checked.

Each workload is a frozen config with three steps:

* ``prepare(seed, workdir)`` builds the inputs (the seed picks only the
  random initial states, never a problem size);
* ``run(inputs, tracer)`` is the timed part and calls ttmkit through
  module attributes (``heom.gen_heom``, ``tensors.propagate``,
  ``cli.main``), which is where the traced run's hooks sit;
* ``check(inputs, outputs, checker)`` runs untimed and records one
  operation per checked output.

The default field values are the benchmark sizes; ``tiny()`` gives a
seconds-scale version of the same call path for warm-up and tests.
"""

import contextlib
import dataclasses
import json
import math
import os

import numpy as np

from ttmkit import analysis, cli, heom, maps, tensors
from ttmkit.liouville import devectorize
from ttmkit.models import SpinBosonParams, tls_hamiltonian
from ttmkit.trajectories import BasisTrajectorySet, TimeGrid

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
C4_BOUND = 5e-3  # acceptance bound on extrap_err (criterion C4)
SEED_TOL = 1e-8  # allowed distance from a stored seed-code value
TRACE_TOL = 1e-8


class Checker:
    """Counts checked operations; a failed check is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")


def load_reference(workload):
    with open(REFERENCE) as handle:
        return json.load(handle)[workload]


def random_state(seed, dim=2):
    """Seeded random density matrix G G^+ / tr, G complex Ginibre."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def decode(obj):
    """Complex array from nested [re, im] pairs (the ttmkit JSON layout)."""
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def max_abs(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@dataclasses.dataclass(frozen=True)
class Extrapolate:
    """C4 strong-coupling point: learn on 100 frames, extrapolate 1000."""

    depth: int = 12
    n_steps: int = 1000
    # Fixed for every size (class constants, not fields).
    dt = 0.05
    learn = 100
    cutoffs = (30, 35, 60, 65, 100)
    max_crossings = 1  # C5: the lambda = 2 population is overdamped

    def tiny(self):
        return dataclasses.replace(self, depth=4, n_steps=200)

    def prepare(self, seed, workdir):
        return {"rho": random_state(seed)}

    def run(self, inputs, tracer):
        params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=2.0,
                                 gamma=1.0, beta=0.5)
        ref = heom.gen_heom(params,
                            heom.HeomConfig(depth=self.depth, n_matsubara=2),
                            TimeGrid(dt=self.dt, n_steps=self.n_steps))
        window = BasisTrajectorySet(
            dim=2, grid=TimeGrid(dt=self.dt, n_steps=self.learn),
            data=ref.data[:, :self.learn + 1].copy())
        learned = maps.extract_maps(window)
        report = maps.validate_maps(learned)
        full = tensors.maps_to_tensors(learned)
        # The random state's exact trajectory is the same linear
        # combination of the basis trajectories as the state itself.
        exact = {col: ref.data[col] for col in range(4)}
        exact["random"] = np.einsum("a,aktu->ktu", inputs["rho"].reshape(-1),
                                    ref.data)
        frames = {}
        for k in self.cutoffs:
            truncated = full.truncated(k)
            for key, traj in exact.items():
                frames[k, key] = tensors.propagate(truncated, k, traj[:k + 1],
                                                   self.n_steps)
        population = frames[self.cutoffs[-1], 0][:, 0, 0].real
        osc = analysis.oscillation_metrics(population, dt=self.dt)
        return {"ref": ref, "report": report, "maps": learned, "full": full,
                "exact": exact, "frames": frames, "osc": osc}

    def check(self, inputs, out, checker):
        ref = out["ref"].data
        traces = np.einsum("aktt->ak", ref)
        expected = np.eye(2).reshape(-1)[:, None]
        checker.check("gen_heom trace", bool(np.isfinite(ref).all())
                      and max_abs(traces, expected) <= TRACE_TOL,
                      f"trace defect {max_abs(traces, expected):.3g}")
        tr, herm, _ = out["report"].worst()
        checker.check("validate_maps", tr <= TRACE_TOL and herm <= TRACE_TOL,
                      f"trace defect {tr:.3g}, hermiticity defect {herm:.3g}")
        full = out["full"]
        checker.check("maps_to_tensors", len(full) == self.learn
                      and max_abs(full.tensors[0], out["maps"].maps[1]) == 0.0,
                      f"{len(full)} tensors, T_1 != E_1")
        errs = {}
        for (k, key), frames in out["frames"].items():
            exact = out["exact"][key]
            drift = max_abs(np.einsum("ktt->k", frames),
                            np.trace(exact[0]))
            ok = frames.shape == exact.shape and bool(np.isfinite(frames).all())
            checker.check(f"propagate K={k} seed={key}", ok and drift <= 1e-6,
                          f"trace drift {drift:.3g}")
            errs[k, key] = max_abs(frames, exact) if ok else math.inf
        top = self.cutoffs[-1]
        worst = {k: max(errs[k, col] for col in range(4)) for k in self.cutoffs}
        checker.check("extrap_err (C4)", worst[top] <= C4_BOUND,
                      f"{worst[top]:.3g} > {C4_BOUND}")
        checker.check("random state (C4 bound)",
                      errs[top, "random"] <= C4_BOUND,
                      f"{errs[top, 'random']:.3g} > {C4_BOUND}")
        for a, b in zip(self.cutoffs[::2], self.cutoffs[1::2]):
            checker.check(f"C8 K={a}->{b}", worst[b] <= worst[a],
                          f"{worst[a]:.3g} -> {worst[b]:.3g}")
        checker.check("oscillation_metrics (C5)",
                      out["osc"].sign_changes <= self.max_crossings,
                      f"{out['osc'].sign_changes} crossings")
        return worst[top]


C6_LAMBDAS = ((0.05, 4), (0.2, 5), (1.0, 7), (3.0, 9), (8.0, 12))
C6_BETAS = ((1.0, 3), (0.5, 2), (0.25, 1), (0.125, 1))


def fixed_point_state(full):
    """Stationary state of the learned recursion, as criterion C6 reads it.

    rho = sum_s T_s rho, so rho is the unit-eigenvalue eigenvector of the
    summed tensors, normalised and made Hermitian.
    """
    w, v = np.linalg.eig(full.tensors.sum(axis=0))
    rho = devectorize(v[:, np.argmin(np.abs(w - 1.0))])
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


@dataclasses.dataclass(frozen=True)
class HeomSweep:
    """C6 coupling and temperature sweeps: many hierarchy sizes, few frames.

    Points are (lambda, beta, depth, Matsubara modes); the first
    ``n_coupling`` form the coupling sweep, the rest the temperature sweep.
    """

    points: tuple = (
        tuple((lam, 0.5, depth, 2) for lam, depth in C6_LAMBDAS)
        + tuple((1.0, beta, 8, n) for beta, n in C6_BETAS)
    )
    n_coupling: int = len(C6_LAMBDAS)
    n_steps: int = 200
    use_reference: bool = True
    gamma = 5.0  # fixed for every size
    dt = 0.01

    def tiny(self):
        return dataclasses.replace(
            self, points=((0.05, 0.5, 3, 2), (0.2, 0.5, 4, 2),
                          (1.0, 1.0, 3, 1), (1.0, 0.5, 3, 1)),
            n_coupling=2, n_steps=40, use_reference=False)

    def prepare(self, seed, workdir):
        return {"reference": load_reference("heom_sweep")
                if self.use_reference else None}

    def run(self, inputs, tracer):
        h = tls_hamiltonian(1.0, 1.0)
        rows = []
        for lam, beta, depth, n_mats in self.points:
            params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam,
                                     gamma=self.gamma, beta=beta)
            trajs = heom.gen_heom(params,
                                  heom.HeomConfig(depth=depth,
                                                  n_matsubara=n_mats),
                                  TimeGrid(dt=self.dt, n_steps=self.n_steps))
            full = tensors.maps_to_tensors(maps.extract_maps(trajs))
            rho = fixed_point_state(full)
            theta = analysis.noncanonical_angle(
                rho, analysis.canonical_state(h, beta)).theta
            rows.append((theta, rho))
        return rows

    def check(self, inputs, rows, checker):
        thetas = [theta for theta, _ in rows]
        ref = inputs["reference"]
        for i, (point, theta) in enumerate(zip(self.points, thetas)):
            ok = math.isfinite(theta)
            detail = f"theta {theta!r}"
            if ref is not None:
                seed_theta = ref["theta"][i]
                ok = ok and abs(theta - seed_theta) <= SEED_TOL
                detail += f", seed value {seed_theta!r}"
            checker.check(f"angle at {point}", ok, detail)
        up, down = thetas[:self.n_coupling], thetas[self.n_coupling:]
        checker.check("C6 coupling trend", all(b >= a for a, b in zip(up, up[1:])),
                      " -> ".join(f"{t:.4f}" for t in up))
        checker.check("C6 temperature trend",
                      all(b <= a for a, b in zip(down, down[1:])),
                      " -> ".join(f"{t:.4f}" for t in down))
        if ref is None:
            return float("nan")
        err = max(max_abs(rho, decode(exact))
                  for (_, rho), exact in zip(rows, ref["steady_state"]))
        checker.check("extrap_err (stationary state)", err <= C4_BOUND,
                      f"{err:.3g} > {C4_BOUND}")
        return err


@dataclasses.dataclass(frozen=True)
class CliPipeline:
    """The five ``ttm`` stages of demos/cli_pipeline.sh, in process.

    An 800-step learning window (half of criterion C7a's) and a 4000-step
    extrapolation keep one run near 2.5 s, so a measurement holds about
    ten runs and their median is steady on a noisy host. The
    hierarchy is small: depth 5 with the CLI's default two Matsubara
    modes gives N = 224 rows.
    """

    learn_steps: int = 800
    steps: int = 4000
    depth: int = 5
    cutoff: tuple = ("--cutoff-tol", "1e-6")
    expected_k: int = 133
    use_reference: bool = True

    def tiny(self):
        return dataclasses.replace(self, learn_steps=60, steps=2000, depth=2,
                                   cutoff=("--cutoff-k", "30"), expected_k=30,
                                   use_reference=False)

    def prepare(self, seed, workdir):
        initial = os.path.join(workdir, "initial.json")
        rho = random_state(seed)
        with open(initial, "w") as handle:
            json.dump({"state": np.stack([rho.real, rho.imag], -1).tolist()},
                      handle)
        return {"initial": initial,
                "paths": {name: os.path.join(workdir, name) for name in (
                    "reference.json", "tensors.json", "long_run.json",
                    "kernel.json", "kernel.tsv", "equilibrium.tsv")},
                "reference": load_reference("cli_pipeline")
                if self.use_reference else None}

    def stages(self, paths, initial):
        return [
            ("generate", ["generate", "--model", "heom", "--dt", "0.05",
                          "--steps", str(self.learn_steps), "--lambda", "0.2",
                          "--gamma", "1.0", "--beta", "1.0",
                          "--heom-depth", str(self.depth),
                          "--out", paths["reference.json"]]),
            ("learn", ["learn", paths["reference.json"], *self.cutoff,
                       "--out", paths["tensors.json"]]),
            ("propagate", ["propagate", paths["tensors.json"],
                           "--initial", initial, "--steps", str(self.steps),
                           "--out", paths["long_run.json"]]),
            ("kernel", ["kernel", paths["tensors.json"], "--fit-liouvillian",
                        "--out", paths["kernel.json"],
                        "--table", paths["kernel.tsv"],
                        "--elements", "00->00,01->10"]),
            ("analyze", ["analyze", paths["long_run.json"], "--tol", "1e-9",
                         "--window", "100", "--out", paths["equilibrium.tsv"]]),
        ]

    def run(self, inputs, tracer):
        # A stage that fails must not leave the previous run's product.
        for path in inputs["paths"].values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        codes = {}
        for stage, argv in self.stages(inputs["paths"], inputs["initial"]):
            with tracer.span(f"cli.{stage}"):
                codes[stage] = cli.main(argv)
        return codes

    @staticmethod
    def read_products(paths):
        """Kept cutoff, final state and equilibrium row, read with the stdlib."""
        with open(paths["tensors.json"]) as handle:
            cutoff = json.load(handle)["cutoff"]
        with open(paths["long_run.json"]) as handle:
            final = decode(json.load(handle)["summary"]["final_state"])
        with open(paths["equilibrium.tsv"]) as handle:
            header, row = [line.lstrip("# ").rstrip("\n").split("\t")
                           for line in handle.readlines()[:2]]
        return cutoff, final, dict(zip(header, row))

    def check(self, inputs, codes, checker):
        for stage, code in codes.items():
            checker.check(f"ttm {stage} exit code", code == 0, f"exit {code}")
        try:
            cutoff, final, row = self.read_products(inputs["paths"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checker.check("products readable", False, repr(exc))
            return math.inf
        checker.check("learn keeps K", cutoff == self.expected_k,
                      f"K={cutoff}, expected {self.expected_k}")
        ref = inputs["reference"]
        if ref is None:
            return float("nan")
        theta = float(row.get("theta", "nan"))
        checker.check("equilibrium angle", row.get("status") == "ok"
                      and abs(theta - ref["theta"]) <= SEED_TOL,
                      f"theta {theta!r} ({row.get('status')}), "
                      f"seed value {ref['theta']!r}")
        drift = max_abs(final, decode(ref["final_state"]))
        checker.check("stationary state independent of initial state",
                      drift <= SEED_TOL, f"{drift:.3g} from the e11 run")
        err = max_abs(final, decode(ref["steady_state"]))
        checker.check("extrap_err (stationary state)", err <= C4_BOUND,
                      f"{err:.3g} > {C4_BOUND}")
        return err


WORKLOADS = {
    "extrapolate": Extrapolate(),
    "heom_sweep": HeomSweep(),
    "cli_pipeline": CliPipeline(),
}
