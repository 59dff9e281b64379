"""Layered ttmkit benchmark.

    python3 perfbench/run.py --workload extrapolate --seed 1 --seconds 40 --trace 0

Run it from the root of a ttmkit checkout; it imports ttmkit from
``src/`` there and fails (exit 2, no result) when that source is
missing. It sets up once, then runs the workload again and again until
``--seconds`` would be exceeded (at least once), checking every output.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are end to
end: the median wall_s and cpu_s of the runs, setup_s, peak_rss_mb
and extrap_err. With ``--trace 1`` untraced and traced runs alternate and
the metrics are per layer (see spans.py). The line before it records
the samples, the environment and any notes.

``setup_s`` is the median of this process's set-up and of
``SETUP_PROBES`` fresh processes that only set up (``--probe-setup``):
importing ttmkit, a warm-up run of the workload at tiny size (which
takes the first BLAS call), and preparing the inputs.

Every time is reported at the host's fast-phase speed: the time as
measured, divided by the slowdown a fixed probe shows just before and
just after it (see ``HostProbe``). The detail line keeps the times as
measured and the slowdowns.
"""

import argparse
import contextlib
import dataclasses
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("extrapolate", "heom_sweep", "cli_pipeline")
SETUP_PROBES = 4
CPUS_USABLE = len(os.sched_getaffinity(0))  # before pin_to_one_cpu
# Fixed before numpy loads, so the thread count does not follow the host.
# One thread: on a shared host a descheduled second BLAS thread stalls
# the first, and two threads spread the times far more from run to run.
BLAS_THREADS = "1"
NO_SEED = "heom_sweep has no random input; --seed is unused"
# The shared host has slow phases of about a minute in which code runs
# up to 1.7x slower. Every time is divided by the host's slowdown, read
# off a fixed probe just before and just after the timed span: the probe's time over its time on the host's
# fast phase (PROBE_REFERENCE_S, on a 2.1 GHz Xeon vCPU). The probe is a
# pure-Python loop plus passes over a buffer larger than ttmkit's
# working sets, the two resources whose contention slows the workloads.
PROBE_LOOPS = 500_000
PROBE_FLOATS = 16_000_000  # 128 MB
PROBE_PASSES = 3
PROBE_REFERENCE_S = 0.072


@dataclasses.dataclass
class Run:
    traced: bool
    wall: float  # seconds as measured
    cpu: float
    slowdown: float  # host slowdown around the run; 1 on the fast phase
    tracer: object
    peak_mb: float  # peak RSS of the process so far


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def serve_probe():
    """``--probe-host``: time the probe once for each line read from stdin."""
    import numpy

    buffer = numpy.ones(PROBE_FLOATS)
    for _ in sys.stdin:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        for _ in range(PROBE_PASSES):
            buffer *= 1.0
        print(time.perf_counter() - start, flush=True)


class HostProbe:
    """A helper process that times the probe when asked.

    It runs only between timed spans and holds the probe's buffer, so it
    adds nothing to the measured process's time or peak memory. It shares
    the caller's CPU (see ``pin_to_one_cpu``), so it runs where the
    workload runs.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe-host"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def slowdown(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited ({self.proc.poll()})")
        return float(line) / PROBE_REFERENCE_S

    def __exit__(self, *exc_info):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(name, seed, workdir):
    """Import ttmkit, warm up at tiny size, prepare the inputs; time it all."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import ttmkit

    if os.path.dirname(os.path.abspath(ttmkit.__file__)) != os.path.join(SRC, "ttmkit"):
        fail(f"imported ttmkit from {ttmkit.__file__}, not from {SRC}")
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    tiny = workload.tiny()
    warm = os.path.join(workdir, "warm-up")
    os.mkdir(warm)
    tiny.run(tiny.prepare(seed, warm), spans.NullTracer())
    inputs = workload.prepare(seed, workdir)
    return workload, inputs, time.perf_counter() - start


def probe_setups(name, seed, slowdown):
    """(set-up time, host slowdown) of fresh processes, one after the other."""
    times, notes = [], []
    for _ in range(SETUP_PROBES):
        before = slowdown()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--probe-setup",
                 "--workload", name, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=150,
            )
        except subprocess.TimeoutExpired:
            notes.append("setup probe timed out")
            continue
        try:
            setup = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            times.append((setup, (before + slowdown()) / 2))
        except (IndexError, ValueError, KeyError):
            notes.append(f"setup probe failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-300:]}")
    return times, notes


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(workload, inputs, seconds, traced, slowdown=lambda: 1.0):
    """Run until the next run would pass ``seconds``; check every output.

    Traced mode alternates an untraced and a traced run, untraced first,
    and does at least one of each. ``slowdown`` reads the host slowdown,
    before the first run and after each.
    """
    import spans
    import workloads

    checker = workloads.Checker()
    runs = []
    errors = []
    start = time.perf_counter()
    before = slowdown()
    while True:
        trace_this = traced and len(runs) % 2 == 1
        tracer = spans.Tracer() if trace_this else spans.NullTracer()
        hooks = spans.installed(tracer) if trace_this else contextlib.nullcontext()
        error = None
        with hooks:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                out = workload.run(inputs, tracer)
            except Exception as exc:  # a failed run is a failed operation
                error = exc
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if error is None:
            try:
                errors.append(workload.check(inputs, out, checker))
            except Exception as exc:
                error = exc
        if error is not None:
            traceback.print_exception(error)
            checker.check("workload run", False, repr(error))
            errors.append(math.inf)
        after = slowdown()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs.append(Run(trace_this, wall, cpu, (before + after) / 2, tracer,
                        peak_mb))
        before = after
        elapsed = time.perf_counter() - start
        if len(runs) >= (2 if traced else 1) and elapsed * (1 + 1 / len(runs)) > seconds:
            return checker, runs, errors


def blas_info():
    import numpy

    info = {"threads_requested": int(BLAS_THREADS)}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        info["vendor"] = "unknown"
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*blas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = None
    return info


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS_USABLE,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
    }


def end_to_end(runs, errors, setups, notes):
    """Median times at the host's fast-phase speed, peak memory and error.

    ``setups`` holds (seconds, slowdown) pairs.
    """
    walls = [run.wall / run.slowdown for run in runs]
    cpus = [run.cpu / run.slowdown for run in runs]
    setup_times = [seconds / slowdown for seconds, slowdown in setups]
    if all(math.isfinite(e) for e in errors):
        worst = max(errors)
    else:
        worst = 1e9
        notes.append("extrap_err could not be computed; reported as 1e9")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        # After the first run: the allocator keeps freed memory, so later
        # runs raise the peak by an amount that depends on the run count.
        "peak_rss_mb": (runs[0].peak_mb, "MB"),
        "extrap_err": (worst, "1"),
    }, {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_times,
        # the highest sample with ten beyond it; None below 11 runs
        "high_wall_s": sorted(walls)[-11] if len(walls) >= 11 else None,
        "measured_wall_s": [run.wall for run in runs],
        "measured_cpu_s": [run.cpu for run in runs],
        "measured_setup_s": [seconds for seconds, _ in setups],
        "slowdown": [run.slowdown for run in runs],
        "setup_slowdown": [slowdown for _, slowdown in setups]}


def per_layer(runs, notes):
    import spans

    plain = [run.wall / run.slowdown for run in runs if not run.traced]
    traced = [run for run in runs if run.traced]
    layers = []
    for run in traced:
        notes.extend(n for n in run.tracer.notes if n not in notes)
        # Times at the fast-phase speed, as in end_to_end.
        layers.append({
            name: value / run.slowdown if name.endswith("_s") else value
            for name, value in spans.layer_metrics(run.tracer, run.wall).items()
        })
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name == "heom.fill" else "count"
        metrics[name] = (statistics.median(m[name] for m in layers), unit)
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"][0] - statistics.median(plain), "s")
    metrics["trace.missing_hooks"] = (len(traced[0].tracer.missing), "count")
    return metrics, {"untraced_wall_s": plain,
                     "traced_wall_s": [m["trace.wall_s"] for m in layers],
                     "slowdown": [run.slowdown for run in runs]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only set up, print the set-up time and exit")
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--probe-host"]:
        serve_probe()
        return 0
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so the work dir is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "ttmkit", "__init__.py")):
        fail(f"no ttmkit source under {SRC}; run from a ttmkit checkout")

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        if args.probe_setup:
            setup = set_up(args.workload, args.seed, workdir)[2]
            print(json.dumps({"setup_s": setup}))
            return 0
        pin_to_one_cpu()
        with HostProbe() as probe:
            before = probe.slowdown()
            workload, inputs, setup = set_up(args.workload, args.seed, workdir)
            setups = [(setup, (before + probe.slowdown()) / 2)]
            notes = [NO_SEED] if args.workload == "heom_sweep" else []
            if args.trace:
                checker, runs, _ = measure(workload, inputs, args.seconds,
                                           True, probe.slowdown)
                metrics, samples = per_layer(runs, notes)
            else:
                probed, probe_notes = probe_setups(args.workload, args.seed,
                                                   probe.slowdown)
                notes += probe_notes
                checker, runs, errors = measure(workload, inputs, args.seconds,
                                                False, probe.slowdown)
                metrics, samples = end_to_end(runs, errors, setups + probed,
                                              notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs": len(runs),
        "samples": samples,
        "failures": checker.failures,
        "notes": notes,
        "environment": environment(),
    }))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
