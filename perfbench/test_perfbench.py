"""Tests of the benchmark's own machinery, on tiny versions of the workloads."""

import itertools

import numpy as np
import pytest

import ttmkit.cli
import ttmkit.heom
import ttmkit.tensors

import run
import spans
import workloads
from spans import Span


def test_self_times_subtract_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("grandchild", 2.0, 3.0, 1),
        Span("b", 3.5, 6.0, 0),   # overlaps a: covered once, not twice
        Span("c", 9.0, 12.0, 0),  # ends after its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_self_times_add_up_to_the_wall_time():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("cli.learn"):          # 0 .. 7
        with tracer.span("fileio.load"):    # 1 .. 2
            pass
        with tracer.span("tensors.peel"):   # 3 .. 6
            with tracer.span("tensors.peel"):  # 4 .. 5, same layer nested
                pass
    metrics = spans.layer_metrics(tracer, wall=10.0)
    assert metrics["cli.learn_s"] == 3.0
    assert metrics["fileio.load_s"] == 1.0
    assert metrics["tensors.peel_s"] == 3.0
    assert metrics["trace.unattributed_s"] == 3.0
    assert metrics["heom.expm_s"] == 0.0


def test_missing_hook_is_noted_and_reads_zero():
    tracer = spans.Tracer()
    with spans.installed(tracer, hooks=[("ttmkit.heom", "no_such_name",
                                         "heom.expm", None)]):
        pass
    assert tracer.missing == ["ttmkit.heom.no_such_name"]
    assert tracer.notes == ["ttmkit.heom.no_such_name not found; its share "
                            "of heom.expm reads 0"]
    assert spans.layer_metrics(tracer, wall=1.0)["heom.expm_s"] == 0.0


def test_hooks_are_removed_afterwards():
    original = ttmkit.heom.step_matrix
    with spans.installed(spans.Tracer()):
        assert ttmkit.heom.step_matrix is not original
    assert ttmkit.heom.step_matrix is original


def checked(workload, inputs):
    checker = workloads.Checker()
    workload.check(inputs, workload.run(inputs, spans.NullTracer()), checker)
    return checker


def test_perturbed_propagation_is_a_failed_operation(monkeypatch):
    workload = workloads.Extrapolate().tiny()
    inputs = workload.prepare(seed=5, workdir=None)
    clean = checked(workload, inputs)
    assert clean.failed == 0 and clean.attempted == 33

    propagate = ttmkit.tensors.propagate
    monkeypatch.setattr(ttmkit.tensors, "propagate",
                        lambda *args: propagate(*args) + 1e-2)
    perturbed = checked(workload, inputs)
    assert perturbed.attempted == clean.attempted
    assert perturbed.failed > 0
    assert any("C4" in failure for failure in perturbed.failures)


def test_perturbed_cli_stage_is_a_failed_operation(monkeypatch, tmp_path):
    workload = workloads.CliPipeline().tiny()
    inputs = workload.prepare(seed=5, workdir=str(tmp_path))
    assert checked(workload, inputs).failed == 0

    propagate = ttmkit.cli.propagate
    monkeypatch.setattr(ttmkit.cli, "propagate",
                        lambda *args: propagate(*args) * 1.01)
    perturbed = checked(workload, inputs)
    assert perturbed.failures == ["ttm propagate exit code: exit 3"]


def test_a_raising_run_is_counted_not_fatal():
    class Broken:
        def run(self, inputs, tracer):
            raise FloatingPointError("boom")

    checker, runs, errors = run.measure(Broken(), {}, seconds=0.0, traced=False)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert len(runs) == 1 and errors == [float("inf")]


def traced_counts(workload, inputs):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.run(inputs, tracer)
    assert tracer.notes == []
    metrics = spans.layer_metrics(tracer, wall=0.0)
    return {name: metrics[name] for name in spans.COUNTS + ("heom.fill",)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    # Same seed: the digits of the random state change the JSON byte counts.
    workload = workloads.WORKLOADS[name].tiny()
    inputs = workload.prepare(1, str(tmp_path))
    first = traced_counts(workload, inputs)
    second = traced_counts(workload, inputs)
    assert first == second
    assert first["heom.rows"] > 0 and 0 < first["heom.fill"] < 1
    assert (first["fileio.bytes_written"] > 0) == (name == "cli_pipeline")
    assert (first["tensors.propagate_matvecs"] > 0) == (name != "heom_sweep")


def test_counts_match_the_workload_sizes():
    workload = workloads.Extrapolate().tiny()
    counts = traced_counts(workload, workload.prepare(1, None))
    learn, n = workload.learn, workload.n_steps
    assert counts["tensors.peel_products"] == learn * (learn - 1) // 2
    assert counts["tensors.propagate_matvecs"] == 5 * sum(
        k * (n - k) for k in workload.cutoffs)
    assert counts["heom.frames"] == n + 1
    assert counts["heom.rows"] == 4 * 35  # C(4 + 3, 3) ADOs of 2 x 2 blocks


def test_random_state_is_seeded_and_physical():
    rho = workloads.random_state(7)
    assert np.array_equal(rho, workloads.random_state(7))
    assert not np.array_equal(rho, workloads.random_state(8))
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= 0.0
