"""Spans and work counts for the traced benchmark run.

Spans are recorded from the benchmark's side of each call into ttmkit.
A hook replaces a function under the name its caller looks it up
(``ttmkit.heom.step_matrix`` for ``gen_heom``, ``ttmkit.cli.propagate``
for the CLI, ``ttmkit.tensors.propagate`` for the benchmark's own calls)
with a wrapper that records start, end and parent span, then any work
count the call's arguments or result imply. Nothing inside ttmkit
changes, and an untraced run installs no hook at all.

A hooked name that no longer exists is skipped with a note; the metrics
it fed then read 0.
"""

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """In-memory span and counter store for one traced workload run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.notes = []
        self.missing = []  # hooked names that no longer exist
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, self.clock(), float("nan"),
                    self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = self.clock()
            self._stack.pop()


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager call."""

    def span(self, name):
        return contextlib.nullcontext()


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def self_time_by_name(spans):
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return totals


# Work counts, computed outside the span from the call's arguments and
# result so that they repeat exactly and cost nothing in the timed part.

def _count_frames(tracer, args, result):
    tracer.counts["heom.frames"] += int(result.data.shape[1])


def _count_hierarchy(tracer, args, result):
    rows = int(result.shape[0])
    if hasattr(result, "count_nonzero"):  # scipy sparse
        nnz = int(result.count_nonzero())
    else:
        nnz = int(np.count_nonzero(result))
    tracer.counts["heom.rows"] += rows
    tracer.counts["heom.rows_squared"] += rows * rows
    tracer.counts["heom.nnz"] += nnz


def _count_substeps(tracer, args, result):
    tracer.counts["heom.substeps"] += int(args["substeps"])


def _count_peel(tracer, args, result):
    n = int(args["seq"].maps.shape[0]) - 1
    tracer.counts["tensors.peel_products"] += n * (n - 1) // 2


def _count_matvecs(tracer, args, result):
    k = int(args["k_cutoff"])
    n_seed = 1 if args["seed"].ndim == 2 else int(args["seed"].shape[0])
    tracer.counts["tensors.propagate_matvecs"] += sum(
        min(m, k) for m in range(n_seed, int(args["n_total"]) + 1)
    )


def _count_written(tracer, args, result):
    tracer.counts["fileio.bytes_written"] += os.path.getsize(args["path"])


def _count_read(tracer, args, result):
    tracer.counts["fileio.bytes_read"] += os.path.getsize(args["path"])


# Span name and work counter of every traced function.
LAYERS = {
    "gen_heom": ("heom.step", _count_frames),
    "hierarchy_generator": ("heom.build", _count_hierarchy),
    "_stability_substeps": ("heom.expm", None),
    "step_matrix": ("heom.expm", _count_substeps),
    "extract_maps": ("maps.extract", None),
    "validate_maps": ("maps.validate", None),
    "maps_to_tensors": ("tensors.peel", _count_peel),
    "markovianity_profile": ("tensors.cutoff", None),
    "choose_cutoff": ("tensors.cutoff", None),
    "truncation_error": ("tensors.cutoff", None),
    "propagate": ("tensors.propagate", _count_matvecs),
    "extract_liouvillian": ("kernels.extract", None),
    "extract_kernel": ("kernels.extract", None),
    "kernel_element_series": ("kernels.extract", None),
    "detect_equilibrium": ("analysis.equilibrium", None),
    "canonical_state": ("analysis.equilibrium", None),
    "noncanonical_angle": ("analysis.angle", None),
    "oscillation_metrics": ("analysis.oscillation", None),
    **{name: ("fileio.save", _count_written)
       for name in ("save_basis_trajectories", "save_tensors",
                    "save_state_trajectory", "save_kernel", "write_table")},
    **{name: ("fileio.load", _count_read)
       for name in ("load_basis_trajectories", "load_tensors",
                    "load_state_trajectory", "load_kernel")},
}

# Where the workloads' call paths look each function up: the benchmark
# calls through the defining modules, gen_heom through ttmkit.heom, and
# the CLI through its own namespace (fileio through the module object).
LOOKUPS = {
    "ttmkit.heom": ("gen_heom", "hierarchy_generator", "_stability_substeps",
                    "step_matrix"),
    "ttmkit.maps": ("extract_maps", "validate_maps"),
    "ttmkit.tensors": ("maps_to_tensors", "markovianity_profile",
                       "choose_cutoff", "truncation_error", "propagate"),
    "ttmkit.analysis": ("oscillation_metrics", "canonical_state",
                        "noncanonical_angle"),
    "ttmkit.cli": ("gen_heom", "extract_maps", "maps_to_tensors",
                   "markovianity_profile", "choose_cutoff", "truncation_error",
                   "propagate", "extract_liouvillian", "extract_kernel",
                   "kernel_element_series", "detect_equilibrium",
                   "canonical_state", "noncanonical_angle"),
    "ttmkit.fileio": tuple(name for name, (span, _) in LAYERS.items()
                           if span.startswith("fileio.")),
}

# (module, attribute, span name, counter)
HOOKS = [(module, attr) + LAYERS[attr]
         for module, attrs in LOOKUPS.items() for attr in attrs]


def _wrap(fn, tracer, name, count):
    signature = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer, bound.arguments, result)
            except (KeyError, TypeError, AttributeError, OSError) as exc:
                tracer.notes.append(
                    f"{fn.__module__}.{fn.__name__}: count skipped ({exc!r})"
                )
        return result

    return traced


@contextlib.contextmanager
def installed(tracer, hooks=HOOKS):
    """Patch every hook for the duration of the block, then restore."""
    undo = []
    try:
        for module_name, attr, name, count in hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{module_name}.{attr}")
                tracer.notes.append(
                    f"{module_name}.{attr} not found; its share of "
                    f"{name} reads 0"
                )
                continue
            undo.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, tracer, name, count))
        yield
    finally:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)


TIME_SPANS = (
    "heom.build", "heom.expm", "heom.step",
    "maps.extract", "maps.validate",
    "tensors.peel", "tensors.cutoff", "tensors.propagate",
    "kernels.extract",
    "analysis.equilibrium", "analysis.angle", "analysis.oscillation",
    "fileio.save", "fileio.load",
    "cli.generate", "cli.learn", "cli.propagate", "cli.kernel", "cli.analyze",
)
COUNTS = (
    "heom.substeps", "heom.frames", "heom.rows", "heom.nnz",
    "tensors.peel_products", "tensors.propagate_matvecs",
    "fileio.bytes_written", "fileio.bytes_read",
)


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced run of wall time ``wall``.

    ``*_s`` entries are summed self times; ``trace.unattributed_s`` is
    what no layer span covers (the benchmark's own glue).
    """
    own = self_time_by_name(tracer.spans)
    out = {f"{name}_s": own.get(name, 0.0) for name in TIME_SPANS}
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    squared = tracer.counts.get("heom.rows_squared", 0)
    out["heom.fill"] = tracer.counts.get("heom.nnz", 0) / squared if squared else 0.0
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(own.values())
    return out
