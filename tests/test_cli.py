"""Command-line pipeline: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from payloads import edit_payload, read_payload
from ttmkit import (
    TransferTensorSequence,
    cli,
    heom,
    load_state_trajectory,
    load_tensors,
    save_state_trajectory,
    save_tensors,
)
from ttmkit.cli import main
from ttmkit.fileio import encode_array
from ttmkit.models import beta_from_kelvin, time_from_fs


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].lstrip("# ").split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


@pytest.fixture(scope="module")
def lindblad_run(tmp_path_factory):
    """One generate -> learn -> propagate chain shared by the checks."""
    root = tmp_path_factory.mktemp("chain")
    traj = root / "traj.json"
    tensors = root / "tensors.json"
    state = root / "state.json"
    assert run(["generate", "--model", "lindblad", "--dt", "0.05",
                "--steps", "60", "--omega0", "1.0", "--j", "1.0",
                "--lambda", "0.5", "--out", traj]) == 0
    assert run(["learn", traj, "--cutoff-tol", "1e-6", "--out", tensors]) == 0
    assert run(["propagate", tensors, "--initial", "e11", "--steps", "1800",
                "--out", state]) == 0
    return root


def test_pipeline_products(lindblad_run):
    tensors, doc = load_tensors(lindblad_run / "tensors.json")
    # memoryless model: the automatic cutoff must land at K = 1
    assert doc["cutoff"] == 1
    assert len(tensors) == 1
    frames, dt, meta = load_state_trajectory(lindblad_run / "state.json")
    assert frames.shape == (1801, 2, 2)
    assert dt == 0.05
    # propagation preserves the trace; e11 selects the first basis state
    traces = np.einsum("kii->k", frames)
    assert np.abs(traces - 1.0).max() < 1e-8
    assert frames[0, 0, 0].real == pytest.approx(1.0)


def test_propagate_summary_block(lindblad_run):
    doc = json.loads((lindblad_run / "state.json").read_text())
    assert "summary" in doc
    assert "final_state" in doc["summary"]
    assert doc["summary"]["max_trace_drift"] < 1e-8


def test_final_state_and_cutoff_read_with_json_and_numpy(heom_run):
    # the benchmark's checks read these two without ttmkit: the cutoff as
    # a JSON number, the final state as nested [re, im] pairs
    with open(heom_run / "tensors.json") as handle:
        cutoff = json.load(handle)["cutoff"]
    with open(heom_run / "state.json") as handle:
        pairs = np.asarray(json.load(handle)["summary"]["final_state"],
                           dtype=float)
    final = pairs[..., 0] + 1j * pairs[..., 1]
    assert cutoff == len(load_tensors(heom_run / "tensors.json")[0]) == 100
    frames, _, _ = load_state_trajectory(heom_run / "state.json")
    assert final.shape == (2, 2)
    assert np.array_equal(final, frames[-1])


def test_non_finite_propagation_is_exit_3_without_a_file(tmp_path, caplog,
                                                         capfd):
    # T_1 = 1e200 * identity overflows within two steps; stderr carries
    # the exit-3 log only, no numpy RuntimeWarning
    tensors = tmp_path / "tensors.json"
    save_tensors(tensors, TransferTensorSequence(
        dim=2, dt=0.1, tensors=1e200 * np.eye(4)[None]))
    assert run(["propagate", tensors, "--steps", "3",
                "--out", tmp_path / "run.json"]) == 3
    assert "frames holds a non-finite value, not written" in caplog.text
    assert "RuntimeWarning" not in capfd.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["tensors.json"]


def test_heom_generate_and_kernel(tmp_path):
    traj = tmp_path / "traj.json"
    tensors = tmp_path / "tensors.json"
    kern = tmp_path / "kernel.json"
    table = tmp_path / "kernel.tsv"
    assert run(["generate", "--model", "heom", "--dt", "0.05", "--steps", "40",
                "--omega0", "1.0", "--j", "0.0", "--lambda", "0.1",
                "--gamma", "1.0", "--beta", "1.0", "--coupling", "sx",
                "--heom-depth", "3", "--heom-matsubara", "1",
                "--out", traj]) == 0
    assert run(["learn", traj, "--cutoff-k", "40", "--out", tensors]) == 0
    assert run(["kernel", tensors, "--out", kern, "--table", table,
                "--elements", "00->00,01->01"]) == 0
    doc = json.loads(kern.read_text())
    assert doc["kind"] == "kernel"
    assert len(read_payload(doc, "kernels")) == 40
    lines = table.read_text().splitlines()
    assert lines[0].startswith("# s\ttime\t")
    assert len(lines) == 41
    assert len(lines[1].split("\t")) == 2 + 2 * 2


@pytest.fixture(scope="module")
def heom_run(tmp_path_factory):
    """Thermalizing chain whose equilibrium carries a resolvable axis."""
    root = tmp_path_factory.mktemp("heom_chain")
    traj = root / "traj.json"
    tensors = root / "tensors.json"
    state = root / "state.json"
    assert run(["generate", "--model", "heom", "--dt", "0.05", "--steps",
                "100", "--omega0", "1.0", "--j", "1.0", "--lambda", "0.1",
                "--gamma", "1.0", "--beta", "1.0", "--heom-depth", "4",
                "--heom-matsubara", "2", "--out", traj]) == 0
    assert run(["learn", traj, "--cutoff-k", "100", "--out", tensors]) == 0
    assert run(["propagate", tensors, "--initial", "e11", "--steps", "1500",
                "--out", state]) == 0
    return root


def test_analyze_file_mode(heom_run, tmp_path):
    out = tmp_path / "report.tsv"
    rc = run(["analyze", heom_run / "state.json", "--tol", "1e-6",
              "--window", "50", "--out", out])
    assert rc == 0
    [row] = read_rows(out)
    assert row["status"] == "ok"
    assert 0.0 <= float(row["theta"]) <= np.pi / 2


def learn_point(root, name, *model, dt="0.02"):
    """Tensors file of one sweep point: a hierarchy run, then learn."""
    ref, tensors = root / f"ref_{name}.json", root / f"t_{name}.json"
    assert run(["generate", "--model", "heom", "--dt", dt, "--steps", "300",
                "--heom-depth", "3", *model, "--out", ref]) == 0
    assert run(["learn", ref, "--cutoff-tol", "1e-5", "--out", tensors]) == 0
    return tensors


def test_analyze_sweep_mode(tmp_path):
    # a sweep is generate and learn per point, then one analyze
    out = tmp_path / "sweep.tsv"
    points = [learn_point(tmp_path, lam, "--lambda", lam)
              for lam in ("0.1", "0.5")]
    assert run(["analyze", *points, "--out", out]) == 0
    rows = read_rows(out)
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert [float(row["lambda"]) for row in rows] == [0.1, 0.5]
    # the deviation from the canonical state grows with the coupling
    assert 0.0 < float(rows[0]["theta"]) < float(rows[1]["theta"])


def test_sweep_matches_the_propagated_file_chain(tmp_path):
    # where the propagated state settles, it lands on the fixed point the
    # tensors give; a tensors file reports the kept depth K as settled_at
    tensors = learn_point(tmp_path, "0.5", "--lambda", "0.5")
    assert run(["propagate", tensors, "--steps", "3000",
                "--out", tmp_path / "run.json"]) == 0
    assert run(["analyze", tmp_path / "run.json", tensors,
                "--out", tmp_path / "both.tsv"]) == 0
    chain, sweep = read_rows(tmp_path / "both.tsv")
    assert chain["status"] == sweep["status"] == "ok"
    # measured 3.0e-8: the propagated tail still moves by ~1e-9 per step
    assert abs(float(chain["theta"]) - float(sweep["theta"])) < 1e-7
    _, doc = load_tensors(tensors)
    assert int(sweep["settled_at"]) == doc["cutoff"]
    assert float(sweep["residual"]) < 1e-12


def test_wavenumber_sweep_converts_the_couplings(tmp_path):
    # 10 cm^-1 at a 100 cm^-1 exchange coupling is lambda = 0.1
    cm = learn_point(tmp_path, "cm", "--units", "wavenumber", "--omega0",
                     "100", "--j", "100", "--gamma", "100",
                     "--temperature", "300", "--lambda", "10", dt="1")
    plain = learn_point(tmp_path, "plain", "--lambda", "0.1",
                        "--beta", repr(beta_from_kelvin(300.0, 100.0)),
                        dt=repr(time_from_fs(1.0, 100.0)))
    assert run(["analyze", cm, "--out", tmp_path / "cm.tsv"]) == 0
    assert run(["analyze", plain, "--out", tmp_path / "plain.tsv"]) == 0
    [row] = read_rows(tmp_path / "cm.tsv")
    assert row["status"] == "ok"
    assert read_rows(tmp_path / "plain.tsv") == [row]


def _scaled(tensors, factor):
    return TransferTensorSequence(dim=tensors.dim, dt=tensors.dt,
                                  tensors=factor * tensors.tensors)


@pytest.mark.parametrize("command", ["propagate", "sweep"])
def test_trace_drift_is_exit_3(lindblad_run, heom_run, tmp_path, monkeypatch,
                               command):
    # propagate refuses a drifting trace; analyze flags tensors that do
    # not preserve the trace, which leave no unit eigenvalue, and still
    # writes the rows of the good files
    out = tmp_path / "out"
    if command == "propagate":
        propagate = cli.propagate
        monkeypatch.setattr(cli, "propagate",
                            lambda *args: propagate(*args) * 1.01)
        argv = ["propagate", lindblad_run / "tensors.json", "--steps", "50"]
    else:
        good = heom_run / "tensors.json"
        bad = tmp_path / "scaled.json"
        tensors, doc = load_tensors(good)
        save_tensors(bad, _scaled(tensors, 1.01), meta=doc["meta"])
        argv = ["analyze", good, bad]
    assert run(argv + ["--out", out]) == 3
    if command == "sweep":
        assert [row["status"] for row in read_rows(out)] == [
            "ok", "no_fixed_point"]


def test_analyze_flags_degenerate_equilibrium(lindblad_run, tmp_path):
    # a unital model relaxes to the maximally mixed state, which has no
    # axis to compare against the canonical one; that is reported, not
    # treated as a failure, for the settled state and the fixed point
    out = tmp_path / "report.tsv"
    rc = run(["analyze", lindblad_run / "state.json",
              lindblad_run / "tensors.json", "--tol", "1e-6",
              "--window", "30", "--out", out])
    assert rc == 0
    assert [row["status"] for row in read_rows(out)] == [
        "degenerate", "degenerate"]


def test_analyze_without_model_meta_writes_the_table_then_exits_2(
        heom_run, tmp_path, caplog):
    # a file whose meta lacks beta has no canonical reference: its row
    # says so, the other rows are written, and bad input (2) outranks a
    # numerical failure (3)
    good = heom_run / "tensors.json"
    doc = json.loads(good.read_text())
    del doc["meta"]["beta"]
    bare = tmp_path / "no_beta.json"
    bare.write_text(json.dumps(doc))
    out = tmp_path / "report.tsv"
    assert run(["analyze", good, bare, "--out", out]) == 2
    assert [row["status"] for row in read_rows(out)] == ["ok", "no_model"]
    assert str(bare) in caplog.text
    tensors, doc = load_tensors(good)
    scaled = tmp_path / "scaled.json"
    save_tensors(scaled, _scaled(tensors, 1.01), meta=doc["meta"])
    assert run(["analyze", good, bare, scaled, "--out", out]) == 2
    assert [row["status"] for row in read_rows(out)] == [
        "ok", "no_model", "no_fixed_point"]


SIGMA3 = np.diag([0.5, 0.3, 0.2]).astype(complex)


def three_level_tensors():
    """T_1 of rho -> (rho + tr(rho) SIGMA3) / 2, fixed point SIGMA3 alone."""
    trace = np.eye(3).reshape(-1)
    t1 = 0.5 * (np.eye(9) + np.outer(SIGMA3.reshape(-1), trace))
    return TransferTensorSequence(dim=3, dt=0.05, tensors=t1[None])


def test_kernel_fits_the_generator_of_another_dim(lindblad_run, tmp_path):
    # two-level omega0 and j cannot give a 3-level generator, so kernel
    # refuses them (see the dim-3 corpus case) but fits on request
    _, doc = load_tensors(lindblad_run / "tensors.json")
    tensors = tmp_path / "three.json"
    save_tensors(tensors, three_level_tensors(), meta=doc["meta"])
    out = tmp_path / "kernel.json"
    assert run(["kernel", tensors, "--out", out]) == 2
    assert run(["kernel", tensors, "--fit-liouvillian", "--out", out]) == 0


def _payload_field(doc):
    """The one payload field of a maps, state or tensors document."""
    return next(key for key in ("maps", "frames", "tensors") if key in doc)


def _edit_payload(doc, edit):
    edit_payload(doc, _payload_field(doc), edit)


def _poison(doc):
    _edit_payload(doc, lambda a: np.put(a, 0, np.nan))


# Each corruption edits the parsed document in place, or returns the
# text to write instead of it.
CORRUPTIONS = {
    "truncated": lambda doc: json.dumps(doc)[:200],
    "wrong-kind": lambda doc: doc.update(kind="kernel"),
    "no-dim": lambda doc: doc.pop("dim"),
    "dt-string": lambda doc: doc.update(dt=str(doc["dt"])),
    "nan-payload": _poison,
    "short-payload": lambda doc: _edit_payload(doc, lambda a: a[:-1]),
    "meta-list": lambda doc: doc.update(meta=[1.0, 1.0]),
}


def _basis_frames(maps, row, col):
    """Frames of |row><col| in a maps payload: column row*D + col of E_k,
    as a view, so editing it edits the payload."""
    dim = math.isqrt(maps.shape[-1])
    return maps[:, :, row * dim + col].reshape(len(maps), dim, dim)


def _off_basis(doc):
    # |0><0| no longer starts from itself
    def move(maps):
        _basis_frames(maps, 0, 0)[0, 0, 0] = 2.0
    edit_payload(doc, "maps", move)


def _broken_adjoint(doc):
    # frame 5 of |0><1| is no longer the adjoint of that of |1><0|
    def shift(maps):
        _basis_frames(maps, 0, 1)[5, 0, 0] += 0.5
    edit_payload(doc, "maps", shift)


def _old_layout(doc):
    # the retired kind "trajectory": a basis run as one entry per matrix
    # unit, or a state, told apart by "content"
    if doc["kind"] == "state":
        doc.update(kind="trajectory", content="state")
        return
    dim, maps = doc["dim"], read_payload(doc, "maps")
    entries = [{"row": i, "col": j,
                "frames": encode_array(_basis_frames(maps, i, j))}
               for i in range(dim) for j in range(dim)]
    del doc["maps"]
    doc.update(kind="trajectory", content="basis", trajectories=entries)


def _no_tensors(doc):
    # a tensors document of n_steps 0, whose payload holds no tensor
    _edit_payload(doc, lambda a: a[:0])
    doc["n_steps"] = 0


def _version_1(doc):
    # the layout before base64 payloads: [re, im] pairs nested as the array
    field = _payload_field(doc)
    doc.update({"format_version": 1,
                field: encode_array(read_payload(doc, field))})


# Corruptions only a basis trajectory can have: frames that parse but
# are not dynamical maps, which extract_maps refuses.
NOT_MAPS = {"off-basis": _off_basis, "broken-adjoint": _broken_adjoint}

# The command and the document kind it reads (file of lindblad_run).
READS = {
    "learn-basis": ("learn", "traj.json", []),
    "propagate-tensors": ("propagate", "tensors.json", ["--steps", "10"]),
    "kernel-tensors": ("kernel", "tensors.json", ["--table", "k.tsv"]),
    "analyze-state": ("analyze", "state.json", []),
    "analyze-tensors": ("analyze", "tensors.json", []),
}
CORPUS = [(r, c) for r in READS for c in CORRUPTIONS] + [
    ("learn-basis", c) for c in NOT_MAPS] + [
    ("kernel-tensors", "dim-3"), ("analyze-state", "dim-3"),
    ("analyze-tensors", "dim-3"),
    ("learn-basis", "old-layout"), ("analyze-state", "old-layout"),
    ("learn-basis", "version-1"), ("propagate-tensors", "version-1")] + [
    (r, "no-tensors") for r in ("propagate-tensors", "kernel-tensors",
                                "analyze-tensors")]


@pytest.mark.parametrize("reads, corruption", CORPUS,
                         ids=[f"{r}-{c}" for r, c in CORPUS])
def test_corrupt_input_is_exit_2_naming_the_file(lindblad_run, tmp_path,
                                                 caplog, reads, corruption):
    command, name, options = READS[reads]
    doc = json.loads((lindblad_run / name).read_text())
    bad = tmp_path / f"bad_{name}"
    if corruption == "dim-3":
        # a 3-level file that keeps the two-level meta
        if name == "tensors.json":
            save_tensors(bad, three_level_tensors(), meta=doc["meta"])
        else:
            save_state_trajectory(bad, np.broadcast_to(SIGMA3, (101, 3, 3)),
                                  doc["dt"], meta=doc["meta"])
    else:
        text = {**CORRUPTIONS, **NOT_MAPS, "old-layout": _old_layout,
                "version-1": _version_1,
                "no-tensors": _no_tensors}[corruption](doc)
        bad.write_text(text if isinstance(text, str) else json.dumps(doc))
    out = tmp_path / "out"
    options = [tmp_path / o if o.endswith(".tsv") else o for o in options]
    assert run([command, bad, *options, "--out", out]) == 2
    assert str(bad) in caplog.text
    if corruption == "old-layout":
        assert f"{bad}: kind 'trajectory', expected '" in caplog.text
    if corruption == "version-1":
        assert f"{bad}: format_version 1, expected 2" in caplog.text
    if corruption == "no-tensors":
        assert f"{bad}: n_steps 0 is below 1" in caplog.text
    written = sorted(p.name for p in tmp_path.iterdir() if p != bad)
    # only analyze writes its table first, and only rows it could read
    if command == "analyze" and corruption == "dim-3":
        assert written == ["out"]
        assert [row["status"] for row in read_rows(out)] == ["no_model"]
    else:
        assert written == []


def test_missing_input_is_exit_2(tmp_path):
    assert run(["learn", tmp_path / "absent.json",
                "--out", tmp_path / "t.json"]) == 2


def test_wrong_kind_is_exit_2(lindblad_run, tmp_path):
    # a tensors document fed where maps are expected, and maps where a
    # propagated state or tensors are
    assert run(["learn", lindblad_run / "tensors.json",
                "--out", tmp_path / "t.json"]) == 2
    assert run(["analyze", lindblad_run / "traj.json",
                "--out", tmp_path / "a.tsv"]) == 2


@pytest.mark.parametrize("elements", ["00->22", "00->00,"])
def test_bad_elements_is_exit_2_without_products(lindblad_run, tmp_path,
                                                 elements):
    # an index past D = 2, and an empty element after the comma
    out = tmp_path / "kernel.json"
    table = tmp_path / "kernel.tsv"
    assert run(["kernel", lindblad_run / "tensors.json", "--out", out,
                "--table", table, "--elements", elements]) == 2
    assert not out.exists()
    assert not table.exists()


def test_elements_without_table_is_exit_2(lindblad_run, tmp_path, caplog):
    # the elements select columns of the table, so alone they would be
    # ignored
    out = tmp_path / "kernel.json"
    assert run(["kernel", lindblad_run / "tensors.json", "--out", out,
                "--elements", "00->00"]) == 2
    assert "--table" in caplog.text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cutoff", ["0", "61"])
def test_cutoff_k_out_of_range_is_exit_2(lindblad_run, tmp_path, cutoff):
    # the reference run has 60 steps, so K lies in 1..60
    assert run(["learn", lindblad_run / "traj.json", "--cutoff-k", cutoff,
                "--out", tmp_path / "t.json"]) == 2


def test_bad_initial_spec_is_exit_2(lindblad_run, tmp_path):
    assert run(["propagate", lindblad_run / "tensors.json", "--initial",
                "e12", "--steps", "10", "--out", tmp_path / "s.json"]) == 2


def test_non_finite_initial_state_is_exit_2(lindblad_run, tmp_path):
    initial = tmp_path / "nan.json"
    initial.write_text(json.dumps(
        {"state": [[[np.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    ))
    out = tmp_path / "s.json"
    assert run(["propagate", lindblad_run / "tensors.json", "--initial",
                initial, "--steps", "10", "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["learn", "traj.json", "--cutoff-tol", "0"],
    ["learn", "traj.json", "--cutoff-tol", "-1"],
    ["analyze", "state.json", "--tol", "0"],
], ids=["learn-0", "learn-negative", "analyze-0"])
def test_non_positive_tolerance_is_exit_2(lindblad_run, tmp_path, argv):
    # no learning window or trajectory can meet a tolerance <= 0
    command, name, *options = argv
    out = tmp_path / "out"
    assert run([command, lindblad_run / name, *options, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, change, code", [
    ("kernel", {"j": None}, 0),
    ("kernel", {"omega0": "one"}, 2),
    ("analyze", {"omega0": "one"}, 2),
    ("kernel", {"j": True}, 2),
    ("kernel", [1.0, 1.0], 2),
], ids=["kernel-no-j", "kernel-string", "analyze-string", "kernel-bool",
        "kernel-list"])
def test_meta_without_j_fits_and_bad_meta_is_exit_2(lindblad_run, tmp_path, command, change, code):
    # meta without both omega0 and j makes kernel fit the generator;
    # a model number that is not a finite number, or meta that is not
    # an object, is a schema error naming the file
    doc = json.loads((lindblad_run / "tensors.json").read_text())
    if isinstance(change, dict):
        meta = {**doc["meta"], **change}
        doc["meta"] = {k: v for k, v in meta.items() if v is not None}
    else:
        doc["meta"] = change
    tensors = tmp_path / "tensors.json"
    tensors.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([command, tensors, "--out", out]) == code
    if code == 0:
        assert "liouvillian_fit_residual" in json.loads(out.read_text())["meta"]


@pytest.mark.parametrize("content", [None, "{not json", '["state"]'],
                         ids=["absent", "not-json", "not-an-object"])
def test_unreadable_initial_state_is_exit_2(lindblad_run, tmp_path, content):
    initial = tmp_path / "initial.json"
    if content is not None:
        initial.write_text(content)
    out = tmp_path / "s.json"
    assert run(["propagate", lindblad_run / "tensors.json", "--initial",
                initial, "--steps", "10", "--out", out]) == 2
    assert not out.exists()


def test_headerless_initial_state_loads(lindblad_run, tmp_path):
    # a bare {"state": ...} object, as other tools write it
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(
        {"state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}
    ))
    assert run(["propagate", lindblad_run / "tensors.json", "--initial",
                initial, "--steps", "10", "--out", tmp_path / "s.json"]) == 0
    frames, _, _ = load_state_trajectory(tmp_path / "s.json")
    assert np.allclose(frames[0], 0.5)


def test_insufficient_learning_is_exit_3(tmp_path):
    traj = tmp_path / "traj.json"
    assert run(["generate", "--model", "heom", "--dt", "0.05", "--steps", "20",
                "--lambda", "0.3", "--gamma", "0.5", "--beta", "1.0",
                "--heom-depth", "3", "--heom-matsubara", "1",
                "--out", traj]) == 0
    # 1 time unit of learning cannot push the tail below 1e-9
    assert run(["learn", traj, "--cutoff-tol", "1e-9",
                "--out", tmp_path / "t.json"]) == 3


def test_hierarchy_divergence_is_exit_3_naming_the_step(tmp_path, caplog,
                                                       monkeypatch):
    # stiff, like the top C6 point (N = 336): the hierarchy takes windowed
    # frames, and a guard below the entries of the inputs trips at step 1
    windows = []
    heads = heom.ChebyshevPlan.apply_heads
    monkeypatch.setattr(heom.ChebyshevPlan, "apply_heads",
                        lambda self, *args: windows.append(1) or heads(self, *args))
    monkeypatch.setattr(heom, "DIVERGENCE_GUARD", 1e-3)
    out = tmp_path / "h.json"
    assert run(["generate", "--model", "heom", "--dt", "0.01", "--steps", "10",
                "--lambda", "8", "--gamma", "5", "--beta", "0.5",
                "--heom-depth", "6", "--out", out]) == 3
    assert windows
    assert ("numerical failure: hierarchy diverged at step 1 of dt = 0.01 "
            "(t = 0.01)") in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_generate_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "--model", "heom", "--dt", "0.1", "--steps", "15",
            "--lambda", "0.2", "--heom-depth", "3", "--heom-matsubara", "1"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_near_the_drude_pole_is_exit_2(tmp_path):
    # nu_1 = 2 pi at beta = 1, within 1e-3 gamma of gamma = 6.2832
    out = tmp_path / "d.json"
    assert run(["generate", "--model", "dephasing", "--dt", "0.05",
                "--steps", "10", "--j", "0", "--gamma", "6.2832",
                "--beta", "1", "--out", out]) == 2
    assert not out.exists()


# A non-finite model number or step on each model, and the quantity the
# refusal names.
NON_FINITE = {
    "lindblad-dt": (["--model", "lindblad", "--dt", "inf"], "dt"),
    "lindblad-lambda": (["--model", "lindblad", "--lambda", "nan"], "lam"),
    "unitary-dt": (["--model", "unitary", "--dt", "inf"], "dt"),
    "unitary-omega0": (["--model", "unitary", "--omega0", "nan"], "omega0"),
    "heom-lambda": (["--model", "heom", "--lambda", "inf"], "lam"),
    "heom-gamma": (["--model", "heom", "--gamma", "inf"], "gamma"),
    "heom-beta": (["--model", "heom", "--beta", "inf"], "beta"),
    "dephasing-beta": (["--model", "dephasing", "--beta", "inf"], "beta"),
    "wavenumber-temperature": (["--model", "unitary", "--units", "wavenumber",
                                "--omega0", "100", "--temperature", "nan"],
                               "temperature"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_model_number_is_exit_2_naming_it(tmp_path, caplog, case):
    flags, name = NON_FINITE[case]
    out = tmp_path / "g.json"
    # the case's flags come last, so its --dt overrides this one
    assert run(["generate", "--dt", "0.05", "--steps", "10", "--heom-depth",
                "2", *flags, "--out", out]) == 2
    assert f"invalid input: {name} must be" in caplog.text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--temperature", "77"],
    ["--units", "wavenumber", "--omega0", "100", "--temperature", "300",
     "--beta", "2"],
], ids=["temperature-dimensionless", "beta-wavenumber"])
def test_temperature_flag_the_units_do_not_read_is_exit_2(tmp_path, caplog,
                                                          flags):
    # dimensionless units read --beta and wavenumber units --temperature;
    # the other flag used to be ignored, and the run exited 0
    out = tmp_path / "g.json"
    assert run(["generate", "--model", "unitary", "--dt", "0.05", "--steps",
                "10", *flags, "--out", out]) == 2
    assert "invalid input: " in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_generate_at_a_slow_bath_is_exit_0(tmp_path):
    # the terminator of this bath rounds to a complex number with an
    # imaginary part of 2.8e-17; it is real, and the hierarchy is stepped
    out = tmp_path / "slow.json"
    assert run(["generate", "--model", "heom", "--dt", "0.1", "--steps", "3",
                "--lambda", "0.2", "--gamma", "0.05", "--beta", "0.5",
                "--out", out]) == 0
    assert out.exists()


def test_wavenumber_units_roundtrip(tmp_path):
    # 53.08 fs steps at a 100 cm^-1 splitting: one dimensionless time unit
    traj = tmp_path / "traj.json"
    assert run(["generate", "--model", "unitary", "--units", "wavenumber",
                "--omega0", "100", "--j", "0", "--temperature", "300",
                "--dt", "53.088", "--steps", "10", "--out", traj]) == 0
    doc = json.loads(traj.read_text())
    assert doc["dt"] == pytest.approx(1.0, rel=1e-3)


def child_env():
    # the child imports the same ttmkit as this process, installed or not,
    # and finds this interpreter as python3
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path,
            "PATH": os.pathsep.join([os.path.dirname(sys.executable),
                                     os.environ.get("PATH", "")])}


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "ttmkit.cli",
                           *map(str, argv)],
                          capture_output=True, text=True, env=child_env())


def test_installed_entry_point_runs():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate was most of the start-up time of every ttm process
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ttmkit.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verbose_generate_logs_the_hierarchy(tmp_path):
    args = ["generate", "--model", "heom", "--dt", "0.1", "--steps", "3",
            "--heom-depth", "2", "--heom-matsubara", "1"]
    quiet = run_module(*args, "--out", tmp_path / "a.json")
    verbose = run_module("-v", *args, "--out", tmp_path / "b.json")
    assert quiet.returncode == verbose.returncode == 0
    assert "hierarchy:" not in quiet.stderr
    assert "DEBUG hierarchy: 24 rows (6 ADOs)" in verbose.stderr


def test_documented_pipeline_runs():
    demo = Path(__file__).resolve().parents[1] / "demos" / "cli_pipeline.sh"
    proc = subprocess.run(["sh", str(demo)], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.split("equilibrium report:\n")[1].splitlines()
    header = report[0].lstrip("# ").split("\t")
    # the settled tail of long_run.json and the fixed point of
    # tensors.json; measured 1.9e-15 apart
    settled, fixed = (dict(zip(header, line.split("\t")))
                      for line in report[1:3])
    assert settled["status"] == fixed["status"] == "ok"
    assert abs(float(settled["theta"]) - float(fixed["theta"])) < 1e-7


@pytest.mark.parametrize("demo", ["equilibrium_angle", "kernel_extraction",
                                  "memory_extrapolation"])
def test_python_demo_runs(demo):
    script = Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
