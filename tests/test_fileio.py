"""On-disk formats: exact roundtrips, schema rejection, atomicity."""

import base64
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from payloads import edit_payload, read_payload
from ttmkit import (
    SIGMA_Z,
    BasisTrajectorySet,
    KernelSequence,
    TimeGrid,
    TransferTensorSequence,
    extract_kernel,
    extract_maps,
    gen_lindblad,
    liouvillian_superop,
    load_basis_trajectories,
    load_kernel,
    load_state_trajectory,
    load_tensors,
    maps_to_tensors,
    markovianity_profile,
    save_basis_trajectories,
    save_kernel,
    save_state_trajectory,
    save_tensors,
    tls_hamiltonian,
    write_table,
)
from ttmkit.cli import main
from ttmkit.errors import DimensionError, NumericalError, SchemaError
from ttmkit.fileio import LEAST_STEPS, PAYLOADS, _save, encode_array

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture()
def trajs():
    h = tls_hamiltonian(1.0, 0.4)
    return gen_lindblad(h, [SIGMA_MINUS], [0.25], TimeGrid(dt=0.1, n_steps=8))


def test_basis_trajectory_roundtrip_is_exact(trajs, tmp_path):
    path = tmp_path / "trajs.json"
    save_basis_trajectories(path, trajs, meta={"model": "test"})
    back, meta = load_basis_trajectories(path)
    assert back.dim == trajs.dim
    assert back.grid.dt == trajs.grid.dt
    assert np.array_equal(back.data, trajs.data)
    assert meta == {"model": "test"}


def test_state_trajectory_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    frames[1, 0, 1] = complex(-0.0, -0.0)
    path = tmp_path / "run.json"
    save_state_trajectory(path, frames, dt=0.05, summary={"note": 1})
    back, dt, _ = load_state_trajectory(path)
    assert dt == 0.05
    # every bit, the signs of zeros included
    assert back.tobytes() == frames.tobytes()
    back[0, 0, 0] = 0.0     # a writable array


def test_tensor_roundtrip_and_diagnostics(trajs, tmp_path):
    tensors = maps_to_tensors(extract_maps(trajs))
    profile = markovianity_profile(tensors)
    path = tmp_path / "tensors.json"
    save_tensors(path, tensors.truncated(5), profile=profile,
                 truncation=float(profile[5]))
    back, doc = load_tensors(path)
    assert len(back) == 5
    assert np.array_equal(back.tensors, tensors.tensors[:5])
    assert doc["cutoff"] == 5
    assert doc["truncation_error"] == pytest.approx(profile[5])
    assert len(doc["markovianity_profile"]) == len(tensors)
    # documents written before the assumed_tti key was dropped still load
    path.write_text(json.dumps(dict(doc, assumed_tti=True)))
    assert np.array_equal(load_tensors(path)[0].tensors, back.tensors)


def test_tensor_payload_is_cutoff_times_d4(trajs, tmp_path):
    tensors = maps_to_tensors(extract_maps(trajs)).truncated(5)
    path = tmp_path / "tensors.json"
    save_tensors(path, tensors)
    doc = json.loads(path.read_text())
    # 16 bytes per complex entry
    payload = len(base64.b64decode(doc["tensors"], validate=True)) / 16
    assert payload == 5 * 2**4


def test_kernel_roundtrip_is_exact(trajs, tmp_path):
    tensors = maps_to_tensors(extract_maps(trajs))
    liou = liouvillian_superop(tls_hamiltonian(1.0, 0.4))
    kernel = extract_kernel(tensors, liou)
    path = tmp_path / "kernel.json"
    save_kernel(path, kernel, meta={"omega0": 1.0})
    back, meta = load_kernel(path)
    assert np.array_equal(back.kernels, kernel.kernels)
    assert np.array_equal(back.liouvillian, kernel.liouvillian)
    assert meta["omega0"] == 1.0


def test_rewrite_is_byte_identical(trajs, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_basis_trajectories(a, trajs)
    save_basis_trajectories(b, trajs)
    assert a.read_bytes() == b.read_bytes()
    # and so is writing back what was read, for every kind
    meta = {"model": "test", "omega0": 1.0}
    tensors = maps_to_tensors(extract_maps(trajs))
    profile = markovianity_profile(tensors)
    kernel = extract_kernel(tensors,
                            liouvillian_superop(tls_hamiltonian(1.0, 0.4)))

    def load_tensors_and_diagnostics(path):
        back, doc = load_tensors(path)
        return (back, doc["markovianity_profile"], doc["truncation_error"],
                doc["meta"])

    for save, args, load in [
        (save_basis_trajectories, (trajs, meta), load_basis_trajectories),
        (save_state_trajectory, (trajs.data[1], 0.1, meta),
         load_state_trajectory),
        (save_tensors, (tensors.truncated(5), profile, float(profile[5]), meta),
         load_tensors_and_diagnostics),
        (save_kernel, (kernel, meta), load_kernel),
    ]:
        save(a, *args)
        save(b, *load(a))
        assert a.read_bytes() == b.read_bytes(), save.__name__


def test_header_fields_present(trajs, tmp_path):
    path = tmp_path / "trajs.json"
    save_basis_trajectories(path, trajs)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert doc["kind"] == "maps"
    assert doc["vectorization"] == "row-major"
    assert "units" in doc and "dim" in doc and "dt" in doc
    # one payload array: the maps E_0..E_n as the base64 of their
    # little-endian complex128 bytes
    raw = base64.b64decode(doc["maps"], validate=True)
    assert len(raw) == 9 * 4 * 4 * 16
    assert np.array_equal(np.frombuffer(raw, "<c16").reshape(9, 4, 4),
                          trajs.maps)
    assert "content" not in doc


def _initial_frames_only(doc):
    # consistent, but the frames span no time step
    edit_payload(doc, "maps", lambda a: a[:1])
    doc["n_steps"] = 0


def _drop_bytes(doc, field, count):
    raw = base64.b64decode(doc[field])
    doc[field] = base64.b64encode(raw[:-count]).decode("ascii")


def _version_1(doc):
    # the layout before base64 payloads: nested [re, im] pairs
    doc.update(format_version=1, maps=encode_array(read_payload(doc, "maps")))


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("format_version"),
    lambda d: d.update(format_version=99),
    lambda d: d.update(kind="tensors"),
    lambda d: d.update(vectorization="column-major"),
    lambda d: d.pop("dt"),
    lambda d: edit_payload(d, "maps", lambda a: a[:-1]),
    lambda d: d.pop("maps"),
    lambda d: d.update(maps="x"),
    lambda d: edit_payload(d, "maps", lambda a: a.reshape(-1)[:-1]),
    lambda d: _drop_bytes(d, "maps", 8),
    lambda d: d.update(maps=None),
    lambda d: edit_payload(d, "maps", lambda a: np.put(a.imag, 17, np.inf)),
    _initial_frames_only,
    lambda d: d.update(maps=encode_array(read_payload(d, "maps"))),
    lambda d: d.update(maps="!" + d["maps"][1:]),
    lambda d: edit_payload(d, "maps", lambda a: np.put(a, 17, np.nan)),
    _version_1,
])
def test_corrupted_documents_are_rejected(trajs, tmp_path, mutate):
    path = tmp_path / "trajs.json"
    save_basis_trajectories(path, trajs)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="trajs.json: "):
        load_basis_trajectories(path)
    assert main(["learn", str(path), "--out", str(tmp_path / "t.json")]) == 2


def _maps_doc(trajs, path):
    save_basis_trajectories(path, trajs)
    return load_basis_trajectories


def _state_doc(trajs, path):
    save_state_trajectory(path, trajs.data[0], dt=0.1)
    return load_state_trajectory


def _tensors_doc(trajs, path):
    save_tensors(path, maps_to_tensors(extract_maps(trajs)))
    return load_tensors


def _kernel_doc(trajs, path):
    tensors = maps_to_tensors(extract_maps(trajs))
    liou = liouvillian_superop(tls_hamiltonian(1.0, 0.4))
    save_kernel(path, extract_kernel(tensors, liou))
    return load_kernel


_WRITERS = {"maps": _maps_doc, "state": _state_doc, "tensors": _tensors_doc,
            "kernel": _kernel_doc}


@pytest.mark.parametrize("write", [_WRITERS[kind] for kind in PAYLOADS])
@pytest.mark.parametrize("mutate", [
    lambda doc, field: edit_payload(doc, field, lambda a: a[:-1]),
    lambda doc, field: doc.update({field: None}),
    lambda doc, field: doc.update({field: encode_array(read_payload(doc,
                                                                    field))}),
    lambda doc, field: doc.update({field: doc[field][:-2] + "*="}),
    lambda doc, field: edit_payload(doc, field,
                                    lambda a: np.put(a, -1, np.nan)),
    lambda doc, field: edit_payload(doc, field,
                                    lambda a: np.put(a.imag, -1, -np.inf)),
], ids=["one-sample-short", "null-entry", "nested-list", "bad-base64",
        "nan-bytes", "inf-bytes"])
def test_payload_shape_and_finiteness_are_checked(trajs, tmp_path, write,
                                                  mutate):
    # every payload field of the kind, one at a time
    path = tmp_path / "doc.json"
    load = write(trajs, path)
    text = path.read_text()
    for field in PAYLOADS[json.loads(text)["kind"]]:
        doc = json.loads(text)
        mutate(doc, field)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"doc.json: {field} "):
            load(path)


@pytest.mark.parametrize("kind", list(PAYLOADS))
def test_step_count_below_the_kinds_least_is_refused(trajs, tmp_path, kind):
    # maps of frame 0 alone, and tensors and kernels with no sample, used
    # to pass the reader and fail in the sequence built from them, naming
    # no file
    least = LEAST_STEPS[kind]
    empty = [np.zeros(shape(2, least - 1)) for shape in PAYLOADS[kind].values()]
    with pytest.raises(DimensionError, match="not written"):
        _save(tmp_path / "new.json", kind, 2, 0.1, least - 1, empty)
    assert not (tmp_path / "new.json").exists()
    path = tmp_path / "doc.json"
    load = _WRITERS[kind](trajs, path)
    doc = json.loads(path.read_text())
    for field, array in zip(PAYLOADS[kind], empty):
        edit_payload(doc, field, lambda a: array)
    doc["n_steps"] = least - 1
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=f"doc.json: n_steps {least - 1} is "
                                          f"below {least}, the least a {kind}"):
        load(path)


@pytest.mark.parametrize("key,value", [
    ("dim", "two"), ("dim", 2.5), ("dim", 2.0), ("dim", True), ("dim", 0),
    ("dt", "abc"), ("dt", None), ("dt", True), ("dt", 0), ("dt", -0.1),
    ("dt", float("nan")), ("dt", float("inf")),
    ("n_steps", -1), ("n_steps", 8.0), ("n_steps", "8"), ("n_steps", False),
])
def test_header_types_and_ranges_are_checked(trajs, tmp_path, key, value):
    path = tmp_path / "header.json"
    _tensors_doc(trajs, path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=f"header.json: {key} "):
        load_tensors(path)
    assert main(["propagate", str(path), "--steps", "3",
                 "--out", str(tmp_path / "run.json")]) == 2
    assert not (tmp_path / "run.json").exists()


def test_unreadable_and_invalid_files_are_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_tensors(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError):
        load_tensors(bad)
    array_doc = tmp_path / "array.json"
    array_doc.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError):
        load_tensors(array_doc)


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    # force the final rename to fail: the temp file must be cleaned up
    # and the destination must not appear
    target = tmp_path / "out.json"

    def explode(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError):
        save_state_trajectory(target, np.zeros((2, 2, 2)), dt=0.1)
    monkeypatch.undo()
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_non_finite_frame_is_refused_without_a_file(tmp_path):
    target = tmp_path / "run.json"
    frames = np.zeros((3, 2, 2), dtype=complex)
    frames[2, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="run.json"):
        save_state_trajectory(target, frames, dt=0.1)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# Writers of each kind from its payload arrays, by field.
_SAVERS = {
    "maps": lambda path, grid, a: save_basis_trajectories(
        path, BasisTrajectorySet.from_maps(grid, a["maps"])),
    "state": lambda path, grid, a: save_state_trajectory(path, a["frames"],
                                                         grid.dt),
    "tensors": lambda path, grid, a: save_tensors(
        path, TransferTensorSequence(dim=2, dt=grid.dt, tensors=a["tensors"])),
    "kernel": lambda path, grid, a: save_kernel(
        path, KernelSequence(dim=2, dt=grid.dt, liouvillian=a["liouvillian"],
                             kernels=a["kernels"])),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize("kind", list(PAYLOADS))
def test_writer_refuses_non_finite_payloads(tmp_path, kind, value):
    # each payload field of the kind in turn holds one non-finite entry
    grid = TimeGrid(dt=0.1, n_steps=3)
    for field in PAYLOADS[kind]:
        arrays = {f: np.zeros(shape(2, grid.n_steps), dtype=complex)
                  for f, shape in PAYLOADS[kind].items()}
        arrays[field].flat[-1] = value
        with pytest.raises(NumericalError,
                           match=f"out.json: {field} .*, not written"):
            _SAVERS[kind](tmp_path / "out.json", grid, arrays)
        assert list(tmp_path.iterdir()) == []
    # the same arrays, all finite, are written
    _SAVERS[kind](tmp_path / "out.json", grid,
                  {f: np.zeros(shape(2, grid.n_steps), dtype=complex)
                   for f, shape in PAYLOADS[kind].items()})
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("shape, dt, error", [
    ((3, 2, 2), 0.0, ValueError),
    ((3, 2, 2), -0.1, ValueError),
    ((3, 2, 2), np.inf, ValueError),
    ((3, 2, 3), 0.1, DimensionError),
    ((3, 2), 0.1, DimensionError),
    ((0, 2, 2), 0.1, DimensionError),
], ids=["dt-0", "dt-negative", "dt-inf", "frames-3x2x3", "frames-3x2",
        "no-frames"])
def test_state_writer_refuses_what_the_reader_refuses(tmp_path, shape, dt,
                                                      error):
    target = tmp_path / "run.json"
    with pytest.raises(error):
        save_state_trajectory(target, np.zeros(shape), dt=dt)
    assert list(tmp_path.iterdir()) == []


def test_overwrite_keeps_previous_content_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    save_state_trajectory(target, np.zeros((2, 2, 2)), dt=0.1)
    before = target.read_bytes()
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError()))
    with pytest.raises(RuntimeError):
        save_state_trajectory(target, np.ones((2, 2, 2)), dt=0.2)
    monkeypatch.undo()
    assert target.read_bytes() == before


def test_write_table_format(tmp_path):
    path = tmp_path / "table.tsv"
    write_table(path, ["s", "time", "value"],
                [[1, 0.1, 1.0 / 3.0], [2, 0.2, -0.5]])
    lines = path.read_text().splitlines()
    assert lines[0] == "# s\ttime\tvalue"
    assert lines[1].split("\t") == ["1", "0.10000000000000001",
                                    "0.33333333333333331"]
    with pytest.raises(ValueError):
        write_table(path, ["a", "b"], [[1]])


def test_readme_lists_every_payload_field():
    # the "Files." list of the README: one bullet per kind, its payload
    # fields in backticks after the colon
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("There are four kinds:\n\n", 1)[1].split("\n\n")[0]
    listed = {}
    for bullet in ("\n" + block).split("\n- ")[1:]:
        kind, fields = re.fullmatch(r"`(\w+)` \(`\w+`\): (.*)", bullet,
                                    re.S).groups()
        listed[kind] = re.findall(r"`(\w+)`", fields)
    assert listed == {kind: list(fields) for kind, fields in PAYLOADS.items()}
