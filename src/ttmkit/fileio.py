"""On-disk formats: JSON documents for arrays, TSV tables for series.

Every document carries the same header block (format version, kind,
dimension, grid step, vectorization convention, unit note), checked in
one place on load together with the optional ``meta`` object, whose
model numbers (omega0, j, lambda, gamma, beta) must be finite. Every
complex payload goes through one codec, :func:`encode_array` and
:func:`decode_array`: the array's own nesting with [re, im] pairs as
the leaves, decoded in a single call that checks the exact shape and
refuses non-finite entries. Floats are emitted with Python's
shortest-roundtrip repr in compact JSON, so files parse back bit-exact
and reruns are byte-identical. All writes go through a temp file in the
target directory followed by an atomic rename.

Each kind carries its payload as whole arrays (D the dimension, n the
header's ``n_steps``):

- ``maps`` (``ttm generate``): ``maps``, the dynamical maps E_0..E_n,
  shape (n + 1, D², D²);
- ``state`` (``ttm propagate``): ``frames``, shape (n + 1, D, D);
- ``tensors`` (``ttm learn``): ``tensors``, T_1..T_n, shape (n, D², D²);
- ``kernel`` (``ttm kernel``): ``liouvillian``, shape (D², D²), and
  ``kernels``, shape (n, D², D²).

A file of kind ``trajectory``, the earlier layout of basis runs and
states, is refused by its kind; tensors and kernel documents keep their
layout.
"""

import json
import math
import os
import tempfile

import numpy as np

from .errors import NumericalError, SchemaError
from .tensors import TransferTensorSequence
from .trajectories import BasisTrajectorySet, TimeGrid
from .kernels import KernelSequence

FORMAT_VERSION = 1
VECTORIZATION = "row-major"
UNITS_NOTE = "dimensionless, hbar=1, energy in J"


def encode_array(a):
    """JSON form of a complex array: its nesting with [re, im] leaves."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def decode_array(obj, shape, path, field):
    """Complex array of ``shape`` from the JSON form of :func:`encode_array`.

    Raises :class:`SchemaError` naming ``path`` and ``field`` unless
    ``obj`` is a finite numeric array of shape ``shape + (2,)``.
    """
    expected = tuple(shape) + (2,)
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {field} is not a numeric array") from exc
    if arr.shape != expected:
        raise SchemaError(
            f"{path}: {field} has shape {arr.shape}, expected {expected} "
            "([re, im] pairs)"
        )
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}: {field} holds a non-finite value")
    return arr[..., 0] + 1j * arr[..., 1]


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(path, doc):
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: non-finite value, not written") from exc
    _atomic_write_text(path, text + "\n")


def _header(kind, dim, dt, n_steps):
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dim": int(dim),
        "dt": float(dt),
        "n_steps": int(n_steps),
        "vectorization": VECTORIZATION,
        "units": UNITS_NOTE,
    }


# JSON yields exact Python types, so ``type(v) is int`` also refuses bools.
_HEADER_FIELDS = (
    ("dim", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    ("dt", lambda v: type(v) in (int, float) and 0 < v < math.inf,
     "a finite positive number"),
    ("n_steps", lambda v: type(v) is int and v >= 0, "an integer >= 0"),
)
# Model parameters that the CLI reads back from ``meta``.
_META_NUMBERS = ("omega0", "j", "lambda", "gamma", "beta")


def _read_json(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return doc


def _load_checked(path, *kinds):
    doc = _read_json(path)
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"{path}: format_version {doc.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    if doc.get("kind") not in kinds:
        raise SchemaError(f"{path}: kind {doc.get('kind')!r}, expected "
                          + " or ".join(map(repr, kinds)))
    if doc.get("vectorization") != VECTORIZATION:
        raise SchemaError(f"{path}: unsupported vectorization convention")
    for key, valid, want in _HEADER_FIELDS:
        if key not in doc:
            raise SchemaError(f"{path}: missing header field {key!r}")
        if not valid(doc[key]):
            raise SchemaError(f"{path}: {key} {doc[key]!r} is not {want}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}: meta is not an object")
    for key in _META_NUMBERS:
        if key not in meta:
            continue
        value = meta[key]
        if type(value) not in (int, float) or not math.isfinite(value):
            raise SchemaError(f"{path}: meta {key} {value!r} is not a "
                              "finite number")
    return doc


def save_basis_trajectories(path, trajs, meta=None):
    """Write a BasisTrajectorySet as a kind='maps' document of its E_k."""
    doc = _header("maps", trajs.dim, trajs.grid.dt, trajs.grid.n_steps)
    if meta:
        doc["meta"] = meta
    doc["maps"] = encode_array(trajs.maps)
    _dump_json(path, doc)


def load_basis_trajectories(path):
    """Read a maps document.

    Returns
    -------
    trajs : BasisTrajectorySet
    meta : dict
    """
    doc = _load_checked(path, "maps")
    n_steps = doc["n_steps"]
    try:
        grid = TimeGrid(dt=float(doc["dt"]), n_steps=n_steps)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    d2 = doc["dim"] ** 2
    maps = decode_array(doc.get("maps"), (n_steps + 1, d2, d2), path, "maps")
    return BasisTrajectorySet.from_maps(grid, maps), doc.get("meta", {})


def save_state_trajectory(path, frames, dt, meta=None, summary=None):
    """Write a single propagated state as a kind='state' document."""
    frames = np.asarray(frames, dtype=complex)
    doc = _header("state", frames.shape[1], dt, frames.shape[0] - 1)
    if meta:
        doc["meta"] = meta
    if summary:
        doc["summary"] = summary
    doc["frames"] = encode_array(frames)
    _dump_json(path, doc)


def load_state_trajectory(path):
    """Read a propagated-state document.

    Returns
    -------
    frames : ndarray, shape (n_steps + 1, D, D)
    dt : float
    meta : dict
    """
    doc = _load_checked(path, "state")
    return _state_frames(path, doc), float(doc["dt"]), doc.get("meta", {})


def _state_frames(path, doc):
    dim = doc["dim"]
    n_steps = doc["n_steps"]
    return decode_array(doc.get("frames"), (n_steps + 1, dim, dim), path,
                        "frames")


def save_tensors(path, tensors, profile=None, truncation=None, meta=None):
    """Write a TransferTensorSequence as a kind='tensors' document.

    ``profile`` may carry the full learned markovianity profile (before
    truncation) and ``truncation`` the norm of the first discarded
    tensor; both are diagnostics, not needed to reload.
    """
    doc = _header("tensors", tensors.dim, tensors.dt, len(tensors))
    doc["cutoff"] = len(tensors)
    if profile is not None:
        doc["markovianity_profile"] = [float(x) for x in profile]
    doc["truncation_error"] = None if truncation is None else float(truncation)
    if meta:
        doc["meta"] = meta
    doc["tensors"] = encode_array(tensors.tensors)
    _dump_json(path, doc)


def load_tensors(path):
    """Read a tensors document.

    Returns
    -------
    tensors : TransferTensorSequence
    doc : dict
        The full document, for access to diagnostics and meta.
    """
    doc = _load_checked(path, "tensors")
    return _tensor_sequence(path, doc), doc


def _tensor_sequence(path, doc):
    dim = doc["dim"]
    count = doc["n_steps"]
    d2 = dim * dim
    tensors = decode_array(doc.get("tensors"), (count, d2, d2), path, "tensors")
    return TransferTensorSequence(dim=dim, dt=float(doc["dt"]), tensors=tensors)


def load_state_or_tensors(path):
    """Read a propagated-state or a tensors document, parsing it once.

    Returns
    -------
    payload : ndarray, shape (n_steps + 1, D, D), or TransferTensorSequence
        The state frames or the tensor sequence, by the document's kind.
    meta : dict
    """
    doc = _load_checked(path, "state", "tensors")
    if doc["kind"] == "tensors":
        return _tensor_sequence(path, doc), doc.get("meta", {})
    return _state_frames(path, doc), doc.get("meta", {})


def load_initial_state(path, dim):
    """(dim, dim) state from a JSON object whose ``state`` field holds it.

    The object needs no document header, so a bare ``{"state": ...}``
    written by hand or by another tool loads too.
    """
    doc = _read_json(path)
    if "state" not in doc:
        raise SchemaError(f"{path}: expected an object with a 'state' matrix")
    return decode_array(doc["state"], (dim, dim), path, "state")


def save_kernel(path, kernel, meta=None):
    """Write a KernelSequence as a kind='kernel' document."""
    doc = _header("kernel", kernel.dim, kernel.dt, len(kernel))
    if meta:
        doc["meta"] = meta
    doc["liouvillian"] = encode_array(kernel.liouvillian)
    doc["kernels"] = encode_array(kernel.kernels)
    _dump_json(path, doc)


def load_kernel(path):
    """Read a kernel document.

    Returns
    -------
    kernel : KernelSequence
    meta : dict
    """
    doc = _load_checked(path, "kernel")
    dim = doc["dim"]
    count = doc["n_steps"]
    d2 = dim * dim
    liou = decode_array(doc.get("liouvillian"), (d2, d2), path, "liouvillian")
    kernels = decode_array(doc.get("kernels"), (count, d2, d2), path, "kernels")
    kernel = KernelSequence(
        dim=dim, dt=float(doc["dt"]), liouvillian=liou, kernels=kernels
    )
    return kernel, doc.get("meta", {})


def write_table(path, columns, rows):
    """Write a tab-separated table with a commented header row.

    Floats are printed with 17 significant digits; other values with
    str(). Rows must match the column count.
    """
    lines = ["# " + "\t".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row has {len(row)} fields, header has {len(columns)}"
            )
        fields = []
        for value in row:
            if isinstance(value, float):
                fields.append(f"{value:.17g}")
            else:
                fields.append(str(value))
        lines.append("\t".join(fields))
    _atomic_write_text(path, "\n".join(lines) + "\n")
