"""On-disk formats: JSON documents for arrays, TSV tables for series.

Every document carries the same header block (format version, kind,
dimension, grid step, vectorization convention, unit note), checked in
one place on load together with the optional ``meta`` object, whose
model numbers (omega0, j, lambda, gamma, beta) must be finite. The
header, ``meta`` and every diagnostic stay plain JSON. All writes go
through a temp file in the target directory followed by an atomic
rename.

Each kind carries its payload as whole arrays. :data:`PAYLOADS` names
them for every kind, in file order, with each one's shape in terms of
the header's dimension D and step count n, and :data:`LEAST_STEPS`
gives each kind's least n. One writer and one reader work from those
tables, so the writer refuses any payload whose file the reader would
refuse. Each payload is one base64 string of the array's C-order bytes
as little-endian complex128 (``"<c16"``); its shape is not stored but
follows from the table and the header. The reader checks the byte
length against that shape and refuses non-finite entries, and the
writer refuses them before anything is written. Bytes parse back
bit-exact, the sign of a zero included, so reruns and rewrites are
byte-identical.

The nested codec, :func:`encode_array` and :func:`decode_array`, with
[re, im] pairs as the leaves, serves the JSON that is not a payload: a
state file's ``summary.final_state`` and the hand-written initial
state that :func:`load_initial_state` reads.

A file of kind ``trajectory``, the earlier layout of basis runs and
states, is refused by its kind, and a file of format version 1, whose
payloads were nested lists, by its version.
"""

import base64
import json
import math
import os
import tempfile

import numpy as np

from .errors import DimensionError, NumericalError, SchemaError
from .tensors import TransferTensorSequence
from .trajectories import BasisTrajectorySet, TimeGrid, check_step
from .kernels import KernelSequence

FORMAT_VERSION = 2
VECTORIZATION = "row-major"
UNITS_NOTE = "dimensionless, hbar=1, energy in J"

# Every payload array is one base64 string of its C-order bytes in this
# dtype, little-endian complex128 whatever the host's byte order.
PAYLOAD_DTYPE = np.dtype("<c16")

# The payload arrays of every kind, in file order: field -> shape as a
# function of the header's dimension D and step count n.
PAYLOADS = {
    # ``ttm generate``: the dynamical maps E_0..E_n
    "maps": {"maps": lambda d, n: (n + 1, d * d, d * d)},
    # ``ttm propagate``: the state at t_0..t_n
    "state": {"frames": lambda d, n: (n + 1, d, d)},
    # ``ttm learn``: the transfer tensors T_1..T_n
    "tensors": {"tensors": lambda d, n: (n, d * d, d * d)},
    # ``ttm kernel``: the generator and the kernel samples K_1..K_n
    "kernel": {"liouvillian": lambda d, n: (d * d, d * d),
               "kernels": lambda d, n: (n, d * d, d * d)},
}
# The least step count n of every kind: a state may be its initial frame
# alone, but maps span a step and tensors and kernels hold one sample.
LEAST_STEPS = {"maps": 1, "state": 0, "tensors": 1, "kernel": 1}


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
        arr = np.asarray(obj, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {field} is not a numeric array") from exc
    if arr.shape != expected:
        raise SchemaError(
            f"{path}: {field} has shape {arr.shape}, expected {expected} "
            "([re, im] pairs)"
        )
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}: {field} holds a non-finite value")
    # a view of the pairs as complex numbers keeps the sign of a zero;
    # re + 1j * im would turn -0.0 into 0.0
    return arr.view(complex)[..., 0]


def _encode_payload(array, path, field):
    """Base64 of ``array``'s C-order :data:`PAYLOAD_DTYPE` bytes.

    Raises :class:`NumericalError` naming ``path`` and ``field`` for a
    non-finite entry.
    """
    array = np.ascontiguousarray(array, dtype=PAYLOAD_DTYPE)
    if not np.isfinite(array).all():
        raise NumericalError(f"{path}: {field} holds a non-finite value, "
                             "not written")
    return base64.b64encode(array.data).decode("ascii")


def _decode_payload(obj, shape, path, field):
    """Writable complex array of ``shape`` from :func:`_encode_payload`'s
    string.

    Raises :class:`SchemaError` naming ``path`` and ``field`` unless
    ``obj`` is valid base64 of exactly that many finite entries.
    """
    if not isinstance(obj, str):
        raise SchemaError(f"{path}: {field} is not a base64 string")
    try:
        raw = base64.b64decode(obj, validate=True)
    except ValueError as exc:
        raise SchemaError(f"{path}: {field} is not valid base64 ({exc})"
                          ) from exc
    expected = PAYLOAD_DTYPE.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise SchemaError(f"{path}: {field} holds {len(raw)} bytes, expected "
                          f"{expected} for shape {tuple(shape)}")
    arr = np.frombuffer(raw, dtype=PAYLOAD_DTYPE).reshape(shape)
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}: {field} holds a non-finite value")
    return arr.astype(complex)


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


def _save(path, kind, dim, dt, n_steps, arrays, meta=None, **fields):
    """Write a ``kind`` document: header, ``meta`` if given, the payload
    ``arrays`` in :data:`PAYLOADS` order, other ``fields`` as they are.

    Raises :class:`DimensionError` for a dimension below 1, a step count
    below the kind's :data:`LEAST_STEPS` or an array not of the kind's
    shape, ``ValueError`` for a step not positive and finite and
    :class:`NumericalError` for a non-finite entry, writing nothing.
    """
    check_step(dt)
    if dim < 1 or n_steps < LEAST_STEPS[kind]:
        raise DimensionError(f"{path}: dim {dim} and n_steps {n_steps} "
                             f"describe no {kind} document, not written")
    doc = dict(fields, format_version=FORMAT_VERSION, kind=kind, dim=int(dim),
               dt=float(dt), n_steps=int(n_steps), vectorization=VECTORIZATION,
               units=UNITS_NOTE)
    if meta:
        doc["meta"] = meta
    for (field, shape), array in zip(PAYLOADS[kind].items(), arrays,
                                     strict=True):
        expected = shape(dim, n_steps)
        if np.shape(array) != expected:
            raise DimensionError(f"{path}: {field} has shape "
                                 f"{np.shape(array)}, expected {expected}, "
                                 "not written")
        doc[field] = _encode_payload(array, path, field)
    _dump_json(path, doc)


# JSON yields exact Python types, so ``type(v) is int`` also refuses bools.
_HEADER_FIELDS = (
    ("dim", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    ("dt", lambda v: type(v) in (int, float) and 0 < v < math.inf,
     "a finite positive number"),
    ("n_steps", lambda v: type(v) is int, "an integer"),
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


def _load(path, *kinds):
    """Checked document of one of ``kinds``: (doc, arrays, meta), with the
    kind's payload arrays in :data:`PAYLOADS` order."""
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
    least = LEAST_STEPS[doc["kind"]]
    if doc["n_steps"] < least:
        raise SchemaError(f"{path}: n_steps {doc['n_steps']} is below {least}, "
                          f"the least a {doc['kind']} document holds")
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
    arrays = [_decode_payload(doc.get(field),
                              shape(doc["dim"], doc["n_steps"]), path, field)
              for field, shape in PAYLOADS[doc["kind"]].items()]
    return doc, arrays, meta


def save_basis_trajectories(path, trajs, meta=None):
    """Write a BasisTrajectorySet as a kind='maps' document of its E_k."""
    _save(path, "maps", trajs.dim, trajs.grid.dt, trajs.grid.n_steps,
          [trajs.maps], meta)


def load_basis_trajectories(path):
    """Read a maps document.

    Returns
    -------
    trajs : BasisTrajectorySet
    meta : dict
    """
    doc, (maps,), meta = _load(path, "maps")
    grid = TimeGrid(dt=float(doc["dt"]), n_steps=doc["n_steps"])
    return BasisTrajectorySet.from_maps(grid, maps), meta


def save_state_trajectory(path, frames, dt, meta=None, summary=None):
    """Write a single propagated state as a kind='state' document.

    Raises :class:`DimensionError` unless ``frames`` has shape
    (n_steps + 1, D, D) and ``ValueError`` unless ``dt`` is positive
    and finite; nothing is written then.
    """
    frames = np.asarray(frames, dtype=complex)
    fields = {"summary": summary} if summary else {}
    _save(path, "state", frames.shape[-1], dt, len(frames) - 1, [frames],
          meta, **fields)


def load_state_trajectory(path):
    """Read a propagated-state document.

    Returns
    -------
    frames : ndarray, shape (n_steps + 1, D, D)
    dt : float
    meta : dict
    """
    doc, (frames,), meta = _load(path, "state")
    return frames, float(doc["dt"]), meta


def save_tensors(path, tensors, profile=None, truncation=None, meta=None):
    """Write a TransferTensorSequence as a kind='tensors' document.

    ``profile`` may carry the full learned markovianity profile (before
    truncation) and ``truncation`` the norm of the first discarded
    tensor; both are diagnostics, not needed to reload.
    """
    fields = {} if profile is None else {
        "markovianity_profile": [float(x) for x in profile]}
    _save(path, "tensors", tensors.dim, tensors.dt, len(tensors),
          [tensors.tensors], meta, cutoff=len(tensors),
          truncation_error=None if truncation is None else float(truncation),
          **fields)


def load_tensors(path):
    """Read a tensors document.

    Returns
    -------
    tensors : TransferTensorSequence
    doc : dict
        The full document, for access to diagnostics and meta.
    """
    doc, (tensors,), _ = _load(path, "tensors")
    return TransferTensorSequence(dim=doc["dim"], dt=float(doc["dt"]),
                                  tensors=tensors), doc


def load_state_or_tensors(path):
    """Read a propagated-state or a tensors document, parsing it once.

    Returns
    -------
    payload : ndarray, shape (n_steps + 1, D, D), or TransferTensorSequence
        The state frames or the tensor sequence, by the document's kind.
    meta : dict
    """
    doc, (array,), meta = _load(path, "state", "tensors")
    if doc["kind"] == "tensors":
        return TransferTensorSequence(dim=doc["dim"], dt=float(doc["dt"]),
                                      tensors=array), meta
    return array, meta


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
    _save(path, "kernel", kernel.dim, kernel.dt, len(kernel),
          [kernel.liouvillian, kernel.kernels], meta)


def load_kernel(path):
    """Read a kernel document.

    Returns
    -------
    kernel : KernelSequence
    meta : dict
    """
    doc, (liou, kernels), meta = _load(path, "kernel")
    return KernelSequence(dim=doc["dim"], dt=float(doc["dt"]),
                          liouvillian=liou, kernels=kernels), meta


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
