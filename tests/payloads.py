"""Read and edit the payload arrays of parsed ttmkit documents.

A payload field holds one base64 string of the array's C-order bytes as
little-endian complex128, its shape given by ``PAYLOADS`` and the
header. These helpers decode that layout on their own, without the
library's checks, so a test case can plant what the writer refuses: an
array of the wrong length, a NaN or an infinity.
"""

import base64

import numpy as np

from ttmkit.fileio import PAYLOADS

LAYOUT = "<c16"


def read_payload(doc, field):
    """Writable array of the payload ``field`` of the parsed ``doc``."""
    raw = bytearray(base64.b64decode(doc[field], validate=True))
    shape = PAYLOADS[doc["kind"]][field](doc["dim"], doc["n_steps"])
    return np.frombuffer(raw, dtype=LAYOUT).reshape(shape)


def edit_payload(doc, field, edit):
    """Decode ``doc[field]``, apply ``edit`` and store the result back,
    unchecked.

    ``edit`` takes the array and either changes it in place and returns
    None, or returns the array to store (of any shape).
    """
    array = read_payload(doc, field)
    edited = edit(array)
    array = np.ascontiguousarray(array if edited is None else edited,
                                 dtype=LAYOUT)
    doc[field] = base64.b64encode(array.tobytes()).decode("ascii")
