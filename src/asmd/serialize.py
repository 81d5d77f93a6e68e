"""Deterministic text serialization helpers.

All numeric output (instance files, result files, trace CSVs) follows one
rule, ``format_real``: 17 significant digits, so reruns with identical
inputs produce byte-identical files and every value round-trips to the
exact same double. The one exception is a quadratic's matrix in an
instance file, which is stored as the exact bits of its entries: a
bytes-like value (``BLOB_TYPES``) is written as the base64 text of its
bytes, as a JSON string (``problems.problem_to_document``).

``canonical_json`` takes lists and numpy arrays alike and writes the same
bytes for both. A 1-D float array takes an array path: one ``isfinite``
check for the whole row, then one ``%`` operation over a template of
``%.17g`` specs, with ``.0`` after the ones a vectorized test finds
integral, which is the text ``format_real`` writes for every entry.
A 1-D integer array is written from its ``tolist()`` in one join. That is
what makes the sparse constraint rows of instance files cheap to write.
Higher-rank arrays are rendered row by row, one row per line, and are
never flattened into one list of strings.

One renderer, ``canonical_pieces``, yields the text as pieces of UTF-8
bytes: the structure between values, one piece per inline value or row,
and a blob as the base64 of slices of ``_BLOB_CHUNK`` bytes, a multiple
of 3, so the slices' texts join to the blob's. ``canonical_json`` is the
join of the pieces, and ``atomic_write_text`` writes them to the file in
turn, so a written document is never held as one text.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math
import os
import tempfile

import numpy as np


def format_real(x: float) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _render_reals(row: np.ndarray) -> str:
    """A 1-D float array as an inline JSON list, the same text as its ``tolist()``."""
    finite = np.isfinite(row)
    if not finite.all():
        format_real(row[~finite][0])  # raises the scalar path's error
    # ``%.17g`` writes an integral value below 1e17 without a point or an
    # exponent, and only such a value; format_real appends ".0" to it
    bare = (row == np.trunc(row)) & (np.abs(row) < 1e17)
    specs = np.where(bare, "%.17g.0", "%.17g").tolist()
    return ("[" + ", ".join(specs) + "]") % tuple(row.tolist())


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_real(float(obj))
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


#: Values written as base64 text; ``memoryview(obj).cast("B")`` is their bytes.
BLOB_TYPES = (bytes, bytearray, memoryview)

#: Values written one per line inside a list, not inline.
_NESTED_TYPES = (dict, list, tuple, np.ndarray) + BLOB_TYPES

#: Raw bytes per base64 chunk of a blob: a multiple of 3, so that each
#: chunk's text ends without padding and the chunks join to the whole
#: blob's text.
_BLOB_CHUNK = 3 << 16


def _pieces(obj, indent: int):
    """The canonical text of ``obj`` at nesting depth ``indent``, as pieces
    of UTF-8 bytes."""
    if isinstance(obj, BLOB_TYPES):
        data = memoryview(obj).cast("B")
        yield b'"'
        for start in range(0, data.nbytes, _BLOB_CHUNK):
            yield binascii.b2a_base64(data[start:start + _BLOB_CHUNK], newline=False)
        yield b'"'
        return
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            yield _render_reals(obj).encode()
            return
        if obj.ndim == 1 and obj.dtype.kind in "iu":
            yield ("[" + ", ".join(map(str, obj.tolist())) + "]").encode()
            return
        # higher ranks go row by row, so float rows still take the array path
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            yield b"{}"
            return
        opening = "{\n"
        for key, value in obj.items():
            yield f"{opening}{pad}  {json.dumps(str(key))}: ".encode()
            yield from _pieces(value, indent + 1)
            opening = ",\n"
        yield f"\n{pad}}}".encode()
    elif isinstance(obj, (list, tuple)):
        # nested structures go one per line, flat numeric rows stay inline
        if any(isinstance(v, _NESTED_TYPES) for v in obj):
            opening = "[\n"
            for value in obj:
                yield f"{opening}{pad}  ".encode()
                yield from _pieces(value, indent + 1)
                opening = ",\n"
            yield f"\n{pad}]".encode()
        else:
            yield ("[" + ", ".join(map(_scalar, obj)) + "]").encode()
    else:
        yield _scalar(obj).encode()


def canonical_pieces(doc):
    """The text of ``canonical_json(doc)`` as pieces of UTF-8 bytes, made as
    they are consumed: ``atomic_write_text`` writes them in turn, so no
    copy of the whole text is ever held."""
    yield from _pieces(doc, 0)
    yield b"\n"


def canonical_json(doc) -> str:
    """JSON text with stable key order, indentation and float formatting."""
    return b"".join(canonical_pieces(doc)).decode("utf-8")


def vector_digest(vec) -> str:
    """Short hex digest of a vector's canonical serialization."""
    payload = canonical_json(np.asarray(vec, dtype=float))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def atomic_write_text(path, text) -> None:
    """Write ``text``, a str or an iterable of UTF-8 byte pieces such as
    ``canonical_pieces``, via a temp file and rename, so failures leave no
    partial file: a piece that raises mid-stream leaves the old file as it
    was."""
    pieces = (text.encode("utf-8"),) if isinstance(text, str) else text
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(pieces)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
