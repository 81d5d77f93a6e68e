"""Deterministic text serialization helpers.

All numeric output (instance files, result files, trace CSVs) follows one
rule, ``format_real``: 17 significant digits, so reruns with identical
inputs produce byte-identical files and every value round-trips to the
exact same double. The one exception is a quadratic's matrix in an
instance file, which is stored as the exact bits of its entries, packed to
base64 text (``problems.problem_to_document``).

``canonical_json`` takes lists and numpy arrays alike and writes the same
bytes for both. A 1-D float array takes an array path: one ``isfinite``
check for the whole row, then one ``%`` operation over a template of
``%.17g`` specs, with ``.0`` after the ones a vectorized test finds
integral, which is the text ``format_real`` writes for every entry.
A 1-D integer array is written from its ``tolist()`` in one join. That is
what makes the sparse constraint rows of instance files cheap to write.
Higher-rank arrays are rendered row by row, one row per line, and are
never flattened into one list of strings.
"""

from __future__ import annotations

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


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_real(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return _render_reals(obj)
        if obj.ndim == 1 and obj.dtype.kind in "iu":
            return "[" + ", ".join(map(str, obj.tolist())) + "]"
        # higher ranks go row by row, so float rows still take the array path
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        # nested structures go one per line, flat numeric rows stay inline
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            inner = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in items)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(_render(v, indent) for v in items) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(doc) -> str:
    """JSON text with stable key order, indentation and float formatting."""
    return _render(doc, 0) + "\n"


def vector_digest(vec) -> str:
    """Short hex digest of a vector's canonical serialization."""
    payload = canonical_json(np.asarray(vec, dtype=float))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
