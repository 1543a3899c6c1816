"""Bit-stable JSON helpers for complex matrices, numeric fields and config
hashing.

Two array encodings, both exact bit for bit:

* Files people write by hand (datasets, config sections) hold complex
  matrices as flat row-major lists of ``[re, im]`` pairs.  Floats go
  through Python's shortest round-trip repr.  Both directions convert
  whole arrays at once: a complex array is written through its float64
  view and ``tolist()``, and pairs are read back with one ``np.array`` call
  that refuses anything but numbers (strings, nulls, ragged or wrongly
  shaped pairs).  A stack of matrices, such as the measurement bases of a
  dataset, converts in one call the same way.
* Model and posterior files hold each array as one base64 string of its
  row-major little-endian bytes (``<c16`` or ``<f8``); the shape comes from
  the file's dimensions.  ``array_to_b64`` writes it and ``b64_to_array``
  refuses anything but a string of valid base64 with exactly the expected
  byte count.

Integer fields (dimensions, steps, outcomes) must be JSON integers:
``ensure_int`` refuses floats, bools and strings instead of truncating them.
A period must be a JSON number: ``ensure_number`` refuses bools and strings.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .qla import CMatrix


def _float_pairs(m) -> np.ndarray:
    """Float64 view of a complex array: its last axis doubled to (re, im)."""
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)


def matrix_to_pairs(m: CMatrix) -> list:
    """Flatten a complex matrix to row-major ``[re, im]`` pairs; a stack
    ``(..., rows, cols)`` gives one such list per matrix."""
    *lead, rows, cols = np.shape(m)
    return _float_pairs(m).reshape(*lead, rows * cols, 2).tolist()


def pairs_to_matrices(stack: list, rows: int, cols: int) -> CMatrix:
    """Rebuild a stack ``(len(stack), rows, cols)`` from one list of
    row-major ``[re, im]`` pairs per matrix, in one conversion; one matrix
    is ``pairs_to_matrices([pairs], rows, cols)[0]``."""
    if not stack:
        return np.empty((0, rows, cols), dtype=np.complex128)
    arr = np.array(stack)
    if arr.dtype == object and all(isinstance(x, (int, float)) for x in arr.flat):
        # Integers numpy holds as objects (beyond 64 bits, or mixed signed
        # and unsigned 64-bit ranges) convert one by one, as complex() would.
        try:
            arr = arr.astype(np.float64)
        except OverflowError as exc:
            raise ValueError(str(exc)) from exc
    if arr.dtype.kind not in "biuf" or arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValueError("entries must be [re, im] pairs of numbers")
    if arr.shape[1:] != (rows * cols, 2):
        raise ValueError(f"expected {rows * cols} entries, got {arr.shape[1]}")
    return arr.astype(np.float64).view(np.complex128).reshape(-1, rows, cols)


def array_to_b64(a, dtype: str) -> str:
    """Base64 of the row-major bytes of ``a`` as ``dtype`` (``"<c16"`` or
    ``"<f8"``)."""
    import base64  # see b64_to_array
    return base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode("ascii")


def b64_to_array(s: Any, dtype: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Writable native-order array of ``shape`` from :func:`array_to_b64`
    output; anything but a base64 string of exactly that many entries is
    refused."""
    # Imported on use: only model and posterior files need the module, and
    # at import it costs commands that read neither (tomo) about 0.25 MB of
    # peak RSS.
    import base64
    if not isinstance(s, str):
        raise ValueError(f"{name} must be a base64 string, got {type(s).__name__}")
    try:
        raw = base64.b64decode(s, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII characters
        raise ValueError(f"{name} is not valid base64: {exc}") from exc
    want = np.dtype(dtype)
    count = math.prod(shape)
    if len(raw) != count * want.itemsize:
        raise ValueError(f"{name} must hold {count} {dtype} entries "
                         f"({count * want.itemsize} bytes), got {len(raw)} bytes")
    return np.frombuffer(raw, dtype=want).reshape(shape).astype(want.newbyteorder("="))


def ensure_int(x: Any, name: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def ensure_number(x: Any, name: str) -> float:
    """A JSON number as a float; bools and strings are refused, not parsed."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of the float range: {exc}") from exc


def canonical_dumps(obj: Any) -> str:
    """Deterministic single-line JSON: sorted keys, no whitespace padding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable object."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()[:16]
