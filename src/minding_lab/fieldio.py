"""Field file I/O.

One JSON file holds a grid header plus any number of named components
in node-major order (x fastest, components interleaved per node):

    {"nx": ..., "ny": ..., "x0": ..., "y0": ..., "dx": ..., "dy": ...,
     "components": ["u"], "values": "<base64>"}

``values`` is the base64 text of the flat little-endian float64 array,
``8*nx*ny*ncomp`` bytes, and ``flat[(j*nx + i)*ncomp + k]`` is component
``k`` at node ``(i, j)``.  The payload carries the IEEE bits themselves,
so every value survives a write/read cycle bit for bit (NaN payloads,
-0.0, subnormals and infinities included) and the file stays standard
JSON.  The reader also takes ``values`` as a flat list of numbers and
nulls (null reads as NaN) in the same order, the form of hand-written
files and of files saved before the binary payload.
The reader takes exactly these eight keys, integer node counts and
distinct string component names, and refuses anything else: a payload
outside the base64 alphabet, badly padded or of the wrong length, or a
list holding anything but numbers and nulls.
Both directions hold about one payload at a time.  The writer streams
the bytes ``json.dumps`` gives the document, the payload's text a slice
at a time; the reader decodes the payload string a slice at a time
into the array it returns, and takes and refuses exactly what one
``base64.b64decode(values, validate=True)`` call does.
CSV export is one node per row with x, y and the components as columns,
written as ``csv.writer`` writes them (floats through ``repr``).
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .grid import Grid2D, GridError

__all__ = ["write_field", "read_field", "write_csv"]

# payload bytes per base64 slice, a multiple of 3 so that the slices'
# text joins into the whole payload's; the reader's slices are that text
_CHUNK = 3 << 16


def _flatten(grid: Grid2D, channels: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The channel names and their ``(ny, nx)`` planes, node-major."""
    if not channels:
        raise GridError("a field needs at least one channel")
    planes = [np.asarray(arr, dtype=float) for arr in channels.values()]
    for name, arr in zip(channels, planes):
        if arr.shape != grid.shape:
            raise GridError(f"channel {name!r} has shape {arr.shape}, grid is {grid.shape}")
    return list(channels), np.stack(planes, axis=-1).reshape(-1)


def write_field(path: str | Path, grid: Grid2D, channels: dict[str, np.ndarray]) -> None:
    """Write named components on one grid to a JSON field file.

    The bytes are those of ``json.dumps`` of the document plus ``"\\n"``,
    streamed: the header is dumped with an empty payload and cut before
    its closing ``"}``, and the payload follows it ``_CHUNK`` bytes of
    the flat array at a time, so only the flat array is held whole.
    """
    names, flat = _flatten(grid, channels)
    data = memoryview(np.ascontiguousarray(flat, dtype="<f8")).cast("B")
    doc = {
        "nx": grid.nx,
        "ny": grid.ny,
        "x0": grid.x0,
        "y0": grid.y0,
        "dx": grid.dx,
        "dy": grid.dy,
        "components": names,
        "values": "",
    }
    head = json.dumps(doc)
    with open(path, "wb") as handle:
        handle.write(head[:-2].encode("ascii"))
        for at in range(0, len(data), _CHUNK):
            handle.write(binascii.b2a_base64(data[at:at + _CHUNK], newline=False))
        handle.write(b'"}\n')


_HEADER_INTS = ("nx", "ny")
_HEADER_REALS = ("x0", "y0", "dx", "dy")
_KEYS = frozenset(_HEADER_INTS + _HEADER_REALS + ("components", "values"))
_VALUE_TYPES = frozenset({float, int, type(None)})


def _header(doc) -> tuple[Grid2D, list[str]]:
    """Grid and component names of a parsed field document.

    Checks the header and the component list only; ``_values`` checks
    ``values``.
    """
    if not isinstance(doc, dict):
        raise GridError("top level must be a JSON object")
    if doc.keys() != _KEYS:
        raise GridError(
            f"missing keys {sorted(_KEYS - doc.keys())}, "
            f"unknown keys {sorted(doc.keys() - _KEYS)}"
        )
    for key in _HEADER_INTS:
        if type(doc[key]) is not int:
            raise GridError(f"{key} must be an integer, got {type(doc[key]).__name__}")
    for key in _HEADER_REALS:
        if type(doc[key]) not in (int, float):
            raise GridError(f"{key} must be a number, got {type(doc[key]).__name__}")
    names = doc["components"]
    if not isinstance(names, list) or not all(type(name) is str for name in names):
        raise GridError("components must be a list of strings")
    if len(set(names)) != len(names):
        raise GridError("component names must be distinct")
    grid = Grid2D(float(doc["x0"]), float(doc["y0"]), doc["nx"], doc["ny"],
                  float(doc["dx"]), float(doc["dy"]))
    return grid, names


def _decoded_slices(text: str, size: int) -> np.ndarray | None:
    """The ``size`` little-endian float64 values of a base64 payload,
    decoded ``4 * _CHUNK // 3`` characters at a time into one array, or
    ``None`` if a slice fails or the bytes cannot fill the array exactly.

    Each slice is taken as ``base64.b64decode(..., validate=True)``
    takes it.  Every slice but the last is a multiple of 4 long and must
    hold no padding, so each ends where a whole-string decode ends a
    quad, and together they decode to what the whole string does.
    """
    if 32 * size > 3 * len(text):
        return None  # too short to hold the values; allocate nothing
    flat = np.empty(size, dtype="<f8")
    out, at, step = memoryview(flat).cast("B"), 0, 4 * (_CHUNK // 3)
    for start in range(0, len(text), step):
        piece = text[start:start + step]
        if start + step < len(text) and "=" in piece:
            return None
        try:
            part = base64.b64decode(piece, validate=True)
        except ValueError:
            return None
        if at + len(part) > out.nbytes:
            return None
        out[at:at + len(part)] = part
        at += len(part)
    return flat if at == out.nbytes else None


def _values(values, size: int) -> np.ndarray:
    """The ``size`` float64 values of a payload string or a value list."""
    if type(values) is str:
        # slices where they decode, else the whole string in one call,
        # which returns its value or raises its error
        flat = _decoded_slices(values, size)
        if flat is None:
            # validate=True refuses characters outside the alphabet and bad
            # padding; non-ASCII text raises ValueError
            raw = base64.b64decode(values, validate=True)
            if len(raw) != 8 * size:
                raise GridError(f"expected {size} values ({8 * size} bytes), "
                                f"got {len(raw)} bytes")
            flat = np.frombuffer(raw, dtype="<f8")
        # frombuffer is read-only; both are little-endian: to native float64
        return flat.astype(np.float64, copy=not flat.flags.writeable)
    # a bool or a numeric string would cast like a number
    if type(values) is not list or not set(map(type, values)) <= _VALUE_TYPES:
        raise GridError("values must be a base64 string or a flat list of numbers and nulls")
    flat = np.array(values, dtype=float)  # null -> NaN
    if flat.size != size:
        raise GridError(f"expected {size} values, got {flat.size}")
    return flat


def read_field(path: str | Path) -> tuple[Grid2D, dict[str, np.ndarray]]:
    """Read a JSON field file back into a grid and per-component arrays.

    Any malformed file, including one that is not UTF-8 or not JSON,
    raises ``GridError`` naming the path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        grid, names = _header(doc)
        flat = _values(doc["values"], grid.nx * grid.ny * len(names))
    except (OverflowError, RecursionError, ValueError) as exc:
        # ValueError covers GridError, JSONDecodeError, UnicodeDecodeError
        # and binascii.Error
        raise GridError(f"{path}: malformed field file ({exc})") from exc
    cube = flat.reshape(grid.ny, grid.nx, len(names))
    return grid, {name: cube[:, :, k] for k, name in enumerate(names)}


def write_csv(path: str | Path, grid: Grid2D, channels: dict[str, np.ndarray]) -> None:
    """Write one row per node with columns x, y and the channel values.

    The bytes are those of ``csv.writer`` with one float row per node:
    floats through ``repr``, ``,`` between cells and ``\\r\\n`` after
    each row.  Each x is formatted once per column and each y once per
    row, and a grid row goes out as one string.
    """
    names, flat = _flatten(grid, channels)
    cube = flat.reshape(grid.ny, grid.nx, len(names))
    xs = list(map(repr, grid.x().tolist()))
    with open(path, "w", newline="") as handle:
        # component names may need quoting
        csv.writer(handle).writerow(["x", "y", *names])
        for y, plane in zip(grid.y().tolist(), cube):
            columns = [list(map(repr, column)) for column in plane.T.tolist()]
            nodes = map(",".join, zip(xs, repeat(repr(y)), *columns))
            handle.write("\r\n".join(nodes) + "\r\n")
