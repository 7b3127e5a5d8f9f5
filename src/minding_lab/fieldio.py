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
CSV export is one node per row with x, y and the components as columns,
written as ``csv.writer`` writes them (floats through ``repr``).
"""

from __future__ import annotations

import base64
import csv
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .grid import Grid2D, GridError

__all__ = ["write_field", "read_field", "write_csv"]


def _flatten(grid: Grid2D, channels: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The channel names and their ``(ny, nx)`` planes, node-major."""
    planes = [np.asarray(arr, dtype=float) for arr in channels.values()]
    for name, arr in zip(channels, planes):
        if arr.shape != grid.shape:
            raise GridError(f"channel {name!r} has shape {arr.shape}, grid is {grid.shape}")
    return list(channels), np.stack(planes, axis=-1).reshape(-1)


def write_field(path: str | Path, grid: Grid2D, channels: dict[str, np.ndarray]) -> None:
    """Write named components on one grid to a JSON field file."""
    names, flat = _flatten(grid, channels)
    payload = base64.b64encode(np.ascontiguousarray(flat, dtype="<f8").tobytes())
    doc = {
        "nx": grid.nx,
        "ny": grid.ny,
        "x0": grid.x0,
        "y0": grid.y0,
        "dx": grid.dx,
        "dy": grid.dy,
        "components": names,
        "values": payload.decode("ascii"),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


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


def _values(values, size: int) -> np.ndarray:
    """The ``size`` float64 values of a payload string or a value list."""
    if type(values) is str:
        # validate=True refuses characters outside the alphabet and bad
        # padding; non-ASCII text raises ValueError
        raw = base64.b64decode(values, validate=True)
        if len(raw) != 8 * size:
            raise GridError(f"expected {size} values ({8 * size} bytes), got {len(raw)} bytes")
        # frombuffer is read-only and little-endian: copy to native float64
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)
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
