"""Field file I/O.

One JSON file holds a grid header plus any number of named components
in node-major order (x fastest, components interleaved per node):

    {"nx": ..., "ny": ..., "x0": ..., "y0": ..., "dx": ..., "dy": ...,
     "components": ["u"], "values": [...]}

``values[(j*nx + i)*ncomp + k]`` is component ``k`` at node ``(i, j)``.
The reader takes exactly these eight keys, integer node counts,
distinct string component names and a flat list of numbers and nulls,
and refuses anything else.
Floats survive a write/read cycle bit-exactly (shortest-repr JSON
floats); NaN entries are stored as ``null`` to stay standard JSON.
CSV export is one node per row with x, y and the components as columns.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grid import Grid2D, GridError

__all__ = ["write_field", "read_field", "write_csv"]


def _flatten(grid: Grid2D, channels: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    names: list[str] = []
    planes: list[np.ndarray] = []
    for name, arr in channels.items():
        arr = np.asarray(arr, dtype=float)
        if arr.shape == grid.shape:
            names.append(name)
            planes.append(arr)
        elif arr.ndim == 3 and arr.shape[:2] == grid.shape:
            for k in range(arr.shape[2]):
                names.append(f"{name}_{k}")
                planes.append(arr[:, :, k])
        else:
            raise GridError(f"channel {name!r} has shape {arr.shape}, grid is {grid.shape}")
    if len(set(names)) != len(names):
        raise GridError(f"component names collide: {names}")
    stacked = np.stack(planes, axis=-1)  # (ny, nx, ncomp)
    return names, stacked.reshape(-1)


def write_field(path: str | Path, grid: Grid2D, channels: dict[str, np.ndarray]) -> None:
    """Write named components on one grid to a JSON field file."""
    names, flat = _flatten(grid, channels)
    values = flat.tolist()
    for k in np.flatnonzero(np.isnan(flat)):
        values[k] = None
    doc = {
        "nx": grid.nx,
        "ny": grid.ny,
        "x0": grid.x0,
        "y0": grid.y0,
        "dx": grid.dx,
        "dy": grid.dy,
        "components": names,
        "values": values,
    }
    Path(path).write_text(json.dumps(doc) + "\n")


_HEADER_INTS = ("nx", "ny")
_HEADER_REALS = ("x0", "y0", "dx", "dy")
_KEYS = frozenset(_HEADER_INTS + _HEADER_REALS + ("components", "values"))
_VALUE_TYPES = frozenset({float, int, type(None)})


def _header(doc) -> tuple[Grid2D, list[str]]:
    """Grid and component names of a parsed field document.

    Checks the header and the component list only; ``read_field``
    checks ``values`` by one pass over the set of its value types.
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


def read_field(path: str | Path) -> tuple[Grid2D, dict[str, np.ndarray]]:
    """Read a JSON field file back into a grid and per-component arrays.

    Any malformed file, including one that is not UTF-8 or not JSON,
    raises ``GridError`` naming the path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        grid, names = _header(doc)
        values = doc["values"]
        # a bool or a numeric string would cast like a number
        if type(values) is not list or not set(map(type, values)) <= _VALUE_TYPES:
            raise GridError("values must be a flat list of numbers and nulls")
        flat = np.array(values, dtype=float)  # null -> NaN
    except (OverflowError, RecursionError, ValueError) as exc:
        # ValueError covers GridError, JSONDecodeError and UnicodeDecodeError
        raise GridError(f"{path}: malformed field file ({exc})") from exc
    ncomp = len(names)
    if flat.size != grid.nx * grid.ny * ncomp:
        raise GridError(
            f"{path}: expected {grid.nx * grid.ny * ncomp} values, got {flat.size}"
        )
    cube = flat.reshape(grid.ny, grid.nx, ncomp)
    return grid, {name: cube[:, :, k] for k, name in enumerate(names)}


def write_csv(path: str | Path, grid: Grid2D, channels: dict[str, np.ndarray]) -> None:
    """Write one row per node with columns x, y and the channel values."""
    names, flat = _flatten(grid, channels)
    cube = flat.reshape(grid.ny, grid.nx, len(names))
    # one grid row at a time; csv writes floats through repr
    rows = np.empty((grid.nx, 2 + len(names)))
    rows[:, 0] = grid.x()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", *names])
        for y, plane in zip(grid.y(), cube):
            rows[:, 1] = y
            rows[:, 2:] = plane
            writer.writerows(rows.tolist())
