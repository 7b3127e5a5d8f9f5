"""Rectangular grids, sampled fields, finite differences, and quadrature.

Every quantity in this package lives on a uniform :class:`Grid2D` as a
scalar, vector, or matrix sample array.  Arrays are indexed ``[j, i]``
(y index first) so that the C-order flattening is node-major with x
fastest.  A field wraps samples that enter the library: every field
class is a :class:`Field` keyed by its shape per node, whose one check
refuses a wrong shape or a non-finite sample.  A field's samples are
read-only, and a field takes them by one rule: a read-only array is
taken as it is, views included, and a writeable one is copied.  A
producer that is done with an array freezes it and hands it over, so
its fields share it; nothing may write to an array once it is frozen.
Derivatives, curvatures and residuals are plain arrays, and a kernel
returns the nodes it defines and no others.  Every first derivative in
the package, of fields' samples and of arrays with trailing component
axes alike, goes through the one kernel ``fd_partial``: second-order
stencils, central inside and one-sided on the boundary, so it is
defined everywhere.
Every second difference along one axis goes through ``_second_values``,
the five-point Laplacian's included; the Laplacian is defined on the
interior nodes only and returns those.  Integrals are tensor-product
trapezoid sums of sample arrays over a box of the grid's nodes given as
unit-step row and column slices; a box whose edge nodes are zero
integrates, up to rounding, as its zero extension."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "GridError",
    "SolverError",
    "Grid2D",
    "Field",
    "ScalarField",
    "VectorField3",
    "TestFunction",
    "fd_partial",
    "fd_laplacian",
    "quadrature",
    "interior_abs_max",
    "BAND",
    "bands",
]


class GridError(ValueError):
    """Invalid grid geometry, sample shape, or grid mismatch."""


class SolverError(Exception):
    """A solver gave up: the base of every breakdown the command line
    reports with exit 4.  Each subclass also keeps its builtin base."""


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise GridError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid with nodes ``(x0 + i*dx, y0 + j*dy)``.

    Parameters
    ----------
    x0, y0 : float
        Coordinates of the first node.
    nx, ny : int
        Node counts per axis; at least 3 so that interior stencils exist.
    dx, dy : float
        Positive node spacings.
    """

    x0: float
    y0: float
    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise GridError(f"need nx, ny >= 3, got {self.nx} x {self.ny}")
        for name in ("x0", "y0", "dx", "dy"):
            _require_finite(name, getattr(self, name))
        if self.dx <= 0.0 or self.dy <= 0.0:
            raise GridError(f"spacings must be positive, got dx={self.dx}, dy={self.dy}")

    @classmethod
    def from_bounds(cls, x0: float, x1: float, y0: float, y1: float,
                    nx: int, ny: int) -> "Grid2D":
        """Grid covering ``[x0, x1] x [y0, y1]`` inclusively with nx*ny nodes."""
        if not (x1 > x0 and y1 > y0):
            raise GridError("bounds must satisfy x1 > x0 and y1 > y0")
        return cls(x0, y0, nx, ny, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1))

    @property
    def shape(self) -> tuple[int, int]:
        """Sample-array shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    @property
    def h(self) -> float:
        """Coarsest spacing, the h used in h**2-scaled tolerances."""
        return max(self.dx, self.dy)

    @property
    def x1(self) -> float:
        return self.x0 + (self.nx - 1) * self.dx

    @property
    def y1(self) -> float:
        return self.y0 + (self.ny - 1) * self.dy

    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays ``X, Y`` of shape ``(ny, nx)``."""
        return np.meshgrid(self.x(), self.y())

    def refined(self) -> "Grid2D":
        """Grid with both spacings halved and the same extent."""
        return Grid2D(self.x0, self.y0, 2 * self.nx - 1, 2 * self.ny - 1,
                      0.5 * self.dx, 0.5 * self.dy)

    def matches(self, other: "Grid2D") -> bool:
        """Same node counts, and origin and spacings equal to a relative 1e-12."""
        if (self.nx, self.ny) != (other.nx, other.ny):
            return False
        scale = max(abs(self.dx), abs(self.dy), 1.0)
        return all(
            abs(getattr(self, k) - getattr(other, k)) <= 1e-12 * scale
            for k in ("x0", "y0", "dx", "dy")
        )

    def require_matches(self, other: "Grid2D") -> None:
        if not self.matches(other):
            raise GridError(f"grids differ: {self} vs {other}")


def _samples(values, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """``values`` as a ``dtype`` array, refused unless it has ``shape`` and
    is finite at every node."""
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != shape:
        raise GridError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise GridError(f"{what} must be finite at every node")
    return arr


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values``, made read-only, for a field to take over."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Field:
    """Read-only samples on a grid, an array of ``node_shape`` at each
    node, finite at every node."""

    grid: Grid2D
    values: np.ndarray

    node_shape: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self) -> None:
        values = _samples(self.values, self.grid.shape + self.node_shape,
                          f"{type(self).__name__} samples")
        # a read-only array is handed over; a writeable one is copied
        if values is self.values and values.flags.writeable:
            values = values.copy()
        object.__setattr__(self, "values", _frozen(values))


class ScalarField(Field):
    """Scalar samples, shape ``(ny, nx)``."""

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        """Sample ``fn(X, Y)`` at the nodes."""
        X, Y = grid.mesh()
        values = np.empty(grid.shape)
        values[...] = fn(X, Y)
        return cls(grid, _frozen(values))


class VectorField3(Field):
    """R^3-valued samples, shape ``(ny, nx, 3)``."""

    node_shape = (3,)


@dataclass(frozen=True)
class TestFunction:
    """Radial C^1 bump ``((1 - rho^2)_+)^2`` with closed-form gradient.

    ``rho`` is the distance from ``(cx, cy)`` scaled by the radius ``r``.
    The value and both partials vanish on the support circle, so the
    bump is C^1 across it; the exact integral over a fully contained
    support is ``pi * r**2 / 3``.
    """

    cx: float
    cy: float
    r: float

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "r"):
            _require_finite(name, getattr(self, name))
        if self.r <= 0.0:
            raise GridError(f"bump radius must be positive, got {self.r}")

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        rho2 = ((np.asarray(x) - self.cx) ** 2 + (np.asarray(y) - self.cy) ** 2) / self.r**2
        w = np.maximum(1.0 - rho2, 0.0)
        return w * w

    def grad(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact gradient; continuous (and zero) on the support circle."""
        dx = np.asarray(x) - self.cx
        dy = np.asarray(y) - self.cy
        w = np.maximum(1.0 - (dx * dx + dy * dy) / self.r**2, 0.0)
        factor = -4.0 * w / self.r**2
        return factor * dx, factor * dy

    def exact_integral(self) -> float:
        return math.pi * self.r**2 / 3.0

    def node_box(self, grid: Grid2D) -> tuple[slice, slice]:
        """Row and column slices of the nodes where the bump can be
        nonzero, widened by one node on each side (and to at least three).

        Outside the box the value and both partials are exactly zero,
        not merely small: each axis test below performs the floating
        point operations of ``value`` and ``grad`` on one squared offset,
        and adding the other (nonnegative) one can only raise ``rho^2``.
        """
        return _support_span(grid.y(), self.cy, self.r), _support_span(grid.x(), self.cx, self.r)

    def supported_inside(self, grid: Grid2D) -> bool:
        """True if the support disk stays more than one cell from the edge."""
        cx, cy, r = self.cx, self.cy, self.r
        return (
            cx - r > grid.x0 + grid.dx
            and cx + r < grid.x1 - grid.dx
            and cy - r > grid.y0 + grid.dy
            and cy + r < grid.y1 - grid.dy
        )


def _support_span(nodes: np.ndarray, c: float, r: float) -> slice:
    near = np.flatnonzero((nodes - c) ** 2 / r**2 < 1.0)
    if near.size == 0:
        # no node within a radius: the bump vanishes on every node
        near = [int(np.argmin(np.abs(nodes - c)))]
    lo = max(int(near[0]) - 1, 0)
    hi = min(int(near[-1]) + 2, nodes.size)
    return slice(min(lo, nodes.size - 3), max(hi, 3))


# entries a band holds: every kernel that works a band at a time cuts
# its bands by this budget
BAND = 1 << 12


def bands(count: int, per: int, budget: int | None = None) -> list[slice]:
    """``count`` items as consecutive slices of ``budget // per`` items
    each, at least one, ``per`` entries to an item (an item of none
    counts one).  ``budget`` defaults to ``BAND``, read at call time."""
    size = max(1, (BAND if budget is None else budget) // max(per, 1))
    return [slice(k, min(k + size, count)) for k in range(0, count, size)]


def fd_partial(values: np.ndarray, grid: Grid2D, axis: str) -> np.ndarray:
    """Second-order partial of a ``(ny, nx, ...)`` array along ``axis``.

    Central differences on interior nodes, second-order one-sided
    stencils on the boundary, so the output is defined everywhere.
    """
    if axis == "x":
        return np.gradient(values, grid.dx, axis=1, edge_order=2)
    if axis == "y":
        return np.gradient(values, grid.dy, axis=0, edge_order=2)
    raise GridError(f"axis must be 'x' or 'y', got {axis!r}")


def _second_values(values: np.ndarray, grid: Grid2D, axis: str) -> np.ndarray:
    """Second difference of a ``(ny, nx, ...)`` array along ``axis``.

    Three points inside, third-order one-sided closures at the two ends
    so they do not dominate the sup error.  Working from the raw samples
    keeps the truncation constant small and uniformly second order;
    stacking two first-derivative passes along one axis would lose an
    order on the boundary rings.
    """
    at, step = (1, grid.dx) if axis == "x" else (0, grid.dy)
    v = np.moveaxis(values, at, 0)
    out = np.empty_like(v)
    out[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    n = v.shape[0]
    if n >= 5:
        out[0] = (35.0 * v[0] - 104.0 * v[1] + 114.0 * v[2]
                  - 56.0 * v[3] + 11.0 * v[4]) / 12.0
        out[-1] = (35.0 * v[-1] - 104.0 * v[-2] + 114.0 * v[-3]
                   - 56.0 * v[-4] + 11.0 * v[-5]) / 12.0
    elif n == 4:
        out[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
        out[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
    else:
        out[0] = out[-1] = out[1]
    return np.moveaxis(out, 0, at) / step**2


def fd_laplacian(values: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Five-point Laplacian of a ``(ny, nx)`` array on its interior nodes,
    the only ones it is defined on: shape ``(ny - 2, nx - 2)``.  Non-finite
    samples pass through."""
    return (_second_values(values[1:-1], grid, "x")[:, 1:-1]
            + _second_values(values[:, 1:-1], grid, "y")[1:-1])


def quadrature(values: np.ndarray, grid: Grid2D, box: tuple[slice, slice]) -> float:
    """Tensor-product trapezoid integral over a box of the grid.

    ``box`` is unit-step ``(rows, cols)`` slices such as
    ``TestFunction.node_box`` returns, ``values`` holds the samples at
    ``grid[box]``, and the result is the trapezoid over the box's own
    rectangle with the grid's spacings.  For samples that vanish on the
    box's edge nodes that is, up to rounding, the full-grid integral of
    their zero extension; ``(slice(None), slice(None))`` is the whole
    grid.
    """
    rows, cols = box
    (j0, j1, sj), (i0, i1, si) = rows.indices(grid.ny), cols.indices(grid.nx)
    if (sj, si) != (1, 1):
        raise GridError(f"box slices must have step 1, got steps {sj} and {si}")
    if values.shape != (j1 - j0, i1 - i0):
        raise GridError(f"samples must have shape {(j1 - j0, i1 - i0)}, got {values.shape}")
    if not np.isfinite(values).all():
        raise GridError("quadrature requires finite samples everywhere")
    return float(np.trapezoid(np.trapezoid(values, dx=grid.dx, axis=1), dx=grid.dy))


def interior_abs_max(values: np.ndarray) -> float:
    """Max-abs over interior nodes of a ``(ny, nx, ...)`` array."""
    return float(np.max(np.abs(values[1:-1, 1:-1])))
