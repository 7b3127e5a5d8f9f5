"""Rectangular grids, sampled fields, finite differences, and quadrature.

Every quantity in this package lives on a uniform :class:`Grid2D` as a
scalar, vector, or matrix sample array.  Arrays are indexed ``[j, i]``
(y index first) so that the C-order flattening is node-major with x
fastest.  Every first derivative in the package, of fields and of raw
arrays with trailing component axes alike, goes through the one kernel
``_partial_values``: second-order stencils, central inside and
one-sided on the boundary.  Integrals use tensor-product trapezoid
sums, over the whole grid or, bit for bit the same, over a box of its
nodes read as its zero extension.  Second-derivative outputs are only
defined on interior nodes and carry NaN on the boundary ring; norms
therefore come in interior-only flavours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "Grid2D",
    "ScalarField",
    "VectorField3",
    "TestFunction",
    "fd_partial",
    "fd_laplacian",
    "quadrature",
    "interior_abs_max",
]


class GridError(ValueError):
    """Invalid grid geometry, sample shape, or grid mismatch."""


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

    def window(self, rows: slice, cols: slice) -> "Grid2D":
        """Grid of the nodes ``[rows, cols]`` (unit-step slices), same spacings."""
        j0, j1, _ = rows.indices(self.ny)
        i0, i1, _ = cols.indices(self.nx)
        return Grid2D(self.x0 + i0 * self.dx, self.y0 + j0 * self.dy,
                      i1 - i0, j1 - j0, self.dx, self.dy)

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


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_values(values: np.ndarray, where: str) -> None:
    if np.isinf(values).any():
        raise GridError(f"{where}: infinite entries are not allowed")
    # NaN marks nodes where a stencil is undefined; it may only appear
    # in the outer two rings.  A NaN in the core is always a bug.
    margin = 2 if min(values.shape[0], values.shape[1]) >= 5 else 1
    core = values[margin:-margin, margin:-margin]
    if np.isnan(core).any():
        raise GridError(f"{where}: NaN on interior nodes")


@dataclass(frozen=True)
class ScalarField:
    """Scalar samples on a grid.

    Core entries must be finite.  The outer two rings may carry NaN,
    the convention used to mark nodes where a derivative stencil is
    undefined or loses accuracy.  Norm helpers skip NaN entries.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise GridError(
                f"scalar samples must have shape {self.grid.shape}, got {values.shape}"
            )
        _check_values(values, "ScalarField")
        object.__setattr__(self, "values", _freeze(values))

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        """Sample ``fn(X, Y)`` at the nodes."""
        X, Y = grid.mesh()
        return cls(grid, np.broadcast_to(fn(X, Y), grid.shape))

    def interior(self) -> np.ndarray:
        return self.values[1:-1, 1:-1]

    def interior_abs_max(self) -> float:
        return interior_abs_max(self.values)


@dataclass(frozen=True)
class VectorField3:
    """R^3-valued samples on a grid, shape ``(ny, nx, 3)``."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape + (3,):
            raise GridError(
                f"vector samples must have shape {self.grid.shape + (3,)}, got {values.shape}"
            )
        _check_values(values, "VectorField3")
        object.__setattr__(self, "values", _freeze(values))


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

    def sample(self, grid: Grid2D) -> ScalarField:
        X, Y = grid.mesh()
        return ScalarField(grid, self.value(X, Y))

    def grad_sample(self, grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
        X, Y = grid.mesh()
        return self.grad(X, Y)

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


def _partial_values(values: np.ndarray, grid: Grid2D, axis: str) -> np.ndarray:
    """Second-order partial of a raw ``(ny, nx, ...)`` array along ``axis``."""
    if axis == "x":
        return np.gradient(values, grid.dx, axis=1, edge_order=2)
    if axis == "y":
        return np.gradient(values, grid.dy, axis=0, edge_order=2)
    raise GridError(f"axis must be 'x' or 'y', got {axis!r}")


def fd_partial(field: ScalarField, axis: str) -> ScalarField:
    """Second-order partial derivative along ``axis``.

    Central differences on interior nodes, second-order one-sided
    stencils on the boundary, so the output is defined everywhere.
    """
    return ScalarField(field.grid, _partial_values(field.values, field.grid, axis))


def fd_laplacian(field: ScalarField) -> ScalarField:
    """Five-point Laplacian; boundary ring is NaN (no stencil there)."""
    g = field.grid
    v = field.values
    out = np.full(g.shape, np.nan)
    out[1:-1, 1:-1] = (
        (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / g.dx**2
        + (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / g.dy**2
    )
    return ScalarField(g, out)


def quadrature(field: ScalarField, within: Grid2D | None = None) -> float:
    """Tensor-product trapezoid integral over the full grid rectangle.

    A field whose support extends past the rectangle is integrated over
    the rectangle only; the truncation is the caller's responsibility.

    With ``within``, ``field`` samples a box of that grid's nodes (a
    ``within.window``) and the result is the integral over ``within`` of
    its zero extension, equal bit for bit to the full-grid integral of
    the zero-padded samples.  The box's x-trapezoid terms, plus the two
    half terms that straddle its left and right edges, are written at
    their own columns of a zero array ``nx - 1`` wide; each row is
    summed and the sums are written at their own rows of a zero vector
    ``ny`` long, which gets the same y-trapezoid.  numpy's pairwise sums
    then meet the same operands in the same positions as on the padded
    grid; a trapezoid over the box as a grid of its own would regroup
    them and move the result at rounding level.  Products and the x
    terms cost the box's nodes, the row sums its rows of ``nx``.
    """
    if np.isnan(field.values).any():
        raise GridError("quadrature requires finite samples everywhere")
    g = field.grid
    if within is None:
        return float(np.trapezoid(np.trapezoid(field.values, dx=g.dx, axis=1), dx=g.dy))
    i0 = round((g.x0 - within.x0) / within.dx)
    j0 = round((g.y0 - within.y0) / within.dy)
    i1, j1 = i0 + g.nx, j0 + g.ny
    if not (0 <= i0 and i1 <= within.nx and 0 <= j0 and j1 <= within.ny
            and within.window(slice(j0, j1), slice(i0, i1)).matches(g)):
        raise GridError(f"{g} is not a box of nodes of {within}")
    v, d = field.values, within.dx
    terms = np.zeros((g.ny, within.nx - 1))
    terms[:, i0:i1 - 1] = d * (v[:, 1:] + v[:, :-1]) / 2.0
    if i0 > 0:
        terms[:, i0 - 1] = d * (v[:, 0] + 0.0) / 2.0
    if i1 < within.nx:
        terms[:, i1 - 1] = d * (0.0 + v[:, -1]) / 2.0
    rows = np.zeros(within.ny)
    rows[j0:j1] = terms.sum(axis=1)
    return float(np.trapezoid(rows, dx=within.dy))


def interior_abs_max(values: np.ndarray) -> float:
    """Max-abs over interior nodes of a raw ``(ny, nx, ...)`` array."""
    core = values[1:-1, 1:-1]
    return float(np.nanmax(np.abs(core)))
