"""First and second fundamental forms, connections, and curvature.

Metric quantities are sampled coefficient fields E, F, G; second-form
coefficients are written ell, m, n.  Two separate curvature routes are
kept deliberately: the determinant formula (ell*n - m^2)/(EG - F^2)
from the forms of an immersion, and -laplacian(ln h)/h^2 for a
conformal factor h.  Agreement between them on the same data is one of
the checks this package exists to run, so neither is expressed through
the other.

The frame W = (f_x, f_y, N) of a conformal (isothermic) immersion with
|f_x| = |f_y| = h, <f_x, f_y> = 0 satisfies W_x = W A, W_y = W B with

    A = [[ h_x/h,  h_y/h, -ell/h^2],      B = [[ h_y/h, -h_x/h, -m/h^2],
         [-h_y/h,  h_x/h, -m/h^2  ],           [ h_x/h,  h_y/h, -n/h^2],
         [ ell,    m,      0      ]]           [ m,      n,      0    ]]

and the flatness of ambient space makes A_y - B_x = AB - BA, which
``weak.frame_weak_compatibility`` checks in weak form.
``isothermic_connection`` writes each one's eight entries but (2, 2),
row by row through one slot table, into the array its field then
takes over.

Fields and forms enter as samples; ``FrameField`` is a ``grid.Field``
with a 3 x 3 matrix at each node, and ``SecondForm`` runs the same
shape and finiteness check on each coefficient.  Curvatures are
returned as plain arrays holding only the nodes their stencils define:
every node for the determinant formula, the interior for the isothermic
one.  ``normal_and_second_form`` works in bands of rows, each read
with the halo its stencils need, so it holds band-sized temporaries
and returns bitwise what one whole-grid pass returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    Grid2D,
    GridError,
    ScalarField,
    SolverError,
    VectorField3,
    _frozen,
    _samples,
    bands,
    fd_laplacian,
    fd_partial,
)

__all__ = [
    "DegenerateMetricError",
    "MetricField",
    "SecondForm",
    "FrameField",
    "induced_metric",
    "normal_and_second_form",
    "isothermic_connection",
    "gauss_curvature_from_forms",
    "gauss_curvature_isothermic",
]


class DegenerateMetricError(SolverError, ValueError):
    """Metric determinant vanished (or went negative) somewhere."""


@dataclass(frozen=True)
class MetricField:
    """First-form coefficients E, F, G on one grid."""

    grid: Grid2D
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self) -> None:
        for name in ("E", "F", "G"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise GridError(f"{name} must have shape {self.grid.shape}")
            object.__setattr__(self, name, arr)
        det = self.det()
        if not np.isfinite(det).all() or det.min() <= 0.0:
            bad = np.argwhere(~(det > 0.0))
            raise DegenerateMetricError(
                f"metric is degenerate at {len(bad)} nodes, first at (j,i)={tuple(bad[0])}"
            )

    def det(self) -> np.ndarray:
        return self.E * self.G - self.F**2

    @classmethod
    def conformal(cls, h: ScalarField) -> "MetricField":
        h2 = h.values**2
        return cls(h.grid, h2, np.zeros_like(h2), h2)


@dataclass(frozen=True)
class SecondForm:
    """Second-form coefficients ell, m, n on one grid."""

    grid: Grid2D
    ell: np.ndarray
    m: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        for name in ("ell", "m", "n"):
            object.__setattr__(self, name, _samples(getattr(self, name), self.grid.shape, name))


class FrameField(Field):
    """A 3x3 real matrix at every node, shape ``(ny, nx, 3, 3)``.

    Carries connection matrices or an integrated moving frame.
    """

    node_shape = (3, 3)


def _as_matrices(M, grid: Grid2D, name: str) -> np.ndarray:
    if isinstance(M, FrameField):
        grid.require_matches(M.grid)
        return M.values
    arr = np.asarray(M, dtype=float)
    if arr.shape != grid.shape + (3, 3):
        raise GridError(f"{name} must be sampled as (ny, nx, 3, 3)")
    return arr


# the slots (rows, columns) of every 3 x 3 entry but (2, 2), row by row
_ROW_BY_ROW = ((0, 0, 0, 1, 1, 1, 2, 2), (0, 1, 2, 0, 1, 2, 0, 1))


def induced_metric(f: VectorField3) -> MetricField:
    """E, F, G of an immersion by finite differences."""
    grid = f.grid
    f_x = fd_partial(f.values, grid, "x")
    f_y = fd_partial(f.values, grid, "y")
    dot = lambda a, b: np.einsum("jki,jki->jk", a, b)
    return MetricField(grid, dot(f_x, f_x), dot(f_x, f_y), dot(f_y, f_y))


def normal_and_second_form(f: VectorField3) -> tuple[VectorField3, SecondForm]:
    """Unit normal and second form of an immersion.

    N is the normalized cross product of the coordinate tangents; the
    coefficients come from derivatives of N (ell = -<N_x, f_x> and so
    on), with the mixed coefficient measured both ways and averaged.

    ``grid.bands`` of rows are taken in turn, so only band-sized
    temporaries are held.  N_y on a band needs N a row beyond it, and
    that row's f_y needs f one row further; at the grid's edge a
    one-sided stencil needs three rows.  Each band's slab of f carries
    those rows, and every stencil then reads the samples it reads on
    the whole grid, so the results are bitwise those of one pass.
    """
    grid = f.grid
    ny = grid.ny
    N = np.empty(f.values.shape)
    ell, m, n = (np.empty(grid.shape) for _ in range(3))
    dot = lambda a, b: np.einsum("jki,jki->jk", a, b)
    for rows in bands(ny, grid.nx):
        j0, j1 = rows.start, rows.stop
        # N on rows [a, b) and f on rows [lo, hi), each at least three rows
        a, b = max(min(j0 - 1, ny - 3), 0), min(max(j1 + 1, 3), ny)
        lo, hi = max(min(a - 1, ny - 3), 0), min(max(b + 1, 3), ny)
        f_x = fd_partial(f.values[a:b], grid, "x")
        f_y = fd_partial(f.values[lo:hi], grid, "y")[a - lo:b - lo]
        cross = np.cross(f_x, f_y)
        norm = np.linalg.norm(cross, axis=2)
        if norm.min() <= 0.0:
            raise DegenerateMetricError("tangent planes degenerate; cannot form a normal")
        N_ab = cross / norm[:, :, None]

        band = slice(j0 - a, j1 - a)
        N_x = fd_partial(N_ab[band], grid, "x")
        N_y = fd_partial(N_ab, grid, "y")[band]
        f_x, f_y = f_x[band], f_y[band]
        ell[j0:j1] = -dot(N_x, f_x)
        m1 = -dot(N_x, f_y)
        m2 = -dot(N_y, f_x)
        n[j0:j1] = -dot(N_y, f_y)
        m[j0:j1] = 0.5 * (m1 + m2)
        N[j0:j1] = N_ab[band]
    return VectorField3(grid, _frozen(N)), SecondForm(grid, ell, m, n)


def isothermic_connection(h: ScalarField, second: SecondForm) -> tuple[FrameField, FrameField]:
    """Connection matrices A, B of a conformal immersion (see module doc)."""
    h.grid.require_matches(second.grid)
    hv = h.values
    if hv.min() <= 0.0:
        raise DegenerateMetricError("conformal factor must be positive")
    hx = fd_partial(hv, h.grid, "x") / hv
    hy = fd_partial(hv, h.grid, "y") / hv
    h2 = hv**2
    ell, m, n = second.ell, second.m, second.n
    # each entry is written in place and each matrix field handed over;
    # B's entries are formed only once A is done
    A = np.zeros(h.grid.shape + (3, 3))
    for r, c, entry in zip(*_ROW_BY_ROW, (hx, hy, -ell / h2, -hy, hx, -m / h2, ell, m)):
        A[..., r, c] = entry
    A = FrameField(h.grid, _frozen(A))
    B = np.zeros(h.grid.shape + (3, 3))
    for r, c, entry in zip(*_ROW_BY_ROW, (hy, -hx, -m / h2, hx, hy, -n / h2, m, n)):
        B[..., r, c] = entry
    return A, FrameField(h.grid, _frozen(B))


def gauss_curvature_from_forms(metric: MetricField, second: SecondForm) -> np.ndarray:
    """K = (ell*n - m^2) / (EG - F^2), defined at every node."""
    metric.grid.require_matches(second.grid)
    return (second.ell * second.n - second.m**2) / metric.det()


def gauss_curvature_isothermic(h: ScalarField) -> np.ndarray:
    """K = -laplacian(ln h) / h^2 for a conformal factor on interior
    nodes, shape ``(ny - 2, nx - 2)``."""
    if h.values.min() <= 0.0:
        raise DegenerateMetricError("conformal factor must be positive")
    return -fd_laplacian(np.log(h.values), h.grid) / h.values[1:-1, 1:-1]**2
