"""Isothermic coordinates: closed-form catalog charts and a constructive
least-squares flattener.

A chart stores new coordinates ``(X, Y)`` per source node together with
the conformal factor ``h`` of the image metric sampled at the same
nodes.  ``flatten_conformal`` builds such a chart for an arbitrary
positive metric by driving the differential of ``(X, Y)`` toward a
similarity with respect to the metric's orthonormal frames; the catalog
supplies exact charts for the constant-curvature test metrics so the
flattener has something to be measured against.

Everything runs on numpy alone.  The flatten keeps its normal
equations on the grid's 7-point stencil and solves them with
``elliptic.splu``'s nested-dissection Cholesky plus one correction from
the triangle rows; chart inversion and resampling interpolate by a
tensor-product spline (``_spline``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elliptic
from .grid import Grid2D, GridError, ScalarField, SolverError, bands, fd_laplacian, fd_partial
from .forms import MetricField

__all__ = [
    "ConformalError",
    "Chart",
    "catalog_chart",
    "catalog_factor",
    "flatten_conformal",
    "rescale_to_liouville",
    "inner_image_grid",
    "chart_preimage",
    "resample_to_image",
]


class ConformalError(SolverError, RuntimeError):
    """Flattening breakdown: singular system or unusable image region."""


@dataclass(frozen=True)
class Chart:
    """Coordinates ``(X, Y)`` and conformal factor ``h`` per source node.

    ``anisotropy`` and ``skew`` are the flattener's acceptance
    diagnostics (max of ``|E'/G' - 1|`` and of ``|F'|/sqrt(E'G')`` over
    interior nodes); exact catalog charts carry zeros.
    """

    X: ScalarField
    Y: ScalarField
    h: ScalarField
    anisotropy: float = 0.0
    skew: float = 0.0

    def __post_init__(self) -> None:
        g = self.X.grid
        if not (self.Y.grid.matches(g) and self.h.grid.matches(g)):
            raise GridError("chart components live on different grids")
        if self.h.values[1:-1, 1:-1].min() <= 0.0:
            raise GridError("conformal factor must be positive on interior nodes")
        xx, xy, yx, yy = _jacobian(self.X, self.Y)
        inner = (xx * yy - xy * yx)[1:-1, 1:-1]
        if not np.isfinite(inner).all() or np.min(np.abs(inner)) == 0.0:
            raise GridError("chart Jacobian vanishes at an interior node")

    @property
    def grid(self) -> Grid2D:
        return self.X.grid


def _jacobian(X: ScalarField, Y: ScalarField) -> tuple[np.ndarray, ...]:
    return tuple(fd_partial(c.values, c.grid, axis) for c in (X, Y) for axis in "xy")


def _pushforward(metric: MetricField, jacobian):
    """Metric components in chart coordinates at each source node."""
    xx, xy, yx, yy = jacobian
    det = xx * yy - xy * yx
    if np.min(np.abs(det)) == 0.0:
        raise ConformalError("chart Jacobian vanishes; cannot push the metric forward")
    # columns of J^{-1}: dx/dX etc.
    ax, bx = yy / det, -xy / det
    ay, by = -yx / det, xx / det
    E, F, G = metric.E, metric.F, metric.G
    Ep = E * ax * ax + 2.0 * F * ax * ay + G * ay * ay
    Gp = E * bx * bx + 2.0 * F * bx * by + G * by * by
    Fp = E * ax * bx + F * (ax * by + ay * bx) + G * ay * by
    return Ep, Fp, Gp


def _diagnostics(Ep, Fp, Gp) -> tuple[float, float]:
    core = np.s_[1:-1, 1:-1]
    anis = float(np.max(np.abs(Ep[core] / Gp[core] - 1.0)))
    skew = float(np.max(np.abs(Fp[core]) / np.sqrt(Ep[core] * Gp[core])))
    return anis, skew


def catalog_chart(name: str, n: int = 65):
    """Closed-form isothermic chart for a named test metric.

    Returns ``(metric, chart, extras)`` on an ``n x n`` grid; ``extras``
    carries the exact log-factor ``u = ln h``.  Charts: the hyperbolic
    half-plane strip with ``h = 1/y``, the hyperbolic disk factor
    ``h = 2/(1 - x^2 - y^2)`` on the square inscribed in radius 0.7, the
    round sphere's stereographic factor ``h = 2/(1 + x^2 + y^2)`` on
    [-0.35, 0.35]^2, and the flat net of constant angle pi/3 straightened
    by a linear shear.
    """
    if name == "flat_plane":
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, n, n)
        X, Y = g.mesh()
        c, ones = float(np.cos(np.pi / 3.0)), np.ones(g.shape)
        metric = MetricField(g, ones, c * ones, ones)
        chart = Chart(ScalarField(g, X + c * Y), ScalarField(g, float(np.sin(np.pi / 3.0)) * Y),
                      ScalarField(g, ones))
        return metric, chart, {"u": ScalarField(g, np.zeros(g.shape))}
    g, X, Y, h = _curved_chart(name, n)
    h = ScalarField(g, h)
    metric = MetricField.conformal(h)
    chart = Chart(ScalarField(g, X), ScalarField(g, Y), h)
    return metric, chart, {"u": catalog_factor(name, n)}


def catalog_factor(name: str, n: int = 65) -> ScalarField:
    """The exact log-factor ``u = ln h`` of a catalog chart other than the
    flat one, built without the chart and its metric."""
    g, _, Y, h = _curved_chart(name, n)
    return ScalarField(g, -np.log(Y) if name == "half_plane_pseudosphere" else np.log(h))


def _curved_chart(name: str, n: int):
    """Grid, node coordinates ``X, Y`` and conformal factor ``h`` of a
    catalog chart other than the flat one."""
    if name == "half_plane_pseudosphere":
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
        X, Y = g.mesh()
        h = 1.0 / Y
    elif name == "poincare_disk_patch":
        half = 0.7 / np.sqrt(2.0)
        g = Grid2D.from_bounds(-half, half, -half, half, n, n)
        X, Y = g.mesh()
        h = 2.0 / (1.0 - X**2 - Y**2)
    elif name == "sphere_patch":
        g = Grid2D.from_bounds(-0.35, 0.35, -0.35, 0.35, n, n)
        X, Y = g.mesh()
        h = 2.0 / (1.0 + X**2 + Y**2)
    else:
        raise ValueError(f"unknown catalog chart {name!r}")
    return g, X, Y, h


def _vertices(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Node values at the vertices ``w0, w1, w2`` of each triangle of
    ``_triangle_rows``, each ``(2, ny - 1, nx - 1)`` but ``w0``, which
    both triangles of a cell share."""
    return (a[:-1, :-1], np.stack([a[:-1, 1:], a[1:, 1:]]), np.stack([a[1:, 1:], a[1:, :-1]]))


def _triangle_rows(metric: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """Complex conformality residual rows, one per triangle, two
    triangles per cell.

    Each grid cell is split along its main diagonal.  A triangle is laid
    out isometrically (w.r.t. the metric averaged over its vertices) in
    the plane; the affine map from that layout to the unknown images
    ``w = X + iY`` must be a similarity, which is one complex linear
    equation ``k1 (w1 - w0) + k2 (w2 - w0) = 0`` in the three vertex
    unknowns; its real and imaginary parts are the two real conditions.
    Rows are weighted by the square root of the triangle's metric area
    so that ``|A w|^2`` discretizes the conformal energy integral: the
    least-squares conformal map energy (Levy, Petitjean, Ray, Maillot,
    SIGGRAPH 2002).  Returns ``k1`` and ``k2``, each ``(2, ny - 1, nx - 1)``:
    per cell, first the triangle ``w0, w1, w2`` = bottom-left,
    bottom-right, top-right node, then bottom-left, top-right, top-left.
    """
    (x0, x1, x2), (y0, y1, y2) = (_vertices(c) for c in metric.grid.mesh())
    e1x, e1y = x1 - x0, y1 - y0
    e2x, e2y = x2 - x0, y2 - y0
    Ec, Fc, Gc = (sum(_vertices(arr)) / 3.0 for arr in (metric.E, metric.F, metric.G))
    a = Ec * e1x**2 + 2.0 * Fc * e1x * e1y + Gc * e1y**2
    b = Ec * e1x * e2x + Fc * (e1x * e2y + e1y * e2x) + Gc * e1y * e2y
    c = Ec * e2x**2 + 2.0 * Fc * e2x * e2y + Gc * e2y**2
    disc = a * c - b * b
    if np.min(disc) <= 0.0 or np.min(a) <= 0.0:
        raise ConformalError("metric degenerated on a triangle")
    sq_a = np.sqrt(a)
    s = np.sqrt(disc) / sq_a
    w = np.sqrt(0.5 * np.sqrt(disc))
    return w / sq_a - 1j * (w * b / (a * s)), 1j * (w / s)


def _gradient(k1: np.ndarray, k2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``A^H (A w)`` for node images ``w`` of grid shape, ``A`` the
    triangle rows ``k1, k2``: the conformal energy's gradient.

    ``grid.bands`` of cells are taken from the top row down, so only
    band-sized temporaries are held.  Each node sums its terms in one
    fixed order whatever the bands: from the cell above right of it,
    then above left, both in its band or in one taken earlier, then
    below left and below right, both in its band.
    """
    ny, nx = w.shape
    out = np.zeros(w.shape, dtype=complex)
    for cells in reversed(bands(ny - 1, nx - 1)):
        v, band = w[cells.start:cells.stop + 1], out[cells.start:cells.stop + 1]
        w0, corners = v[:-1, :-1], (v[:-1, 1:], v[1:, 1:], v[1:, :-1])
        terms = []
        for t in range(2):
            r, edge = corners[t] - w0, corners[t + 1] - w0
            for k, d in ((k1[t, cells], r), (k2[t, cells], edge)):
                np.multiply(k, d, out=d)
            r += edge
            terms.append([np.conj(c[t, cells]) * r for c in (k1, k2)])
        (a10, a20), (a11, a21) = terms
        band[:-1, :-1] -= (a10 + a20) + (a11 + a21)
        band[:-1, 1:] += a10
        band[1:, 1:] += a11 + a20
        band[1:, :-1] += a21
    return out


@dataclass(frozen=True)
class NormalEquations(elliptic.Stencil):
    """``H = A^H A`` of the triangle rows ``k1, k2`` on the grid's 7-point
    stencil, with the two pins kept as identity rows: the first and the
    last node of the bottom row couple to nothing and carry a unit
    diagonal."""

    k1: np.ndarray
    k2: np.ndarray

    @classmethod
    def assemble(cls, k1: np.ndarray, k2: np.ndarray) -> "NormalEquations":
        # H[p, q] sums conj(c_p) c_q over the rows, c_p the coefficient
        # of vertex p in a row: w0, w1 and w2 carry c0, c1 and c2
        c0, c1, c2 = -(k1 + k2), k1, k2
        ny, nx = k1.shape[1] + 1, k1.shape[2] + 1
        diag = np.zeros((ny, nx))
        diag[:-1, :-1] += (np.abs(c0) ** 2).sum(axis=0)
        diag[:-1, 1:] += np.abs(c1[0]) ** 2
        diag[1:, 1:] += np.abs(c2[0]) ** 2 + np.abs(c1[1]) ** 2
        diag[1:, :-1] += np.abs(c2[1]) ** 2
        east = np.zeros((ny, nx - 1), dtype=complex)
        east[:-1] += np.conj(c0[0]) * c1[0]
        east[1:] += np.conj(c2[1]) * c1[1]
        north = np.zeros((ny - 1, nx), dtype=complex)
        north[:, 1:] += np.conj(c1[0]) * c2[0]
        north[:, :-1] += np.conj(c0[1]) * c2[1]
        northeast = np.conj(c0[0]) * c2[0] + np.conj(c0[1]) * c1[1]
        east[0, [0, -1]] = north[0, [0, -1]] = northeast[0, 0] = 0.0
        diag[0, [0, -1]] = 1.0
        return cls(diag, east, north, northeast, k1, k2)


# a flatten solve raises unless its backward error is under this: six metric
# sources read 0.07-0.21 eps at n = 65-257, 0.95-4.01 without the correction
_SOLVE_TOL = 0.5 * np.finfo(float).eps


def _backward_error(H: NormalEquations, z: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ``|H z - b| / (|H| |z| + |b|)`` of the pinned
    system in max norms over the free rows, for ``z`` and ``b`` of grid
    shape: ``H z - b`` there is the gradient ``A^H (A z)`` of the triangle
    rows, and ``|H|`` the largest absolute row sum of the stencil."""
    free = np.ones(z.shape, dtype=bool)
    free[0, [0, -1]] = False
    # a node's own entries, then the entries back from the nodes behind it
    e = np.pad(np.abs(H.entries), ((0, 0), (1, 0), (1, 0)))
    rows = e[:, 1:, 1:].sum(axis=0) + e[1, 1:, :-1] + e[2, :-1, 1:] + e[3, :-1, :-1]
    scale = rows[free].max() * np.abs(z[free]).max() + np.abs(b[free]).max()
    return float(np.abs(_gradient(H.k1, H.k2, z)[free]).max() / scale)


def spsolve(H: NormalEquations, b: np.ndarray) -> np.ndarray:
    """Solve the pinned flatten system ``H z = b``, then correct once.

    ``elliptic.splu`` factors ``H`` by nested-dissection Cholesky, which
    needs no pivoting on a Hermitian positive definite matrix.  Forming
    ``H = A^H A`` squares the condition number of the rows ``A``, and the
    solve loses accuracy in proportion.  One corrected semi-normal step
    (Bjorck, Linear Algebra Appl. 88/89, 1987) recovers it: the gradient
    ``A^H (A z)`` of the first solution, taken from the triangle rows
    rather than from ``H``, is solved for with the same factor and
    subtracted.  A non-positive pivot means a singular system, and a
    solution whose ``_backward_error`` exceeds ``_SOLVE_TOL`` (a
    non-finite one too) was not solved; both raise ``ConformalError``.
    """
    try:
        factor = elliptic.splu(H)
    except elliptic.EllipticError as exc:
        raise ConformalError(f"flattening system is singular ({exc})") from exc
    z = factor.solve(b)
    r = _gradient(H.k1, H.k2, z.reshape(H.diag.shape))
    r[0, [0, -1]] = 0.0  # the pins' rows are identities, already solved
    z -= factor.solve(r.ravel())
    del factor, r  # the gate's temporaries need not add to the factor's memory
    error = _backward_error(H, z.reshape(H.diag.shape), b.reshape(H.diag.shape))
    if not error <= _SOLVE_TOL:
        raise ConformalError(f"flattening solve's backward error {error:.3e} exceeds "
                             f"{_SOLVE_TOL:.3e}")
    return z


def flatten_conformal(metric: MetricField) -> Chart:
    """Least-squares conformal chart for an arbitrary positive metric.

    Minimizes the conformal energy ``|A w|^2`` of ``_triangle_rows``
    over the node images ``w = X + iY``; the energy leaves exactly the
    complex similarity group free.  Gauge: the first node of the bottom
    row maps to ``w = 0`` and the last one to ``w = L``, where ``L`` is
    the metric length of that row, which kills translation, rotation,
    and scale.  The stationarity equations of the other nodes are
    ``H_ff w_f = -L H_fp``, ``H = A^H A`` Hermitian positive definite on
    the 7-point stencil of the triangulation; ``NormalEquations`` keeps
    the pins as identity rows with their values on the right, so the
    system stays on the grid for ``spsolve``'s nested-dissection
    Cholesky.  The chart carries the anisotropy and skew of the
    pushed-forward metric for the caller to judge.
    """
    g = metric.grid
    k1, k2 = _triangle_rows(metric)
    L = float(np.trapezoid(np.sqrt(metric.E[0, :]), dx=g.dx))

    pins = np.zeros(g.shape, dtype=complex)
    pins[0, -1] = L
    b = -_gradient(k1, k2, pins)  # -L H_fp on the free rows
    del pins
    b[0, [0, -1]] = 0.0, L
    z = spsolve(NormalEquations.assemble(k1, k2), b.ravel()).reshape(g.shape)
    z[0, [0, -1]] = 0.0, L

    X = ScalarField(g, z.real)
    Y = ScalarField(g, z.imag)
    Ep, Fp, Gp = _pushforward(metric, _jacobian(X, Y))
    if np.min(Ep) <= 0.0 or np.min(Gp) <= 0.0:
        raise ConformalError("pushed-forward metric lost positivity")
    anis, skew = _diagnostics(Ep, Fp, Gp)
    h = ScalarField(g, np.sqrt(0.5 * (Ep + Gp)))
    return Chart(X, Y, h, anis, skew)


def rescale_to_liouville(h: ScalarField) -> tuple[ScalarField, float]:
    """Fit the multiplicative constant that best matches the curvature
    equation and return the rescaled factor together with the fit.

    On the grid the factor lives on (assumed isothermic coordinates),
    the log-factor of a curvature -1 metric satisfies
    ``lap ln h = h^2``; a factor carrying a stray constant ``c`` still
    has the same left side but ``h^2/c^2`` on the right.  The scalar
    least-squares fit of ``lap ln h`` against ``h^2`` therefore recovers
    ``1/c^2``, and multiplying by its square root removes the stray
    scale.  For a clean factor the fit sits at 1 up to h^2 error.
    """
    if h.values[1:-1, 1:-1].min() <= 0.0:
        raise GridError("conformal factor must be positive on interior nodes")
    lap = fd_laplacian(np.log(h.values), h.grid)
    h2 = h.values[1:-1, 1:-1] ** 2
    fit = float(np.sum(lap * h2) / np.sum(h2 * h2))
    if fit <= 0.0:
        raise ConformalError(f"curvature-scale fit is not positive: {fit:.3e}")
    return ScalarField(h.grid, np.sqrt(fit) * h.values), fit


def _boundary_polygon(chart: Chart) -> np.ndarray:
    # node images counter-clockwise in index space from the first node:
    # bottom row, right column, top row back, left column down
    def ring(a: np.ndarray) -> np.ndarray:
        return np.concatenate([a[0, :], a[1:, -1], a[-1, -2::-1], a[-2:0:-1, 0]])

    return np.column_stack([ring(chart.X.values), ring(chart.Y.values)])


def _points_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    # even-odd ray casting: one (edges x points) crossing table, XOR over edges
    ax, ay = poly[:, :1], poly[:, 1:]
    bx, by = np.roll(ax, -1, axis=0), np.roll(ay, -1, axis=0)
    crosses = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcut = ax + (py - ay) * (bx - ax) / (by - ay)
    return np.logical_xor.reduce(crosses & (px < xcut), axis=0)


def inner_image_grid(chart: Chart, n: int = 65) -> Grid2D:
    """Regular grid on a rectangle strictly inside the chart image.

    The rectangle is centred on the image of the central node, with the
    proportions of the smallest such box around every node image.  In
    units of that box's half extents, the box of scale ``s`` first meets
    the image boundary polygon at the least sup-norm over its edges.  On
    an edge the sup-norm is convex and piecewise linear, so its minimum
    sits at an end or where the edge crosses a diagonal ``u_x = +-u_y``.
    The grid spans that contact scale divided by 1.12, a safety margin
    of 12%.
    """
    poly = _boundary_polygon(chart)
    cx = float(chart.X.values[chart.grid.ny // 2, chart.grid.nx // 2])
    cy = float(chart.Y.values[chart.grid.ny // 2, chart.grid.nx // 2])
    if not _points_in_polygon(np.array([cx]), np.array([cy]), poly)[0]:
        raise ConformalError("the central node's image lies outside the boundary polygon")
    half_w = max(chart.X.values.max() - cx, cx - chart.X.values.min())
    half_h = max(chart.Y.values.max() - cy, cy - chart.Y.values.min())

    a = (poly - (cx, cy)) / (half_w, half_h)
    d = np.roll(a, -1, axis=0) - a
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = [(a[:, 1] - a[:, 0]) / (d[:, 0] - d[:, 1]),
               -(a[:, 0] + a[:, 1]) / (d[:, 0] + d[:, 1])]
    ends = [np.zeros(len(a)), np.ones(len(a))]
    t = np.clip(np.nan_to_num(np.stack(ends + cut)), 0.0, 1.0)
    scale = float(np.abs(a + t[..., None] * d).max(axis=-1).min()) / 1.12
    if scale < 1e-6:
        raise ConformalError("no axis-aligned rectangle fits inside the image")
    w, hh = scale * half_w, scale * half_h
    return Grid2D.from_bounds(cx - w, cx + w, cy - hh, cy + hh, n, n)


def _second_derivative_map(m: int, step: float) -> np.ndarray:
    """``m x m`` map from node values to the second derivatives of their
    not-a-knot cubic spline on ``m`` nodes ``step`` apart.

    Interior rows make the spline C^2,
    ``M[i-1] + 4 M[i] + M[i+1] = 6 (f[i-1] - 2 f[i] + f[i+1]) / step^2``;
    the end rows make its third derivative continuous across the second
    and the second-to-last node, ``M0 - 2 M1 + M2 = 0`` on a uniform grid.
    """
    if m < 4:
        raise ConformalError(f"a not-a-knot cubic spline needs 4 nodes per axis, got {m}")
    A = np.zeros((m, m))
    B = np.zeros((m, m))
    i = np.arange(1, m - 1)
    A[i, i - 1] = A[i, i + 1] = 1.0
    A[i, i] = 4.0
    B[i, i - 1] = B[i, i + 1] = 6.0 / step**2
    B[i, i] = -12.0 / step**2
    A[0, :3] = A[-1, -3:] = (1.0, -2.0, 1.0)
    return np.linalg.solve(A, B)


def _cell_weights(p: np.ndarray, start: float, step: float, m: int):
    """Cell of each point along one axis of ``m`` nodes, and the cubic's
    weights in that cell with their derivatives.

    Points are clamped to the axis, as FITPACK clamps them.  Weights are
    indexed ``[kind, end, point]``: kind 0 weighs node values, kind 1
    second derivatives; end 0 is the cell's left node, end 1 its right.
    """
    u = np.clip((p - start) / step, 0.0, m - 1.0)
    j = np.minimum(u.astype(int), m - 2)
    t = u - j
    s = 1.0 - t
    c = step / 6.0
    w = np.array([[s, t], [c * step * (s**3 - s), c * step * (t**3 - t)]])
    slope = np.array([[np.full_like(t, -1.0 / step), np.full_like(t, 1.0 / step)],
                      [c * (1.0 - 3.0 * s * s), c * (3.0 * t * t - 1.0)]])
    return j, w, slope


def _spline(grid: Grid2D, values: np.ndarray):
    """Tensor-product not-a-knot cubic interpolant of node values.

    This is the interpolant FITPACK builds with ``s=0`` (de Boor, *A
    Practical Guide to Splines*, 1978).  Each node carries ``f``,
    ``f_xx``, ``f_yy`` and ``f_xxyy``; in a cell the spline is the
    tensor product of the 1-D cubic in value/second-derivative form, 16
    terms.  Returns ``evaluate(x, y) -> (f, f_x, f_y)`` at points, all
    three from one cell lookup, in ``grid.bands`` of points: a band's
    cell table holds 16 doubles per point.
    """
    nx = grid.nx
    f_xx = values @ _second_derivative_map(nx, grid.dx).T
    sy = _second_derivative_map(grid.ny, grid.dy)
    # [kind along y, kind along x, node]
    nodes = np.stack([values, f_xx, sy @ values, sy @ f_xx]).reshape(2, 2, -1)
    corners = np.array([[0, 1], [nx, nx + 1]])[..., None]  # [row, column]

    def evaluate(x: np.ndarray, y: np.ndarray):
        out = np.empty((3, len(x)))
        for band in bands(len(x), 1):
            jx, wx, wx_slope = _cell_weights(x[band], grid.x0, grid.dx, nx)
            jy, wy, wy_slope = _cell_weights(y[band], grid.y0, grid.dy, grid.ny)
            cell = nodes[:, :, jy * nx + jx + corners]  # [y kind, x kind, row, column, point]
            along = (cell * wx[None, :, None]).sum(axis=(1, 3))  # [y kind, row, point]
            along_x = (cell * wx_slope[None, :, None]).sum(axis=(1, 3))
            out[:, band] = ((along * wy).sum(axis=(0, 1)), (along_x * wy).sum(axis=(0, 1)),
                            (along * wy_slope).sum(axis=(0, 1)))
        return tuple(out)

    return evaluate


# sup-norm of the image residual at which the preimage Newton solve stops
_PREIMAGE_TOL = 1e-11


def _nearest(tx: np.ndarray, ty: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Index of the first nearest point ``(px, py)`` to each target, raveled,
    taken a row of targets ``(tx, ty)`` at a time."""
    return np.concatenate([np.argmin((x[:, None] - px) ** 2 + (y[:, None] - py) ** 2, axis=1)
                           for x, y in zip(tx, ty)])


def chart_preimage(chart: Chart, image_grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Source coordinates of every node of ``image_grid`` under the chart.

    Interpolates ``(X, Y)`` by ``_spline`` and inverts it by a vectorized
    Newton solve, coarse to fine; each step evaluates each coordinate
    spline once, for its value and both first derivatives.  The coarse
    level is a fixed 33 x 33 grid on ``image_grid``'s rectangle, each node
    seeded at the source point of its nearest node image on a source grid
    subsampled to about 33 x 33 nodes, one coarse row at a time: a table
    of about 0.3 MB at any size.  Every node of ``image_grid`` then
    starts from the cubic spline of the coarse preimages, and the splines
    evaluate in bands, so memory stays O(n^2) on n x n grids: 272 bytes
    per image node at n = 257.  Nodes must lie inside the image; use
    ``inner_image_grid`` to stay there.
    """
    g = chart.grid
    sx = _spline(g, chart.X.values)
    sy = _spline(g, chart.Y.values)

    def newton(xt, yt, x, y):
        for _ in range(60):
            fx, jxx, jxy = sx(x, y)
            fy, jyx, jyy = sy(x, y)
            rx = fx - xt
            ry = fy - yt
            worst = max(np.max(np.abs(rx)), np.max(np.abs(ry)))
            if worst <= _PREIMAGE_TOL:
                return x, y
            det = jxx * jyy - jxy * jyx
            if np.min(np.abs(det)) == 0.0:
                raise ConformalError("chart inversion hit a singular Jacobian")
            x = np.clip(x - (jyy * rx - jxy * ry) / det, g.x0, g.x1)
            y = np.clip(y - (-jyx * rx + jxx * ry) / det, g.y0, g.y1)
        raise ConformalError(f"chart inversion did not converge; residual {worst:.3e}")

    coarse = Grid2D.from_bounds(image_grid.x0, image_grid.x1,
                                image_grid.y0, image_grid.y1, 33, 33)
    XC, YC = coarse.mesh()
    step = max(1, (min(g.nx, g.ny) - 1) // 32)
    px, py, xs, ys = (a[::step, ::step].ravel()
                      for a in (chart.X.values, chart.Y.values, *g.mesh()))
    seed = _nearest(XC, YC, px, py)
    xc, yc = newton(XC.ravel(), YC.ravel(), xs[seed], ys[seed])

    XT, YT = (c.ravel() for c in image_grid.mesh())
    x0, y0 = (_spline(coarse, p.reshape(coarse.shape))(XT, YT)[0] for p in (xc, yc))
    x, y = newton(XT, YT, x0, y0)
    return x.reshape(image_grid.shape), y.reshape(image_grid.shape)


def resample_to_image(field: ScalarField, chart: Chart, image_grid: Grid2D) -> ScalarField:
    """Sample a source-grid field at the chart preimages of image nodes,
    by the same not-a-knot cubic spline that inverts the chart."""
    if not field.grid.matches(chart.grid):
        raise GridError("field lives on a different grid than the chart")
    x, y = chart_preimage(chart, image_grid)
    value = _spline(chart.grid, field.values)(x.ravel(), y.ravel())[0]
    return ScalarField(image_grid, value.reshape(image_grid.shape))
