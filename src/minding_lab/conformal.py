"""Isothermic coordinates: closed-form catalog charts and a constructive
least-squares flattener.

A chart stores new coordinates ``(X, Y)`` per source node together with
the conformal factor ``h`` of the image metric sampled at the same
nodes.  ``flatten_conformal`` builds such a chart for an arbitrary
positive metric by driving the differential of ``(X, Y)`` toward a
similarity with respect to the metric's orthonormal frames; the catalog
supplies exact charts for the constant-curvature test metrics so the
flattener has something to be measured against.

scipy is imported inside the functions that use it: loading it costs
more start-up than a catalog-chart command spends on its whole
conformal stage, and ``catalog_chart`` needs numpy only.
``scipy.interpolate`` and ``scipy.spatial`` load in the preimage and
resampling functions.  ``scipy.sparse`` and ``scipy.sparse.linalg``
load first thing in ``_triangle_rows``, before any array of the flatten
exists: imported later, inside ``spsolve``, they land on a heap the
flatten has already grown and raise the process's peak resident memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid2D, GridError, ScalarField, fd_laplacian, fd_partial
from .forms import MetricField

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ConformalError",
    "Chart",
    "catalog_chart",
    "flatten_conformal",
    "rescale_to_liouville",
    "inner_image_grid",
    "chart_preimage",
    "resample_to_image",
]


class ConformalError(RuntimeError):
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
        if np.nanmin(self.h.values[1:-1, 1:-1]) <= 0.0:
            raise GridError("conformal factor must be positive on interior nodes")
        det = self.jacobian_det()
        inner = det[1:-1, 1:-1]
        if not np.isfinite(inner).all() or np.min(np.abs(inner)) == 0.0:
            raise GridError("chart Jacobian vanishes at an interior node")

    @property
    def grid(self) -> Grid2D:
        return self.X.grid

    def jacobian_det(self) -> np.ndarray:
        xx, xy, yx, yy = self.__dict__.pop("_jacobian", None) or _jacobian(self.X, self.Y)
        return xx * yy - xy * yx

    @classmethod
    def _with_jacobian(cls, jacobian, *fields) -> "Chart":
        """The chart of ``fields``, whose ``_jacobian(X, Y)`` the caller
        has taken already: validation reads it once instead of
        differencing again, and the chart does not keep it."""
        chart = cls.__new__(cls)
        chart.__dict__["_jacobian"] = jacobian
        chart.__init__(*fields)
        return chart


def _jacobian(X: ScalarField, Y: ScalarField) -> tuple[np.ndarray, ...]:
    return (fd_partial(X, "x").values, fd_partial(X, "y").values,
            fd_partial(Y, "x").values, fd_partial(Y, "y").values)


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


def catalog_chart(name: str, n: int = 65, alpha: float | None = None):
    """Closed-form isothermic chart for a named test metric.

    Returns ``(metric, chart, extras)`` on an ``n x n`` grid; ``extras``
    carries the exact log-factor ``u = ln h`` and, where meaningful, the
    angle ``alpha``.  Charts: the hyperbolic half-plane strip with
    ``h = 1/y``, the hyperbolic disk factor ``h = 2/(1 - x^2 - y^2)`` on
    the square inscribed in radius 0.7, and the flat constant-angle net
    straightened by a linear shear.
    """
    if name == "half_plane_pseudosphere":
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
        X, Y = g.mesh()
        h = ScalarField(g, 1.0 / Y)
        metric = MetricField.conformal(h)
        chart = Chart(ScalarField(g, X), ScalarField(g, Y), h)
        return metric, chart, {"u": ScalarField(g, -np.log(Y))}
    if name == "poincare_disk_patch":
        half = 0.7 / np.sqrt(2.0)
        g = Grid2D.from_bounds(-half, half, -half, half, n, n)
        X, Y = g.mesh()
        h = ScalarField(g, 2.0 / (1.0 - X**2 - Y**2))
        metric = MetricField.conformal(h)
        chart = Chart(ScalarField(g, X), ScalarField(g, Y), h)
        return metric, chart, {"u": ScalarField(g, np.log(h.values))}
    if name == "flat_constant_angle":
        if alpha is None:
            raise ValueError("flat_constant_angle needs the angle alpha")
        if not 0.0 < alpha < np.pi:
            raise ValueError(f"angle must lie in (0, pi), got {alpha}")
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, n, n)
        X, Y = g.mesh()
        c = float(np.cos(alpha))
        ones = np.ones(g.shape)
        metric = MetricField(g, ones, c * ones, ones)
        chart = Chart(
            ScalarField(g, X + c * Y),
            ScalarField(g, float(np.sin(alpha)) * Y),
            ScalarField(g, ones),
        )
        return metric, chart, {"u": ScalarField(g, np.zeros(g.shape)), "alpha": alpha}
    raise ValueError(f"unknown catalog chart {name!r}")


def _triangle_rows(metric: MetricField):
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
    SIGGRAPH 2002).  Returns the M x N complex ``A`` in CSC form.
    """
    # spsolve's module too, loaded before the flatten allocates (see above)
    import scipy.sparse as sp
    import scipy.sparse.linalg  # noqa: F401

    g = metric.grid
    nx, ny = g.nx, g.ny
    idx = np.arange(nx * ny).reshape(g.shape)
    n00 = idx[:-1, :-1].ravel()
    n10 = idx[:-1, 1:].ravel()
    n01 = idx[1:, :-1].ravel()
    n11 = idx[1:, 1:].ravel()
    v0 = np.concatenate([n00, n00])
    v1 = np.concatenate([n10, n11])
    v2 = np.concatenate([n11, n01])

    Xg, Yg = g.mesh()
    xf, yf = Xg.ravel(), Yg.ravel()
    e1x, e1y = xf[v1] - xf[v0], yf[v1] - yf[v0]
    e2x, e2y = xf[v2] - xf[v0], yf[v2] - yf[v0]
    Ec, Fc, Gc = (
        (arr.ravel()[v0] + arr.ravel()[v1] + arr.ravel()[v2]) / 3.0
        for arr in (metric.E, metric.F, metric.G)
    )
    a = Ec * e1x**2 + 2.0 * Fc * e1x * e1y + Gc * e1y**2
    b = Ec * e1x * e2x + Fc * (e1x * e2y + e1y * e2x) + Gc * e1y * e2y
    c = Ec * e2x**2 + 2.0 * Fc * e2x * e2y + Gc * e2y**2
    disc = a * c - b * b
    if np.min(disc) <= 0.0 or np.min(a) <= 0.0:
        raise ConformalError("metric degenerated on a triangle")
    sq_a = np.sqrt(a)
    s = np.sqrt(disc) / sq_a
    w = np.sqrt(0.5 * np.sqrt(disc))

    k1 = w / sq_a - 1j * (w * b / (a * s))
    k2 = 1j * (w / s)
    M = v0.size
    return sp.csc_matrix(
        (
            np.stack([k1, k2, -(k1 + k2)], axis=1).ravel(),
            (np.repeat(np.arange(M), 3), np.stack([v1, v2, v0], axis=1).ravel()),
        ),
        shape=(M, nx * ny),
    )


def spsolve(A: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
    """Solve the Hermitian positive definite flatten system ``A x = b``.

    SuperLU runs in symmetric mode: a minimum-degree ordering of the
    pattern of ``A + A^T``, applied to rows and columns alike, and
    elimination on the diagonal with no pivoting.  Gaussian elimination
    without pivoting is backward stable on Hermitian positive definite
    matrices (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 10), so row interchanges would only spoil the symmetric ordering
    and add fill.  A zero pivot means a singular system and raises
    ``ConformalError``.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ConformalError(f"flattening system is singular ({exc})") from exc
    return lu.solve(b)


def flatten_conformal(metric: MetricField) -> Chart:
    """Least-squares conformal chart for an arbitrary positive metric.

    Minimizes the conformal energy ``|A w|^2`` of ``_triangle_rows``
    over the node images ``w = X + iY``; the energy leaves exactly the
    complex similarity group free.  Gauge: the first node of the bottom
    row maps to ``w = 0`` and the last one to ``w = L``, where ``L`` is
    the metric length of that row, which kills translation, rotation,
    and scale.  The two pinned unknowns are eliminated, so the
    stationarity equations are one N-2 square complex system
    ``H_ff w_f = -L H_fp`` with ``H = A^H A`` Hermitian positive
    definite on the 7-point stencil of the triangulation.  ``spsolve``
    factors it without pivoting: positive definiteness makes that
    stable, and it keeps the fill of a symmetric ordering, which
    partial pivoting would destroy.  The chart carries the anisotropy
    and skew of the pushed-forward metric for the caller to judge.
    """
    g = metric.grid
    nx, N = g.nx, g.nx * g.ny
    A = _triangle_rows(metric)
    L = float(np.trapezoid(np.sqrt(metric.E[0, :]), dx=g.dx))

    free = np.r_[1 : nx - 1, nx:N]  # all nodes but the pins 0 and nx - 1
    Af = A[:, free]
    AfH = Af.conj().T
    z = np.zeros(N, dtype=complex)
    z[nx - 1] = L
    z[free] = spsolve((AfH @ Af).tocsc(), -L * (AfH @ A[:, nx - 1]).toarray().ravel())
    if not np.isfinite(z).all():
        raise ConformalError("flattening system is singular")

    X = ScalarField(g, z.real.reshape(g.shape))
    Y = ScalarField(g, z.imag.reshape(g.shape))
    jacobian = _jacobian(X, Y)
    Ep, Fp, Gp = _pushforward(metric, jacobian)
    if np.min(Ep) <= 0.0 or np.min(Gp) <= 0.0:
        raise ConformalError("pushed-forward metric lost positivity")
    anis, skew = _diagnostics(Ep, Fp, Gp)
    h = ScalarField(g, np.sqrt(0.5 * (Ep + Gp)))
    return Chart._with_jacobian(jacobian, X, Y, h, anis, skew)


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
    if np.nanmin(h.values[1:-1, 1:-1]) <= 0.0:
        raise GridError("conformal factor must be positive on interior nodes")
    lap = fd_laplacian(ScalarField(h.grid, np.log(h.values))).values[1:-1, 1:-1]
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

    Starts from the bounding box of the node images shrunk toward the
    image of the central node and bisects the shrink factor until every
    edge sample of the rectangle, scaled up by a safety margin of 12%,
    lies inside the image boundary polygon.
    """
    margin = 0.12
    poly = _boundary_polygon(chart)
    cx = float(chart.X.values[chart.grid.ny // 2, chart.grid.nx // 2])
    cy = float(chart.Y.values[chart.grid.ny // 2, chart.grid.nx // 2])
    half_w = max(chart.X.values.max() - cx, cx - chart.X.values.min())
    half_h = max(chart.Y.values.max() - cy, cy - chart.Y.values.min())

    ts = np.linspace(0.0, 1.0, 129)
    def fits(scale: float) -> bool:
        w, hh = scale * half_w, scale * half_h
        ex = np.concatenate([cx - w + 2 * w * ts, np.full(129, cx + w),
                             cx - w + 2 * w * ts, np.full(129, cx - w)])
        ey = np.concatenate([np.full(129, cy - hh), cy - hh + 2 * hh * ts,
                             np.full(129, cy + hh), cy - hh + 2 * hh * ts])
        return bool(_points_in_polygon(ex, ey, poly).all())

    scale = 1.0
    for _ in range(40):
        if fits(scale * (1.0 + margin)):
            break
        scale *= 0.5
        if scale < 1e-6:
            raise ConformalError("no axis-aligned rectangle fits inside the image")
    lo, hi = scale, min(1.0, 2.0 * scale)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid * (1.0 + margin)) else (lo, mid)
    w, hh = lo * half_w, lo * half_h
    return Grid2D.from_bounds(cx - w, cx + w, cy - hh, cy + hh, n, n)


def _nearest_seed(px: np.ndarray, py: np.ndarray,
                  qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """Index of the point ``(px, py)`` nearest to each query ``(qx, qy)``.

    Equal to ``np.argmin`` along the points axis of the dense squared
    distance ``(qx - px)**2 + (qy - py)**2``, lowest index on exact ties
    included, in memory linear in queries plus points.  A KD-tree
    proposes ``k`` candidates per query and that same formula ranks
    them.  A query whose farthest candidate lies within rounding of its
    nearest one may have a tied point outside the set, so it is asked
    again with twice as many candidates.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack([px, py]))
    seed = np.empty(qx.size, dtype=np.intp)
    rows = np.arange(qx.size)
    k = min(8, px.size)
    while rows.size:
        _, cand = tree.query(np.column_stack([qx[rows], qy[rows]]), k=k)
        cand = cand.reshape(rows.size, k)
        d2 = (qx[rows, None] - px[cand]) ** 2 + (qy[rows, None] - py[cand]) ** 2
        best = d2.min(axis=1, keepdims=True)
        seed[rows] = np.where(d2 == best, cand, px.size).min(axis=1)
        settled = (d2.max(axis=1) > best[:, 0] * (1.0 + 1e-9)) | (k == px.size)
        rows = rows[~settled]
        k = min(2 * k, px.size)
    return seed


def chart_preimage(chart: Chart, image_grid: Grid2D,
                   tol: float = 1e-11) -> tuple[np.ndarray, np.ndarray]:
    """Source coordinates of every node of ``image_grid`` under the chart.

    Spline-interpolates ``(X, Y)`` and runs a vectorized Newton solve
    per image node.  Each node starts from the source point of its
    nearest node image on a subsampled source grid, found through a
    KD-tree, so memory stays O(n^2) on n x n grids (linear in nodes);
    the seeds, ties included, are those of a dense argmin over every
    (image node, sampled node) pair.  Nodes must lie inside the image;
    use ``inner_image_grid`` to stay there.
    """
    from scipy.interpolate import RectBivariateSpline

    g = chart.grid
    sx = RectBivariateSpline(g.y(), g.x(), chart.X.values)
    sy = RectBivariateSpline(g.y(), g.x(), chart.Y.values)
    XT, YT = image_grid.mesh()
    xt, yt = XT.ravel(), YT.ravel()

    # coarse nearest-image seed
    step = max(1, min(g.nx, g.ny) // 48)
    Xg, Yg = g.mesh()
    xs = Xg[::step, ::step].ravel()
    ys = Yg[::step, ::step].ravel()
    seed = _nearest_seed(chart.X.values[::step, ::step].ravel(),
                         chart.Y.values[::step, ::step].ravel(), xt, yt)
    x, y = xs[seed], ys[seed]

    for _ in range(60):
        rx = sx.ev(y, x) - xt
        ry = sy.ev(y, x) - yt
        worst = max(np.max(np.abs(rx)), np.max(np.abs(ry)))
        if worst <= tol:
            break
        jxx = sx.ev(y, x, dy=1)  # d/dx is the spline's second axis
        jxy = sx.ev(y, x, dx=1)
        jyx = sy.ev(y, x, dy=1)
        jyy = sy.ev(y, x, dx=1)
        det = jxx * jyy - jxy * jyx
        if np.min(np.abs(det)) == 0.0:
            raise ConformalError("chart inversion hit a singular Jacobian")
        x = np.clip(x - (jyy * rx - jxy * ry) / det, g.x0, g.x1)
        y = np.clip(y - (-jyx * rx + jxx * ry) / det, g.y0, g.y1)
    else:
        raise ConformalError(
            f"chart inversion did not converge; residual {worst:.3e}"
        )
    return x.reshape(image_grid.shape), y.reshape(image_grid.shape)


def resample_to_image(field: ScalarField, chart: Chart, image_grid: Grid2D) -> ScalarField:
    """Sample a source-grid field at the chart preimages of image nodes."""
    from scipy.interpolate import RectBivariateSpline

    if not field.grid.matches(chart.grid):
        raise GridError("field lives on a different grid than the chart")
    x, y = chart_preimage(chart, image_grid)
    spline = RectBivariateSpline(chart.grid.y(), chart.grid.x(), field.values)
    return ScalarField(image_grid, spline.ev(y.ravel(), x.ravel()).reshape(image_grid.shape))
