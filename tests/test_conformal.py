"""Catalog charts and the least-squares conformal flattener."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import minding_lab.conformal as conformal
import minding_lab.elliptic as elliptic
import minding_lab.grid as grid
from minding_lab.grid import Grid2D, GridError, ScalarField, fd_partial
from minding_lab.forms import MetricField, gauss_curvature_isothermic
from minding_lab.conformal import (
    Chart,
    ConformalError,
    catalog_chart,
    chart_preimage,
    flatten_conformal,
    inner_image_grid,
    rescale_to_liouville,
    resample_to_image,
)


def chebyshev_metric(g):
    """one_soliton's Chebyshev metric dx^2 + 2 cos(theta) dx dy + dy^2."""
    X, Y = g.mesh()
    ones = np.ones(g.shape)
    return MetricField(g, ones, np.cos(4.0 * np.arctan(np.exp(X + Y))), ones)


def soliton_metric(n):
    g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, n, n)
    return g, chebyshev_metric(g)


def part_ring_blocks(factor, s, p):
    """The ring blocks of part ``p`` of stack ``s`` as one array, stored or
    rebuilt, read through ``Cholesky.ring_blocks``."""
    return np.concatenate([Y for *_, Y in factor.ring_blocks(s, p)])


def whole_stack_solve(factor, b):
    """``elliptic.Cholesky.solve`` with each stack's triangles and ring
    products applied to all of its fronts at once."""
    x = np.array(b, dtype=complex)
    for s, (own, (h, _, J, rows, *_), block, packed, parts) in enumerate(factor.stacks):
        y = x[own]
        below = (block @ y[:h].T[..., None])[..., 0].T
        np.add.reduceat(packed * y[J], rows, axis=0, out=y)
        y[h:] += below
        x[own] = y
        for p, (fronts, ring, _) in enumerate(parts):
            Y = part_ring_blocks(factor, s, p)
            v = Y.transpose(0, 2, 1) @ y[:, fronts].T.conj()[..., None]
            np.subtract.at(x, ring.ravel(), v.conj().ravel())
    for s in reversed(range(len(factor.stacks))):
        own, (h, *_, by_col, I, cols), block, packed, parts = factor.stacks[s]
        y = x[own]
        for p, (fronts, ring, _) in enumerate(parts):
            y[:, fronts] -= (part_ring_blocks(factor, s, p) @ x[ring][..., None])[..., 0].T
        t = y.conj()
        np.add.reduceat(packed[by_col] * t[I], cols, axis=0, out=y)
        y[:h] += (t[h:].T[:, None, :] @ block)[:, 0].T
        np.conjugate(y, out=y)
        x[own] = y
    return x


def random_gradient_operands(ny, nx):
    """Complex triangle rows ``k1, k2`` and node images ``w`` of an
    ``ny x nx`` grid, normal in both parts."""
    rng = np.random.default_rng(ny * nx)
    shapes = ((2, ny - 1, nx - 1), (2, ny - 1, nx - 1), (ny, nx))
    return tuple(rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes)


def bisected_image_grid(chart, n=65):
    """``inner_image_grid`` before the closed form: halve, then bisect
    the shrink factor until 129 samples per edge of the rectangle,
    scaled up by 12%, lie inside the boundary polygon."""
    margin = 0.12
    poly = conformal._boundary_polygon(chart)
    cx = float(chart.X.values[chart.grid.ny // 2, chart.grid.nx // 2])
    cy = float(chart.Y.values[chart.grid.ny // 2, chart.grid.nx // 2])
    half_w = max(chart.X.values.max() - cx, cx - chart.X.values.min())
    half_h = max(chart.Y.values.max() - cy, cy - chart.Y.values.min())

    def fits(scale):
        ex, ey = rectangle_edges(cx, cy, scale * half_w, scale * half_h, 129)
        return bool(conformal._points_in_polygon(ex, ey, poly).all())

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


def rectangle_edges(cx, cy, w, hh, count):
    """``count`` samples on each edge of the rectangle of half extents
    ``(w, hh)`` about ``(cx, cy)``, corners included."""
    ts = np.linspace(0.0, 1.0, count)
    ex = np.concatenate([cx - w + 2 * w * ts, np.full(count, cx + w),
                         cx - w + 2 * w * ts, np.full(count, cx - w)])
    ey = np.concatenate([np.full(count, cy - hh), cy - hh + 2 * hh * ts,
                         np.full(count, cy + hh), cy - hh + 2 * hh * ts])
    return ex, ey


def loop_points_in_polygon(px, py, poly):
    """Even-odd ray casting one polygon edge at a time."""
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(px.shape, dtype=bool)
    for ax, ay, bx, by in zip(x0, y0, x1, y1):
        crosses = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcut = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (px < xcut)
    return inside


def real_triangle_rows(metric):
    """The conformality rows before the complex form: two real rows per
    triangle over the 2N unknowns ``(X, Y)``."""
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
    sq_a = np.sqrt(a)
    s = np.sqrt(disc) / sq_a
    w = np.sqrt(0.5 * np.sqrt(disc))

    c1 = w / sq_a
    cs = w / s
    cb = w * b / (a * s)
    M = v0.size
    N = nx * ny
    rows1 = np.repeat(2 * np.arange(M), 5)
    cols1 = np.stack([v1, v0, N + v1, N + v2, N + v0], axis=1).ravel()
    vals1 = np.stack([c1, -c1, cb, -cs, cs - cb], axis=1).ravel()
    rows2 = np.repeat(2 * np.arange(M) + 1, 5)
    cols2 = np.stack([v1, v2, v0, N + v1, N + v0], axis=1).ravel()
    vals2 = np.stack([-cb, cs, cb - cs, c1, -c1], axis=1).ravel()
    return sp.coo_matrix(
        (
            np.concatenate([vals1, vals2]),
            (np.concatenate([rows1, rows2]), np.concatenate([cols1, cols2])),
        ),
        shape=(2 * M, 2 * N),
    ).tocsr()


def triangle_matrix(metric):
    """The M x N complex rows ``A`` of ``_triangle_rows`` as a sparse
    matrix, one row per triangle in the arrays' order."""
    g = metric.grid
    k1, k2 = conformal._triangle_rows(metric)
    idx = np.arange(g.nx * g.ny).reshape(g.shape)
    v0 = np.stack([idx[:-1, :-1], idx[:-1, :-1]]).ravel()
    v1 = np.stack([idx[:-1, 1:], idx[1:, 1:]]).ravel()
    v2 = np.stack([idx[1:, 1:], idx[1:, :-1]]).ravel()
    k1, k2 = k1.ravel(), k2.ravel()
    return sp.csr_matrix(
        (np.stack([k1, k2, -(k1 + k2)], axis=1).ravel(),
         (np.repeat(np.arange(k1.size), 3), np.stack([v1, v2, v0], axis=1).ravel())),
        shape=(k1.size, g.nx * g.ny),
    )


def stencil_matrix(H):
    """The sparse matrix a ``Stencil`` holds."""
    ny, nx = H.diag.shape
    idx = np.arange(nx * ny).reshape(ny, nx)
    ahead = [(idx[:, :-1], idx[:, 1:], H.east), (idx[:-1], idx[1:], H.north),
             (idx[:-1, :-1], idx[1:, 1:], H.northeast)]
    rows = [idx.ravel()] + [a.ravel() for a, _, _ in ahead] + [b.ravel() for _, b, _ in ahead]
    cols = [idx.ravel()] + [b.ravel() for _, b, _ in ahead] + [a.ravel() for a, _, _ in ahead]
    vals = ([H.diag.ravel().astype(complex)] + [v.ravel() for _, _, v in ahead]
            + [np.conj(v).ravel() for _, _, v in ahead])
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(H.diag.size, H.diag.size)).tocsr()
    K.eliminate_zeros()
    return K


def kkt_chart(metric):
    """Node images ``(X, Y)`` from the real (2N+4) x (2N+4) KKT system
    with the four pinned unknowns as Lagrange constraints."""
    g = metric.grid
    nx, N = g.nx, g.nx * g.ny
    A = real_triangle_rows(metric)
    L = float(np.trapezoid(np.sqrt(metric.E[0, :]), dx=g.dx))
    pins = sp.lil_matrix((4, 2 * N))
    pins[0, 0] = 1.0
    pins[1, N] = 1.0
    pins[2, nx - 1] = 1.0
    pins[3, N + nx - 1] = 1.0
    K = sp.bmat([[A.T @ A, pins.T], [pins, None]], format="csc")
    sol = spsolve(K, np.concatenate([np.zeros(2 * N), [0.0, 0.0, L, 0.0]]))
    return sol[:N].reshape(g.shape), sol[N : 2 * N].reshape(g.shape)


def chart_jacobian(chart):
    J = np.empty(chart.grid.shape + (2, 2))
    g = chart.grid
    J[..., 0, 0] = fd_partial(chart.X.values, g, "x")
    J[..., 0, 1] = fd_partial(chart.X.values, g, "y")
    J[..., 1, 0] = fd_partial(chart.Y.values, g, "x")
    J[..., 1, 1] = fd_partial(chart.Y.values, g, "y")
    return J


def similarity_residual(chart_a, chart_b):
    """Best-fit complex similarity from a's node images onto b's."""
    za = (chart_a.X.values + 1j * chart_a.Y.values).ravel()
    zb = (chart_b.X.values + 1j * chart_b.Y.values).ravel()
    zac = za - za.mean()
    alpha = np.vdot(zac, zb - zb.mean()) / np.vdot(zac, zac)
    beta = zb.mean() - alpha * za.mean()
    return float(np.max(np.abs(alpha * za + beta - zb)))


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown catalog chart"):
            catalog_chart("klein_bottle")

    def test_disk_factor_at_origin(self):
        _, chart, _ = catalog_chart("poincare_disk_patch", 33)
        assert chart.h.values[16, 16] == 2.0

    def test_half_plane_curvature(self):
        _, chart, extras = catalog_chart("half_plane_pseudosphere", 65)
        K = gauss_curvature_isothermic(chart.h)
        g = chart.grid
        assert np.abs(K + 1.0).max() <= 10 * g.h**2
        assert np.allclose(extras["u"].values, np.log(chart.h.values), atol=1e-14)

    def test_sphere_curvature_is_plus_one(self):
        _, chart, extras = catalog_chart("sphere_patch", 65)
        K = gauss_curvature_isothermic(chart.h)
        assert np.abs(K - 1.0).max() <= 10 * chart.grid.h**2
        assert np.allclose(extras["u"].values, np.log(chart.h.values), atol=1e-14)

    def test_flat_chart_is_the_shear(self):
        metric, chart, extras = catalog_chart("flat_plane", 33)
        g = chart.grid
        X, Y = g.mesh()
        assert np.allclose(chart.X.values, X + 0.5 * Y, atol=1e-15)
        assert np.allclose(chart.Y.values, np.sqrt(3.0) / 2.0 * Y, atol=1e-15)
        assert np.all(chart.h.values == 1.0)
        assert np.allclose(metric.F, 0.5, atol=1e-15)


class TestChartValidation:
    def test_component_grids_must_match(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        g2 = Grid2D.from_bounds(0, 2, 0, 1, 9, 9)
        X, Y = g.mesh()
        one = ScalarField(g, np.ones(g.shape))
        with pytest.raises(GridError):
            Chart(ScalarField(g, X), ScalarField(g2, g2.mesh()[1]), one)

    def test_factor_must_be_positive(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        X, Y = g.mesh()
        with pytest.raises(GridError, match="positive"):
            Chart(ScalarField(g, X), ScalarField(g, Y), ScalarField(g, 0.0 * X))

    def test_vanishing_jacobian_rejected(self):
        # X = x^2 has a zero x-derivative on the x = 0 column
        g = Grid2D.from_bounds(-1, 1, 0, 1, 9, 9)
        X, Y = g.mesh()
        one = ScalarField(g, np.ones(g.shape))
        with pytest.raises(GridError, match="Jacobian"):
            Chart(ScalarField(g, X**2), ScalarField(g, Y), one)


class TestFlatten:
    def test_flat_angle_recovers_exact_chart(self):
        metric, exact, _ = catalog_chart("flat_plane", 65)
        chart = flatten_conformal(metric)
        assert chart.anisotropy <= 1e-6
        assert chart.skew <= 1e-6
        # the pin gauge (row length 1, endpoints on the axis) coincides
        # with the exact shear, so no alignment is needed
        assert np.max(np.abs(chart.X.values - exact.X.values)) <= 1e-6
        assert np.max(np.abs(chart.Y.values - exact.Y.values)) <= 1e-6
        assert np.max(np.abs(chart.h.values - 1.0)) <= 1e-6

    @staticmethod
    def flat_chart_error(n):
        metric, exact, _ = catalog_chart("flat_plane", n)
        chart = flatten_conformal(metric)
        return max(np.max(np.abs(chart.X.values - exact.X.values)),
                   np.max(np.abs(chart.Y.values - exact.Y.values)))

    def test_flat_angle_chart_accuracy_at_129(self):
        # the solve of the normal equations alone reads 6.9e-8 here; the
        # correction by the triangle rows' gradient recovers the exact
        # chart to rounding
        assert self.flat_chart_error(129) <= 1e-12

    def test_flat_angle_chart_accuracy_at_257(self):
        # 1.1e-6 before the correction
        assert self.flat_chart_error(257) <= 1e-12

    def test_isothermic_input_is_left_alone(self):
        metric, _, _ = catalog_chart("half_plane_pseudosphere", 65)
        chart = flatten_conformal(metric)
        g = metric.grid
        X, Y = g.mesh()
        assert chart.anisotropy <= 1e-6
        assert np.max(np.abs(chart.X.values - (X - g.x0))) <= 1e-8
        assert np.max(np.abs(chart.Y.values - (Y - g.y0))) <= 1e-8

    def test_soliton_patch_flattens(self):
        g, metric = soliton_metric(65)
        chart = flatten_conformal(metric)
        assert chart.anisotropy <= 1e-3
        assert chart.skew <= 1e-3
        assert np.min(np.linalg.det(chart_jacobian(chart))) > 0.0

    def test_transition_to_exact_chart_is_conformal(self):
        # the recovered chart and the closed-form chart of the same
        # metric must differ by a holomorphic map: the composed
        # Jacobian is similarity up to discretization error
        g, metric = soliton_metric(65)
        chart = flatten_conformal(metric)
        X, Y = g.mesh()
        Je = np.empty(g.shape + (2, 2))
        Je[..., 0, 0] = np.sinh(X + Y)
        Je[..., 0, 1] = np.sinh(X + Y)
        Je[..., 1, 0] = 1.0
        Je[..., 1, 1] = -1.0
        Jt = chart_jacobian(chart) @ np.linalg.inv(Je)
        cr = np.abs(Jt[..., 0, 0] - Jt[..., 1, 1]) + np.abs(Jt[..., 0, 1] + Jt[..., 1, 0])
        mag = np.sqrt(np.abs(np.linalg.det(Jt)))
        assert np.max((cr / mag)[1:-1, 1:-1]) <= 10 * g.h**2

    def test_two_flattenings_differ_conformally(self):
        # rotating the source square relabels the cells and moves the
        # pins, so the charts differ, but only by a conformal map
        g, metric = soliton_metric(65)
        chart = flatten_conformal(metric)
        gr = Grid2D.from_bounds(-g.y1, -g.y0, g.x0, g.x1, 65, 65)
        rotated = MetricField(
            gr,
            np.rot90(metric.G, k=-1),
            -np.rot90(metric.F, k=-1),
            np.rot90(metric.E, k=-1),
        )
        other = flatten_conformal(rotated)
        back = Chart(
            ScalarField(g, np.rot90(other.X.values, 1)),
            ScalarField(g, np.rot90(other.Y.values, 1)),
            ScalarField(g, np.rot90(other.h.values, 1)),
        )
        Jt = chart_jacobian(back) @ np.linalg.inv(chart_jacobian(chart))
        cr = np.abs(Jt[..., 0, 0] - Jt[..., 1, 1]) + np.abs(Jt[..., 0, 1] + Jt[..., 1, 0])
        mag = np.sqrt(np.abs(np.linalg.det(Jt)))
        assert np.max((cr / mag)[1:-1, 1:-1]) <= 10 * g.h**2

    def test_translation_equivariance_is_exact(self):
        g, metric = soliton_metric(65)
        chart = flatten_conformal(metric)
        g2 = Grid2D.from_bounds(g.x0 + 0.4, g.x1 + 0.4, g.y0 - 0.7, g.y1 - 0.7, 65, 65)
        moved = flatten_conformal(MetricField(g2, metric.E, metric.F, metric.G))
        assert similarity_residual(chart, moved) <= 1e-9


@pytest.fixture(scope="module")
def asymmetric_soliton_metric():
    # nx != ny and dx != dy, so no x<->y symmetry hides a transposition
    g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.4, 65, 49)
    return chebyshev_metric(g)


class TestComplexFlatten:
    """The flattener solves one complex Hermitian system; the real rows
    and the KKT solve it replaced are the references."""

    def test_hermitian_form_matches_real_normal_matrix(self, asymmetric_soliton_metric):
        A = triangle_matrix(asymmetric_soliton_metric)
        H = (A.conj().T @ A).toarray()
        R = real_triangle_rows(asymmetric_soliton_metric)
        AtA = (R.T @ R).toarray()
        N = H.shape[0]
        tol = 1e-13 * np.max(np.abs(AtA))
        assert np.max(np.abs(H.real - AtA[:N, :N])) <= tol
        assert np.max(np.abs(H.real - AtA[N:, N:])) <= tol
        assert np.max(np.abs(-H.imag - AtA[:N, N:])) <= tol
        assert np.max(np.abs(H.imag - AtA[N:, :N])) <= tol

    def test_stencil_is_the_pinned_normal_matrix(self, asymmetric_soliton_metric):
        # A^H A with the pins' rows and columns replaced by identity ones
        metric = asymmetric_soliton_metric
        A = triangle_matrix(metric)
        want = (A.conj().T @ A).tolil()
        for pin in (0, metric.grid.nx - 1):
            want[pin, :] = 0.0
            want[:, pin] = 0.0
            want[pin, pin] = 1.0
        want = want.toarray()
        got = stencil_matrix(conformal.NormalEquations.assemble(*conformal._triangle_rows(metric)))
        assert np.max(np.abs(got.toarray() - want)) <= 1e-14 * np.max(np.abs(want))

    def test_solve_is_one_hermitian_system(self, asymmetric_soliton_metric, monkeypatch):
        seen, factors = [], []
        solve, factor = conformal.spsolve, elliptic.splu

        def capture(H, rhs):
            seen.append(H)
            return solve(H, rhs)

        def count(H):
            factors.append(H)
            return factor(H)

        monkeypatch.setattr(conformal, "spsolve", capture)
        monkeypatch.setattr(elliptic, "splu", count)
        flatten_conformal(asymmetric_soliton_metric)
        (H,) = seen
        assert factors == [H]
        N = asymmetric_soliton_metric.grid.nx * asymmetric_soliton_metric.grid.ny
        assert H.diag.size == N
        assert np.isrealobj(H.diag)
        K = stencil_matrix(H)
        assert K.nnz == H.nnz
        assert np.max(np.diff(K.indptr)) <= 7
        assert (K != K.conj().T).nnz == 0

    def test_chart_matches_kkt_reference(self, asymmetric_soliton_metric):
        chart = flatten_conformal(asymmetric_soliton_metric)
        X, Y = kkt_chart(asymmetric_soliton_metric)
        assert np.max(np.abs(chart.X.values - X)) <= 1e-8
        assert np.max(np.abs(chart.Y.values - Y)) <= 1e-8

    def test_pins_hold_exactly(self, asymmetric_soliton_metric):
        metric = asymmetric_soliton_metric
        g = metric.grid
        chart = flatten_conformal(metric)
        L = float(np.trapezoid(np.sqrt(metric.E[0, :]), dx=g.dx))
        assert chart.X.values[0, 0] == 0.0 and chart.Y.values[0, 0] == 0.0
        assert chart.X.values[0, g.nx - 1] == L and chart.Y.values[0, g.nx - 1] == 0.0


class TestFlattenKernel:
    """``conformal.spsolve`` factors the Hermitian system by
    nested-dissection Cholesky, with no pivoting."""

    def test_fill_stays_symmetric(self, monkeypatch):
        # the CLI's sphere_patch control metric at n = 129
        g = Grid2D.from_bounds(-0.35, 0.35, -0.35, 0.35, 129, 129)
        X, Y = g.mesh()
        h = 2.0 / (1.0 + X**2 + Y**2)
        metric = MetricField(g, h**2, np.zeros(g.shape), h**2)
        fills = []
        factor = elliptic.splu

        def measure(A, **kwargs):
            lu = factor(A, **kwargs)
            fills.append((lu.L.nnz + lu.U.nnz) / A.nnz)
            return lu

        # spsolve factors through the package's one factorization entry point
        monkeypatch.setattr(elliptic, "splu", measure)
        flatten_conformal(metric)
        # nested dissection to 16-node leaves measures 10.4, 64-node
        # leaves 17.6; SuperLU's minimum degree read 9.3
        (fill,) = fills
        assert fill <= 11.0

    def test_factor_memory(self):
        # the sphere_patch system at n = 129: the factor's blocks take
        # 9.0 MiB; a factor that stored square inverse blocks and full
        # Schur complements peaked at 18.8 MiB, one that gathered its
        # stencil entries from a (7, N) table at 13.7 MiB, this one at
        # 11.9 MiB
        g = Grid2D.from_bounds(-0.35, 0.35, -0.35, 0.35, 129, 129)
        X, Y = g.mesh()
        h = 2.0 / (1.0 + X**2 + Y**2)
        H = conformal.NormalEquations.assemble(
            *conformal._triangle_rows(MetricField(g, h**2, np.zeros(g.shape), h**2)))
        tracemalloc.start()
        try:
            elliptic.splu(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20

    def test_factor_holds_no_leaf_ring_blocks(self):
        # one_soliton's flatten system at n = 129: a factor that stored
        # the leaves' ring blocks held 9.75 MiB, one that rebuilds them
        # 7.8 MiB
        g, metric = soliton_metric(129)
        H = conformal.NormalEquations.assemble(*conformal._triangle_rows(metric))
        tracemalloc.start()
        try:
            factor = elliptic.splu(H)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert factor.L.nnz > 0
        assert held <= 8.5 * 2**20

    def test_flatten_working_memory(self):
        # one_soliton's flatten system at n = 129: besides the factor's
        # own arrays, the solve and its correction take 8.86 N complex
        # entries at their peak, the update stack and the frontal
        # matrices included, in bands of grid.bands and before them
        # alike; a factor that gathered from a (7, N) table of stencil
        # entries, with a gradient over both triangle orientations at
        # once, took 15.8 N
        c = 10.0
        g, metric = soliton_metric(129)
        H = conformal.NormalEquations.assemble(*conformal._triangle_rows(metric))
        held = {}

        def walk(x):
            if isinstance(x, np.ndarray):
                held[id(x)] = x.nbytes
            elif isinstance(x, (tuple, list)):
                for v in x:
                    walk(v)

        factor = elliptic.splu(H)
        walk(factor.stacks)
        # the stored blocks and the leaves' rebuilt ring blocks are
        # 16 L.nnz bytes; the rest held are index arrays
        rebuilt = sum(Y.nbytes for s, stack in enumerate(factor.stacks)
                      for p in range(len(stack[4])) for *_, Y in factor.ring_blocks(s, p)
                      if Y.base is None)
        assert rebuilt > 0
        assert sum(held.values()) + rebuilt > 16 * factor.L.nnz
        del factor
        b = np.ones(H.diag.size, dtype=complex)
        tracemalloc.start()
        try:
            conformal.spsolve(H, b)
            rise = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rise <= sum(held.values()) + c * 16 * H.diag.size

    def test_solve_working_memory(self):
        # one solve of one_soliton's flatten system at n = 129 rises 1.17 N
        # complex entries beyond its result in bands of grid.bands, the
        # leaves' rebuilt ring blocks included (1.75 N in chunks of at
        # least two fronts); applied to a whole stack at a time, the
        # packed triangles and ring products rose 3.7 N
        g, metric = soliton_metric(129)
        H = conformal.NormalEquations.assemble(*conformal._triangle_rows(metric))
        factor = elliptic.splu(H)
        b = np.ones(H.diag.size, dtype=complex)
        tracemalloc.start()
        try:
            x = factor.solve(b)
            rise = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rise <= x.nbytes + 2 * 16 * H.diag.size

    @pytest.mark.parametrize("band", [1, 300, None])
    def test_banded_solve_matches_the_whole_stack_solve(self, monkeypatch, band):
        # a band of one front hands BLAS unit-stride vectors, which it
        # rounds differently from a whole stack's strided ones, and numpy
        # forms a large whole-stack product in place in its temporary
        # operand; measured at most 1.6e-15 relative
        g, metric = soliton_metric(129)
        H = conformal.NormalEquations.assemble(*conformal._triangle_rows(metric))
        factor = elliptic.splu(H)
        if band is not None:
            monkeypatch.setattr(grid, "BAND", band)
        b = np.array([1.0, 1.0j]) @ np.random.default_rng(7).standard_normal((2, H.diag.size))
        want = whole_stack_solve(factor, b)
        assert np.max(np.abs(factor.solve(b) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("ny, nx", [(9, 13), (100, 100), (257, 129)])
    def test_gradient_is_bitwise_the_same_in_any_bands(self, monkeypatch, ny, nx):
        # each node sums its terms in one order whatever the bands; at
        # 257 x 129 the default takes eight bands of rows, 2^30 one
        k1, k2, w = random_gradient_operands(ny, nx)
        want = conformal._gradient(k1, k2, w)
        for band in (1, 7, 300, 1 << 30):
            monkeypatch.setattr(grid, "BAND", band)
            assert np.array_equal(conformal._gradient(k1, k2, w), want)

    @pytest.mark.parametrize("ny, nx", [(9, 13), (65, 33), (100, 100), (257, 129)])
    def test_gradient_matches_both_orientations_at_once(self, ny, nx):
        # the gradient over both orientations at once, as the reports
        # were first made; at 100 x 100 numpy forms its products
        # k * (w1 - w0) in place in the difference, which rounds the
        # imaginary parts apart; measured at most 2.1e-16 relative
        k1, k2, w = random_gradient_operands(ny, nx)
        w0 = w[:-1, :-1]
        w1, w2 = np.stack([w[:-1, 1:], w[1:, 1:]]), np.stack([w[1:, 1:], w[1:, :-1]])
        r = k1 * (w1 - w0) + k2 * (w2 - w0)
        a1, a2 = np.conj(k1) * r, np.conj(k2) * r
        want = np.zeros(w.shape, dtype=complex)
        want[:-1, :-1] -= (a1 + a2).sum(axis=0)
        want[:-1, 1:] += a1[0]
        want[1:, 1:] += a1[1] + a2[0]
        want[1:, :-1] += a2[1]
        got = conformal._gradient(k1, k2, w)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_singular_system_is_a_conformal_error(self, asymmetric_soliton_metric):
        H = conformal.NormalEquations.assemble(*conformal._triangle_rows(asymmetric_soliton_metric))
        diag = H.diag.copy()
        diag[5, 7] = 0.0  # a zero pivot where a positive one belongs
        with pytest.raises(ConformalError, match="singular"):
            conformal.spsolve(replace(H, diag=diag), np.ones(H.diag.size, dtype=complex))


class TestFlattenBackwardError:
    """The flatten solve's normwise backward error
    ``|H z - b| / (|H| |z| + |b|)`` in max norms over the free rows, with
    ``H z - b`` taken from the triangle rows by ``_gradient`` and ``|H|``
    the stencil's largest absolute row sum."""

    @staticmethod
    def backward_error(metric, solve):
        g = metric.grid
        k1, k2 = conformal._triangle_rows(metric)
        H = conformal.NormalEquations.assemble(k1, k2)
        # the right side and the pins as flatten_conformal sets them
        L = float(np.trapezoid(np.sqrt(metric.E[0, :]), dx=g.dx))
        pins = np.zeros(g.shape, dtype=complex)
        pins[0, -1] = L
        b = -conformal._gradient(k1, k2, pins)
        b[0, [0, -1]] = 0.0, L
        z = solve(H, b.ravel()).reshape(g.shape)
        z[0, [0, -1]] = 0.0, L
        free = np.ones(g.shape, dtype=bool)
        free[0, [0, -1]] = False
        r = conformal._gradient(k1, k2, z)[free]
        norm_H = np.abs(stencil_matrix(H)).sum(axis=1).A.ravel()[free.ravel()].max()
        scale = norm_H * np.abs(z[free]).max() + np.abs(b[free]).max()
        return np.abs(r).max() / scale / np.finfo(float).eps

    @pytest.mark.parametrize("source", ["flat_plane", "one_soliton"])
    @pytest.mark.parametrize("n", [129, 257])
    def test_correcting_step_brings_it_under_half_an_eps(self, source, n):
        # measured 0.07-0.19 eps with the correcting step and 0.95-4.01
        # eps without it
        metric = catalog_chart("flat_plane", n)[0] if source == "flat_plane" else soliton_metric(n)[1]
        assert self.backward_error(metric, conformal.spsolve) <= 0.5
        assert self.backward_error(metric, lambda H, b: elliptic.splu(H).solve(b)) > 0.5


class TestImageResampling:
    def test_identity_chart_roundtrip(self):
        _, chart, _ = catalog_chart("half_plane_pseudosphere", 65)
        ig = inner_image_grid(chart, 33)
        x, y = chart_preimage(chart, ig)
        XT, YT = ig.mesh()
        assert np.max(np.abs(x - XT)) <= 1e-12
        assert np.max(np.abs(y - YT)) <= 1e-12

    def test_soliton_roundtrip(self):
        g, metric = soliton_metric(65)
        chart = flatten_conformal(metric)
        ig = inner_image_grid(chart, 33)
        XT, YT = ig.mesh()
        assert np.max(np.abs(resample_to_image(chart.X, chart, ig).values - XT)) <= 1e-9
        assert np.max(np.abs(resample_to_image(chart.Y, chart, ig).values - YT)) <= 1e-9

    def test_curvature_on_image_grid(self):
        g, metric = soliton_metric(65)
        chart = flatten_conformal(metric)
        ig = inner_image_grid(chart, 65)
        h_img = resample_to_image(chart.h, chart, ig)
        K = gauss_curvature_isothermic(h_img)
        assert np.abs(K[1:-1, 1:-1] + 1.0).max() <= 1e-2

    def test_resample_requires_matching_grid(self):
        _, chart, _ = catalog_chart("half_plane_pseudosphere", 33)
        other = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        ig = inner_image_grid(chart, 9)
        with pytest.raises(GridError):
            resample_to_image(ScalarField(other, np.ones(other.shape)), chart, ig)


class TestSpline:
    """The numpy not-a-knot spline against FITPACK's ``s=0`` interpolant."""

    def test_matches_rect_bivariate_spline(self):
        from scipy.interpolate import RectBivariateSpline

        # nx != ny, dx != dy, and data with no x <-> y symmetry
        g = Grid2D.from_bounds(-0.3, 1.1, 0.2, 0.9, 57, 41)
        X, Y = g.mesh()
        values = np.sin(2.1 * X + 0.4 * Y**2) * np.exp(0.7 * Y) + X**3 * Y
        rng = np.random.default_rng(5)
        # random points, every node, and the last row and column between nodes
        px = np.concatenate([rng.uniform(g.x0, g.x1, 3000), X.ravel(),
                             np.full(200, g.x1), rng.uniform(g.x0, g.x1, 200)])
        py = np.concatenate([rng.uniform(g.y0, g.y1, 3000), Y.ravel(),
                             rng.uniform(g.y0, g.y1, 200), np.full(200, g.y1)])
        f, f_x, f_y = conformal._spline(g, values)(px, py)
        oracle = RectBivariateSpline(g.y(), g.x(), values)  # first axis is y
        assert np.max(np.abs(f - oracle.ev(py, px))) <= 1e-13
        assert np.max(np.abs(f_x - oracle.ev(py, px, dy=1))) <= 1e-11
        assert np.max(np.abs(f_y - oracle.ev(py, px, dx=1))) <= 1e-11

    @pytest.mark.parametrize("band", [1, 7, None])
    def test_banded_evaluate_is_bitwise_the_whole_array_one(self, monkeypatch, band):
        # the spline as it evaluated every point at once, one cell table
        # of 16 doubles per point
        g = Grid2D.from_bounds(-0.3, 1.1, 0.2, 0.9, 57, 41)
        X, Y = g.mesh()
        values = np.sin(2.1 * X + 0.4 * Y**2) * np.exp(0.7 * Y) + X**3 * Y
        f_xx = values @ conformal._second_derivative_map(g.nx, g.dx).T
        sy = conformal._second_derivative_map(g.ny, g.dy)
        nodes = np.stack([values, f_xx, sy @ values, sy @ f_xx]).reshape(2, 2, -1)
        corners = np.array([[0, 1], [g.nx, g.nx + 1]])[..., None]
        rng = np.random.default_rng(9)
        # more points than the default band, every node, and the last
        # row and column between nodes
        px = np.concatenate([rng.uniform(g.x0, g.x1, 3000), X.ravel(),
                             np.full(200, g.x1), rng.uniform(g.x0, g.x1, 200)])
        py = np.concatenate([rng.uniform(g.y0, g.y1, 3000), Y.ravel(),
                             rng.uniform(g.y0, g.y1, 200), np.full(200, g.y1)])
        assert len(px) > grid.BAND
        jx, wx, wx_slope = conformal._cell_weights(px, g.x0, g.dx, g.nx)
        jy, wy, wy_slope = conformal._cell_weights(py, g.y0, g.dy, g.ny)
        cell = nodes[:, :, jy * g.nx + jx + corners]
        along = (cell * wx[None, :, None]).sum(axis=(1, 3))
        along_x = (cell * wx_slope[None, :, None]).sum(axis=(1, 3))
        want = ((along * wy).sum(axis=(0, 1)), (along_x * wy).sum(axis=(0, 1)),
                (along * wy_slope).sum(axis=(0, 1)))
        if band is not None:
            monkeypatch.setattr(grid, "BAND", band)
        got = conformal._spline(g, values)(px, py)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_needs_four_nodes_per_axis(self):
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 9, 3)
        with pytest.raises(ConformalError, match="4 nodes"):
            conformal._spline(g, np.ones(g.shape))


@pytest.fixture(scope="module")
def asymmetric_soliton_chart(asymmetric_soliton_metric):
    return flatten_conformal(asymmetric_soliton_metric)


class TestImageStage:
    """The closed-form image rectangle against the bisection it
    replaced, and the coarse-to-fine chart preimage."""

    @pytest.mark.parametrize("source", ["soliton", "half_plane_pseudosphere",
                                        "poincare_disk_patch"])
    def test_rectangle_matches_bisection(self, request, source):
        if source == "soliton":
            chart = request.getfixturevalue("asymmetric_soliton_chart")
        else:
            chart = catalog_chart(source, 65)[1]
        grid = inner_image_grid(chart, 33)
        oracle = bisected_image_grid(chart, 33)
        assert grid.x0 + grid.x1 == pytest.approx(oracle.x0 + oracle.x1, abs=1e-12)
        assert grid.y0 + grid.y1 == pytest.approx(oracle.y0 + oracle.y1, abs=1e-12)
        assert grid.x1 - grid.x0 == pytest.approx(oracle.x1 - oracle.x0, rel=1e-8)
        assert grid.y1 - grid.y0 == pytest.approx(oracle.y1 - oracle.y0, rel=1e-8)
        # scaled by 12% the rectangle touches the boundary: a hair less
        # lies inside, a hair more pokes out
        cx, cy = (grid.x0 + grid.x1) / 2, (grid.y0 + grid.y1) / 2
        poly = conformal._boundary_polygon(chart)
        for scale, inside in ((1.12 * (1 - 1e-9), True), (1.12 * (1 + 1e-6), False)):
            ex, ey = rectangle_edges(cx, cy, scale * (grid.x1 - cx), scale * (grid.y1 - cy), 2049)
            assert loop_points_in_polygon(ex, ey, poly).all() == inside

    def test_preimage_roundtrip(self, asymmetric_soliton_chart):
        from scipy.interpolate import RectBivariateSpline

        chart = asymmetric_soliton_chart
        box = inner_image_grid(chart, 33)
        image = Grid2D.from_bounds(box.x0, box.x1, box.y0, box.y1, 41, 29)
        x, y = chart_preimage(chart, image)
        g = chart.grid
        XT, YT = image.mesh()
        for values, target in ((chart.X.values, XT), (chart.Y.values, YT)):
            spline = RectBivariateSpline(g.y(), g.x(), values)
            assert np.max(np.abs(spline.ev(y, x) - target)) <= 1e-11

    @pytest.mark.parametrize("nx", [129, 128])
    def test_doubly_wrapped_chart_has_no_image_grid(self, nx):
        # the polar map of theta in [0, 4 pi], r in [1, 2] covers the
        # annulus twice, so its boundary polygon has no inside; the
        # central node's image lies on the seam at nx = 129, off it at 128
        g = Grid2D.from_bounds(0.0, 4.0 * np.pi, 1.0, 2.0, nx, 17)
        T, R = g.mesh()
        chart = Chart(ScalarField(g, R * np.cos(T)), ScalarField(g, R * np.sin(T)),
                      ScalarField(g, np.ones(g.shape)))
        with pytest.raises(ConformalError):
            inner_image_grid(chart)

    def test_preimage_outside_the_image_fails(self):
        _, chart, _ = catalog_chart("half_plane_pseudosphere", 33)
        outside = Grid2D.from_bounds(2.0, 3.0, 1.2, 1.8, 9, 9)
        with pytest.raises(ConformalError, match="did not converge"):
            chart_preimage(chart, outside)


class TestPreimageSeed:
    """The coarse level's nearest-image seed is sized to the coarse
    grid, not to the image grid, and taken one coarse row at a time."""

    @pytest.mark.parametrize("case", ["lattice", "chart"])
    def test_row_by_row_seeds_are_the_dense_argmin(self, case, asymmetric_soliton_chart):
        if case == "lattice":
            # every point twice, and targets at half steps, each as near
            # to two or four lattice points: ties everywhere
            i, j = np.meshgrid(np.arange(6.0), np.arange(5.0))
            px, py = np.tile(i.ravel(), 2), np.tile(j.ravel(), 2)
            tx, ty = np.meshgrid(np.arange(-1.0, 6.5, 0.5), np.arange(-1.0, 5.5, 0.5))
        else:
            chart = asymmetric_soliton_chart
            coarse = inner_image_grid(chart, 33)
            tx, ty = coarse.mesh()
            px, py = chart.X.values[::2, ::2].ravel(), chart.Y.values[::2, ::2].ravel()
        dense = (tx.ravel()[:, None] - px) ** 2 + (ty.ravel()[:, None] - py) ** 2
        if case == "lattice":
            assert ((dense == dense.min(axis=1, keepdims=True)).sum(axis=1) > 1).all()
        assert np.array_equal(conformal._nearest(tx, ty, px, py), np.argmin(dense, axis=1))

    def test_preimage_peak_per_image_node(self):
        # one_soliton's chart at n = 257 onto a 257 x 257 image grid: a
        # dense seed argmin and whole-array spline evaluations peaked at
        # 649 bytes per image node, row-by-row seeds and banded
        # evaluations at 272
        g, metric = soliton_metric(257)
        chart = flatten_conformal(metric)
        image = inner_image_grid(chart, 257)
        tracemalloc.start()
        try:
            chart_preimage(chart, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 320 * image.nx * image.ny

    def test_preimage_memory_is_quadratic(self):
        # a dense seed holds (129^2 image nodes) x (65^2 seed nodes)
        # doubles, about 0.5 GB before temporaries
        chart = catalog_chart("poincare_disk_patch", 129)[1]
        image = inner_image_grid(chart, 129)
        tracemalloc.start()
        try:
            chart_preimage(chart, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestImageGridKernels:
    def test_boundary_polygon_walks_the_frame(self, asymmetric_soliton_chart):
        chart = asymmetric_soliton_chart
        ny, nx = chart.grid.shape
        idx = ([(0, i) for i in range(nx)] + [(j, nx - 1) for j in range(1, ny)]
               + [(ny - 1, i) for i in range(nx - 2, -1, -1)]
               + [(j, 0) for j in range(ny - 2, 0, -1)])
        expected = np.array([(chart.X.values[j, i], chart.Y.values[j, i]) for j, i in idx])
        assert np.array_equal(conformal._boundary_polygon(chart), expected)

    def test_points_in_polygon_equals_edge_loop(self, asymmetric_soliton_chart):
        chart = asymmetric_soliton_chart
        poly = conformal._boundary_polygon(chart)
        rng = np.random.default_rng(5)
        X, Y = chart.X.values, chart.Y.values
        # random points around the image plus the polygon's own vertices,
        # where the crossing test sits on its ties
        px = np.concatenate([rng.uniform(X.min() - 0.1, X.max() + 0.1, 3000), poly[:, 0]])
        py = np.concatenate([rng.uniform(Y.min() - 0.1, Y.max() + 0.1, 3000), poly[:, 1]])
        inside = conformal._points_in_polygon(px, py, poly)
        assert np.array_equal(inside, loop_points_in_polygon(px, py, poly))
        assert inside.any() and not inside.all()


class TestRescale:
    def test_clean_factor_fits_one(self):
        _, chart, _ = catalog_chart("half_plane_pseudosphere", 65)
        rescaled, fit = rescale_to_liouville(chart.h)
        assert abs(fit - 1.0) <= 10 * chart.grid.h**2
        assert np.max(np.abs(rescaled.values - chart.h.values)) <= 1e-3

    def test_stray_constant_is_removed(self):
        _, chart, _ = catalog_chart("half_plane_pseudosphere", 65)
        scaled = ScalarField(chart.grid, 3.0 * chart.h.values)
        rescaled, fit = rescale_to_liouville(scaled)
        assert fit == pytest.approx(1.0 / 9.0, rel=1e-3)
        assert np.max(np.abs(rescaled.values - chart.h.values)) <= 1e-3

    def test_flat_factor_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        with pytest.raises(ConformalError):
            rescale_to_liouville(ScalarField(g, np.ones(g.shape)))

    def test_nonpositive_factor_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        with pytest.raises(GridError):
            rescale_to_liouville(ScalarField(g, np.zeros(g.shape)))
