"""Catalog charts and the least-squares conformal flattener."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import spsolve

import minding_lab.conformal as conformal
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


def soliton_metric(n):
    g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, n, n)
    X, Y = g.mesh()
    return g, MetricField.chebyshev(4.0 * np.arctan(np.exp(X + Y)), g)


def dense_seed(px, py, qx, qy):
    """The preimage seed before the KD-tree: argmin over one dense
    (queries x points) squared-distance matrix."""
    d2 = (qx[:, None] - px[None, :]) ** 2 + (qy[:, None] - py[None, :]) ** 2
    return np.argmin(d2, axis=1)


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
    J[..., 0, 0] = fd_partial(chart.X, "x").values
    J[..., 0, 1] = fd_partial(chart.X, "y").values
    J[..., 1, 0] = fd_partial(chart.Y, "x").values
    J[..., 1, 1] = fd_partial(chart.Y, "y").values
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

    def test_flat_needs_angle(self):
        with pytest.raises(ValueError):
            catalog_chart("flat_constant_angle")
        with pytest.raises(ValueError):
            catalog_chart("flat_constant_angle", alpha=np.pi)

    def test_disk_factor_at_origin(self):
        _, chart, _ = catalog_chart("poincare_disk_patch", 33)
        assert chart.h.values[16, 16] == 2.0

    def test_half_plane_curvature(self):
        _, chart, extras = catalog_chart("half_plane_pseudosphere", 65)
        K = gauss_curvature_isothermic(chart.h)
        g = chart.grid
        assert np.nanmax(np.abs(K.values[1:-1, 1:-1] + 1.0)) <= 10 * g.h**2
        assert np.allclose(extras["u"].values, np.log(chart.h.values), atol=1e-14)

    def test_flat_chart_is_the_shear(self):
        metric, chart, extras = catalog_chart("flat_constant_angle", 33, alpha=np.pi / 3)
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
        metric, exact, _ = catalog_chart("flat_constant_angle", 65, alpha=np.pi / 3)
        chart = flatten_conformal(metric)
        assert chart.anisotropy <= 1e-6
        assert chart.skew <= 1e-6
        # the pin gauge (row length 1, endpoints on the axis) coincides
        # with the exact shear, so no alignment is needed
        assert np.max(np.abs(chart.X.values - exact.X.values)) <= 1e-6
        assert np.max(np.abs(chart.Y.values - exact.Y.values)) <= 1e-6
        assert np.max(np.abs(chart.h.values - 1.0)) <= 1e-6

    def test_flat_angle_chart_accuracy_at_129(self):
        # the symmetric factorization recovers the exact chart at the
        # accuracy of the conditioning; partial pivoting lost about 4x
        metric, exact, _ = catalog_chart("flat_constant_angle", 129, alpha=np.pi / 3)
        chart = flatten_conformal(metric)
        assert np.max(np.abs(chart.X.values - exact.X.values)) <= 2.5e-8
        assert np.max(np.abs(chart.Y.values - exact.Y.values)) <= 2.5e-8

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
    X, Y = g.mesh()
    return MetricField.chebyshev(4.0 * np.arctan(np.exp(X + Y)), g)


class TestComplexFlatten:
    """The flattener solves one complex Hermitian system; the real rows
    and the KKT solve it replaced are the references."""

    def test_hermitian_form_matches_real_normal_matrix(self, asymmetric_soliton_metric):
        A = conformal._triangle_rows(asymmetric_soliton_metric)
        assert np.iscomplexobj(A.data)
        H = (A.conj().T @ A).toarray()
        R = real_triangle_rows(asymmetric_soliton_metric)
        AtA = (R.T @ R).toarray()
        N = H.shape[0]
        tol = 1e-13 * np.max(np.abs(AtA))
        assert np.max(np.abs(H.real - AtA[:N, :N])) <= tol
        assert np.max(np.abs(H.real - AtA[N:, N:])) <= tol
        assert np.max(np.abs(-H.imag - AtA[:N, N:])) <= tol
        assert np.max(np.abs(H.imag - AtA[N:, :N])) <= tol

    def test_solve_is_one_hermitian_system(self, asymmetric_soliton_metric, monkeypatch):
        seen = []

        def capture(K, rhs):
            seen.append(K)
            return spsolve(K, rhs)

        monkeypatch.setattr(conformal, "spsolve", capture)
        flatten_conformal(asymmetric_soliton_metric)
        (K,) = seen
        N = asymmetric_soliton_metric.grid.nx * asymmetric_soliton_metric.grid.ny
        assert K.shape == (N - 2, N - 2)
        assert np.iscomplexobj(K.data)
        assert (K != K.conj().T).nnz == 0
        assert K.nnz <= 7 * (N - 2)

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
    """``conformal.spsolve`` factors the Hermitian system in symmetric
    mode: minimum-degree ordering and no pivoting."""

    def test_fill_stays_symmetric(self, monkeypatch):
        # the CLI's sphere_patch control metric at n = 129
        g = Grid2D.from_bounds(-0.35, 0.35, -0.35, 0.35, 129, 129)
        X, Y = g.mesh()
        h = 2.0 / (1.0 + X**2 + Y**2)
        metric = MetricField(g, h**2, np.zeros(g.shape), h**2)
        fills = []
        factor = scipy.sparse.linalg.splu

        def measure(A, **kwargs):
            lu = factor(A, **kwargs)
            fills.append((lu.L.nnz + lu.U.nnz) / A.nnz)
            return lu

        # spsolve imports splu from its module when it runs
        monkeypatch.setattr(scipy.sparse.linalg, "splu", measure)
        flatten_conformal(metric)
        # symmetric mode measures 9.3; COLAMD with partial pivoting 15.0
        (fill,) = fills
        assert fill <= 11.0

    def test_singular_system_is_a_conformal_error(self):
        K = sp.csc_matrix(np.array([[1.0, 1j, 0.0], [-1j, 1.0, 0.0], [0.0, 0.0, 2.0]]))
        with pytest.raises(ConformalError, match="singular"):
            conformal.spsolve(K, np.ones(3, dtype=complex))


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
        assert np.nanmax(np.abs(K.values[2:-2, 2:-2] + 1.0)) <= 1e-2

    def test_resample_requires_matching_grid(self):
        _, chart, _ = catalog_chart("half_plane_pseudosphere", 33)
        other = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        ig = inner_image_grid(chart, 9)
        with pytest.raises(GridError):
            resample_to_image(ScalarField(other, np.ones(other.shape)), chart, ig)


@pytest.fixture(scope="module")
def asymmetric_soliton_chart(asymmetric_soliton_metric):
    return flatten_conformal(asymmetric_soliton_metric)


class TestPreimageSeed:
    """``chart_preimage`` seeds Newton through a KD-tree; the seeds and
    hence the preimages must be exactly those of the dense argmin."""

    @pytest.mark.parametrize("source", ["soliton", "poincare_disk_patch"])
    def test_preimage_equals_dense_seed_reference(self, monkeypatch, request, source):
        if source == "soliton":
            chart = request.getfixturevalue("asymmetric_soliton_chart")
        else:
            # n = 129 subsamples the seed nodes with step 2
            chart = catalog_chart(source, 129)[1]
        box = inner_image_grid(chart, 33)
        image = Grid2D.from_bounds(box.x0, box.x1, box.y0, box.y1, 41, 29)
        XT, YT = image.mesh()
        qx, qy = XT.ravel(), YT.ravel()
        for step in (1, 2, 3):
            px = chart.X.values[::step, ::step].ravel()
            py = chart.Y.values[::step, ::step].ravel()
            assert np.array_equal(conformal._nearest_seed(px, py, qx, qy),
                                  dense_seed(px, py, qx, qy))
        x, y = chart_preimage(chart, image)
        monkeypatch.setattr(conformal, "_nearest_seed", dense_seed)
        xd, yd = chart_preimage(chart, image)
        assert np.array_equal(x, xd) and np.array_equal(y, yd)

    def test_exact_ties_pick_lowest_index(self):
        # twelve lattice points at squared distance exactly 25 from the
        # origin, more than the first candidate batch, shuffled among
        # farther points so index order and tree order disagree
        ring = [(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (4, 3),
                (-3, 4), (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3)]
        far = [(6, 1), (-6, 2), (1, -7), (7, 7), (-8, 0), (2, 9)]
        pts = np.array(ring + far, dtype=float)
        order = np.random.default_rng(3).permutation(len(pts))
        pts = pts[order]
        tied = np.flatnonzero(order < len(ring))
        # the origin, the two-way tie between (3, 4) and (4, 3), and an
        # exact hit on (4, 3)
        qx = np.array([0.0, 3.5, 4.0])
        qy = np.array([0.0, 3.5, 3.0])
        seed = conformal._nearest_seed(pts[:, 0], pts[:, 1], qx, qy)
        assert seed[0] == tied.min()
        assert np.array_equal(seed, dense_seed(pts[:, 0], pts[:, 1], qx, qy))
        # four equidistant lattice nodes around every cell centre
        lat = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), -1).reshape(-1, 2)
        lat = lat[np.random.default_rng(4).permutation(len(lat))]
        cx, cy = (c.ravel() + 0.5 for c in np.meshgrid(np.arange(5.0), np.arange(4.0)))
        assert np.array_equal(conformal._nearest_seed(lat[:, 0], lat[:, 1], cx, cy),
                              dense_seed(lat[:, 0], lat[:, 1], cx, cy))

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
