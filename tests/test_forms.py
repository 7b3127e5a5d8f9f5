"""Fundamental forms, connection matrices, and curvature routes."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minding_lab.grid import (
    Grid2D,
    GridError,
    ScalarField,
    VectorField3,
    fd_partial,
)
from minding_lab import forms
from minding_lab.chebyshev import integrate_frame, one_soliton_angle, sine_gordon_residual
from minding_lab.forms import (
    DegenerateMetricError,
    FrameField,
    MetricField,
    SecondForm,
    gauss_curvature_from_forms,
    gauss_curvature_isothermic,
    induced_metric,
    isothermic_connection,
    normal_and_second_form,
    zero_curvature_entries,
    zero_curvature_residual,
)


def half_plane_patch(n=65):
    # inset in y so the tractroid second form stays well away from its
    # y = 1 singularity
    return Grid2D.from_bounds(0.0, 1.0, 1.4, 2.4, n, n)


def tractroid_second_form(g):
    """Closed-form II compatible with h = 1/y on the upper half-plane."""
    X, Y = g.mesh()
    root = np.sqrt(Y**2 - 1.0)
    return SecondForm(g, root / Y**2, np.zeros_like(Y), -1.0 / (Y**2 * root))


class TestMetricField:
    def test_rejects_degenerate(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        ones = np.ones(g.shape)
        with pytest.raises(DegenerateMetricError):
            MetricField(g, ones, ones, ones)  # EG - F^2 = 0

    def test_degenerate_message_reports_location(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        E = np.ones(g.shape)
        F = np.zeros(g.shape)
        G = np.ones(g.shape)
        G[2, 3] = 0.0
        with pytest.raises(DegenerateMetricError, match=r"\(2,.*3\)|\(np"):
            MetricField(g, E, F, G)

    def test_conformal_and_chebyshev_constructors(self):
        g = Grid2D.from_bounds(0, 1, 1, 2, 9, 9)
        _, Y = g.mesh()
        m = MetricField.conformal(ScalarField(g, 1.0 / Y))
        assert np.allclose(m.E, 1.0 / Y**2)
        assert np.all(m.F == 0.0)
        assert np.allclose(m.det(), 1.0 / Y**4)

        # a Chebyshev net's metric dx^2 + 2 cos(theta) dx dy + dy^2
        ones = np.ones(g.shape)
        mc = MetricField(g, ones, np.full(g.shape, np.cos(1.3)), ones)
        assert np.allclose(mc.det(), np.sin(1.3) ** 2)


class TestInducedMetric:
    def test_flat_plane_exact(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        X, Y = g.mesh()
        f = VectorField3(g, np.stack([X, Y, np.zeros_like(X)], axis=-1))
        m = induced_metric(f)
        assert np.all(m.E == 1.0)
        assert np.all(m.F == 0.0)
        assert np.all(m.G == 1.0)

    def test_paraboloid_at_origin(self):
        g = Grid2D.from_bounds(-0.5, 0.5, -0.5, 0.5, 33, 33)
        X, Y = g.mesh()
        f = VectorField3(g, np.stack([X, Y, 0.5 * (X**2 + Y**2)], axis=-1))
        m = induced_metric(f)
        j, i = 16, 16  # origin node
        assert m.E[j, i] == pytest.approx(1.0, abs=10 * g.h**2)
        assert m.F[j, i] == pytest.approx(0.0, abs=10 * g.h**2)
        assert m.G[j, i] == pytest.approx(1.0, abs=10 * g.h**2)

    def test_soliton_surface_is_chebyshev(self):
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 65, 65)
        res = integrate_frame(one_soliton_angle(g))
        m = induced_metric(res.surface.f)
        tol = 50 * g.h**2
        core = slice(1, -1)
        cos_t = np.cos(res.surface.theta.values)
        assert np.abs(m.E[core, core] - 1.0).max() <= tol
        assert np.abs(m.G[core, core] - 1.0).max() <= tol
        assert np.abs(m.F[core, core] - cos_t[core, core]).max() <= tol

    def test_degenerate_immersion_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        X, _ = g.mesh()
        f = VectorField3(g, np.stack([X, X, np.zeros_like(X)], axis=-1))
        with pytest.raises(DegenerateMetricError):
            induced_metric(f)


class TestNormalAndSecondForm:
    def test_plane_has_zero_second_form(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        X, Y = g.mesh()
        f = VectorField3(g, np.stack([X, Y, np.zeros_like(X)], axis=-1))
        N, II = normal_and_second_form(f)
        assert np.allclose(N.values[:, :, 2], 1.0)
        assert np.abs(II.ell).max() <= 1e-13
        assert np.abs(II.m).max() <= 1e-13
        assert np.abs(II.n).max() <= 1e-13
        assert II.m_asymmetry <= 1e-13

    def test_paraboloid_vertex(self):
        g = Grid2D.from_bounds(-0.5, 0.5, -0.5, 0.5, 33, 33)
        X, Y = g.mesh()
        f = VectorField3(g, np.stack([X, Y, 0.5 * (X**2 + Y**2)], axis=-1))
        N, II = normal_and_second_form(f)
        j, i = 16, 16
        assert np.allclose(N.values[j, i], [0.0, 0.0, 1.0], atol=10 * g.h**2)
        assert II.ell[j, i] == pytest.approx(1.0, abs=10 * g.h**2)
        assert II.m[j, i] == pytest.approx(0.0, abs=10 * g.h**2)
        assert II.n[j, i] == pytest.approx(1.0, abs=10 * g.h**2)

    def test_soliton_surface_is_asymptotic(self):
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 65, 65)
        res = integrate_frame(one_soliton_angle(g))
        _, II = normal_and_second_form(res.surface.f)
        tol = 50 * g.h**2
        core = slice(1, -1)
        sin_t = np.sin(res.surface.theta.values)
        assert np.abs(II.ell[core, core]).max() <= tol
        assert np.abs(II.n[core, core]).max() <= tol
        assert np.abs(II.m[core, core] - sin_t[core, core]).max() <= tol
        assert II.m_asymmetry <= tol

    def test_sphere_curvature(self):
        # radius 2 upright sphere patch: K should be 1/4
        g = Grid2D.from_bounds(-0.5, 0.5, -0.4, 0.4, 65, 65)
        U, V = g.mesh()
        f = VectorField3(
            g,
            np.stack(
                [
                    2.0 * np.cos(V) * np.cos(U),
                    2.0 * np.cos(V) * np.sin(U),
                    2.0 * np.sin(V),
                ],
                axis=-1,
            ),
        )
        K = gauss_curvature_from_forms(induced_metric(f), normal_and_second_form(f)[1])
        err = np.abs(K[1:-1, 1:-1] - 0.25).max()
        assert err <= 10 * g.h**2

    def test_rigid_motion_invariance(self):
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 33, 33)
        res = integrate_frame(one_soliton_angle(g))
        f = res.surface.f.values
        c, s = np.cos(0.4), np.sin(0.4)
        R = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        f2 = f @ R.T + np.array([1.0, 2.0, -3.0])

        m1 = induced_metric(res.surface.f)
        m2 = induced_metric(VectorField3(g, f2))
        assert np.abs(m1.E - m2.E).max() <= 1e-12
        assert np.abs(m1.F - m2.F).max() <= 1e-12
        assert np.abs(m1.G - m2.G).max() <= 1e-12

        # the translation inflates f to O(1) values, so differencing
        # loses a few bits; 1e-11 is the realistic roundoff floor here
        _, II1 = normal_and_second_form(res.surface.f)
        _, II2 = normal_and_second_form(VectorField3(g, f2))
        assert np.abs(II1.ell - II2.ell).max() <= 1e-11
        assert np.abs(II1.m - II2.m).max() <= 1e-11
        assert np.abs(II1.n - II2.n).max() <= 1e-11


def whole_grid_second_form(f):
    """N, ell, m, n and the m asymmetry of ``f`` in one whole-grid pass."""
    g = f.grid
    f_x, f_y = fd_partial(f.values, g, "x"), fd_partial(f.values, g, "y")
    cross = np.cross(f_x, f_y)
    N = cross / np.linalg.norm(cross, axis=2)[:, :, None]
    N_x, N_y = fd_partial(N, g, "x"), fd_partial(N, g, "y")
    dot = lambda a, b: np.einsum("jki,jki->jk", a, b)
    m1, m2 = -dot(N_x, f_y), -dot(N_y, f_x)
    return N, -dot(N_x, f_x), 0.5 * (m1 + m2), -dot(N_y, f_y), float(np.abs(m1 - m2).max())


class TestBandedSecondForm:
    """``normal_and_second_form`` takes bands of rows with a halo."""

    @pytest.mark.parametrize("nx, ny", [(37, 53), (41, 3), (41, 4), (41, 5)])
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
    def test_bitwise_equal_to_whole_grid_pass(self, monkeypatch, nx, ny, rows):
        # dx != dy and nx != ny; rows=None keeps the default band, which
        # holds every row of these grids
        if rows is not None:
            monkeypatch.setattr(forms, "_BAND", rows * nx)
        g = Grid2D.from_bounds(-0.6, 0.5, -0.3, 0.9, nx, ny)
        X, Y = g.mesh()
        f = VectorField3(g, np.stack([X + 0.1 * Y**2, Y - 0.2 * X * Y,
                                      np.sin(X * Y) + 0.3 * X**2], axis=-1))
        N, II = normal_and_second_form(f)
        N_ref, *forms_ref, asymmetry = whole_grid_second_form(f)
        assert np.array_equal(N.values, N_ref)
        for got, want in zip((II.ell, II.m, II.n), forms_ref):
            assert np.array_equal(got, want)
        assert II.m_asymmetry == asymmetry

    def test_degenerate_row_in_a_later_band_rejected(self, monkeypatch):
        monkeypatch.setattr(forms, "_BAND", 2 * 17)
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        X, Y = g.mesh()
        Y[9:] = Y[9]  # f_y vanishes from row 10 up
        with pytest.raises(DegenerateMetricError, match="tangent planes degenerate"):
            normal_and_second_form(VectorField3(g, np.stack([X, Y, np.zeros_like(X)], axis=-1)))

    def test_peak_memory_per_node(self):
        # measured 74 bytes per node above the surface at n = 257; 216
        # with whole-grid temporaries
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 257, 257)
        f = integrate_frame(one_soliton_angle(g)).surface.f
        tracemalloc.start()
        try:
            normal_and_second_form(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * g.nx * g.ny


def quaternion_rotation(q):
    """The rotation matrix of the unit quaternion q / |q|."""
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


def metric_command_measurements(path, surface, f, N):
    """The measured values of the ``metric`` command on a surface file."""
    from minding_lab.cli import main
    from minding_lab.fieldio import write_field

    channels = {f"f{a}": f[..., k] for k, a in enumerate("xyz")}
    channels.update({f"N{a}": N[..., k] for k, a in enumerate("xyz")})
    channels["theta"] = surface.theta.values
    write_field(path, surface.grid, channels)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(["metric", "--surface-file", str(path)]) == 0
    return {s["name"]: s["measured"] for s in json.loads(stdout.getvalue())["stages"]
            if "measured" in s}


def test_rigid_motion_invariance_property(tmp_path_factory):
    """Every embedded-surface residual is unchanged by a rigid motion.

    Quantities from first differences of f (the metric and the
    ``chebyshev_metric`` measurement) agree to 1e-12 relative to their
    unit scale.  The second form and curvature difference the normal,
    so rounding of the moved f, about eps * |f|, reaches them as
    eps * |f| / h**2.  Measured at most 18 times that (n = 33, 500
    motions, the curvature), they are held to 64 times it.
    """
    g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 33, 33)
    surface = integrate_frame(one_soliton_angle(g)).surface
    f, N = surface.f.values, surface.N.values
    m1 = induced_metric(surface.f)
    _, II1 = normal_and_second_form(surface.f)
    K1 = gauss_curvature_from_forms(m1, II1)
    folder = tmp_path_factory.mktemp("rigid")
    cli1 = metric_command_measurements(folder / "surface.json", surface, f, N)
    unit = st.floats(-1.0, 1.0)

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(st.tuples(unit, unit, unit, unit).filter(lambda q: np.linalg.norm(q) >= 0.1),
           st.tuples(unit, unit, unit))
    def check(q, shift):
        R = quaternion_rotation(q)
        f2 = f @ R.T + np.array(shift)
        second_order_tol = 64 * np.finfo(float).eps * np.abs(f2).max() / g.h**2
        moved = VectorField3(g, f2)
        m2 = induced_metric(moved)
        for a, b in ((m1.E, m2.E), (m1.F, m2.F), (m1.G, m2.G)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        _, II2 = normal_and_second_form(moved)
        for a, b in ((II1.ell, II2.ell), (II1.m, II2.m), (II1.n, II2.n)):
            assert np.abs(a - b).max() <= second_order_tol
        K2 = gauss_curvature_from_forms(m2, II2)
        assert np.abs(K1 - K2).max() <= second_order_tol
        cli2 = metric_command_measurements(folder / "moved.json", surface, f2, N @ R.T)
        assert cli2.keys() == cli1.keys() == {"chebyshev_metric", "curvature"}
        assert abs(cli2["chebyshev_metric"] - cli1["chebyshev_metric"]) <= 1e-12
        assert abs(cli2["curvature"] - cli1["curvature"]) <= second_order_tol

    check()


class TestIsothermicConnection:
    def test_unit_factor_asymptotic_forms(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        ones = np.ones(g.shape)
        zeros = np.zeros(g.shape)
        A, B = isothermic_connection(
            ScalarField(g, ones), SecondForm(g, zeros, ones, zeros)
        )
        A_expect = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        B_expect = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(A.values, A_expect[None, None], atol=1e-15)
        assert np.allclose(B.values, B_expect[None, None], atol=1e-15)

    def test_flat_data_gives_zero_connection(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        ones = np.ones(g.shape)
        zeros = np.zeros(g.shape)
        A, B = isothermic_connection(
            ScalarField(g, ones), SecondForm(g, zeros, zeros, zeros)
        )
        assert np.all(A.values == 0.0)
        assert np.all(B.values == 0.0)

    def test_half_plane_log_derivative_entry(self):
        g = half_plane_patch(33)
        _, Y = g.mesh()
        A, _ = isothermic_connection(ScalarField(g, 1.0 / Y), tractroid_second_form(g))
        # entry (1,2) is h_y/h = -1/y; FD on 1/y is near-exact here
        assert np.abs(A.values[:, :, 0, 1] + 1.0 / Y).max() <= 10 * g.h**2

    def test_nonpositive_factor_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        zeros = np.zeros(g.shape)
        with pytest.raises(DegenerateMetricError):
            isothermic_connection(
                ScalarField(g, np.zeros(g.shape)), SecondForm(g, zeros, zeros, zeros)
            )


def nested_stack_connection(h, second):
    """A and B as nested ``np.stack`` literals, the layout the slot
    table replaced: rows of the module doc's matrices, entry by entry."""
    hv = h.values
    hx = fd_partial(hv, h.grid, "x") / hv
    hy = fd_partial(hv, h.grid, "y") / hv
    h2 = hv**2
    ell, m, n = second.ell, second.m, second.n
    zero = np.zeros_like(hv)
    A = np.stack([np.stack([hx, hy, -ell / h2], axis=-1),
                  np.stack([-hy, hx, -m / h2], axis=-1),
                  np.stack([ell, m, zero], axis=-1)], axis=-2)
    B = np.stack([np.stack([hy, -hx, -m / h2], axis=-1),
                  np.stack([hx, hy, -n / h2], axis=-1),
                  np.stack([m, n, zero], axis=-1)], axis=-2)
    return A, B


class TestConnectionSlots:
    """A and B are placed from their eight entries through one slot table."""

    def test_bitwise_equal_to_nested_stacks(self):
        # dx != dy, nx != ny, and a factor with both partials nonzero
        g = Grid2D.from_bounds(0.1, 0.9, 1.4, 2.4, 37, 53)
        X, Y = g.mesh()
        h = ScalarField(g, (1.0 + 0.3 * np.sin(2.0 * X)) / Y)
        II = SecondForm(g, np.cos(X * Y), 0.2 * X - Y, np.exp(-X) * Y)
        A, B = isothermic_connection(h, II)
        A_old, B_old = nested_stack_connection(h, II)
        assert np.array_equal(A.values, A_old)
        assert np.array_equal(B.values, B_old)

    def test_peak_memory_under_1_9_outputs(self):
        # measured 1.67x the output's bytes; 2.22x with nested stacks
        g = half_plane_patch(129)
        _, Y = g.mesh()
        h, II = ScalarField(g, 1.0 / Y), tractroid_second_form(g)
        tracemalloc.start()
        try:
            A, B = isothermic_connection(h, II)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * (A.values.nbytes + B.values.nbytes)


class TestZeroCurvature:
    def test_zero_connection_zero_residual(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        Z = np.zeros(g.shape + (3, 3))
        r = zero_curvature_residual(Z, Z, g)
        assert r.shape == (5, 5) and r.max() == 0.0

    def test_half_plane_chart_is_compatible(self):
        g = half_plane_patch(65)
        _, Y = g.mesh()
        A, B = isothermic_connection(ScalarField(g, 1.0 / Y), tractroid_second_form(g))
        r = zero_curvature_residual(A, B, g)
        assert r.max() <= 50 * g.h**2

    def test_residual_converges_at_second_order(self):
        def sup(n):
            g = half_plane_patch(n)
            _, Y = g.mesh()
            A, B = isothermic_connection(
                ScalarField(g, 1.0 / Y), tractroid_second_form(g)
            )
            return zero_curvature_residual(A, B, g).max()

        assert sup(65) / sup(129) >= 3.5

    def test_mismatched_connections_detected(self):
        g = half_plane_patch(33)
        _, Y = g.mesh()
        ones = np.ones(g.shape)
        zeros = np.zeros(g.shape)
        A, _ = isothermic_connection(ScalarField(g, 1.0 / Y), tractroid_second_form(g))
        _, B_other = isothermic_connection(
            ScalarField(g, ones), SecondForm(g, zeros, ones, zeros)
        )
        r = zero_curvature_residual(A, B_other, g)
        assert r.max() >= 0.1

    def test_entries_masked_and_validated(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        Z = np.zeros(g.shape + (3, 3))
        # the core two nodes in, and no others
        R = zero_curvature_entries(Z, Z, g)
        assert R.shape == (5, 5, 3, 3) and np.isfinite(R).all()
        with pytest.raises(GridError):
            zero_curvature_entries(np.zeros((3, 3)), Z, g)
        small = Grid2D.from_bounds(0, 1, 0, 1, 4, 4)
        with pytest.raises(GridError):
            zero_curvature_entries(
                np.zeros(small.shape + (3, 3)), np.zeros(small.shape + (3, 3)), small
            )

    def test_frame_field_validation(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        with pytest.raises(GridError):
            FrameField(g, np.zeros((5, 5, 3)))
        bad = np.zeros(g.shape + (3, 3))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(GridError):
            FrameField(g, bad)
        W = FrameField(g, np.broadcast_to(np.eye(3), g.shape + (3, 3)))
        assert np.array_equal(W.values, np.broadcast_to(np.eye(3), g.shape + (3, 3)))
        assert not W.values.flags.writeable


class TestCurvatureRoutes:
    def test_unit_factor_is_flat(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        K = gauss_curvature_isothermic(ScalarField(g, np.ones(g.shape)))
        assert K.shape == (15, 15) and np.abs(K).max() == 0.0

    def test_half_plane_factor(self):
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 65, 65)
        _, Y = g.mesh()
        K = gauss_curvature_isothermic(ScalarField(g, 1.0 / Y))
        assert np.abs(K + 1.0).max() <= 10 * g.h**2

    def test_disk_factor(self):
        # square inscribed in the radius-0.7 disk
        half = 0.7 / np.sqrt(2.0)
        g = Grid2D.from_bounds(-half, half, -half, half, 65, 65)
        X, Y = g.mesh()
        K = gauss_curvature_isothermic(ScalarField(g, 2.0 / (1.0 - X**2 - Y**2)))
        assert np.abs(K + 1.0).max() <= 10 * g.h**2

    def test_nonpositive_factor_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        with pytest.raises(DegenerateMetricError):
            gauss_curvature_isothermic(ScalarField(g, np.zeros(g.shape)))

    def test_two_routes_agree_on_soliton_surface(self):
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 65, 65)
        res = integrate_frame(one_soliton_angle(g))
        # the net angle's curvature -theta_xy / sin(theta), from the
        # sine-Gordon residual theta_xy - sin(theta)
        theta = res.surface.theta
        K_angle = -1.0 - sine_gordon_residual(theta) / np.sin(theta.values[1:-1, 1:-1])
        metric = induced_metric(res.surface.f)
        _, II = normal_and_second_form(res.surface.f)
        K_forms = gauss_curvature_from_forms(metric, II)
        assert np.abs(K_angle - K_forms[1:-1, 1:-1]).max() <= 100 * g.h**2

    def test_log_factor_identity_in_quadrature(self):
        # integral of |lap(ln h) - h^2| over the interior shrinks at
        # second order; evaluate on the one-ring-inset subgrid
        from minding_lab.grid import fd_laplacian, quadrature

        def integral(n):
            g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
            _, Y = g.mesh()
            resid = np.abs(fd_laplacian(np.log(1.0 / Y), g) - 1.0 / Y[1:-1, 1:-1]**2)
            inner = Grid2D(g.x0 + g.dx, g.y0 + g.dy, g.nx - 2, g.ny - 2, g.dx, g.dy)
            return quadrature(resid, inner), g.h

        val65, h65 = integral(65)
        val129, _ = integral(129)
        assert val65 <= 10 * h65**2
        assert val65 / val129 >= 3.5
