"""Angle fields, frame integration, and the surface-condition report."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from minding_lab.grid import Grid2D, GridError, fd_partial, quadrature
from minding_lab import forms
from minding_lab.chebyshev import (
    AngleField,
    SIN_THETA_FLOOR,
    SingularAngleError,
    _SLOTS,
    _interp_midpoints,
    _pack,
    _place,
    _sweep,
    adapted_initial_frame,
    corollary_conditions,
    integrate_frame,
    one_soliton_angle,
    sine_gordon_residual,
)
from minding_lab.weak import bump_lattice, frame_weak_compatibility

SOLITON = dict(x0=-1.0, x1=-0.25, y0=-1.0, y1=-0.25)


def soliton_grid(n=65):
    return Grid2D.from_bounds(SOLITON["x0"], SOLITON["x1"], SOLITON["y0"], SOLITON["y1"], n, n)


def constant_angle(grid, value):
    return AngleField(grid, np.full(grid.shape, value))


def connection(theta, theta_x, theta_y):
    """Connection matrices A, B, shape ``theta.shape + (3, 3)``, from raw
    samples of theta and its partials, placed through the synthesis's
    own slot tables.  Columns of A hold the basis coefficients of
    (f_xx, f_xy, N_x); columns of B those of (f_yx, f_yy, N_y)."""
    return (_place(_pack(theta, theta_x), _SLOTS["x"]),
            _place(_pack(theta, theta_y), _SLOTS["y"]))


def fd_connection(theta):
    """A, B of an angle field, its partials by finite differences."""
    t, g = theta.values, theta.grid
    return connection(t, fd_partial(t, g, "x"), fd_partial(t, g, "y"))


class TestAngleField:
    def test_one_soliton_values(self):
        g = soliton_grid(33)
        th = one_soliton_angle(g)
        X, Y = g.mesh()
        assert np.allclose(th.values, 4.0 * np.arctan(np.exp(X + Y)), rtol=0, atol=1e-15)
        # strip keeps the angle well inside (0, pi)
        assert th.values.min() > 0.5
        assert th.values.max() < 2.2

    def test_rejects_angle_outside_open_interval(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        with pytest.raises(GridError):
            AngleField(g, np.full(g.shape, np.pi))
        with pytest.raises(GridError):
            AngleField(g, np.zeros(g.shape))


class TestSineGordonResidual:
    def test_right_angle_residual_is_minus_one_exactly(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        r = sine_gordon_residual(constant_angle(g, np.pi / 2))
        assert r.shape == (15, 15) and np.all(r == -1.0)

    def test_one_soliton_is_compatible(self):
        g = soliton_grid(65)
        r = sine_gordon_residual(one_soliton_angle(g))
        assert np.abs(r).max() <= 10 * g.h**2

    def test_linear_tilt_residual_matches_closed_form(self):
        # theta = pi/2 + 0.1 x: the mixed derivative vanishes exactly
        # for the difference stencils, leaving -sin(theta)
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        th = AngleField.from_function(g, lambda X, Y: np.pi / 2 + 0.1 * X)
        r = sine_gordon_residual(th)
        expect = -np.sin(np.pi / 2 + 0.1 * g.mesh()[0])
        assert np.allclose(r, expect[1:-1, 1:-1], rtol=0, atol=1e-13)

    def test_refinement_improves_soliton_residual(self):
        g = soliton_grid(33)
        coarse = np.abs(sine_gordon_residual(one_soliton_angle(g))).max()
        fine = np.abs(sine_gordon_residual(one_soliton_angle(g.refined()))).max()
        assert coarse / fine >= 3.5


class TestConnection:
    def test_right_angle_matrices(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        A, B = fd_connection(constant_angle(g, np.pi / 2))
        A_expect = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        B_expect = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(A, A_expect[None, None], rtol=0, atol=1e-15)
        assert np.allclose(B, B_expect[None, None], rtol=0, atol=1e-15)

    def test_constant_angle_structure(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        c = 1.1
        A, B = fd_connection(constant_angle(g, c))
        # angle-derivative entries vanish; middle column of A carries sin c
        assert np.allclose(A[:, :, :, 1], np.array([0.0, 0.0, np.sin(c)]), atol=1e-15)
        assert np.allclose(A[:, :, 0, 0], 0.0, atol=1e-15)
        assert np.allclose(A[:, :, 1, 0], 0.0, atol=1e-15)
        assert np.allclose(B[:, :, :, 0], np.array([0.0, 0.0, np.sin(c)]), atol=1e-15)

    def test_soliton_entries_at_diagonal_point(self):
        # s = x + y = -1: theta = 4 arctan(1/e), theta_x = theta_y = 2 sech(1)
        theta = np.array([[1.410053687110476]])
        tx = np.array([[1.296108547327771]])
        A, B = connection(theta, tx, tx)
        a = A[0, 0]
        b = B[0, 0]
        assert a[0, 0] == pytest.approx(0.2101530264121984, abs=1e-14)
        assert a[0, 2] == pytest.approx(0.16214153270223988, abs=1e-14)
        assert a[1, 0] == pytest.approx(-1.3130352854993315, abs=1e-14)
        assert a[1, 2] == pytest.approx(-1.0130596609415616, abs=1e-14)
        assert a[2, 1] == pytest.approx(0.9871086951291461, abs=1e-14)
        assert a[0, 1] == a[1, 1] == a[2, 0] == a[2, 2] == 0.0
        # second matrix mirrors the first across the coordinate swap
        assert b[0, 1] == pytest.approx(a[1, 0], abs=1e-14)
        assert b[1, 1] == pytest.approx(a[0, 0], abs=1e-14)
        assert b[0, 2] == pytest.approx(a[1, 2], abs=1e-14)
        assert b[1, 2] == pytest.approx(a[0, 2], abs=1e-14)
        assert b[2, 0] == pytest.approx(a[2, 1], abs=1e-14)

    def test_fd_connection_matches_exact_derivatives(self):
        g = soliton_grid(65)
        th = one_soliton_angle(g)
        A_fd, B_fd = fd_connection(th)
        X, Y = g.mesh()
        sech = 1.0 / np.cosh(X + Y)
        A_ex, B_ex = connection(th.values, 2 * sech, 2 * sech)
        assert np.abs(A_fd - A_ex).max() <= 10 * g.h**2
        assert np.abs(B_fd - B_ex).max() <= 10 * g.h**2

    def test_singular_angle_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        with pytest.raises(SingularAngleError):
            fd_connection(constant_angle(g, 1e-7))


class TestIntegrateFrame:
    def test_flat_right_angle_experiment(self):
        # incompatible by design: path dependence is reported loudly
        # instead of hidden
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 65, 65)
        theta = constant_angle(g, np.pi / 2)
        res = integrate_frame(theta)
        assert np.abs(sine_gordon_residual(theta)).max() == pytest.approx(1.0)
        assert res.path_residual_f > 0.1

        f = res.surface.f.values
        # x-then-y sweep solves the row system then freezes f_y up the
        # columns, which lands on (x, y cos x, y sin x) exactly
        X, Y = g.mesh()
        exact = np.stack([X, Y * np.cos(X), Y * np.sin(X)], axis=-1)
        assert np.linalg.norm(f - exact, axis=2).max() <= 1e-8

        fx = np.gradient(f, g.dx, axis=1, edge_order=2)
        fy = np.gradient(f, g.dy, axis=0, edge_order=2)
        dots = np.einsum("jik,jik->ji", fx, fy)
        assert np.abs(dots)[1:-1, 1:-1].max() <= 1e-9

        # the mixed derivative reproduces the seed-row normal at every row
        fxy = np.gradient(fx, g.dy, axis=0, edge_order=2)
        N0 = res.surface.N.values[0]
        assert np.linalg.norm(fxy - N0[None], axis=2)[:, 1:-1].max() <= 10 * g.h**2

    def test_soliton_surface_curvature(self):
        g = soliton_grid(65)
        res = integrate_frame(one_soliton_angle(g))
        metric = forms.induced_metric(res.surface.f)
        _, second = forms.normal_and_second_form(res.surface.f)
        K = forms.gauss_curvature_from_forms(metric, second)
        err = np.abs(K[2:-2, 2:-2] + 1.0).max()
        assert err <= 20 * g.h**2

    def test_soliton_path_independence(self):
        g = soliton_grid(65)
        res = integrate_frame(one_soliton_angle(g))
        assert res.path_residual_f <= 100 * g.h**2
        assert res.path_residual_frame <= 100 * g.h**2

    def test_default_initial_frame_is_adapted(self):
        g = soliton_grid(33)
        th = one_soliton_angle(g)
        res = integrate_frame(th)
        W0 = adapted_initial_frame(float(th.values[0, 0]))
        assert np.array_equal(res.frame.values[0, 0], W0)
        assert np.array_equal(res.surface.f.values[0, 0], np.zeros(3))
        # the start realizes the Chebyshev Gram matrix, positively oriented
        cos0 = np.cos(th.values[0, 0])
        gram = np.array([[1.0, cos0, 0.0], [cos0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(W0.T @ W0 - gram).max() <= 1e-15
        assert np.linalg.det(W0) > 0.0

    def test_frame_norm_drift_without_renormalization(self):
        # exact constant connection isolates the stepping scheme; the
        # drift envelope h^4 * steps holds with room and keeps shrinking
        drifts = []
        for n in (33, 65):
            g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, n, n)
            res = integrate_frame(constant_angle(g, np.pi / 2))
            W = res.frame.values
            drift = max(
                np.abs(np.linalg.norm(W[:, :, :, k], axis=2) - 1.0).max() for k in range(3)
            )
            assert drift <= g.h**4 * (n - 1)
            drifts.append(drift)
        assert drifts[0] / drifts[1] >= 8.0


class TestSweepKernel:
    """``_sweep`` on an exactly solvable compatible system with no x<->y
    symmetry: Y = e^phi v solves Y_x = phi_x Y and Y_y = phi_y Y, on a
    grid with nx != ny and dx != dy, from bases on every side and
    inside, in both orders."""

    V = np.array([1.0, -2.0, 0.5])

    @staticmethod
    def phi(x, y):
        return np.sin(1.3 * x) * np.cos(0.7 * y) + 0.4 * x * y

    @staticmethod
    def phi_x(x, y):
        return 1.3 * np.cos(1.3 * x) * np.cos(0.7 * y) + 0.4 * y

    @staticmethod
    def phi_y(x, y):
        return -0.7 * np.sin(1.3 * x) * np.sin(0.7 * y) + 0.4 * x

    def relative_error(self, n, where, x_first):
        g = Grid2D.from_bounds(0.0, 1.2, -0.3, 0.45, n, 3 * (n - 1) // 4 + 1)
        base = {"corner": (0, 0), "top": (g.ny - 1, g.nx // 2),
                "right": (g.ny // 2, g.nx - 1), "inside": (g.ny // 2, g.nx // 3)}[where]
        X, Y = g.mesh()
        exact = np.exp(self.phi(X, Y))[..., None] * self.V
        xm, ym = X[:, :-1] + 0.5 * g.dx, Y[:-1] + 0.5 * g.dy

        def rate(state, C):
            return C[..., None] * state

        lines = [(rate, self.phi_x(X, Y), self.phi_x(xm, Y[:, :-1]), g.dx),
                 (rate, self.phi_y(X, Y), self.phi_y(X[:-1], ym), g.dy)]
        marched = np.full(g.shape + (3,), np.nan)
        marched[base] = exact[base]
        _sweep(marched, base, lines, x_first)
        assert np.array_equal(marched[base], exact[base])
        assert np.isfinite(marched).all()
        err = np.linalg.norm(marched - exact, axis=-1) / np.linalg.norm(exact, axis=-1)
        return float(err.max()), g.h

    # measured 0.0058-0.0200 h^4 at n = 33, 65 and 129, orders 3.98-4.06;
    # backward midpoints shifted one node read 2.6e3 h^4 and more, or
    # leave the far end of a backward half unfilled
    @pytest.mark.parametrize("x_first", [True, False], ids=["x_first", "y_first"])
    @pytest.mark.parametrize("where", ["corner", "top", "right", "inside"])
    def test_fourth_order_from_every_base(self, where, x_first):
        (coarse, h), (fine, h_fine) = (self.relative_error(n, where, x_first) for n in (33, 65))
        assert coarse <= 0.05 * h**4 and fine <= 0.05 * h_fine**4
        assert np.log2(coarse / fine) >= 3.9


def boosted_soliton_angle(grid, a=1.5):
    # Lorentz-boosted soliton 4*arctan(exp(a x + y/a)): an exact
    # sine-Gordon solution that is not symmetric under x <-> y
    return AngleField.from_function(grid, lambda x, y: 4.0 * np.arctan(np.exp(a * x + y / a)))


class TestBoostedSoliton:
    """Synthesis on an oracle that breaks the x <-> y symmetry.

    On the symmetric one-soliton a transposed index or a swapped
    connection in one sweep order can cancel between the two orders;
    here each measured residual must sit under 50 h^2 and shrink at
    second order under refinement.
    """

    @staticmethod
    def residuals(n):
        g = soliton_grid(n)
        th = boosted_soliton_angle(g)
        res = integrate_frame(th)
        metric = forms.induced_metric(res.surface.f)
        chebyshev_metric = max(
            np.abs(metric.E - 1.0).max(),
            np.abs(metric.G - 1.0).max(),
            np.abs(metric.F - np.cos(th.values)).max(),
        )
        return g.h, {
            "path": max(res.path_residual_f, res.path_residual_frame),
            "corollary": corollary_conditions(res.surface).max_residual(),
            "chebyshev_metric": chebyshev_metric,
        }

    def test_gates_and_second_order(self):
        runs = [self.residuals(n) for n in (33, 65, 129)]
        for h, values in runs:
            for key, value in values.items():
                assert value <= 50 * h**2, (key, h, value)
        for (h0, coarse), (h1, fine) in zip(runs, runs[1:]):
            for key in coarse:
                order = np.log(coarse[key] / fine[key]) / np.log(h0 / h1)
                assert order >= 1.9, (key, h1, order)


def full_matrix_frame(theta):
    """Reference march: the full connection matrices at the nodes and the
    midpoints through ``_sweep``, rate (W C, W[:, col]) for (W | f), both
    orders from the adapted frame at the first node.  Returns the
    x-then-y W and f and the two path residuals."""
    g, t = theta.grid, theta.values
    tx, ty = fd_partial(t, g, "x"), fd_partial(t, g, "y")
    A, B = connection(t, tx, ty)
    A_mid = connection(*(_interp_midpoints(v, 1) for v in (t, tx, ty)))[0]
    B_mid = connection(*(_interp_midpoints(v, 0) for v in (t, tx, ty)))[1]

    def rate(col, Y, C):
        return np.concatenate((Y[..., :3] @ C, Y[..., col:col + 1]), axis=-1)

    lines = [(partial(rate, 0), A, A_mid, g.dx),
             (partial(rate, 1), B, B_mid, g.dy)]

    def sweep(x_first):
        Wf = np.zeros(g.shape + (3, 4))
        Wf[0, 0, :, :3] = adapted_initial_frame(float(t[0, 0]))
        _sweep(Wf, (0, 0), lines, x_first)
        return Wf[..., :3], Wf[..., 3]

    (W, f), (W_yx, f_yx) = sweep(True), sweep(False)
    return W, f, float(np.abs(f - f_yx).max()), float(np.abs(W - W_yx).max())


def singular_message(fn, *args):
    with pytest.raises(SingularAngleError) as info:
        fn(*args)
    return str(info.value)


class TestConnectionPacks:
    """``integrate_frame`` carries each connection as five scalars per
    node and midpoint and places the 3 x 3 per line step."""

    def test_bitwise_equal_to_full_matrix_march(self):
        # nx != ny, dx != dy and no x <-> y symmetry in the field
        g = Grid2D.from_bounds(-1.0, -0.4, -1.0, -0.25, 97, 129)
        th = boosted_soliton_angle(g)
        res = integrate_frame(th)
        W, f, residual_f, residual_frame = full_matrix_frame(th)
        assert np.array_equal(res.frame.values, W)
        assert np.array_equal(res.surface.f.values, f)
        assert res.path_residual_f == residual_f
        assert res.path_residual_frame == residual_frame

    def test_peak_memory_under_seven_frames(self):
        # measured 3.66x the frame's bytes; 4.97x with the y-then-x sweep
        # held whole and the fields copying the march state, 10.55x with
        # the four connections held as full (ny, nx, 3, 3) arrays
        th = one_soliton_angle(soliton_grid(129))
        tracemalloc.start()
        try:
            res = integrate_frame(th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.9 * res.frame.values.nbytes

    def test_singular_node(self):
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 0.5, 8, 6)
        values = np.full(g.shape, 1.0)
        values[3, 4] = 1e-7
        th = AngleField(g, values)
        assert singular_message(integrate_frame, th) == singular_message(fd_connection, th)

    def test_singular_only_at_an_interpolated_midpoint(self):
        # the run a, b, b, a along x interpolates to (18 b - 2 a) / 16 =
        # 1e-7 between the two b nodes; every node clears the floor
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 0.5, 8, 6)
        values = np.full(g.shape, 1e-5)
        values[:, 3:5] = 1.2e-6
        th = AngleField(g, values)
        fd_connection(th)
        mids = _interp_midpoints(values, 1)
        assert np.sin(mids).min() < SIN_THETA_FLOOR
        expect = singular_message(connection, mids, mids, mids)
        assert "1.000e-07" in expect
        assert singular_message(integrate_frame, th) == expect


class TestCorollaryConditions:
    def test_soliton_satisfies_all_conditions(self):
        g = soliton_grid(65)
        res = integrate_frame(one_soliton_angle(g))
        rep = corollary_conditions(res.surface)
        assert rep.max_residual() <= 50 * g.h**2

    def test_refinement_improves_each_condition(self):
        g = soliton_grid(33)
        coarse = corollary_conditions(integrate_frame(one_soliton_angle(g)).surface)
        fine = corollary_conditions(
            integrate_frame(one_soliton_angle(g.refined())).surface
        )
        for key, value in coarse.as_dict().items():
            assert value / fine.as_dict()[key] >= 3.5, key

    def test_flat_plane_negative_control(self):
        # the plane satisfies the wave identity trivially but fails the
        # reconstruction identity: the normal is constant, so the cross
        # product vanishes while f_x does not
        from minding_lab.chebyshev import ChebyshevSurface
        from minding_lab.grid import VectorField3

        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        X, Y = g.mesh()
        f = np.stack([X, Y, np.zeros_like(X)], axis=-1)
        N = np.zeros_like(f)
        N[:, :, 2] = 1.0
        surface = ChebyshevSurface(
            f=VectorField3(g, f),
            N=VectorField3(g, N),
            theta=constant_angle(g, np.pi / 2),
        )
        rep = corollary_conditions(surface)
        assert rep.normal_wave <= 1e-12
        assert rep.fx_from_normal == pytest.approx(1.0, abs=1e-12)
        assert rep.fy_from_normal == pytest.approx(1.0, abs=1e-12)
        assert rep.fx_unit <= 1e-12
        assert rep.angle_consistency <= 1e-12

    def test_rigid_motion_leaves_residuals_unchanged(self):
        from minding_lab.chebyshev import ChebyshevSurface
        from minding_lab.grid import VectorField3

        g = soliton_grid(33)
        res = integrate_frame(one_soliton_angle(g))
        c, s = np.cos(-1.1), np.sin(-1.1)
        R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        t = np.array([5.0, -3.0, 2.0])
        moved = ChebyshevSurface(
            f=VectorField3(g, res.surface.f.values @ R.T + t),
            N=VectorField3(g, res.surface.N.values @ R.T),
            theta=res.surface.theta,
        )
        a = corollary_conditions(res.surface).as_dict()
        b = corollary_conditions(moved).as_dict()
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12), key


class TestZeroCurvatureIdentity:
    """The zero-curvature identity A_y - B_x = AB - BA of the Chebyshev
    connection, in weak form: entry (p, q) of ``frame_weak_compatibility``
    pairs entry (p, q) of A_y - B_x - (AB - BA) with each bump."""

    def test_compatible_connection_residual_small(self):
        # measured 13.0 h^2
        g = soliton_grid(65)
        A, B = fd_connection(one_soliton_angle(g))
        assert frame_weak_compatibility(A, B, g, bump_lattice(g)).max_abs() <= 50 * g.h**2

    def test_residual_entries_carry_the_wave_equation(self):
        # the commutator identity concentrates the angle equation in the
        # off-diagonal (1,2)/(2,1) entries, scaled by 1/sin(theta); the
        # (3,1) entry cancels identically.  This angle solves no
        # sine-Gordon equation: its pairings read 0.008 to 0.37, and the
        # entries match them to 4.4 h^2
        g = Grid2D.from_bounds(0, 1, 0, 1, 65, 65)
        X, Y = g.mesh()
        th = AngleField(g, 1.2 + 0.4 * np.sin(2 * X) * np.cos(3 * Y))
        A, B = fd_connection(th)
        tests = bump_lattice(g)
        r = frame_weak_compatibility(A, B, g, tests).residuals
        sg = np.zeros(g.shape)
        sg[1:-1, 1:-1] = sine_gordon_residual(th) / np.sin(th.values[1:-1, 1:-1])
        tol = 10 * g.h**2
        for v, r01, r10, r20 in zip(tests, r[1::9], r[3::9], r[6::9], strict=True):
            box = v.node_box(g)
            paired = quadrature(sg[box] * v.value(X[box], Y[box]), g, box)
            assert abs(r01 - paired) <= tol
            assert abs(r10 + paired) <= tol
            assert abs(r20) <= tol

    def test_incompatible_angle_lights_up_offdiagonal(self):
        # constant angle c has residual entry |0 - sin c|/sin c = 1, so
        # each (1,2) pairing is minus the bump's integral
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        A, B = fd_connection(constant_angle(g, 1.0))
        tests = bump_lattice(g)
        entry = frame_weak_compatibility(A, B, g, tests).residuals[1::9]
        for v, r01 in zip(tests, entry, strict=True):
            assert abs(r01 + v.exact_integral()) <= g.h**2
