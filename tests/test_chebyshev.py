"""Angle fields, frame integration, and the surface-condition report."""

import numpy as np
import pytest

from minding_lab.grid import Grid2D, GridError, ScalarField, interior_abs_max
from minding_lab import forms
from minding_lab.chebyshev import (
    AngleField,
    SingularAngleError,
    adapted_initial_frame,
    chebyshev_connection,
    connection_from_samples,
    constant_angle,
    corollary_conditions,
    integrate_frame,
    one_soliton_angle,
    sine_gordon_residual,
)

SOLITON = dict(x0=-1.0, x1=-0.25, y0=-1.0, y1=-0.25)


def soliton_grid(n=65):
    return Grid2D.from_bounds(SOLITON["x0"], SOLITON["x1"], SOLITON["y0"], SOLITON["y1"], n, n)


class TestAngleField:
    def test_one_soliton_values(self):
        g = soliton_grid(33)
        th = one_soliton_angle(g)
        X, Y = g.mesh()
        assert np.allclose(th.theta.values, 4.0 * np.arctan(np.exp(X + Y)), rtol=0, atol=1e-15)
        # strip keeps the angle well inside (0, pi)
        assert th.theta.values.min() > 0.5
        assert th.theta.values.max() < 2.2

    def test_rejects_angle_outside_open_interval(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        with pytest.raises(GridError):
            AngleField(ScalarField(g, np.full(g.shape, np.pi)))
        with pytest.raises(GridError):
            AngleField(ScalarField(g, np.zeros(g.shape)))

    def test_constant_angle(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        th = constant_angle(g, 1.2)
        assert np.all(th.theta.values == 1.2)


class TestSineGordonResidual:
    def test_right_angle_residual_is_minus_one_exactly(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        r = sine_gordon_residual(constant_angle(g, np.pi / 2))
        assert np.all(r.values[1:-1, 1:-1] == -1.0)

    def test_one_soliton_is_compatible(self):
        g = soliton_grid(65)
        r = sine_gordon_residual(one_soliton_angle(g))
        assert r.interior_abs_max() <= 10 * g.h**2

    def test_linear_tilt_residual_matches_closed_form(self):
        # theta = pi/2 + 0.1 x: the mixed derivative vanishes exactly
        # for the difference stencils, leaving -sin(theta)
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        th = AngleField.from_function(g, lambda X, Y: np.pi / 2 + 0.1 * X)
        r = sine_gordon_residual(th)
        expect = -np.sin(np.pi / 2 + 0.1 * g.mesh()[0])
        assert np.allclose(r.values[1:-1, 1:-1], expect[1:-1, 1:-1], rtol=0, atol=1e-13)

    def test_refinement_improves_soliton_residual(self):
        g = soliton_grid(33)
        coarse = sine_gordon_residual(one_soliton_angle(g)).interior_abs_max()
        fine = sine_gordon_residual(one_soliton_angle(g.refined())).interior_abs_max()
        assert coarse / fine >= 3.5


class TestConnection:
    def test_right_angle_matrices(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        A, B = chebyshev_connection(constant_angle(g, np.pi / 2))
        A_expect = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        B_expect = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(A.values, A_expect[None, None], rtol=0, atol=1e-15)
        assert np.allclose(B.values, B_expect[None, None], rtol=0, atol=1e-15)

    def test_constant_angle_structure(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        c = 1.1
        A, B = chebyshev_connection(constant_angle(g, c))
        # angle-derivative entries vanish; middle column of A carries sin c
        assert np.allclose(A.values[:, :, :, 1], np.array([0.0, 0.0, np.sin(c)]), atol=1e-15)
        assert np.allclose(A.values[:, :, 0, 0], 0.0, atol=1e-15)
        assert np.allclose(A.values[:, :, 1, 0], 0.0, atol=1e-15)
        assert np.allclose(B.values[:, :, :, 0], np.array([0.0, 0.0, np.sin(c)]), atol=1e-15)

    def test_soliton_entries_at_diagonal_point(self):
        # s = x + y = -1: theta = 4 arctan(1/e), theta_x = theta_y = 2 sech(1)
        theta = np.array([[1.410053687110476]])
        tx = np.array([[1.296108547327771]])
        A, B = connection_from_samples(theta, tx, tx)
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
        A_fd, B_fd = chebyshev_connection(th)
        X, Y = g.mesh()
        sech = 1.0 / np.cosh(X + Y)
        A_ex, B_ex = connection_from_samples(th.theta.values, 2 * sech, 2 * sech)
        assert np.abs(A_fd.values - A_ex).max() <= 10 * g.h**2
        assert np.abs(B_fd.values - B_ex).max() <= 10 * g.h**2

    def test_singular_angle_rejected(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 5, 5)
        with pytest.raises(SingularAngleError):
            chebyshev_connection(constant_angle(g, 1e-7))


class TestIntegrateFrame:
    def test_flat_right_angle_experiment(self):
        # incompatible by design: path dependence is reported loudly
        # instead of hidden
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 65, 65)
        theta = constant_angle(g, np.pi / 2)
        res = integrate_frame(theta)
        assert sine_gordon_residual(theta).interior_abs_max() == pytest.approx(1.0)
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
        err = np.nanmax(np.abs(K.values[2:-2, 2:-2] + 1.0))
        assert err <= 20 * g.h**2

    def test_soliton_path_independence(self):
        g = soliton_grid(65)
        res = integrate_frame(one_soliton_angle(g))
        assert res.path_residual_f <= 100 * g.h**2
        assert res.path_residual_frame <= 100 * g.h**2

    def test_equivariance_under_rigid_motion(self):
        g = soliton_grid(33)
        th = one_soliton_angle(g)
        theta0 = float(th.theta.values[0, 0])
        W0 = adapted_initial_frame(theta0)

        c, s = np.cos(0.7), np.sin(0.7)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        t = np.array([0.3, -0.2, 0.5])

        base = integrate_frame(th, W0=W0)
        moved = integrate_frame(th, W0=R @ W0, f0=t)

        expect_f = base.surface.f.values @ R.T + t
        assert np.abs(moved.surface.f.values - expect_f).max() <= 1e-10
        expect_N = base.surface.N.values @ R.T
        assert np.abs(moved.surface.N.values - expect_N).max() <= 1e-10

    def test_initial_frame_validation(self):
        g = soliton_grid(33)
        th = one_soliton_angle(g)
        with pytest.raises(GridError):
            integrate_frame(th, W0=np.eye(3))  # wrong Gram for this angle
        with pytest.raises(GridError):
            integrate_frame(th, W0=np.zeros((2, 2)))
        # reflected frame flips orientation
        theta0 = float(th.theta.values[0, 0])
        W0 = adapted_initial_frame(theta0)
        W0_flip = W0 @ np.diag([1.0, 1.0, -1.0])
        with pytest.raises(GridError):
            integrate_frame(th, W0=W0_flip)

    def test_default_initial_frame_is_adapted(self):
        g = soliton_grid(33)
        th = one_soliton_angle(g)
        theta0 = float(th.theta.values[0, 0])
        a = integrate_frame(th)
        b = integrate_frame(th, W0=adapted_initial_frame(theta0))
        assert np.array_equal(a.surface.f.values, b.surface.f.values)

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
            np.abs(metric.F - np.cos(th.theta.values)).max(),
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
    def test_compatible_connection_residual_small(self):
        g = soliton_grid(65)
        A, B = chebyshev_connection(one_soliton_angle(g))
        zc = forms.zero_curvature_residual(A, B, g)
        assert zc.interior_abs_max() <= 50 * g.h**2

    def test_residual_entries_carry_the_wave_equation(self):
        # the commutator identity concentrates the angle equation in the
        # off-diagonal (1,2)/(2,1) entries, scaled by 1/sin(theta); the
        # (3,1) entry cancels identically
        g = soliton_grid(65)
        th = one_soliton_angle(g)
        A, B = chebyshev_connection(th)
        R = forms.zero_curvature_entries(A, B, g)
        sg = sine_gordon_residual(th).values / np.sin(th.theta.values)
        core = slice(2, -2)
        tol = 50 * g.h**2
        assert np.abs(R[core, core, 0, 1] - sg[core, core]).max() <= tol
        assert np.abs(R[core, core, 1, 0] + sg[core, core]).max() <= tol
        assert np.abs(R[core, core, 2, 0]).max() <= tol

    def test_incompatible_angle_lights_up_offdiagonal(self):
        # constant angle c has residual magnitude |0 - sin c|/sin c = 1
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        A, B = chebyshev_connection(constant_angle(g, 1.0))
        R = forms.zero_curvature_entries(A, B, g)
        assert np.nanmax(np.abs(R[2:-2, 2:-2, 0, 1] + 1.0)) <= 1e-12
