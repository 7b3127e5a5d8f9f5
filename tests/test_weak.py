"""Quadrature-realized distributional identities."""

import tracemalloc

import numpy as np
import pytest

from minding_lab.grid import Grid2D, GridError, ScalarField, TestFunction, fd_partial, quadrature
from minding_lab.forms import FrameField, SecondForm, isothermic_connection
from minding_lab.weak import (
    WeakResidualReport,
    _connection_fields,
    bump_lattice,
    frame_weak_compatibility,
    liouville_weak_residual,
    mixed_partials_check,
    product_rule_check,
    product_rule_pointwise_residual,
)


def unit_grid(n=65):
    return Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, n, n)


def half_plane_connection(n=65):
    g = Grid2D.from_bounds(0.0, 1.0, 1.4, 2.4, n, n)
    _, Y = g.mesh()
    root = np.sqrt(Y**2 - 1.0)
    II = SecondForm(g, root / Y**2, np.zeros_like(Y), -1.0 / (Y**2 * root))
    A, B = isothermic_connection(ScalarField(g, 1.0 / Y), II)
    return g, A, B


class TestReportAndLattice:
    def test_report_invariants(self):
        with pytest.raises(GridError, match="empty test family"):
            WeakResidualReport(())
        rep = WeakResidualReport((0.5, -2.0))
        assert rep.count == 2
        assert rep.max_abs() == 2.0
        assert rep.residuals == (0.5, -2.0)

    def test_lattice_is_deterministic_and_interior(self):
        g = unit_grid(65)
        a = bump_lattice(g)
        b = bump_lattice(g)
        assert [(t.cx, t.cy, t.r) for t in a] == [(t.cx, t.cy, t.r) for t in b]
        assert all(t.supported_inside(g) for t in a)
        # the large radius only fits at the central sites
        assert len(a) == 35
        assert sorted({t.r for t in a}) == [0.1, 0.2, 0.4]

    def test_lattice_rejects_hopeless_grid(self):
        with pytest.raises(GridError):
            bump_lattice(Grid2D.from_bounds(0, 1, 0, 1, 3, 3))

    def test_boundary_touching_test_rejected(self):
        g = unit_grid(33)
        W = ScalarField.from_function(g, lambda X, Y: X * Y)
        with pytest.raises(GridError):
            mixed_partials_check(W, [TestFunction(0.05, 0.5, 0.2)])


class TestMixedPartials:
    def test_bilinear_with_centered_bump(self):
        g = unit_grid(65)
        W = ScalarField.from_function(g, lambda X, Y: X * Y)
        rep = mixed_partials_check(W, [TestFunction(0.5, 0.5, 0.3)])
        assert rep.max_abs() <= 1e-14

    def test_c1_kink_under_offcenter_bump(self):
        # |x - 1/2|^1.5 is C^1 but not C^2; the identity only needs C^1
        g = unit_grid(65)
        W = ScalarField.from_function(g, lambda X, Y: np.abs(X - 0.5) ** 1.5)
        rep = mixed_partials_check(W, [TestFunction(0.47, 0.56, 0.3)])
        assert rep.max_abs() <= 10 * g.h**2

    def test_constant_field(self):
        g = unit_grid(33)
        W = ScalarField.from_function(g, lambda X, Y: 3.0 + 0.0 * X)
        rep = mixed_partials_check(W, bump_lattice(g))
        assert rep.max_abs() <= 1e-15

    def test_smooth_lattice_and_refinement(self):
        fn = lambda X, Y: np.sin(1.3 * X) * np.exp(0.4 * Y)
        g = unit_grid(65)
        coarse = mixed_partials_check(
            ScalarField.from_function(g, fn), bump_lattice(g)
        ).max_abs()
        assert coarse <= 10 * g.h**2
        g2 = g.refined()
        fine = mixed_partials_check(
            ScalarField.from_function(g2, fn), bump_lattice(g2)
        ).max_abs()
        assert coarse / fine >= 3.0

    def test_matrix_field_input(self):
        g, A, _ = half_plane_connection(65)
        rep = mixed_partials_check(A, bump_lattice(g))
        assert isinstance(A, FrameField)
        assert rep.max_abs() <= 10 * g.h**2


class TestProductRule:
    def test_lipschitz_factor(self):
        g = unit_grid(65)
        P = ScalarField.from_function(g, lambda X, Y: X)
        L = ScalarField.from_function(g, lambda X, Y: np.abs(Y - 0.5))
        rep = product_rule_check(P, L, bump_lattice(g))
        assert rep.max_abs() <= 10 * g.h**2

    def test_unit_p_collapses_exactly(self):
        g = unit_grid(65)
        P = ScalarField.from_function(g, lambda X, Y: 1.0 + 0.0 * X)
        L = ScalarField.from_function(g, lambda X, Y: np.abs(Y - 0.5))
        rep = product_rule_check(P, L, bump_lattice(g))
        assert all(r == 0.0 for r in rep.residuals)

    def test_unit_l_reduces_to_rounding(self):
        g = unit_grid(65)
        P = ScalarField.from_function(g, lambda X, Y: X)
        L = ScalarField.from_function(g, lambda X, Y: 1.0 + 0.0 * X)
        rep = product_rule_check(P, L, bump_lattice(g))
        assert rep.max_abs() <= 1e-14

    def test_step_factor_survives_weak_reading(self):
        # no derivative of L is ever taken, so even a jump is harmless
        g = unit_grid(65)
        P = ScalarField.from_function(g, lambda X, Y: np.sin(1.0 + X))
        L = ScalarField.from_function(
            g, lambda X, Y: np.where(X > 0.5 + 0.3 * g.dx, 1.0, -1.0)
        )
        rep = product_rule_check(P, L, bump_lattice(g))
        assert rep.max_abs() <= 1e-14

    def test_pointwise_expansion_scalings(self):
        # classical reading: O(h^2) for smooth L, O(h) at a Lipschitz
        # kink, O(1) = |P'| at a jump; only the last is a failure
        sups = {"smooth": [], "kink": [], "step": []}
        for n in (65, 129):
            g = unit_grid(n)
            P = ScalarField.from_function(g, lambda X, Y: np.sin(1.0 + Y))
            fields = {
                "smooth": ScalarField.from_function(g, lambda X, Y: np.cos(X + 2 * Y)),
                "kink": ScalarField.from_function(g, lambda X, Y: np.abs(Y - 0.5)),
                "step": ScalarField.from_function(
                    g, lambda X, Y: np.where(Y > 0.5 + 0.3 * g.dy, 1.0, -1.0)
                ),
            }
            for name, L in fields.items():
                sups[name].append(product_rule_pointwise_residual(P, L, axis="y"))
        assert sups["smooth"][0] <= 10 * unit_grid(65).h ** 2
        assert sups["smooth"][0] / sups["smooth"][1] >= 3.0
        assert sups["kink"][0] / sups["kink"][1] >= 1.7  # first order
        # the step residual stays put near |P'(kink)| = |cos(1.5)|
        floor = 0.5 * abs(np.cos(1.5))
        assert sups["step"][0] >= floor
        assert sups["step"][1] >= floor


class TestLiouvilleResidual:
    def test_half_plane_factor_is_weak_solution(self):
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 65, 65)
        u = ScalarField.from_function(g, lambda X, Y: -np.log(Y))
        rep = liouville_weak_residual(u, bump_lattice(g))
        assert rep.max_abs() <= 10 * g.h**2

    def test_disk_factor_is_weak_solution(self):
        half = 0.7 / np.sqrt(2.0)
        g = Grid2D.from_bounds(-half, half, -half, half, 65, 65)
        u = ScalarField.from_function(
            g, lambda X, Y: np.log(2.0) - np.log(1.0 - X**2 - Y**2)
        )
        rep = liouville_weak_residual(u, bump_lattice(g))
        assert rep.max_abs() <= 10 * g.h**2

    def test_zero_field_detected_as_nonsolution(self):
        g = Grid2D.from_bounds(-1.4, 1.4, -1.4, 1.4, 65, 65)
        u = ScalarField.from_function(g, lambda X, Y: 0.0 * X)
        rep = liouville_weak_residual(u, [TestFunction(0.0, 0.0, 1.0)])
        # gradient term drops; the residual is the bump integral itself
        assert rep.residuals[0] == pytest.approx(np.pi / 3.0, abs=10 * g.h**2)
        assert rep.max_abs() >= 0.9

    def test_constant_shift_identity(self):
        # adding c changes the residual exactly through the source term
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 65, 65)
        u = ScalarField.from_function(g, lambda X, Y: -np.log(Y))
        shifted = ScalarField(g, u.values + 0.37)
        tests = bump_lattice(g)
        base = liouville_weak_residual(u, tests)
        moved = liouville_weak_residual(shifted, tests)
        for v, a, b in zip(tests, base.residuals, moved.residuals):
            vals = v.value(*g.mesh())
            expect = quadrature(
                (np.exp(2 * (u.values + 0.37)) - np.exp(2 * u.values)) * vals, g
            )
            assert (b - a) == pytest.approx(expect, abs=1e-13)


class TestFrameWeak:
    def test_zero_connection(self):
        g = unit_grid(33)
        Z = np.zeros(g.shape + (3, 3))
        rep = frame_weak_compatibility(Z, Z, g, bump_lattice(g))
        assert rep.max_abs() == 0.0
        assert rep.count == 9 * len(bump_lattice(g))

    def test_half_plane_chart_compatible(self):
        g, A, B = half_plane_connection(65)
        rep = frame_weak_compatibility(A, B, g, bump_lattice(g))
        assert rep.max_abs() <= 10 * g.h**2

    def test_offdiagonal_entry_reproduces_scalar_residual(self):
        # the (1,2) elementary-matrix test collapses the matrix identity
        # onto the scalar curvature identity for u = ln h, up to sign
        g, A, B = half_plane_connection(65)
        _, Y = g.mesh()
        u = ScalarField(g, np.log(1.0 / Y))
        tests = bump_lattice(g)
        r12 = frame_weak_compatibility(A, B, g, tests).residuals[1::9]
        rl = liouville_weak_residual(u, tests)
        worst = max(abs(a + b) for a, b in zip(r12, rl.residuals, strict=True))
        assert worst <= 10 * g.h**2

    def test_peak_memory_per_node(self):
        # A and B hold 18 doubles per node and AB - BA 9 more; measured
        # 34.25 doubles per node in all, 36.02 with the commutator formed
        # from two whole-grid products
        n = 129
        g = Grid2D.from_bounds(0.0, 1.0, 1.4, 2.4, n, n)
        _, Y = g.mesh()
        root = np.sqrt(Y**2 - 1.0)
        II = SecondForm(g, root / Y**2, np.zeros_like(Y), -1.0 / (Y**2 * root))
        h = ScalarField(g, 1.0 / Y)
        tests = bump_lattice(g)
        del _, Y, root
        tracemalloc.start()
        try:
            A, B = isothermic_connection(h, II)
            frame_weak_compatibility(A, B, g, tests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 35 * 8 * n * n

    def test_connection_grid_validation(self):
        g, A, B = half_plane_connection(33)
        # a connection sampled on another grid of the same shape
        shifted = Grid2D.from_bounds(0.5, 1.5, 1.4, 2.4, 33, 33)
        with pytest.raises(GridError, match="grids differ"):
            frame_weak_compatibility(A, FrameField(shifted, B.values), g, bump_lattice(g))



class TestNonFiniteRefused:
    """A NaN outside every bump support is still refused.

    The kernel integrates each bump over its node box only, so a corner
    node never reaches a quadrature; the whole-field check must catch it
    in a bare connection array as the full-grid quadrature did (NaN * 0
    is NaN).  A scalar field refuses it when it is built.
    """

    @staticmethod
    def corner_nan(values):
        out = np.array(values, dtype=float)
        out[0, 0] = np.nan
        return out

    def test_corner_outside_every_box(self):
        g = unit_grid(33)
        for v in bump_lattice(g):
            rows, cols = v.node_box(g)
            assert rows.start > 0 and cols.start > 0

    @pytest.mark.parametrize("check", [
        "mixed_partials_check",
        "product_rule_check",
        "liouville_weak_residual",
        "frame_weak_compatibility",
    ])
    def test_nan_at_corner_node(self, check):
        g, A, B = half_plane_connection(33)
        tests = bump_lattice(g)
        smooth = ScalarField.from_function(g, lambda X, Y: np.sin(X) * Y)
        bad = lambda: ScalarField(g, self.corner_nan(smooth.values))
        bad_A = self.corner_nan(A.values)
        calls = {
            "mixed_partials_check": lambda: mixed_partials_check(bad(), tests),
            "product_rule_check": lambda: product_rule_check(smooth, bad(), tests),
            "liouville_weak_residual": lambda: liouville_weak_residual(bad(), tests),
            "frame_weak_compatibility": lambda: frame_weak_compatibility(bad_A, B, g, tests),
        }
        match = ("quadrature requires finite samples everywhere"
                 if check == "frame_weak_compatibility" else "samples must be finite")
        with pytest.raises(GridError, match=match):
            calls[check]()


# Reference implementations: the per-check loops the pairing kernel
# replaced, one full-grid quadrature per term, kept verbatim as the
# oracle the kernel is held to within rounding.


def ref_mixed_partials(W, tests):
    grid = W.grid
    if isinstance(W, FrameField):
        Wx = np.gradient(W.values, grid.dx, axis=1, edge_order=2)
        Wy = np.gradient(W.values, grid.dy, axis=0, edge_order=2)
        residuals = []
        for v in tests:
            gx, gy = v.grad(*grid.mesh())
            worst = 0.0
            for p in range(3):
                for q in range(3):
                    r = (-quadrature(Wx[:, :, p, q] * gy, grid)
                         + quadrature(Wy[:, :, p, q] * gx, grid))
                    worst = max(worst, abs(r))
            residuals.append(worst)
        return residuals
    Wx = fd_partial(W.values, grid, "x")
    Wy = fd_partial(W.values, grid, "y")
    residuals = []
    for v in tests:
        gx, gy = v.grad(*grid.mesh())
        r = -quadrature(Wx * gy, grid) + quadrature(Wy * gx, grid)
        residuals.append(r)
    return residuals


def ref_product_rule(P, L, tests, axis):
    grid = P.grid
    Pd = fd_partial(P.values, grid, axis)
    residuals = []
    for v in tests:
        vals = v.value(*grid.mesh())
        gx, gy = v.grad(*grid.mesh())
        dv = gx if axis == "x" else gy
        r = (
            -quadrature(P.values * L.values * dv, grid)
            - quadrature(Pd * L.values * vals, grid)
            + quadrature(L.values * (Pd * vals + P.values * dv), grid)
        )
        residuals.append(r)
    return residuals


def ref_liouville(u, tests):
    grid = u.grid
    ux = fd_partial(u.values, grid, "x")
    uy = fd_partial(u.values, grid, "y")
    source = np.exp(2.0 * u.values)
    residuals = []
    for v in tests:
        vals = v.value(*grid.mesh())
        gx, gy = v.grad(*grid.mesh())
        r = quadrature(ux * gx + uy * gy, grid) + quadrature(source * vals, grid)
        residuals.append(r)
    return residuals


def ref_frame_entry(A, B, grid, p, q, tests):
    commutator = (A.values @ B.values - B.values @ A.values)[:, :, p, q]
    a = A.values[:, :, p, q]
    b = B.values[:, :, p, q]
    residuals = []
    for w in tests:
        vals = w.value(*grid.mesh())
        gx, gy = w.grad(*grid.mesh())
        r = (
            -quadrature(a * gy, grid)
            + quadrature(b * gx, grid)
            - quadrature(commutator * vals, grid)
        )
        residuals.append(r)
    return residuals


def assert_rounding_close(residuals, reference):
    """Same count, and each residual within an absolute 1e-14 of the
    reference loop's: the kernel integrates one signed sum over each
    bump's box where the loops integrate each term over the whole grid,
    which agree in exact arithmetic."""
    assert len(residuals) == len(reference)
    assert max(abs(a - b) for a, b in zip(residuals, reference)) <= 1e-14


class TestKernelEquivalence:
    """The pairing kernel reproduces the reference loops to rounding.

    The grid has nx != ny and dx != dy, so a swapped axis or spacing
    cannot hide behind the x<->y symmetry of the square oracles.
    """

    @pytest.fixture(scope="class")
    def setup(self):
        g = Grid2D.from_bounds(0.0, 1.3, 1.4, 2.4, 57, 45)
        _, Y = g.mesh()
        root = np.sqrt(Y**2 - 1.0)
        II = SecondForm(g, root / Y**2, 0.1 * np.sin(3.0 * Y), -1.0 / (Y**2 * root))
        A, B = isothermic_connection(ScalarField(g, 1.0 / Y), II)
        tests = bump_lattice(g)
        assert g.dx != g.dy and len(tests) > 1
        return g, A, B, tests

    def test_scalar_checks(self, setup):
        g, _, _, tests = setup
        W = ScalarField.from_function(g, lambda X, Y: np.sin(1.3 * X) * np.exp(0.4 * Y) + X * Y**2)
        P = ScalarField.from_function(g, lambda X, Y: np.cos(X + 0.3 * Y))
        L = ScalarField.from_function(g, lambda X, Y: np.abs(Y - 1.9) + X**2)
        u = ScalarField.from_function(g, lambda X, Y: -np.log(Y) + 0.05 * X)
        assert_rounding_close(mixed_partials_check(W, tests).residuals,
                              ref_mixed_partials(W, tests))
        for axis in ("x", "y"):
            rep = product_rule_check(P, L, tests, axis=axis)
            assert_rounding_close(rep.residuals, ref_product_rule(P, L, tests, axis))
        rep = liouville_weak_residual(u, tests)
        assert_rounding_close(rep.residuals, ref_liouville(u, tests))

    def test_frame_checks(self, setup):
        g, A, B, tests = setup
        assert_rounding_close(mixed_partials_check(A, tests).residuals,
                              ref_mixed_partials(A, tests))
        # test-major with the entry index fastest: entry (p, q) is the
        # slice [3 p + q::9], as perfbench/audit.py reads (0, 1)
        full = frame_weak_compatibility(A, B, g, tests)
        assert full.count == 9 * len(tests)
        for p in range(3):
            for q in range(3):
                assert_rounding_close(full.residuals[3 * p + q::9],
                                      ref_frame_entry(A, B, g, p, q, tests))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_banded_commutator_is_bitwise_the_whole_grid_one(self, monkeypatch, setup, rows):
        # the default band holds every row of this grid
        g, A, B, _ = setup
        monkeypatch.setattr("minding_lab.grid.BAND", rows * g.nx)
        commutator = _connection_fields(A, B, g)["commutator"]
        assert np.array_equal(commutator, A.values @ B.values - B.values @ A.values)
