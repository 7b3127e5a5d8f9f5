"""Developing maps, their invariant, and the pullback isometry."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minding_lab.grid import Grid2D, GridError, ScalarField, fd_laplacian
from minding_lab.fieldio import read_field, write_field
from minding_lab.developing import (
    DevelopError,
    DevelopingMap,
    develop,
    develop_path_residual,
    holomorphic_invariant,
    hyperbolic_distance,
    mobius_disk,
    pullback_isometry_check,
    u_from_phi,
    _march,
)

# half-diagonal of the square inscribed in the radius-r disk
DISK_HALF = 0.5 / np.sqrt(2.0)
DISK_HALF_WIDE = 0.7 / np.sqrt(2.0)


def disk_grid(n, half=DISK_HALF):
    return Grid2D.from_bounds(-half, half, -half, half, n, n)


def disk_factor(n, half=DISK_HALF):
    g = disk_grid(n, half)
    X, Y = g.mesh()
    return ScalarField(g, np.log(2.0) - np.log(1.0 - X**2 - Y**2))


def half_plane_factor(n):
    g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
    _, Y = g.mesh()
    return ScalarField(g, -np.log(Y))


def strip_factor(n):
    # -ln cos y solves the curvature equation on |y| < pi/2 and its
    # developing map is tanh(z/2); unlike the disk and half-plane
    # factors it has a nonvanishing invariant (T = -1/4)
    g = Grid2D.from_bounds(-0.5, 0.5, -0.5, 0.5, n, n)
    _, Y = g.mesh()
    return ScalarField(g, -np.log(np.cos(Y)))


def quadratic_map_factor(n):
    # pulled back through z + 0.4 z^2: unlike the factors above its
    # invariant varies over the grid, so the march's midpoint samples
    # of T must line up with their steps
    g = disk_grid(n)
    dev = DevelopingMap.from_function(g, lambda z: z + 0.4 * z**2, lambda z: 1.0 + 0.8 * z)
    return u_from_phi(dev)


def identity_map(n, half=DISK_HALF):
    g = disk_grid(n, half)
    return DevelopingMap.from_function(g, lambda z: z, lambda z: np.ones_like(z))


def half_plane_map(n):
    g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
    return DevelopingMap.from_function(
        g, lambda z: (z - 1j) / (z + 1j), lambda z: 2j / (z + 1j) ** 2
    )


def normalized_half_plane_oracle(grid):
    """The marched map's analytic target: (z-i)/(z+i) renormalized so the
    center node goes to 0 with positive real derivative."""
    X, Y = grid.mesh()
    z = X + 1j * Y
    w = (z - 1j) / (z + 1j)
    dw = 2j / (z + 1j) ** 2
    jb, ib = grid.shape[0] // 2, grid.shape[1] // 2
    wb = w[jb, ib]
    theta = -np.angle(dw[jb, ib] / (1.0 - abs(wb) ** 2))
    return np.exp(1j * theta) * (w - wb) / (1.0 - np.conj(wb) * w)


class TestDevelopingMapValidation:
    def test_identity_accepted(self):
        dev = identity_map(33)
        assert dev.phi.shape == (33, 33)
        assert np.abs(dev.phi).max() < 1.0

    def test_leaves_disk(self):
        g = disk_grid(17)
        with pytest.raises(DevelopError, match="unit disk"):
            DevelopingMap.from_function(g, lambda z: 3.0 * z, lambda z: 3.0 * np.ones_like(z))

    def test_vanishing_derivative(self):
        g = disk_grid(17)
        with pytest.raises(DevelopError, match="derivative vanishes"):
            DevelopingMap.from_function(g, lambda z: z**2 / 4.0, lambda z: z / 2.0)

    def test_antiholomorphic_rejected(self):
        g = disk_grid(17)
        with pytest.raises(DevelopError, match="holomorphy defect"):
            DevelopingMap.from_function(
                g, lambda z: 0.5 * np.conj(z), lambda z: 0.5 * np.ones_like(z)
            )

    def test_shape_mismatch(self):
        g = disk_grid(9)
        with pytest.raises(GridError):
            DevelopingMap(g, np.zeros((9, 8), dtype=complex), np.ones((9, 9), dtype=complex))

    def test_nonfinite_rejected(self):
        g = disk_grid(9)
        phi = np.zeros(g.shape, dtype=complex)
        phi[0, 0] = np.nan
        with pytest.raises(GridError):
            DevelopingMap(g, phi, np.ones(g.shape, dtype=complex))

    def test_pullback_density_at_origin(self):
        dev = identity_map(33)
        assert dev.pullback_density()[16, 16] == pytest.approx(4.0, abs=1e-14)


class TestUFromPhi:
    def test_disk_identity_exact(self):
        n = 65
        dev = identity_map(n, DISK_HALF_WIDE)
        u = u_from_phi(dev)
        X, Y = dev.grid.mesh()
        exact = np.log(2.0) - np.log(1.0 - X**2 - Y**2)
        assert np.abs(u.values - exact).max() <= 1e-12

    def test_half_plane_exact(self):
        dev = half_plane_map(65)
        _, Y = dev.grid.mesh()
        u = u_from_phi(dev)
        assert np.abs(u.values + np.log(Y)).max() <= 1e-13

    @pytest.mark.parametrize("n", [65, 129])
    def test_exponent_half_satisfies_equation(self, n):
        # curvature defect |lap u - e^{2u}| / e^{2u} under the five-point
        # Laplacian, on the wide patch where the corner values are largest
        u = u_from_phi(identity_map(n, DISK_HALF_WIDE), exponent=0.5)
        e2u = np.exp(2.0 * u.values)
        defect = np.abs(fd_laplacian(u).values - e2u) / e2u
        assert np.nanmax(defect) <= 10.0 * u.grid.h**2

    @pytest.mark.parametrize("n", [65, 129])
    def test_exponent_quarter_fails_by_order_one(self, n):
        u = u_from_phi(identity_map(n, DISK_HALF_WIDE), exponent=0.25)
        e2u = np.exp(2.0 * u.values)
        defect = np.abs(fd_laplacian(u).values - e2u) / e2u
        assert np.nanmax(defect) >= 0.5

    def test_constant_map_rejected(self):
        g = disk_grid(17)
        with pytest.raises(DevelopError, match="derivative vanishes"):
            DevelopingMap.from_function(
                g, lambda z: np.full_like(z, 0.3), lambda z: np.zeros_like(z)
            )


class TestHolomorphicInvariant:
    def test_half_plane_vanishes(self):
        u = half_plane_factor(65)
        inv = holomorphic_invariant(u)
        assert np.abs(inv.T).max() <= 10.0 * u.grid.h**2

    def test_disk_vanishes(self):
        u = disk_factor(65)
        inv = holomorphic_invariant(u)
        assert np.abs(inv.T).max() <= 10.0 * u.grid.h**2

    def test_strip_constant(self):
        u = strip_factor(65)
        inv = holomorphic_invariant(u)
        assert np.abs(inv.T + 0.25).max() <= 10.0 * u.grid.h**2

    def test_nonsolution_quadratic(self):
        # u = x^2 gives u_z = x, u_zz = 1/2 and the stencils are exact on
        # quadratics, so T = 1/2 - x^2 to roundoff; dbar T = -x is an
        # honestly nonzero residual, not an error
        g = Grid2D.from_bounds(-1.0, 1.0, -1.0, 1.0, 33, 33)
        X, _ = g.mesh()
        inv = holomorphic_invariant(ScalarField(g, X**2))
        assert np.abs(inv.T - (0.5 - X**2)).max() <= 1e-12
        assert inv.max_cr() == pytest.approx(0.875, abs=1e-10)

    @pytest.mark.parametrize("factor", [disk_factor, half_plane_factor, strip_factor])
    @pytest.mark.parametrize("n", [65, 129])
    def test_cr_residual_small_on_solutions(self, factor, n):
        u = factor(n)
        inv = holomorphic_invariant(u)
        assert inv.max_cr() <= 10.0 * u.grid.h**2

    def test_residual_mask_rings(self):
        inv = holomorphic_invariant(disk_factor(33))
        r = inv.cr_residual.values
        assert np.isnan(r[:2, :]).all() and np.isnan(r[:, -2:]).all()
        assert np.isfinite(r[2:-2, 2:-2]).all()


class TestDevelop:
    @pytest.mark.parametrize("n", [65, 129])
    def test_disk_identity(self, n):
        u = disk_factor(n)
        dev = develop(u)
        X, Y = u.grid.mesh()
        err = np.abs(dev.phi - (X + 1j * Y)).max()
        assert err <= 50.0 * u.grid.h**2
        assert err <= 1e-5

    def test_disk_identity_converges(self):
        errs = []
        for n in (65, 129):
            u = disk_factor(n)
            X, Y = u.grid.mesh()
            errs.append(np.abs(develop(u).phi - (X + 1j * Y)).max())
        assert errs[0] / errs[1] >= 2.0

    @pytest.mark.parametrize("n", [65, 129])
    def test_half_plane_oracle(self, n):
        u = half_plane_factor(n)
        dev = develop(u)
        err = np.abs(dev.phi - normalized_half_plane_oracle(u.grid)).max()
        assert err <= 50.0 * u.grid.h**2
        assert err <= 1e-4

    def test_strip_pins_ode_sign(self):
        # T = -1/4 here, so a sign flip in the ODE coupling would march
        # trigonometric ratios instead of tanh and miss this oracle
        u = strip_factor(65)
        dev = develop(u)
        X, Y = u.grid.mesh()
        err = np.abs(dev.phi - np.tanh((X + 1j * Y) / 2.0)).max()
        assert err <= 50.0 * u.grid.h**2
        assert err <= 1e-5

    def test_base_normalization(self):
        u = disk_factor(65)
        dev = develop(u, base=(20, 41))
        assert abs(dev.phi[20, 41]) <= 1e-14
        assert dev.dphi[20, 41].real > 0.0
        assert abs(dev.dphi[20, 41].imag) <= 1e-14

    def test_deterministic(self):
        u = half_plane_factor(33)
        a = develop(u)
        b = develop(u)
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.dphi, b.dphi)

    def test_pullback_gate_on_result(self):
        u = half_plane_factor(65)
        dev = develop(u)
        assert pullback_isometry_check(dev, u) <= 50.0 * u.grid.h**2

    def test_zero_factor_rejected(self):
        # u = 0 is flat: develop returns a map, and the pullback gate
        # that every caller applies rejects it
        g = disk_grid(65)
        u = ScalarField(g, np.zeros(g.shape))
        assert pullback_isometry_check(develop(u), u) > 50.0 * g.h**2

    def test_large_constant_leaves_disk(self):
        g = disk_grid(65)
        with pytest.raises(DevelopError, match="not developable.*unit disk"):
            develop(ScalarField(g, np.full(g.shape, 3.0)))

    def test_overflowing_factor_rejected(self):
        # e^800 overflows the march from its first node; the path
        # residual raises the same error as develop, and neither warns
        g = disk_grid(65)
        u = ScalarField(g, np.full(g.shape, 800.0))
        for call in (develop, develop_path_residual):
            with pytest.raises(DevelopError, match="not developable.*non-finite"):
                call(u)

    def test_nonfinite_rejected(self):
        g = disk_grid(17)
        vals = np.zeros(g.shape)
        vals[3, 3] = np.inf
        with pytest.raises(GridError):
            develop(ScalarField(g, vals))

    @pytest.mark.parametrize("n", [65, 129])
    def test_forward_backward(self, n):
        u = u_from_phi(identity_map(n))
        dev = develop(u)
        X, Y = u.grid.mesh()
        assert np.abs(dev.phi - (X + 1j * Y)).max() <= 100.0 * u.grid.h**2

    @pytest.mark.parametrize("factor", [disk_factor, half_plane_factor, strip_factor])
    def test_path_residual(self, factor):
        u = factor(65)
        assert develop_path_residual(u) <= 1e-4


# corners and edge midpoints of a 65 x 65 grid
EDGE_BASES = [(j, i) for j in (0, 32, 64) for i in (0, 32, 64) if (j, i) != (32, 32)]


class TestMarchFromEdges:
    """Bases on the grid's boundary, where one half of every two-way
    line march is empty and an off-by-one in the reversed slices would
    show."""

    # the quadratic map's bound sits at 1.8x its largest residual, 1.12e-4
    # from the corners; a midpoint of T taken one step off reads 3e-4 to
    # 2.4e-3 from every base with a nonempty backward half
    @pytest.mark.parametrize("factor, bound", [
        (disk_factor, 1e-4), (half_plane_factor, 1e-4), (quadratic_map_factor, 2e-4),
    ], ids=["disk", "half_plane", "quadratic_map"])
    @pytest.mark.parametrize("base", EDGE_BASES, ids=str)
    def test_path_residual_and_base_normalization(self, factor, bound, base):
        u = factor(65)
        assert develop_path_residual(u, base) <= bound
        T = holomorphic_invariant(u).T
        for x_first in (True, False):
            phi, dphi = _march(u, T, *base, x_first=x_first)
            assert phi[base] == 0.0
            assert dphi[base] == np.exp(u.values[base]) / 2.0


class TestPullbackCheck:
    def test_half_plane_analytic_exact(self):
        dev = half_plane_map(65)
        _, Y = dev.grid.mesh()
        u = ScalarField(dev.grid, -np.log(Y))
        worst = pullback_isometry_check(dev, u)
        assert worst <= 50.0 * dev.grid.h**2
        assert worst <= 1e-12

    def test_disk_analytic(self):
        n = 65
        dev = identity_map(n)
        assert pullback_isometry_check(dev, disk_factor(n)) <= 50.0 * dev.grid.h**2

    def test_flat_factor_detected(self):
        # phi = z against u = 0: density 4 vs 1 at the origin
        dev = identity_map(65)
        u0 = ScalarField(dev.grid, np.zeros(dev.grid.shape))
        assert pullback_isometry_check(dev, u0) >= 3.0

    def test_grid_mismatch(self):
        dev = identity_map(33)
        with pytest.raises(GridError):
            pullback_isometry_check(dev, disk_factor(65))


class TestHyperbolicDistance:
    def test_coincident(self):
        assert hyperbolic_distance(0.0, 0.0) == 0.0

    def test_half_radius(self):
        assert hyperbolic_distance(0.0, 0.5) == pytest.approx(np.log(3.0), abs=1e-14)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(11)
        w1 = 0.8 * (rng.random(40) - 0.5) + 0.8j * (rng.random(40) - 0.5)
        w2 = 0.8 * (rng.random(40) - 0.5) + 0.8j * (rng.random(40) - 0.5)
        before = hyperbolic_distance(w1, w2)
        after = hyperbolic_distance(
            mobius_disk(w1, a=0.3 + 0.2j, rotation=0.7),
            mobius_disk(w2, a=0.3 + 0.2j, rotation=0.7),
        )
        assert np.abs(before - after).max() <= 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(DevelopError):
            hyperbolic_distance(0.0, 1.0)
        with pytest.raises(DevelopError):
            hyperbolic_distance(1.2, 0.0)

    def test_array_broadcast(self):
        d = hyperbolic_distance(0.0, np.array([0.5, 0.0]))
        assert d.shape == (2,)
        assert d[1] == 0.0

    def test_mobius_center_validated(self):
        with pytest.raises(DevelopError):
            mobius_disk(0.1, a=1.0)

    def test_mobius_identity(self):
        assert mobius_disk(0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)



EQUIVARIANCE_N = 33


@functools.lru_cache(maxsize=None)
def catalog_development(name):
    """Log-factor of a catalog chart and its map from the default base."""
    from minding_lab.conformal import catalog_chart

    u = catalog_chart(name, EQUIVARIANCE_N)[2]["u"]
    return u, develop(u)


def node_distances(phi):
    """Hyperbolic distances between every 4th node in each direction."""
    w = phi[::4, ::4].ravel()
    return hyperbolic_distance(w[:, None], w[None, :])


class TestDevelopEquivariance:
    """Developing maps are unique up to a disk automorphism, so the
    hyperbolic distances between developed nodes are intrinsic: they
    must not depend on the base point or on a Möbius post-composition.
    """

    charts = st.sampled_from(["half_plane_pseudosphere", "poincare_disk_patch"])

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(charts, st.floats(0.0, 0.5), st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi))
    def test_mobius_post_composition(self, name, radius, angle, rotation):
        _, dev = catalog_development(name)
        moved = mobius_disk(dev.phi, a=radius * np.exp(1j * angle), rotation=rotation)
        before = node_distances(dev.phi)
        assert np.abs(node_distances(moved) - before).max() <= 1e-12 * (1.0 + before.max())

    @settings(derandomize=True, deadline=None, max_examples=30, database=None)
    @given(charts, st.integers(EQUIVARIANCE_N // 4, 3 * EQUIVARIANCE_N // 4),
           st.integers(EQUIVARIANCE_N // 4, 3 * EQUIVARIANCE_N // 4))
    def test_change_of_base(self, name, jb, ib):
        # each march carries its own O(h^2) error, so distances agree to
        # the acceptance suite's 10 h^2 rather than to rounding
        u, dev = catalog_development(name)
        rebased = develop(u, base=(jb, ib))
        assert abs(rebased.phi[jb, ib]) <= 1e-14
        gap = np.abs(node_distances(rebased.phi) - node_distances(dev.phi)).max()
        assert gap <= 10.0 * u.grid.h**2


class TestIsometryTransport:
    def test_half_plane_segments(self):
        phi = lambda z: (z - 1j) / (z + 1j)
        p = 0.4 + 1.3j
        for ang in (0.0, np.pi / 7, 2.1):
            q = p + 1e-3 * np.exp(1j * ang)
            d = hyperbolic_distance(phi(p), phi(q))
            predicted = (1.0 / p.imag) * 1e-3
            assert abs(d - predicted) / predicted <= 1e-2

    def test_disk_segment(self):
        p = 0.2 + 0.1j
        q = p + 1e-3 * np.exp(0.6j)
        d = hyperbolic_distance(p, q)
        predicted = 2.0 / (1.0 - abs(p) ** 2) * 1e-3
        assert abs(d - predicted) / predicted <= 1e-2

    def test_marched_map_segments(self):
        # same statement through the marched map at half-plane nodes
        u = half_plane_factor(129)
        dev = develop(u)
        X, Y = u.grid.mesh()
        j, i = 64, 30
        d = hyperbolic_distance(dev.phi[j, i], dev.phi[j, i + 1])
        predicted = np.exp(u.values[j, i]) * u.grid.dx
        assert abs(d - predicted) / predicted <= 2e-2


class TestExport:
    def test_round_trip(self, tmp_path):
        dev = develop(half_plane_factor(33))
        path = tmp_path / "dev.field"
        write_field(path, dev.grid, {
            "phi_re": dev.phi.real, "phi_im": dev.phi.imag,
            "dphi_re": dev.dphi.real, "dphi_im": dev.dphi.imag,
        })
        grid, channels = read_field(path)
        assert grid.matches(dev.grid)
        rebuilt = DevelopingMap(
            grid,
            channels["phi_re"] + 1j * channels["phi_im"],
            channels["dphi_re"] + 1j * channels["dphi_im"],
        )
        assert np.array_equal(rebuilt.phi, dev.phi)
