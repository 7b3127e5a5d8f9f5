"""Dirichlet solves: sine-transform Poisson, Newton for exp(2u), uniqueness check."""

import json
import os
import subprocess
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import minding_lab
import minding_lab.conformal as conformal
import minding_lab.elliptic as elliptic
from minding_lab.conformal import catalog_chart
from minding_lab.forms import MetricField
from minding_lab.grid import Grid2D, GridError, ScalarField, fd_laplacian
from minding_lab.weak import bump_lattice, liouville_weak_residual
from minding_lab.elliptic import (
    EllipticError,
    LiouvilleSolution,
    bootstrap_equivalence,
    boundary_array,
    solve_liouville_newton,
    solve_poisson,
)

DISK_HALF = 0.7 / np.sqrt(2.0)


def disk_factor(X, Y):
    return np.log(2.0) - np.log(1.0 - X**2 - Y**2)


def half_plane_grid(n):
    return Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)


def half_plane_log(grid):
    """The half-plane log-factor -ln y at the nodes, as boundary data."""
    return -np.log(grid.mesh()[1])


def disk_square_grid(n):
    return Grid2D.from_bounds(-DISK_HALF, DISK_HALF, -DISK_HALF, DISK_HALF, n, n)


def laplacian_matrix(grid):
    """Sparse five-point Laplacian on the interior unknowns in C order
    (x fastest), Dirichlet rows eliminated: the solvers' ``A``."""
    inx, iny = grid.nx - 2, grid.ny - 2
    tx = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(inx, inx)) / grid.dx**2
    ty = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(iny, iny)) / grid.dy**2
    return (sp.kron(sp.eye(iny), tx) + sp.kron(ty, sp.eye(inx))).tocsc()


def boundary_terms(grid, bd):
    """What the eliminated Dirichlet rows add to ``A @ interior``."""
    b = np.zeros((grid.ny - 2, grid.nx - 2))
    b[0, :] += bd[0, 1:-1] / grid.dy**2
    b[-1, :] += bd[-1, 1:-1] / grid.dy**2
    b[:, 0] += bd[1:-1, 0] / grid.dx**2
    b[:, -1] += bd[1:-1, -1] / grid.dx**2
    return b.ravel()


class TestPoisson:
    def test_harmonic_linear_is_stencil_exact(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        X, _ = g.mesh()
        w = solve_poisson(g, np.zeros((31, 31)), X)
        assert np.max(np.abs(w - X)) <= 1e-12

    def test_quadratic_is_stencil_exact(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        X, Y = g.mesh()
        w = solve_poisson(g, np.full((31, 31), 4.0), X**2 + Y**2)
        assert np.max(np.abs(w - (X**2 + Y**2))) <= 1e-11

    def test_half_plane_log_catalog(self):
        errs = []
        for n in (65, 129):
            g = half_plane_grid(n)
            _, Y = g.mesh()
            w = solve_poisson(g, 1.0 / Y[1:-1, 1:-1]**2, -np.log(Y))
            errs.append(np.max(np.abs(w + np.log(Y))))
        assert errs[0] <= 10 * half_plane_grid(65).h ** 2
        assert errs[0] / errs[1] >= 3.5

    def test_boundary_reproduced_verbatim(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 17, 17)
        X, Y = g.mesh()
        bd = np.sin(3 * X) - Y
        w = solve_poisson(g, np.ones((15, 15)), bd)
        assert np.array_equal(w[0, :], bd[0, :])
        assert np.array_equal(w[:, -1], bd[:, -1])

    def test_discrete_maximum_principle(self):
        # nonnegative source with nonpositive boundary keeps w <= 0
        g = Grid2D.from_bounds(0, 1, 0, 1, 33, 33)
        rng = np.random.default_rng(7)
        X, Y = g.mesh()
        w = solve_poisson(g, rng.random(g.shape)[1:-1, 1:-1],
                          -0.1 - 0.2 * np.abs(np.sin(3 * X + 2 * Y)))
        assert w.max() <= 1e-12

    def test_validation(self):
        g = Grid2D.from_bounds(0, 1, 0, 1, 9, 9)
        bad = np.zeros(g.shape)
        bad[0, 3] = np.inf
        with pytest.raises(GridError, match="finite on the outer ring"):
            solve_poisson(g, np.zeros((7, 7)), bad)
        # the rhs holds the interior nodes only, each finite
        rhs = np.zeros((7, 7))
        rhs[3, 0] = np.nan
        with pytest.raises(GridError, match="rhs must be finite at every node"):
            solve_poisson(g, rhs, np.zeros(g.shape))
        for shape in ((9, 9), (7, 6)):
            with pytest.raises(GridError, match=re.escape(f"shape (7, 7), got {shape}")):
                solve_poisson(g, np.zeros(shape), np.zeros(g.shape))
        with pytest.raises(GridError, match=r"boundary data must have shape \(9, 9\), got \(\)"):
            solve_poisson(g, np.zeros((7, 7)), 0.0)

    def test_matches_sparse_lu_on_a_rectangle(self):
        # nx != ny, dx != dy and data with no x <-> y symmetry, so a
        # swapped axis or step in the transforms cannot cancel out
        g = Grid2D.from_bounds(-0.3, 0.9, 1.0, 1.5, 71, 38)
        X, Y = g.mesh()
        rhs = np.exp(X - 2.0 * Y) + X * Y**3
        bd = np.sin(3.0 * X) + X * Y**2 - 0.5 * Y
        want = splu(laplacian_matrix(g)).solve(rhs[1:-1, 1:-1].ravel() - boundary_terms(g, bd))
        got = solve_poisson(g, rhs[1:-1, 1:-1], bd)[1:-1, 1:-1].ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [65, 129, 257, 513])
    @pytest.mark.parametrize("name", ["poincare_disk_patch", "half_plane_pseudosphere"])
    def test_catalog_residual_meets_the_gate(self, name, n):
        # the bootstrap's own solve, its backward error recomputed here
        u = catalog_factor(name, n)
        rhs = np.exp(2.0 * u.values[1:-1, 1:-1])
        w = solve_poisson(u.grid, rhs, u.values)
        assert backward_error(u.grid, rhs, u.values, w) <= 0.5 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [65, 257])
    @pytest.mark.parametrize("name", ["poincare_disk_patch", "half_plane_pseudosphere"])
    def test_a_solve_off_by_ten_eps_is_refused(self, name, n, monkeypatch):
        # the correcting pass comes back with a checkerboard of 10 eps
        # |w| on top, the mode A amplifies most, so |r| ~ 10 eps |A| |w|
        dst, calls = elliptic._dst_solve, []

        def perturbed(spectrum, c, b):
            x = dst(spectrum, c, b)
            calls.append(np.max(np.abs(x)))
            if len(calls) == 2:
                board = (-1.0) ** np.add.outer(*map(np.arange, spectrum.shape))
                x += 10.0 * np.finfo(float).eps * calls[0] * board.ravel()
            return x

        u = catalog_factor(name, n)
        monkeypatch.setattr(elliptic, "_dst_solve", perturbed)
        with pytest.raises(EllipticError, match="backward error .* exceeds tolerance 1.110e-16"):
            solve_poisson(u.grid, np.exp(2.0 * u.values[1:-1, 1:-1]), u.values)

    @pytest.mark.parametrize("n", [65, 257])
    @pytest.mark.parametrize("name", ["poincare_disk_patch", "half_plane_pseudosphere"])
    def test_a_solve_without_the_correcting_pass_is_refused(self, name, n, monkeypatch):
        # one transform pair alone reads 0.8-1.1 eps on these charts
        dst, calls = elliptic._dst_solve, []

        def first_pass_only(spectrum, c, b):
            calls.append(1)
            return dst(spectrum, c, b) * (len(calls) == 1)

        u = catalog_factor(name, n)
        monkeypatch.setattr(elliptic, "_dst_solve", first_pass_only)
        with pytest.raises(EllipticError, match="backward error .* exceeds tolerance"):
            solve_poisson(u.grid, np.exp(2.0 * u.values[1:-1, 1:-1]), u.values)
        assert len(calls) == 2


class TestLiouvilleNewton:
    def test_disk_catalog(self):
        errs = []
        for n in (65, 129):
            g = disk_square_grid(n)
            X, Y = g.mesh()
            sol = solve_liouville_newton(g, disk_factor(X, Y))
            assert isinstance(sol, LiouvilleSolution)
            assert sol.iterations <= 8
            assert sol.residuals[-1] <= 1e-8
            errs.append(np.max(np.abs(sol.u.values - disk_factor(X, Y))))
        assert errs[0] <= 20 * disk_square_grid(65).h ** 2
        assert errs[0] / errs[1] >= 3.5

    def test_half_plane_catalog(self):
        g = half_plane_grid(65)
        _, Y = g.mesh()
        sol = solve_liouville_newton(g, -np.log(Y))
        assert sol.iterations <= 8
        assert np.max(np.abs(sol.u.values + np.log(Y))) <= 20 * g.h**2

    def test_quadratic_tail(self):
        # once the residual dips below 1e-2 it at least squares per step,
        # up to the 1e-10 floor of the linear solves
        g = disk_square_grid(65)
        sol = solve_liouville_newton(g, disk_factor(*g.mesh()))
        tail = [r for r in sol.residuals if r < 1e-2]
        assert len(tail) >= 2
        for a, b in zip(tail, tail[1:]):
            assert b <= max(50.0 * a * a, 1e-10)

    def test_shifted_boundary_stress(self):
        # exp(2u) stiffness: either damped Newton grinds through or the
        # solver reports failure; silent garbage is the only wrong answer
        g = half_plane_grid(65)
        try:
            sol = solve_liouville_newton(g, 10.0 + half_plane_log(g))
        except EllipticError:
            return
        assert sol.residuals[-1] <= 1e-8

    def test_iteration_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_MAX_ITERATIONS", 1)
        g = half_plane_grid(33)
        with pytest.raises(EllipticError, match="did not converge in 1 iterations"):
            solve_liouville_newton(g, half_plane_log(g))


class TestFailurePaths:
    """Paths no natural input of the suite reaches: the solver is made to
    take them, and the code is left as it is."""

    @staticmethod
    def run_cli(capsys, *argv):
        from minding_lab.cli import main

        code = main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    def test_overlong_steps_are_halved_back(self, monkeypatch):
        g = half_plane_grid(33)
        boundary = half_plane_log(g)
        want = solve_liouville_newton(g, boundary)
        pcg, residual, trials = elliptic._pcg, elliptic._liouville_residual, []
        monkeypatch.setattr(elliptic, "_pcg", lambda *args: 8.0 * pcg(*args))
        monkeypatch.setattr(elliptic, "_liouville_residual",
                            lambda *args: trials.append(1) or residual(*args))
        got = solve_liouville_newton(g, boundary)
        # one residual for the start and one per trial step; 10 halvings
        # over 4 iterations were measured
        halvings = len(trials) - 1 - got.iterations
        assert halvings >= got.iterations >= 2
        assert got.residuals[-1] <= 1e-8
        assert np.max(np.abs(got.u.values - want.u.values)) <= 1e-10

    def test_a_step_no_halving_rescues_exhausts_the_damping(self, capsys, monkeypatch):
        # the reversed Newton step raises the residual however short it is
        pcg = elliptic._pcg
        monkeypatch.setattr(elliptic, "_pcg", lambda *args: -pcg(*args))
        with pytest.raises(EllipticError, match="damping exhausted after 10 halvings"):
            solve_liouville_newton(half_plane_grid(17), half_plane_log(half_plane_grid(17)))
        code, report = self.run_cli(capsys, "solve", "--catalog", "half_plane_pseudosphere",
                                    "--n", "17")
        assert code == 4
        assert report["failed_stage"] == "newton" and report["solver_error"] is True
        assert "damping exhausted" in report["stages"][-1]["error"]

    def test_a_non_finite_step_is_halved_until_the_damping_gives_up(self, capsys, monkeypatch):
        # an infinite entry in the step makes every trial's residual
        # non-finite: the damping refuses each, and the solve ends as a
        # solver failure, not as a field that refuses an infinite entry
        pcg = elliptic._pcg

        def poisoned(*args):
            step = pcg(*args)
            step[step.size // 2] = np.inf
            return step

        monkeypatch.setattr(elliptic, "_pcg", poisoned)
        g = half_plane_grid(17)
        with pytest.raises(EllipticError, match="damping exhausted after 10 halvings"):
            solve_liouville_newton(g, half_plane_log(g))
        code, report = self.run_cli(capsys, "solve", "--catalog", "half_plane_pseudosphere",
                                    "--n", "17")
        assert code == 4
        assert report["failed_stage"] == "newton" and report["solver_error"] is True
        assert "damping exhausted" in report["stages"][-1]["error"]

    def test_boundary_data_past_the_float_range_overflow(self):
        # exp(2 * 400) is no float: the harmonic start's residual is
        # infinite and its Newton shift overflows
        with pytest.raises(EllipticError, match=r"overflowed exp\(2u\); last residual inf"):
            solve_liouville_newton(half_plane_grid(17), np.full((17, 17), 400.0))

    def test_an_unreachable_poisson_gate_raises(self, capsys, monkeypatch):
        monkeypatch.setattr(elliptic, "_POISSON_TOL", 0.0)
        g = half_plane_grid(33)
        _, Y = g.mesh()
        with pytest.raises(EllipticError, match="exceeds tolerance 0.000e"):
            bootstrap_equivalence(ScalarField(g, -np.log(Y)))
        code, report = self.run_cli(capsys, "verify-minding", "--catalog",
                                    "half_plane_pseudosphere", "--n", "33")
        assert code == 4
        assert report["failed_stage"] == "bootstrap" and report["solver_error"] is True
        assert all(stage["passed"] for stage in report["stages"][:-1])


def splu_newton(grid, boundary, tol=1e-8):
    """Reference Newton with one sparse LU per step; (interior u, iterations)."""
    A = laplacian_matrix(grid)
    b = boundary_terms(grid, boundary_array(grid, boundary))
    u = splu(A).solve(-b)  # the harmonic start

    def residual(v):
        F = A @ v + b - np.exp(2.0 * v)
        return F, float(np.max(np.abs(F)))

    F, res = residual(u)
    iterations = 0
    while res > tol:
        delta = splu((A - sp.diags(2.0 * np.exp(2.0 * u))).tocsc()).solve(-F)
        for halvings in range(11):
            trial = u + 0.5**halvings * delta
            F_try, res_try = residual(trial)
            if res_try < res:
                break
        else:
            raise AssertionError("reference Newton stalled")
        u, F, res = trial, F_try, res_try
        iterations += 1
    return u, iterations


def catalog_factor(name, n):
    return catalog_chart(name, n)[2]["u"]


def backward_error(grid, rhs, boundary, w):
    """``|r| / (|A| |w| + |b|)`` in max norms for the eliminated system
    ``A w = b`` of ``lap w = rhs``, ``rhs`` on the interior nodes.  At
    this level the rounding of ``r``
    itself counts, so ``r`` and ``b`` come from ``fd_laplacian``, the
    stencil the solver applies, and ``|A|`` from the sparse matrix."""
    ring = np.array(boundary, dtype=float)
    ring[1:-1, 1:-1] = 0.0
    b = rhs - fd_laplacian(ring, grid)
    r = fd_laplacian(w, grid) - rhs
    norm_a = np.max(np.abs(laplacian_matrix(grid)).sum(axis=1))
    return np.max(np.abs(r)) / (norm_a * np.max(np.abs(w[1:-1, 1:-1])) + np.max(np.abs(b)))


class TestNewtonLinearSolve:
    @pytest.mark.parametrize("c", [0.0, 37.5])
    def test_dst_inverts_the_shifted_laplacian(self, c):
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 1.6, 23, 15)  # dx != dy
        A = laplacian_matrix(g)
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x = elliptic._dst_solve(elliptic._laplacian_spectrum(g), c, b)
        assert np.max(np.abs(c * x - A @ x - b)) <= 1e-12 * np.max(np.abs(A @ x))
        eigs = np.linalg.eigvalsh(-A.toarray())
        assert np.allclose(np.sort(elliptic._laplacian_spectrum(g).ravel()), eigs,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("c", [0.0, 37.5])
    def test_dst_matches_scipy_sine_transforms(self, c):
        from scipy.fft import dstn, idstn

        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 1.6, 23, 15)  # nx != ny, dx != dy
        spectrum = elliptic._laplacian_spectrum(g)
        b = np.random.default_rng(5).standard_normal(spectrum.size)
        want = idstn(dstn(b.reshape(spectrum.shape), type=1) / (spectrum + c), type=1).ravel()
        got = elliptic._dst_solve(spectrum, c, b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(23, 15), (9, 31)])
    def test_stencil_product_matches_the_matrix(self, shape):
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 1.6, *shape)
        p = np.random.default_rng(11).standard_normal((g.ny - 2) * (g.nx - 2))
        want = laplacian_matrix(g) @ p
        got = elliptic._interior_laplacian(g, np.zeros(g.shape), p)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["poincare_disk_patch", "half_plane_pseudosphere",
                                      "half_plane_dx_ne_dy", "disk_dx_ne_dy"])
    def test_cg_newton_matches_splu_newton(self, case):
        if case in ("poincare_disk_patch", "half_plane_pseudosphere"):
            u = catalog_factor(case, 65)
            grid, boundary = u.grid, u.values
        elif case == "half_plane_dx_ne_dy":
            grid = Grid2D.from_bounds(0.0, 1.0, 1.0, 1.6, 65, 29)
            boundary = half_plane_log(grid)
        else:
            grid = Grid2D.from_bounds(-0.45, 0.45, -0.3, 0.3, 41, 61)
            boundary = disk_factor(*grid.mesh())
        want, iterations = splu_newton(grid, boundary)
        sol = solve_liouville_newton(grid, boundary)
        assert sol.iterations == iterations
        assert np.max(np.abs(sol.u.values[1:-1, 1:-1].ravel() - want)) <= 1e-10

    def test_cg_steps_do_not_grow_with_n(self, monkeypatch):
        # one preconditioner application per CG step plus one to start
        calls = []
        dst_solve = elliptic._dst_solve
        monkeypatch.setattr(elliptic, "_dst_solve",
                            lambda *args: calls.append(1) or dst_solve(*args))
        for n in (33, 129):
            for name in ("poincare_disk_patch", "half_plane_pseudosphere"):
                calls.clear()
                u = catalog_factor(name, n)
                sol = solve_liouville_newton(u.grid, u.values)
                assert len(calls) <= 8 * sol.iterations

    def test_exhausted_cg_budget_raises(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_pcg_budget", lambda kappa, rtol: 1)
        with pytest.raises(EllipticError, match="conjugate gradients did not converge"):
            solve_liouville_newton(half_plane_grid(33), half_plane_log(half_plane_grid(33)))

    def test_catalog_commands_load_no_spline_tree_or_fft(self, tmp_path):
        # no command loads any scipy module: the catalog charts need none,
        # and the flattened sources (one_soliton passes; the sphere control
        # and the flat plane fail at the image curvature, the K = -0.995
        # metric file at rescale) factor, spline and seed on numpy
        src = str(Path(minding_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def scipy_loaded(code):
            probe = (f"import json, sys\n{code}\n"
                     "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))\n")
            result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                    text=True, env={**os.environ, "PYTHONPATH": path},
                                    timeout=120)
            assert result.returncode == 0, result.stderr
            return set(json.loads(result.stdout.splitlines()[-1]))

        from minding_lab.cli import main
        from minding_lab.fieldio import read_field, write_field

        assert main(["metric", "--catalog", "one_soliton", "--n", "65",
                     "--out", str(tmp_path / "run")]) == 0
        grid, channels = read_field(tmp_path / "run" / "metric.json")
        metric_file = tmp_path / "metric.json"
        write_field(metric_file, grid, {c: channels[c] / 0.995 for c in ("E", "F", "G")})
        for argv, code in ((["verify-minding", "--catalog", "half_plane_pseudosphere", "--n", "17"], 0),
                           (["verify-minding", "--catalog", "one_soliton", "--n", "65"], 0),
                           (["verify-minding", "--catalog", "sphere_patch", "--n", "33"], 3),
                           (["verify-minding", "--catalog", "flat_plane", "--n", "33"], 3),
                           (["flatten", "--catalog", "flat_plane", "--n", "33"], 0),
                           (["verify-minding", "--metric-file", str(metric_file), "--n", "65"], 3)):
            loaded = scipy_loaded(f"from minding_lab.cli import main\nassert main({argv!r}) == {code}")
            assert not loaded, (argv, sorted(loaded))


def part_ring_blocks(factor, s, p):
    """The ring blocks of part ``p`` of stack ``s`` as one array, stored or
    rebuilt, read through ``Cholesky.ring_blocks``."""
    return np.concatenate([Y for *_, Y in factor.ring_blocks(s, p)])


def elimination_order_solve(factor, b):
    """``factor.solve`` as it ran with the unknowns renumbered in
    elimination order, each stack's own nodes one slice of ``x``, and
    each stack's triangles and ring products applied to all of its
    fronts at once."""
    order = np.concatenate([own.ravel() for own, *_ in factor.stacks])
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    at = np.cumsum([0] + [own.size for own, *_ in factor.stacks])
    stacks = [(slice(at[g], at[g + 1]), factor._inverse(g, slice(0, stack[0].shape[1])),
               [(fronts, where[ring], part_ring_blocks(factor, g, p))
                for p, (fronts, ring, _) in enumerate(stack[3])])
              for g, stack in enumerate(factor.stacks)]
    x = np.asarray(b, dtype=complex)[order]
    for own, X, parts in stacks:
        y = x[own].reshape(X.shape[1], -1)
        y[:] = (X @ y.T[..., None])[..., 0].T
        for fronts, ring, Y in parts:
            v = Y.transpose(0, 2, 1) @ y[:, fronts].T.conj()[..., None]
            np.subtract.at(x, ring.ravel(), v.conj().ravel())
    for own, X, parts in reversed(stacks):
        y = x[own].reshape(X.shape[1], -1)
        for fronts, ring, Y in parts:
            y[:, fronts] -= (Y @ x[ring][..., None])[..., 0].T
        y[:] = (X.transpose(0, 2, 1) @ y.T.conj()[..., None])[..., 0].T.conj()
    out = np.empty_like(x)
    out[order] = x
    return out


def one_soliton_system(n):
    """The flatten system of the one_soliton catalog metric at ``n``."""
    g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, n, n)
    X, Y = g.mesh()
    F = np.cos(4.0 * np.arctan(np.exp(X + Y)))
    metric = MetricField(g, np.ones(g.shape), F, np.ones(g.shape))
    return conformal.NormalEquations.assemble(*conformal._triangle_rows(metric))


class TestNestedDissection:
    """``elliptic.splu`` against a dense solve of the same stencil."""

    @staticmethod
    def random_stencil(nx, ny, seed):
        rng = np.random.default_rng(seed)

        def coupling(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        east, north, northeast = coupling(ny, nx - 1), coupling(ny - 1, nx), coupling(ny - 1, nx - 1)
        weight = np.zeros((ny, nx))
        for a, into in ((east, np.s_[:, :-1]), (east, np.s_[:, 1:]), (north, np.s_[:-1]),
                        (north, np.s_[1:]), (northeast, np.s_[:-1, :-1]),
                        (northeast, np.s_[1:, 1:])):
            weight[into] += np.abs(a)
        # diagonally dominant, so positive definite, by a random margin
        diag = weight + rng.uniform(0.05, 2.0, size=(ny, nx))
        return elliptic.Stencil(diag, east, north, northeast)

    @staticmethod
    def dense(H):
        ny, nx = H.diag.shape
        idx = np.arange(nx * ny).reshape(ny, nx)
        K = np.diag(H.diag.ravel()).astype(complex)
        for a, b, v in ((idx[:, :-1], idx[:, 1:], H.east), (idx[:-1], idx[1:], H.north),
                        (idx[:-1, :-1], idx[1:, 1:], H.northeast)):
            K[a.ravel(), b.ravel()] = v.ravel()
            K[b.ravel(), a.ravel()] = np.conj(v).ravel()
        return K

    @staticmethod
    def straddling_runs(nx, ny):
        """Children whose ring, read counter-clockwise, runs from the last
        of their parent's own slots straight into its first ring slot or
        back: one run of consecutive slots that the own/ring boundary
        cuts."""
        levels = elliptic._dissect(nx, ny)
        found = 0
        for (region, own, kids), (below, _, _) in zip(levels, levels[1:]):
            for p in np.flatnonzero(kids[:, 0] >= 0):
                i0, i1, j0, j1 = own[p]
                m = (i1 - i0) * (j1 - j0)
                own_nodes = (np.arange(j0, j1)[:, None] * nx + np.arange(i0, i1)).ravel()
                front = np.concatenate([own_nodes, elliptic._frame(region[p], nx, ny)])
                slot = {node: at for at, node in enumerate(front.tolist())}
                for c in kids[p]:
                    at = [slot[node] for node in elliptic._frame(below[c], nx, ny).tolist()]
                    found += any({a, b} == {m - 1, m} for a, b in zip(at, at[1:]))
        return found

    @pytest.mark.parametrize("nx, ny, seed", [(23, 17, 0), (17, 23, 1), (40, 6, 2), (1, 30, 3),
                                              (12, 9, 4)])
    def test_solve_matches_dense(self, nx, ny, seed):
        H = self.random_stencil(nx, ny, seed)
        if (nx, ny) == (23, 17):
            assert len(elliptic._dissect(nx, ny)) >= 5  # separators at four depths
        if (nx, ny) == (12, 9):
            # a kernel that adds in only the triangles a parent reads must
            # cut such a run at the boundary, or drop half of it
            assert self.straddling_runs(nx, ny) >= 1
        b = [1.0, 1j] @ np.random.default_rng(seed + 10).normal(size=(2, nx * ny))
        want = np.linalg.solve(self.dense(H), b)
        got = elliptic.splu(H).solve(b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def stencil_matvec(H, x):
        """``H x`` from the four stencil arrays, the entries back conjugated."""
        x = x.reshape(H.diag.shape)
        y = H.diag * x
        for a, ahead, back in ((H.east, np.s_[:, 1:], np.s_[:, :-1]),
                               (H.north, np.s_[1:], np.s_[:-1]),
                               (H.northeast, np.s_[1:, 1:], np.s_[:-1, :-1])):
            y[back] += a * x[ahead]
            y[ahead] += np.conj(a) * x[back]
        return y.ravel()

    def test_solve_reaches_the_stencil_residual(self):
        # complex couplings in all three directions: a back entry taken
        # unconjugated, from the wrong row or from the wrong front's
        # translate leaves a residual far above rounding
        H = self.random_stencil(23, 17, 11)
        assert all(np.abs(a.imag).min() > 0 for a in (H.east, H.north, H.northeast))
        b = [1.0, 1j] @ np.random.default_rng(12).normal(size=(2, H.diag.size))
        x = elliptic.splu(H).solve(b)
        assert np.max(np.abs(self.stencil_matvec(H, x) - b)) <= 1e-12 * np.max(np.abs(b))

    def test_stencil_arrays_are_views_of_one_block(self):
        H = self.random_stencil(7, 5, 13)
        assert H.entries.shape == (4, 5, 7)
        for a in (H.diag, H.east, H.north, H.northeast):
            assert np.shares_memory(a, H.entries)
        diag = H.diag.copy()
        diag[2, 3] = 9.0
        G = replace(H, diag=diag)
        assert G.entries[0, 2, 3] == 9.0 and H.entries[0, 2, 3] != 9.0
        assert np.array_equal(G.east, H.east) and np.shares_memory(G.east, G.entries)

    def test_stored_entries_count_each_front_once(self):
        # 5 x 4 nodes: the middle column (4 nodes, no ring) over two 2 x 4
        # leaves, each ringed by that column; a front stores the lower
        # triangle of its own block and its ring rows
        factor = elliptic.splu(self.random_stencil(5, 4, 5))
        assert factor.L.nnz == factor.U.nnz == 2 * (8 * 9 // 2 + 8 * 4) + 4 * 5 // 2

    @pytest.mark.parametrize("nx, ny", [(5, 4), (23, 17)])
    def test_stored_blocks_take_the_counted_bytes(self, nx, ny):
        # the inverse triangles, with no zeros above their diagonals, and
        # the ring blocks, stored or a leaf's rebuilt, are all a factor
        # has of its fronts
        factor = elliptic.splu(self.random_stencil(nx, ny, 5))
        stored = sum(packed.nbytes for _, _, packed, _ in factor.stacks)
        ring = [part_ring_blocks(factor, s, p) for s, stack in enumerate(factor.stacks)
                for p in range(len(stack[3]))]
        assert any(not isinstance(Y, np.ndarray) for *_, parts in factor.stacks
                   for _, _, Y in parts)
        assert stored + sum(Y.nbytes for Y in ring) == 16 * factor.L.nnz

    @pytest.mark.parametrize("system", ["random", "one_soliton"])
    def test_rebuilt_ring_blocks_are_bitwise_the_factored_ones(self, monkeypatch, system):
        # a leaf's ring block, as the factorization formed it with the
        # strided ring columns of its frontal matrix, against the one
        # ring_blocks rebuilds from a contiguous gather of them
        H = self.random_stencil(29, 19, 3) if system == "random" else one_soliton_system(129)
        formed = []
        factor_shape = elliptic._factor_shape

        def capture(*args):
            *args, Y = args
            if Y is None:
                _, own, ring, shift = args[:4]
                Y = np.empty((len(shift), len(own), len(ring)), dtype=complex)
                formed.append(Y)
            return factor_shape(*args, Y)

        monkeypatch.setattr(elliptic, "_factor_shape", capture)
        factor = elliptic.splu(H)
        rebuilt = [part_ring_blocks(factor, s, p) for s, (*_, parts) in enumerate(factor.stacks)
                   for p, (_, _, Y) in enumerate(parts) if not isinstance(Y, np.ndarray)]
        rebuilt, formed = (np.concatenate([Y.ravel() for Y in a]) for a in (rebuilt, formed))
        assert len(rebuilt) == len(formed) > 0
        assert np.array_equal(rebuilt, formed)

    @pytest.mark.parametrize("system", ["random", "one_soliton"])
    def test_solve_bitwise_equal_to_elimination_order_solve(self, system):
        H = self.random_stencil(23, 17, 7) if system == "random" else one_soliton_system(65)
        b = [1.0, 1j] @ np.random.default_rng(8).normal(size=(2, H.diag.size))
        factor = elliptic.splu(H)
        assert np.array_equal(factor.solve(b), elimination_order_solve(factor, b))

    def test_indefinite_stencil_raises(self):
        H = self.random_stencil(23, 17, 6)
        diag = H.diag.copy()
        diag[8, 11] = -1.0
        with pytest.raises(EllipticError, match="non-positive pivot"):
            elliptic.splu(replace(H, diag=diag))


class TestBootstrapEquivalence:
    def test_half_plane_solution_accepted(self):
        g = half_plane_grid(65)
        _, Y = g.mesh()
        assert bootstrap_equivalence(ScalarField(g, -np.log(Y))) <= 20 * g.h**2

    def test_disk_solution_accepted(self):
        g = disk_square_grid(65)
        X, Y = g.mesh()
        assert bootstrap_equivalence(ScalarField(g, disk_factor(X, Y))) <= 20 * g.h**2

    def test_zero_field_rejected_with_torsion_gap(self):
        # lap w = 1 with zero boundary: the gap is the torsion-function
        # max of the unit square, 0.073668 at this resolution (own-solver
        # value; Richardson over 129/257 gives 0.0736714)
        g = Grid2D.from_bounds(0, 1, 0, 1, 129, 129)
        u = ScalarField(g, np.zeros(g.shape))
        gap = bootstrap_equivalence(u)
        assert gap == pytest.approx(0.0736678, abs=1e-5)
        assert gap == pytest.approx(0.0737, abs=2e-4)

    def test_agrees_with_weak_residual_verdict(self):
        # the two "is a solution" notions agree on both verdicts
        g = half_plane_grid(65)
        _, Y = g.mesh()
        good = ScalarField(g, -np.log(Y))
        assert bootstrap_equivalence(good) <= 20 * g.h**2
        assert liouville_weak_residual(good, bump_lattice(g)).max_abs() <= 10 * g.h**2
        flat = ScalarField(g, np.zeros(g.shape))
        assert bootstrap_equivalence(flat) >= 0.05
        assert liouville_weak_residual(flat, bump_lattice(g)).max_abs() >= 0.1

    def test_nan_candidate_rejected(self):
        g = half_plane_grid(33)
        vals = np.zeros(g.shape)
        vals[0, 0] = np.nan
        with pytest.raises(GridError):
            bootstrap_equivalence(ScalarField(g, vals))
