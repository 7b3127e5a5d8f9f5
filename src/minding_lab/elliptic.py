"""Dirichlet solves on the grid rectangle.

Three layers: a direct five-point Poisson solve with eliminated
boundary rows, a damped Newton iteration for the exponential curvature
equation ``lap u = exp(2u)``, and a uniqueness cross-check that feeds a
candidate back through the linear solve and measures the mismatch.

Poisson solves are sparse-direct (``splu`` plus two refinement passes),
so the cross-check is a second, independent method.  Newton runs on
numpy alone.  It starts from the harmonic extension of the boundary
data, solved by one type-I sine transform pair, and applies the
Laplacian with the five-point stencil of ``grid.fd_laplacian``.  Each
Newton step runs conjugate gradients on the symmetric positive definite
system ``(-lap + diag(s)) delta = F`` with ``s = 2 exp(2u)``,
preconditioned by ``(-lap + c I)^-1`` applied with one sine transform
pair (Concus & Golub 1973).  With ``c = sqrt(min s * max s)`` the
preconditioned condition number is at most
``(lam0 + max s) / (lam0 + min s) <= max s / min s``, ``lam0`` being the
smallest eigenvalue of ``-lap``, whatever the grid size.  The step
budget follows from that bound, and a solve that exhausts it raises.

The sine transforms are numpy real FFTs of the odd extension.
``scipy.sparse`` is imported by ``_laplacian_matrix`` and
``scipy.sparse.linalg`` by ``splu``, the two places that build and
factor the sparse matrix: loading them costs more than a whole Newton
solve at n = 257.  Everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid2D, GridError, ScalarField, fd_laplacian

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "EllipticError",
    "DirichletProblem",
    "LiouvilleSolution",
    "solve_poisson",
    "solve_liouville_newton",
    "bootstrap_equivalence",
]


class EllipticError(RuntimeError):
    """Solver breakdown or failure to converge."""


def boundary_array(grid: Grid2D, data) -> np.ndarray:
    """Full ``(ny, nx)`` array carrying Dirichlet data on its outer ring.

    ``data`` may be a callable of node coordinates, a scalar, an array of
    grid shape, or a ScalarField on the same grid.  Interior entries of
    the result are filled too but never read by the solvers.
    """
    if isinstance(data, ScalarField):
        if not data.grid.matches(grid):
            raise GridError("boundary data lives on a different grid")
        values = np.array(data.values, dtype=float)
    elif callable(data):
        X, Y = grid.mesh()
        values = np.broadcast_to(np.asarray(data(X, Y), dtype=float), grid.shape).copy()
    else:
        values = np.broadcast_to(np.asarray(data, dtype=float), grid.shape).copy()
    ring = np.concatenate(
        [values[0, :], values[-1, :], values[1:-1, 0], values[1:-1, -1]]
    )
    if not np.isfinite(ring).all():
        raise GridError("boundary values must be finite on the outer ring")
    return values


@dataclass(frozen=True)
class DirichletProblem:
    """Poisson data on a grid: source term plus boundary-ring values.

    ``rhs`` is read on interior nodes only, so derived fields with a NaN
    boundary ring are accepted.  ``boundary`` is read on the ring only.
    """

    grid: Grid2D
    rhs: ScalarField
    boundary: np.ndarray

    def __post_init__(self) -> None:
        if not self.rhs.grid.matches(self.grid):
            raise GridError("rhs lives on a different grid")
        if not np.isfinite(self.rhs.values[1:-1, 1:-1]).all():
            raise GridError("rhs must be finite on interior nodes")
        object.__setattr__(self, "boundary", boundary_array(self.grid, self.boundary))

    @classmethod
    def from_functions(cls, grid: Grid2D, rhs, boundary) -> "DirichletProblem":
        if not isinstance(rhs, ScalarField):
            if callable(rhs):
                rhs = ScalarField.from_function(grid, rhs)
            else:
                rhs = ScalarField(grid, np.full(grid.shape, float(rhs)))
        return cls(grid, rhs, boundary_array(grid, boundary))


def _laplacian_matrix(grid: Grid2D) -> sp.csc_matrix:
    # interior unknowns in C order (x fastest), Dirichlet rows eliminated
    import scipy.sparse as sp

    inx, iny = grid.nx - 2, grid.ny - 2
    tx = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(inx, inx)) / grid.dx**2
    ty = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(iny, iny)) / grid.dy**2
    return (sp.kron(sp.eye(iny), tx) + sp.kron(ty, sp.eye(inx))).tocsc()


def _laplacian_spectrum(grid: Grid2D) -> np.ndarray:
    """Eigenvalues of ``-_laplacian_matrix(grid)``, shape ``(ny - 2, nx - 2)``.

    The type-I sine transform diagonalizes the eliminated five-point
    Laplacian; entry ``[j, i]`` belongs to sine mode ``(i + 1, j + 1)``,
    so ``[0, 0]`` is the smallest eigenvalue.
    """

    def one_d(m: int, step: float) -> np.ndarray:
        # of the stencil -[1, -2, 1] / step**2 on m interior nodes
        return (2.0 * np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1))) / step) ** 2

    return one_d(grid.ny - 2, grid.dy)[:, None] + one_d(grid.nx - 2, grid.dx)[None, :]


def _dst1(a: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized type-I sine transform of ``a`` along ``axis``.

    ``y_k = 2 sum_j a_j sin(pi (j + 1)(k + 1) / (m + 1))``, scipy's
    ``dst(type=1)``: the real FFT of the odd extension
    ``(0, a, 0, -a reversed)`` is ``-i y`` at frequencies 1 to m.  The
    transform is its own inverse up to the factor ``2 (m + 1)``.
    """
    m = a.shape[axis]
    ext = np.zeros(a.shape[:axis] + (2 * (m + 1),) + a.shape[axis + 1:])
    line, a = np.swapaxes(ext, 0, axis), np.swapaxes(a, 0, axis)
    line[1:m + 1] = a
    line[m + 2:] = -a[::-1]
    y = np.swapaxes(np.fft.rfft(ext, axis=axis), 0, axis)[1:m + 1]
    return np.swapaxes(-y.imag, 0, axis)


def _dst_solve(spectrum: np.ndarray, c: float, b: np.ndarray) -> np.ndarray:
    """Solve ``(c I - A) x = b`` by one sine transform pair; needs ``c >= 0``."""
    my, mx = spectrum.shape
    coef = _dst1(_dst1(b.reshape(spectrum.shape), 1), 0) / (spectrum + c)
    return (_dst1(_dst1(coef, 1), 0) / (4.0 * (mx + 1) * (my + 1))).ravel()


def _interior_laplacian(grid: Grid2D, ring: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """``lap`` on interior nodes, raveled, of the field that carries
    ``ring`` on its boundary and the raveled ``interior`` inside.

    With a zero ring this is ``_laplacian_matrix(grid) @ interior``; with
    the Dirichlet data it adds the eliminated boundary terms.
    """
    full = np.array(ring, dtype=float)
    full[1:-1, 1:-1] = interior.reshape(grid.ny - 2, grid.nx - 2)
    return fd_laplacian(ScalarField(grid, full)).values[1:-1, 1:-1].ravel()


# relative accuracy of each Newton step, in the preconditioned residual
# norm; far below what the quadratic tail needs from a linear solve
_CG_RTOL = 1e-10


def _pcg_budget(kappa: float, rtol: float) -> int:
    """CG steps that reach ``rtol`` when the condition number is ``kappa``.

    The energy error falls by ``2 q**k`` with ``q = (r - 1) / (r + 1)``,
    ``r = sqrt(kappa)``, and ``log(1 / q) >= 2 / r``; the preconditioned
    residual norm is within a factor ``r`` of the energy error.
    """
    r = math.sqrt(kappa)
    return math.ceil(0.5 * r * math.log(2.0 * r / rtol)) + 1


def _pcg(matvec, b: np.ndarray, precondition, rtol: float, budget: int) -> np.ndarray:
    """Preconditioned conjugate gradients from zero for an SPD ``matvec``.

    Stops once the preconditioned residual norm ``sqrt(r . M^-1 r)`` has
    fallen by ``rtol``; raises if ``budget`` steps do not get there.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    stop = rtol**2 * rz
    for _ in range(budget):
        q = matvec(p)
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        if rz <= stop:
            return x
        p = z + (rz / rz_old) * p
    raise EllipticError(
        f"Newton linear solve: conjugate gradients did not converge in {budget} steps"
    )


def _eliminated_rhs(p: DirichletProblem) -> np.ndarray:
    g = p.grid
    b = np.array(p.rhs.values[1:-1, 1:-1], dtype=float)
    bd = p.boundary
    b[0, :] -= bd[0, 1:-1] / g.dy**2
    b[-1, :] -= bd[-1, 1:-1] / g.dy**2
    b[:, 0] -= bd[1:-1, 0] / g.dx**2
    b[:, -1] -= bd[1:-1, -1] / g.dx**2
    return b.ravel()


def splu(A, **options):
    """``scipy.sparse.linalg.splu(A, **options)``, the module loaded on
    first use: only the Poisson solve factors a matrix."""
    from scipy.sparse.linalg import splu as factor

    return factor(A, **options)


def _direct_solve(lu, A: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    sol = lu.solve(rhs)
    # two refinement passes push the algebraic residual well under the
    # acceptance gate even on 257^2 grids where plain splu is marginal
    for _ in range(2):
        sol = sol + lu.solve(rhs - A @ sol)
    if not np.isfinite(sol).all():
        raise EllipticError("linear solver breakdown: non-finite solution")
    return sol


def _assemble_field(p: DirichletProblem, interior: np.ndarray) -> ScalarField:
    out = np.array(p.boundary, dtype=float)
    out[1:-1, 1:-1] = interior.reshape(p.grid.ny - 2, p.grid.nx - 2)
    return ScalarField(p.grid, out)


def solve_poisson(p: DirichletProblem, residual_tol: float = 1e-10) -> ScalarField:
    """Solve ``lap w = rhs`` with the given boundary ring.

    The returned field carries the boundary data verbatim.  The discrete
    stencil residual of the solution is checked against ``residual_tol``
    in max norm; a direct solve that cannot reach it raises.
    """
    A = _laplacian_matrix(p.grid)
    try:
        lu = splu(A)
    except RuntimeError as exc:
        raise EllipticError(f"linear solver breakdown: {exc}") from exc
    w = _assemble_field(p, _direct_solve(lu, A, _eliminated_rhs(p)))
    res = fd_laplacian(w).values[1:-1, 1:-1] - p.rhs.values[1:-1, 1:-1]
    worst = float(np.max(np.abs(res)))
    if worst > residual_tol:
        raise EllipticError(
            f"discrete residual {worst:.3e} exceeds tolerance {residual_tol:.3e}"
        )
    return w


@dataclass(frozen=True)
class LiouvilleSolution:
    """Converged Newton iterate with its residual history.

    ``residuals[k]`` is the max-norm of ``lap u - exp(2u)`` at iterate
    ``k``; entry 0 belongs to the harmonic initial guess and the last
    entry to the returned field, so ``iterations == len(residuals) - 1``.
    """

    u: ScalarField
    iterations: int
    residuals: tuple[float, ...]


def _liouville_residual(grid: Grid2D, bd: np.ndarray, u_int: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _interior_laplacian(grid, bd, u_int) - np.exp(2.0 * u_int)


# Newton stops once the max-norm Liouville residual is under this
_NEWTON_TOL = 1e-8
# step halvings a Newton step may take before the damping gives up
_MAX_HALVINGS = 10


def solve_liouville_newton(grid: Grid2D, boundary, *,
                           max_iterations: int = 50) -> LiouvilleSolution:
    """Newton iteration for ``lap u = exp(2u)`` with Dirichlet data.

    Starts from the harmonic extension of the boundary values, solved
    by one sine transform pair; its residual is ``residuals[0]`` and is
    not gated on its own.  Each step solves the linearized problem with
    the shifted operator ``lap - 2 exp(2u)``; the shift has the good
    sign, so the linear solves stay well posed, and they are done by
    sine-transform preconditioned conjugate gradients.  Steps are halved (at most
    ``_MAX_HALVINGS`` times) until the residual decreases; exhausted
    damping, an exhausted conjugate-gradient budget or hitting
    ``max_iterations`` raises with the cause attached.
    """
    bd = boundary_array(grid, boundary)
    zero = np.zeros(grid.shape)
    spectrum = _laplacian_spectrum(grid)
    lam0 = float(spectrum[0, 0])
    # boundary elimination terms: A @ u_int + b_elim == lap u on interior
    b_elim = _interior_laplacian(grid, bd, zero[1:-1, 1:-1])
    u_int = _dst_solve(spectrum, 0.0, b_elim)

    F = _liouville_residual(grid, bd, u_int)
    res = float(np.max(np.abs(F)))
    history = [res]
    iterations = 0
    while res > _NEWTON_TOL:
        if iterations >= max_iterations:
            raise EllipticError(
                f"Newton did not converge in {max_iterations} iterations; "
                f"last residual {res:.3e}"
            )
        with np.errstate(over="ignore"):
            shift = 2.0 * np.exp(2.0 * u_int)
        if not np.isfinite(shift).all():
            raise EllipticError(
                f"Newton iterate overflowed exp(2u); last residual {res:.3e}"
            )
        # against -lap + c I with lo <= c <= hi, the system's Rayleigh
        # quotients lie in [(lam0 + lo) / (lam0 + c), (lam0 + hi) / (lam0 + c)]
        lo, hi = float(shift.min()), float(shift.max())
        c = math.sqrt(lo * hi)
        delta = _pcg(lambda p: shift * p - _interior_laplacian(grid, zero, p), F,
                     lambda r: _dst_solve(spectrum, c, r),
                     _CG_RTOL, _pcg_budget((lam0 + hi) / (lam0 + lo), _CG_RTOL))

        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = u_int + step * delta
            F_try = _liouville_residual(grid, bd, trial)
            res_try = float(np.max(np.abs(F_try)))
            if np.isfinite(res_try) and res_try < res:
                break
            step *= 0.5
        else:
            raise EllipticError(
                f"Newton step damping exhausted after {_MAX_HALVINGS} halvings; "
                f"residual stuck at {res:.3e}"
            )
        u_int, F, res = trial, F_try, res_try
        history.append(res)
        iterations += 1

    out = np.array(bd, dtype=float)
    out[1:-1, 1:-1] = u_int.reshape(grid.ny - 2, grid.nx - 2)
    return LiouvilleSolution(ScalarField(grid, out), iterations, tuple(history))


def bootstrap_equivalence(u: ScalarField) -> float:
    """Mismatch between ``u`` and the Poisson resolvent of its own data.

    Solves ``lap w = exp(2u)`` with ``w = u`` on the boundary ring and
    returns ``max |w - u|`` over interior nodes.  For a genuine solution
    of the curvature equation the two agree to discretization error;
    for anything else the gap is order one.
    """
    if not np.isfinite(u.values).all():
        raise GridError("candidate field must be finite everywhere")
    rhs = ScalarField(u.grid, np.exp(2.0 * u.values))
    w = solve_poisson(DirichletProblem(u.grid, rhs, u.values))
    return float(np.max(np.abs(w.values[1:-1, 1:-1] - u.values[1:-1, 1:-1])))
