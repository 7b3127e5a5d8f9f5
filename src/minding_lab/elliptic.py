"""Dirichlet solves on the grid rectangle, and the grid's sparse Cholesky.

Three layers: a fast Poisson solve for the five-point Laplacian with
eliminated boundary rows, a damped Newton iteration for the exponential
curvature equation ``lap u = exp(2u)``, and a uniqueness cross-check
that feeds a candidate back through the linear solve and measures the
mismatch.

All three run on numpy alone.  The type-I sine transform diagonalizes
the eliminated Laplacian (Buzbee, Golub & Nielson 1970), so a Poisson
solve is one transform pair plus a second that corrects by the stencil
residual of the first, and the residual is gated in max norm.  Newton
starts from the harmonic extension of the boundary data, solved by one
transform pair, and applies the Laplacian with the five-point stencil
of ``grid.fd_laplacian``.  Each Newton step runs conjugate gradients
on the symmetric positive definite system ``(-lap + diag(s)) delta = F``
with ``s = 2 exp(2u)``, preconditioned by ``(-lap + c I)^-1`` applied
with one sine transform pair (Concus & Golub 1973).  With
``c = sqrt(min s * max s)`` the preconditioned condition number is at most
``(lam0 + max s) / (lam0 + min s) <= max s / min s``, ``lam0`` being the
smallest eigenvalue of ``-lap``, whatever the grid size.  The step
budget follows from that bound, and a solve that exhausts it raises.

The sine transforms are numpy real FFTs of the odd extension.  ``splu``
is the package's one sparse factorization, used by the flatten: a
nested-dissection Cholesky of a Hermitian 7-point ``Stencil``, factored
as stacks of dense fronts with numpy's batched LAPACK and matrix
products.  ``perfbench/spantrace.py`` wraps it and ``conformal.spsolve``
by these names and reads their ``nnz`` counts.  Everything is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grid import Grid2D, GridError, ScalarField, fd_laplacian

__all__ = [
    "EllipticError",
    "Stencil",
    "splu",
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


def _laplacian_spectrum(grid: Grid2D) -> np.ndarray:
    """Eigenvalues of ``-A``, shape ``(ny - 2, nx - 2)``.

    ``A`` is the five-point Laplacian on the interior unknowns in C
    order (x fastest), Dirichlet rows eliminated.  The type-I sine
    transform diagonalizes it; entry ``[j, i]`` belongs to sine mode
    ``(i + 1, j + 1)``, so ``[0, 0]`` is the smallest eigenvalue.
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

    With a zero ring this is ``A @ interior`` (``A`` as in
    ``_laplacian_spectrum``); with the Dirichlet data it adds the
    eliminated boundary terms.
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


@dataclass(frozen=True)
class Stencil:
    """Hermitian matrix on the 7-point stencil of an ``ny x nx`` grid.

    Node ``(j, i)`` is unknown ``j * nx + i``.  It couples to itself, to
    ``(j, i +- 1)`` and ``(j +- 1, i)``, and to ``(j + 1, i + 1)`` and
    ``(j - 1, i - 1)``: the edges of a grid whose cells are split along
    their main diagonal.  ``diag`` holds the real diagonal; ``east``,
    ``north`` and ``northeast`` hold the entry from each node to its
    neighbour one step ahead along x, along y and along both.  The entries
    back are their conjugates.
    """

    diag: np.ndarray  # (ny, nx)
    east: np.ndarray  # (ny, nx - 1): (j, i) -> (j, i + 1)
    north: np.ndarray  # (ny - 1, nx): (j, i) -> (j + 1, i)
    northeast: np.ndarray  # (ny - 1, nx - 1): (j, i) -> (j + 1, i + 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.size, self.diag.size)

    @property
    def nnz(self) -> int:
        """Nonzero entries of the matrix; a coupling and its conjugate are two."""
        return int(np.count_nonzero(self.diag)) + 2 * sum(
            int(np.count_nonzero(a)) for a in (self.east, self.north, self.northeast))

    def _columns(self) -> np.ndarray:
        """``(7, N)`` entries of each row toward its neighbour at each of
        ``_OFFSETS``; zero where the neighbour is off the grid."""
        ny, nx = self.diag.shape
        v = np.zeros((7, ny, nx), dtype=complex)
        v[0] = self.diag
        v[1, :, :-1] = self.east
        v[2, :, 1:] = np.conj(self.east)
        v[3, :-1] = self.north
        v[4, 1:] = np.conj(self.north)
        v[5, :-1, :-1] = self.northeast
        v[6, 1:, 1:] = np.conj(self.northeast)
        return v.reshape(7, -1)


# (dj, di) of the seven stencil entries, in the order of Stencil._columns
_OFFSETS = np.array([(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)])
# most nodes in a leaf of the dissection: larger leaves store more fill
_LEAF = 16
# complex entries of the frontal matrices factored as one stack
_STACK = 1 << 20


def _dissect(nx: int, ny: int) -> list[tuple[np.ndarray, ...]]:
    """Nested dissection of the ``ny x nx`` grid by grid lines, root first.

    One entry per depth: per front, its region and the rectangle of the
    nodes it eliminates, both ``(i0, i1, j0, j1)`` rows of a ``(k, 4)``
    array, and the positions of its two children at the next depth.  A
    region of at most ``_LEAF`` nodes is a leaf and eliminates itself.  A
    larger one eliminates the middle line across its longer side, which
    no stencil edge crosses, and leaves the two halves as its children.
    """
    levels = []
    region = np.array([[0, nx, 0, ny]])
    while len(region):
        i0, i1, j0, j1 = region.T
        split = np.flatnonzero((i1 - i0) * (j1 - j0) > _LEAF)
        lo = np.where((i1 - i0)[split] >= (j1 - j0)[split], 0, 2)  # columns of the cut axis
        mid = (region[split, lo] + region[split, lo + 1]) // 2
        own = region.copy()
        own[split, lo], own[split, lo + 1] = mid, mid + 1
        kids = np.full((len(region), 2), -1)
        kids[split] = np.arange(len(split))[:, None] + [0, len(split)]
        levels.append((region, own, kids))
        first, second = region[split], region[split].copy()
        first[np.arange(len(split)), lo + 1] = mid
        second[np.arange(len(split)), lo] = mid + 1
        region = np.concatenate([first, second])
    return levels


def _layout(region: np.ndarray, own: np.ndarray, nx: int, ny: int):
    """Nodes of one front: those it eliminates, row by row, then its ring.

    The ring is the grid nodes outside the region that share a stencil
    edge with it: the region's frame less its top-left and bottom-right
    corners, which the diagonal edges miss.  It runs counter-clockwise
    from the corner below left, so that a child's ring meets its
    parent's front in a few runs of consecutive slots.
    """
    i0, i1, j0, j1 = (int(v) for v in region)
    w, h = i1 - i0, j1 - j0
    ri = np.concatenate([np.arange(i0 - 1, i1), np.full(h + 1, i1),
                         np.arange(i1 - 1, i0 - 1, -1), np.full(h, i0 - 1)])
    rj = np.concatenate([np.full(w + 1, j0 - 1), np.arange(j0, j1 + 1),
                         np.full(w, j1), np.arange(j1 - 1, j0 - 1, -1)])
    inside = (ri >= 0) & (ri < nx) & (rj >= 0) & (rj < ny)
    oi0, oi1, oj0, oj1 = own
    return ((np.arange(oj0, oj1)[:, None] * nx + np.arange(oi0, oi1)).ravel(),
            (rj * nx + ri)[inside])


def _runs(slots: np.ndarray) -> list[tuple[slice, slice]]:
    """Cut a map from positions to slots into runs of slots one apart,
    rising or falling: ``(slots, positions)`` slice pairs."""
    runs, start = [], 0
    while start < len(slots):
        end, step = start + 1, 1
        if end < len(slots) and abs(slots[end] - slots[start]) == 1:
            step = int(slots[end] - slots[start])
            while end < len(slots) and slots[end] - slots[end - 1] == step:
                end += 1
        first, stop = int(slots[start]), int(slots[start]) + step * (end - start)
        runs.append((slice(first, stop if stop >= 0 else None, step), slice(start, end)))
        start = end
    return runs


@dataclass(frozen=True)
class Cholesky:
    """``H = L L^H`` front by front.

    Each stack holds, for fronts of one shape, the nodes each eliminates
    ``(k, m)``, its ring ``(k, b)``, the inverse of its diagonal Cholesky
    block ``(k, m, m)`` and its ring rows ``L21`` ``(k, b, m)``.  ``L.nnz``
    counts the entries stored per front, the lower triangle of its
    diagonal block and its ring rows; ``U = L^H`` shares them.
    """

    stacks: tuple
    L: SimpleNamespace
    U: SimpleNamespace

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``H^-1 b``: forward through the stacks in elimination order,
        then back."""
        x = np.array(b, dtype=complex)
        for own, ring, inverse, L21 in self.stacks:
            y = (inverse @ x[own][..., None])[..., 0]
            x[own] = y
            np.subtract.at(x, ring, (L21 @ y[..., None])[..., 0])
        for own, ring, inverse, L21 in reversed(self.stacks):
            t = x[own] - (x[ring].conj()[:, None, :] @ L21)[:, 0, :].conj()
            x[own] = (t.conj()[:, None, :] @ inverse)[:, 0, :].conj()
        return x


def splu(H: Stencil) -> Cholesky:
    """Cholesky factor of a Hermitian positive definite ``Stencil`` by
    nested dissection (George, SIAM J. Numer. Anal. 10, 1973).

    ``_dissect`` cuts the grid by grid lines down to leaves of at most
    ``_LEAF`` nodes.  Each front eliminates its own nodes, a separator
    line or a whole leaf, in a dense frontal matrix over them and its
    ring: its stencil entries plus the Schur complements its two
    children leave on their rings.  A partial Cholesky step then leaves
    the front's own Schur complement on its ring for its parent.

    Fronts are factored deepest first, in stacks of one shape: the same
    region size and the same grid sides cut off its ring.  Such fronts
    are translates, so the first of them gives the stack's stencil
    pattern and where its children's Schur complements land, as runs of
    consecutive slots added in by slices.  A non-positive pivot raises
    ``EllipticError``.
    """
    ny, nx = H.diag.shape
    columns = H._columns()
    stacks, stored, below = [], 0, None
    for region, own_rect, kids in reversed(_dissect(nx, ny)):
        i0, i1, j0, j1 = region.T
        shape = np.column_stack([i1 - i0, j1 - j0, i0 == 0, i1 == nx, j0 == 0, j1 == ny])
        _, kind = np.unique(shape, axis=0, return_inverse=True)
        row, left = np.zeros(len(region), dtype=int), []
        for k in range(kind.max() + 1):
            fronts = np.flatnonzero(kind == k)
            row[fronts] = np.arange(len(fronts))
            own, ring = _layout(region[fronts[0]], own_rect[fronts[0]], nx, ny)
            shift = region[fronts, 0] + region[fronts, 2] * nx
            schur = np.empty((len(fronts), len(ring), len(ring)), dtype=complex)
            stacks += _factor_shape(columns, nx, own, ring, (shift - shift[0])[:, None], schur,
                                    [_landing(below, kids[fronts, c], own, ring, nx)
                                     for c in (0, 1)] if kids[fronts[0], 0] >= 0 else [])
            stored += len(fronts) * (len(own) * (len(own) + 1) // 2 + len(own) * len(ring))
            left.append((schur, ring))
        below = region, kind, row, left
    entries = SimpleNamespace(nnz=stored)
    return Cholesky(tuple(stacks), entries, entries)


def _landing(below, kids: np.ndarray, own: np.ndarray, ring: np.ndarray, nx: int):
    """The Schur complements one child of each of a stack of parents
    left, their rows, and where they land in the parents' frontal
    matrices as ``_runs``.

    ``below`` is the depth of the children once factored: regions, the
    shape of each and its row in that shape's stack, and per shape the
    Schur complements with the ring of its first front.  ``own`` and
    ``ring`` are the first parent's nodes; the parents are translates, so
    their children are too and share one shape.
    """
    region, kind, row, left = below
    schur, kid_ring = left[kind[kids[0]]]
    moved = region[kids[0]] - region[np.flatnonzero(kind == kind[kids[0]])[0]]
    front = np.concatenate([own, ring])
    order = np.argsort(front)
    at = order[np.searchsorted(front[order], kid_ring + moved[0] + moved[2] * nx)]
    return schur, row[kids], _runs(at)


def _factor_shape(columns, nx, own, ring, shift, schur, merges) -> list[tuple]:
    """Factor a stack of translated fronts, ``_STACK`` entries at a time.

    ``own`` and ``ring`` are the first front's nodes, ``shift`` each
    front's node offset from it.  Fills ``schur`` with what each front
    leaves on its ring, and returns the factor's stacks.
    """
    N = columns.shape[1]
    m, b = len(own), len(ring)
    front = np.concatenate([own, ring])
    order = np.argsort(front)
    # stencil entries of the own rows; those toward a child's nodes were
    # added in by the child's front and have no slot here
    qj, qi = own // nx + _OFFSETS[:, :1], own % nx + _OFFSETS[:, 1:]
    q = np.where((qj >= 0) & (qj < N // nx) & (qi >= 0) & (qi < nx), qj * nx + qi, -1)
    at = np.minimum(np.searchsorted(front[order], q), m + b - 1)
    d, a = np.nonzero((q >= 0) & (front[order][at] == q))
    into, source = a * (m + b) + order[at[d, a]], d * N + own[a]
    stacks = []
    size = max(1, _STACK // (m + b) ** 2)
    for start in range(0, len(shift), size):
        part = slice(start, start + size)
        F = np.zeros((len(shift[part]), m + b, m + b), dtype=complex)
        F.reshape(len(F), -1)[:, into] = columns.take(source + shift[part])
        for child_schur, rows, runs in merges:
            rows = rows[part]
            S = (child_schur[rows[0]:rows[-1] + 1]
                 if rows[-1] - rows[0] == len(rows) - 1 else child_schur[rows])
            for into_r, from_r in runs:
                for into_c, from_c in runs:
                    F[:, into_r, into_c] += S[:, from_r, from_c]
        try:
            L11 = np.linalg.cholesky(F[:, :m, :m])
        except np.linalg.LinAlgError as exc:
            raise EllipticError("Cholesky factorization met a non-positive pivot") from exc
        inverse = np.linalg.inv(L11)
        Y = inverse @ F[:, :m, m:]
        L21 = np.ascontiguousarray(Y.conj().transpose(0, 2, 1))
        np.matmul(L21, Y, out=schur[part])
        np.subtract(F[:, m:, m:], schur[part], out=schur[part])
        stacks.append((own + shift[part], ring + shift[part], inverse, L21))
    return stacks


def solve_poisson(p: DirichletProblem) -> ScalarField:
    """Solve ``lap w = rhs`` with the given boundary ring.

    One sine transform pair solves the eliminated system and a second
    one corrects by the stencil residual of the first.  The returned
    field carries the boundary data verbatim.  The discrete stencil
    residual of the solution is checked against ``_POISSON_TOL`` in max
    norm; a solve that cannot reach it raises.
    """
    g, bd = p.grid, p.boundary
    spectrum = _laplacian_spectrum(g)
    rhs = p.rhs.values[1:-1, 1:-1].ravel()
    w_int = _dst_solve(spectrum, 0.0, _interior_laplacian(g, bd, np.zeros(rhs.size)) - rhs)
    w_int += _dst_solve(spectrum, 0.0, _interior_laplacian(g, bd, w_int) - rhs)
    worst = float(np.max(np.abs(_interior_laplacian(g, bd, w_int) - rhs)))
    if not worst <= _POISSON_TOL:  # a NaN residual fails too
        raise EllipticError(
            f"discrete residual {worst:.3e} exceeds tolerance {_POISSON_TOL:.3e}"
        )
    w = np.array(bd, dtype=float)
    w[1:-1, 1:-1] = w_int.reshape(g.ny - 2, g.nx - 2)
    return ScalarField(g, w)


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


# a Poisson solve raises unless its max-norm stencil residual is under this
_POISSON_TOL = 1e-10
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
