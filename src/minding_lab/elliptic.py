"""Dirichlet solves on the grid rectangle, and the grid's sparse Cholesky.

Three layers: a fast Poisson solve for the five-point Laplacian with
eliminated boundary rows, a damped Newton iteration for the exponential
curvature equation ``lap u = exp(2u)``, and a uniqueness cross-check
that feeds a candidate back through the linear solve and measures the
mismatch.

All three run on numpy alone.  The type-I sine transform diagonalizes
the eliminated Laplacian (Buzbee, Golub & Nielson 1970), so a Poisson
solve is one transform pair plus a second that corrects by the stencil
residual of the first; its normwise backward error is gated at a
multiple of the unit roundoff, which any grid size can meet (Rigal &
Gaches 1967; Higham, *Accuracy and Stability*, ch. 7).  Newton starts
from the harmonic extension of the boundary data, solved by one
transform pair, and applies the Laplacian through the five-point
kernel of ``grid.fd_laplacian``, which passes a non-finite trial step
on to the damping.  Each Newton step runs conjugate gradients
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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .grid import Grid2D, GridError, ScalarField, SolverError, _samples, bands, fd_laplacian

__all__ = [
    "EllipticError",
    "Stencil",
    "splu",
    "LiouvilleSolution",
    "solve_poisson",
    "solve_liouville_newton",
    "bootstrap_equivalence",
]


class EllipticError(SolverError, RuntimeError):
    """Solver breakdown or failure to converge."""


def boundary_array(grid: Grid2D, data) -> np.ndarray:
    """Full ``(ny, nx)`` array carrying Dirichlet data on its outer ring.

    ``data`` is an array of grid shape.  Interior entries of the result
    are copied too but never read by the solvers.
    """
    values = np.array(data, dtype=float)
    if values.shape != grid.shape:
        raise GridError(f"boundary data must have shape {grid.shape}, got {values.shape}")
    ring = np.concatenate(
        [values[0, :], values[-1, :], values[1:-1, 0], values[1:-1, -1]]
    )
    if not np.isfinite(ring).all():
        raise GridError("boundary values must be finite on the outer ring")
    return values


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
    return fd_laplacian(full, grid).ravel()


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
    back are their conjugates.  All four are views of one complex
    ``(4, ny, nx)`` block, ``entries``, whose plane ``s`` holds at node
    ``(j, i)`` the entry of stencil slot ``s`` that the node owns, so
    ``splu`` gathers a front's entries from it in one take.
    """

    diag: np.ndarray  # (ny, nx)
    east: np.ndarray  # (ny, nx - 1): (j, i) -> (j, i + 1)
    north: np.ndarray  # (ny - 1, nx): (j, i) -> (j + 1, i)
    northeast: np.ndarray  # (ny - 1, nx - 1): (j, i) -> (j + 1, i + 1)
    entries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ny, nx = np.shape(self.diag)
        entries = np.zeros((4, ny, nx), dtype=complex)
        entries[0] = self.diag
        entries[1, :, :-1] = self.east
        entries[2, :-1] = self.north
        entries[3, :-1, :-1] = self.northeast
        for name, view in zip(("entries", "diag", "east", "north", "northeast"),
                              (entries, entries[0].real, entries[1, :, :-1], entries[2, :-1],
                               entries[3, :-1, :-1])):
            object.__setattr__(self, name, view)

    @property
    def nnz(self) -> int:
        """Nonzero entries of the matrix; a coupling and its conjugate are two."""
        return int(np.count_nonzero(self.diag)) + 2 * sum(
            int(np.count_nonzero(a)) for a in (self.east, self.north, self.northeast))


# (dj, di) of the seven stencil entries of a row: itself, then the three
# ahead, whose entries the row's node owns in planes 1-3 of
# Stencil.entries, then the three back, the conjugates of the entries
# their neighbours own in the same planes
_OFFSETS = np.array([(0, 0), (0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1)])
_PLANES = np.array([0, 1, 2, 3, 1, 2, 3])
# most nodes in a leaf of the dissection: larger leaves store more fill
_LEAF = 16
# complex entries of the frontal matrices factored as one band
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


def _frame(region: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Ring of a region: the grid nodes outside it that share a stencil
    edge with it, which is the region's frame less its top-left and
    bottom-right corners, the ones the diagonal edges miss; listed
    counter-clockwise from the corner below left."""
    i0, i1, j0, j1 = (int(v) for v in region)
    w, h = i1 - i0, j1 - j0
    ri = np.concatenate([np.arange(i0 - 1, i1), np.full(h + 1, i1),
                         np.arange(i1 - 1, i0 - 1, -1), np.full(h, i0 - 1)])
    rj = np.concatenate([np.full(w + 1, j0 - 1), np.arange(j0, j1 + 1),
                         np.full(w, j1), np.arange(j1 - 1, j0 - 1, -1)])
    inside = (ri >= 0) & (ri < nx) & (rj >= 0) & (rj < ny)
    return (rj * nx + ri)[inside]


def _plan(nx: int, ny: int) -> list[tuple]:
    """``_dissect``'s fronts grouped into stacks of translates, root first.

    Every ring node lies on the separator of one ancestor of the front,
    and ``owner`` holds each node's depth.  A front's ring is sorted by
    that depth, shallowest first, then by node.  A child's ring then
    lists its parent's ring nodes in the parent's order and ends with
    the parent's own nodes in theirs: the lower triangle of the child's
    Schur complement lands in exactly the lower ``F11``, the ``F12`` and
    the lower ``F22`` of the parent's frontal matrix, the triangles the
    parent reads, and nothing in ``F21``.  The nodes of one owner are a
    segment of the ring, which lands in consecutive slots of the parent.
    The Schur complement is kept in two panels of rows, split at the
    segment bound nearest the middle, each running to its last column.

    Fronts are translates when their regions have one size, the same
    grid sides cut off their rings and their ring nodes' owners come in
    the same order; one stack holds them, in the order of their parents'
    stacks and rows.  One entry per depth: the region origins, each
    front's stack and row in it, the children, and per stack its
    fronts, the first front's own nodes and sorted ring, and the ring's
    segment and panel bounds.
    """
    levels = _dissect(nx, ny)
    owner = np.empty(nx * ny, dtype=int)
    for depth, (_, own, _) in enumerate(levels):
        i0, i1, j0, j1 = own.T
        size = (i1 - i0) * (j1 - j0)
        k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        w = np.repeat(i1 - i0, size)
        owner[(np.repeat(j0, size) + k // w) * nx + np.repeat(i0, size) + k % w] = depth
    plan, parent = [], np.zeros((1, 3), dtype=int)  # parent stack, role, parent row
    for region, own_rect, kids in levels:
        i0, i1, j0, j1 = region.T
        origin = j0 * nx + i0
        # size, and the grid sides that cut off the ring, as one number
        shape = (((i1 - i0) * (ny + 1) + j1 - j0) * 16
                 + (i0 == 0) + 2 * (i1 == nx) + 4 * (j0 == 0) + 8 * (j1 == ny))
        _, by_shape = np.unique(shape, return_inverse=True)
        kind, frames = np.empty(len(region), dtype=int), []
        for s in range(by_shape.max() + 1):
            fronts = np.flatnonzero(by_shape == s)
            ring = _frame(region[fronts[0]], nx, ny) - origin[fronts[0]]
            depth = owner[ring + origin[fronts, None]]
            # the order of the owners' depths sets the ring order; they
            # change only where a side or a corner starts, at most six
            # places, and the comparisons there, as bits, make an exact key
            depth = depth[:, np.flatnonzero(np.diff(depth, axis=1, prepend=-1).any(axis=0))]
            below = (depth[:, :, None] < depth[:, None, :]).reshape(len(fronts), -1)
            _, sub = np.unique(below @ (1 << np.arange(below.shape[1])), return_inverse=True)
            kind[fronts] = len(frames) + sub
            frames += [ring] * (sub.max() + 1)
        order = np.lexsort((parent[:, 2], parent[:, 1], parent[:, 0], kind))
        row = np.empty(len(region), dtype=int)
        stacks = []
        for fronts in np.split(order, np.flatnonzero(np.diff(kind[order])) + 1):
            row[fronts] = np.arange(len(fronts))
            oi0, oi1, oj0, oj1 = own_rect[fronts[0]]
            ring = frames[kind[fronts[0]]] + origin[fronts[0]]
            ring = ring[np.lexsort((ring, owner[ring]))]
            bounds = [0, *(np.flatnonzero(np.diff(owner[ring])) + 1).tolist(), len(ring)]
            halves = sorted({0, min(bounds, key=lambda v: abs(2 * v - len(ring))), len(ring)})
            own = (np.arange(oj0, oj1)[:, None] * nx + np.arange(oi0, oi1)).ravel()
            stacks.append((fronts, own, ring, bounds, halves))
        plan.append((origin, kind, row, kids, stacks))
        split = np.flatnonzero(kids[:, 0] >= 0)
        parent = np.column_stack([np.tile(kind[split], 2), np.repeat([0, 1], len(split)),
                                  np.tile(row[split], 2)])
    return plan


@dataclass(frozen=True)
class Cholesky:
    """``H = L L^H`` front by front, in the grid's own numbering.

    Each stack holds the fronts of one depth that eliminate ``m`` nodes,
    and their grid numbers as a C-contiguous ``(m, k)`` index array, one
    column per front.  Per front it stores the lower triangle of
    ``L11^-1``, the inverse of its diagonal Cholesky block, packed row by
    row as one column of ``(m (m + 1) / 2, k)``; ``lower``, the flat
    index of that triangle in an ``m x m`` square, is shared by every
    stack of the same ``m``, and ``_inverse`` unpacks a band of fronts
    to squares for each product.  Per ring size ``b``, a part of the
    stack holds the ring's grid numbers ``(k, b)`` and the ring block
    ``Y = L11^-1 F12 = L21^H`` ``(k, m, b)``.  A leaf's ``F12`` holds
    only stencil entries, so a part of leaves keeps instead, per stack
    of translates, the gather of them from ``entries``, the
    ``Stencil``'s block, and ``ring_blocks`` rebuilds its ``Y`` by the
    product the factorization ran (8.0 of the 45.2 MiB the one_soliton
    factor held at n = 257).  ``L.nnz`` counts every block, stored or
    rebuilt, without zeros; ``U = L^H`` shares them.
    """

    stacks: tuple
    L: SimpleNamespace
    U: SimpleNamespace
    entries: np.ndarray

    def _inverse(self, s: int, c: slice) -> np.ndarray:
        """``L11^-1`` of the fronts ``c`` of stack ``s`` as ``(c, m, m)``
        squares, zero above the diagonal, unpacked from its triangles."""
        own, lower, packed, _ = self.stacks[s]
        X = np.zeros((c.stop - c.start, len(own) ** 2), dtype=complex)
        X[:, lower] = packed[:, c].T
        return X.reshape(len(X), len(own), len(own))

    def ring_blocks(self, s: int, p: int):
        """Part ``p`` of stack ``s`` in ``grid.bands`` of fronts, in front
        order: per band, its slice of the stack, its rows in the part and
        their ring blocks, a view of the stored ones or a leaf's rebuilt.
        A front with ``m`` own nodes and ``b`` ring nodes counts the
        ``m + b`` values the solve gathers for it, or the ``m b`` entries
        of ``Y`` it rebuilds."""
        stack = self.stacks[s]
        fronts, ring, Y = part = stack[3][p]
        m, b = len(stack[0]), ring.shape[1]
        stored = isinstance(Y, np.ndarray)
        for at in bands(fronts.stop - fronts.start, m + b if stored else m * b):
            c = slice(fronts.start + at.start, fronts.start + at.stop)
            yield c, at, Y[at] if stored else self._rebuild(s, part, c, at)

    def _rebuild(self, s: int, part, c: slice, at: slice) -> np.ndarray:
        """Ring blocks of the leaves ``c`` of stack ``s``, rows ``at`` of
        its part, by the product ``_factor_shape`` formed them with:
        ``L11^-1`` from the stored inverse times ``F12`` gathered from
        ``entries`` by the stacks of translates that cover ``at``."""
        own, (fronts, ring, kinds) = self.stacks[s][0], part
        m, b = len(own), ring.shape[1]
        F = np.zeros((c.stop - c.start, m * b), dtype=complex)
        for lo, hi, src, into, back in kinds[bisect_right(kinds, at.start, key=lambda k: k[0]) - 1:]:
            if lo >= at.stop:
                break
            lo, hi = max(lo, at.start), min(hi, at.stop)
            values = self.entries.take(src + own[0, fronts.start + lo:fronts.start + hi, None])
            np.conjugate(values[:, back:], out=values[:, back:])
            F[lo - at.start:hi - at.start, into] = values
        return np.matmul(self._inverse(s, c), F.reshape(len(F), m, b))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``H^-1 b``: forward through the stacks in elimination order,
        then back.  Each stack applies its triangles, and each of its
        parts its ring products, in ``grid.bands`` of fronts in front
        order, so only band-sized temporaries are held; the ring products
        are scattered into ``x`` in the order the fronts come.  A band
        gathers its own nodes and writes them back after its step.  Its
        triangles are unpacked to ``m x m`` squares, ``m^2`` entries a
        front, and applied as ``X y`` forward and as ``conj(X^T conj(y))``
        back, ``X^T`` a transposed view."""
        x = np.array(b, dtype=complex)
        for s, (own, *_, parts) in enumerate(self.stacks):
            for c in bands(own.shape[1], len(own) ** 2):
                x[own[:, c]] = (self._inverse(s, c) @ x[own[:, c]].T[..., None])[..., 0].T
            for p, (_, ring, _) in enumerate(parts):
                for c, at, Y in self.ring_blocks(s, p):
                    v = Y.transpose(0, 2, 1) @ x[own[:, c]].T.conj()[..., None]
                    np.subtract.at(x, ring[at].ravel(), v.conj().ravel())
        for s in reversed(range(len(self.stacks))):
            own, *_, parts = self.stacks[s]
            for p, (_, ring, _) in enumerate(parts):
                for c, at, Y in self.ring_blocks(s, p):
                    x[own[:, c]] -= (Y @ x[ring[at]][..., None])[..., 0].T
            for c in bands(own.shape[1], len(own) ** 2):
                y = x[own[:, c]].T.conj()[..., None]
                x[own[:, c]] = (self._inverse(s, c).transpose(0, 2, 1) @ y)[..., 0].T.conj()
        return x


def splu(H: Stencil) -> Cholesky:
    """Cholesky factor of a Hermitian positive definite ``Stencil`` by
    nested dissection (George, SIAM J. Numer. Anal. 10, 1973).

    ``_dissect`` cuts the grid by grid lines down to leaves of at most
    ``_LEAF`` nodes.  Each front eliminates its own nodes, a separator
    line or a whole leaf, in a dense frontal matrix over them and its
    ring: its stencil entries plus the Schur complements its two
    children leave on their rings.  A partial Cholesky step then leaves
    the front's own Schur complement on its ring for its parent.  That
    complement is Hermitian, and only its lower triangle, in the ring
    order of ``_plan``, is formed, stored and added in; so the parent
    fills only the triangles it reads.

    Fronts are factored deepest first, in ``_plan``'s stacks of
    translates: the first front gives the stack's stencil pattern and
    where its children's Schur complements land, as blocks of
    consecutive slots added in by slices.  The factor keeps the grid's
    numbering: a stack's own nodes are one ``(m, k)`` index array and
    its rings hold grid numbers.  A non-positive pivot raises
    ``EllipticError``.
    """
    ny, nx = H.diag.shape
    stacks, triangles, stored, below = [], {}, 0, None
    for origin, kind, row, kids, kinds in reversed(_plan(nx, ny)):
        left = [None] * len(kinds)
        # a child stack's panels are dropped once its last parent stack is done
        readers = Counter(below[1][kid] for fronts, *_ in kinds for kid in kids[fronts[0]]
                          if kid >= 0)
        for m in sorted({len(own) for _, own, *_ in kinds}):
            members = [s for s, (_, own, *_) in enumerate(kinds) if len(own) == m]
            if m not in triangles:
                triangles[m] = np.flatnonzero(np.tri(m, dtype=bool))
            lower, count = triangles[m], sum(len(kinds[s][0]) for s in members)
            own_at = np.empty((count, m), dtype=int)
            packed = np.empty((len(lower), count), dtype=complex)
            parts, at = [], 0
            for b in sorted({len(kinds[s][2]) for s in members}):
                group = [s for s in members if len(kinds[s][2]) == b]
                start, count = at, sum(len(kinds[s][0]) for s in group)
                # a part of leaves keeps how to rebuild its ring blocks
                leaves = all(kids[kinds[s][0][0], 0] < 0 for s in group)
                ring_at = np.empty((count, b), dtype=int)
                Y = [] if leaves else np.empty((count, m, b), dtype=complex)
                for s in group:
                    fronts, own, ring, bounds, halves = kinds[s]
                    shift = (origin[fronts] - origin[fronts[0]])[:, None]
                    rows = slice(at, at + len(fronts))
                    local = slice(at - start, at - start + len(fronts))
                    own_at[rows], ring_at[local] = own + shift, ring + shift
                    panels = [np.empty((len(fronts), hi - lo, hi), dtype=complex)
                              for lo, hi in zip(halves[:-1], halves[1:])]
                    children = kids[fronts[0]] if kids[fronts[0], 0] >= 0 else ()
                    gather = _factor_shape(H.entries, own, ring, shift, lower, below, children,
                                           panels, halves, packed[:, rows],
                                           None if leaves else Y[local])
                    if leaves:
                        Y.append((local.start, local.stop, *gather))
                    left[s] = (panels, halves, ring, fronts[0], bounds)
                    for kid in children:
                        readers[below[1][kid]] -= 1
                        if not readers[below[1][kid]]:
                            below[3][below[1][kid]] = None
                    at += len(fronts)
                parts.append((slice(start, at), ring_at, tuple(Y) if leaves else Y))
                stored += count * m * b
            stacks.append((np.ascontiguousarray(own_at.T), lower, packed, parts))
            stored += packed.size
        below = origin, kind, row, left
    entries = SimpleNamespace(nnz=stored)
    return Cholesky(tuple(stacks), entries, entries, H.entries)


def _landing(below, kid: int, found: np.ndarray, order: np.ndarray):
    """Where the Schur complements of one child of each of a stack of
    parents land in the parents' frontal matrices.

    ``below`` is the depth of the children once factored: region
    origins, each front's stack and row, and per stack its Schur
    complement panels with their row bounds, the first front's ring and
    the ring's segment bounds.  ``kid`` is the first parent's child, and
    ``found[i]`` is the first parent's node in slot ``order[i]``; the
    parents are translates, so their children are too and sit in
    consecutive rows of one stack.  Returns the panels, that first row,
    and per pair of ring segments, the later one's rows against the
    earlier one's columns, the panel and the slices it adds from and
    into.
    """
    origin, kind, row, left = below
    panels, halves, kid_ring, first, bounds = left[kind[kid]]
    slots = order[np.searchsorted(found, kid_ring[bounds[:-1]] + origin[kid] - origin[first])]
    segs = [(bisect_right(halves, lo) - 1, lo, hi, at)
            for lo, hi, at in zip(bounds, bounds[1:], slots.tolist())]
    adds = [(p, slice(lo - halves[p], hi - halves[p]), slice(at, at + hi - lo),
             slice(at_c, at_c + hi_c - lo_c), slice(lo_c, hi_c))
            for r, (p, lo, hi, at) in enumerate(segs) for _, lo_c, hi_c, at_c in segs[:r + 1]]
    return panels, row[kid], adds


def _invert_lower(L: np.ndarray) -> np.ndarray:
    """Inverses ``X`` of a stack of lower triangles, by halves, zero
    above the diagonal.  The two diagonal triangles, of orders
    ``h = m // 2`` and ``m - h``, are inverted as one stack, the smaller
    one bordered by a unit diagonal entry, and the block below them is
    ``-X22 L21 X11``.  A triangle of at most 8 rows is inverted one row
    at a time: row ``r`` of ``X`` is ``-L[r, :r] X[:r, :r] / L[r, r]``."""
    k, m, _ = L.shape
    if m <= 8:
        X, d = L.copy(), np.arange(m)
        X[:, d, d] = 1.0 / X[:, d, d]
        for r in d[1:]:
            X[:, r, :r] = (X[:, r, None, :r] @ X[:, :r, :r])[:, 0] * -X[:, r, r, None]
        return X
    h = m // 2
    s = m - h
    diag = np.zeros((2 * k, s, s), dtype=L.dtype)
    diag[:k, s - h:, s - h:] = L[:, :h, :h]
    if s > h:
        diag[:k, 0, 0] = 1.0
    diag[k:] = L[:, h:, h:]
    diag = _invert_lower(diag)
    X = np.zeros_like(L)
    X[:, :h, :h], X[:, h:, h:] = diag[:k, s - h:, s - h:], diag[k:]
    X[:, h:, :h] = -(X[:, h:, h:] @ (L[:, h:, :h] @ X[:, :h, :h]))
    return X


def _factor_shape(entries, own, ring, shift, lower, below, kids, panels, halves, packed, Y) -> tuple:
    """Factor a stack of translated fronts in ``grid.bands`` of ``_STACK``
    frontal entries.

    ``entries`` is the ``Stencil``'s block, ``own`` and ``ring`` are the
    first front's nodes, ``shift`` each front's node offset from it, and
    ``kids`` its children in ``below``, whose Schur complements
    ``_landing`` adds in.  Writes each front's inverse triangle into its
    column of ``packed``, the entries at the flat index ``lower`` of the
    square, its ring block into ``Y``, and the lower triangle of the Schur
    complement it leaves on its ring into ``panels``: the rows between
    two of ``halves``, against every column up to the last of them.
    With ``Y`` None the ring blocks are formed one batch at a time and
    dropped.  Besides its frontal matrix, a step holds only block-sized
    temporaries.  Returns the gather of the ring block's stencil
    entries, as ``Cholesky._rebuild`` reads it.
    """
    _, ny, nx = entries.shape
    m, b = len(own), len(ring)
    front = np.concatenate([own, ring])
    order = np.argsort(front)
    # stencil entries of the own rows; those toward a child's nodes were
    # added in by the child's front and have no slot here.  Of an edge's
    # two nodes the lower-numbered one owns its entry, and the entries
    # back, the last ones found, are conjugated after the gather
    qj, qi = own // nx + _OFFSETS[:, :1], own % nx + _OFFSETS[:, 1:]
    q = np.where((qj >= 0) & (qj < ny) & (qi >= 0) & (qi < nx), qj * nx + qi, -1)
    at = np.minimum(np.searchsorted(front[order], q), m + b - 1)
    d, a = np.nonzero((q >= 0) & (front[order][at] == q))
    into = a * (m + b) + order[at[d, a]]
    source = _PLANES[d] * (ny * nx) + np.minimum(own[a], q[d, a])
    back = np.searchsorted(d, 4)
    merges = [_landing(below, kid, front[order], order) for kid in kids]
    for part in bands(len(shift), (m + b) ** 2, _STACK):
        F = np.zeros((part.stop - part.start, m + b, m + b), dtype=complex)
        values = entries.take(source + shift[part])
        np.conjugate(values[:, back:], out=values[:, back:])
        F.reshape(len(F), -1)[:, into] = values
        for kid_panels, base, adds in merges:
            rows = slice(base + part.start, base + part.stop)
            for p, from_r, into_r, into_c, from_c in adds:
                F[:, into_r, into_c] += kid_panels[p][rows, from_r, from_c]
        try:
            L11 = np.linalg.cholesky(F[:, :m, :m])
        except np.linalg.LinAlgError as exc:
            raise EllipticError("Cholesky factorization met a non-positive pivot") from exc
        X = _invert_lower(L11)
        R = np.matmul(X, F[:, :m, m:], out=None if Y is None else Y[part])
        packed[:, part] = X.reshape(len(X), -1)[:, lower].T
        for panel, lo, hi in zip(panels, halves[:-1], halves[1:]):
            out = panel[part]
            np.matmul(R[:, :, lo:hi].conj().transpose(0, 2, 1), R[:, :, :hi], out=out)
            np.subtract(F[:, m + lo:m + hi, m:m + hi], out, out=out)
    ring_cols = into % (m + b) >= m  # the ring block's entries, laid out (m, b)
    return (source[ring_cols] - own[0], (into // (m + b) * b + into % (m + b) - m)[ring_cols],
            np.count_nonzero(ring_cols[:back]))


def solve_poisson(grid: Grid2D, rhs: np.ndarray, boundary) -> np.ndarray:
    """Solve ``lap w = rhs`` with the given boundary ring; returns ``w``.

    ``rhs`` holds the interior nodes, shape ``(ny - 2, nx - 2)``, as
    ``fd_laplacian`` returns them; ``w`` has grid shape and carries the
    ring of ``boundary`` verbatim.  One sine transform pair solves the
    eliminated system ``A w = b`` and a second corrects by the stencil
    residual ``r`` of the first.  A solve whose backward error
    ``|r| / (|A| |w| + |b|)``, in max norms, exceeds ``_POISSON_TOL`` raises.
    """
    bd = boundary_array(grid, boundary)
    rhs = _samples(rhs, (grid.ny - 2, grid.nx - 2), "rhs").ravel()
    spectrum = _laplacian_spectrum(grid)
    minus_b = _interior_laplacian(grid, bd, np.zeros(rhs.size)) - rhs
    w_int = _dst_solve(spectrum, 0.0, minus_b)
    w_int += _dst_solve(spectrum, 0.0, _interior_laplacian(grid, bd, w_int) - rhs)
    r = float(np.max(np.abs(_interior_laplacian(grid, bd, w_int) - rhs)))
    scale = ((4.0 / grid.dx**2 + 4.0 / grid.dy**2) * float(np.max(np.abs(w_int)))
             + float(np.max(np.abs(minus_b))))
    # zero data has a zero scale and is solved exactly; a NaN fails
    error = r / max(scale, np.finfo(float).tiny)
    if not error <= _POISSON_TOL:
        raise EllipticError(f"backward error {error:.3e} exceeds tolerance {_POISSON_TOL:.3e}")
    bd[1:-1, 1:-1] = w_int.reshape(grid.ny - 2, grid.nx - 2)
    return bd


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
    # a non-finite trial step gives a non-finite residual, which the
    # damping refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return _interior_laplacian(grid, bd, u_int) - np.exp(2.0 * u_int)


# a Poisson solve raises unless its backward error is under this; the catalog
# charts and soliton factors read 0.23-0.32 eps, 0.81-1.77 without the second pass
_POISSON_TOL = 0.5 * np.finfo(float).eps
# Newton stops once the max-norm Liouville residual is under this
_NEWTON_TOL = 1e-8
# step halvings a Newton step may take before the damping gives up
_MAX_HALVINGS = 10
# Newton steps before the iteration gives up
_MAX_ITERATIONS = 50


def solve_liouville_newton(grid: Grid2D, boundary) -> LiouvilleSolution:
    """Newton iteration for ``lap u = exp(2u)`` with Dirichlet data.

    Starts from the harmonic extension of the boundary values, solved
    by one sine transform pair; its residual is ``residuals[0]`` and is
    not gated on its own.  Each step solves the linearized problem with
    the shifted operator ``lap - 2 exp(2u)``; the shift has the good
    sign, so the linear solves stay well posed, and they are done by
    sine-transform preconditioned conjugate gradients.  Steps are halved (at most
    ``_MAX_HALVINGS`` times) until the residual decreases, and a step
    whose residual is not finite is halved too; exhausted damping, an
    exhausted conjugate-gradient budget or ``_MAX_ITERATIONS`` steps
    raise with the cause attached.
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
        if iterations >= _MAX_ITERATIONS:
            raise EllipticError(
                f"Newton did not converge in {_MAX_ITERATIONS} iterations; "
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

    bd[1:-1, 1:-1] = u_int.reshape(grid.ny - 2, grid.nx - 2)
    return LiouvilleSolution(ScalarField(grid, bd), iterations, tuple(history))


def bootstrap_equivalence(u: ScalarField) -> float:
    """Mismatch between ``u`` and the Poisson resolvent of its own data.

    Solves ``lap w = exp(2u)`` with ``w = u`` on the boundary ring and
    returns ``max |w - u|`` over interior nodes.  For a genuine solution
    of the curvature equation the two agree to discretization error;
    for anything else the gap is order one.
    """
    w = solve_poisson(u.grid, np.exp(2.0 * u.values[1:-1, 1:-1]), u.values)
    return float(np.max(np.abs(w[1:-1, 1:-1] - u.values[1:-1, 1:-1])))
