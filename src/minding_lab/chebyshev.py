"""Chebyshev nets in asymptotic coordinates.

An angle field theta with 0 < theta < pi determines a candidate surface
whose parameter curves are unit-speed asymptotic lines meeting at angle
theta: first fundamental form dx^2 + 2 cos(theta) dx dy + dy^2, second
form 2 sin(theta) dx dy.  Such a surface exists exactly when theta
solves the sine-Gordon equation theta_xy = sin(theta), and then its
Gauss curvature is identically -1.

The frame W = (f_x, f_y, N) satisfies W_x = W A and W_y = W B where the
columns of A express (f_xx, f_xy, N_x), and those of B express
(f_yx, f_yy, N_y), in the basis (f_x, f_y, N).  Each matrix holds five
distinct scalars and four zeros; one slot table per direction places
the five in their entries.  ``integrate_frame`` reconstructs W and f
from theta by fourth-order line integration.  Its coefficients travel
as the five scalars per node and midpoint, and the 3 x 3 is placed for
each line step only, so no full-grid matrix array is ever built.  The
frame is never projected back onto its Gram matrix: RK4 drift is of
truncation order and smooth over the grid, which keeps the residuals
differenced from the surface at second order.

The line march is shared: ``_sweep_lines`` marches one sweep order from
one base node, the line through it both ways and then every line across
it, with one RK4 stepper, ``_rk4_line``, and yields the states a grid
line at a time.  ``_sweep`` stores them in one state array; a path
residual streams the other order against that array, so it never holds
a second one.  The frame's state is (W | f), f as a fourth column of W,
and the surface's fields are views of it; ``developing`` marches its
ODE through the same kernel with its own state, rate and coefficients.
An ``AngleField`` is a ``ScalarField`` that also checks 0 < theta < pi;
``sine_gordon_residual`` returns a plain array of the interior nodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .grid import (
    Grid2D,
    GridError,
    ScalarField,
    SolverError,
    VectorField3,
    _frozen,
    fd_partial,
    interior_abs_max,
)
from .forms import FrameField

__all__ = [
    "SingularAngleError",
    "AngleField",
    "ChebyshevSurface",
    "FrameIntegrationResult",
    "CorollaryReport",
    "one_soliton_angle",
    "sine_gordon_residual",
    "adapted_initial_frame",
    "integrate_frame",
    "corollary_conditions",
]

SIN_THETA_FLOOR = 1e-6


class SingularAngleError(SolverError, ValueError):
    """sin(theta) fell below the floor; the net degenerates there."""


class AngleField(ScalarField):
    """Net angle samples, strictly inside (0, pi)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        v = self.values
        if not ((v > 0.0).all() and (v < np.pi).all()):
            raise GridError("angle field must satisfy 0 < theta < pi at every node")


@dataclass(frozen=True)
class ChebyshevSurface:
    """Immersion f, unit normal N, and the net angle on one grid."""

    f: VectorField3
    N: VectorField3
    theta: AngleField

    def __post_init__(self) -> None:
        self.f.grid.require_matches(self.N.grid)
        self.f.grid.require_matches(self.theta.grid)

    @property
    def grid(self) -> Grid2D:
        return self.f.grid


@dataclass(frozen=True)
class FrameIntegrationResult:
    """Synthesized surface plus sweep-order diagnostics.

    ``path_residual_f`` and ``path_residual_frame`` are max-norm
    differences between the x-then-y and y-then-x sweeps; for a
    compatible angle field both shrink at second order, for an
    incompatible one they stay O(1) and must not be ignored.  Whether
    theta solves the sine-Gordon equation is ``sine_gordon_residual``'s
    to measure and the caller's to judge.
    """

    surface: ChebyshevSurface
    frame: FrameField  # columns f_x, f_y, N per node
    path_residual_f: float
    path_residual_frame: float


def one_soliton_angle(grid: Grid2D) -> AngleField:
    """Single-soliton angle 4*arctan(exp(x + y)).

    Solves the sine-Gordon equation exactly; stays inside (0, pi) for
    x + y < 0, so grids should keep x + y below about -0.1 to leave
    sin(theta) room.
    """
    return AngleField.from_function(grid, lambda x, y: 4.0 * np.arctan(np.exp(x + y)))


def sine_gordon_residual(theta: AngleField) -> np.ndarray:
    """theta_xy - sin(theta) on interior nodes, shape ``(ny - 2, nx - 2)``.

    The mixed difference is central there; the boundary ring's one-sided
    stencils are left out.
    """
    g = theta.grid
    theta_xy = fd_partial(fd_partial(theta.values, g, "x"), g, "y")
    return theta_xy[1:-1, 1:-1] - np.sin(theta.values[1:-1, 1:-1])


# Each connection matrix holds five scalars per sample, in this order:
# (theta_d cot(theta), -theta_d / sin(theta), cot(theta), -1 / sin(theta),
# sin(theta)), with theta_d = theta_x for A and theta_y for B: the
# Christoffel symbols of E = G = 1, F = cos(theta) and the shape operator
# of the asymptotic second form (off-diagonal coefficient sin(theta)).
# The slot table gives the (rows, columns) they take in A ("x") and in
# B ("y"); the other four entries are zero.
_SLOTS = {
    "x": ((0, 1, 0, 1, 2), (0, 0, 2, 2, 1)),
    "y": ((1, 0, 1, 0, 2), (1, 1, 2, 2, 0)),
}


def _place(pack: np.ndarray, slots: tuple) -> np.ndarray:
    """3 x 3 matrices holding ``pack``'s last axis at ``slots``, zero elsewhere."""
    M = np.zeros(pack.shape[:-1] + (3, 3))
    M[(...,) + slots] = pack
    return M


def _pack(theta, theta_d) -> np.ndarray:
    """The five connection scalars per sample, shape ``theta.shape + (5,)``."""
    theta = np.asarray(theta, dtype=float)
    sin = np.sin(theta)
    if np.abs(sin).min() < SIN_THETA_FLOOR:
        raise SingularAngleError(
            f"sin(theta) reaches {np.abs(sin).min():.3e}; net is singular"
        )
    cos = np.cos(theta)
    cot = cos / sin
    inv = 1.0 / sin
    return np.stack((theta_d * cot, -theta_d * inv, cot, -inv, sin), axis=-1)


def adapted_initial_frame(theta0: float) -> np.ndarray:
    """Frame at the origin: f_x = e1, f_y at angle theta0 in the plane.

    Columns satisfy |f_x| = |f_y| = |N| = 1, <f_x, f_y> = cos(theta0),
    N orthogonal to both, and f_x x f_y = sin(theta0) N.
    """
    return np.array(
        [
            [1.0, np.cos(theta0), 0.0],
            [0.0, np.sin(theta0), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _interp_midpoints(values: np.ndarray, axis: int) -> np.ndarray:
    """Fourth-order midpoint interpolation of samples along ``axis``.

    Standard 4-point formula (-1, 9, 9, -1)/16 inside; cubic one-sided
    (5, 15, -5, 1)/16 at the two ends.  Dtype-preserving, so complex
    coefficient lines can ride the same stencils.
    """
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    if n < 4:
        raise GridError("need at least 4 samples per line for midpoint interpolation")
    mid = np.empty((n - 1,) + v.shape[1:], dtype=v.dtype)
    mid[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    mid[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
    mid[-1] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
    return np.moveaxis(mid, 0, axis)


def _rk4_line(Y, step, rate, c_nodes, c_mids):
    """Classical RK4 march of Y' = rate(Y, C(t)) along a line of samples.

    ``Y`` is the state at the first node; ``c_nodes`` and ``c_mids``
    hold the coefficient C at the n nodes and the n - 1 midpoints of
    the line, line parameter first.  Yields the state at nodes 1 to
    n - 1 in turn, so the caller stores it where it belongs.
    """
    for C0, Cm, C1 in zip(c_nodes[:-1], c_mids, c_nodes[1:]):
        k1 = rate(Y, C0)
        k2 = rate(Y + 0.5 * step * k1, Cm)
        k3 = rate(Y + 0.5 * step * k2, Cm)
        k4 = rate(Y + step * k3, C1)
        Y = Y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield Y


def _march_out(start, base, step, rate, nodes, mids):
    """March m parallel lines from node ``base`` to both of their ends.

    ``start`` is the state of the m lines at ``base``, shape (m, ...);
    ``nodes`` and ``mids`` give the coefficient at the n nodes and n - 1
    midpoints, line parameter first.  Yields ``(k, state at node k)``,
    the forward half first; the backward half runs on reversed
    coefficients with the step negated.
    """
    for h, way, c_nodes, c_mids in (
        (step, 1, nodes[base:], mids[base:]),
        (-step, -1, nodes[base::-1], mids[:base][::-1]),
    ):
        for k, Y in enumerate(_rk4_line(start, h, rate, c_nodes, c_mids), 1):
            yield base + way * k, Y


def _sweep_lines(start, base, lines, x_first):
    """One sweep order from the state ``start`` at ``base`` = (j, i),
    yielded grid line by grid line and never held whole.

    ``lines``: per direction, x then y, the rate, the coefficient at the
    (ny, nx) nodes and at the midpoints along that direction, and the
    step.  The line through the base is marched both ways, along x
    (``x_first``) or y, and yielded; then every line across it marches
    out from it, all at once, and each line of nodes parallel to the
    first is yielded as the march reaches it.  Yields ``(k, states)``:
    the state at row k (``x_first``) or column k, node by node along it.
    """
    jb, ib = base
    (rate_x, nodes_x, mids_x, dx), (rate_y, nodes_y, mids_y, dy) = lines
    swap = partial(np.moveaxis, source=1, destination=0)
    # x-lines through transposed coefficients, so every march runs along axis 0
    x_march = (ib, dx, rate_x, swap(nodes_x), swap(mids_x))
    y_march = (jb, dy, rate_y, nodes_y, mids_y)
    seed, across, at = (x_march, y_march, jb) if x_first else (y_march, x_march, ib)
    b, step, rate, nodes, mids = seed
    # the seed line as one line of the march, shape (n, 1, ...)
    line = np.empty((nodes.shape[0], 1) + start.shape, dtype=start.dtype)
    line[b, 0] = start
    seed_at = slice(at, at + 1)
    for k, Y in _march_out(line[b], b, step, rate, nodes[:, seed_at], mids[:, seed_at]):
        line[k] = Y
    yield at, line[:, 0]
    yield from _march_out(line[:, 0], *across)


def _sweep(out, base, lines, x_first):
    """Fill the per-node state array ``out``, shape (ny, nx, ...) and
    already set at ``base``, in the sweep order ``_sweep_lines`` marches."""
    rows = out if x_first else np.moveaxis(out, 1, 0)
    for k, states in _sweep_lines(out[base], base, lines, x_first):
        rows[k] = states


def _frame_rate(slots, col, Y, C):
    """(W | f)' = (W M, W[:, col]) for the frame with f as a fourth column,
    M the connection matrix placed at ``slots`` from the five scalars
    ``C`` of this line step."""
    return np.concatenate((Y[..., :3] @ _place(C, slots), Y[..., col:col + 1]), axis=-1)


def _line_connections(theta_vals, tx, ty, grid):
    """``_sweep``'s lines for the frame, built once for both orders: per
    direction (x, then y) the frame rate, the five connection scalars at
    the nodes and at the midpoints along that direction, and the step."""

    def along(name, theta_d, axis, col, step):
        # x runs along array axis 1, y along axis 0
        mids = (_interp_midpoints(v, axis) for v in (theta_vals, theta_d))
        return (partial(_frame_rate, _SLOTS[name], col), _pack(theta_vals, theta_d),
                _pack(*mids), step)

    return [along("x", tx, 1, 0, grid.dx), along("y", ty, 0, 1, grid.dy)]


def integrate_frame(theta: AngleField) -> FrameIntegrationResult:
    """Synthesize a surface from an angle field.

    Starts from the adapted frame and f = 0 at the first node, and
    integrates W' = W A along the first x-line and W' = W B up every
    column with classical fourth-order steps (theta and its partials
    are interpolated to midpoints at matching order).  The sweeps carry
    A and B as their five scalars per node and midpoint, and each step
    places its 3 x 3 from them.  The returned surface comes from the
    x-then-y sweep, and its fields share that sweep's state; the
    discrepancy against the y-then-x sweep, taken column by column as
    that sweep runs, is reported so that an incompatible angle field
    cannot slip through silently.  Raises ``SingularAngleError`` where
    sin(theta) falls below the floor at a node or at an interpolated
    midpoint.
    """
    grid = theta.grid
    theta_vals = theta.values
    lines = _line_connections(theta_vals, fd_partial(theta_vals, grid, "x"),
                              fd_partial(theta_vals, grid, "y"), grid)

    # (W | f): the frame with f as a fourth column, x-then-y
    state = np.empty(grid.shape + (3, 4))
    state[0, 0, :, :3] = adapted_initial_frame(float(theta_vals[0, 0]))
    state[0, 0, :, 3] = 0.0
    _sweep(state, (0, 0), lines, True)
    # the y-then-x sweep, column by column against the stored one
    path_f = path_frame = -np.inf
    columns = np.moveaxis(state, 1, 0)
    for i, states in _sweep_lines(state[0, 0], (0, 0), lines, False):
        diff = np.abs(columns[i] - states)
        path_f = np.maximum(path_f, diff[..., 3].max())
        path_frame = np.maximum(path_frame, diff[..., :3].max())
    del lines

    # the fields are views of the frozen state, not copies
    state = _frozen(state)
    surface = ChebyshevSurface(
        f=VectorField3(grid, state[..., 3]),
        N=VectorField3(grid, state[..., 2]),
        theta=theta,
    )
    return FrameIntegrationResult(
        surface=surface,
        frame=FrameField(grid, state[..., :3]),
        path_residual_f=float(path_f),
        path_residual_frame=float(path_frame),
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Interior max-norms of the unit-speed asymptotic-net conditions.

    A surface whose asymptotic lines are unit-speed and whose normal
    satisfies the stated first-order system has Gauss curvature -1;
    these are the computable residuals of that characterization.
    """

    normal_wave: float        # |N_xy - cos(theta) N|
    fx_from_normal: float     # |f_x - N x N_x|
    fy_from_normal: float     # |f_y + N x N_y|
    fx_unit: float            # ||f_x| - 1|
    fy_unit: float            # ||f_y| - 1|
    angle_consistency: float  # |<f_x, f_y> - cos(theta)|

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def max_residual(self) -> float:
        return max(self.as_dict().values())


def corollary_conditions(surface: ChebyshevSurface) -> CorollaryReport:
    """Residuals of the constant-curvature characterization, by FD."""
    grid = surface.grid
    f = surface.f.values
    N = surface.N.values
    cos = np.cos(surface.theta.values)

    f_x = fd_partial(f, grid, "x")
    f_y = fd_partial(f, grid, "y")
    N_x = fd_partial(N, grid, "x")
    N_y = fd_partial(N, grid, "y")
    N_xy = fd_partial(N_x, grid, "y")

    # vector residuals are reported through their Euclidean length per
    # node so the numbers are invariant under rigid motions
    res_wave = np.linalg.norm(N_xy - cos[:, :, None] * N, axis=2)
    res_fx = np.linalg.norm(f_x - np.cross(N, N_x), axis=2)
    res_fy = np.linalg.norm(f_y + np.cross(N, N_y), axis=2)
    res_ux = np.linalg.norm(f_x, axis=2) - 1.0
    res_uy = np.linalg.norm(f_y, axis=2) - 1.0
    res_angle = np.einsum("jki,jki->jk", f_x, f_y) - cos

    return CorollaryReport(
        normal_wave=interior_abs_max(res_wave),
        fx_from_normal=interior_abs_max(res_fx),
        fy_from_normal=interior_abs_max(res_fy),
        fx_unit=interior_abs_max(res_ux),
        fy_unit=interior_abs_max(res_uy),
        angle_consistency=interior_abs_max(res_angle),
    )
