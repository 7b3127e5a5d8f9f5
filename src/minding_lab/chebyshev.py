"""Chebyshev nets in asymptotic coordinates.

An angle field theta with 0 < theta < pi determines a candidate surface
whose parameter curves are unit-speed asymptotic lines meeting at angle
theta: first fundamental form dx^2 + 2 cos(theta) dx dy + dy^2, second
form 2 sin(theta) dx dy.  Such a surface exists exactly when theta
solves the sine-Gordon equation theta_xy = sin(theta), and then its
Gauss curvature is identically -1.

The frame W = (f_x, f_y, N) satisfies W_x = W A and W_y = W B where the
columns of A express (f_xx, f_xy, N_x), and those of B express
(f_yx, f_yy, N_y), in the basis (f_x, f_y, N).  ``integrate_frame``
reconstructs W and f from theta by fourth-order line integration.  The
frame is never projected back onto its Gram matrix: RK4 drift is of
truncation order and smooth over the grid, which keeps the residuals
differenced from the surface at second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    Grid2D,
    GridError,
    ScalarField,
    VectorField3,
    _partial_values,
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
    "constant_angle",
    "sine_gordon_residual",
    "connection_from_samples",
    "chebyshev_connection",
    "adapted_initial_frame",
    "integrate_frame",
    "corollary_conditions",
]

SIN_THETA_FLOOR = 1e-6


class SingularAngleError(ValueError):
    """sin(theta) fell below the floor; the net degenerates there."""


@dataclass(frozen=True)
class AngleField:
    """Net angle samples, strictly inside (0, pi)."""

    theta: ScalarField

    def __post_init__(self) -> None:
        v = self.theta.values
        if not ((v > 0.0).all() and (v < np.pi).all()):
            raise GridError("angle field must satisfy 0 < theta < pi at every node")

    @property
    def grid(self) -> Grid2D:
        return self.theta.grid

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "AngleField":
        return cls(ScalarField.from_function(grid, fn))


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


def constant_angle(grid: Grid2D, value: float) -> AngleField:
    return AngleField.from_function(grid, lambda x, y: np.full_like(x, value))


def sine_gordon_residual(theta: AngleField) -> ScalarField:
    """theta_xy - sin(theta); interior nodes only (boundary ring NaN)."""
    t = theta.theta
    mixed = fd_partial(fd_partial(t, "x"), "y")
    res = mixed.values - np.sin(t.values)
    out = np.full(t.grid.shape, np.nan)
    out[1:-1, 1:-1] = res[1:-1, 1:-1]
    return ScalarField(t.grid, out)


def connection_from_samples(theta, theta_x, theta_y) -> tuple[np.ndarray, np.ndarray]:
    """Connection matrices A, B from raw samples of theta and its partials.

    Returns arrays of shape ``theta.shape + (3, 3)``.  Columns of A hold
    the basis coefficients of (f_xx, f_xy, N_x); columns of B those of
    (f_yx, f_yy, N_y).  Derived from the Christoffel symbols of
    E = G = 1, F = cos(theta) and the shape operator of the asymptotic
    second form (off-diagonal coefficient sin(theta)).
    """
    return _connection(theta, theta_x, "x"), _connection(theta, theta_y, "y")


def _connection(theta, theta_d, axis: str) -> np.ndarray:
    """A (``axis`` "x", ``theta_d`` = theta_x) or B ("y", theta_y) alone."""
    theta = np.asarray(theta, dtype=float)
    sin = np.sin(theta)
    if np.abs(sin).min() < SIN_THETA_FLOOR:
        raise SingularAngleError(
            f"sin(theta) reaches {np.abs(sin).min():.3e}; net is singular"
        )
    cos = np.cos(theta)
    cot = cos / sin
    inv = 1.0 / sin
    zero = np.zeros_like(theta)
    if axis == "x":
        rows = ([theta_d * cot, zero, cot], [-theta_d * inv, zero, -inv], [zero, sin, zero])
    else:
        rows = ([zero, -theta_d * inv, -inv], [zero, theta_d * cot, cot], [sin, zero, zero])
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def chebyshev_connection(theta: AngleField) -> tuple[FrameField, FrameField]:
    """A, B sampled on the grid, theta partials by finite differences."""
    t = theta.theta
    tx = fd_partial(t, "x").values
    ty = fd_partial(t, "y").values
    A, B = connection_from_samples(t.values, tx, ty)
    return FrameField(theta.grid, A), FrameField(theta.grid, B)


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


def _check_initial_frame(W0: np.ndarray, theta0: float) -> np.ndarray:
    W0 = np.asarray(W0, dtype=float)
    if W0.shape != (3, 3):
        raise GridError(f"initial frame must be 3x3, got {W0.shape}")
    gram = W0.T @ W0
    target = np.array(
        [
            [1.0, np.cos(theta0), 0.0],
            [np.cos(theta0), 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    if np.abs(gram - target).max() > 1e-8:
        raise GridError("initial frame does not realize the Chebyshev Gram matrix")
    if np.dot(np.cross(W0[:, 0], W0[:, 1]), W0[:, 2]) <= 0.0:
        raise GridError("initial frame must be positively oriented")
    return W0


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


def _frame_lines(Y, conn_nodes, conn_mids, col, step, W, f):
    """March (W | f)' = (W C, W[:, col]) along lines and store the nodes.

    ``Y``: (m, 3, 4) states, the frame with f as a fourth column, at
    the first node of m parallel lines; ``W`` (n, m, 3, 3) and ``f``
    (n, m, 3) receive the node values, the first node included.
    """

    def rate(Y, C):
        return np.concatenate((Y[..., :3] @ C, Y[..., col:col + 1]), axis=-1)

    W[0] = Y[..., :3]
    f[0] = Y[..., 3]
    for k, Yk in enumerate(_rk4_line(Y, step, rate, conn_nodes, conn_mids), 1):
        W[k] = Yk[..., :3]
        f[k] = Yk[..., 3]


def _line_connections(theta_vals, tx, ty, grid):
    """What both sweep orders march with, built once: per direction
    (x, then y) the connection at the nodes and at the midpoints along
    that direction, the column of f', and the step."""

    def along(name, theta_d, axis):
        # x runs along array axis 1, y along axis 0
        mids = (_interp_midpoints(v, axis) for v in (theta_vals, theta_d))
        return _connection(theta_vals, theta_d, name), _connection(*mids, name)

    return [(*along("x", tx, 1), 0, grid.dx), (*along("y", ty, 0), 1, grid.dy)]


def _sweep(lines, grid, W0, f0, x_first):
    """Integrate the frame over the whole grid, one sweep order.

    A seed line from the origin fills the first row (x first) or column
    (y first); the lines across it, all marched at once, fill the grid.
    ``lines`` is ``_line_connections``'s list, x direction first.
    """
    W = np.empty(grid.shape + (3, 3))
    f = np.empty(grid.shape + (3,))
    Wv, fv = W, f
    if not x_first:
        # transposed views lay the seed line along axis 1 here too
        swap = partial(np.moveaxis, source=1, destination=0)
        lines = [(swap(n), swap(m), col, step) for n, m, col, step in lines[::-1]]
        Wv, fv = swap(W), swap(f)
    (nodes, mids, col, step), fill = lines
    Y0 = np.concatenate((W0, np.asarray(f0, dtype=float).reshape(3, 1)), axis=1)
    _frame_lines(Y0[None], nodes[0][:, None], mids[0][:, None], col, step,
                 Wv[0][:, None], fv[0][:, None])
    _frame_lines(np.concatenate((Wv[0], fv[0][..., None]), axis=-1), *fill, Wv, fv)
    return W, f


def integrate_frame(
    theta: AngleField,
    W0: np.ndarray | None = None,
    f0=(0.0, 0.0, 0.0),
) -> FrameIntegrationResult:
    """Synthesize a surface from an angle field.

    Integrates W' = W A along the first x-line and W' = W B up every
    column with classical fourth-order steps (connection entries are
    interpolated to midpoints at matching order).  The returned
    surface comes from the x-then-y sweep; the
    discrepancy against the y-then-x sweep is reported so that an
    incompatible angle field cannot slip through silently.
    """
    grid = theta.grid
    theta_vals = theta.theta.values
    theta0 = float(theta_vals[0, 0])
    if W0 is None:
        W0 = adapted_initial_frame(theta0)
    W0 = _check_initial_frame(W0, theta0)

    t = theta.theta
    tx = fd_partial(t, "x").values
    ty = fd_partial(t, "y").values

    lines = _line_connections(theta_vals, tx, ty, grid)
    W_xy, f_xy = _sweep(lines, grid, W0, f0, True)
    W_yx, f_yx = _sweep(lines, grid, W0, f0, False)

    surface = ChebyshevSurface(
        f=VectorField3(grid, f_xy),
        N=VectorField3(grid, W_xy[:, :, :, 2]),
        theta=theta,
    )
    return FrameIntegrationResult(
        surface=surface,
        frame=FrameField(grid, W_xy),
        path_residual_f=float(np.abs(f_xy - f_yx).max()),
        path_residual_frame=float(np.abs(W_xy - W_yx).max()),
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
        return {
            "normal_wave": self.normal_wave,
            "fx_from_normal": self.fx_from_normal,
            "fy_from_normal": self.fy_from_normal,
            "fx_unit": self.fx_unit,
            "fy_unit": self.fy_unit,
            "angle_consistency": self.angle_consistency,
        }

    def max_residual(self) -> float:
        return max(self.as_dict().values())


def corollary_conditions(surface: ChebyshevSurface) -> CorollaryReport:
    """Residuals of the constant-curvature characterization, by FD."""
    grid = surface.grid
    f = surface.f.values
    N = surface.N.values
    theta = surface.theta.theta.values
    cos = np.cos(theta)

    f_x = _partial_values(f, grid, "x")
    f_y = _partial_values(f, grid, "y")
    N_x = _partial_values(N, grid, "x")
    N_y = _partial_values(N, grid, "y")
    N_xy = _partial_values(N_x, grid, "y")

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
