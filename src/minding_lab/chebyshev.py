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
reconstructs W and f from theta by fourth-order line integration.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "IncompatibleAngleError",
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
COMPATIBILITY_TOL = 1e-3  # default sine-Gordon gate of integrate_frame


class SingularAngleError(ValueError):
    """sin(theta) fell below the floor; the net degenerates there."""


class IncompatibleAngleError(ValueError):
    """theta fails the sine-Gordon compatibility gate."""


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
    incompatible one they stay O(1) and must not be ignored.
    """

    surface: ChebyshevSurface
    frame: FrameField  # columns f_x, f_y, N per node
    path_residual_f: float
    path_residual_frame: float
    sine_gordon_sup: float


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

    A = np.stack(
        [
            np.stack([theta_x * cot, zero, cot], axis=-1),
            np.stack([-theta_x * inv, zero, -inv], axis=-1),
            np.stack([zero, sin, zero], axis=-1),
        ],
        axis=-2,
    )
    B = np.stack(
        [
            np.stack([zero, -theta_y * inv, -inv], axis=-1),
            np.stack([zero, theta_y * cot, cot], axis=-1),
            np.stack([sin, zero, zero], axis=-1),
        ],
        axis=-2,
    )
    return A, B


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


def _gram_sqrt(cos_theta: np.ndarray) -> np.ndarray:
    """Symmetric square root of [[1, c, 0], [c, 1, 0], [0, 0, 1]]."""
    a = 0.5 * (np.sqrt(1.0 + cos_theta) + np.sqrt(1.0 - cos_theta))
    b = 0.5 * (np.sqrt(1.0 + cos_theta) - np.sqrt(1.0 - cos_theta))
    n = cos_theta.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 0] = a
    out[:, 1, 1] = a
    out[:, 0, 1] = b
    out[:, 1, 0] = b
    out[:, 2, 2] = 1.0
    return out


def _reorthonormalize(W: np.ndarray, cos_theta: np.ndarray) -> np.ndarray:
    """Nearest frames (Frobenius) with the prescribed Gram matrix.

    Orthogonal-Procrustes projection: with G^(1/2) the Gram square
    root, the minimizer of |W' - W| over W'^T W' = G is Q G^(1/2) where
    Q is the orientation-kept polar factor of W G^(1/2).
    """
    S = _gram_sqrt(cos_theta)
    M = W @ S
    U, _, Vt = np.linalg.svd(M)
    det = np.linalg.det(U @ Vt)
    flip = np.ones_like(det)
    flip[det < 0.0] = -1.0
    U = U.copy()
    U[:, :, -1] *= flip[:, None]
    return (U @ Vt) @ S


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


def _rk4_line(W, f, col, step, conn_nodes, conn_mids, reorth_every, cos_nodes):
    """March W' = W*C(t), f' = W[:, col] along one line of samples.

    ``W``: (m, 3, 3) stack of frames, ``f``: (m, 3); ``conn_nodes`` and
    ``conn_mids`` give C at the nodes and midpoints of the line, shape
    (n, m, 3, 3) and (n-1, m, 3, 3).  Returns node values along the
    line, shapes (n, m, 3, 3) and (n, m, 3).
    """
    n = conn_nodes.shape[0]
    Ws = np.empty((n,) + W.shape)
    fs = np.empty((n,) + f.shape)
    Ws[0] = W
    fs[0] = f
    for k in range(n - 1):
        C0, Cm, C1 = conn_nodes[k], conn_mids[k], conn_nodes[k + 1]
        k1W = W @ C0
        k1f = W[..., :, col]
        W2 = W + 0.5 * step * k1W
        k2W = W2 @ Cm
        k2f = W2[..., :, col]
        W3 = W + 0.5 * step * k2W
        k3W = W3 @ Cm
        k3f = W3[..., :, col]
        W4 = W + step * k3W
        k4W = W4 @ C1
        k4f = W4[..., :, col]
        W = W + (step / 6.0) * (k1W + 2.0 * k2W + 2.0 * k3W + k4W)
        f = f + (step / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        if reorth_every and (k + 1) % reorth_every == 0:
            W = _reorthonormalize(W, cos_nodes[k + 1])
        Ws[k + 1] = W
        fs[k + 1] = f
    return Ws, fs


def _sweep(theta_vals, tx, ty, grid, W0, f0, reorth_every, x_first):
    """Integrate the frame over the whole grid, one sweep order."""
    A_nodes, B_nodes = connection_from_samples(theta_vals, tx, ty)

    def line_conn(conn, axis):
        mid_theta = _interp_midpoints(theta_vals, axis)
        mid_tx = _interp_midpoints(tx, axis)
        mid_ty = _interp_midpoints(ty, axis)
        A_m, B_m = connection_from_samples(mid_theta, mid_tx, mid_ty)
        return A_m if conn == "A" else B_m

    W = np.empty(grid.shape + (3, 3))
    f = np.empty(grid.shape + (3,))
    cos_all = np.cos(theta_vals)

    if x_first:
        # seed row j=0 by an x-line, then every column by a y-line
        A_mid = line_conn("A", 1)
        Ws, fs = _rk4_line(
            W0[None], np.asarray(f0, dtype=float)[None], 0, grid.dx,
            A_nodes[0][:, None], A_mid[0][:, None], reorth_every,
            cos_all[0][:, None],
        )
        W[0] = Ws[:, 0]
        f[0] = fs[:, 0]
        B_mid = line_conn("B", 0)
        Ws, fs = _rk4_line(
            W[0], f[0], 1, grid.dy,
            B_nodes, B_mid, reorth_every, cos_all,
        )
        W[:] = Ws
        f[:] = fs
    else:
        B_mid = line_conn("B", 0)
        Ws, fs = _rk4_line(
            W0[None], np.asarray(f0, dtype=float)[None], 1, grid.dy,
            B_nodes[:, 0][:, None], B_mid[:, 0][:, None], reorth_every,
            cos_all[:, 0][:, None],
        )
        col_W = Ws[:, 0]
        col_f = fs[:, 0]
        A_mid = line_conn("A", 1)
        Ws, fs = _rk4_line(
            col_W, col_f, 0, grid.dx,
            np.moveaxis(A_nodes, 1, 0), np.moveaxis(A_mid, 1, 0),
            reorth_every, np.moveaxis(cos_all, 1, 0),
        )
        W[:] = np.moveaxis(Ws, 0, 1)
        f[:] = np.moveaxis(fs, 0, 1)
    return W, f


def integrate_frame(
    theta: AngleField,
    W0: np.ndarray | None = None,
    f0=(0.0, 0.0, 0.0),
    *,
    compatibility_tol: float | None = COMPATIBILITY_TOL,
    reorthonormalize_every: int = 16,
) -> FrameIntegrationResult:
    """Synthesize a surface from an angle field.

    Integrates W' = W A along the first x-line and W' = W B up every
    column with classical fourth-order steps (connection entries are
    interpolated to midpoints at matching order), renormalizing the
    frame onto its prescribed Gram matrix every ``reorthonormalize_every``
    steps.  The returned surface comes from the x-then-y sweep; the
    discrepancy against the y-then-x sweep is reported so that an
    incompatible angle field cannot slip through silently.

    Raises
    ------
    IncompatibleAngleError
        If the sine-Gordon residual exceeds ``compatibility_tol``
        (pass None to skip the gate, e.g. for frame experiments).
    """
    grid = theta.grid
    sg = sine_gordon_residual(theta)
    sg_sup = sg.interior_abs_max()
    if compatibility_tol is not None and sg_sup > compatibility_tol:
        raise IncompatibleAngleError(
            f"sine-Gordon residual {sg_sup:.3e} exceeds gate {compatibility_tol:.1e}"
        )

    theta_vals = theta.theta.values
    theta0 = float(theta_vals[0, 0])
    if W0 is None:
        W0 = adapted_initial_frame(theta0)
    W0 = _check_initial_frame(W0, theta0)

    t = theta.theta
    tx = fd_partial(t, "x").values
    ty = fd_partial(t, "y").values

    W_xy, f_xy = _sweep(theta_vals, tx, ty, grid, W0, f0, reorthonormalize_every, True)
    W_yx, f_yx = _sweep(theta_vals, tx, ty, grid, W0, f0, reorthonormalize_every, False)

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
        sine_gordon_sup=sg_sup,
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
