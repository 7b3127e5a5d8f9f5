"""Developing maps into the Poincare disk.

The log-factor ``u`` of a curvature -1 conformal metric carries a
holomorphic invariant ``T = u_zz - u_z^2``; the ratio of two solutions
of the linear ODE ``psi'' + T psi = 0`` develops the metric into the
unit disk with its hyperbolic metric.  This module implements both
directions: recovering ``u`` from a given disk map, and marching the
ODE along grid lines to build the map from ``u``, together with the
pullback identity that certifies the result as an isometry.  The march
is ``chebyshev._sweep``, the two-way line sweep that also synthesizes
the Chebyshev frame, run here with the ODE's rate and coefficient T.

A march holds little beyond its state, two solutions and their
derivatives per node: T is formed one partial derivative at a time,
the seed line gets only its own line of T-midpoints, T and its
midpoints are dropped once the sweep returns, and the map and its
derivative take one temporary.  The path residual holds one march's
map and streams the other march against it a column at a time.  Every
value is the one the whole-grid expressions give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    Grid2D,
    GridError,
    ScalarField,
    SolverError,
    _samples,
    _second_values,
    fd_partial,
)
from .chebyshev import _interp_midpoints, _sweep, _sweep_lines

__all__ = [
    "DevelopError",
    "DevelopingMap",
    "u_from_phi",
    "develop",
    "develop_path_residual",
    "pullback_isometry_check",
    "hyperbolic_distance",
    "mobius_disk",
]


# holomorphy defect a DevelopingMap tolerates on interior nodes
CR_TOL = 1e-2


class DevelopError(SolverError, ValueError):
    """Map validation failure or undevelopable input."""


def _dz(arr: np.ndarray, grid: Grid2D) -> np.ndarray:
    """``0.5 * (arr_x - 1j * arr_y)``, one partial alive at a time."""
    dz = 1j * fd_partial(arr, grid, "y")
    np.subtract(fd_partial(arr, grid, "x"), dz, out=dz)
    dz *= 0.5
    return dz


def _dz_at(arr: np.ndarray, grid: Grid2D, j: int, i: int) -> complex:
    """``_dz(arr, grid)[j, i]`` from row ``j`` and column ``i`` alone."""
    ux = fd_partial(arr[j:j + 1], grid, "x")[0, i]
    uy = fd_partial(arr[:, i:i + 1], grid, "y")[j, 0]
    return 0.5 * (ux - 1j * uy)


def _dbar(arr: np.ndarray, grid: Grid2D) -> np.ndarray:
    return 0.5 * (fd_partial(arr, grid, "x") + 1j * fd_partial(arr, grid, "y"))


@dataclass(frozen=True)
class DevelopingMap:
    """Disk-valued map ``phi`` with its complex derivative per node.

    Constructor enforces the three defining properties: the values stay
    strictly inside the unit disk, the derivative never vanishes, and
    the discrete holomorphy defect stays under ``CR_TOL`` on interior
    nodes.
    """

    grid: Grid2D
    phi: np.ndarray
    dphi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("phi", "dphi"):
            object.__setattr__(self, name, _samples(getattr(self, name), self.grid.shape,
                                                    name, complex))
        top = float(np.max(np.abs(self.phi)))
        if top >= 1.0:
            raise DevelopError(f"map leaves the unit disk: max |phi| = {top:.6f}")
        if float(np.min(np.abs(self.dphi))) == 0.0:
            raise DevelopError("map derivative vanishes at a node")
        defect = float(np.max(np.abs(_dbar(self.phi, self.grid)[1:-1, 1:-1])))
        if defect > CR_TOL:
            raise DevelopError(
                f"holomorphy defect {defect:.3e} exceeds tolerance {CR_TOL:.3e}"
            )

    def pullback_density(self) -> np.ndarray:
        """Pulled-back hyperbolic metric density ``4|phi'|^2/(1-|phi|^2)^2``."""
        return 4.0 * np.abs(self.dphi) ** 2 / (1.0 - np.abs(self.phi) ** 2) ** 2


def u_from_phi(dev: DevelopingMap, exponent: float = 0.5) -> ScalarField:
    """Log-factor of the metric pulled back through a disk map.

    ``u = exponent * ln(4|phi'|^2 / (1-|phi|^2)^2)``.  The default
    exponent 1/2 is the value calibrated against the identity map on a
    disk patch: it is the one for which ``lap u = exp(2u)`` holds under
    the standard five-point Laplacian.  The tests pass 1/4 as well, which
    fails the equation by an order-one margin.
    """
    return ScalarField(dev.grid, exponent * np.log(dev.pullback_density()))


def _invariant(u: ScalarField) -> np.ndarray:
    """Complex invariant ``T = u_zz - u_z^2`` of a sampled log-factor,
    ``u_zz = 0.25 * (u_xx - u_yy - 2j * u_xy)``, formed in place with
    one partial derivative alive at a time."""
    g = u.grid
    uz = _dz(u.values, g)
    # Second derivatives from the raw samples; composing _dz twice would
    # degrade the boundary rings to first order and quadruple the
    # interior truncation constant.
    real = _second_values(u.values, g, "x")
    real -= _second_values(u.values, g, "y")
    uzz = 2j * fd_partial(fd_partial(u.values, g, "x"), g, "y")
    np.subtract(real, uzz, out=uzz)
    uzz *= 0.25
    return np.subtract(uzz, np.square(uz, out=uz), out=uzz)


def _psi_rate(direction: complex, s: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``(psi, psi')' = direction * (psi', -T psi)``.

    ``s`` has shape (..., 2, k): two components for each of the k
    tracked solutions; ``T`` is the ODE coefficient, shape (...).
    """
    out = np.empty_like(s)
    out[..., 0, :] = direction * s[..., 1, :]
    out[..., 1, :] = -direction * T[..., None] * s[..., 0, :]
    return out


def _march_lines(u: ScalarField, jb: int, ib: int, x_first: bool):
    """``_sweep``'s lines for one march out of node ``(jb, ib)``, base row
    first or base column first, and the state at that node.

    The coefficient T is formed here; the lines hold it and its
    midpoints, so they go when the lines do.  The seed line reads only
    its own row (``x_first``) or column of midpoints along it, so only
    that one is formed and broadcast to the shape ``_sweep`` indexes.
    Solution 0 vanishes at the base with derivative e^u/2 (this is the
    Wronskian), solution 1 starts at 1 with derivative -u_z: together
    they normalize phi(base) = 0, phi'(base) = e^{u(base)}/2 > 0.
    """
    g = u.grid
    T = _invariant(u)
    mids_x = _interp_midpoints(T[jb:jb + 1] if x_first else T, axis=1)
    mids_y = _interp_midpoints(T if x_first else T[:, ib:ib + 1], axis=0)
    lines = [(partial(_psi_rate, 1.0), T, np.broadcast_to(mids_x, (g.ny, g.nx - 1)), g.dx),
             (partial(_psi_rate, 1.0j), T, np.broadcast_to(mids_y, (g.ny - 1, g.nx)), g.dy)]
    start = np.empty((2, 2), dtype=complex)
    # a large factor overflows the seed and the march; the march's
    # finiteness check is the verdict
    with np.errstate(over="ignore", invalid="ignore"):
        start[0] = [0.0, 1.0]
        start[1] = [0.5 * np.exp(float(u.values[jb, ib])), -_dz_at(u.values, g, jb, ib)]
    return lines, start


def _developable(finite: bool, floor: float) -> None:
    """Raise ``DevelopError`` unless a march stayed finite and its
    denominator solution ``psi2`` kept ``floor`` = min |psi2| off zero.

    On a valid map neither fails: the Wronskian never vanishes and
    ``|psi1/psi2| < 1``, so ``psi2`` cannot.
    """
    if not finite:
        raise DevelopError(
            "not developable on this patch: integration produced non-finite values")
    if floor < 1e-8:
        raise DevelopError("not developable on this patch: denominator solution crossed zero")


def _march(u: ScalarField, jb: int, ib: int, x_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Map and derivative from one march out of node ``(jb, ib)``, base
    row first or base column first.

    T and its midpoints are dropped as soon as the sweep returns.  A
    non-finite state or a vanishing denominator solution means the
    factor is not developable from here and raises ``DevelopError``.
    """
    lines, start = _march_lines(u, jb, ib, x_first)
    state = np.full(u.grid.shape + (2, 2), np.nan, dtype=complex)
    state[jb, ib] = start
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(state, (jb, ib), lines, x_first)
    del lines

    psi1, dpsi1 = state[..., 0, 0], state[..., 1, 0]
    psi2, dpsi2 = state[..., 0, 1], state[..., 1, 1]
    finite = bool(np.isfinite(state).all())
    _developable(finite, float(np.min(np.abs(psi2))) if finite else np.nan)
    phi = psi1 / psi2
    # dphi = (dpsi1 * psi2 - dpsi2 * psi1) / psi2**2 through one temporary
    dphi = dpsi1 * psi2
    temp = dpsi2 * psi1
    np.subtract(dphi, temp, out=dphi)
    np.divide(dphi, np.square(psi2, out=temp), out=dphi)
    return phi, dphi


def develop(u: ScalarField, *, base: tuple[int, int] | None = None) -> DevelopingMap:
    """Build the disk map developing a sampled log-factor.

    Marches ``psi'' + T psi = 0`` for two independent solutions along
    the base row and then up and down every column; their ratio is the
    map, normalized so the base node (default: the centre node) goes to
    the origin with positive real derivative.  A map that leaves the
    disk or loses holomorphy raises, which is the designed rejection
    path for factors that do not solve the curvature equation.  How
    well the map pulls the hyperbolic metric back to ``e^{2u}`` is
    ``pullback_isometry_check``'s to measure and the caller's to judge.
    """
    g = u.grid
    jb, ib = base if base is not None else (g.ny // 2, g.nx // 2)
    phi, dphi = _march(u, jb, ib, x_first=True)
    try:
        return DevelopingMap(g, phi, dphi)
    except DevelopError as exc:
        raise DevelopError(f"not developable on this patch: {exc}") from exc


def develop_path_residual(u: ScalarField, base: tuple[int, int] | None = None) -> float:
    """Sup difference between row-first and column-first integrations.

    The column-first march is never held whole: each column of its map
    is compared with the row-first map as the march reaches it.  Its
    finiteness and denominator checks are collected on the way and
    raised after it, as ``_march`` raises them.
    """
    g = u.grid
    jb, ib = base if base is not None else (g.ny // 2, g.nx // 2)
    columns = np.moveaxis(_march(u, jb, ib, x_first=True)[0], 1, 0)
    lines, start = _march_lines(u, jb, ib, x_first=False)
    residual, finite, floor = -np.inf, True, np.inf
    # columns after a non-finite one are skipped; the checks then raise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, states in _sweep_lines(start, (jb, ib), lines, False):
            finite = finite and bool(np.isfinite(states).all())
            if finite:
                psi1, psi2 = states[:, 0, 0], states[:, 0, 1]
                floor = min(floor, float(np.min(np.abs(psi2))))
                residual = np.maximum(residual, np.max(np.abs(columns[i] - psi1 / psi2)))
    _developable(finite, floor)
    return float(residual)


def pullback_isometry_check(dev: DevelopingMap, u: ScalarField) -> float:
    """Relative sup defect of ``phi^* (hyperbolic metric) = e^{2u} |dz|^2``."""
    if not dev.grid.matches(u.grid):
        raise GridError("map and log-factor live on different grids")
    e2u = np.exp(2.0 * u.values)
    return float(np.max(np.abs(dev.pullback_density() - e2u) / e2u))


def hyperbolic_distance(w1, w2):
    """Poincare distance ``2 artanh |(w1-w2)/(1-conj(w1) w2)|``.

    Accepts scalars or broadcastable arrays of disk points.
    """
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    if np.max(np.abs(w1)) >= 1.0 or np.max(np.abs(w2)) >= 1.0:
        raise DevelopError("points must lie strictly inside the unit disk")
    t = np.abs((w1 - w2) / (1.0 - np.conj(w1) * w2))
    out = 2.0 * np.arctanh(t)
    return float(out) if out.ndim == 0 else out


def mobius_disk(w, a=0j, rotation: float = 0.0):
    """Disk automorphism ``e^{i rotation} (w - a)/(1 - conj(a) w)``."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise DevelopError("Mobius center must lie inside the unit disk")
    w = np.asarray(w, dtype=complex)
    out = np.exp(1j * rotation) * (w - a) / (1.0 - np.conj(a) * w)
    return complex(out) if out.ndim == 0 else out
