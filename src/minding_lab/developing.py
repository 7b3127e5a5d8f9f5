"""Developing maps into the Poincare disk.

The log-factor ``u`` of a curvature -1 conformal metric carries a
holomorphic invariant ``T = u_zz - u_z^2``; the ratio of two solutions
of the linear ODE ``psi'' + T psi = 0`` develops the metric into the
unit disk with its hyperbolic metric.  This module implements both
directions: recovering ``u`` from a given disk map, and marching the
ODE along grid lines to build the map from ``u``, together with the
pullback identity that certifies the result as an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import Grid2D, GridError, ScalarField, _partial_values
from .chebyshev import _interp_midpoints, _rk4_line

__all__ = [
    "DevelopError",
    "DevelopingMap",
    "HolomorphicInvariant",
    "u_from_phi",
    "holomorphic_invariant",
    "develop",
    "develop_path_residual",
    "pullback_isometry_check",
    "hyperbolic_distance",
    "mobius_disk",
]


# holomorphy defect a DevelopingMap tolerates on interior nodes
CR_TOL = 1e-2


class DevelopError(ValueError):
    """Map validation failure or undevelopable input."""


def _dz(arr: np.ndarray, grid: Grid2D) -> np.ndarray:
    return 0.5 * (_partial_values(arr, grid, "x") - 1j * _partial_values(arr, grid, "y"))


def _dbar(arr: np.ndarray, grid: Grid2D) -> np.ndarray:
    return 0.5 * (_partial_values(arr, grid, "x") + 1j * _partial_values(arr, grid, "y"))


def _second(arr: np.ndarray, step: float, axis: int) -> np.ndarray:
    """Direct three-point second difference with one-sided end closures.

    Working from the raw samples keeps the truncation constant small
    and uniformly second order; stacking two first-derivative passes
    along the same axis would lose an order on the boundary rings.
    """
    v = np.moveaxis(arr, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    n = v.shape[0]
    if n >= 5:
        # Third-order closure so the ends do not dominate the sup error.
        out[0] = (35.0 * v[0] - 104.0 * v[1] + 114.0 * v[2]
                  - 56.0 * v[3] + 11.0 * v[4]) / 12.0
        out[-1] = (35.0 * v[-1] - 104.0 * v[-2] + 114.0 * v[-3]
                   - 56.0 * v[-4] + 11.0 * v[-5]) / 12.0
    elif n == 4:
        out[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
        out[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
    else:
        out[0] = out[-1] = out[1]
    return np.moveaxis(out, 0, axis) / step**2


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
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != self.grid.shape:
                raise GridError(f"{name} must have shape {self.grid.shape}")
            if not np.isfinite(arr).all():
                raise GridError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
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

    @classmethod
    def from_function(cls, grid: Grid2D, fn, dfn) -> "DevelopingMap":
        X, Y = grid.mesh()
        z = X + 1j * Y
        return cls(grid, fn(z), dfn(z))

    def pullback_density(self) -> np.ndarray:
        """Pulled-back hyperbolic metric density ``4|phi'|^2/(1-|phi|^2)^2``."""
        return 4.0 * np.abs(self.dphi) ** 2 / (1.0 - np.abs(self.phi) ** 2) ** 2


@dataclass(frozen=True)
class HolomorphicInvariant:
    """``T = u_zz - u_z^2`` with its holomorphy defect field.

    The defect field carries NaN on the outer two rings: ``T`` is built
    from finite differences, so differentiating it once more loses an
    order on the first interior ring.
    """

    grid: Grid2D
    T: np.ndarray
    cr_residual: ScalarField

    def max_cr(self) -> float:
        return float(np.nanmax(self.cr_residual.values))


def u_from_phi(dev: DevelopingMap, exponent: float = 0.5) -> ScalarField:
    """Log-factor of the metric pulled back through a disk map.

    ``u = exponent * ln(4|phi'|^2 / (1-|phi|^2)^2)``.  The default
    exponent 1/2 is the value calibrated against the identity map on a
    disk patch: it is the one for which ``lap u = exp(2u)`` holds under
    the standard five-point Laplacian.  Other exponents are accepted so
    the calibration experiment can be rerun (they fail the equation by
    an order-one margin).
    """
    return ScalarField(dev.grid, exponent * np.log(dev.pullback_density()))


def holomorphic_invariant(u: ScalarField) -> HolomorphicInvariant:
    """Complex invariant ``u_zz - u_z^2`` of a sampled log-factor.

    For a factor satisfying the curvature equation the invariant is
    holomorphic; the returned residual field measures the defect and is
    diagnostic only (nonsolutions are legitimate inputs).
    """
    g = u.grid
    vals = u.values.astype(float)
    uz = _dz(vals, g)
    # Second derivatives from the raw samples; composing _dz twice would
    # degrade the boundary rings to first order and quadruple the
    # interior truncation constant.
    uxx = _second(vals, g.dx, axis=1)
    uyy = _second(vals, g.dy, axis=0)
    uxy = _partial_values(_partial_values(vals, g, "x"), g, "y")
    uzz = 0.25 * (uxx - uyy - 2j * uxy)
    T = uzz - uz**2
    res = np.abs(_dbar(T, g))
    margin = 2 if min(g.shape) >= 5 else 1
    res[:margin, :] = res[-margin:, :] = np.nan
    res[:, :margin] = res[:, -margin:] = np.nan
    return HolomorphicInvariant(g, T, ScalarField(g, res))


def _psi_rate(direction: complex, s: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``(psi, psi')' = direction * (psi', -T psi)``.

    ``s`` has shape (..., 2, k): two components for each of the k
    tracked solutions; ``T`` is the ODE coefficient, shape (...).
    """
    out = np.empty_like(s)
    out[..., 0, :] = direction * s[..., 1, :]
    out[..., 1, :] = -direction * T[..., None] * s[..., 0, :]
    return out


def _march_out(state: np.ndarray, base: int, step: float, direction: complex,
               T: np.ndarray, T_mid: np.ndarray) -> None:
    """March lines from node ``base`` to both of their ends, in place.

    ``state`` (n, m, 2, 2) holds m parallel lines, line parameter
    first, and is known at ``base``; ``T`` and ``T_mid`` give the
    coefficient at the n nodes and n - 1 midpoints.  The backward half
    runs on reversed views with the direction negated.
    """
    for d, line, nodes, mids in (
        (direction, state[base:], T[base:], T_mid[base:]),
        (-direction, state[base::-1], T[base::-1], T_mid[:base][::-1]),
    ):
        rate = partial(_psi_rate, d)
        for k, s in enumerate(_rk4_line(line[0], step, rate, nodes, mids), 1):
            line[k] = s


def _march(u: ScalarField, T: np.ndarray, jb: int, ib: int,
           x_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Map and derivative from one march out of node ``(jb, ib)``, base
    row first or base column first.

    A non-finite state or a vanishing denominator solution means the
    factor is not developable from here and raises ``DevelopError``.
    On a valid map neither happens: the Wronskian never vanishes and
    ``|psi1/psi2| < 1``, so ``psi2`` cannot.
    """
    g = u.grid
    state = np.full(g.shape + (2, 2), np.nan, dtype=complex)
    u0 = float(u.values[jb, ib])
    uz0 = _dz(u.values.astype(float), g)[jb, ib]
    # x-lines through transposed views, so every march runs along axis 0
    x_state, Tx, Tx_mid = np.moveaxis(state, 1, 0), T.T, _interp_midpoints(T, axis=1).T
    Ty_mid = _interp_midpoints(T, axis=0)
    row, col = slice(jb, jb + 1), slice(ib, ib + 1)

    # a large factor overflows the seed and the march; the finiteness
    # check below is the verdict
    with np.errstate(over="ignore", invalid="ignore"):
        # solution 0 vanishes at the base with derivative e^u/2 (this is
        # the Wronskian), solution 1 starts at 1 with derivative -u_z:
        # together they normalize phi(base) = 0, phi'(base) = e^{u(base)}/2 > 0
        state[jb, ib, 0] = [0.0, 1.0]
        state[jb, ib, 1] = [0.5 * np.exp(u0), -uz0]
        if x_first:
            _march_out(x_state[:, row], ib, g.dx, 1.0, Tx[:, row], Tx_mid[:, row])
            _march_out(state, jb, g.dy, 1.0j, T, Ty_mid)
        else:
            _march_out(state[:, col], jb, g.dy, 1.0j, T[:, col], Ty_mid[:, col])
            _march_out(x_state, ib, g.dx, 1.0, Tx, Tx_mid)

    psi1, dpsi1 = state[..., 0, 0], state[..., 1, 0]
    psi2, dpsi2 = state[..., 0, 1], state[..., 1, 1]
    if not np.isfinite(state).all():
        raise DevelopError(
            "not developable on this patch: integration produced non-finite values")
    if float(np.min(np.abs(psi2))) < 1e-8:
        raise DevelopError("not developable on this patch: denominator solution crossed zero")
    phi = psi1 / psi2
    dphi = (dpsi1 * psi2 - dpsi2 * psi1) / psi2**2
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
    if not np.isfinite(u.values).all():
        raise GridError("log-factor must be finite everywhere")
    jb, ib = base if base is not None else (g.ny // 2, g.nx // 2)
    phi, dphi = _march(u, holomorphic_invariant(u).T, jb, ib, x_first=True)
    try:
        return DevelopingMap(g, phi, dphi)
    except DevelopError as exc:
        raise DevelopError(f"not developable on this patch: {exc}") from exc


def develop_path_residual(u: ScalarField, base: tuple[int, int] | None = None) -> float:
    """Sup difference between row-first and column-first integrations."""
    g = u.grid
    T = holomorphic_invariant(u).T
    jb, ib = base if base is not None else (g.ny // 2, g.nx // 2)
    phi_xy, _ = _march(u, T, jb, ib, x_first=True)
    phi_yx, _ = _march(u, T, jb, ib, x_first=False)
    return float(np.max(np.abs(phi_xy - phi_yx)))


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
