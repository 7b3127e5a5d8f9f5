"""Distributional identities realized as quadratures against bumps.

A locally integrable field acts on compactly supported C^1 test
functions through the trapezoid quadrature; its distributional
derivative acts through the analytic gradient of the test function.
Each checker below integrates both sides of an identity against a
family of bumps and reports the residuals.  Gradients of the test
functions are always closed-form, never finite differences, so a
nonzero residual points at the field under test (or at quadrature
error, which shrinks at second order).  Every checker hands the one
pairing kernel ``_pair`` one integrand per residual, the identity's
signed sum, which ``_pair`` integrates through one ``quadrature``.

A bump covers a small part of the grid (on a square grid about 4%, 16%
and 64% of it for the three radii of ``bump_lattice``), so ``_pair``
evaluates the bump and every integrand only on the bump's node box,
where it can be nonzero, plus one node on each side, and integrates
the box's samples as the trapezoid over the box alone.  The box is at
least three nodes a side, lies strictly inside the grid and its edge
nodes are zero, so in exact arithmetic that is the full-grid integral;
in floating point the residuals depend on the box only at rounding.

The residual for the curvature equation is the weak form

    r(v) = integral(u_x v_x + u_y v_y) + integral(e^{2u} v),

which vanishes for weak solutions of lap(u) = e^{2u}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import FrameField, _as_matrices
from .grid import (
    Grid2D,
    GridError,
    ScalarField,
    TestFunction,
    bands,
    fd_partial,
    quadrature,
)

__all__ = [
    "WeakResidualReport",
    "bump_lattice",
    "mixed_partials_check",
    "product_rule_check",
    "product_rule_pointwise_residual",
    "liouville_weak_residual",
    "frame_weak_compatibility",
]


@dataclass(frozen=True)
class WeakResidualReport:
    """Residuals of one identity over a family of test functions."""

    residuals: tuple

    def __post_init__(self) -> None:
        if len(self.residuals) == 0:
            raise GridError("empty test family")
        object.__setattr__(self, "residuals", tuple(float(r) for r in self.residuals))

    @property
    def count(self) -> int:
        return len(self.residuals)

    def max_abs(self) -> float:
        return max(abs(r) for r in self.residuals)


def bump_lattice(grid: Grid2D):
    """Deterministic family of interior bumps.

    Centers sit at the interior fractions k/6, k = 1..5, of each extent,
    radii are 0.1, 0.2 and 0.4 of the smaller extent; bumps whose
    support is not strictly interior are dropped.
    """
    ext_x = grid.x1 - grid.x0
    ext_y = grid.y1 - grid.y0
    scale = min(ext_x, ext_y)
    tests = []
    for frac in (0.1, 0.2, 0.4):
        r = frac * scale
        for ky in range(1, 6):
            for kx in range(1, 6):
                v = TestFunction(grid.x0 + ext_x * kx / 6, grid.y0 + ext_y * ky / 6, r)
                if v.supported_inside(grid):
                    tests.append(v)
    if not tests:
        raise GridError("no bump fits strictly inside this grid")
    return tests


def _pair(grid: Grid2D, tests, fields: dict, integrands) -> WeakResidualReport:
    """Weak residuals of ``integrands`` against every test, test-major.

    Each residual is ``quadrature(integrand(t), grid, box)``.  ``t`` maps
    ``"v"``, ``"x"`` and ``"y"`` to the bump's samples and analytic
    partials, taken once per bump, and each name of ``fields`` to that
    ``(ny, nx, ...)`` array; all of them are cut to the bump's
    ``node_box``.  Outside the box and on its edge nodes the bump and
    its partials are exactly zero, so each integrand is too, and the
    box's trapezoid is the full-grid one up to rounding.  That holds
    for finite fields only (NaN * 0 is NaN), so every field is checked
    whole, once, and a non-finite sample anywhere is refused as the
    full-grid quadrature refused it.
    """
    for values in fields.values():
        if not np.isfinite(values).all():
            raise GridError("quadrature requires finite samples everywhere")
    X, Y = grid.mesh()
    residuals = []
    for v in tests:
        if not v.supported_inside(grid):
            raise GridError(
                f"test support touches the boundary: center ({v.cx}, {v.cy}) radius {v.r}"
            )
        box = v.node_box(grid)
        Xb, Yb = X[box], Y[box]
        gx, gy = v.grad(Xb, Yb)
        t = {name: values[box] for name, values in fields.items()}
        t.update(v=v.value(Xb, Yb), x=gx, y=gy)
        residuals.extend(quadrature(integrand(t), grid, box) for integrand in integrands)
    return WeakResidualReport(tuple(residuals))


def _mixed_terms(*entry):
    e = (..., *entry)
    return lambda t: -t["Wx"][e] * t["y"] + t["Wy"][e] * t["x"]


def mixed_partials_check(W, tests) -> WeakResidualReport:
    """Weak symmetry of second mixed partials: for every test v,

        -integral(W_x v_y) + integral(W_y v_x) = 0

    holds whenever W is C^1 (integration by parts twice moves both
    derivatives onto v, where symmetry is classical).  Accepts a scalar
    field or a matrix field; matrix residuals report the worst entry.
    """
    grid = W.grid
    fields = {"Wx": fd_partial(W.values, grid, "x"), "Wy": fd_partial(W.values, grid, "y")}
    if not isinstance(W, FrameField):
        return _pair(grid, tests, fields, [_mixed_terms()])
    entries = _pair(grid, tests, fields, [
        _mixed_terms(p, q) for p in range(3) for q in range(3)
    ])
    return WeakResidualReport(
        tuple(max(map(abs, entries.residuals[k:k + 9])) for k in range(0, entries.count, 9)))


def product_rule_check(P: ScalarField, L: ScalarField, tests, axis: str = "x") -> WeakResidualReport:
    """Weak product rule: d(PL) = (dP) L + P dL against each test.

    P must be C^1-sampled; L only needs to be integrable.  All three
    terms act on the test by quadrature:

        r(v) = -integral(P L v') - integral(fd(P) L v)
               + integral(L (fd(P) v + P v'))

    where ' is the analytic test derivative along ``axis`` and the last
    term realizes (P dL)(v) = (dL)(P v) = -integral(L (P v)') with the
    product differentiated through the same fd(P) and analytic v' as
    the other terms.  The three integrands cancel node by node, so the
    identity holds up to rounding for any integrable L, which is the
    point of the distributional reading: no derivative of L is ever
    taken.  The classical reading that does differentiate L lives in
    ``product_rule_pointwise_residual`` and genuinely fails for
    discontinuous L.
    """
    P.grid.require_matches(L.grid)
    fields = {"P": P.values, "L": L.values, "Pd": fd_partial(P.values, P.grid, axis)}
    return _pair(P.grid, tests, fields, [
        lambda t: -t["P"] * t["L"] * t[axis] - t["Pd"] * t["L"] * t["v"]
        + t["L"] * (t["Pd"] * t["v"] + t["P"] * t[axis])
    ])


def product_rule_pointwise_residual(P: ScalarField, L: ScalarField, axis: str = "x") -> float:
    """Sup of the raw-derivative expansion fd(PL) - fd(P) L - P fd(L).

    This is the pointwise (non-distributional) reading of the product
    rule.  It needs L differentiable in the classical sense: a step in
    L leaves an O(1) residual at the jump no matter how fine the grid,
    which is exactly why the weak reading above exists.
    """
    P.grid.require_matches(L.grid)
    grid, Pv, Lv = P.grid, P.values, L.values
    resid = (
        fd_partial(Pv * Lv, grid, axis)
        - fd_partial(Pv, grid, axis) * Lv
        - Pv * fd_partial(Lv, grid, axis)
    )
    return float(np.abs(resid[1:-1, 1:-1]).max())


def liouville_weak_residual(u: ScalarField, tests) -> WeakResidualReport:
    """Weak residual of the conformal-factor curvature equation.

    r(v) = integral(u_x v_x + u_y v_y) + integral(e^{2u} v); zero (to
    quadrature error) exactly when u = ln h is a weak solution of
    lap(u) = e^{2u}, i.e. when h^2(dx^2+dy^2) has curvature -1.
    """
    fields = {
        "ux": fd_partial(u.values, u.grid, "x"),
        "uy": fd_partial(u.values, u.grid, "y"),
        "source": np.exp(2.0 * u.values),
    }
    return _pair(u.grid, tests, fields, [
        lambda t: t["ux"] * t["x"] + t["uy"] * t["y"] + t["source"] * t["v"]
    ])


def _connection_fields(A, B, grid: Grid2D) -> dict:
    """A, B and AB - BA, the commutator formed in ``grid.bands`` of rows,
    so only band-sized products are held."""
    A, B = _as_matrices(A, grid, "A"), _as_matrices(B, grid, "B")
    commutator = np.empty(A.shape)
    for band in bands(grid.ny, grid.nx):
        np.subtract(A[band] @ B[band], B[band] @ A[band], out=commutator[band])
    return {"A": A, "B": B, "commutator": commutator}


def _entry_terms(p: int, q: int):
    e = (..., p, q)
    return lambda t: -t["A"][e] * t["y"] + t["B"][e] * t["x"] - t["commutator"][e] * t["v"]


def frame_weak_compatibility(A, B, grid: Grid2D, tests) -> WeakResidualReport:
    """Weak zero-curvature identity over all nine elementary matrices.

    Tested against v = w E_pq, the trace pairing picks out one matrix
    entry:

        r(w) = -integral(A_pq w_y) + integral(B_pq w_x)
               - integral((AB - BA)_pq w)

    One residual per (test, entry) pair, ordered test-major with the
    entry index q fastest, so ``residuals[3 p + q::9]`` is entry (p, q).
    """
    return _pair(grid, tests, _connection_fields(A, B, grid), [
        _entry_terms(p, q) for p in range(3) for q in range(3)
    ])
