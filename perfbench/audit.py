"""Identity audit: the acceptance suite's oracles at benchmark scale.

Runs the public functions behind ``tests/test_acceptance.py`` (frame
synthesis, the weak lemmas, developing maps, the elliptic bootstrap) at
n = 257 and judges each result by the same h-scaled gate the suite
uses.  The distance audit post-composes both developed oracles with a
disk automorphism chosen by ``--seed`` and compares hyperbolic distances
with their closed forms.

Prints one JSON document ``{"checks": [...], "passed": bool}`` and exits
0 when every check passes, 3 otherwise.  Package functions are looked
up on their modules at call time so that the tracer's wrappers see them.

    PYTHONPATH=src python3 perfbench/audit.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

N = 257


def _check(checks, name, measured, gate, *, at_least=False):
    """Record one gate: ``measured <= gate`` (or ``>=`` for controls)."""
    measured = float(measured)
    passed = measured >= gate if at_least else measured <= gate
    checks.append({"name": name, "measured": measured, "gate": float(gate),
                   "at_least": at_least, "passed": bool(passed)})


def mobius_from_seed(seed: int) -> tuple[complex, float]:
    """Disk automorphism centre and rotation for the distance audit."""
    rng = random.Random(seed)
    radius = rng.uniform(0.1, 0.5)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * complex(math.cos(angle), math.sin(angle)), rng.uniform(0.0, 2.0 * math.pi)


def _frame_checks(checks, n):
    from minding_lab import chebyshev, grid, weak

    g = grid.Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, n, n)
    result = chebyshev.integrate_frame(chebyshev.one_soliton_angle(g))
    _check(checks, "frame_path_independence",
           max(result.path_residual_f, result.path_residual_frame), 50.0 * g.h**2)
    report = weak.mixed_partials_check(result.frame, weak.bump_lattice(g))
    _check(checks, "frame_mixed_partials", report.max_abs(), 10.0 * g.h**2)


def _pseudosphere_checks(checks, n):
    import numpy as np

    from minding_lab import forms, grid, weak

    g = grid.Grid2D.from_bounds(0.0, 1.0, 1.4, 2.4, n, n)
    _, Y = g.mesh()
    root = np.sqrt(Y**2 - 1.0)
    second = forms.SecondForm(g, root / Y**2, np.zeros_like(Y), -1.0 / (Y**2 * root))
    A, B = forms.isothermic_connection(grid.ScalarField(g, 1.0 / Y), second)
    tests = weak.bump_lattice(g)
    frame = weak.frame_weak_compatibility(A, B, g, tests)
    scalar = weak.liouville_weak_residual(grid.ScalarField(g, -np.log(Y)), tests)
    _check(checks, "frame_weak_compatibility", frame.max_abs(), 10.0 * g.h**2)
    # entry (0, 1) of the test-major, entry-fastest ordering collapses
    # onto the scalar curvature identity up to sign
    entry = frame.residuals[1::9]
    worst = max(abs(a + b) for a, b in zip(entry, scalar.residuals))
    _check(checks, "frame_entry_vs_liouville_weak", worst, 10.0 * g.h**2)


def _weak_lemma_checks(checks, n):
    import numpy as np

    from minding_lab import grid, weak

    g = grid.Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, n, n)
    lattice = weak.bump_lattice(g)
    gate = 10.0 * g.h**2
    smooth = grid.ScalarField.from_function(g, lambda X, Y: np.sin(1.3 * X) * np.exp(0.4 * Y))
    kink = grid.ScalarField.from_function(g, lambda X, Y: np.abs(X - 0.5) ** 1.5)
    _check(checks, "mixed_partials_smooth", weak.mixed_partials_check(smooth, lattice).max_abs(), gate)
    _check(checks, "mixed_partials_kink", weak.mixed_partials_check(kink, lattice).max_abs(), gate)
    P = grid.ScalarField.from_function(g, lambda X, Y: X)
    L = grid.ScalarField.from_function(g, lambda X, Y: np.abs(Y - 0.5))
    _check(checks, "product_rule_weak", weak.product_rule_check(P, L, lattice).max_abs(), gate)
    # the step control must stay far above the weak gate
    P2 = grid.ScalarField.from_function(g, lambda X, Y: np.sin(1.0 + Y))
    step = grid.ScalarField.from_function(
        g, lambda X, Y: np.where(Y > 0.5 + 0.3 * g.dy, 1.0, -1.0)
    )
    control = weak.product_rule_pointwise_residual(P2, step, axis="y")
    _check(checks, "step_control", control, max(0.5 * abs(math.cos(1.5)), 10.0 * gate),
           at_least=True)


def _developing_oracles(n):
    """(name, log-factor, exact map, exact derivative, exact distance)."""
    import numpy as np

    from minding_lab import developing, grid

    g1 = grid.Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
    X, Y = g1.mesh()
    z = X + 1j * Y

    def half_plane_distance(p, q):
        return np.arccosh(1.0 + np.abs(p - q) ** 2 / (2.0 * p.imag * q.imag))

    half = 0.5 / np.sqrt(2.0)
    g2 = grid.Grid2D.from_bounds(-half, half, -half, half, n, n)
    X2, Y2 = g2.mesh()
    z2 = X2 + 1j * Y2
    return [
        ("half_plane", grid.ScalarField(g1, -np.log(Y)), z,
         (z - 1j) / (z + 1j), 2j / (z + 1j) ** 2, half_plane_distance),
        ("disk", grid.ScalarField(g2, np.log(2.0 / (1.0 - X2**2 - Y2**2))), z2,
         z2, np.ones_like(z2), developing.hyperbolic_distance),
    ]


def _developing_checks(checks, n, seed):
    import numpy as np

    from minding_lab import developing

    a, rotation = mobius_from_seed(seed)
    for name, u, z, phi, dphi, exact_distance in _developing_oracles(n):
        g = u.grid
        h2 = g.h**2
        dev = developing.develop(u)
        _check(checks, f"{name}_pullback", developing.pullback_isometry_check(dev, u), 50.0 * h2)
        jb, ib = g.ny // 2, g.nx // 2
        wb = phi[jb, ib]
        turn = -np.angle(dphi[jb, ib] / (1.0 - abs(wb) ** 2))
        expected = np.exp(1j * turn) * (phi - wb) / (1.0 - np.conj(wb) * phi)
        _check(checks, f"{name}_map", float(np.max(np.abs(dev.phi - expected))), 100.0 * h2)
        _check(checks, f"{name}_path_residual", developing.develop_path_residual(u), 1e-4)
        # distances between lattice nodes, read through the developed map
        # after a seeded automorphism, against the model's closed form
        idx = np.linspace(0, g.nx - 1, 5).astype(int)
        nodes = [(j, i) for j in idx for i in idx]
        pairs = [(p, q) for k, p in enumerate(nodes) for q in nodes[k + 1:]]
        moved = developing.mobius_disk(dev.phi, a=a, rotation=rotation)
        w1 = np.array([moved[p] for p, _ in pairs])
        w2 = np.array([moved[q] for _, q in pairs])
        z1 = np.array([z[p] for p, _ in pairs])
        z2 = np.array([z[q] for _, q in pairs])
        gap = np.abs(developing.hyperbolic_distance(w1, w2) - exact_distance(z1, z2))
        _check(checks, f"{name}_distance", float(gap.max()), 100.0 * h2)


def _bootstrap_checks(checks, n):
    from minding_lab import conformal, elliptic

    for name in ("half_plane_pseudosphere", "poincare_disk_patch"):
        _, _, extras = conformal.catalog_chart(name, n)
        u = extras["u"]
        _check(checks, f"{name}_bootstrap", elliptic.bootstrap_equivalence(u), 20.0 * u.grid.h**2)


def run_checks(n: int, seed: int) -> list[dict]:
    checks: list[dict] = []
    _frame_checks(checks, n)
    _pseudosphere_checks(checks, n)
    _weak_lemma_checks(checks, n)
    _developing_checks(checks, n, seed)
    _bootstrap_checks(checks, n)
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checks = run_checks(N, args.seed)
    passed = all(c["passed"] for c in checks)
    sys.stdout.write(json.dumps({"checks": checks, "passed": passed}, sort_keys=True, indent=2) + "\n")
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
