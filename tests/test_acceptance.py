"""End-to-end acceptance: one test per headline guarantee.

Each test pins a user-facing promise of the package at its stated
tolerance on the stated grid; module-level unit tests live next to
their modules.  Gates are h-scaled where the promise is a convergence
statement and absolute where it is a verdict.
"""

import json

import numpy as np

from minding_lab import cli
from minding_lab.chebyshev import (
    corollary_conditions,
    integrate_frame,
    one_soliton_angle,
)
from minding_lab.conformal import (
    catalog_chart,
    flatten_conformal,
    inner_image_grid,
    resample_to_image,
)
from minding_lab.developing import (
    DevelopingMap,
    _invariant,
    develop,
    pullback_isometry_check,
    u_from_phi,
)
from minding_lab.elliptic import bootstrap_equivalence, solve_liouville_newton
from minding_lab.forms import (
    MetricField,
    SecondForm,
    gauss_curvature_from_forms,
    gauss_curvature_isothermic,
    induced_metric,
    isothermic_connection,
    normal_and_second_form,
)
from minding_lab.grid import Grid2D, ScalarField, fd_laplacian
from minding_lab.weak import (
    bump_lattice,
    frame_weak_compatibility,
    liouville_weak_residual,
    mixed_partials_check,
    product_rule_check,
    product_rule_pointwise_residual,
)


def soliton_grid(n):
    return Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, n, n)


def synthesis_residuals(n):
    g = soliton_grid(n)
    fr = integrate_frame(one_soliton_angle(g))
    corollary = corollary_conditions(fr.surface).max_residual()
    metric = induced_metric(fr.surface.f)
    _, second = normal_and_second_form(fr.surface.f)
    K = gauss_curvature_from_forms(metric, second)
    curvature = float(np.max(np.abs(K[2:-2, 2:-2] + 1.0)))
    return g, corollary, curvature


def developing_pairs(n):
    """Closed-form (map, log-factor) pairs used as developing oracles."""
    g1 = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, n, n)
    X, Y = g1.mesh()
    z = X + 1j * Y
    hp = (
        g1,
        ScalarField(g1, -np.log(Y)),
        (z - 1j) / (z + 1j),
        2j / (z + 1j) ** 2,
    )
    half = 0.5 / np.sqrt(2.0)
    g2 = Grid2D.from_bounds(-half, half, -half, half, n, n)
    X, Y = g2.mesh()
    z = X + 1j * Y
    disk = (
        g2,
        ScalarField(g2, np.log(2.0 / (1.0 - X**2 - Y**2))),
        z,
        np.ones_like(z),
    )
    return hp, disk


def mobius_normalize(phi, dphi, jb, ib):
    """Post-compose with the disk automorphism fixing base -> 0, phi' > 0."""
    wb = phi[jb, ib]
    rot = -np.angle(dphi[jb, ib] / (1.0 - np.abs(wb) ** 2))
    return np.exp(1j * rot) * (phi - wb) / (1.0 - np.conj(wb) * phi)


def liouville_defect(u):
    """Interior max of |lap u - e^{2u}| / e^{2u} (curvature-defect form)."""
    rhs = np.exp(2.0 * u.values[1:-1, 1:-1])
    return float(np.max(np.abs(fd_laplacian(u.values, u.grid) - rhs) / rhs))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_soliton_synthesis_and_curvature_converge():
    g, corollary, curvature = synthesis_residuals(129)
    assert corollary <= 50.0 * g.h**2
    assert curvature <= 50.0 * g.h**2
    _, corollary2, curvature2 = synthesis_residuals(257)
    assert corollary / corollary2 >= 3.5
    assert curvature / curvature2 >= 3.5
    print(f"synthesis 129^2: net {corollary:.3e}, |K+1| {curvature:.3e}, "
          f"ratios {corollary / corollary2:.2f} / {curvature / curvature2:.2f}")


def test_log_factor_identity_scalar_and_frame_entry():
    for name in ("half_plane_pseudosphere", "poincare_disk_patch"):
        _, _, extras = catalog_chart(name, 129)
        u = extras["u"]
        assert liouville_defect(u) <= 10.0 * u.grid.h**2, name

    # pseudosphere-of-revolution second form over the same factor: the
    # (1,2) elementary-matrix weak residual collapses onto the scalar
    # weak curvature identity up to sign
    g = Grid2D.from_bounds(0.0, 1.0, 1.4, 2.4, 129, 129)
    _, Y = g.mesh()
    root = np.sqrt(Y**2 - 1.0)
    second = SecondForm(g, root / Y**2, np.zeros_like(Y), -1.0 / (Y**2 * root))
    A, B = isothermic_connection(ScalarField(g, 1.0 / Y), second)
    tests = bump_lattice(g)
    entry = frame_weak_compatibility(A, B, g, tests).residuals[1::9]
    scalar = liouville_weak_residual(ScalarField(g, -np.log(Y)), tests)
    worst = max(abs(a + b) for a, b in zip(entry, scalar.residuals, strict=True))
    assert worst <= 10.0 * g.h**2
    print(f"frame (1,2) entry vs scalar residual: {worst:.3e}")


def test_weak_lemmas_pass_and_step_control_fails():
    g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 65, 65)
    lattice = bump_lattice(g)
    gate = 10.0 * g.h**2

    smooth = ScalarField.from_function(g, lambda X, Y: np.sin(1.3 * X) * np.exp(0.4 * Y))
    kink = ScalarField.from_function(g, lambda X, Y: np.abs(X - 0.5) ** 1.5)
    assert mixed_partials_check(smooth, lattice).max_abs() <= gate
    assert mixed_partials_check(kink, lattice).max_abs() <= gate

    P = ScalarField.from_function(g, lambda X, Y: X)
    L = ScalarField.from_function(g, lambda X, Y: np.abs(Y - 0.5))
    assert product_rule_check(P, L, lattice).max_abs() <= gate

    # step-discontinuous factor against the raw-derivative expansion:
    # stays at |P'| near the jump, two orders above the weak gate
    P2 = ScalarField.from_function(g, lambda X, Y: np.sin(1.0 + Y))
    step = ScalarField.from_function(
        g, lambda X, Y: np.where(Y > 0.5 + 0.3 * g.dy, 1.0, -1.0)
    )
    control = product_rule_pointwise_residual(P2, step, axis="y")
    assert control >= 0.5 * abs(np.cos(1.5))
    assert control >= 10.0 * gate
    print(f"weak lemmas pass at {gate:.2e}; step control holds at {control:.3e}")


def test_bootstrap_and_newton_converge():
    for name in ("half_plane_pseudosphere", "poincare_disk_patch"):
        _, _, extras = catalog_chart(name, 129)
        u = extras["u"]
        gate = 20.0 * u.grid.h**2
        assert bootstrap_equivalence(u) <= gate, name
        sol = solve_liouville_newton(u.grid, u.values)
        assert sol.iterations <= 8, name
        err = float(np.max(np.abs(sol.u.values[1:-1, 1:-1] - u.values[1:-1, 1:-1])))
        assert err <= gate, name
        print(f"{name}: bootstrap ok, Newton {sol.iterations} iters, err {err:.3e}")


def test_developing_map_oracles_and_rejection():
    for g, u, phi_exact, dphi_exact in developing_pairs(129):
        dev = develop(u)
        assert pullback_isometry_check(dev, u) <= 50.0 * g.h**2
        jb, ib = g.ny // 2, g.nx // 2
        expected = mobius_normalize(phi_exact, dphi_exact, jb, ib)
        assert float(np.max(np.abs(dev.phi - expected))) <= 100.0 * g.h**2
        T = _invariant(u)
        assert float(np.max(np.abs(T))) <= 10.0 * g.h**2

    g = developing_pairs(65)[1][0]
    flat = ScalarField(g, np.zeros(g.shape))
    assert pullback_isometry_check(develop(flat), flat) > 50.0 * g.h**2
    print("both developing oracles recovered; flat factor rejected")


def test_end_to_end_pipeline_verdicts(capsys):
    code, _ = run_cli(capsys, "verify-minding", "--catalog",
                      "half_plane_pseudosphere", "--n", "129")
    assert code == 0

    code, report = run_cli(capsys, "verify-minding", "--catalog",
                           "one_soliton", "--n", "129")
    assert code == 0
    pull = next(s for s in report["stages"] if s["name"] == "pullback_isometry")
    assert pull["measured"] <= 1e-2

    for control in ("flat_plane", "sphere_patch"):
        code, report = run_cli(capsys, "verify-minding", "--catalog",
                               control, "--n", "65")
        assert code != 0, control
        assert report["failed_stage"] == "curvature", control
    print(f"end to end: soliton pullback {pull['measured']:.3e}, controls rejected")


def test_isothermic_flattening_accuracy():
    metric, exact, _ = catalog_chart("flat_plane", 129)
    chart = flatten_conformal(metric)
    assert chart.anisotropy <= 1e-6
    assert chart.skew <= 1e-6
    assert float(np.max(np.abs(chart.X.values - exact.X.values))) <= 1e-6
    assert float(np.max(np.abs(chart.Y.values - exact.Y.values))) <= 1e-6

    g = soliton_grid(129)
    theta = one_soliton_angle(g)
    ones = np.ones(g.shape)
    chart = flatten_conformal(MetricField(g, ones, np.cos(theta.values), ones))
    assert chart.anisotropy <= 1e-3
    assert chart.skew <= 1e-3
    image = inner_image_grid(chart, 129)
    h_img = resample_to_image(chart.h, chart, image)
    K = gauss_curvature_isothermic(h_img)
    defect = float(np.max(np.abs(K[1:-1, 1:-1] + 1.0)))
    assert defect <= 1e-2
    print(f"flattening: soliton anisotropy {chart.anisotropy:.2e}, "
          f"skew {chart.skew:.2e}, |K+1| {defect:.3e}")


def test_exponent_calibration_audit():
    half = 0.7 / np.sqrt(2.0)
    g = Grid2D.from_bounds(-half, half, -half, half, 129, 129)
    X, Y = g.mesh()
    dev = DevelopingMap(g, X + 1j * Y, np.ones(g.shape, dtype=complex))
    residual_half = liouville_defect(u_from_phi(dev, 0.5))
    residual_quarter = liouville_defect(u_from_phi(dev, 0.25))
    assert residual_half <= 10.0 * g.h**2
    assert residual_quarter >= 0.5
    print(f"calibration: exponent 1/2 residual {residual_half:.3e}, "
          f"exponent 1/4 residual {residual_quarter:.3e}")
