"""Command line driver for the verification pipeline.

Subcommands expose each module step (synthesize, metric, flatten,
liouville-check, solve, develop) plus the end-to-end chain
(verify-minding) and CSV export for plotting.  Reports are JSON with a
fixed key order and no timestamps, so identical configurations produce
byte-identical output.

Exit codes: 0 all gates passed, 2 unusable configuration or missing
input, 3 a residual exceeded its gate, 4 a solver gave up.  Any other
exception is a programming error and propagates with its traceback.

Only the standard library is imported at module level: numpy reads its
threading environment once at import time, so the MINDING_LAB_THREADS
cap must be applied before anything numeric loads.  Every command body
imports what it needs after that.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

EXIT_PASS = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_SOLVER = 4

SURFACE_SOURCES = ("one_soliton",)
CHART_SOURCES = ("half_plane_pseudosphere", "poincare_disk_patch")
CONTROL_SOURCES = ("flat_plane", "sphere_patch")
CATALOG = SURFACE_SOURCES + CHART_SOURCES + CONTROL_SOURCES


class ConfigError(ValueError):
    """Unusable command line or config file input."""


@dataclass(frozen=True)
class PipelineConfig:
    """One resolved surface source plus run parameters.

    Exactly one of the source slots must be set.  ``seed`` is recorded
    in reports for forward compatibility; the test-function lattice is
    deterministic and does not consume it.
    """

    catalog: str | None = None
    theta_file: str | None = None
    surface_file: str | None = None
    metric_file: str | None = None
    factor_file: str | None = None
    n: int = 129
    tol_scale: float = 1.0
    out_dir: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        sources = [
            s
            for s in (
                self.catalog,
                self.theta_file,
                self.surface_file,
                self.metric_file,
                self.factor_file,
            )
            if s is not None
        ]
        if len(sources) != 1:
            raise ConfigError("exactly one surface source is required")
        if self.catalog is not None and self.catalog not in CATALOG:
            raise ConfigError(
                f"unknown catalog source {self.catalog!r}; choose from {', '.join(CATALOG)}"
            )
        if self.n < 9:
            raise ConfigError("grid needs at least 9 nodes per side")
        if not self.tol_scale > 0.0:
            raise ConfigError("tolerance scale must be positive")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for name in ("theta_file", "surface_file", "metric_file", "factor_file"):
            path = getattr(self, name)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name.replace('_', ' ')} not found: {path}")

    def as_dict(self) -> dict:
        return {
            "catalog": self.catalog,
            "theta_file": self.theta_file,
            "surface_file": self.surface_file,
            "metric_file": self.metric_file,
            "factor_file": self.factor_file,
            "n": self.n,
            "tol_scale": self.tol_scale,
            "out_dir": self.out_dir,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# report plumbing


class _Run:
    """Accumulates stage results and artifact files for one command."""

    def __init__(self, command: str, config: PipelineConfig) -> None:
        self.command = command
        self.config = config
        self.stages: list[dict] = []
        self.artifacts: dict[str, tuple] = {}
        self.solver_error = False
        self.extra: dict = {}

    def gate(self, name: str, measured: float, gate: float, **info) -> bool:
        entry = {
            "name": name,
            "measured": float(measured),
            "gate": float(gate),
            "passed": bool(measured <= gate),
        }
        entry.update(info)
        self.stages.append(entry)
        return entry["passed"]

    def fail(self, name: str, exc: Exception) -> None:
        self.stages.append({"name": name, "passed": False, "error": str(exc)})
        self.solver_error = True

    def note(self, name: str, **info) -> None:
        self.stages.append({"name": name, "passed": True, **info})

    def report(self) -> dict:
        failed = next((s["name"] for s in self.stages if not s["passed"]), None)
        doc = {
            "command": self.command,
            "config": self.config.as_dict(),
            "version": _version(),
            "stages": self.stages,
            "passed": failed is None,
            "failed_stage": failed,
        }
        if self.solver_error:
            doc["solver_error"] = True
        doc.update(self.extra)
        return doc

    def exit_code(self) -> int:
        if all(s["passed"] for s in self.stages):
            return EXIT_PASS
        return EXIT_SOLVER if self.solver_error else EXIT_TOLERANCE


def _version() -> str:
    from minding_lab import __version__

    return __version__


def _emit(run: _Run) -> int:
    report = run.report()
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    for stage in report["stages"]:
        mark = "ok" if stage["passed"] else "FAIL"
        if "measured" in stage:
            line = (
                f"[{mark:>4}] {stage['name']}: measured {stage['measured']:.3e}"
                f" gate {stage['gate']:.3e}"
            )
        else:
            line = f"[{mark:>4}] {stage['name']}: {stage.get('error', '')}"
        print(line, file=sys.stderr)
    if run.config.out_dir is not None:
        out = Path(run.config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text)
        from minding_lab.fieldio import write_field

        for name, (grid, channels) in run.artifacts.items():
            write_field(out / name, grid, channels)
    return run.exit_code()


# ---------------------------------------------------------------------------
# source construction


def _source_grid(config: PipelineConfig):
    from minding_lab.grid import Grid2D

    n = config.n
    return Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, n, n)


def _load_angle(config: PipelineConfig):
    from minding_lab.chebyshev import AngleField, one_soliton_angle
    from minding_lab.fieldio import read_field
    from minding_lab.grid import ScalarField

    if config.catalog == "one_soliton":
        return one_soliton_angle(_source_grid(config))
    grid, channels = read_field(config.theta_file)
    if "theta" not in channels:
        raise ConfigError(f"{config.theta_file}: no 'theta' channel")
    return AngleField(ScalarField(grid, channels["theta"]))


def _load_surface(config: PipelineConfig):
    """Rebuild an embedded surface from a field file."""
    from minding_lab.chebyshev import AngleField, ChebyshevSurface
    from minding_lab.fieldio import read_field
    from minding_lab.grid import ScalarField, VectorField3
    import numpy as np

    grid, channels = read_field(config.surface_file)
    for c in ("fx", "fy", "fz", "Nx", "Ny", "Nz", "theta"):
        if c not in channels:
            raise ConfigError(f"{config.surface_file}: no {c!r} channel")
    f = VectorField3(grid, np.stack([channels["fx"], channels["fy"], channels["fz"]], axis=-1))
    N = VectorField3(grid, np.stack([channels["Nx"], channels["Ny"], channels["Nz"]], axis=-1))
    theta = AngleField(ScalarField(grid, channels["theta"]))
    return ChebyshevSurface(f, N, theta)


def _control_metric(config: PipelineConfig):
    from minding_lab.forms import MetricField
    from minding_lab.grid import Grid2D
    import numpy as np

    n = config.n
    if config.catalog == "flat_plane":
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, n, n)
        shear = np.full(g.shape, np.cos(np.pi / 3.0))
        return MetricField(g, np.ones(g.shape), shear, np.ones(g.shape))
    g = Grid2D.from_bounds(-0.35, 0.35, -0.35, 0.35, n, n)
    X, Y = g.mesh()
    h = 2.0 / (1.0 + X**2 + Y**2)
    return MetricField(g, h**2, np.zeros(g.shape), h**2)


def _load_metric(config: PipelineConfig):
    from minding_lab.fieldio import read_field
    from minding_lab.forms import MetricField

    grid, channels = read_field(config.metric_file)
    for c in ("E", "F", "G"):
        if c not in channels:
            raise ConfigError(f"{config.metric_file}: no {c!r} channel")
    return MetricField(grid, channels["E"], channels["F"], channels["G"])


def _load_factor(config: PipelineConfig):
    from minding_lab.fieldio import read_field
    from minding_lab.grid import ScalarField

    grid, channels = read_field(config.factor_file)
    if "u" not in channels:
        raise ConfigError(f"{config.factor_file}: no 'u' channel")
    return ScalarField(grid, channels["u"])


# ---------------------------------------------------------------------------
# pipeline stages


def _synthesis_stages(run: _Run, theta):
    """Angle compatibility, frame integration, and the construction
    invariants; returns the surface or None after a failed gate."""
    from minding_lab.chebyshev import corollary_conditions, integrate_frame, sine_gordon_residual
    from minding_lab.chebyshev import IncompatibleAngleError, SingularAngleError

    h2 = theta.grid.h**2
    scale = run.config.tol_scale
    sg = sine_gordon_residual(theta).interior_abs_max()
    if not run.gate("sine_gordon", sg, 50.0 * h2 * scale):
        return None
    try:
        result = integrate_frame(theta)
    except (IncompatibleAngleError, SingularAngleError) as exc:
        run.fail("frame_integration", exc)
        return None
    path = max(result.path_residual_f, result.path_residual_frame)
    if not run.gate("frame_path_independence", path, 50.0 * h2 * scale):
        return None
    report = corollary_conditions(result.surface)
    worst = max(report.as_dict().values())
    if not run.gate("corollary_conditions", worst, 50.0 * h2 * scale,
                    residuals=report.as_dict()):
        return None
    return result.surface


def _store_surface(run: _Run, surface) -> None:
    run.artifacts["theta.json"] = (
        surface.theta.grid,
        {"theta": surface.theta.theta.values},
    )
    run.artifacts["surface.json"] = (
        surface.f.grid,
        {
            "fx": surface.f.values[..., 0],
            "fy": surface.f.values[..., 1],
            "fz": surface.f.values[..., 2],
            "Nx": surface.N.values[..., 0],
            "Ny": surface.N.values[..., 1],
            "Nz": surface.N.values[..., 2],
            "theta": surface.theta.theta.values,
        },
    )


def _store_developing(run: _Run, dev) -> None:
    run.artifacts["developing.json"] = (
        dev.grid,
        {
            "phi_re": dev.phi.real,
            "phi_im": dev.phi.imag,
            "dphi_re": dev.dphi.real,
            "dphi_im": dev.dphi.imag,
        },
    )


def _embedded_metric_stages(run: _Run, surface):
    """Induced metric plus the pointwise curvature precondition."""
    import numpy as np

    from minding_lab.forms import (
        DegenerateMetricError,
        gauss_curvature_from_forms,
        induced_metric,
        normal_and_second_form,
    )

    scale = run.config.tol_scale
    g = surface.f.grid
    try:
        metric = induced_metric(surface.f)
    except DegenerateMetricError as exc:
        run.fail("induced_metric", exc)
        return None
    dev = max(
        np.abs(metric.E - 1.0).max(),
        np.abs(metric.G - 1.0).max(),
        np.abs(metric.F - np.cos(surface.theta.theta.values)).max(),
    )
    if not run.gate("chebyshev_metric", dev, 50.0 * g.h**2 * scale):
        return None
    _, second = normal_and_second_form(surface.f)
    K = gauss_curvature_from_forms(metric, second)
    worst = float(np.nanmax(np.abs(K.values + 1.0)))
    if not run.gate("curvature", worst, 1e-2 * scale,
                    k_center=float(K.values[g.ny // 2, g.nx // 2])):
        return None
    run.artifacts["metric.json"] = (g, {"E": metric.E, "F": metric.F, "G": metric.G})
    return metric


def _flatten_stages(run: _Run, metric, *, curvature_gate: float | None):
    """Flatten, resample onto the image grid, and (optionally) gate the
    recovered curvature there; returns the raw image factor or None.

    The image-grid curvature is the only one available for metric-only
    sources.  Differentiating the resampled factor twice amplifies
    node-scale noise by 1/h^2, so embedded sources gate curvature on
    their fundamental forms instead and pass None here.
    """
    import numpy as np

    from minding_lab.conformal import (
        ConformalError,
        flatten_conformal,
        inner_image_grid,
        resample_to_image,
    )
    from minding_lab.forms import gauss_curvature_isothermic

    scale = run.config.tol_scale
    try:
        chart = flatten_conformal(metric, anisotropy_tol=1e-3 * scale)
    except ConformalError as exc:
        run.fail("flatten", exc)
        return None
    if not run.gate("flatten", max(chart.anisotropy, chart.skew), 1e-3 * scale,
                    anisotropy=chart.anisotropy, skew=chart.skew):
        return None
    run.artifacts["chart.json"] = (
        chart.grid,
        {"X": chart.X.values, "Y": chart.Y.values, "h": chart.h.values},
    )
    try:
        image = inner_image_grid(chart, run.config.n)
        h_img = resample_to_image(chart.h, chart, image)
    except ConformalError as exc:
        run.fail("image_resample", exc)
        return None
    if curvature_gate is not None:
        K = gauss_curvature_isothermic(h_img)
        worst = float(np.nanmax(np.abs(K.values[2:-2, 2:-2] + 1.0)))
        ny, nx = image.shape
        if not run.gate("curvature", worst, curvature_gate * scale,
                        k_center=float(K.values[ny // 2, nx // 2])):
            return None
    return h_img


def _factor_stages(run: _Run, h_img, gates: dict):
    """Rescale to the unit-curvature normalization, then the weak,
    bootstrap, and developing checks; gates in absolute units."""
    import numpy as np

    from minding_lab.conformal import ConformalError, rescale_to_liouville
    from minding_lab.developing import DevelopError, develop, pullback_isometry_check
    from minding_lab.elliptic import EllipticError, bootstrap_equivalence
    from minding_lab.grid import GridError, ScalarField
    from minding_lab.weak import bump_lattice, liouville_weak_residual

    scale = run.config.tol_scale
    try:
        h_fit, fit = rescale_to_liouville(h_img)
    except ConformalError as exc:
        run.fail("rescale", exc)
        return None
    if not run.gate("rescale", abs(fit - 1.0), gates["rescale"] * scale, fit=fit):
        return None
    u = ScalarField(h_fit.grid, np.log(h_fit.values))
    run.artifacts["factor.json"] = (u.grid, {"u": u.values, "h": h_fit.values})

    try:
        weak = liouville_weak_residual(u, bump_lattice(u.grid))
    except GridError as exc:
        run.fail("liouville_weak", exc)
        return None
    if not run.gate("liouville_weak", weak.max_abs(), gates["weak"] * scale,
                    test_count=weak.count):
        return None
    try:
        gap = bootstrap_equivalence(u)
    except EllipticError as exc:
        run.fail("bootstrap", exc)
        return None
    if not run.gate("bootstrap", gap, gates["bootstrap"] * scale):
        return None
    try:
        dev = develop(u, pullback_tol=float("inf"))
    except (DevelopError, GridError) as exc:
        run.fail("develop", exc)
        return None
    _store_developing(run, dev)
    pull = pullback_isometry_check(dev, u)
    if not run.gate("pullback_isometry", pull, gates["pullback"] * scale):
        return None
    return dev, u


def _calibration_block(dev, u) -> dict:
    """Equation residual of the developed factor under both exponent
    conventions; the order-one gap is the recorded normalization fact."""
    import numpy as np

    from minding_lab.developing import u_from_phi
    from minding_lab.grid import fd_laplacian

    out = {}
    for label, exponent in (("exponent_half", 0.5), ("exponent_quarter", 0.25)):
        uc = u_from_phi(dev, exponent=exponent)
        e2u = np.exp(2.0 * uc.values)
        defect = np.abs(fd_laplacian(uc).values - e2u) / e2u
        out[label] = float(np.nanmax(defect[2:-2, 2:-2]))
    return out


def _chart_catalog_stages(run: _Run, name: str):
    """Catalog chart path: the chart is the identity, so every check
    runs on the source grid with the h-scaled gates."""
    import numpy as np

    from minding_lab.conformal import catalog_chart
    from minding_lab.forms import gauss_curvature_isothermic

    _, chart, extras = catalog_chart(name, run.config.n)
    g = chart.grid
    h2 = g.h**2
    scale = run.config.tol_scale
    run.artifacts["chart.json"] = (
        g, {"X": chart.X.values, "Y": chart.Y.values, "h": chart.h.values}
    )
    K = gauss_curvature_isothermic(chart.h)
    worst = float(np.nanmax(np.abs(K.values[2:-2, 2:-2] + 1.0)))
    if not run.gate("curvature", worst, 10.0 * h2 * scale,
                    k_center=float(K.values[g.ny // 2, g.nx // 2])):
        return None
    gates = {
        "rescale": 10.0 * h2,
        "weak": 10.0 * h2,
        "bootstrap": 20.0 * h2,
        "pullback": 50.0 * h2,
    }
    return _factor_stages(run, chart.h, gates)


SYNTHESIZED_GATES = {
    "rescale": 1e-2,
    "weak": 1e-2,
    "bootstrap": 1e-2,
    "pullback": 1e-2,
}


# ---------------------------------------------------------------------------
# commands


def cmd_synthesize(config: PipelineConfig) -> int:
    run = _Run("synthesize", config)
    if config.catalog not in SURFACE_SOURCES and config.theta_file is None:
        raise ConfigError("synthesize needs a one_soliton catalog or a theta file")
    theta = _load_angle(config)
    surface = _synthesis_stages(run, theta)
    if surface is not None:
        _store_surface(run, surface)
    return _emit(run)


def cmd_metric(config: PipelineConfig) -> int:
    run = _Run("metric", config)
    if config.surface_file is not None:
        surface = _load_surface(config)
    elif config.catalog in SURFACE_SOURCES:
        surface = _synthesis_stages(run, _load_angle(config))
        if surface is None:
            return _emit(run)
    else:
        raise ConfigError("metric needs a surface file or the one_soliton catalog")
    metric = _embedded_metric_stages(run, surface)
    if metric is not None:
        det = metric.E * metric.G - metric.F**2
        run.note("metric_det", min_det=float(det.min()))
    return _emit(run)


def cmd_flatten(config: PipelineConfig) -> int:
    run = _Run("flatten", config)
    metric = _resolve_metric(run, config)
    if metric is not None:
        _flatten_stages(run, metric, curvature_gate=None)
    return _emit(run)


def _resolve_metric(run: _Run, config: PipelineConfig):
    if config.metric_file is not None:
        return _load_metric(config)
    if config.catalog in CONTROL_SOURCES:
        return _control_metric(config)
    if config.catalog in CHART_SOURCES:
        from minding_lab.conformal import catalog_chart

        metric, _, _ = catalog_chart(config.catalog, config.n)
        return metric
    if config.catalog in SURFACE_SOURCES or config.theta_file is not None:
        surface = _synthesis_stages(run, _load_angle(config))
        if surface is None:
            return None
        return _embedded_metric_stages(run, surface)
    if config.surface_file is not None:
        return _embedded_metric_stages(run, _load_surface(config))
    raise ConfigError("no metric source in configuration")


def cmd_liouville_check(config: PipelineConfig) -> int:
    import numpy as np

    from minding_lab.grid import fd_laplacian
    from minding_lab.weak import bump_lattice, liouville_weak_residual

    run = _Run("liouville-check", config)
    u = _resolve_factor(run, config)
    if u is None:
        return _emit(run)
    h2 = u.grid.h**2
    scale = config.tol_scale
    weak = liouville_weak_residual(u, bump_lattice(u.grid))
    run.gate("liouville_weak", weak.max_abs(), 10.0 * h2 * scale,
             test_count=weak.count)
    e2u = np.exp(2.0 * u.values)
    defect = np.abs(fd_laplacian(u).values - e2u) / e2u
    run.gate("curvature_defect", float(np.nanmax(defect[2:-2, 2:-2])),
             10.0 * h2 * scale)
    return _emit(run)


def _resolve_factor(run: _Run, config: PipelineConfig):
    if config.factor_file is not None:
        return _load_factor(config)
    if config.catalog in CHART_SOURCES:
        from minding_lab.conformal import catalog_chart

        _, _, extras = catalog_chart(config.catalog, config.n)
        return extras["u"]
    raise ConfigError("this command needs a factor file or a catalog chart source")


def cmd_solve(config: PipelineConfig) -> int:
    import numpy as np

    from minding_lab.elliptic import EllipticError, solve_liouville_newton

    run = _Run("solve", config)
    u_ref = _resolve_factor(run, config)
    if u_ref is None:
        return _emit(run)
    h2 = u_ref.grid.h**2
    scale = config.tol_scale
    try:
        solution = solve_liouville_newton(u_ref.grid, u_ref)
    except EllipticError as exc:
        run.fail("newton", exc)
        return _emit(run)
    run.gate("newton_iterations", float(solution.iterations), 8.0,
             residuals=list(solution.residuals))
    err = float(np.abs(solution.u.values - u_ref.values)[1:-1, 1:-1].max())
    run.gate("newton_accuracy", err, 20.0 * h2 * scale)
    run.artifacts["factor.json"] = (u_ref.grid, {"u": solution.u.values})
    return _emit(run)


def cmd_develop(config: PipelineConfig) -> int:
    from minding_lab.developing import DevelopError, develop, pullback_isometry_check
    from minding_lab.grid import GridError

    run = _Run("develop", config)
    u = _resolve_factor(run, config)
    if u is None:
        return _emit(run)
    h2 = u.grid.h**2
    try:
        dev = develop(u, pullback_tol=float("inf"))
    except (DevelopError, GridError) as exc:
        run.fail("develop", exc)
        return _emit(run)
    _store_developing(run, dev)
    run.gate("pullback_isometry", pullback_isometry_check(dev, u),
             50.0 * h2 * config.tol_scale)
    run.extra["calibration"] = _calibration_block(dev, u)
    return _emit(run)


def cmd_verify_minding(config: PipelineConfig) -> int:
    run = _Run("verify-minding", config)
    if config.catalog in CHART_SOURCES:
        result = _chart_catalog_stages(run, config.catalog)
        if result is not None:
            run.extra["calibration"] = _calibration_block(*result)
        return _emit(run)
    if config.catalog in CONTROL_SOURCES or config.metric_file is not None:
        metric = (
            _control_metric(config)
            if config.metric_file is None
            else _load_metric(config)
        )
        h_img = _flatten_stages(run, metric, curvature_gate=1e-2)
        if h_img is not None:
            _factor_stages(run, h_img, SYNTHESIZED_GATES)
        return _emit(run)
    # embedded path: angle or surface file
    if config.catalog in SURFACE_SOURCES or config.theta_file is not None:
        surface = _synthesis_stages(run, _load_angle(config))
        if surface is None:
            return _emit(run)
        _store_surface(run, surface)
    elif config.surface_file is not None:
        surface = _load_surface(config)
    else:
        raise ConfigError("verify-minding needs a catalog, theta, surface, or metric source")
    metric = _embedded_metric_stages(run, surface)
    if metric is None:
        return _emit(run)
    h_img = _flatten_stages(run, metric, curvature_gate=None)
    if h_img is None:
        return _emit(run)
    _factor_stages(run, h_img, SYNTHESIZED_GATES)
    return _emit(run)


PLOT_SOURCES = {
    "f.csv": ("surface.json", ("fx", "fy", "fz")),
    "theta.csv": ("theta.json", ("theta",)),
    "h.csv": ("chart.json", ("h",)),
    "u.csv": ("factor.json", ("u",)),
}


def cmd_export_plots(out_dir: str | None, force: bool) -> int:
    import numpy as np

    from minding_lab.fieldio import read_field, write_csv

    if out_dir is None:
        raise ConfigError("export-plots needs --out pointing at a prior run")
    out = Path(out_dir)
    report_path = out / "report.json"
    if not report_path.is_file():
        raise ConfigError(f"no report.json under {out}; run a pipeline command first")
    plots = out / "plots"
    if plots.exists():
        if not force:
            raise ConfigError(f"{plots} already exists; pass --force to recreate")
        shutil.rmtree(plots)
    plots.mkdir(parents=True)

    written = []
    for csv_name, (source, channels) in PLOT_SOURCES.items():
        path = out / source
        if not path.is_file():
            continue
        grid, data = read_field(path)
        write_csv(plots / csv_name, grid, {c: data[c] for c in channels if c in data})
        written.append(csv_name)
    dev_path = out / "developing.json"
    if dev_path.is_file():
        grid, data = read_field(dev_path)
        write_csv(
            plots / "phi.csv",
            grid,
            {"phi_abs": np.hypot(data["phi_re"], data["phi_im"])},
        )
        written.append("phi.csv")

    report = json.loads(report_path.read_text())
    with open(plots / "residuals.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["stage", "measured", "gate", "passed"])
        for stage in report["stages"]:
            writer.writerow(
                [
                    stage["name"],
                    stage.get("measured", ""),
                    stage.get("gate", ""),
                    stage["passed"],
                ]
            )
    written.append("residuals.csv")
    print(json.dumps({"command": "export-plots", "written": sorted(written)},
                     sort_keys=True, indent=2))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minding-lab",
        description="Verify the constant-curvature isometry pipeline step by step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", help=f"built-in source: {', '.join(CATALOG)}")
    common.add_argument("--theta-file", help="angle field file (channel theta)")
    common.add_argument("--surface-file", help="surface field file (fx..Nz, theta)")
    common.add_argument("--metric-file", help="metric field file (E, F, G)")
    common.add_argument("--factor-file", help="log-factor field file (channel u)")
    common.add_argument("--n", type=int, help="nodes per side (default 129)")
    common.add_argument("--tol-scale", type=float, help="multiplies every gate")
    common.add_argument("--out", help="directory for report.json and field files")
    common.add_argument("--seed", type=int, help="recorded in the report")
    common.add_argument("--config", help="JSON file with defaults for these flags")
    for name in (
        "synthesize",
        "metric",
        "flatten",
        "liouville-check",
        "solve",
        "develop",
        "verify-minding",
    ):
        sub.add_parser(name, parents=[common])
    export = sub.add_parser("export-plots", parents=[common])
    export.add_argument("--force", action="store_true",
                        help="recreate the plots directory if it exists")
    return parser


_CONFIG_KEYS = (
    "catalog",
    "theta_file",
    "surface_file",
    "metric_file",
    "factor_file",
    "n",
    "tol_scale",
    "out",
    "seed",
)


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's flag defaults, or none without one."""
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {args.config}")
    try:
        defaults = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(defaults, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object of flag defaults")
    unknown = set(defaults) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
    return defaults


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    defaults = _config_defaults(args)

    def pick(key, fallback=None):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return defaults.get(key, fallback)

    return PipelineConfig(
        catalog=pick("catalog"),
        theta_file=pick("theta_file"),
        surface_file=pick("surface_file"),
        metric_file=pick("metric_file"),
        factor_file=pick("factor_file"),
        n=int(pick("n", 129)),
        tol_scale=float(pick("tol_scale", 1.0)),
        out_dir=pick("out"),
        seed=pick("seed"),
    )


def _apply_thread_cap() -> None:
    cap = os.environ.get("MINDING_LAB_THREADS")
    if cap is None:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"MINDING_LAB_THREADS must be a positive integer, got {cap!r}")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "metric": cmd_metric,
    "flatten": cmd_flatten,
    "liouville-check": cmd_liouville_check,
    "solve": cmd_solve,
    "develop": cmd_develop,
    "verify-minding": cmd_verify_minding,
}


def _solver_errors() -> tuple:
    """The package's solver breakdowns, reported with exit 4.

    Imported on demand because they live next to numpy code.  Anything
    else escaping a command, apart from usage errors, is a bug and keeps
    its traceback.
    """
    from minding_lab.chebyshev import IncompatibleAngleError, SingularAngleError
    from minding_lab.conformal import ConformalError
    from minding_lab.developing import DevelopError
    from minding_lab.elliptic import EllipticError
    from minding_lab.forms import DegenerateMetricError

    return (EllipticError, ConformalError, DevelopError, IncompatibleAngleError,
            SingularAngleError, DegenerateMetricError)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_thread_cap()
        if args.command == "export-plots":
            # reads a prior run; no surface source of its own
            out = args.out if args.out is not None else _config_defaults(args).get("out")
            return cmd_export_plots(out, args.force)
        return _COMMANDS[args.command](_resolve_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        from minding_lab.grid import GridError

        if isinstance(exc, GridError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, _solver_errors()):
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        raise  # a programming error, not a verdict: keep the traceback


if __name__ == "__main__":
    sys.exit(main())
