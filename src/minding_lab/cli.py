"""Command line driver for the verification pipeline.

Subcommands expose each module step (synthesize, metric, flatten,
liouville-check, solve, develop) plus the end-to-end chain
(verify-minding) and CSV export for plotting.  Reports are JSON with a
fixed key order and no timestamps, so identical configurations produce
byte-identical output.

Exit codes: 0 all gates passed, 2 unusable configuration or missing
input, 3 a residual exceeded its gate, 4 a solver gave up.  Any other
exception is a programming error and propagates with its traceback.

Every command body records its stages on one ``_Run``.  ``gate``
records a measured residual against its gate and ends the chain when
it fails, ``check`` records one without ending it, and ``stage``
records a listed solver error as that stage's failure and ends the
chain.  ``_execute`` catches the end of the chain and emits the report
of what was recorded, so a command stops in exactly one place.

Only the standard library is imported at module level: numpy reads its
threading environment once at import time, so the MINDING_LAB_THREADS
cap must be applied before anything numeric loads.  Every command body
imports what it needs after that.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

EXIT_PASS = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_SOLVER = 4

SURFACE_SOURCES = ("one_soliton",)
CHART_SOURCES = ("half_plane_pseudosphere", "poincare_disk_patch")
CONTROL_SOURCES = ("flat_plane", "sphere_patch")
CATALOG = SURFACE_SOURCES + CHART_SOURCES + CONTROL_SOURCES

# cap on the sine-Gordon gate: beyond it an angle field is incompatible
# at any grid size
COMPATIBILITY_TOL = 1e-3


class ConfigError(ValueError):
    """Unusable command line or config file input."""


@dataclass(frozen=True)
class PipelineConfig:
    """One resolved surface source plus run parameters.

    Exactly one of the source slots must be set.
    """

    catalog: str | None = None
    theta_file: str | None = None
    surface_file: str | None = None
    metric_file: str | None = None
    factor_file: str | None = None
    n: int = 129
    tol_scale: float = 1.0
    out_dir: str | None = None

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
        if not 0.0 < self.tol_scale < math.inf:
            raise ConfigError("tolerance scale must be positive and finite")
        for name in ("theta_file", "surface_file", "metric_file", "factor_file"):
            path = getattr(self, name)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name.replace('_', ' ')} not found: {path}")

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# report plumbing


class _Stop(Exception):
    """Ends a command's stage chain; the stages recorded so far stand."""


class _Run:
    """Accumulates stage results and artifact files for one command.

    Creates the ``--out`` directory up front, so an unusable one fails
    before the first stage.
    """

    def __init__(self, command: str, config: PipelineConfig) -> None:
        self.command = command
        self.config = config
        self.stages: list[dict] = []
        self.artifacts: dict[str, tuple] = {}
        self.solver_error = False
        self.extra: dict = {}
        if config.out_dir is not None:
            try:
                Path(config.out_dir).mkdir(parents=True, exist_ok=True)
            except ValueError as exc:  # a NUL or lone surrogate, as JSON can hold
                raise ConfigError(f"unusable --out path {config.out_dir!r}: {exc}") from exc

    def check(self, name: str, measured: float, gate: float, **info) -> bool:
        entry = {
            "name": name,
            "measured": float(measured),
            "gate": float(gate),
            "passed": bool(measured <= gate),
        }
        entry.update(info)
        self.stages.append(entry)
        return entry["passed"]

    def gate(self, name: str, measured: float, gate: float, **info) -> None:
        if not self.check(name, measured, gate, **info):
            raise _Stop

    @contextmanager
    def stage(self, name: str, *errors: type):
        try:
            yield
        except errors as exc:
            self.stages.append({"name": name, "passed": False, "error": str(exc)})
            self.solver_error = True
            raise _Stop from exc

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


def _read_channels(path: str, names: tuple) -> tuple:
    """The grid of a field file and its channels ``names``, each required."""
    from minding_lab.fieldio import read_field

    grid, channels = read_field(path)
    for c in names:
        if c not in channels:
            raise ConfigError(f"{path}: no {c!r} channel")
    return grid, channels


def _load_angle(config: PipelineConfig):
    from minding_lab.chebyshev import AngleField, one_soliton_angle
    from minding_lab.grid import ScalarField

    if config.catalog == "one_soliton":
        return one_soliton_angle(_source_grid(config))
    grid, channels = _read_channels(config.theta_file, ("theta",))
    return AngleField(ScalarField(grid, channels["theta"]))


def _load_surface(config: PipelineConfig):
    """Rebuild an embedded surface from a field file."""
    from minding_lab.chebyshev import AngleField, ChebyshevSurface
    from minding_lab.grid import ScalarField, VectorField3
    import numpy as np

    grid, channels = _read_channels(config.surface_file,
                                    ("fx", "fy", "fz", "Nx", "Ny", "Nz", "theta"))
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
    from minding_lab.forms import MetricField

    grid, channels = _read_channels(config.metric_file, ("E", "F", "G"))
    return MetricField(grid, channels["E"], channels["F"], channels["G"])


def _load_factor(config: PipelineConfig):
    from minding_lab.grid import ScalarField

    grid, channels = _read_channels(config.factor_file, ("u",))
    return ScalarField(grid, channels["u"])


# ---------------------------------------------------------------------------
# pipeline stages


def _synthesis_stages(run: _Run, theta):
    """Angle compatibility, frame integration, and the construction
    invariants; returns the surface.

    The sine-Gordon gate is capped at ``COMPATIBILITY_TOL``: an angle
    field over either bound is a residual over a gate, not a solver
    failure.
    """
    from minding_lab.chebyshev import corollary_conditions, integrate_frame, sine_gordon_residual
    from minding_lab.chebyshev import SingularAngleError

    h2 = theta.grid.h**2
    scale = run.config.tol_scale
    sg = sine_gordon_residual(theta).interior_abs_max()
    run.gate("sine_gordon", sg, min(50.0 * h2 * scale, COMPATIBILITY_TOL))
    with run.stage("frame_integration", SingularAngleError):
        result = integrate_frame(theta)
    path = max(result.path_residual_f, result.path_residual_frame)
    run.gate("frame_path_independence", path, 50.0 * h2 * scale)
    report = corollary_conditions(result.surface)
    worst = max(report.as_dict().values())
    run.gate("corollary_conditions", worst, 50.0 * h2 * scale, residuals=report.as_dict())
    return result.surface


def _store_surface(run: _Run, surface) -> None:
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


def _store_chart(run: _Run, chart) -> None:
    run.artifacts["chart.json"] = (
        chart.grid,
        {"X": chart.X.values, "Y": chart.Y.values, "h": chart.h.values},
    )


def _develop_stage(run: _Run, u):
    """Develop the factor into the disk and store the map; the pullback
    is gated by the caller."""
    from minding_lab.developing import DevelopError, develop
    from minding_lab.grid import GridError

    with run.stage("develop", DevelopError, GridError):
        dev = develop(u)
    run.artifacts["developing.json"] = (
        dev.grid,
        {
            "phi_re": dev.phi.real,
            "phi_im": dev.phi.imag,
            "dphi_re": dev.dphi.real,
            "dphi_im": dev.dphi.imag,
        },
    )
    return dev


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
    with run.stage("induced_metric", DegenerateMetricError):
        metric = induced_metric(surface.f)
    dev = max(
        np.abs(metric.E - 1.0).max(),
        np.abs(metric.G - 1.0).max(),
        np.abs(metric.F - np.cos(surface.theta.theta.values)).max(),
    )
    run.gate("chebyshev_metric", dev, 50.0 * g.h**2 * scale)
    _, second = normal_and_second_form(surface.f)
    K = gauss_curvature_from_forms(metric, second)
    worst = float(np.nanmax(np.abs(K.values + 1.0)))
    run.gate("curvature", worst, 1e-2 * scale,
             k_center=float(K.values[g.ny // 2, g.nx // 2]))
    run.artifacts["metric.json"] = (g, {"E": metric.E, "F": metric.F, "G": metric.G})
    return metric


def _isothermic_curvature_stage(run: _Run, h, gate: float) -> None:
    """Gauss curvature of an isothermic factor against -1, two nodes in
    from the edge, where the second differences are centred."""
    import numpy as np

    from minding_lab.forms import gauss_curvature_isothermic

    K = gauss_curvature_isothermic(h)
    worst = float(np.nanmax(np.abs(K.values[2:-2, 2:-2] + 1.0)))
    run.gate("curvature", worst, gate,
             k_center=float(K.values[h.grid.ny // 2, h.grid.nx // 2]))


def _flatten_stages(run: _Run, metric, *, curvature_gate: float | None):
    """Flatten, resample onto the image grid, and (optionally) gate the
    recovered curvature there; returns the raw image factor.

    The image-grid curvature is the only one available for metric-only
    sources.  Differentiating the resampled factor twice amplifies
    node-scale noise by 1/h^2, so embedded sources gate curvature on
    their fundamental forms instead and pass None here.
    """
    from minding_lab.conformal import (
        ConformalError,
        flatten_conformal,
        inner_image_grid,
        resample_to_image,
    )

    scale = run.config.tol_scale
    with run.stage("flatten", ConformalError):
        chart = flatten_conformal(metric)
    run.gate("flatten", max(chart.anisotropy, chart.skew), 1e-3 * scale,
             anisotropy=chart.anisotropy, skew=chart.skew)
    _store_chart(run, chart)
    with run.stage("image_resample", ConformalError):
        image = inner_image_grid(chart, run.config.n)
        h_img = resample_to_image(chart.h, chart, image)
    if curvature_gate is not None:
        _isothermic_curvature_stage(run, h_img, curvature_gate * scale)
    return h_img


def _factor_stages(run: _Run, h_img, gates: dict):
    """Rescale to the unit-curvature normalization, then the weak,
    bootstrap, and developing checks; gates in absolute units."""
    import numpy as np

    from minding_lab.conformal import ConformalError, rescale_to_liouville
    from minding_lab.developing import pullback_isometry_check
    from minding_lab.elliptic import EllipticError, bootstrap_equivalence
    from minding_lab.grid import GridError, ScalarField
    from minding_lab.weak import bump_lattice, liouville_weak_residual

    scale = run.config.tol_scale
    with run.stage("rescale", ConformalError):
        h_fit, fit = rescale_to_liouville(h_img)
    run.gate("rescale", abs(fit - 1.0), gates["rescale"] * scale, fit=fit)
    u = ScalarField(h_fit.grid, np.log(h_fit.values))
    run.artifacts["factor.json"] = (u.grid, {"u": u.values})

    with run.stage("liouville_weak", GridError):
        weak = liouville_weak_residual(u, bump_lattice(u.grid))
    run.gate("liouville_weak", weak.max_abs(), gates["weak"] * scale, test_count=weak.count)
    with run.stage("bootstrap", EllipticError):
        gap = bootstrap_equivalence(u)
    run.gate("bootstrap", gap, gates["bootstrap"] * scale)
    dev = _develop_stage(run, u)
    run.gate("pullback_isometry", pullback_isometry_check(dev, u), gates["pullback"] * scale)
    return dev, u


def _curvature_defect(u) -> float:
    """Sup of ``|lap u - e^{2u}| / e^{2u}`` two nodes in from the edge."""
    import numpy as np

    from minding_lab.grid import fd_laplacian

    e2u = np.exp(2.0 * u.values)
    defect = np.abs(fd_laplacian(u).values - e2u) / e2u
    return float(np.nanmax(defect[2:-2, 2:-2]))


def _calibration_block(dev, u) -> dict:
    """Equation residual of the developed factor under both exponent
    conventions; the order-one gap is the recorded normalization fact."""
    from minding_lab.developing import u_from_phi

    return {label: _curvature_defect(u_from_phi(dev, exponent=exponent))
            for label, exponent in (("exponent_half", 0.5), ("exponent_quarter", 0.25))}


def _chart_catalog_stages(run: _Run, name: str):
    """Catalog chart path: the chart is the identity, so every check
    runs on the source grid with the h-scaled gates."""
    from minding_lab.conformal import catalog_chart

    _, chart, _ = catalog_chart(name, run.config.n)
    h2 = chart.grid.h**2
    _store_chart(run, chart)
    _isothermic_curvature_stage(run, chart.h, 10.0 * h2 * run.config.tol_scale)
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
# commands: each body records stages on its run and returns or stops


def cmd_synthesize(run: _Run) -> None:
    config = run.config
    if config.catalog not in SURFACE_SOURCES and config.theta_file is None:
        raise ConfigError("synthesize needs a one_soliton catalog or a theta file")
    _store_surface(run, _synthesis_stages(run, _load_angle(config)))


def cmd_metric(run: _Run) -> None:
    config = run.config
    if config.surface_file is not None:
        surface = _load_surface(config)
    elif config.catalog in SURFACE_SOURCES or config.theta_file is not None:
        surface = _synthesis_stages(run, _load_angle(config))
    else:
        raise ConfigError("metric needs a surface file, a theta file or the one_soliton catalog")
    metric = _embedded_metric_stages(run, surface)
    run.note("metric_det", min_det=float(metric.det().min()))


def cmd_flatten(run: _Run) -> None:
    _flatten_stages(run, _resolve_metric(run), curvature_gate=None)


def _resolve_metric(run: _Run):
    config = run.config
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
        return _embedded_metric_stages(run, surface)
    if config.surface_file is not None:
        return _embedded_metric_stages(run, _load_surface(config))
    raise ConfigError("no metric source in configuration")


def cmd_liouville_check(run: _Run) -> None:
    from minding_lab.weak import bump_lattice, liouville_weak_residual

    u = _resolve_factor(run.config)
    h2 = u.grid.h**2
    scale = run.config.tol_scale
    weak = liouville_weak_residual(u, bump_lattice(u.grid))
    run.check("liouville_weak", weak.max_abs(), 10.0 * h2 * scale,
              test_count=weak.count)
    run.check("curvature_defect", _curvature_defect(u), 10.0 * h2 * scale)


def _resolve_factor(config: PipelineConfig):
    if config.factor_file is not None:
        return _load_factor(config)
    if config.catalog in CHART_SOURCES:
        from minding_lab.conformal import catalog_chart

        _, _, extras = catalog_chart(config.catalog, config.n)
        return extras["u"]
    raise ConfigError("this command needs a factor file or a catalog chart source")


def cmd_solve(run: _Run) -> None:
    import numpy as np

    from minding_lab.elliptic import EllipticError, solve_liouville_newton

    u_ref = _resolve_factor(run.config)
    h2 = u_ref.grid.h**2
    with run.stage("newton", EllipticError):
        solution = solve_liouville_newton(u_ref.grid, u_ref)
    run.check("newton_iterations", float(solution.iterations), 8.0,
              residuals=list(solution.residuals))
    err = float(np.abs(solution.u.values - u_ref.values)[1:-1, 1:-1].max())
    run.check("newton_accuracy", err, 20.0 * h2 * run.config.tol_scale)
    run.artifacts["factor.json"] = (u_ref.grid, {"u": solution.u.values})


def cmd_develop(run: _Run) -> None:
    from minding_lab.developing import pullback_isometry_check

    u = _resolve_factor(run.config)
    dev = _develop_stage(run, u)
    run.check("pullback_isometry", pullback_isometry_check(dev, u),
              50.0 * u.grid.h**2 * run.config.tol_scale)
    run.extra["calibration"] = _calibration_block(dev, u)


def cmd_verify_minding(run: _Run) -> None:
    config = run.config
    if config.catalog in CHART_SOURCES:
        run.extra["calibration"] = _calibration_block(*_chart_catalog_stages(run, config.catalog))
        return
    if config.catalog in CONTROL_SOURCES or config.metric_file is not None:
        h_img = _flatten_stages(run, _resolve_metric(run), curvature_gate=1e-2)
    else:
        # embedded path: angle or surface file
        if config.catalog in SURFACE_SOURCES or config.theta_file is not None:
            surface = _synthesis_stages(run, _load_angle(config))
            _store_surface(run, surface)
        elif config.surface_file is not None:
            surface = _load_surface(config)
        else:
            raise ConfigError("verify-minding needs a catalog, theta, surface, or metric source")
        metric = _embedded_metric_stages(run, surface)
        h_img = _flatten_stages(run, metric, curvature_gate=None)
    _factor_stages(run, h_img, SYNTHESIZED_GATES)


def _execute(command: str, body, config: PipelineConfig) -> int:
    """Run one command body to its end or to its first stop, then emit
    the report; the exit code follows from the recorded stages."""
    run = _Run(command, config)
    try:
        body(run)
    except _Stop:
        pass
    return _emit(run)


# field file -> {csv: channels}; phi.csv holds |phi| from its two channels
PLOT_SOURCES = {
    "surface.json": {"f.csv": ("fx", "fy", "fz"), "theta.csv": ("theta",)},
    "chart.json": {"h.csv": ("h",)},
    "factor.json": {"u.csv": ("u",)},
    "developing.json": {"phi.csv": ("phi_re", "phi_im")},
}


def _plot_tables(out: Path) -> dict:
    """Every CSV table the run's field files give, each file read once.

    A file that is absent gives none; one that lacks a channel it plots
    is a usage error, raised before anything is written.
    """
    import numpy as np

    from minding_lab.fieldio import read_field

    tables = {}
    for source, csvs in PLOT_SOURCES.items():
        path = out / source
        if not path.is_file():
            continue
        grid, data = read_field(path)
        missing = [c for names in csvs.values() for c in names if c not in data]
        if missing:
            raise ConfigError(f"{path}: missing channels {missing} to plot")
        for csv_name, names in csvs.items():
            tables[csv_name] = (grid, {c: data[c] for c in names})
    if "phi.csv" in tables:
        grid, data = tables["phi.csv"]
        tables["phi.csv"] = (grid, {"phi_abs": np.hypot(data["phi_re"], data["phi_im"])})
    return tables


def cmd_export_plots(out_dir: str | None, force: bool) -> int:
    from minding_lab.fieldio import write_csv

    if out_dir is None:
        raise ConfigError("export-plots needs --out pointing at a prior run")
    out = Path(out_dir)
    report_path = out / "report.json"
    if not report_path.is_file():
        raise ConfigError(f"no report.json under {out}; run a pipeline command first")
    plots = out / "plots"
    if plots.exists() and not force:
        raise ConfigError(f"{plots} already exists; pass --force to recreate")
    tables = _plot_tables(out)
    report = json.loads(report_path.read_text())
    if plots.exists():
        shutil.rmtree(plots)
    plots.mkdir(parents=True)
    for csv_name, (grid, channels) in tables.items():
        write_csv(plots / csv_name, grid, channels)
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
    print(json.dumps({"command": "export-plots", "written": sorted([*tables, "residuals.csv"])},
                     sort_keys=True, indent=2))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument handling


_COMMANDS = {
    name: partial(_execute, name, body)
    for name, body in (
        ("synthesize", cmd_synthesize),
        ("metric", cmd_metric),
        ("flatten", cmd_flatten),
        ("liouville-check", cmd_liouville_check),
        ("solve", cmd_solve),
        ("develop", cmd_develop),
        ("verify-minding", cmd_verify_minding),
    )
}


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
    common.add_argument("--config", help="JSON file with defaults for these flags")
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    export = sub.add_parser("export-plots", parents=[common])
    export.add_argument("--force", action="store_true",
                        help="recreate the plots directory if it exists")
    return parser


# the JSON types each --config key takes; null leaves the key unset
_CONFIG_TYPES = {
    **dict.fromkeys(("catalog", "theta_file", "surface_file", "metric_file",
                     "factor_file", "out"), ((str,), "a string")),
    "n": ((int,), "an integer"),
    "tol_scale": ((int, float), "a number"),
}


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's flag defaults, or none without one.

    Every key must be a flag name and every value of that flag's type
    (a boolean is no number); null entries are dropped.
    """
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {args.config}")
    try:
        defaults = json.loads(path.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(defaults, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object of flag defaults")
    unknown = set(defaults) - set(_CONFIG_TYPES)
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
    for key, value in defaults.items():
        types, kind = _CONFIG_TYPES[key]
        if value is not None and type(value) not in types:
            raise ConfigError(
                f"{args.config}: {key} must be {kind}, got {type(value).__name__}"
            )
    if defaults.get("tol_scale") is not None:
        try:
            defaults["tol_scale"] = float(defaults["tol_scale"])
        except OverflowError as exc:
            raise ConfigError(f"{args.config}: tol_scale is out of range") from exc
    return {key: value for key, value in defaults.items() if value is not None}


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    defaults = _config_defaults(args)

    def pick(key, fallback=None):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return defaults.get(key, fallback)

    try:
        return PipelineConfig(
            catalog=pick("catalog"),
            theta_file=pick("theta_file"),
            surface_file=pick("surface_file"),
            metric_file=pick("metric_file"),
            factor_file=pick("factor_file"),
            n=pick("n", 129),
            tol_scale=pick("tol_scale", 1.0),
            out_dir=pick("out"),
        )
    except ConfigError as exc:
        if args.config is None:
            raise
        raise ConfigError(f"{exc} (flags merged with {args.config})") from exc


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


def _solver_errors() -> tuple:
    """The package's solver breakdowns, reported with exit 4.

    Imported on demand because they live next to numpy code.  Anything
    else escaping a command, apart from usage errors, is a bug and keeps
    its traceback.
    """
    from minding_lab.chebyshev import SingularAngleError
    from minding_lab.conformal import ConformalError
    from minding_lab.developing import DevelopError
    from minding_lab.elliptic import EllipticError
    from minding_lab.forms import DegenerateMetricError

    return (EllipticError, ConformalError, DevelopError, SingularAngleError,
            DegenerateMetricError)


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
