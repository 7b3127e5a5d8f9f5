"""Command line driver for the verification pipeline.

Subcommands expose each module step (synthesize, metric, flatten,
liouville-check, solve, develop) plus the end-to-end chain
(verify-minding) and CSV export for plotting.  Reports are JSON with a
fixed key order and no timestamps, so identical configurations produce
byte-identical output.

Exit codes: 0 all gates passed, 2 unusable configuration or missing
input, 3 a residual exceeded its gate, 4 a solver gave up, which is any
``grid.SolverError``.  Any other exception is a programming error and
propagates with its traceback.

Each source enters the chain at its own link, its kind (angle, surface,
metric, chart or factor): ``CATALOG_KINDS`` and ``SOURCE_FILES`` say
which.  Each command names the kinds it takes in ``_COMMANDS`` and is
refused any other before its run starts; its body loads the source
with ``_load_source`` and walks from that link to the one it needs.

Every command body records its stages on one ``_Run``.  ``limit``
reads a stage's gate from one table, ``GATES`` or ``FLATTENED_GATES``.
``gate`` records a measured residual against its gate and ends the
chain when it fails, ``check`` records one without ending it (one that
is not finite as a failed gate with an error in its place),
``exceeded`` records a residual beyond the float range as a failed gate
and ends the chain, and ``stage`` records a ``SolverError`` as that
stage's failure and ends the chain.  ``store`` keeps a ``--out`` field
file, its channels named in ``FIELD_FILES``.  ``_execute`` catches the
end of the chain and emits the report of what was recorded, so a
command stops in exactly one place.

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

# catalog name -> kind, the link of the chain the source enters at
CATALOG_KINDS = {
    "one_soliton": "angle",
    "half_plane_pseudosphere": "chart",
    "poincare_disk_patch": "chart",
    "flat_plane": "metric",
    "sphere_patch": "metric",
}
CATALOG = tuple(CATALOG_KINDS)
# --out field file -> its channels, in the order they are written
FIELD_FILES = {
    "surface.json": ("fx", "fy", "fz", "Nx", "Ny", "Nz", "theta"),
    "metric.json": ("E", "F", "G"),
    "chart.json": ("X", "Y", "h"),
    "factor.json": ("u",),
    "developing.json": ("phi_re", "phi_im", "dphi_re", "dphi_im"),
}
# file flag -> (kind, channels the file must hold)
SOURCE_FILES = {
    "theta_file": ("angle", ("theta",)),
    "surface_file": ("surface", FIELD_FILES["surface.json"]),
    "metric_file": ("metric", FIELD_FILES["metric.json"]),
    "factor_file": ("factor", FIELD_FILES["factor.json"]),
}

# stage -> (c, p, cap): gate at min(c h^p, cap) * tol_scale, h from the
# grid the stage measured on (p = 0 is absolute), for an exact factor
GATES = {
    "sine_gordon": (50.0, 2, math.inf),
    "frame_path_independence": (50.0, 2, math.inf),
    "corollary_conditions": (50.0, 2, math.inf),
    "chebyshev_metric": (50.0, 2, math.inf),
    "flatten": (1e-3, 0, math.inf),
    "curvature": (10.0, 2, math.inf),
    "rescale": (10.0, 2, math.inf),
    "liouville_weak": (10.0, 2, math.inf),
    "bootstrap": (20.0, 2, math.inf),
    "pullback_isometry": (50.0, 2, math.inf),
    "curvature_defect": (10.0, 2, math.inf),
    "newton_accuracy": (20.0, 2, math.inf),
}
# a source the chain flattens gates curvature absolutely and its factor
# on the image grid, capped.  The fit is second order, 15-24 h^2 at
# K = -1, so 50 h^2 rejects K = -0.995 (89 h^2 and more) at every n
FLATTENED_GATES = {
    **GATES,
    "curvature": (1e-2, 0, math.inf),
    "rescale": (50.0, 2, 1e-2),
    "liouville_weak": (10.0, 2, 1e-2),
    "bootstrap": (20.0, 2, 1e-2),
    "pullback_isometry": (50.0, 2, 1e-2),
}
# the bounds --tol-scale leaves alone: past the sine-Gordon cap an angle
# field is incompatible at any grid size
COMPATIBILITY_TOL = 1e-3
NEWTON_BUDGET = 8


class ConfigError(ValueError):
    """Unusable command line input."""


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
        if sum(getattr(self, name) is not None for name in ("catalog", *SOURCE_FILES)) != 1:
            raise ConfigError("exactly one surface source is required")
        if self.catalog is not None and self.catalog not in CATALOG:
            raise ConfigError(
                f"unknown catalog source {self.catalog!r}; choose from {', '.join(CATALOG)}"
            )
        if self.n < 9:
            raise ConfigError("grid needs at least 9 nodes per side")
        if not 0.0 < self.tol_scale < math.inf:
            raise ConfigError("tolerance scale must be positive and finite")
        for name in SOURCE_FILES:
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
    """Accumulates stage results for one command.

    Creates the ``--out`` directory up front, so an unusable one fails
    before the first stage, and writes each field file there as it is
    stored, so the run holds none of them for the end.
    """

    def __init__(self, command: str, config: PipelineConfig) -> None:
        self.command = command
        self.config = config
        self.gates = GATES if _source_kind(config) in ("chart", "factor") else FLATTENED_GATES
        self.stages: list[dict] = []
        self.solver_error = False
        if config.out_dir is not None:
            try:
                Path(config.out_dir).mkdir(parents=True, exist_ok=True)
            except ValueError as exc:  # a NUL or lone surrogate, as main(argv) can pass
                raise ConfigError(f"unusable --out path {config.out_dir!r}: {exc}") from exc

    def limit(self, name: str, grid) -> float:
        """The stage's gate on the grid it measured on."""
        c, p, cap = self.gates[name]
        return min(c * grid.h**p, cap) * self.config.tol_scale

    def check(self, name: str, measured: float, gate: float, **info) -> bool:
        if not math.isfinite(measured):
            self.stages.append({"name": name, "gate": float(gate), "passed": False,
                                "error": f"measured residual is {float(measured)}"})
            return False
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

    def exceeded(self, name: str, gate: float, reason: str) -> None:
        """Record a residual too large for a float as a failed gate, with
        ``reason`` in place of the measurement, and end the chain."""
        self.stages.append({"name": name, "gate": float(gate), "passed": False, "error": reason})
        raise _Stop

    @contextmanager
    def stage(self, name: str, *also: type):
        """Record a ``SolverError``, or one of ``also``, raised in the block
        as this stage's failure and end the chain."""
        from minding_lab.grid import SolverError

        try:
            yield
        except (SolverError, *also) as exc:
            self.stages.append({"name": name, "passed": False, "error": str(exc)})
            self.solver_error = True
            raise _Stop from exc

    def store(self, name: str, grid, *arrays) -> None:
        """Write a field file into ``--out``, one array per channel that
        ``FIELD_FILES`` lists for it."""
        channels = dict(zip(FIELD_FILES[name], arrays, strict=True))
        if self.config.out_dir is not None:
            from minding_lab.fieldio import write_field

            write_field(Path(self.config.out_dir) / name, grid, channels)

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
    return run.exit_code()


# ---------------------------------------------------------------------------
# source construction


def _source_kind(config: PipelineConfig) -> str:
    if config.catalog is not None:
        return CATALOG_KINDS[config.catalog]
    return next(kind for name, (kind, _) in SOURCE_FILES.items()
                if getattr(config, name) is not None)


def _load_source(config: PipelineConfig):
    """The source at its own link: an ``AngleField``, ``ChebyshevSurface``,
    ``MetricField``, log-factor ``ScalarField``, or a chart's catalog
    ``(metric, chart, extras)``.  Each imports only what its kind needs,
    before ``fieldio``, so no module loads onto a heap a file has grown.
    A file missing a channel its kind reads, or holding a NaN or an
    infinity in one, is a usage error naming the file and the channel."""
    if config.catalog == "one_soliton":
        from minding_lab.chebyshev import one_soliton_angle
        from minding_lab.grid import Grid2D

        return one_soliton_angle(Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, config.n, config.n))
    if config.catalog is not None:
        from minding_lab.conformal import catalog_chart

        source = catalog_chart(config.catalog, config.n)
        return source if CATALOG_KINDS[config.catalog] == "chart" else source[0]
    name = next(name for name in SOURCE_FILES if getattr(config, name) is not None)
    kind, names = SOURCE_FILES[name]
    if kind == "metric":
        from minding_lab.forms import MetricField
    elif kind != "factor":
        from minding_lab.chebyshev import AngleField, ChebyshevSurface
    import numpy as np

    from minding_lab.fieldio import read_field
    from minding_lab.grid import ScalarField, VectorField3

    path = getattr(config, name)
    grid, channels = read_field(path)
    for c in names:
        if c not in channels:
            raise ConfigError(f"{path}: no {c!r} channel")
        if not np.isfinite(channels[c]).all():
            raise ConfigError(f"{path}: {c!r} channel has a non-finite sample")
    if kind == "factor":
        return ScalarField(grid, channels["u"])
    if kind == "metric":
        return MetricField(grid, channels["E"], channels["F"], channels["G"])
    theta = AngleField(grid, channels["theta"])
    if kind == "angle":
        return theta
    f = VectorField3(grid, np.stack([channels["fx"], channels["fy"], channels["fz"]], axis=-1))
    N = VectorField3(grid, np.stack([channels["Nx"], channels["Ny"], channels["Nz"]], axis=-1))
    return ChebyshevSurface(f, N, theta)


def _surface(run: _Run):
    """The embedded surface: an angle source synthesized, a file as read."""
    source = _load_source(run.config)
    return _synthesis_stages(run, source) if _source_kind(run.config) == "angle" else source


def _metric(run: _Run):
    """A metric or chart source's metric, or the embedded surface's."""
    kind = _source_kind(run.config)
    if kind in ("angle", "surface"):
        return _embedded_metric_stages(run, _surface(run))
    source = _load_source(run.config)
    return source[0] if kind == "chart" else source


def _factor(config: PipelineConfig):
    """The log-factor: a factor file as read, or a chart's exact ``u``
    built alone, without the catalog metric and chart."""
    if _source_kind(config) == "chart":
        from minding_lab.conformal import catalog_factor

        return catalog_factor(config.catalog, config.n)
    return _load_source(config)


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

    g = theta.grid
    sg = float(abs(sine_gordon_residual(theta)).max())
    run.gate("sine_gordon", sg, min(run.limit("sine_gordon", g), COMPATIBILITY_TOL))
    with run.stage("frame_integration"):
        result = integrate_frame(theta)
    path = max(result.path_residual_f, result.path_residual_frame)
    run.gate("frame_path_independence", path, run.limit("frame_path_independence", g))
    report = corollary_conditions(result.surface)
    run.gate("corollary_conditions", report.max_residual(),
             run.limit("corollary_conditions", g), residuals=report.as_dict())
    return result.surface


def _store_surface(run: _Run, surface) -> None:
    # components first: f's three, then N's
    run.store("surface.json", surface.f.grid, *surface.f.values.transpose(2, 0, 1),
              *surface.N.values.transpose(2, 0, 1), surface.theta.values)


def _develop_stage(run: _Run, u):
    """Develop the factor into the disk and store the map; the pullback
    is gated by the caller."""
    from minding_lab.developing import develop

    with run.stage("develop"):
        dev = develop(u)
    run.store("developing.json", dev.grid, dev.phi.real, dev.phi.imag,
              dev.dphi.real, dev.dphi.imag)
    return dev


def _embedded_metric_stages(run: _Run, surface):
    """Induced metric plus the pointwise curvature precondition."""
    import numpy as np

    from minding_lab.forms import (
        gauss_curvature_from_forms,
        induced_metric,
        normal_and_second_form,
    )

    g = surface.f.grid
    with run.stage("induced_metric"):
        metric = induced_metric(surface.f)
    dev = max(
        np.abs(metric.E - 1.0).max(),
        np.abs(metric.G - 1.0).max(),
        np.abs(metric.F - np.cos(surface.theta.values)).max(),
    )
    run.gate("chebyshev_metric", dev, run.limit("chebyshev_metric", g))
    _, second = normal_and_second_form(surface.f)
    K = gauss_curvature_from_forms(metric, second)
    worst = float(np.max(np.abs(K + 1.0)))
    run.gate("curvature", worst, run.limit("curvature", g),
             k_center=float(K[g.ny // 2, g.nx // 2]))
    run.store("metric.json", g, metric.E, metric.F, metric.G)
    return metric


def _isothermic_curvature_stage(run: _Run, h) -> None:
    """Gauss curvature of an isothermic factor against -1, two nodes in
    from the edge, where the second differences are centred."""
    import numpy as np

    from minding_lab.forms import gauss_curvature_isothermic

    K = gauss_curvature_isothermic(h)  # interior nodes: K[j, i] is node (j + 1, i + 1)
    worst = float(np.max(np.abs(K[1:-1, 1:-1] + 1.0)))
    run.gate("curvature", worst, run.limit("curvature", h.grid),
             k_center=float(K[h.grid.ny // 2 - 1, h.grid.nx // 2 - 1]))


def _flatten_stages(run: _Run, metric):
    """Flatten and resample onto the image grid; returns the raw image
    factor."""
    from minding_lab.conformal import flatten_conformal, inner_image_grid, resample_to_image

    with run.stage("flatten"):
        chart = flatten_conformal(metric)
    run.gate("flatten", max(chart.anisotropy, chart.skew), run.limit("flatten", chart.grid),
             anisotropy=chart.anisotropy, skew=chart.skew)
    run.store("chart.json", chart.grid, chart.X.values, chart.Y.values, chart.h.values)
    with run.stage("image_resample"):
        image = inner_image_grid(chart, run.config.n)
        return resample_to_image(chart.h, chart, image)


def _factor_stages(run: _Run, h_img):
    """Rescale to the unit-curvature normalization, then the weak,
    bootstrap, and developing checks, each gated on the factor's grid."""
    import numpy as np

    from minding_lab.conformal import rescale_to_liouville
    from minding_lab.developing import pullback_isometry_check
    from minding_lab.elliptic import bootstrap_equivalence
    from minding_lab.grid import GridError, ScalarField
    from minding_lab.weak import bump_lattice, liouville_weak_residual

    g = h_img.grid
    with run.stage("rescale"):
        h_fit, fit = rescale_to_liouville(h_img)
    run.gate("rescale", abs(fit - 1.0), run.limit("rescale", g), fit=fit)
    u = ScalarField(h_fit.grid, np.log(h_fit.values))
    run.store("factor.json", u.grid, u.values)

    with run.stage("liouville_weak", GridError):
        weak = liouville_weak_residual(u, bump_lattice(u.grid))
    run.gate("liouville_weak", weak.max_abs(), run.limit("liouville_weak", g),
             test_count=weak.count)
    with run.stage("bootstrap"):
        gap = bootstrap_equivalence(u)
    run.gate("bootstrap", gap, run.limit("bootstrap", g))
    dev = _develop_stage(run, u)
    run.gate("pullback_isometry", pullback_isometry_check(dev, u),
             run.limit("pullback_isometry", g))


def _curvature_defect(u) -> float:
    """Sup of ``|lap u - e^{2u}| / e^{2u}`` two nodes in from the edge."""
    import numpy as np

    from minding_lab.grid import fd_laplacian

    e2u = np.exp(2.0 * u.values[1:-1, 1:-1])
    defect = np.abs(fd_laplacian(u.values, u.grid) - e2u) / e2u
    return float(np.max(defect[1:-1, 1:-1]))


# ---------------------------------------------------------------------------
# commands: each body records stages on its run and returns or stops


def cmd_synthesize(run: _Run) -> None:
    _store_surface(run, _synthesis_stages(run, _load_source(run.config)))


def cmd_metric(run: _Run) -> None:
    metric = _embedded_metric_stages(run, _surface(run))
    run.note("metric_det", min_det=float(metric.det().min()))


def cmd_flatten(run: _Run) -> None:
    _flatten_stages(run, _metric(run))


def cmd_liouville_check(run: _Run) -> None:
    import numpy as np

    from minding_lab.weak import bump_lattice, liouville_weak_residual

    u = _factor(run.config)
    with np.errstate(over="ignore"):
        if np.isinf(np.exp(2.0 * u.values)).any():
            run.exceeded("liouville_weak", run.limit("liouville_weak", u.grid),
                         "e^{2u} overflows float64, and so does the residual")
    weak = liouville_weak_residual(u, bump_lattice(u.grid))
    run.check("liouville_weak", weak.max_abs(), run.limit("liouville_weak", u.grid),
              test_count=weak.count)
    run.check("curvature_defect", _curvature_defect(u), run.limit("curvature_defect", u.grid))


def cmd_solve(run: _Run) -> None:
    import numpy as np

    from minding_lab.elliptic import solve_liouville_newton

    u_ref = _factor(run.config)
    with run.stage("newton"):
        solution = solve_liouville_newton(u_ref.grid, u_ref.values)
    run.check("newton_iterations", solution.iterations, NEWTON_BUDGET,
              residuals=list(solution.residuals))
    err = float(np.abs(solution.u.values - u_ref.values)[1:-1, 1:-1].max())
    run.check("newton_accuracy", err, run.limit("newton_accuracy", u_ref.grid))
    run.store("factor.json", u_ref.grid, solution.u.values)


def cmd_develop(run: _Run) -> None:
    from minding_lab.developing import pullback_isometry_check

    u = _factor(run.config)
    dev = _develop_stage(run, u)
    run.check("pullback_isometry", pullback_isometry_check(dev, u),
              run.limit("pullback_isometry", u.grid))


def cmd_verify_minding(run: _Run) -> None:
    kind = _source_kind(run.config)
    if kind == "chart":
        # the chart is the identity, so every check runs on the source grid;
        # keep the chart alone: holding the catalog metric and u raises peak memory
        chart = _load_source(run.config)[1]
        run.store("chart.json", chart.grid, chart.X.values, chart.Y.values, chart.h.values)
        h = chart.h
    elif kind == "metric":
        h = _flatten_stages(run, _load_source(run.config))
    else:
        surface = _surface(run)
        if kind == "angle":
            _store_surface(run, surface)
        metric = _embedded_metric_stages(run, surface)
        del surface  # the flatten needs only the metric, and its factor sets the peak
        h = _flatten_stages(run, metric)
    if kind in ("chart", "metric"):
        # the factor's is the only curvature these sources have; an embedded
        # one gates its forms' instead, as differencing a resampled factor
        # twice amplifies node-scale noise by 1/h^2
        _isothermic_curvature_stage(run, h)
    _factor_stages(run, h)


def _execute(command: str, body, kinds: tuple, needs: str, config: PipelineConfig) -> int:
    """Refuse a source kind the command does not take before ``--out``
    exists, else run the body to its end or first stop and emit the report."""
    if _source_kind(config) not in kinds:
        raise ConfigError(needs)
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
    is a usage error, raised before anything is written.  Each table
    keeps its own copies of the channels it plots, and ``phi.csv`` only
    ``|phi|``, so each file's read is freed before the next.
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
            if csv_name == "phi.csv":
                tables[csv_name] = (grid, {"phi_abs": np.hypot(data["phi_re"], data["phi_im"])})
            else:
                tables[csv_name] = (grid, {c: data[c].copy() for c in names})
        del data
    return tables


def _report_stages(path: Path) -> list:
    """The stage entries of a prior run's report, each an object with a
    name and a verdict; anything else is a usage error naming the file."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    stages = report.get("stages") if isinstance(report, dict) else None
    if not isinstance(stages, list) or not all(
            isinstance(s, dict) and "name" in s and "passed" in s for s in stages):
        raise ConfigError(f"{path}: needs a list of stages, each with a name and passed")
    return stages


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
    stages = _report_stages(report_path)
    tables = _plot_tables(out)
    if plots.exists():
        shutil.rmtree(plots)
    plots.mkdir(parents=True)
    for csv_name, (grid, channels) in tables.items():
        write_csv(plots / csv_name, grid, channels)
    with open(plots / "residuals.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["stage", "measured", "gate", "passed"])
        writer.writerows([s["name"], s.get("measured", ""), s.get("gate", ""), s["passed"]]
                         for s in stages)
    print(json.dumps({"command": "export-plots", "written": sorted([*tables, "residuals.csv"])},
                     sort_keys=True, indent=2))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument handling


# command -> body, the source kinds it takes, and its refusal of any other
_FACTOR_NEEDS = "this command needs a factor file or a catalog chart source"
_COMMANDS = {
    name: partial(_execute, name, body, kinds, needs)
    for name, body, kinds, needs in (
        ("synthesize", cmd_synthesize, ("angle",),
         "synthesize needs a one_soliton catalog or a theta file"),
        ("metric", cmd_metric, ("angle", "surface"),
         "metric needs a surface file, a theta file or the one_soliton catalog"),
        ("flatten", cmd_flatten, ("angle", "surface", "metric", "chart"),
         "no metric source in configuration"),
        ("liouville-check", cmd_liouville_check, ("factor", "chart"), _FACTOR_NEEDS),
        ("solve", cmd_solve, ("factor", "chart"), _FACTOR_NEEDS),
        ("develop", cmd_develop, ("factor", "chart"), _FACTOR_NEEDS),
        ("verify-minding", cmd_verify_minding, ("angle", "surface", "metric", "chart"),
         "verify-minding needs a catalog, theta, surface, or metric source"),
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
    common.add_argument("--tol-scale", type=float,
                        help="multiplies every gate but the sine_gordon cap and Newton budget")
    saved = argparse.ArgumentParser(add_help=False)
    saved.add_argument("--out", help="directory for report.json and field files")
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common, saved])
    export = sub.add_parser("export-plots", parents=[saved])
    export.add_argument("--force", action="store_true",
                        help="recreate the plots directory if it exists")
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    # an unset flag keeps the dataclass's default
    picked = {key: getattr(args, key) for key in ("catalog", *SOURCE_FILES, "n", "tol_scale")}
    return PipelineConfig(out_dir=args.out, **{key: value for key, value in picked.items()
                                               if value is not None})


def _apply_thread_cap() -> None:
    cap = os.environ.get("MINDING_LAB_THREADS")
    if cap is None:
        return
    if not (cap.isascii() and cap.isdigit()) or int(cap) < 1:
        raise ConfigError(f"MINDING_LAB_THREADS must be a positive integer, got {cap!r}")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_thread_cap()
        if args.command == "export-plots":
            # reads a prior run; no surface source of its own
            return cmd_export_plots(args.out, args.force)
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
        # imported on demand: they live next to numpy code
        from minding_lab.grid import GridError, SolverError

        if isinstance(exc, GridError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, SolverError):
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        raise  # a programming error, not a verdict: keep the traceback


if __name__ == "__main__":
    sys.exit(main())
