"""Span tracer that attributes time, counts and memory to minding_lab's modules.

The tracer measures the package from outside: it replaces the public
functions bound in each ``minding_lab.<module>`` namespace with timing
wrappers and never edits a package file.  Because ``cli`` imports its
helpers inside command bodies, and package modules call each other
through their namespaces, a wrapped attribute catches CLI calls and
intra-module calls alike (``resample_to_image`` -> ``chart_preimage``,
``bootstrap_equivalence`` -> ``solve_poisson``).  The numerical kernels
bound into module namespaces (``conformal.spsolve``, ``elliptic.splu``,
``weak.quadrature``) are wrapped too and charged to the module that
calls them.

Spans hold name, layer, start, end and parent; they stay in memory and
are written once when the traced command ends.  A span's self time is
its duration minus its direct children's, so layer self times add up to
the time covered by root spans.

Run as a child process:

    python3 perfbench/spantrace.py --spans OUT.json --t0 T cli verify-minding ...
    python3 perfbench/spantrace.py --spans OUT.json --t0 T audit --seed 1

``T`` is the parent's ``time.monotonic()`` just before spawning, so the
child can report interpreter start-up plus ``import minding_lab.cli`` as
``cli.startup_s``.  The layers cli does not import itself are then
imported up front and timed apart as ``preimport_s``, so that their
import is charged neither to start-up nor to the first stage.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import os
import resource
import sys
import time
import types

LAYERS = ("cli", "grid", "chebyshev", "forms", "weak", "elliptic",
          "conformal", "developing", "fieldio")

# third-party kernels bound into a module namespace, charged to that module
KERNELS = {("conformal", "spsolve"), ("elliptic", "splu"), ("weak", "quadrature")}

# functions the per-layer metrics are built from: a missing one would
# silently read as zero time, so installing the tracer refuses instead
REQUIRED = {
    "cli": ("main",),
    "grid": ("fd_partial", "fd_laplacian", "quadrature"),
    "chebyshev": ("integrate_frame", "sine_gordon_residual", "corollary_conditions"),
    "forms": ("induced_metric", "normal_and_second_form", "isothermic_connection"),
    "weak": ("bump_lattice", "liouville_weak_residual", "mixed_partials_check",
             "product_rule_check", "frame_weak_compatibility", "quadrature"),
    "elliptic": ("solve_poisson", "solve_liouville_newton", "bootstrap_equivalence", "splu"),
    "conformal": ("flatten_conformal", "inner_image_grid", "chart_preimage",
                  "resample_to_image", "spsolve"),
    "developing": ("develop", "develop_path_residual", "pullback_isometry_check",
                   "u_from_phi", "hyperbolic_distance", "mobius_disk"),
    "fieldio": ("write_field", "read_field", "write_csv"),
}

RSS_LAYERS = ("conformal", "elliptic")
FD = ("grid.fd_partial", "grid.fd_laplacian")
CHEBYSHEV_CHECKS = ("chebyshev.sine_gordon_residual", "chebyshev.corollary_conditions")
DEVELOP_AUDITS = ("developing.pullback_isometry_check", "developing.develop_path_residual",
                  "developing.u_from_phi", "developing.hyperbolic_distance",
                  "developing.mobius_disk")

MB = 1024.0 * 1024.0


class TraceError(RuntimeError):
    """The package no longer exposes a function the trace depends on."""


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def blas_threads() -> dict:
    """Threads each OpenBLAS loaded in this process will use, by library."""
    found = {}
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                found[os.path.basename(path)] = int(getter())
                break
    return found


def _span_info(name: str, args, result) -> dict:
    """Counters taken at the span boundary from arguments and results."""
    if name == "conformal.spsolve":
        return {"nnz": int(args[0].nnz)}
    if name == "elliptic.splu":
        return {"lu_nnz": int(result.L.nnz + result.U.nnz), "a_nnz": int(args[0].nnz)}
    if name == "elliptic.solve_liouville_newton":
        return {"iterations": int(result.iterations)}
    if name in ("fieldio.write_field", "fieldio.write_csv", "fieldio.read_field"):
        return {"bytes": _file_bytes(args[0])}
    if name.startswith("weak.") and hasattr(result, "residuals"):
        return {"pairings": len(result.residuals)}
    return {}


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"minding_lab.{layer}") for layer in LAYERS}
        missing = [
            f"minding_lab.{layer}.{attr}"
            for layer, names in REQUIRED.items()
            for attr in names
            if not callable(getattr(modules[layer], attr, None))
        ]
        if missing:
            raise TraceError(f"traced functions not found (renamed or removed?): {missing}")
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                target = self._target(layer, attr, value)
                if target is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, *target))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    @staticmethod
    def _target(layer: str, attr: str, value) -> tuple[str, str] | None:
        """(layer, span name) for a namespace entry, or None to leave it."""
        if (layer, attr) in KERNELS:
            return layer, f"{layer}.{attr}"
        if attr.startswith("_") or not isinstance(value, types.FunctionType):
            return None
        owner = value.__module__.split(".")
        if owner[0] != "minding_lab" or len(owner) != 2 or owner[1] not in LAYERS:
            return None
        return owner[1], f"{owner[1]}.{value.__name__}"

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack
        track_rss = layer in RSS_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer,
                    "parent": stack[-1] if stack else -1, "error": False}
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_kb() if track_rss else 0
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.monotonic()
                stack.pop()
                if track_rss:
                    span["rss_rise_kb"] = _maxrss_kb() - rss0
            span.update(_span_info(name, args, result))
            return result

        return traced


def summarize(spans: list[dict]) -> dict:
    """Per-layer and per-function metrics for one traced operation."""
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]

    def ancestors(i):
        p = spans[i]["parent"]
        while p >= 0:
            yield spans[p]
            p = spans[p]["parent"]

    def inclusive(names, outside=()):
        """Summed duration of spans named in ``names`` that are not nested
        in a span named in ``names`` or ``outside``."""
        blocked = set(names) | set(outside)
        return sum(
            s["end"] - s["start"]
            for i, s in enumerate(spans)
            if s["name"] in names and not any(a["name"] in blocked for a in ancestors(i))
        )

    def outermost_in_layer(layer):
        for i, s in enumerate(spans):
            if s["layer"] == layer and not any(a["layer"] == layer for a in ancestors(i)):
                yield s

    out: dict = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s["layer"] == layer]
        out[f"{layer}.calls"] = len(mine)
        # an exception counts once per layer, where it leaves the layer
        out[f"{layer}.errors"] = sum(
            1 for i in mine
            if spans[i]["error"] and not (
                spans[i]["parent"] >= 0
                and spans[spans[i]["parent"]]["layer"] == layer
                and spans[spans[i]["parent"]]["error"]
            )
        )
        out[f"{layer}.self_s"] = sum(spans[i]["end"] - spans[i]["start"] - child_time[i]
                                     for i in mine)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    out["conformal.flatten_s"] = inclusive(("conformal.flatten_conformal",))
    out["conformal.flatten_solve_s"] = inclusive(("conformal.spsolve",))
    out["conformal.flatten_nnz"] = total("conformal.spsolve", "nnz")
    out["conformal.image_grid_s"] = inclusive(("conformal.inner_image_grid",))
    out["conformal.preimage_s"] = inclusive(("conformal.chart_preimage",))
    out["conformal.resample_s"] = sum(
        s["end"] - s["start"] - child_time[i]
        for i, s in enumerate(spans) if s["name"] == "conformal.resample_to_image"
    )
    for layer in RSS_LAYERS:
        out[f"{layer}.rss_rise_mb"] = sum(
            s.get("rss_rise_kb", 0) for s in outermost_in_layer(layer)) / 1024.0
    out["elliptic.newton_s"] = inclusive(("elliptic.solve_liouville_newton",))
    out["elliptic.newton_iterations"] = total("elliptic.solve_liouville_newton", "iterations")
    out["elliptic.bootstrap_s"] = inclusive(("elliptic.bootstrap_equivalence",))
    out["elliptic.splu_calls"] = len(named("elliptic.splu"))
    out["elliptic.splu_s"] = inclusive(("elliptic.splu",))
    out["elliptic.lu_nnz"] = total("elliptic.splu", "lu_nnz")
    out["elliptic.a_nnz"] = total("elliptic.splu", "a_nnz")
    out["weak.s"] = out["weak.self_s"]
    out["weak.pairings"] = sum(s.get("pairings", 0) for s in outermost_in_layer("weak"))
    out["weak.quadrature_calls"] = len(named("weak.quadrature"))
    out["weak.quadrature_s"] = inclusive(("weak.quadrature",))
    out["chebyshev.integrate_frame_s"] = inclusive(("chebyshev.integrate_frame",))
    out["chebyshev.checks_s"] = inclusive(CHEBYSHEV_CHECKS, outside=("chebyshev.integrate_frame",))
    out["developing.develop_s"] = inclusive(("developing.develop",))
    out["developing.audit_s"] = inclusive(DEVELOP_AUDITS, outside=("developing.develop",))
    out["forms.s"] = out["forms.self_s"]
    out["grid.fd_calls"] = sum(len(named(name)) for name in FD)
    out["grid.fd_s"] = inclusive(FD)
    for kind, name in (("write", "fieldio.write_field"), ("read", "fieldio.read_field"),
                       ("csv", "fieldio.write_csv")):
        out[f"fieldio.{kind}_s"] = inclusive((name,))
        out[f"fieldio.{kind}_mb"] = total(name, "bytes") / MB
    return out


def child_main(argv) -> int:
    """Run one traced command; see the module docstring for the usage."""
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--t0" or argv[4] not in ("cli", "audit"):
        print("usage: spantrace.py --spans FILE --t0 T {cli,audit} ARGS...", file=sys.stderr)
        return 2
    spans_path, t0, kind, rest = argv[1], float(argv[3]), argv[4], argv[5:]

    # the same imports and thread cap as ``python -m minding_lab.cli``
    from minding_lab import cli

    cli._apply_thread_cap()
    cli_ready = time.monotonic()
    for layer in LAYERS:
        importlib.import_module(f"minding_lab.{layer}")
    ready = time.monotonic()
    threads = blas_threads()

    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            code = cli.main(rest)
        else:
            import audit

            code = audit.main(rest)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    done = time.monotonic()
    sys.stdout.flush()
    with open(spans_path, "w") as handle:
        json.dump({"t0": t0, "cli_ready": cli_ready, "ready": ready, "done": done,
                   "blas_threads": threads, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
