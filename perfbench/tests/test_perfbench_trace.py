"""Reach checks for the benchmark's tracer and verdict rules.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import minding_lab.conformal  # noqa: E402
from minding_lab import cli  # noqa: E402

import run  # noqa: E402
import spantrace  # noqa: E402


@pytest.fixture
def tracer():
    t = spantrace.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def parent_of(spans, span):
    return spans[span["parent"]] if span["parent"] >= 0 else None


def test_cli_main_lazy_imports_and_intra_module_calls_are_caught(tracer, capsys):
    assert cli.main(["flatten", "--catalog", "half_plane_pseudosphere", "--n", "33"]) == 0
    assert cli.main(["verify-minding", "--catalog", "poincare_disk_patch", "--n", "33"]) == 0
    capsys.readouterr()
    spans = tracer.spans
    names = [s["name"] for s in spans]
    # imported inside command bodies at call time
    for name in ("conformal.flatten_conformal", "conformal.inner_image_grid",
                 "elliptic.bootstrap_equivalence", "developing.develop"):
        assert name in names, name
    # intra-module calls resolve through the wrapped module attribute
    pre = next(s for s in spans if s["name"] == "conformal.chart_preimage")
    assert parent_of(spans, pre)["name"] == "conformal.resample_to_image"
    poisson = next(s for s in spans if s["name"] == "elliptic.solve_poisson")
    assert parent_of(spans, poisson)["name"] == "elliptic.bootstrap_equivalence"
    # kernels bound into a module namespace are charged to that module
    lu = next(s for s in spans if s["name"] == "elliptic.splu")
    assert lu["layer"] == "elliptic" and lu["lu_nnz"] > lu["a_nnz"] > 0
    solve = next(s for s in spans if s["name"] == "conformal.spsolve")
    assert parent_of(spans, solve)["name"] == "conformal.flatten_conformal"
    quad = next(s for s in spans if s["name"] == "weak.quadrature")
    assert quad["layer"] == "weak"
    assert all(s["parent"] >= 0 or s["name"] == "cli.main" for s in spans)


def test_layer_self_times_add_up_to_root_spans(tracer, capsys):
    cli.main(["verify-minding", "--catalog", "half_plane_pseudosphere", "--n", "33"])
    capsys.readouterr()
    summary = spantrace.summarize(tracer.spans)
    roots = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] < 0)
    selves = sum(summary[f"{layer}.self_s"] for layer in spantrace.LAYERS)
    assert selves == pytest.approx(roots, rel=1e-9)
    assert summary["cli.calls"] == 1
    assert summary["weak.pairings"] > 0
    assert summary["grid.fd_calls"] > 0


def test_errors_are_recorded(tracer):
    from minding_lab import developing

    with pytest.raises(developing.DevelopError):
        developing.mobius_disk(0.1, a=1.0)
    assert spantrace.summarize(tracer.spans)["developing.errors"] == 1


def test_an_error_counts_once_where_it_leaves_the_layer():
    def span(name, layer, parent, error):
        return {"name": name, "layer": layer, "parent": parent, "error": error,
                "start": 0.0, "end": 1.0}

    spans = [
        span("cli.main", "cli", -1, False),  # catches what elliptic raised
        span("elliptic.solve_liouville_newton", "elliptic", 0, True),
        span("elliptic.solve_poisson", "elliptic", 1, True),
    ]
    summary = spantrace.summarize(spans)
    assert summary["elliptic.errors"] == 1
    assert summary["cli.errors"] == 0


@pytest.mark.parametrize("rename", [False, True])
def test_missing_or_renamed_function_fails_loudly(monkeypatch, rename):
    original = minding_lab.conformal.chart_preimage
    monkeypatch.delattr(minding_lab.conformal, "chart_preimage")
    if rename:
        monkeypatch.setattr(minding_lab.conformal, "invert_chart", original, raising=False)
    with pytest.raises(spantrace.TraceError, match="minding_lab.conformal.chart_preimage"):
        spantrace.Tracer().install()


def test_uninstall_restores_the_package():
    before = minding_lab.conformal.flatten_conformal
    t = spantrace.Tracer()
    t.install()
    assert minding_lab.conformal.flatten_conformal is not before
    t.uninstall()
    assert minding_lab.conformal.flatten_conformal is before


def test_known_defects_count_but_other_mismatches_fail():
    ops = {op.name: op for w in run.workloads(0).values() for op in w.ops}
    solve = ops["solve-poincare_disk_patch"]
    assert run.judge(solve, {"exit": 0, "passed": True, "failed_stage": None}, []) == "pass"
    assert run.judge(solve, {"exit": 4, "passed": False, "failed_stage": "newton"}, []) == "known_defect"
    assert run.judge(solve, {"exit": 3, "passed": False, "failed_stage": "newton_accuracy"}, []) == "fail"
    control = ops["verify-sphere_patch"]
    assert run.judge(control, {"exit": 3, "passed": False, "failed_stage": "curvature"}, []) == "pass"
    assert run.judge(control, {"exit": 0, "passed": True, "failed_stage": None}, []) == "fail"
    assert run.judge(control, {"exit": 3, "passed": False, "failed_stage": "curvature"},
                     ["stdout report differs from report.json"]) == "fail"


def test_single_thread_pass_sets_blas_threads_before_start():
    env = run.child_env("1")
    for var in ("MINDING_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert env[var] == "1"


def test_memory_rise_is_the_largest_child_not_a_sum():
    def op(rise, calls):
        return {"trace": {"conformal.rss_rise_mb": rise, "weak.calls": calls,
                          "elliptic.a_nnz": 0, "elliptic.lu_nnz": 0, "spans": 1,
                          "blas_threads": {}}}

    cycle = {"wall_s": 3.0, "ops": [op(2744.0, 2), op(1091.0, 3)]}
    metrics = run.layer_metrics({"wall_s": 2.5}, cycle, cycle)
    assert metrics["conformal.rss_rise_mb"]["value"] == 2744.0
    assert metrics["weak.calls"]["value"] == 5
    assert metrics["trace_overhead_s"]["value"] == 0.5
