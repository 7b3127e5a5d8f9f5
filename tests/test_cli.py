"""Command driver: exit codes, reports, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minding_lab
from minding_lab.cli import (
    EXIT_PASS,
    EXIT_SOLVER,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    ConfigError,
    PipelineConfig,
    main,
)
from minding_lab.fieldio import write_field
from minding_lab.grid import Grid2D


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report


def write_factor(path, value, n=65):
    half = 0.5 / np.sqrt(2.0)
    g = Grid2D.from_bounds(-half, half, -half, half, n, n)
    write_field(path, g, {"u": np.full(g.shape, float(value))})


class TestConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            PipelineConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            PipelineConfig(catalog="one_soliton", factor_file="x")

    def test_unknown_catalog(self):
        with pytest.raises(ConfigError, match="unknown catalog"):
            PipelineConfig(catalog="torus")

    def test_parameter_bounds(self):
        with pytest.raises(ConfigError):
            PipelineConfig(catalog="one_soliton", n=5)
        with pytest.raises(ConfigError):
            PipelineConfig(catalog="one_soliton", tol_scale=0.0)
        with pytest.raises(ConfigError):
            PipelineConfig(catalog="one_soliton", seed=-1)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            PipelineConfig(theta_file="/nonexistent/theta.json")


class TestSynthesize:
    def test_catalog_passes(self, capsys):
        code, report = run_cli(capsys, "synthesize", "--catalog", "one_soliton", "--n", "65")
        assert code == EXIT_PASS
        names = [s["name"] for s in report["stages"]]
        assert names == [
            "sine_gordon",
            "frame_path_independence",
            "corollary_conditions",
        ]
        assert report["passed"] is True

    def test_incompatible_angle(self, capsys, tmp_path):
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 33, 33)
        path = tmp_path / "theta.json"
        write_field(path, g, {"theta": np.full(g.shape, np.pi / 2)})
        code, report = run_cli(capsys, "synthesize", "--theta-file", str(path))
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "sine_gordon"
        assert report["stages"][0]["measured"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_theta_file(self, capsys):
        code, _ = run_cli(capsys, "synthesize", "--theta-file", "/nonexistent.json")
        assert code == EXIT_USAGE


class TestVerifyCatalog:
    @pytest.mark.parametrize("name", ["half_plane_pseudosphere", "poincare_disk_patch"])
    def test_chart_passes(self, capsys, name):
        code, report = run_cli(capsys, "verify-minding", "--catalog", name, "--n", "65")
        assert code == EXIT_PASS
        assert report["failed_stage"] is None
        names = [s["name"] for s in report["stages"]]
        assert names == [
            "curvature",
            "rescale",
            "liouville_weak",
            "bootstrap",
            "pullback_isometry",
        ]

    def test_calibration_block(self, capsys):
        _, report = run_cli(
            capsys, "verify-minding", "--catalog", "half_plane_pseudosphere", "--n", "65"
        )
        cal = report["calibration"]
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 65, 65)
        assert cal["exponent_half"] <= 10.0 * g.h**2
        assert cal["exponent_quarter"] >= 0.5

    def test_synthesized_passes(self, capsys):
        code, report = run_cli(
            capsys, "verify-minding", "--catalog", "one_soliton", "--n", "65"
        )
        assert code == EXIT_PASS
        pull = next(s for s in report["stages"] if s["name"] == "pullback_isometry")
        assert pull["measured"] <= 1e-2


class TestVerifyControls:
    def test_flat_plane_fails_at_curvature(self, capsys):
        code, report = run_cli(capsys, "verify-minding", "--catalog", "flat_plane", "--n", "65")
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "curvature"
        stage = next(s for s in report["stages"] if s["name"] == "curvature")
        assert abs(stage["k_center"]) <= 1e-6

    def test_sphere_fails_at_curvature(self, capsys):
        code, report = run_cli(capsys, "verify-minding", "--catalog", "sphere_patch", "--n", "65")
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "curvature"
        stage = next(s for s in report["stages"] if s["name"] == "curvature")
        assert stage["k_center"] == pytest.approx(1.0, abs=1e-3)

    def test_flat_metric_file(self, capsys, tmp_path):
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 33, 33)
        path = tmp_path / "metric.json"
        write_field(path, g, {
            "E": np.ones(g.shape), "F": np.full(g.shape, 0.5), "G": np.ones(g.shape),
        })
        code, report = run_cli(capsys, "verify-minding", "--metric-file", str(path))
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "curvature"


class TestFactorCommands:
    def test_solve_catalog(self, capsys):
        code, report = run_cli(capsys, "solve", "--catalog", "poincare_disk_patch", "--n", "65")
        assert code == EXIT_PASS
        iters = next(s for s in report["stages"] if s["name"] == "newton_iterations")
        assert iters["measured"] <= 8.0

    def test_develop_catalog(self, capsys):
        code, report = run_cli(
            capsys, "develop", "--catalog", "half_plane_pseudosphere", "--n", "65"
        )
        assert code == EXIT_PASS
        assert "exponent_half" in report["calibration"]
        assert "exponent_quarter" in report["calibration"]

    def test_liouville_check_catalog(self, capsys):
        code, report = run_cli(
            capsys, "liouville-check", "--catalog", "half_plane_pseudosphere", "--n", "65"
        )
        assert code == EXIT_PASS

    def test_develop_zero_factor(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 0.0)
        code, report = run_cli(capsys, "develop", "--factor-file", str(path))
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "pullback_isometry"

    def test_develop_undevelopable_factor(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 3.0)
        code, report = run_cli(capsys, "develop", "--factor-file", str(path))
        assert code == EXIT_SOLVER
        assert "not developable" in report["stages"][0]["error"]

    def test_liouville_check_zero_factor(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 0.0)
        code, report = run_cli(capsys, "liouville-check", "--factor-file", str(path))
        assert code == EXIT_TOLERANCE


class TestArtifactsAndExport:
    def test_verify_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _ = run_cli(
            capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
            "--n", "33", "--out", str(out),
        )
        assert code == EXIT_PASS
        for name in ("report.json", "chart.json", "factor.json", "developing.json"):
            assert (out / name).is_file()

    def test_export_plots(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "33", "--out", str(out))
        code, report = run_cli(capsys, "export-plots", "--out", str(out))
        assert code == EXIT_PASS
        assert "residuals.csv" in report["written"]
        assert "phi.csv" in report["written"]
        lines = (out / "plots" / "u.csv").read_text().splitlines()
        assert len(lines) == 33 * 33 + 1

    def test_export_refuses_then_forces(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "33", "--out", str(out))
        assert run_cli(capsys, "export-plots", "--out", str(out))[0] == EXIT_PASS
        assert run_cli(capsys, "export-plots", "--out", str(out))[0] == EXIT_USAGE
        assert run_cli(capsys, "export-plots", "--out", str(out), "--force")[0] == EXIT_PASS

    def test_export_out_from_config(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "33", "--out", str(out))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(out)}))
        assert run_cli(capsys, "export-plots", "--config", str(cfg))[0] == EXIT_PASS
        assert (out / "plots" / "u.csv").is_file()
        cfg.write_text(json.dumps({"out": str(out), "outdir": "elsewhere"}))
        assert run_cli(capsys, "export-plots", "--config", str(cfg), "--force")[0] == EXIT_USAGE

    def test_export_needs_prior_run(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "export-plots", "--out", str(tmp_path / "nothing"))
        assert code == EXIT_USAGE

    def test_synthesize_artifacts_export(self, capsys, tmp_path):
        out = tmp_path / "syn"
        run_cli(capsys, "synthesize", "--catalog", "one_soliton", "--n", "33",
                "--out", str(out))
        code, report = run_cli(capsys, "export-plots", "--out", str(out))
        assert code == EXIT_PASS
        assert "f.csv" in report["written"]
        assert "theta.csv" in report["written"]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("liouville-check", "--catalog", "half_plane_pseudosphere", "--n", "33")
        main(list(args))
        first = capsys.readouterr().out
        main(list(args))
        second = capsys.readouterr().out
        assert first == second
        assert first.strip()


class TestUsage:
    def test_no_source(self, capsys):
        code, _ = run_cli(capsys, "verify-minding")
        assert code == EXIT_USAGE

    def test_two_sources(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 0.0, n=17)
        code, _ = run_cli(capsys, "verify-minding", "--catalog", "one_soliton",
                          "--factor-file", str(path))
        assert code == EXIT_USAGE

    def test_bad_thread_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("MINDING_LAB_THREADS", "many")
        code, _ = run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere")
        assert code == EXIT_USAGE

    def test_thread_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("MINDING_LAB_THREADS", "1")
        code, _ = run_cli(capsys, "liouville-check", "--catalog",
                          "half_plane_pseudosphere", "--n", "33")
        assert code == EXIT_PASS

    def test_cli_import_loads_no_numpy(self):
        # numpy sizes its BLAS thread pool when it is first imported, so
        # the MINDING_LAB_THREADS cap only reaches it if importing the
        # CLI leaves numpy unloaded until a command body runs
        src = str(Path(minding_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = "import sys, minding_lab.cli; sys.exit('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe],
                                env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert result.returncode == 0

    def test_config_file_defaults_and_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"catalog": "half_plane_pseudosphere", "n": 33}))
        code, report = run_cli(capsys, "liouville-check", "--config", str(cfg))
        assert code == EXIT_PASS
        assert report["config"]["n"] == 33
        code, report = run_cli(capsys, "liouville-check", "--config", str(cfg),
                               "--catalog", "poincare_disk_patch")
        assert code == EXIT_PASS
        assert report["config"]["catalog"] == "poincare_disk_patch"

    def test_config_file_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": "one_soliton"}))
        code, _ = run_cli(capsys, "liouville-check", "--config", str(cfg))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", ["[]", "3", '"x"'])
    def test_config_file_not_an_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        for argv in (["liouville-check", "--config", str(cfg)],
                     ["export-plots", "--config", str(cfg)]):
            assert main(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert str(cfg) in err and "JSON object" in err

    def test_factor_file_float_overflow(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 0.0, n=17)
        doc = json.loads(path.read_text())
        doc["values"][0] = 10**400
        path.write_text(json.dumps(doc))
        assert main(["liouville-check", "--factor-file", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err


class TestFailureClassification:
    """Only the package's solver errors mean exit 4; a bug keeps its
    traceback instead of passing as a solver failure."""

    def test_programming_error_propagates(self, capsys, monkeypatch):
        import minding_lab.conformal

        def broken(metric, **kwargs):
            raise TypeError("complex assembly got the wrong dtype")

        monkeypatch.setattr(minding_lab.conformal, "flatten_conformal", broken)
        with pytest.raises(TypeError, match="wrong dtype"):
            main(["flatten", "--catalog", "flat_plane", "--n", "17"])

    def test_solver_error_outside_a_stage_exits_4(self, capsys, monkeypatch):
        import minding_lab.weak
        from minding_lab.elliptic import EllipticError

        def gives_up(*args, **kwargs):
            raise EllipticError("quadrature gave up")

        monkeypatch.setattr(minding_lab.weak, "liouville_weak_residual", gives_up)
        code = main(["liouville-check", "--catalog", "half_plane_pseudosphere", "--n", "17"])
        assert code == EXIT_SOLVER
        assert "solver failure: quadrature gave up" in capsys.readouterr().err

    def test_out_under_a_regular_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        code = main(["verify-minding", "--catalog", "half_plane_pseudosphere",
                     "--n", "17", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {out}" in err and "solver failure" not in err
