"""Command driver: exit codes, reports, artifacts, determinism."""

import base64
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minding_lab
import minding_lab.grid as grid
from minding_lab import cli
from minding_lab.cli import (
    CATALOG,
    COMPATIBILITY_TOL,
    EXIT_PASS,
    EXIT_SOLVER,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    SOURCE_FILES,
    ConfigError,
    PipelineConfig,
    main,
)
from minding_lab.fieldio import read_field, write_field
from minding_lab.grid import Grid2D, GridError, ScalarField, SolverError


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
        with pytest.raises(ConfigError, match="finite"):
            # an infinite scale would pass every gate
            PipelineConfig(catalog="one_soliton", tol_scale=float("inf"))

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
        # --n no finer than the file's 33 nodes, which verify-minding refuses
        code, report = run_cli(capsys, "verify-minding", "--metric-file", str(path), "--n", "33")
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "curvature"


class TestRescaleGate:
    """The synthesized factor gates scale with the image grid's h^2, so
    a metric of curvature -0.995 fails at rescale where K = -1 sources
    pass every gate."""

    @pytest.mark.parametrize("n", ["65", "129", "257"])
    def test_curvature_off_by_half_a_percent_fails_at_rescale(self, capsys, tmp_path, n):
        assert main(["metric", "--catalog", "one_soliton", "--n", n,
                     "--out", str(tmp_path / "run")]) == EXIT_PASS
        capsys.readouterr()
        grid, channels = read_field(tmp_path / "run" / "metric.json")
        path = tmp_path / "metric.json"
        write_field(path, grid, {c: channels[c] / 0.995 for c in ("E", "F", "G")})
        code, report = run_cli(capsys, "verify-minding", "--metric-file", str(path), "--n", n)
        assert code == EXIT_TOLERANCE
        assert report["failed_stage"] == "rescale"
        assert report["stages"][-1]["fit"] == pytest.approx(0.995, abs=2e-3)

    @pytest.mark.parametrize("n", ["65", "129", "257"])
    def test_boosted_soliton_passes(self, capsys, tmp_path, n):
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, int(n), int(n))
        X, Y = g.mesh()
        path = tmp_path / "theta.json"
        write_field(path, g, {"theta": 4.0 * np.arctan(np.exp(1.5 * X + Y / 1.5))})
        code, report = run_cli(capsys, "verify-minding", "--theta-file", str(path), "--n", n)
        assert code == EXIT_PASS
        stages = {s["name"]: s for s in report["stages"]}
        for name in ("rescale", "liouville_weak", "bootstrap", "pullback_isometry"):
            assert stages[name]["gate"] < 1e-2, name


class TestFactorCommands:
    def test_solve_catalog(self, capsys):
        code, report = run_cli(capsys, "solve", "--catalog", "poincare_disk_patch", "--n", "65")
        assert code == EXIT_PASS
        iters = next(s for s in report["stages"] if s["name"] == "newton_iterations")
        assert iters["measured"] <= 8.0

    @pytest.mark.parametrize("source, iterations", [("poincare_disk_patch", 4),
                                                    ("half_plane_pseudosphere", 2)])
    def test_solve_shows_second_order(self, capsys, source, iterations):
        # the start is not gated on its own, so n = 257 passes on the disk
        # too; the error against the exact factor falls by 4 per halving
        errors = []
        for n in ("65", "129", "257"):
            code, report = run_cli(capsys, "solve", "--catalog", source, "--n", n)
            assert code == EXIT_PASS
            stages = {s["name"]: s for s in report["stages"]}
            assert stages["newton_iterations"]["measured"] == iterations
            errors.append(stages["newton_accuracy"]["measured"])
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9, orders

    def test_develop_catalog(self, capsys):
        code, report = run_cli(
            capsys, "develop", "--catalog", "half_plane_pseudosphere", "--n", "65"
        )
        assert code == EXIT_PASS

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

    def test_liouville_check_nan_outside_every_bump(self, capsys, tmp_path):
        # node (0, 0) lies outside every bump's support, yet a NaN there
        # is still refused before any residual is reported
        half = 0.5 / np.sqrt(2.0)
        g = Grid2D.from_bounds(-half, half, -half, half, 33, 33)
        X, Y = g.mesh()
        u = np.log(2.0) - np.log(1.0 - X**2 - Y**2)
        u[0, 0] = np.nan
        path = tmp_path / "u.json"
        write_field(path, g, {"u": u})
        assert main(["liouville-check", "--factor-file", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: 'u' channel has a non-finite sample\n"

    def test_metric_from_theta_file_matches_catalog(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _ = run_cli(capsys, "synthesize", "--catalog", "one_soliton", "--n", "33",
                          "--out", str(out))
        assert code == EXIT_PASS
        # the surface file's theta channel is the angle field
        code, from_file = run_cli(capsys, "metric", "--theta-file", str(out / "surface.json"))
        code_catalog, from_catalog = run_cli(capsys, "metric", "--catalog", "one_soliton",
                                             "--n", "33")
        assert code == code_catalog == EXIT_PASS
        assert from_file["stages"] == from_catalog["stages"]
        assert [s["name"] for s in from_file["stages"]][:3] == [
            "sine_gordon", "frame_path_independence", "corollary_conditions",
        ]
        for key in ("passed", "failed_stage"):
            assert from_file[key] == from_catalog[key]


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

    def test_export_refuses_pipeline_flags(self, capsys, tmp_path):
        # export-plots reads a prior run and takes no source of its own
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "33", "--out", str(out))
        with pytest.raises(SystemExit) as info:
            main(["export-plots", "--out", str(out), "--force", "--catalog", "one_soliton"])
        assert info.value.code == EXIT_USAGE
        assert not (out / "plots").exists()

    @pytest.mark.parametrize("source, channels, missing", [
        ("surface.json", ("fx", "fy", "fz", "Nx", "Ny", "Nz", "angle"), "['theta']"),
        ("developing.json", ("phi_im",), "['phi_re']"),
        ("surface.json", ("fx", "fy", "Nx", "Ny", "Nz", "theta"), "['fz']"),
    ], ids=["theta_named_angle", "developing_without_phi_re", "surface_without_fz"])
    def test_export_refuses_source_missing_a_channel(self, capsys, tmp_path, source,
                                                     channels, missing):
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_text(json.dumps({"stages": []}))
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 5, 5)
        write_field(out / source, g, {c: np.zeros(g.shape) for c in channels})
        assert main(["export-plots", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {out / source}: missing channels {missing}" in err
        assert "Traceback" not in err

    def test_export_checks_every_source_before_writing(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "17", "--out", str(out))
        good = (out / "developing.json").read_bytes()
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 5, 5)
        write_field(out / "developing.json", g, {"phi_im": np.zeros(g.shape)})
        # developing.json is the last source: no CSV of an earlier one is
        # written and the plots directory is not even created
        assert main(["export-plots", "--out", str(out)]) == EXIT_USAGE
        assert "missing channels ['phi_re']" in capsys.readouterr().err
        assert not (out / "plots").exists()
        (out / "developing.json").write_bytes(good)
        assert run_cli(capsys, "export-plots", "--out", str(out))[0] == EXIT_PASS

    def test_export_force_keeps_good_plots_when_a_source_fails(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "17", "--out", str(out))
        code, report = run_cli(capsys, "export-plots", "--out", str(out))
        assert code == EXIT_PASS
        before = {p.name: p.read_bytes() for p in (out / "plots").iterdir()}
        assert sorted(before) == report["written"]
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 5, 5)
        write_field(out / "factor.json", g, {"h": np.ones(g.shape)})
        assert main(["export-plots", "--out", str(out), "--force"]) == EXIT_USAGE
        assert "missing channels ['u']" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (out / "plots").iterdir()} == before

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"stages": [{"name": "x"}]}'],
                             ids=["not_json", "not_an_object", "stage_without_passed"])
    def test_export_checks_the_report_before_touching_plots(self, capsys, tmp_path, text):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "17", "--out", str(out))
        assert run_cli(capsys, "export-plots", "--out", str(out))[0] == EXIT_PASS
        before = {p.name: p.read_bytes() for p in (out / "plots").iterdir()}
        (out / "report.json").write_text(text)
        assert main(["export-plots", "--out", str(out), "--force"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {out / 'report.json'}: " in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in (out / "plots").iterdir()} == before

    def test_export_takes_no_source_flags(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "17", "--out", str(out))
        for flag, value in (("--catalog", "one_soliton"), ("--theta-file", "t.json"),
                            ("--surface-file", "s.json"), ("--metric-file", "m.json"),
                            ("--factor-file", "f.json"), ("--n", "17"), ("--tol-scale", "2")):
            with pytest.raises(SystemExit) as stop:
                main(["export-plots", flag, value, "--out", str(out)])
            assert stop.value.code == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (out / "plots").exists()

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


class TestTolScale:
    @pytest.mark.parametrize("source", ["one_soliton", "half_plane_pseudosphere"])
    def test_halves_every_gate_but_the_compatibility_cap(self, capsys, source):
        gates = []
        for scale in ("1", "0.5"):
            _, report = run_cli(capsys, "verify-minding", "--catalog", source, "--n", "65",
                                "--tol-scale", scale)
            gates.append({s["name"]: s["gate"] for s in report["stages"] if "gate" in s})
        full, half = gates
        shared = full.keys() & half.keys()
        assert {"curvature", "rescale"} <= shared
        for name in shared:
            # 50 h^2 is over the cap at n = 65, so sine_gordon reads it at both scales
            expected = COMPATIBILITY_TOL if name == "sine_gordon" else full[name] / 2
            assert half[name] == expected, name
        assert ("sine_gordon" in shared) == (source == "one_soliton")

    def test_leaves_the_newton_budget(self, capsys):
        budgets = []
        for scale in ("1", "0.5"):
            _, report = run_cli(capsys, "solve", "--catalog", "half_plane_pseudosphere",
                                "--n", "65", "--tol-scale", scale)
            budgets += [s["gate"] for s in report["stages"] if s["name"] == "newton_iterations"]
        assert budgets == [8.0, 8.0]


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

    # str.isdigit takes these; int() refuses the first and reads 3 from the second
    @pytest.mark.parametrize("cap", ["\u00b2", "\u0663"], ids=["superscript_two", "arabic_three"])
    def test_thread_cap_takes_ascii_digits_only(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("MINDING_LAB_THREADS", cap)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        code = main(["develop", "--catalog", "half_plane_pseudosphere", "--n", "17"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == (
            f"error: MINDING_LAB_THREADS must be a positive integer, got {cap!r}\n")
        assert "OMP_NUM_THREADS" not in os.environ
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_thread_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("MINDING_LAB_THREADS", "1")
        code, _ = run_cli(capsys, "liouville-check", "--catalog",
                          "half_plane_pseudosphere", "--n", "33")
        assert code == EXIT_PASS

    def test_thread_cap_defaults_to_one_and_yields_to_the_shell(self, monkeypatch):
        monkeypatch.delenv("MINDING_LAB_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        cli._apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

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

    def test_replay_commands_load_no_scipy(self, capsys, tmp_path):
        # re-checking saved artifacts needs numpy only; scipy's import
        # would be most of the start-up of these commands
        out = tmp_path / "run"
        run_cli(capsys, "synthesize", "--catalog", "one_soliton", "--n", "33", "--out", str(out))
        run_cli(capsys, "verify-minding", "--catalog", "half_plane_pseudosphere",
                "--n", "33", "--out", str(out))
        src = str(Path(minding_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "from minding_lab.cli import main\n"
            "out = sys.argv[1]\n"
            "for argv in (['metric', '--surface-file', out + '/surface.json'],\n"
            "             ['develop', '--factor-file', out + '/factor.json'],\n"
            "             ['liouville-check', '--factor-file', out + '/factor.json'],\n"
            "             ['export-plots', '--out', out]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n"
            "    scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "    if scipy:\n"
            "        sys.exit(f'{argv[0]} loaded {scipy[:3]}')\n"
        )
        result = subprocess.run([sys.executable, "-c", probe, str(out)],
                                env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-500:]

    def test_catalog_solve_loads_no_scipy(self):
        # Newton and the bootstrap's Poisson solve run on numpy alone, so
        # neither command on an exact catalog chart imports scipy
        src = str(Path(minding_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "from minding_lab.cli import main\n"
            "for command in ('solve', 'verify-minding'):\n"
            "    for source in ('poincare_disk_patch', 'half_plane_pseudosphere'):\n"
            "        if main([command, '--catalog', source, '--n', '33']) != 0:\n"
            "            sys.exit(f'{command} {source} failed')\n"
            "        scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "        if scipy:\n"
            "            sys.exit(f'{command} {source} loaded {scipy[:3]}')\n"
        )
        result = subprocess.run([sys.executable, "-c", probe],
                                env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-500:]

    @pytest.mark.parametrize("argv", [
        ["liouville-check", "--catalog", "half_plane_pseudosphere", "--n", "9"],
        ["export-plots", "--out", "run"],
    ], ids=["pipeline", "export-plots"])
    def test_config_is_an_unknown_argument(self, capsys, argv):
        # every run is set by its flags alone; there is no file of defaults
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", "x.json"])
        assert info.value.code == EXIT_USAGE
        assert "unrecognized arguments: --config x.json" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["a\x00b", "\ud800"])
    def test_out_path_the_file_system_refuses(self, capsys, out):
        code = main(["liouville-check", "--catalog", "half_plane_pseudosphere", "--n", "9",
                     "--out", out])
        assert code == EXIT_USAGE
        assert "unusable --out path" in capsys.readouterr().err

    def test_factor_file_float_overflow(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 0.0, n=17)
        # an integer no float can hold
        doc = json.loads(path.read_text())
        doc["dx"] = 10**400
        path.write_text(json.dumps(doc))
        assert main(["liouville-check", "--factor-file", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(nx=float(doc["nx"])),
        lambda doc: doc.update(components=[doc["components"]]),
        lambda doc: doc.update(components="u"),
        lambda doc: doc.update(note="extra"),
        # the file's own values, as a list: the payload is base64 only
        lambda doc: doc.update(values=np.frombuffer(base64.b64decode(doc["values"])).tolist()),
    ], ids=["float_nx", "nested_name", "string_components", "unknown_key", "list_values"])
    def test_malformed_factor_file(self, capsys, tmp_path, mutate):
        path = tmp_path / "u.json"
        write_factor(path, 0.0, n=17)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        assert main(["liouville-check", "--factor-file", str(path)]) == EXIT_USAGE
        assert f"error: {path}" in capsys.readouterr().err

    def test_factor_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_factor(path, 0.0, n=17)
        path.write_bytes(path.read_bytes().replace(b'"u"', b'"\xff"'))
        assert main(["liouville-check", "--factor-file", str(path)]) == EXIT_USAGE
        assert f"error: {path}" in capsys.readouterr().err


# command -> its refusal of every source but those it takes; 33 cells refused
ALL_SOURCES = (*CATALOG, *SOURCE_FILES)
NOT_FACTOR = tuple(s for s in ALL_SOURCES if s != "factor_file")
FACTOR_NEEDS = ("this command needs a factor file or a catalog chart source",
                ("factor_file", "half_plane_pseudosphere", "poincare_disk_patch"))
TAKES = {
    "synthesize": ("synthesize needs a one_soliton catalog or a theta file",
                   ("one_soliton", "theta_file")),
    "metric": ("metric needs a surface file, a theta file or the one_soliton catalog",
               ("one_soliton", "theta_file", "surface_file")),
    "flatten": ("no metric source in configuration", NOT_FACTOR),
    "liouville-check": FACTOR_NEEDS,
    "solve": FACTOR_NEEDS,
    "develop": FACTOR_NEEDS,
    "verify-minding": ("verify-minding needs a catalog, theta, surface, or metric source",
                       NOT_FACTOR),
}
REFUSED = [(command, source) for command, (_, takes) in TAKES.items()
           for source in ALL_SOURCES if source not in takes]
ACCEPTED_FILES = [(command, flag) for command, (_, takes) in TAKES.items()
                  for flag in SOURCE_FILES if flag in takes]


@pytest.fixture(scope="module")
def file_sources(tmp_path_factory):
    """One field file per file flag, holding every channel that flag needs."""
    root = tmp_path_factory.mktemp("sources")
    g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 9, 9)
    paths = {}
    for flag, (_, names) in SOURCE_FILES.items():
        paths[flag] = root / f"{flag}.json"
        write_field(paths[flag], g, {c: np.full(g.shape, 1.0) for c in names})
    return paths


class TestRefusedSources:
    @pytest.mark.parametrize("command, source", REFUSED)
    def test_refused_with_the_commands_message(self, capsys, file_sources, command, source):
        args = (["--catalog", source] if source in CATALOG
                else [f"--{source.replace('_', '-')}", str(file_sources[source])])
        code = main([command, *args, "--n", "17"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: {TAKES[command][0]}\n"
        assert captured.out == ""

    def test_refused_command_leaves_no_out_directory(self, capsys, tmp_path):
        out = tmp_path / "d"
        code = main(["synthesize", "--catalog", "flat_plane", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "synthesize needs" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteSourceFile:
    """A NaN or an infinity in a channel a file flag reads is a usage
    error under every command that takes the flag, whatever stage would
    read the node first."""

    @pytest.mark.parametrize("bad", ["nan_on_edge", "inf_in_core"])
    @pytest.mark.parametrize("command, flag", ACCEPTED_FILES)
    def test_exits_2_naming_file_and_channel(self, capsys, tmp_path, command, flag, bad):
        names = SOURCE_FILES[flag][1]
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 9, 9)
        channels = {c: np.full(g.shape, 1.0) for c in names}
        channel, node, value = ((names[0], (0, 4), np.nan) if bad == "nan_on_edge"
                                else (names[-1], (4, 4), np.inf))
        channels[channel][node] = value
        path = tmp_path / f"{flag}.json"
        write_field(path, g, channels)
        code = main([command, f"--{flag.replace('_', '-')}", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {path}: {channel!r} channel has a non-finite sample\n"


class TestSmallSourceFile:
    """A file grid under 9 nodes a side, the floor of ``--n``, is a usage
    error under every command that takes the file; the channel checks
    come first."""

    @pytest.mark.parametrize("nx, ny", [(3, 3), (4, 4), (9, 8)])
    @pytest.mark.parametrize("command, flag", ACCEPTED_FILES)
    def test_exits_2_naming_file(self, capsys, tmp_path, command, flag, nx, ny):
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, nx, ny)
        path = tmp_path / f"{flag}.json"
        write_field(path, g, {c: np.full(g.shape, 1.0) for c in SOURCE_FILES[flag][1]})
        code = main([command, f"--{flag.replace('_', '-')}", str(path), "--n", "9"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {path}: {nx} x {ny} nodes, fewer than 9 on a side\n"

    def test_non_finite_sample_reported_first(self, capsys, tmp_path):
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 4, 4)
        path = tmp_path / "u.json"
        write_field(path, g, {"u": np.full(g.shape, np.nan)})
        assert main(["liouville-check", "--factor-file", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: 'u' channel has a non-finite sample\n"


class TestImageGridFinerThanFile:
    """verify-minding gates its factor on the ``--n`` image grid, so a
    ``--n`` above a file's smaller node count is a usage error there."""

    def test_boosted_soliton_file_under_the_default_n(self, capsys, tmp_path):
        # at 65 nodes it passes at --n 65 (TestRescaleGate) and once read
        # 1.049e-3 against 5.483e-4 at rescale under --n 129
        g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 65, 65)
        X, Y = g.mesh()
        path = tmp_path / "theta.json"
        write_field(path, g, {"theta": 4.0 * np.arctan(np.exp(1.5 * X + Y / 1.5))})
        code = main(["verify-minding", "--theta-file", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {path}: 65 x 65 nodes, coarser than --n 129\n"
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("flag", ["theta_file", "surface_file", "metric_file"])
    def test_exits_2_naming_file(self, capsys, tmp_path, flag):
        g = Grid2D.from_bounds(0.0, 1.0, 0.0, 1.0, 17, 9)
        path = tmp_path / f"{flag}.json"
        write_field(path, g, {c: np.full(g.shape, 1.0) for c in SOURCE_FILES[flag][1]})
        code = main(["verify-minding", f"--{flag.replace('_', '-')}", str(path), "--n", "17"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {path}: 17 x 9 nodes, coarser than --n 17\n"


class TestNonFiniteMeasurement:
    """A measurement that is not finite fails its gate, and the report
    stays strict JSON: no NaN token, no measured value."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_recorded_as_failed_gate_with_error(self, value):
        run = cli._Run("liouville-check", PipelineConfig(catalog="half_plane_pseudosphere"))
        assert run.check("curvature_defect", value, 1e-3, test_count=4) is False
        assert run.stages == [{"name": "curvature_defect", "gate": 1e-3, "passed": False,
                               "error": f"measured residual is {value}"}]
        report = json.loads(json.dumps(run.report(), allow_nan=False))
        assert report["failed_stage"] == "curvature_defect"
        assert run.exit_code() == EXIT_TOLERANCE


class TestInteriorNanIsNotSkipped:
    """A NaN at a node a reduction covers comes back from it, so the gate
    it feeds fails instead of passing on the other nodes."""

    @pytest.mark.parametrize("node", [(2, 2), (4, 5)], ids=["first_gated_node", "core"])
    @pytest.mark.parametrize("reduction", ["interior_abs_max", "curvature_defect"])
    def test_nan_comes_back(self, monkeypatch, reduction, node):
        g = Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 9, 9)
        if reduction == "interior_abs_max":
            values = np.ones(g.shape)
            values[node] = np.nan
            measured = grid.interior_abs_max(values)
        else:
            laplacian = grid.fd_laplacian

            def planted(values, at):
                out = laplacian(values, at).copy()
                out[node[0] - 1, node[1] - 1] = np.nan  # the Laplacian's [0, 0] is node (1, 1)
                return out

            monkeypatch.setattr(grid, "fd_laplacian", planted)
            measured = cli._curvature_defect(ScalarField(g, np.zeros(g.shape)))
        assert math.isnan(measured)


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

    def test_solver_error_in_a_stage_ends_the_chain(self, capsys, monkeypatch, tmp_path):
        import minding_lab.conformal
        from minding_lab.conformal import ConformalError

        def gives_up(*args, **kwargs):
            raise ConformalError("flatten gave up")

        monkeypatch.setattr(minding_lab.conformal, "flatten_conformal", gives_up)
        out = tmp_path / "run"
        code, report = run_cli(capsys, "verify-minding", "--catalog", "one_soliton",
                               "--n", "33", "--out", str(out))
        assert code == EXIT_SOLVER
        assert report["failed_stage"] == "flatten" and report["solver_error"] is True
        assert report["stages"][-1] == {"name": "flatten", "passed": False,
                                        "error": "flatten gave up"}
        assert all(s["passed"] for s in report["stages"][:-1])
        # the artifacts of the stages before flatten are written, none after
        assert sorted(p.name for p in out.iterdir()) == [
            "metric.json", "report.json", "surface.json"]

    @pytest.mark.parametrize("module, function, error, argv, stage", [
        ("chebyshev", "integrate_frame", "SingularAngleError",
         ["synthesize", "--catalog", "one_soliton"], "frame_integration"),
        ("forms", "induced_metric", "DegenerateMetricError",
         ["metric", "--catalog", "one_soliton"], "induced_metric"),
        ("conformal", "flatten_conformal", "ConformalError",
         ["flatten", "--catalog", "flat_plane"], "flatten"),
        ("elliptic", "bootstrap_equivalence", "EllipticError",
         ["verify-minding", "--catalog", "half_plane_pseudosphere"], "bootstrap"),
        ("developing", "develop", "DevelopError",
         ["develop", "--catalog", "half_plane_pseudosphere"], "develop"),
    ], ids=["SingularAngleError", "DegenerateMetricError", "ConformalError", "EllipticError",
            "DevelopError"])
    def test_every_solver_error_exits_4_at_its_stage(self, capsys, monkeypatch, module,
                                                     function, error, argv, stage):
        import importlib

        mod = importlib.import_module(f"minding_lab.{module}")
        cls = getattr(mod, error)
        assert issubclass(cls, SolverError)

        def gives_up(*args, **kwargs):
            raise cls(f"{function} gave up")

        monkeypatch.setattr(mod, function, gives_up)
        code, report = run_cli(capsys, *argv, "--n", "33")
        assert code == EXIT_SOLVER
        assert report["solver_error"] is True and report["failed_stage"] == stage
        assert report["stages"][-1] == {"name": stage, "passed": False,
                                        "error": f"{function} gave up"}

    def test_usage_errors_are_no_solver_errors(self):
        assert not issubclass(GridError, SolverError)
        assert not issubclass(ConfigError, SolverError)

    def test_out_under_a_regular_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        code = main(["verify-minding", "--catalog", "half_plane_pseudosphere",
                     "--n", "17", "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"error: {out}" in captured.err and "solver failure" not in captured.err
        # found before the first stage: no report, no stage lines
        assert captured.out == ""
        assert "ok]" not in captured.err
