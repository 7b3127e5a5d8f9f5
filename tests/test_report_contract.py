"""Report contract: every command's report matches a committed golden.

Each golden under ``tests/golden/`` holds the exit code, the report
with its path fields blanked, and the component list of every artifact
file.  There is one golden per catalog source for ``verify-minding`` at
n = 65, and one per case in ``COMMANDS``: the six other commands,
including their failing paths.  Structure, verdicts, counts and
channel lists must match exactly.  Floats must match to a relative
1e-9, which a change in what is computed does not pass.

Some goldens are rounding noise of quantities that are exactly zero:
the flatten anisotropy and skew of ``flat_plane`` and ``sphere_patch``,
and the ``k_center`` of ``flat_plane``.  They sit between 1e-13 and
1e-9, far under their gates, and move by order one, relative, under
any change to the flatten solve or to the BLAS.  Such a change fails
this test although no verdict moves, and regenerates the goldens.

A change that sets out to alter a report regenerates the goldens, and
says so, with

    PYTHONPATH=src python3 tests/test_report_contract.py

which prints, under each golden it rewrites, every leaf that moved: its
JSON path, then old -> new.  Floats count as moved beyond a relative
1e-9, anything else on any change, and a key or item that appears or
goes shows the other side as ``<absent>``.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

import numpy as np

from minding_lab.cli import CATALOG, main
from minding_lab.fieldio import write_field
from minding_lab.grid import Grid2D

GOLDEN = Path(__file__).parent / "golden"
N = "65"
PATHS = ("theta_file", "surface_file", "metric_file", "factor_file", "out_dir")
CONSTANT_FACTOR = "constant_factor.json"  # u = 0: both Liouville gates fail
OVERFLOW_FACTOR = "overflow_factor.json"  # u = 800: e^u overflows the develop march
FACTORS = {CONSTANT_FACTOR: 0.0, OVERFLOW_FACTOR: 800.0}

# golden name -> arguments; the FACTORS files are written next to the run
COMMANDS = {
    "synthesize-one_soliton": ["synthesize", "--catalog", "one_soliton"],
    "metric-one_soliton": ["metric", "--catalog", "one_soliton"],
    "flatten-one_soliton": ["flatten", "--catalog", "one_soliton"],
    "flatten-flat_plane": ["flatten", "--catalog", "flat_plane"],
    "solve-half_plane_pseudosphere": ["solve", "--catalog", "half_plane_pseudosphere"],
    "solve-half_plane_pseudosphere-tol1e-6": [
        "solve", "--catalog", "half_plane_pseudosphere", "--tol-scale", "1e-6"],
    "develop-half_plane_pseudosphere": ["develop", "--catalog", "half_plane_pseudosphere"],
    "liouville-check-constant_factor": ["liouville-check", "--factor-file", CONSTANT_FACTOR],
    "develop-constant_factor": ["develop", "--factor-file", CONSTANT_FACTOR],
    "develop-overflow_factor": ["develop", "--factor-file", OVERFLOW_FACTOR],
    "verify-minding-one_soliton-n17": ["verify-minding", "--catalog", "one_soliton",
                                       "--n", "17"],
}


def write_constant_factor(path: Path, value: float) -> None:
    half = 0.5 / np.sqrt(2.0)
    g = Grid2D.from_bounds(-half, half, -half, half, 65, 65)
    write_field(path, g, {"u": np.full(g.shape, value)})


def run_snapshot(argv: list, out: Path) -> dict:
    code = main(argv + ["--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    for key in PATHS:
        report["config"][key] = None
    artifacts = {
        path.name: json.loads(path.read_text())["components"]
        for path in sorted(out.glob("*.json"))
        if path.name != "report.json"
    }
    return {"exit_code": code, "report": report, "artifacts": artifacts}


def snapshot(source: str, out: Path) -> dict:
    return run_snapshot(["verify-minding", "--catalog", source, "--n", N], out)


def command_snapshot(case: str, tmp: Path) -> dict:
    for name, value in FACTORS.items():
        write_constant_factor(tmp / name, value)
    argv = [str(tmp / a) if a in FACTORS else a for a in COMMANDS[case]]
    if "--n" not in argv:
        argv += ["--n", N]
    return run_snapshot(argv, tmp / "out")


def assert_matches(actual, expected, where="$"):
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=1e-9), f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), (
            f"{where}: keys {list(actual)} != {list(expected)}"
        )
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{where}: {actual!r} != {expected!r}"
        )
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{k}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


ABSENT = "<absent>"


def moved_leaves(old, new, where="$"):
    """Yield ``(path, old, new)`` for every leaf where the two documents
    differ by more than ``assert_matches`` lets pass."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from moved_leaves(old.get(key, ABSENT), new.get(key, ABSENT),
                                    f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for k in range(max(len(old), len(new))):
            yield from moved_leaves(old[k] if k < len(old) else ABSENT,
                                    new[k] if k < len(new) else ABSENT, f"{where}[{k}]")
    elif isinstance(old, float) and isinstance(new, float):
        if not math.isclose(new, old, rel_tol=1e-9):
            yield where, old, new
    elif type(old) is not type(new) or old != new:
        yield where, old, new


def write_golden(name: str, doc: dict) -> None:
    path = GOLDEN / f"{name}.json"
    old = json.loads(path.read_text()) if path.is_file() else None
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {name}.json (exit {doc['exit_code']})", file=sys.stderr)
    if old is not None:
        for where, a, b in moved_leaves(old, doc):
            print(f"  {where}: {a!r} -> {b!r}", file=sys.stderr)


@pytest.mark.parametrize("source", CATALOG)
def test_verify_minding_matches_golden(source, tmp_path, capsys):
    actual = snapshot(source, tmp_path)
    capsys.readouterr()
    expected = json.loads((GOLDEN / f"{source}.json").read_text())
    assert_matches(actual, expected)


@pytest.mark.parametrize("case", COMMANDS)
def test_command_matches_golden(case, tmp_path, capsys):
    actual = command_snapshot(case, tmp_path)
    capsys.readouterr()
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert_matches(actual, expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for source in CATALOG:
        with tempfile.TemporaryDirectory() as tmp:
            write_golden(source, snapshot(source, Path(tmp)))
    for case in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            write_golden(case, command_snapshot(case, Path(tmp)))
