"""Report contract: every command's report matches a committed golden.

Each golden under ``tests/golden/`` holds the exit code, the report
with its path fields blanked, and the component list of every artifact
file.  There is one golden per catalog source for ``verify-minding`` at
n = 65, and one per case in ``COMMANDS``: the six other commands,
including their failing paths.  One of those is a negative control:
``verify-minding`` on a metric of curvature -0.995, which must exit 3
at ``rescale``.  A report must be strict JSON, with no NaN or
Infinity.  Structure, verdicts, counts and channel lists must match
exactly.  Floats must match to a relative 1e-9, which a change in
what is computed does not pass.

Some goldens are rounding noise of quantities that are exactly zero:
the flatten anisotropy and skew of ``flat_plane`` and ``sphere_patch``,
and the ``k_center`` of ``flat_plane``.  They sit between 1e-13 and
1e-9, far under their gates, and move by order one, relative, under
any change to the flatten solve or to the BLAS.  Such a change fails
this test although no verdict moves, and regenerates the goldens.

A change that sets out to alter a report regenerates the goldens, and
says so, with

    PYTHONPATH=src python3 tests/test_report_contract.py

which rewrites a golden only when it is new or a leaf of it moved, and
prints, under each golden it rewrites, every leaf that moved: its JSON
path, then old -> new.  Floats count as moved beyond a relative 1e-9,
anything else on any change, and a key or item that appears or goes
shows the other side as ``<absent>``.
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
OVERFLOW_FACTOR = "overflow_factor.json"  # u = 800: e^u overflows the develop march,
# e^{2u} the Liouville residual
FACTORS = {CONSTANT_FACTOR: 0.0, OVERFLOW_FACTOR: 800.0}
# one_soliton's Chebyshev metric divided by 0.995, so K = -0.995: it passes
# the image curvature gate and must fail the rescale fit
SCALED_METRIC = "k0995_metric.json"
INPUTS = (*FACTORS, SCALED_METRIC)

# golden name -> arguments; the INPUTS files are written next to the run
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
    "liouville-check-overflow_factor": ["liouville-check", "--factor-file", OVERFLOW_FACTOR],
    "develop-constant_factor": ["develop", "--factor-file", CONSTANT_FACTOR],
    "develop-overflow_factor": ["develop", "--factor-file", OVERFLOW_FACTOR],
    "verify-minding-one_soliton-n17": ["verify-minding", "--catalog", "one_soliton",
                                       "--n", "17"],
    "verify-minding-k0995_metric": ["verify-minding", "--metric-file", SCALED_METRIC],
}


def write_constant_factor(path: Path, value: float) -> None:
    half = 0.5 / np.sqrt(2.0)
    g = Grid2D.from_bounds(-half, half, -half, half, 65, 65)
    write_field(path, g, {"u": np.full(g.shape, value)})


def write_scaled_metric(path: Path) -> None:
    g = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 65, 65)
    X, Y = g.mesh()
    ones, F = np.ones(g.shape), np.cos(4.0 * np.arctan(np.exp(X + Y)))
    write_field(path, g, {"E": ones / 0.995, "F": F / 0.995, "G": ones / 0.995})


def refuse_constant(token: str):
    raise ValueError(f"report holds the non-standard JSON constant {token}")


def run_snapshot(argv: list, out: Path) -> dict:
    code = main(argv + ["--out", str(out)])
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)
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
    write_scaled_metric(tmp / SCALED_METRIC)
    argv = [str(tmp / a) if a in INPUTS else a for a in COMMANDS[case]]
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


def write_golden(name: str, doc: dict, golden: Path = GOLDEN) -> bool:
    """Write ``doc`` as the golden ``name`` under ``golden`` if it is new
    or ``moved_leaves`` lists a leaf of it, and print what moved.
    Returns whether it wrote."""
    path = golden / f"{name}.json"
    old = json.loads(path.read_text()) if path.is_file() else None
    moved = [] if old is None else list(moved_leaves(old, doc))
    if old is not None and not moved:
        return False
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {name}.json (exit {doc['exit_code']})", file=sys.stderr)
    for where, a, b in moved:
        print(f"  {where}: {a!r} -> {b!r}", file=sys.stderr)
    return True


def test_write_golden_rewrites_only_new_or_moved_goldens(tmp_path, capsys):
    doc = {"exit_code": 0, "report": {"skew": 1e-14, "stages": [1, "ok"]}}
    path = tmp_path / "case.json"
    assert write_golden("case", doc, tmp_path)
    assert json.loads(path.read_text()) == doc
    # rounding noise within a relative 1e-9 leaves the file alone
    path.write_text(json.dumps(doc) + "\n")
    kept = path.read_text()
    noise = {"exit_code": 0, "report": {"skew": 1e-14 * (1 + 1e-12), "stages": [1, "ok"]}}
    assert not write_golden("case", noise, tmp_path)
    assert path.read_text() == kept
    capsys.readouterr()
    moved = {"exit_code": 0, "report": {"skew": 1e-14, "stages": [2, "ok"]}}
    assert write_golden("case", moved, tmp_path)
    assert json.loads(path.read_text()) == moved
    assert capsys.readouterr().err.splitlines()[1:] == ["  $.report.stages[0]: 1 -> 2"]


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
