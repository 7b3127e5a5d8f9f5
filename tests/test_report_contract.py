"""Report contract: ``verify-minding`` reports match committed goldens.

Each golden under ``tests/golden/`` holds, for one catalog source at
n = 65, the exit code, the report with its ``out_dir`` blanked, and the
component list of every artifact file.  Structure, verdicts, counts and
channel lists must match exactly.  Floats must match to a relative
1e-9: a libm that differs in the last bits passes, a change in what is
computed does not.

A change that sets out to alter a report regenerates the goldens, and
says so, with

    PYTHONPATH=src python3 tests/test_report_contract.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from minding_lab.cli import CATALOG, main

GOLDEN = Path(__file__).parent / "golden"
N = "65"


def snapshot(source: str, out: Path) -> dict:
    code = main(["verify-minding", "--catalog", source, "--n", N, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    report["config"]["out_dir"] = None
    artifacts = {
        path.name: json.loads(path.read_text())["components"]
        for path in sorted(out.glob("*.json"))
        if path.name != "report.json"
    }
    return {"exit_code": code, "report": report, "artifacts": artifacts}


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


@pytest.mark.parametrize("source", CATALOG)
def test_verify_minding_matches_golden(source, tmp_path, capsys):
    actual = snapshot(source, tmp_path)
    capsys.readouterr()
    expected = json.loads((GOLDEN / f"{source}.json").read_text())
    assert_matches(actual, expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for source in CATALOG:
        with tempfile.TemporaryDirectory() as tmp:
            doc = snapshot(source, Path(tmp))
        (GOLDEN / f"{source}.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {source}.json (exit {doc['exit_code']})", file=sys.stderr)
