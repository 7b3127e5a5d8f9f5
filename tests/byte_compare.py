"""Byte-compare the command-line outputs of two source trees.

    python tests/byte_compare.py PARENT_ROOT

Runs the same commands against this tree and against PARENT_ROOT (a
checkout of another commit, such as the parent of a change that should
leave every output alone):

- all seven pipeline commands on all nine sources at n = 65: the five
  catalog sources, and a theta, surface, metric and factor file taken
  from that tree's own ``verify-minding --catalog one_soliton --n 65``
  run, which goes first;
- ``verify-minding`` on the five catalog sources at n = 129, and
  ``develop`` and ``solve`` on both catalog charts there;
- ``perfbench/audit.py --seed 7``.

Each tree runs with ``PYTHONPATH`` set to its own ``src/``, in its own
scratch directory, with the same relative ``--out`` paths.  Exit code,
stdout, stderr and every file under each ``--out`` directory are
compared byte for byte.  Prints each difference and exits 1 if there is
any, 0 otherwise.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SOURCES = ("one_soliton", "poincare_disk_patch", "half_plane_pseudosphere",
           "sphere_patch", "flat_plane")
CHARTS = ("poincare_disk_patch", "half_plane_pseudosphere")
COMMANDS = ("verify-minding", "synthesize", "metric", "flatten", "liouville-check",
            "solve", "develop")
# file flag -> the artifact of the first run that serves as that source
FILES = {"theta-file": "surface.json", "surface-file": "surface.json",
         "metric-file": "metric.json", "factor-file": "factor.json"}


def commands():
    """(label, argv after the interpreter, --out directory or None);
    ``{root}`` in argv stands for the tree under test."""
    sources = [("catalog", source, source) for source in SOURCES]
    sources += [(flag, f"out/verify-minding-one_soliton-65/{name}", flag)
                for flag, name in FILES.items()]
    cli = [(command, source, 65) for source in sources for command in COMMANDS]
    cli += [("verify-minding", ("catalog", source, source), 129) for source in SOURCES]
    cli += [(command, ("catalog", chart, chart), 129)
            for command in ("develop", "solve") for chart in CHARTS]
    runs = []
    for command, (flag, source, label), n in cli:
        out = f"out/{command}-{label}-{n}"
        runs.append((f"{command} {label} n={n}",
                     ["-m", "minding_lab.cli", command, f"--{flag}", source,
                      "--n", str(n), "--out", out], out))
    runs.append(("audit --seed 7", ["{root}/perfbench/audit.py", "--seed", "7"], None))
    return runs


def run(root: Path, workdir: Path, argv: list[str], out: str | None) -> dict[str, bytes]:
    """Everything one command leaves, keyed by what it is."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [arg.replace("{root}", str(root)) for arg in argv]
    done = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          capture_output=True)
    result = {"exit code": str(done.returncode).encode(),
              "stdout": done.stdout, "stderr": done.stderr}
    if out is not None:
        base = workdir / out
        for path in sorted(base.rglob("*")) if base.exists() else ():
            if path.is_file():
                result[f"file {path.relative_to(base)}"] = path.read_bytes()
    return result


def first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"{len(b)} bytes against {len(a)}, first difference at byte {at}: "
            f"{a[at:at + 60]!r} -> {b[at:at + 60]!r}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/byte_compare.py PARENT_ROOT", file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    differences = 0
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {name: Path(scratch, name) for name in ("parent", "tree")}
        for d in dirs.values():
            d.mkdir()
        for label, argv_run, out in commands():
            old = run(parent, dirs["parent"], argv_run, out)
            new = run(HERE, dirs["tree"], argv_run, out)
            found = []
            for key in sorted(set(old) | set(new)):
                if key not in old or key not in new:
                    found.append(f"{key} only in {'parent' if key in old else 'this tree'}")
                elif old[key] != new[key]:
                    found.append(f"{key}: {first_difference(old[key], new[key])}")
            for line in found:
                print(f"DIFF {label}: {line}")
            print(f"{'differs' if found else 'same'}: {label} ({len(new)} outputs)", flush=True)
            differences += len(found)
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
