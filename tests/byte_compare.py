"""Byte-compare the command-line outputs of two source trees.

    python tests/byte_compare.py PARENT_ROOT

Runs the same commands against this tree and against PARENT_ROOT (a
checkout of another commit, such as the parent of a change that should
leave every output alone):

- ``verify-minding`` on the five catalog sources at n = 65 and 129;
- ``develop`` and ``solve`` on both catalog charts at the same sizes;
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
SIZES = (65, 129)
SOURCES = ("one_soliton", "poincare_disk_patch", "half_plane_pseudosphere",
           "sphere_patch", "flat_plane")
CHARTS = ("poincare_disk_patch", "half_plane_pseudosphere")


def commands():
    """(label, argv after the interpreter, --out directory or None);
    ``{root}`` in argv stands for the tree under test."""
    runs = []
    for n in SIZES:
        cli = [("verify-minding", source) for source in SOURCES]
        cli += [(command, chart) for command in ("develop", "solve") for chart in CHARTS]
        for command, source in cli:
            out = f"out/{command}-{source}-{n}"
            runs.append((f"{command} {source} n={n}",
                         ["-m", "minding_lab.cli", command, "--catalog", source,
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
