"""Byte-compare the command-line outputs of two source trees.

    python tests/byte_compare.py PARENT_ROOT
    python tests/byte_compare.py --rel TOL PARENT_ROOT

Runs the same commands against this tree and against PARENT_ROOT (a
checkout of another commit, such as the parent of a change that should
leave every output alone):

- all seven pipeline commands on all nine sources at n = 65: the five
  catalog sources, and a theta, surface, metric and factor file taken
  from that tree's own ``verify-minding --catalog one_soliton --n 65``
  run, which goes first;
- ``verify-minding`` on the five catalog sources at n = 129, and
  ``develop`` and ``solve`` on both catalog charts there;
- the same at n = 65 with ``--tol-scale 0.5``, so every gate is
  compared off its default scale too;
- ``verify-minding`` and ``solve`` on both catalog charts at n = 257,
  the benchmark's ``chart-solve`` commands, so the Poisson solve's gate
  and the developing map are compared where the benchmark exercises
  them;
- the benchmark's two ``soliton-chain`` runs: ``verify-minding`` on
  ``one_soliton`` at n = 257 with ``--out``, and on ``sphere_patch`` at
  n = 129 without it, so the flatten's factor is compared at the sizes
  the benchmark factors;
- the benchmark's ``artifact-replay`` commands on that n = 257 run:
  ``develop --factor-file`` on its ``factor.json``, ``metric
  --surface-file`` on its ``surface.json`` and ``export-plots --force``
  on its ``--out``, whose ``plots/`` CSV files are compared;
- ``export-plots`` on the first run's ``--out``, whose ``plots/`` CSV
  files are compared;
- ``perfbench/audit.py --seed 7``.

Each tree runs with ``PYTHONPATH`` set to its own ``src/``, in its own
scratch directory, with the same relative ``--out`` paths.  Exit code,
stdout, stderr and every file under each ``--out`` directory are
compared byte for byte.  Prints each difference and exits 1 if there is
any, 0 otherwise.  Each command's peak resident memory on both trees
is printed beside it for information; it never counts as a difference.
A small launcher process spawns each command and reads its peak with
``os.wait4``: a child's ``ru_maxrss`` starts from the high-water mark
of the process it was forked from, which would be this one's.  pytest
does not collect this file.

With ``--rel TOL`` an output may differ in its numbers.  Each output is
cut into its text and its numeric leaves: every number in the text, and
a field file's base64 payload as one array.  The text must match and so
must the exit code; a number may move by a relative ``TOL``, a scalar
by ``|new - old| / max(|new|, |old|)`` and a payload by its largest
change over its largest magnitude.  Each output that moved is printed
with its largest move, and any move above ``TOL`` is a difference.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
    """(label, argv after the interpreter, the directory whose files are
    compared or None); ``{root}`` in argv stands for the tree under test."""
    first = "out/verify-minding-one_soliton-65"
    sources = [("catalog", source, source) for source in SOURCES]
    sources += [(flag, f"{first}/{name}", flag) for flag, name in FILES.items()]
    cli = [(command, source, 65, ()) for source in sources for command in COMMANDS]
    for n, scale in ((129, ()), (65, ("--tol-scale", "0.5"))):
        cli += [("verify-minding", ("catalog", source, source), n, scale) for source in SOURCES]
        cli += [(command, ("catalog", chart, chart), n, scale)
                for command in ("develop", "solve") for chart in CHARTS]
    cli += [(command, ("catalog", chart, chart), 257, ())
            for command in ("verify-minding", "solve") for chart in CHARTS]
    cli += [("verify-minding", ("catalog", "one_soliton", "one_soliton"), 257, ())]
    runs = []
    for command, (flag, source, label), n, scale in cli:
        out = "-".join([f"out/{command}", label, str(n), *(arg.strip("-") for arg in scale)])
        runs.append((" ".join([command, label, f"n={n}", *scale]),
                     ["-m", "minding_lab.cli", command, f"--{flag}", source,
                      "--n", str(n), *scale, "--out", out], out))
    replay = "out/verify-minding-one_soliton-257"
    runs.append(("develop factor-file one_soliton n=257",
                 ["-m", "minding_lab.cli", "develop", "--factor-file", f"{replay}/factor.json",
                  "--out", "out/develop-factor-257"], "out/develop-factor-257"))
    runs.append(("metric surface-file one_soliton n=257",
                 ["-m", "minding_lab.cli", "metric", "--surface-file", f"{replay}/surface.json"],
                 None))
    runs.append(("export-plots one_soliton n=257",
                 ["-m", "minding_lab.cli", "export-plots", "--out", replay, "--force"],
                 f"{replay}/plots"))
    runs.append(("verify-minding sphere_patch n=129 without --out",
                 ["-m", "minding_lab.cli", "verify-minding", "--catalog", "sphere_patch",
                  "--n", "129"], None))
    runs.append(("export-plots one_soliton n=65",
                 ["-m", "minding_lab.cli", "export-plots", "--out", first], f"{first}/plots"))
    runs.append(("audit --seed 7", ["{root}/perfbench/audit.py", "--seed", "7"], None))
    return runs


# spawns the command after the report descriptor and writes its exit
# code and ru_maxrss (KiB) there, leaving stdout and stderr to the command
LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
os.write(int(sys.argv[1]), f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}".encode())
"""


def run(root: Path, workdir: Path, argv: list[str],
        out: str | None) -> tuple[dict[str, bytes], float]:
    """Everything one command leaves, keyed by what it is, and the
    command's peak resident memory in MB (2^20 bytes)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [arg.replace("{root}", str(root)) for arg in argv]
    with (tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr,
          tempfile.TemporaryFile() as report):
        fd = report.fileno()
        subprocess.run([sys.executable, "-c", LAUNCHER, str(fd), sys.executable, *argv],
                       cwd=workdir, env=env, stdout=stdout, stderr=stderr, pass_fds=(fd,),
                       check=True)
        report.seek(0)
        code, maxrss = report.read().split()
        stdout.seek(0)
        stderr.seek(0)
        result = {"exit code": code, "stdout": stdout.read(), "stderr": stderr.read()}
    if out is not None:
        base = workdir / out
        for path in sorted(base.rglob("*")) if base.exists() else ():
            if path.is_file():
                result[f"file {path.relative_to(base)}"] = path.read_bytes()
    return result, int(maxrss) / 1024.0


def first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"{len(b)} bytes against {len(a)}, first difference at byte {at}: "
            f"{a[at:at + 60]!r} -> {b[at:at + 60]!r}")


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_leaves(data: bytes) -> tuple[list[bytes], list[float], np.ndarray | None]:
    """One output cut into its text between numbers, its numbers, and a
    field file's payload decoded to float64 (``None`` for other outputs)."""
    payload = None
    try:
        doc = json.loads(data)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and isinstance(doc.get("values"), str):
        payload = np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8")
        data = data.replace(doc["values"].encode(), b"")
    return NUMBER.split(data), [float(x) for x in NUMBER.findall(data)], payload


def largest_move(old: bytes, new: bytes) -> tuple[float, str] | None:
    """Largest relative move of a numeric leaf from ``old`` to ``new``,
    and what moved; ``None`` if anything but numbers differs."""
    (text_a, numbers_a, array_a), (text_b, numbers_b, array_b) = map(numeric_leaves, (old, new))
    if text_a != text_b or (array_a is None) != (array_b is None):
        return None
    worst = (0.0, "")
    for a, b in zip(numbers_a, numbers_b):
        if a != b:
            worst = max(worst, (abs(b - a) / max(abs(a), abs(b)), f"{a!r} -> {b!r}"))
    if array_a is not None:
        if array_a.shape != array_b.shape or not np.array_equal(np.isnan(array_a),
                                                                np.isnan(array_b)):
            return None
        change = np.nanmax(np.abs(array_b - array_a), initial=0.0)
        if change:
            scale = np.nanmax(np.abs(array_a), initial=0.0)
            worst = max(worst, (change / scale if scale else np.inf,
                                f"payload, largest change {change:.3e}"))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rel", type=float, metavar="TOL",
                        help="let numbers move by this relative amount")
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    differences, moves = 0, []
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {name: Path(scratch, name) for name in ("parent", "tree")}
        for d in dirs.values():
            d.mkdir()
        for label, argv_run, out in commands():
            old, rss_old = run(parent, dirs["parent"], argv_run, out)
            new, rss_new = run(HERE, dirs["tree"], argv_run, out)
            found = []
            for key in sorted(set(old) | set(new)):
                if key not in old or key not in new:
                    found.append(f"{key} only in {'parent' if key in old else 'this tree'}")
                elif old[key] == new[key]:
                    continue
                elif args.rel is None or key == "exit code":
                    found.append(f"{key}: {first_difference(old[key], new[key])}")
                elif (move := largest_move(old[key], new[key])) is None:
                    found.append(f"{key}: beyond its numbers, "
                                 f"{first_difference(old[key], new[key])}")
                else:
                    print(f"move {label}: {key}: {move[0]:.2e} ({move[1]})")
                    moves.append((move[0], f"{label}: {key}"))
                    if move[0] > args.rel:
                        found.append(f"{key}: moved by {move[0]:.2e} > {args.rel:.1e}")
            for line in found:
                print(f"DIFF {label}: {line}")
            print(f"{'differs' if found else 'same'}: {label} ({len(new)} outputs; peak RSS "
                  f"{rss_old:.1f} -> {rss_new:.1f} MB)", flush=True)
            differences += len(found)
    if moves:
        print(f"{len(moves)} output(s) moved, the most {max(moves)[0]:.2e} in {max(moves)[1]}")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
