"""Desk-scale verification benchmark for minding-lab.

One benchmark process drives the package's CLI as a closed loop with one
client: it spawns one child at a time, waits for it, and checks the
verdict before it spawns the next, because users run the CLI one process
per command.  The package is run from ``src/`` of the checkout this file
lives in; nothing of it is built or edited.

    python3 perfbench/run.py --workload chart-solve --seed 1 --seconds 16 --trace 0

``--trace 0`` repeats the workload's operations, in an order drawn from
``--seed``, until ``--seconds`` have been measured, and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced cycle, one traced
cycle and one traced cycle under ``MINDING_LAB_THREADS=1`` and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment fingerprint, goes to ``.perfbench_runs/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spantrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".perfbench_runs")
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 3

PASS = {"exit": 0, "passed": True, "failed_stage": None}
PLOTS = ["f.csv", "h.csv", "phi.csv", "residuals.csv", "theta.csv", "u.csv"]

# verdicts the seed reproduces on every run; they count as failed
# operations but, as long as they keep exactly this form, do not mark
# the run incorrect (README.md, "Known failures")
KNOWN_DEFECTS = {
    "solve-poincare_disk_patch": {"exit": 4, "passed": False, "failed_stage": "newton"},
    "liouville-check-factor": {"exit": 3, "passed": False, "failed_stage": "curvature_defect"},
}


@dataclass(frozen=True)
class Op:
    """One child process with the verdict it must return."""

    name: str
    args: tuple
    expect: dict
    kind: str = "cli"  # "cli": minding_lab.cli; "audit": perfbench/audit.py
    out_dir: str | None = None  # --out target, cleared before each run


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    artifact_run: str | None = None  # --out run that set-up writes


def _cli(name, *args, expect=PASS, out_dir=None):
    return Op(name, tuple(args), expect, out_dir=out_dir)


def workloads(seed: int) -> dict:
    # every path is relative to the checkout and fixed, so reports (which
    # echo their arguments) hash the same on every run
    def work(name):
        return str(OUT / "work" / name)

    chain_out = work("soliton-chain") + "/out"
    replay = work("artifact-replay") + "/run"
    return {
        w.name: w
        for w in (
            Workload("soliton-chain", (
                _cli("verify-one_soliton-out", "verify-minding", "--catalog", "one_soliton",
                     "--n", "257", "--out", chain_out, out_dir=chain_out),
                _cli("verify-sphere_patch", "verify-minding", "--catalog", "sphere_patch",
                     "--n", "129",
                     expect={"exit": 3, "passed": False, "failed_stage": "curvature"}),
            )),
            Workload("chart-solve", tuple(
                _cli(f"{cmd}-{src}", cmd, "--catalog", src, "--n", "257")
                for src in ("poincare_disk_patch", "half_plane_pseudosphere")
                for cmd in ("verify-minding", "solve")
            )),
            Workload("artifact-replay", (
                _cli("metric-surface", "metric", "--surface-file", replay + "/surface.json"),
                _cli("develop-factor", "develop", "--factor-file", replay + "/factor.json"),
                _cli("liouville-check-factor", "liouville-check", "--factor-file",
                     replay + "/factor.json"),
                _cli("export-plots", "export-plots", "--out", replay, "--force",
                     expect={"exit": 0, "written": PLOTS}),
            ), artifact_run=replay),
            Workload("identity-audit", (
                Op("audit", ("--seed", str(seed)), PASS, kind="audit"),
            )),
        )
    }


# ---------------------------------------------------------------------------
# children


def child_env(threads: str | None = None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if threads is not None:
        # the package's own cap is applied after numpy has loaded its
        # OpenBLAS (README.md, "Known failures"), so the BLAS variables
        # are set before the interpreter starts
        for var in ("MINDING_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env[var] = threads
    return env


def spawn(argv, env, stdout_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, spawn-to-exit s, peak RSS MB).

    The child is reaped with ``os.wait4`` so that its own peak RSS is
    read, not the cumulative high-water mark of all children.  A child
    still running at ``deadline`` is killed and reported as exit -9.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), os.kill,
                            (proc.pid, signal.SIGKILL))
    timer.start()
    status = None
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if status is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def op_argv(op: Op, trace_spans: Path | None, t0: float | None) -> list:
    if trace_spans is not None:
        return [sys.executable, str(HERE / "spantrace.py"), "--spans", str(trace_spans),
                "--t0", repr(t0), op.kind, *op.args]
    if op.kind == "audit":
        return [sys.executable, str(HERE / "audit.py"), *op.args]
    return [sys.executable, "-m", "minding_lab.cli", *op.args]


def observe(op: Op, code: int, stdout: bytes) -> tuple[dict, list]:
    """Observed verdict fields plus consistency problems."""
    seen: dict = {"exit": code}
    problems = []
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        problems.append("missing or unparsable report")
        return seen, problems
    if op.kind == "audit":
        failing = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        seen.update(passed=report.get("passed"), failed_stage=failing[0] if failing else None)
    elif "written" in op.expect:
        seen["written"] = report.get("written")
    else:
        seen.update(passed=report.get("passed"), failed_stage=report.get("failed_stage"))
    if op.out_dir is not None:
        written = ROOT / op.out_dir / "report.json"
        if not written.is_file() or written.read_bytes() != stdout:
            problems.append("stdout report differs from report.json")
    return seen, problems


def judge(op: Op, seen: dict, problems: list) -> str:
    """'pass', 'known_defect' (documented failure, counted) or 'fail'."""
    if problems:
        return "fail"
    if all(seen.get(k) == v for k, v in op.expect.items()):
        return "pass"
    known = KNOWN_DEFECTS.get(op.name)
    if known is not None and all(seen.get(k) == v for k, v in known.items()):
        return "known_defect"
    return "fail"


class Runner:
    """Runs the operations of one workload run and keeps their records."""

    def __init__(self, workload: Workload, start: float) -> None:
        self.workload = workload
        self.deadline = start + RUN_LIMIT_S
        self.work = ROOT / OUT / "work" / workload.name
        self.logs = self.work / "logs"

    def run_op(self, op: Op, *, traced=False, threads=None) -> dict:
        if op.out_dir is not None:
            shutil.rmtree(ROOT / op.out_dir, ignore_errors=True)
        stdout_path = self.logs / f"{op.name}.out"
        spans_path = self.logs / f"{op.name}.spans.json" if traced else None
        t0 = time.monotonic()
        code, wall, rss = spawn(op_argv(op, spans_path, t0), child_env(threads),
                                stdout_path, self.deadline)
        stdout = stdout_path.read_bytes()
        seen, problems = observe(op, code, stdout)
        record = {
            "op": op.name,
            "argv": list(op.args),
            "wall_s": wall,
            "peak_rss_mb": rss,
            "expected": op.expect,
            "observed": seen,
            "problems": problems,
            "status": judge(op, seen, problems),
            "report_sha256": hashlib.sha256(stdout).hexdigest(),
        }
        if traced:
            record["trace"] = self._trace_record(spans_path, t0, wall)
        return record

    @staticmethod
    def _trace_record(spans_path: Path, t0: float, wall: float) -> dict:
        try:
            doc = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            return {"missing": True}
        layers = spantrace.summarize(doc["spans"])
        startup = doc["cli_ready"] - t0
        preimport = doc["ready"] - doc["cli_ready"]
        self_total = sum(layers[f"{layer}.self_s"] for layer in spantrace.LAYERS)
        # wall = startup + preimport + layer self times + other, by construction
        return {"cli.startup_s": startup, "preimport_s": preimport,
                "other_s": wall - startup - preimport - self_total,
                "spans": len(doc["spans"]), "blas_threads": doc["blas_threads"], **layers}

    def cycle(self, ops, **kw) -> dict:
        records = [self.run_op(op, **kw) for op in ops]
        return {"order": [op.name for op in ops],
                "wall_s": sum(r["wall_s"] for r in records), "ops": records}

    def probe(self) -> dict:
        """Import the package under test once; return where it came from."""
        # imports in the CLI's order (package, thread cap, layers), so the
        # BLAS thread counts are the ones a CLI child runs with
        code = ("import json, sys\n"
                f"sys.path.insert(0, {str(HERE)!r})\n"
                "import spantrace\n"
                "from minding_lab import cli\n"
                "cli._apply_thread_cap()\n"
                "import minding_lab, numpy, scipy\n"
                f"for m in {spantrace.LAYERS!r}: __import__('minding_lab.' + m)\n"
                "blas = lambda c: c['Build Dependencies']['blas'].get('version')\n"
                "print(json.dumps({'package': minding_lab.__file__,"
                " 'python': sys.version.split()[0], 'numpy': numpy.__version__,"
                " 'scipy': scipy.__version__,"
                " 'numpy_openblas': blas(numpy.show_config(mode='dicts')),"
                " 'scipy_openblas': blas(scipy.show_config(mode='dicts')),"
                " 'blas_threads': spantrace.blas_threads()}))\n")
        path = self.logs / "probe.out"
        exit_code, _, _ = spawn([sys.executable, "-c", code], child_env(), path, self.deadline)
        try:
            info = json.loads(path.read_bytes())
        except ValueError:
            info = {}
        expected = str(ROOT / "src" / "minding_lab" / "__init__.py")
        if exit_code != 0 or info.get("package") != expected:
            raise SystemExit(f"package under test does not import from {expected}: {info}")
        return info

    def setup(self) -> dict:
        """Prepare the workload's inputs: fresh work directory, package
        import check and, for artifact-replay, the --out run it replays."""
        t0 = time.monotonic()
        shutil.rmtree(self.work, ignore_errors=True)
        self.logs.mkdir(parents=True)
        info = self.probe()
        if self.workload.artifact_run is not None:
            op = _cli("setup-verify-one_soliton-out", "verify-minding", "--catalog", "one_soliton",
                      "--n", "257", "--out", self.workload.artifact_run,
                      out_dir=self.workload.artifact_run)
            record = self.run_op(op)
            if record["status"] != "pass":
                raise SystemExit(f"set-up run failed: {record['observed']} {record['problems']}")
        return {"seconds": time.monotonic() - t0, "probe": info}


# ---------------------------------------------------------------------------
# metrics and records


def fingerprint(probe: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": probe.get("python"),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "numpy_openblas": probe.get("numpy_openblas"),
        "scipy_openblas": probe.get("scipy_openblas"),
        "MINDING_LAB_THREADS": os.environ.get("MINDING_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        # threads each loaded OpenBLAS reports in a CLI child, which is not
        # what MINDING_LAB_THREADS asks for (README.md, "Known failures")
        "blas_threads": probe.get("blas_threads"),
        "git_commit": commit,
    }


def tally(cycles) -> tuple[int, int, bool]:
    records = [r for c in cycles for r in c["ops"]]
    failed = sum(r["status"] != "pass" for r in records)
    correct = bool(records) and all(r["status"] != "fail" for r in records)
    return len(records), failed, correct


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("lu_fill") else "count"


def layer_metrics(untraced: dict, traced: dict, threads1: dict) -> dict:
    """Per-layer metrics of one traced cycle, summed over its operations;
    memory rises, like ``peak_rss_mb``, are the largest of any one child."""
    traces = [r["trace"] for r in traced["ops"]]
    if any(t.get("missing") for t in traces):
        return {}
    keys = [k for k in traces[0]
            if k not in ("spans", "blas_threads") and not k.endswith(".self_s")]
    sums = {k: (max if k.endswith("rss_rise_mb") else sum)(t[k] for t in traces) for k in keys}
    a_nnz = sums.pop("elliptic.a_nnz")
    sums["elliptic.lu_fill"] = sums.pop("elliptic.lu_nnz") / a_nnz if a_nnz else 0.0
    sums["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    sums["traced.wall_s"] = traced["wall_s"]
    sums["threads1.wall_s"] = threads1["wall_s"]
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in sums.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="minding-lab verification benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    # a terminated benchmark still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "minding_lab" / "cli.py").is_file():
        print(f"error: no minding_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = workloads(args.seed)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    runner = Runner(workload, start)
    rng = random.Random(args.seed)

    def order():
        return rng.sample(workload.ops, len(workload.ops))

    record: dict = {"workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        # whole cycles only, and no cycle that the mean so far says would
        # end past --seconds, so a run measures at most that long
        cycles = []
        begin = time.monotonic()
        while True:
            cycles.append(runner.cycle(order()))
            elapsed = time.monotonic() - begin
            if elapsed * (len(cycles) + 1) / len(cycles) > args.seconds:
                break
        metrics = {
            "wall_s": {"value": statistics.median(c["wall_s"] for c in cycles), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for c in cycles for r in c["ops"]),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(s["seconds"] for s in setups), "unit": "s"},
        }
    else:
        setups = [runner.setup()]
        first = order()
        cycles = [runner.cycle(first), runner.cycle(first, traced=True),
                  runner.cycle(first, traced=True, threads="1")]
        metrics = layer_metrics(*cycles)
    attempted, failed, correct = tally(cycles)
    if args.trace == 0:
        metrics["pass_share"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    correct = correct and bool(metrics)

    record.update(
        fingerprint=fingerprint(setups[0]["probe"]),
        setup_s=[s["seconds"] for s in setups],
        cycles=cycles,
        attempted=attempted,
        failed=failed,
        fail_share=failed / attempted,
        correct=correct,
        metrics=metrics,
    )
    results = ROOT / OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(runner.work, ignore_errors=True)

    print(f"{workload.name}: {attempted} operations, {failed} failed "
          f"({record['fail_share']:.3f}); record in {OUT / 'results' / name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
