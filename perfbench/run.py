"""Benchmark of the sigpat command line, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {broad,narrow,genotype} \
        [--seed N] [--seconds S] [--trace 0|1]

Each operation runs the workload's sigpat command(s) in fresh child
processes, one at a time (a closed loop with one client). Each child is
timed from outside, between two runs of a fixed reference child whose
times scale it to a reference host speed. Inputs are generated from the
seed before timing starts; outputs are checked after it ends. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI invocations), and ``metrics``, which holds the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of one extra traced
operation. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import inputs
import traced
import verify
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
#: default seed, its recorded digests, the environment and baseline figures
BASELINE = json.loads((HERE / "baseline.json").read_text())

#: timed operations made even when one takes longer than --seconds
MIN_TIMED_OPS = 3
#: fixed pure-Python work shaped like the search (big-int masks and
#: popcounts, small tuples, a memo dict); a child runs it before and after
#: every timed child to gauge the host's speed around it
REFERENCE = """
memo, total = {}, 0
for i in range(40000):
    x = (i * 2654435761) & ((1 << 200) - 1)
    total += (x & (x >> 7)).bit_count()
    memo[(i & 1023, i % 17)] = tuple(range(i % 8))
"""
#: times are reported as on a host where the REFERENCE child takes this long
#: from spawn to exit (on the 2-vCPU machine where baseline.json was
#: recorded it took 0.09 s to 0.24 s, 0.17 s at the median)
REFERENCE_S = 0.15
#: a child still running after this long is killed and counts as failed
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SSDPS_THREADS", None)  # default thread count, whatever it becomes
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, CPU s).

    CPU time is the child's user plus system time, read as the growth of
    RUSAGE_CHILDREN across its wait; only one child runs at a time. A child
    still running after CHILD_TIMEOUT_S is killed, so its exit code is not 0.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        # Popen.wait(timeout=...) polls with sleeps of up to 50 ms, which
        # would round every time up to that step; block in waitpid instead
        # and let a timer enforce the limit.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return rc, wall, cpu


def digests(work: Path, names: tuple[str, ...]) -> dict:
    return {
        n: inputs.sha256_file(work / n) if (work / n).is_file() else None for n in names
    }


def run_op(workload, work: Path, env: dict, clock=None, traced_run: bool = False) -> dict:
    """One operation: each command in its own child, in order.

    The child is ``runner.py``, which reports the exit code and VmHWM, or
    for the traced run ``traced.py``, which reports spans; the traced run
    also passes ``--stats`` to ``mine``. With a ``Clock`` each child is
    timed through it as well, under the label ``command<k>``.
    """
    script = HERE / ("traced.py" if traced_run else "runner.py")
    commands = workload.commands(work)
    wall = cpu = 0.0
    reports = []
    for k, argv in enumerate(commands):
        if traced_run and argv[0] == "mine":
            argv += ["--stats", str(work / "stats.json")]
        report = work / f"report{k}.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(script), str(report), *argv]
        if clock is None:
            rc, w, c = spawn(argv, env, work, work / "stderr.log")
        else:
            rc, w, c = clock.spawn(f"command{k}", argv)
        wall += w
        cpu += c
        if rc == 0 and report.is_file():
            reports.append(json.loads(report.read_text()))
    return {
        "wall": wall,
        "cpu": cpu,
        "rss_kb": max((r.get("vmhwm_kb", 0) for r in reports), default=0),
        "ok": len(reports) == len(commands),
        "reports": reports,
        "invocations": len(commands),
        "digests": digests(work, workload.outputs),
    }


def check_import(env: dict, work: Path) -> None:
    """sigpat must come from this checkout's src/, not from anywhere else."""
    try:
        out = subprocess.run(
            [sys.executable, "-c", "import sigpat.cli; print(sigpat.cli.__file__)"],
            env=env, cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("importing sigpat.cli timed out") from None
    if out.returncode != 0:
        raise BenchError(f"cannot import sigpat.cli from {SRC}:\n{out.stderr}")
    if Path(out.stdout.strip()).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"sigpat.cli came from {out.stdout.strip()}, not {SRC}")


class Sample(NamedTuple):
    wall: float
    #: wall and CPU times at the reference host speed
    wall_scaled: float
    cpu_scaled: float


class Clock:
    """Times children and scales each time to the reference host speed.

    A child running REFERENCE goes before the first timed child and after
    every one, so each timed child sits between two reference times; its
    wall and CPU times are scaled by REFERENCE_S over their mean. Samples
    are kept per label.
    """

    def __init__(self, env: dict, work: Path):
        self.env, self.work = env, work
        self.refs = [self._reference()]
        self.samples: dict[str, list[Sample]] = {}

    def _reference(self) -> tuple[float, float]:
        rc, wall, cpu = spawn(
            [sys.executable, "-c", REFERENCE], self.env, self.work, self.work / "stderr.log"
        )
        if rc != 0:
            raise BenchError("the reference child failed")
        return wall, cpu

    def spawn(self, label: str, argv: list[str]) -> tuple[int, float, float]:
        """Run one timed child: (exit code, wall s, CPU s)."""
        rc, wall, cpu = spawn(argv, self.env, self.work, self.work / "stderr.log")
        self.refs.append(self._reference())
        (w0, c0), (w1, c1) = self.refs[-2:]
        self.samples.setdefault(label, []).append(Sample(
            wall, wall * REFERENCE_S * 2 / (w0 + w1), cpu * REFERENCE_S * 2 / (c0 + c1)
        ))
        return rc, wall, cpu

    def median(self, label: str, field: str) -> float:
        return statistics.median(getattr(x, field) for x in self.samples[label])


def measure_setup(clock: Clock) -> None:
    """Time a child that only imports sigpat.cli, under the label ``setup``."""
    rc, _wall, _cpu = clock.spawn("setup", [sys.executable, "-c", "import sigpat.cli"])
    if rc != 0:
        raise BenchError("importing sigpat.cli failed")


def digest_problems(recorded: dict, info: dict, outputs: dict) -> list[str]:
    """Compare a default-seed run with the digests recorded for it."""
    problems = []
    if recorded.get("inputs") != {k: v for k, v in info.items() if k.endswith("sha256")}:
        problems.append("generated input differs from the recorded default-seed input")
    if recorded.get("outputs") != outputs:
        problems.append("output digests differ from the recorded default-seed digests")
    return problems


def self_check(workload, work: Path, recorded: dict | None, info: dict) -> list[str]:
    """The verifier must reject a corrupted row and a changed digest."""
    rows = verify.parse_patterns(
        (work / workload.records).read_text(encoding="utf-8"), workload.fmt
    )
    if not rows:
        return ["no row to corrupt"]
    tx = verify.Transactions((work / workload.mined).read_text(encoding="utf-8"))
    problems = [
        f"verifier accepted a row with its {what}"
        for what in verify.unrejected_corruptions(rows[0], tx, workload.fmt, workload.thresholds)
    ]
    if recorded is not None:
        changed = dict(recorded["outputs"], **{workload.records: "0" * 64})
        if not digest_problems(recorded, info, changed):
            problems.append("a changed output digest was accepted")
    return problems


def load_recorded(workload: str, seed: int) -> dict | None:
    """Input and output digests recorded for the default seed, else None."""
    if seed != BASELINE["default_seed"]:
        return None
    return BASELINE["default_seed_digests"].get(workload, {})


def bench(args, work: Path) -> tuple[dict, list[str]]:
    workload = WORKLOADS[args.workload]
    env = child_env()
    lines = []
    info = workload.make_inputs(work, args.seed)
    lines.append(f"workload {workload.name}  seed {args.seed}  inputs {json.dumps(info)}")
    check_import(env, work)

    ops = [run_op(workload, work, env)]  # warm-up: page cache and .pyc files
    timed = []
    # set-up samples alternate with operations, so both span the whole run
    clock = Clock(env, work)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(timed) < MIN_TIMED_OPS:
        timed.append(run_op(workload, work, env, clock))
        measure_setup(clock)
    ops += timed
    if args.trace:
        (work / "stats.json").unlink(missing_ok=True)
        ops.append(run_op(workload, work, env, traced_run=True))

    # everything below is outside the timed region
    problems = []
    if not all(op["ok"] for op in ops):
        log = (work / "stderr.log").read_text(errors="replace")
        problems.append("a CLI invocation failed; its stderr ends:\n" + log[-2000:])
    final = digests(work, workload.outputs)
    if None in final.values():
        problems.append("an output file is missing")
    else:
        problems += workload.check_extra(work, info) if workload.check_extra else []
        problems += verify.check_patterns(
            work / workload.mined, work / workload.records, workload.fmt,
            workload.thresholds, info["planted"],
        )
    recorded = load_recorded(workload.name, args.seed)
    if recorded is not None:
        problems += digest_problems(recorded, info, final)
    failed = sum(
        op["invocations"] for op in ops if problems or not op["ok"] or op["digests"] != final
    )
    if None not in final.values():
        problems += self_check(workload, work, recorded, info)
    attempted = sum(op["invocations"] for op in ops)

    # Times are reported at the reference host speed, as medians over the
    # run: see "Why times are scaled" in README.md.
    # An operation's time is the sum of its commands' medians.
    commands = [label for label in clock.samples if label != "setup"]
    metrics = {
        "wall_s": (sum(clock.median(c, "wall_scaled") for c in commands), "s"),
        "cpu_s": (sum(clock.median(c, "cpu_scaled") for c in commands), "s"),
        "peak_rss_mb": (max(op["rss_kb"] for op in timed) / 1024, "MB"),
        "setup_s": (clock.median("setup", "wall_scaled"), "s"),
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<12} {value:.6g} {unit}")
    for label, got in clock.samples.items():
        lines.append(
            f"  {label:<12} n={len(got)}; unscaled wall median"
            f" {statistics.median(x.wall for x in got):.4g} s; scaled wall"
            f" {' '.join('%.3f' % x.wall_scaled for x in got)}"
        )
    lines.append(
        f"  reference    n={len(clock.refs)}, median"
        f" {statistics.median(w for w, _c in clock.refs):.4g} s wall"
        f" ({REFERENCE_S} s at the reference speed)"
    )
    lines.append(f"  ops {attempted} CLI invocations, ops_failed {failed}")
    lines.append(f"outputs {json.dumps(final)}")
    if args.trace:
        stats_path = work / "stats.json"
        stats = json.loads(stats_path.read_text()) if stats_path.is_file() else None
        write_bytes = (work / workload.records).stat().st_size
        per_layer = (
            traced.layer_metrics(traced.merge(ops[-1]["reports"]), stats, write_bytes)
            if ops[-1]["ok"] else {}
        )
        per_layer["trace.overhead"] = (
            ops[-1]["wall"] / statistics.median(op["wall"] for op in timed), "ratio"
        )
        named = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        absent = sorted({m["name"] for m in named} - set(per_layer))
        lines.append("per-layer (traced run):")
        for name, (value, unit) in sorted(per_layer.items()):
            lines.append(f"  {name:<38} {value:.6g} {unit}")
        lines.append(f"  absent: {', '.join(absent) or 'none'}")
        metrics = per_layer
    lines += [f"PROBLEM: {p}" for p in problems]
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sigpat" / "cli.py").is_file():
        print(f"error: no sigpat sources at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        result, lines = bench(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
