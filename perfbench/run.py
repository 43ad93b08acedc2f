#!/usr/bin/env python3
"""Benchmark of the regcount CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a regcount checkout; it runs the package under
./src.  It drives the CLI as a user does, one process at a time, each
command starting when the previous one has exited (a closed loop with one
client), and checks every report.  With --trace 0 it repeats the workload's
commands for S seconds (at least once) and prints the end-to-end metrics,
medians over the repeats.  With --trace 1 it runs each command once
in-process under perfbench/tracer.py, with hooks and without, and prints the
per-layer metrics.  It measures only the processes it starts (wall clock and
getrusage), with no system-wide profiler.

The seed orders the commands of a run.  The graphs the count commands read
are drawn from a fixed seed, inputs.INPUT_SEED (see there why).  A command
still running RUN_DEADLINE_S seconds after the start is killed and counted
as failed, so that the run ends within the 180 s a run may take.

The last line printed is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it is a record of the inputs, the environment
and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from checks import CENSUS_CLASSES, check_count, check_report, check_sweep, load_pinned
from tracer import fan_out_ratio, layer_metrics

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
# What the installed `regcount` console script runs.
REGCOUNT = [sys.executable, "-c", "import sys; from regcount.cli import main; sys.exit(main())"]
WORKLOADS = ("census-12-3", "count-large-hom-8-3")
KINDS = ("matching", "independent-set")
SETUP_REPEATS = 7
RUN_DEADLINE_S = 170
KILLED = f"still running {RUN_DEADLINE_S} s after the benchmark started; killed"
SCOPE = (
    "wall clock and getrusage of the regcount processes this benchmark starts; "
    "no system-wide profiler"
)


@dataclass
class Command:
    key: str  # names the pinned digest of the report
    slug: str
    args: list[str]
    workers: int
    graphs: int
    check: Callable[[dict], list[str]]


def sweep(command: str, n: int, d: int, workers: int) -> Command:
    return Command(
        key=f"{command} --n {n} --d {d}",
        slug=f"{command}-w{workers}",
        args=[command, "--n", str(n), "--d", str(d), "--workers", str(workers)],
        workers=workers,
        graphs=CENSUS_CLASSES[(n, d)],
        check=partial(check_sweep, n=n, d=d),
    )


def build_commands(workload: str, seed: int, inputs: list[dict]) -> list[Command]:
    if workload == "census-12-3":
        commands = [sweep("verify-suite", 12, 3, 1)] + [sweep("verify-roots", 12, 3, w) for w in (1, 2)]
    else:
        commands = [
            Command(
                key=f"count --kind {kind} {rec['name']}",
                slug=f"count-{kind}-{rec['name']}",
                args=["count", "--kind", kind, "--graph", rec["path"]],
                workers=1,
                graphs=1,
                check=partial(check_count, kind=kind, vertices=rec["vertices"], edges=rec["edges"]),
            )
            for rec in inputs
            for kind in KINDS
        ]
        commands.append(sweep("verify-hom", 8, 3, 1))
    random.Random(seed).shuffle(commands)
    return commands


def _alarm(signum, frame):
    raise TimeoutError("a command ran past the benchmark's deadline")


def spawn(argv: list[str], env: dict, log_path: str, deadline: float) -> tuple[int, float, float, float]:
    """Run argv to completion; return (exit status, wall s, CPU s, peak RSS
    MiB).  CPU and RSS come from wait4, so they include the pool workers the
    process waited for."""
    signal.signal(signal.SIGALRM, _alarm)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        signal.alarm(max(1, int(deadline - start)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Tally:
    """Operations attempted and the problems found in their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{name}: {p}" for p in problems]


def measure_setup(env: dict, work: str, deadline: float, tally: Tally) -> float:
    """Median wall time of `regcount --version`: interpreter start and
    package import.  A first, untimed run writes the bytecode cache."""
    walls = []
    log = os.path.join(work, "version.log")
    for i in range(SETUP_REPEATS + 1):
        try:
            status, wall, _, _ = spawn(REGCOUNT + ["--version"], env, log, deadline)
        except TimeoutError:
            tally.add("--version", [KILLED])
            raise
        with open(log, encoding="utf-8", errors="replace") as fh:
            ok = status == 0 and fh.read().startswith("regcount ")
        tally.add("--version", [] if ok else [f"exit status {status} or unexpected output"])
        if i:
            walls.append(wall)
    return statistics.median(walls)


def run_command(cmd: Command, argv_prefix: list[str], env, work, deadline, pinned, tally, digests):
    """Run one command and check its report; a report must also equal the
    others of the same command in `digests`.  Return (spawn results,
    verdict count, report bytes)."""
    out = os.path.join(work, f"{cmd.slug}.json")
    try:
        result = spawn(argv_prefix + cmd.args + ["--out", out], env, out + ".log", deadline)
    except TimeoutError:
        tally.add(cmd.slug, [KILLED])
        raise
    digest, problems, doc = check_report(out, result[0], cmd.key, pinned, cmd.check)
    if digests.setdefault(cmd.key, digest) != digest:
        problems.append("report differs from another run of the same command")
    tally.add(cmd.slug, problems)
    verdicts = doc.get("summary", {}).get("total", 0) if doc else 0
    size = os.path.getsize(out) if os.path.exists(out) else 0
    return result, verdicts, size


def timed_run(commands, seconds, env, work, deadline, pinned, tally) -> dict:
    """Repeat the commands for `seconds` (at least once); medians over the
    complete repeats.  A repeat cut by the deadline ends the loop."""
    rows, command_rows = [], []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        cpu = rss = 0.0
        graphs = verdicts = 0
        walls: dict[tuple[str, int], float] = {}
        digests: dict[str, str | None] = {}
        try:
            for cmd in commands:
                (_, w, c, r), v, _ = run_command(cmd, REGCOUNT, env, work, deadline, pinned, tally, digests)
                walls[(cmd.key, cmd.workers)] = w
                command_rows.append((cmd.slug, w))
                cpu, rss = cpu + c, max(rss, r)
                graphs, verdicts = graphs + cmd.graphs, verdicts + v
        except TimeoutError:
            break
        wall = sum(walls.values())
        rows.append(
            {
                "wall_s": wall,
                "cpu_s": cpu,
                "peak_rss_mb": rss,
                "graphs_per_s": graphs / wall,
                "verdicts_per_s": verdicts / wall,
                "speedup_w2": fan_out_ratio(walls),
            }
        )
    if not rows:
        return {}
    medians = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    per_command = {
        cmd.slug: statistics.median(w for slug, w in command_rows if slug == cmd.slug) for cmd in commands
    }
    return medians | {"command_wall_s": per_command, "repeats": len(rows)}


def traced_run(commands, env, work, deadline, pinned, tally) -> tuple[dict, dict]:
    """Each command once in-process with hooks off and, at one worker, with
    hooks on; the fan-out at two workers is timed only in the parent."""
    legs = []
    digests: dict[str, str | None] = {}
    for pair, cmd in enumerate(commands):
        for mode in ("off", "full") if cmd.workers == 1 else ("off",):
            spans = os.path.join(work, f"{cmd.slug}-{mode}.spans.json")
            tracer = [sys.executable, TRACER, mode, spans, "--"]
            _, verdicts, size = run_command(cmd, tracer, env, work, deadline, pinned, tally, digests)
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    data = json.load(fh)
                legs.append(
                    {"mode": mode, "key": cmd.key, "workers": cmd.workers, "pair": pair,
                     "verdicts": verdicts, "report_bytes": size, "data": data}
                )
    if tally.failed:
        return {}, {}
    values, absent, missing = layer_metrics(legs)
    keep = os.path.join(WORK_ROOT, "spans")
    os.makedirs(keep, exist_ok=True)
    for name in os.listdir(work):
        if name.endswith(".spans.json"):
            shutil.copy(os.path.join(work, name), keep)
    return values, {"absent_metrics": absent, "missing_hooks": missing, "spans_dir": os.path.relpath(keep, ROOT)}


def environment() -> dict:
    import mpmath
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "scope": SCOPE,
    }


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    # Exit through spawn's cleanup, which kills the running command's group.
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regcount", "cli.py")):
        sys.stderr.write("perfbench: no ./src/regcount here; run from the root of a regcount checkout\n")
        return 2
    sys.path.insert(0, SRC)
    from inputs import INPUT_SEED, write_inputs

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = dict(os.environ, PYTHONPATH=SRC)
    pinned = load_pinned()
    tally = Tally()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        inputs = write_inputs(work) if args.workload.startswith("count") else []
        commands = build_commands(args.workload, args.seed, inputs)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "order": [cmd.slug for cmd in commands],
            "environment": environment(),
        }
        if inputs:
            record["input_seed"] = INPUT_SEED
            record["inputs"] = {rec["name"]: rec["sha256"] for rec in inputs}
        names = spec["per_layer" if args.trace else "end_to_end"]
        values, details = {}, {}
        try:
            if args.trace:
                values, details = traced_run(commands, env, work, deadline, pinned, tally)
            else:
                values = {"setup_s": measure_setup(env, work, deadline, tally)}
                values |= timed_run(commands, args.seconds, env, work, deadline, pinned, tally)
        except TimeoutError:
            pass  # the command that ran past the deadline is counted as failed
        kept = {m["name"] for m in names}
        details |= {k: values.pop(k) for k in list(values) if k not in kept}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record |= details
    record["failed_ops"] = tally.failed / tally.attempted
    record["problems"] = tally.problems
    for problem in tally.problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    correct = not tally.problems
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in names
        if m["name"] in values
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
