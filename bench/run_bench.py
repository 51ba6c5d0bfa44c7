"""ballsgd benchmark: drives ``ballsgd.cli.main(argv)`` in-process, one
command at a time (a closed loop with one client), on one workload.

Run from the root of a source checkout:

    python3 bench/run_bench.py --workload run-readme --seed 1 \
        --seconds 30 --trace 0
    python3 bench/run_bench.py --self-test

A run measures set-up time in fresh interpreters, then makes passes over
the workload's commands until ``--seconds`` is used up.  With ``--trace 0``
the first pass only counts SGD steps (and warms up), the rest are timed
with nothing installed; with ``--trace 1`` one pass runs with every layer's
public functions traced and the others untraced, to give the tracing
overhead.  Every output is checked, and every pass must reproduce the
first pass's outputs byte for byte.  The last line of standard output is
the JSON result; bench/README.md documents it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bench_trace
import bench_workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
# an untraced run makes at least two timed passes, whatever --seconds says
MIN_TIMED_PASSES = 2
MAX_TIMED_PASSES = 50

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s",
                    "sgd_steps_per_s": "1/s", "peak_rss_mb": "MB"}


def _die(message: str) -> None:
    print(f"run_bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that counts repeat for one seed and "
                             "change with the seed, on every workload")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_program():
    """Import ballsgd from this checkout's src/, never from elsewhere."""
    if not (SRC / "ballsgd" / "__init__.py").is_file():
        _die(f"no ballsgd sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ballsgd.cli
    if not Path(ballsgd.__file__).resolve().is_relative_to(SRC.resolve()):
        _die(f"ballsgd was imported from {ballsgd.__file__}, not {SRC}")
    return ballsgd.cli


# -- host facts and statistics ------------------------------------------------

def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "load1": os.getloadavg()[0]}


def summarize(values, unit: str) -> dict:
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered),
            "unit": unit, "values": list(values)}


# -- one command, one pass ----------------------------------------------------

def _digest(directory: str) -> dict:
    digests = {}
    for base, _, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_command(cli, command):
    """Run one command line; return (seconds, output, problems)."""
    if command.artifacts:
        shutil.rmtree(command.artifacts, ignore_errors=True)
    gc.collect()
    buffer = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(command.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash fails this command, not the run
        rc = None
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start

    text = buffer.getvalue()
    problems = [error] if error else []
    lines = text.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else {}
    except ValueError:
        payload = {}
        problems.append("last stdout line is not JSON")
    try:
        problems += command.check(rc, payload, command.artifacts)
    except Exception as exc:  # malformed output the check did not expect
        problems.append(f"output check raised {type(exc).__name__}: {exc}")
    artifacts = _digest(command.artifacts) if command.artifacts else {}
    return seconds, {"stdout": text, "artifacts": artifacts}, problems


class Run:
    """The passes of one benchmark run and what they found."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.first_outputs = None
        self.attempted = 0
        self.failures = []  # "pass N label: problem"
        self.passes = []    # {"kind", "wall", "cmd_s", "elapsed"}

    def run_pass(self, kind: str, tracer=None) -> dict:
        started = time.perf_counter()
        cmd_s = {}
        outputs = []
        with tracer if tracer is not None else contextlib.nullcontext():
            for command in self.workload.commands:
                seconds, output, problems = run_command(self.cli, command)
                cmd_s[command.label] = cmd_s.get(command.label, 0.0) + seconds
                outputs.append((command, output, problems))
        number = len(self.passes) + 1
        if self.first_outputs is None:
            self.first_outputs = [output for _, output, _ in outputs]
        for (command, output, problems), first in zip(outputs,
                                                      self.first_outputs):
            if output != first:
                changed = sorted(
                    name for name in set(output["artifacts"])
                    | set(first["artifacts"])
                    if output["artifacts"].get(name)
                    != first["artifacts"].get(name))
                problems.append("output differs from pass 1"
                                + (f" in {changed}" if changed else ""))
            self.attempted += 1
            if problems:
                self.failures.append(
                    f"pass {number} {command.label}: " + "; ".join(problems))
        record = {"kind": kind, "wall": sum(cmd_s.values()), "cmd_s": cmd_s,
                  "elapsed": time.perf_counter() - started}
        self.passes.append(record)
        return record

    def timed_passes(self, deadline: float, minimum: int) -> list:
        timed = []
        while len(timed) < MAX_TIMED_PASSES:
            if len(timed) >= minimum:
                estimate = statistics.median(
                    p["elapsed"] for p in self.passes
                    if p["kind"] == "untraced")
                if time.perf_counter() + estimate > deadline:
                    break
            timed.append(self.run_pass("untraced"))
        return timed


def measure_setup(first_argv) -> tuple:
    """(seconds, problem): the time from starting a fresh interpreter to its
    first command being ready, and what went wrong if it never got ready."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
            *first_argv]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        return seconds, f"setup probe exited {rc} without getting ready"
    return seconds, None


# -- the two kinds of run -----------------------------------------------------

def untraced_run(run: Run, seconds: int, begin: float):
    stats = {}
    setup = []
    for _ in range(SETUP_PROBES):
        value, problem = measure_setup(run.workload.commands[0].argv)
        run.attempted += 1
        setup.append(value)
        if problem:
            run.failures.append(f"setup: {problem}")
    counter = bench_trace.Tracer(spans=False)
    run.run_pass("counting", counter)
    timed = run.timed_passes(begin + seconds, MIN_TIMED_PASSES)
    steps = counter.sgd_steps
    walls = [p["wall"] for p in timed]
    stats["setup_s"] = summarize(setup, "s")
    stats["wall_s"] = summarize(walls, "s")
    stats["sgd_steps_per_s"] = summarize([steps / w for w in walls], "1/s")
    for label in timed[0]["cmd_s"]:
        stats[f"cmd_s.{label}"] = summarize(
            [p["cmd_s"][label] for p in timed], "s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats["peak_rss_mb"] = summarize([peak], "MB")
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, stats, dict(counter.counts, sgd_steps=steps)


def traced_run(run: Run, seconds: int, begin: float, spans_path: Path):
    stats = {}
    first = run.run_pass("untraced")
    tracer = bench_trace.Tracer(spans=True)
    traced = run.run_pass("traced", tracer)
    timed = [first] + run.timed_passes(begin + seconds, 0)
    tracer.write_spans(str(spans_path))
    untraced_wall = statistics.median(p["wall"] for p in timed)
    layer = bench_trace.layer_metrics(tracer)
    layer["trace.overhead_ratio"] = traced["wall"] / untraced_wall
    stats["wall_s"] = summarize([p["wall"] for p in timed], "s")
    stats["traced_wall_s"] = summarize([traced["wall"]], "s")
    for label in first["cmd_s"]:
        stats[f"cmd_s.{label}"] = summarize(
            [p["cmd_s"][label] for p in timed], "s")
    units = layer_units()
    for name, value in layer.items():
        stats[name] = summarize([value], units[name])
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in layer.items()}
    return metrics, stats, dict(tracer.counts, sgd_steps=tracer.sgd_steps)


def layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_report(header: dict, stats: dict, run: Run) -> None:
    print(f"ballsgd bench: workload={header['workload']} "
          f"seed={header['seed']} seconds={header['seconds']} "
          f"trace={header['trace']}")
    host = header["host"]
    print(f"host: nproc={host['nproc']} cpu=\"{host['cpu']}\" "
          f"python={host['python']} numpy={host['numpy']} "
          f"load1={host['load1']:.2f}")
    print(f"inputs: base_seed={header['base_seed']} commands="
          + ",".join(c.label for c in run.workload.commands))
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'n':>3}  unit")
    for name, s in stats.items():
        print(f"{name:<32} {s['median']:>14.6g} {s['q1']:>14.6g} "
              f"{s['q3']:>14.6g} {s['n']:>3}  {s['unit']}")
    fraction = len(run.failures) / run.attempted if run.attempted else 0.0
    print(f"failed_fraction: {fraction:g} "
          f"({len(run.failures)} of {run.attempted} operations)")
    for failure in run.failures:
        print(f"FAILED {failure}")


def benchmark(args, cli) -> int:
    begin = time.perf_counter()
    host = host_facts()
    work_dir = WORK / args.workload
    workload = bench_workloads.build(args.workload, args.seed, str(work_dir))
    run = Run(cli, workload)
    if args.trace:
        metrics, stats, counts = traced_run(run, args.seconds, begin,
                                            work_dir / "spans.npz")
    else:
        metrics, stats, counts = untraced_run(run, args.seconds, begin)
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "base_seed": workload.base_seed}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    report = {**header, "inputs": workload.inputs, "stats": stats,
              "counts": counts,
              "passes": [{k: p[k] for k in ("kind", "wall", "cmd_s")}
                         for p in run.passes],
              "failures": run.failures, "result": result}
    with open(work_dir / f"report-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print_report(header, stats, run)
    print(json.dumps(result))
    return 0


def self_test(args, cli) -> int:
    """Counts repeat exactly for one seed, in counting and in span mode,
    and change with the workload seed."""
    names = [args.workload] if args.workload else bench_workloads.WORKLOADS
    ok = True
    for name in names:
        counts = []
        for seed, spans in ((1, False), (1, True), (2, False)):
            workload = bench_workloads.build(name, seed,
                                             str(WORK / name / "self-test"))
            run = Run(cli, workload)
            tracer = bench_trace.Tracer(spans=spans)
            run.run_pass("self-test", tracer)
            counts.append(tracer.counts)
            for failure in run.failures:
                ok = False
                print(f"{name} seed {seed}: FAILED {failure}")
        same = counts[0] == counts[1]
        changed = counts[0] != counts[2]
        ok = ok and same and changed
        print(f"{name}: counts repeat for one seed: {same}; "
              f"change with the seed: {changed}")
        if not same:
            print(f"  seed 1 counting {counts[0]}\n  seed 1 spans    "
                  f"{counts[1]}")
    print(json.dumps({"self_test": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    if args.self_test:
        return self_test(args, cli)
    return benchmark(args, cli)


if __name__ == "__main__":
    sys.exit(main())
