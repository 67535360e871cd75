#!/usr/bin/env python3
"""apisynth benchmark: the real CLI, the mock backend and the local JDK.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload one-shot --seed 1 --seconds 25 --trace 0

Workloads (see generate.py and workloads.py):

* ``one-shot``: every first reply is a correct candidate; 2 workers.
* ``repair-loop``: scripted replies walk the follow-up loop; 1 worker.
* ``resume-report``: ``bench --resume`` re-aggregates 2000 finished records.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the same phase untraced and then traced, and prints per-layer
metrics from the spans (written to ``.perfbench-work/traces/``). The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. The program is loaded from ``src/`` of the checkout; without it, or
without a JDK, the benchmark exits 2 and prints no result.

Single-threaded Python timings (resume-report passes and the set-up probes)
are rescaled by reference.py to cancel the host's swings in core speed; the
notes line carries the measured values next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("one-shot", "repair-loop", "resume-report")
SETUP_PROBES = 7


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric names and units by kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


class Unavailable(Exception):
    """The checkout cannot run the benchmark (no program, no JDK)."""


def load_program():
    """Import apisynth from this checkout's src/, never from anywhere else."""
    if not (SRC / "apisynth" / "__init__.py").is_file():
        raise Unavailable(f"no apisynth sources under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import apisynth
    from apisynth.sandbox import ToolchainError, find_toolchain

    if Path(apisynth.__file__).resolve().parent != (SRC / "apisynth").resolve():
        raise Unavailable(f"apisynth was imported from {apisynth.__file__}, not from {SRC}")
    try:
        toolchain = find_toolchain()
    except ToolchainError as exc:
        raise Unavailable(f"no JDK: {exc}") from exc
    try:
        probe = subprocess.run([toolchain.javac, "-version"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise Unavailable(f"javac does not run: {exc}") from exc
    if probe.returncode != 0:
        raise Unavailable(f"javac -version failed: {probe.stderr.strip()}")
    return (probe.stdout + probe.stderr).strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(suite: Path, script: Path) -> list[tuple[float, float]]:
    """Start-up cost in fresh interpreters, as (measured, reference-adjusted) seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(suite), str(script)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        measured, adjusted = proc.stdout.split()
        times.append((float(measured), float(adjusted)))
    return times


def memory_metrics() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"peak_rss_mb": own / 1024, "child_peak_rss_mb": kids / 1024}


def run_workload(args, work: Path, nproc: int) -> dict:
    import workloads as w
    from spans import Tracer

    notes: dict = {}
    problems: list[str] = []
    tracer = Tracer() if args.trace else None
    if args.workload == "resume-report":
        data = w.prepare_resume(work, args.seed, nproc)
        workers = min(2, nproc)
        notes["records"] = data.records
        setup = [] if args.trace else measure_setup(data.suite, data.script)
        plain = w.run_resume_phase(data, workers, args.seconds)
        problems += w.check_resumed_records(data)
        attempted, failed = len(plain.op_times), len(plain.op_times) - plain.matched
        if failed:
            problems.append(f"{failed} of {attempted} reports differ from the records")
        notes["measured_op_s_p50"] = w.percentile(plain.op_times, 50)
        notes["reference_scale_p50"] = w.percentile(plain.scales, 50)
        if tracer is None:
            metrics, samples = w.resume_end_to_end(plain, data)
        else:
            traced = w.run_resume_phase(data, workers, args.seconds, tracer)
            metrics, samples = w.resume_layers(traced)
            rates = [data.records * len(p.op_times) / sum(p.adjusted_op_times) for p in (plain, traced)]
    else:
        prepared = w.prepare_tasks(work, args.workload, args.seed, args.seconds, nproc)
        workers = prepared.workers
        setup = [] if args.trace else measure_setup(prepared.suite, prepared.script)
        plain = prepared.run(work, "plain", args.seconds)
        problems += w.phase_problems(plain)
        attempted, failed = len(plain.task_ids), plain.verdicts.environment
        v = plain.verdicts
        notes["verdicts"] = {"attempted": v.attempted, "matched": v.matched, "known_defects": v.known_defects,
                             "environment": v.environment, "error_rate": v.errors / v.attempted}
        notes["launches"] = plain.counts
        notes["inputs"] = w.input_properties(plain, prepared.tasks)
        if tracer is None:
            metrics, samples = w.task_end_to_end(plain)
        else:
            traced = prepared.run(work, "traced", args.seconds, tracer)
            problems += w.phase_problems(traced)
            metrics, samples, layer_problems = w.task_layers(traced, workers)
            problems += layer_problems
            rates = [plain.tasks_per_s, traced.tasks_per_s]
    notes["workers"] = workers
    notes["samples"] = samples

    if tracer is None:
        metrics["setup_s"] = statistics.median(adjusted for _, adjusted in setup)
        notes["measured_setup_s"] = statistics.median(measured for measured, _ in setup)
        metrics.update(memory_metrics())
        samples["setup_s"] = len(setup)
    else:
        metrics["trace.untraced_tasks_per_s"], metrics["trace.tasks_per_s"] = rates
        metrics["trace.overhead_tasks_per_s"] = rates[0] - rates[1]
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.write(trace_path)
        notes["trace_file"] = str(trace_path.relative_to(ROOT))
        notes["spans"] = len(tracer.spans)
    return {"metrics": metrics, "notes": notes, "problems": problems, "attempted": attempted, "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    declared = declared_metrics()
    try:
        javac_version = load_program()
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args, work, nproc)
    except Exception as exc:  # the program could not be driven: no result, non-zero exit
        traceback.print_exc()
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes = result["notes"]
    notes.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "cpu_model": cpu_model(), "javac_version": javac_version,
        "python": platform.python_version(),
    })
    units = declared["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        print(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 2
    # A layer the workload never calls (the sandbox under resume-report) reads 0.
    notes["not_run"] = sorted(set(units) - set(values))
    if notes["not_run"] and not args.trace:
        print(f"perfbench: end-to-end metrics not measured: {notes['not_run']}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in sorted(units.items())}
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>14.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print("notes: " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
