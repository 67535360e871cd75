#!/usr/bin/env python3
"""Run compiled benchmark candidates in a cold java and in parked JVMs and compare the costs.

Usage, from the root of a checkout:

    python3 scripts/run_probe.py --candidates 51 --rounds 2 --seed 21

The candidates are the first ones of a repair-loop run (perfbench/generate.py)
that compile and have a class to run, written as the sandbox writes them and
compiled once through a compile server. Each is then run ``--rounds`` times
in a cold ``java`` (``sandbox.CANDIDATE_JVM_FLAGS``), and as many times handed
to a parked JVM of a ``sandbox.ParkedPool``. Every run waits ``--gap`` seconds
first, the time the rest of an attempt gives a spare to boot. The report is
one JSON object with, per side, the p50/p90 of the run's wall time (a cold
java from its start, a parked one from the hand-off) and the CPU seconds of
all its reaped children: the parked side counts every spare it booted,
including the one left idle at the end, but not the launcher's compile.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import generate  # noqa: E402
from workloads import percentile  # noqa: E402
from apisynth import sandbox  # noqa: E402
from apisynth.extractor import ExtractionError, extract_source_unit  # noqa: E402


def compiled(seed: int, count: int, work: Path, toolchain: sandbox.Toolchain) -> list[tuple[Path, str]]:
    """(directory, class to run) of the first ``count`` repair-loop candidates that compile and run."""
    found, tried = [], 0
    with sandbox.CompilerPool() as compilers:
        for task in generate.workload_tasks("repair-loop", seed, 4 * count):
            fam = task.family
            for reply in task.replies:
                try:
                    unit = extract_source_unit(reply, fam.method, len(fam.params))
                except ExtractionError:
                    continue
                source, main_class = sandbox.candidate_source(unit, fam.method)
                if main_class is None:
                    continue
                tried += 1
                workdir = work / f"c{tried}"
                workdir.mkdir()
                name = f"{unit.public_class_name}.java"
                (workdir / name).write_text(source, encoding="utf-8")
                result = compilers.compile(toolchain.java, workdir, [], name, 60)
                if result is None or result.exit_code != 0:
                    continue
                found.append((workdir, main_class))
                if len(found) == count:
                    return found
    return found


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def summary(times: list[float], cpu_s: float, **extra) -> dict:
    return {
        "runs": len(times),
        "p50_ms": round(percentile(times, 50) * 1000, 1),
        "p90_ms": round(percentile(times, 90) * 1000, 1),
        "cpu_s": round(cpu_s, 2),
        **extra,
    }


def probe(candidates: list[tuple[Path, str]], rounds: int, gap: float, toolchain: sandbox.Toolchain) -> dict:
    runs = [c for _ in range(rounds) for c in candidates]

    cold, before = [], children_cpu()
    for workdir, main_class in runs:
        time.sleep(gap)
        argv = [toolchain.java, *sandbox.CANDIDATE_JVM_FLAGS, "-cp", ".", main_class]
        cold.append(sandbox._execute(argv, workdir, 30).duration_seconds)
    cold_cpu = children_cpu() - before

    parked, refused = [], 0
    with sandbox.ParkedPool() as pool:
        # The first run compiles the launcher, goes cold and parks the first spare.
        pool.run(toolchain, runs[0][0], [], runs[0][1], 30)
        before = children_cpu()
        for workdir, main_class in runs:
            time.sleep(gap)
            result = pool.run(toolchain, workdir, [], main_class, 30)
            if result is None:
                refused += 1
            else:
                parked.append(result.duration_seconds)
    parked_cpu = children_cpu() - before
    return {
        "candidates": len(candidates),
        "gap_s": gap,
        "cold": summary(cold, cold_cpu),
        "parked": summary(parked, parked_cpu, refused=refused),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--candidates", type=int, default=51, help="distinct candidates (default 51)")
    parser.add_argument("--rounds", type=int, default=2, help="runs of each candidate per side (default 2)")
    parser.add_argument("--gap", type=float, default=0.15, help="seconds before each run (default 0.15)")
    parser.add_argument("--seed", type=int, default=21, help="generator seed (default 21)")
    args = parser.parse_args()
    toolchain = sandbox.find_toolchain()
    with tempfile.TemporaryDirectory(prefix="run-probe-") as work:
        candidates = compiled(args.seed, args.candidates, Path(work), toolchain)
        result = probe(candidates, args.rounds, args.gap, toolchain)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
