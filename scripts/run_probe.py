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
including those left idle at the end, but not the launcher's compile. The
parked side also gives the p10/p50 of a spare's age when it is handed its
run (from the start of its boot). A spare boots in about 50 ms on a busy
core, so the default gap hides a boot that is not done: ``--gap 0.03``
is about the time an attempt takes with a mock model. ``boots`` counts the
spares started by the measured runs and ``refused`` the runs the pool left
to a cold java.

``--workers N`` runs N at once on both sides, and ``--keys K`` gives run i
the dependency classpath i mod K (missing jars, which java accepts), so
runs of different classpaths interleave:

    python3 scripts/run_probe.py --candidates 40 --gap 0.03 --workers 2 --keys 2
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import generate  # noqa: E402
from workloads import percentile  # noqa: E402
from apisynth import sandbox  # noqa: E402
from apisynth.extractor import ExtractionError, candidate_source, extract_source_unit  # noqa: E402


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
                source, main_class = candidate_source(unit, fam.method)
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


class AgedPool(sandbox.ParkedPool):
    """A ParkedPool that records how long before each take the spare taken began to boot."""

    def __init__(self) -> None:
        super().__init__()
        self.ages: list[float] = []

    def _take(self, toolchain, key):
        spare = super()._take(toolchain, key)
        if spare is not None:
            self.ages.append(time.monotonic() - spare.boot_start)
        return spare


def probe(candidates: list[tuple[Path, str]], rounds: int, gap: float, toolchain: sandbox.Toolchain,
          workers: int = 1, keys: int = 1) -> dict:
    work = candidates[0][0].parent
    classpaths = [[work / f"absent-{k}.jar"] for k in range(keys)] if keys > 1 else [[]]
    runs = [(workdir, main_class, classpaths[i % keys])
            for i, (workdir, main_class) in enumerate(c for _ in range(rounds) for c in candidates)]

    def cold_run(job) -> float:
        workdir, main_class, classpath = job
        time.sleep(gap)
        argv = [toolchain.java, *sandbox.CANDIDATE_JVM_FLAGS, "-cp", os.pathsep.join([".", *map(str, classpath)]),
                main_class]
        return sandbox._execute(argv, workdir, 30).duration_seconds

    before = children_cpu()
    with ThreadPoolExecutor(workers) as threads:
        cold = list(threads.map(cold_run, runs))
    cold_cpu = children_cpu() - before

    boots = []  # one entry per spare started

    class CountedSpare(sandbox._Spare):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            boots.append(1)

    sandbox._Spare, spare_class = CountedSpare, sandbox._Spare
    try:
        with AgedPool() as pool:
            # The first run compiles the launcher, goes cold and parks the first spares.
            pool.run(toolchain, runs[0][0], runs[0][2], runs[0][1], 30)
            before, boots[:] = children_cpu(), []

            def parked_run(job) -> float | None:
                workdir, main_class, classpath = job
                time.sleep(gap)
                result = pool.run(toolchain, workdir, classpath, main_class, 30)
                return None if result is None else result.duration_seconds

            with ThreadPoolExecutor(workers) as threads:
                done = list(threads.map(parked_run, runs))
    finally:
        sandbox._Spare = spare_class
    parked_cpu = children_cpu() - before
    parked = [t for t in done if t is not None]
    age = {f"spare_age_p{q}_ms": round(percentile(pool.ages, q) * 1000, 1) for q in (10, 50)} if pool.ages else {}
    return {
        "candidates": len(candidates),
        "gap_s": gap,
        "workers": workers,
        "keys": keys,
        "cold": summary(cold, cold_cpu),
        "parked": summary(parked, parked_cpu, refused=len(done) - len(parked), boots=len(boots),
                          boots_per_run=round(len(boots) / len(runs), 2), **age),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--candidates", type=int, default=51, help="distinct candidates (default 51)")
    parser.add_argument("--rounds", type=int, default=2, help="runs of each candidate per side (default 2)")
    parser.add_argument("--gap", type=float, default=0.15, help="seconds before each run (default 0.15)")
    parser.add_argument("--seed", type=int, default=21, help="generator seed (default 21)")
    parser.add_argument("--workers", type=int, default=1, help="runs at once on each side (default 1)")
    parser.add_argument("--keys", type=int, default=1, help="dependency classpaths, taken in turn (default 1)")
    args = parser.parse_args()
    toolchain = sandbox.find_toolchain()
    with tempfile.TemporaryDirectory(prefix="run-probe-") as work:
        candidates = compiled(args.seed, args.candidates, Path(work), toolchain)
        result = probe(candidates, args.rounds, args.gap, toolchain, args.workers, args.keys)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
