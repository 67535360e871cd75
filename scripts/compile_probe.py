#!/usr/bin/env python3
"""Feed one compile server a stream of benchmark candidates and report its costs.

Usage, from the root of a checkout:

    python3 scripts/compile_probe.py --compiles 1035 --seed 21
    python3 scripts/compile_probe.py --compiles 400 --deps some.jar

The candidates are what the repair-loop workload's model replies compile to
(perfbench/generate.py, compile errors included), written as the sandbox
writes them, each into a fresh directory, and sent round after round to one
server (``sandbox._CompileServer``) started with ``sandbox.COMPILE_SERVER_FLAGS``
plus a GC log. With ``--deps``, every other compile has the jar as its
dependency classpath, so the server changes javac context at every compile.
The report is one JSON object: young and full GCs and their total pause from
the GC log, the server's CPU seconds and peak RSS from getrusage of the
reaped server, and the p50/p90 of the compile round trip.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
from apisynth.extractor import ExtractionError, candidate_source, extract_source_unit  # noqa: E402

PAUSE = re.compile(r"Pause (Young|Full).* (\d+\.\d+)ms$")


def candidates(seed: int, count: int) -> list[tuple[str, str]]:
    """(file name, source) of the first ``count`` compiled candidates of a repair-loop run."""
    found = []
    for task in generate.workload_tasks("repair-loop", seed, count):
        fam = task.family
        for reply in task.replies:
            try:
                unit = extract_source_unit(reply, fam.method, len(fam.params))
            except ExtractionError:
                continue
            found.append((f"{unit.public_class_name}.java", candidate_source(unit, fam.method)[0]))
            if len(found) == count:
                return found
    return found


def probe(sources: list[tuple[str, str]], compiles: int, deps: str, work: Path) -> dict:
    gc_log = work / "gc.log"
    flags = sandbox.COMPILE_SERVER_FLAGS
    sandbox.COMPILE_SERVER_FLAGS = (*flags, f"-Xlog:gc:file={gc_log}")
    try:
        server = sandbox._CompileServer(sandbox.find_toolchain().java)
    finally:
        sandbox.COMPILE_SERVER_FLAGS = flags
    if not server.ready(60):
        server.stop()
        raise SystemExit("the compile server did not start")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    times, exits = [], {}
    for i in range(compiles):
        name, source = sources[i % len(sources)]
        workdir = work / f"c{i}"
        workdir.mkdir()
        (workdir / name).write_text(source, encoding="utf-8")
        request = sandbox._request_line(str(workdir), deps if i % 2 else "", name)
        start = time.perf_counter()
        reply = server.compile(request, 60)
        times.append(time.perf_counter() - start)
        if reply is None:
            server.stop()
            raise SystemExit(f"compile {i} got no reply")
        exits[reply[0]] = exits.get(reply[0], 0) + 1
    server.stop()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    pauses = {"Young": [], "Full": []}
    for line in gc_log.read_text(encoding="utf-8").splitlines():
        match = PAUSE.search(line)
        if match:
            pauses[match.group(1)].append(float(match.group(2)) / 1000)
    return {
        "compiles": compiles,
        "deps": deps,
        "exits": {str(k): v for k, v in sorted(exits.items())},
        "cpu_s": round(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, 2),
        "rss_mb": round(after.ru_maxrss / 1024, 1),
        "full": len(pauses["Full"]),
        "young": len(pauses["Young"]),
        "pause_s": round(sum(pauses["Young"]) + sum(pauses["Full"]), 2),
        "p50_ms": round(percentile(times, 50) * 1000, 1),
        "p90_ms": round(percentile(times, 90) * 1000, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compiles", type=int, default=1035, help="compiles in all (default 1035)")
    parser.add_argument("--candidates", type=int, default=69, help="distinct candidates cycled (default 69)")
    parser.add_argument("--seed", type=int, default=21, help="generator seed (default 21)")
    parser.add_argument("--deps", default="", help="a jar every other compile has as its classpath")
    args = parser.parse_args()
    deps = os.path.abspath(args.deps) if args.deps else ""
    with tempfile.TemporaryDirectory(prefix="compile-probe-") as work:
        result = probe(candidates(args.seed, args.candidates), args.compiles, deps, Path(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
