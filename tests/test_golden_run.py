"""A real-JDK run of a generated suite against one committed golden.

perfbench's repair-loop suite (``generate.workload_tasks("repair-loop", 4242,
70)``) runs through ``run_suite`` with the mock backend, twice: with warm
compiles and parked JVMs, and with warm compiles and a cold ``java``. Both
runs must give the golden's verdicts: per task its final status, per attempt
its kind, fingerprint and follow-up, and the three report files. No wall time
is kept. javac's and java's messages belong to their release, so fingerprints
and follow-ups are compared only on the JDK major version the golden records;
statuses, kinds and the reports, which count only those, on every JDK.

After a change that moves the golden on purpose, regenerate it and review
the diff:

    APISYNTH_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests/test_golden_run.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from apisynth.bench import aggregate, run_suite, write_reports
from apisynth.llm import BackendConfig, TranscriptWriter, make_backend
from apisynth.prompting import load_templates
from apisynth.sandbox import CompilerPool, Sandbox
from apisynth.tasks import load_suite
from helpers import EagerParkedPool

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_run.json"
SUITE = ("repair-loop", 4242, 70)
REPORTS = ("report.md", "report.csv", "report.json")


def load_generate():
    spec = importlib.util.spec_from_file_location("perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def jdk_major(java: str) -> int:
    banner = subprocess.run([java, "-version"], capture_output=True, text=True).stderr
    return int(re.search(r'version "(?:1\.)?(\d+)', banner).group(1))


def run_golden_suite(jdk, parked: bool, work: Path) -> dict:
    """The suite's verdicts and reports from one run: parked JVMs, or a cold java per run."""
    generate = load_generate()
    suite, script = generate.write_suite(work / "input", generate.workload_tasks(*SUITE))
    run_dir = work / "run"
    with CompilerPool() as compilers, EagerParkedPool(compilers) as spares:
        sandbox = Sandbox(jdk, compilers=compilers, parked=spares if parked else None)
        records = run_suite(
            load_suite(suite),
            make_backend(BackendConfig(kind="mock"), script),
            load_templates(),
            sandbox,
            run_dir,
            TranscriptWriter(run_dir / "transcript.jsonl", "mock"),
            workers=1 if parked else 2,
        )
    if parked:
        assert spares.parked and all(spares.parked)  # every run went to a parked JVM
    write_reports(run_dir, aggregate(records))
    return {
        "jdk_major": jdk_major(jdk.java),
        "suite": list(SUITE),
        "tasks": {
            record.task_id: {
                "final_status": record.final_status.value,
                "attempts": [
                    {
                        "kind": attempt.outcome.kind.value,
                        "fingerprint": attempt.outcome.fingerprint,
                        "followup_sent": attempt.followup_sent,
                    }
                    for attempt in record.attempts
                ],
            }
            for record in records
        },
        "reports": {name: (run_dir / name).read_text(encoding="utf-8").split("\n") for name in REPORTS},
    }


def dump(golden: dict) -> str:
    """The golden as JSON with one line per attempt and per report line."""
    lines = ["{", f'  "jdk_major": {golden["jdk_major"]},', f'  "suite": {json.dumps(golden["suite"])},', '  "tasks": {']
    for i, (task_id, task) in enumerate(golden["tasks"].items()):
        lines.append(f'    {json.dumps(task_id)}: {{"final_status": {json.dumps(task["final_status"])}, "attempts": [')
        lines += [f"      {json.dumps(attempt)}," for attempt in task["attempts"]]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("    ]}" + ("," if i < len(golden["tasks"]) - 1 else ""))
    lines += ["  },", '  "reports": {']
    for i, (name, text) in enumerate(golden["reports"].items()):
        lines.append(f"    {json.dumps(name)}: [")
        lines += [f"      {json.dumps(line)}," for line in text]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("    ]" + ("," if i < len(golden["reports"]) - 1 else ""))
    return "\n".join(lines + ["  }", "}", ""])


def outline(golden: dict) -> dict:
    """What every JDK must agree on: each task's final status and its attempts' kinds."""
    return {
        task_id: [task["final_status"], *(attempt["kind"] for attempt in task["attempts"])]
        for task_id, task in golden["tasks"].items()
    }


@pytest.mark.parametrize("parked", [True, False], ids=["parked-java", "cold-java"])
def test_real_jdk_run_matches_golden(jdk, parked, tmp_path):
    got = run_golden_suite(jdk, parked, tmp_path)
    if os.environ.get("APISYNTH_WRITE_GOLDEN") and parked:
        GOLDEN.write_text(dump(got), encoding="utf-8")
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(dump(got)) == got  # the golden's layout loses nothing
    assert got["suite"] == want["suite"]
    assert outline(got) == outline(want)  # pytest names each task that moved
    for name in REPORTS:  # counts of statuses and kinds only
        assert got["reports"][name] == want["reports"][name], name
    if got["jdk_major"] == want["jdk_major"]:
        assert got["tasks"] == want["tasks"]
