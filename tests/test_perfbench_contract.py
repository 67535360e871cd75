"""The program names and record fields the benchmark relies on.

perfbench/spans.py swaps module attributes of ``refine``, ``bench`` and
``cli`` for timing wrappers, and perfbench/workloads.py swaps the CLI's two
factories. Its ``patched`` fails on a name that is gone, so a refactor that
drops one of them breaks the benchmark; this test makes it fail the test suite too.
So ``bench`` still imports ``save_record``, which spans.py rebinds there,
though no code in ``bench`` calls it: ``refine.synthesize`` saves every
record, an environment failure's too, through ``refine.save_record``.

perfbench/workloads.py also reads loaded records and copies them with
``dataclasses.replace``. A field it reads that became a property would make
``replace`` fail or drop the value from record.json, so those stay fields.

perfbench/spans.py's ``TracedSandbox`` calls ``Sandbox.evaluate`` with
positional arguments and reads the compile/run split from the attempt's
``compile.log`` and ``run.log``; so the sandbox keeps that signature and
those logs.

perfbench/setup_probe.py times the start-up calls of ``bench`` in a fresh
interpreter; running it here keeps the names and signatures it calls working.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from apisynth import cli
from apisynth.extractor import SourceUnit, extract_source_unit
from apisynth.refine import AttemptRecord, FinalStatus, RunRecord, load_record, save_record
from apisynth.sandbox import Sandbox, ToolchainError, find_toolchain
from apisynth.verdict import AttemptOutcome
from helpers import failing, ok

REPO = Path(__file__).resolve().parent.parent
SPANS = REPO / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_exists():
    spans = load_spans()
    replacements = spans.layer_patches(spans.Tracer())
    replacements += [(cli, "make_backend", object()), (cli, "make_sandbox", object())]
    before = [getattr(module, attr) for module, attr, _ in replacements]
    with spans.patched(replacements):
        for module, attr, new in replacements:
            assert getattr(module, attr) is new
    assert [getattr(module, attr) for module, attr, _ in replacements] == before


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_record_attributes_the_benchmark_reads_are_stored(tmp_path):
    stored = {"task_id", "task_suite", "final_status", "error", "wall_time_seconds", "attempts"}
    assert stored <= field_names(RunRecord)
    assert {"index", "outcome"} <= field_names(AttemptRecord)
    assert {"kind", "failing_ordinals"} <= field_names(AttemptOutcome)

    record = RunRecord(
        task_id="template",
        task_suite="s",
        final_status=FinalStatus.SOLVED,
        wall_time_seconds=0.25,
        attempts=(AttemptRecord(1, failing(2, 3), followup_sent="fix"), AttemptRecord(2, ok())),
    )
    # The resume-report workload fans one template record out under new ids.
    copy = dataclasses.replace(record, task_id="copy", task_suite="t")
    save_record(copy, tmp_path / "record.json")
    loaded = load_record(tmp_path / "record.json")
    assert loaded == copy
    assert (loaded.task_id, loaded.task_suite) == ("copy", "t")
    assert (loaded.final_status, loaded.error, loaded.wall_time_seconds) == (
        FinalStatus.SOLVED,
        None,
        0.25,
    )
    attempts = [(a.index, a.outcome.kind.value, sorted(a.outcome.failing_ordinals)) for a in loaded.attempts]
    assert attempts == [(1, "failing_tests", [2, 3]), (2, "pass", [])]


def test_traced_sandbox_reads_the_compile_and_run_logs(jdk, java_fixture_dir, tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    traced = spans.TracedSandbox(Sandbox(jdk), tracer)
    source = (java_fixture_dir / "PalindromeChecker.java").read_text(encoding="utf-8")
    passing = extract_source_unit(f"```java\n{source}```", "isPalindrome", 1)
    no_entry = SourceUnit("public class Solution { int f() { return 1; } }\n", "Solution", True, False)
    traced.evaluate(passing, "isPalindrome", (1, 2, 3, 4, 5, 6), tmp_path / "a1", [])
    traced.evaluate(no_entry, "f", (1,), tmp_path / "a2", [])
    ran, unrunnable = [s for s in tracer.spans if s["name"] == "sandbox.evaluate"]
    assert ran["kind"] == "pass" and ran["timed_out"] is False
    assert ran["compile_s"] is not None and ran["run_s"] is not None
    assert unrunnable["kind"] == "runtime_error" and unrunnable["timed_out"] is False
    assert unrunnable["compile_s"] is not None and unrunnable["run_s"] is None


def test_setup_probe_runs(tmp_path):
    try:
        find_toolchain()
    except ToolchainError as exc:
        pytest.skip(str(exc))
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    probe = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", "src", "tasks/sample", str(script)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    measured, rescaled = map(float, probe.stdout.split())
    assert measured > 0 and rescaled > 0
