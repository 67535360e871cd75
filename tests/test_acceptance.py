"""End-to-end checks, one per advertised guarantee.

Each test carries an `acceptance` marker; the terminal summary prints one
PASS/FAIL line per criterion. The sandbox classification check needs a real
JDK on PATH (or JAVA_HOME / APISYNTH_JAVAC / APISYNTH_JAVA) and fails with a
diagnostic when none is present. The live smoke check is opt-in via
APISYNTH_LIVE_SMOKE=1 and a configured backend credential.
"""

from __future__ import annotations

import os
import re
import time
from decimal import Decimal

import pytest

import apisynth.cli as cli
import test_properties as props
from apisynth.bench import aggregate, percentage, render_markdown
from apisynth.extractor import extract_source_unit
from apisynth.llm import BackendConfig, MockBackend, TranscriptWriter, make_backend
from apisynth.prompting import (
    build_followup,
    build_initial_conversation,
    load_templates,
    render_conversation_text,
)
from apisynth.refine import FinalStatus, synthesize
from apisynth.sandbox import Sandbox, ToolchainError, find_toolchain
from apisynth.tasks import parse_task_file
from apisynth.verdict import SUCCESS_MARKER, OutcomeKind
from helpers import (
    StubSandbox,
    compile_error,
    failing,
    java_response,
    ok,
    runtime_error,
    table_rows_records,
)


@pytest.mark.acceptance(criterion="A1 golden prompt byte-equal")
def test_dry_run_reproduces_golden_prompt(repo_root, golden_prompt, capsys):
    start = time.monotonic()
    rc = cli.main(["synth", str(repo_root / "tasks" / "sample" / "ellipse-area.json"), "--dry-run"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out

    assert rc == 0
    assert out == golden_prompt
    for tag in ("<Role>", "<Instruction>", "<examples>", "<method>", "<TestCases>"):
        assert tag in out
    assert "Please output the results. Only output complete code." in out
    assert len(re.findall(r"^\s*Step \d+ - ", out, re.MULTILINE)) == 8
    assert "GetRange" in out
    assert elapsed < 1.0, f"dry-run took {elapsed:.2f}s"


@pytest.mark.acceptance(criterion="A2 follow-up texts verbatim")
def test_followup_texts_match_reference_strings():
    assert build_followup(compile_error()) == (
        "The solution doesn't compile. Please fix the bug and make sure the "
        "implementation compiles, runs and can pass all test cases."
    )
    assert build_followup(runtime_error()) == (
        "The solution throws run-time exceptions. Please fix the bug and make sure "
        "the implementation compiles, runs and can pass all test cases."
    )
    assert build_followup(failing(2, 5)) == (
        "The implementation fails test cases 2 and 5. Please fix the bug and make "
        "sure the implementation compiles, runs and can pass all test cases."
    )


@pytest.mark.acceptance(criterion="A3 refinement state machine")
def test_refinement_state_machine(repo_root, tmp_path, templates):
    task = parse_task_file(repo_root / "tasks" / "sample" / "ellipse-area.json")
    reply = java_response("    double f() { return 1.0; }\n    void test() { }")

    def scenario(name, outcomes, n_responses):
        backend = MockBackend(script=[reply] * n_responses)
        sandbox = StubSandbox(outcomes=outcomes)
        return synthesize(task, backend, templates, sandbox, tmp_path / name)

    start = time.monotonic()

    immediate = scenario("immediate", [ok()], 1)
    assert immediate.final_status is FinalStatus.SOLVED
    assert len(immediate.attempts) == 1
    assert immediate.followups_used == 0
    assert immediate.solved_without_followups

    repaired = scenario("repaired", [compile_error(), ok()], 2)
    assert repaired.final_status is FinalStatus.SOLVED
    assert len(repaired.attempts) == 2
    assert repaired.attempts[0].followup_sent == (
        "The solution doesn't compile. Please fix the bug and make sure the "
        "implementation compiles, runs and can pass all test cases."
    )

    boom = runtime_error('Exception in thread "main" java.lang.IllegalStateException')
    stuck = scenario("stuck", [boom, boom], 2)
    assert stuck.final_status is FinalStatus.FAILED_SAME_ERROR
    assert stuck.followups_used == 1
    assert len(stuck.attempts) == 2

    exhausted = scenario(
        "exhausted", [failing(1), failing(2), runtime_error(), compile_error()], 4
    )
    assert exhausted.final_status is FinalStatus.FAILED_BUDGET
    assert exhausted.followups_used == 3
    assert len(exhausted.attempts) == 4

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"state-machine scenarios took {elapsed:.2f}s"


@pytest.mark.acceptance(criterion="A4 sandbox classification (real JDK)")
def test_sandbox_classifies_real_compile_and_run(java_fixture_dir, tmp_path):
    try:
        toolchain = find_toolchain()
    except ToolchainError as exc:
        pytest.fail(
            "a Java toolchain is required for this check but none was found: "
            f"{exc} (install a JDK or set APISYNTH_JAVAC/APISYNTH_JAVA)"
        )

    sandbox = Sandbox(toolchain, compile_timeout=60.0, run_timeout=30.0)

    def evaluate(file_name, target, params, ordinals):
        source = (java_fixture_dir / file_name).read_text(encoding="utf-8")
        unit = extract_source_unit(f"```java\n{source}```", target, params)
        workdir = tmp_path / file_name.removesuffix(".java")
        return sandbox.evaluate(unit, target, ordinals, workdir), workdir

    start = time.monotonic()

    passed, workdir = evaluate("PalindromeChecker.java", "isPalindrome", 1, (1, 2, 3, 4, 5, 6))
    assert passed.kind is OutcomeKind.PASS
    assert SUCCESS_MARKER in (workdir / "run.log").read_text(encoding="utf-8")

    broken, _ = evaluate("BrokenSyntax.java", "answer", 0, (1,))
    assert broken.kind is OutcomeKind.COMPILE_ERROR

    thrower, _ = evaluate("ExceptionThrower.java", "divide", 2, (1,))
    assert thrower.kind is OutcomeKind.RUNTIME_ERROR

    partial, _ = evaluate("SecondCaseFails.java", "twice", 1, (1, 2))
    assert partial.kind is OutcomeKind.FAILING_TESTS
    assert partial.failing_ordinals == frozenset({2})

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"toolchain checks took {elapsed:.2f}s"


@pytest.mark.acceptance(criterion="A5 metrics oracle")
def test_metrics_reproduce_reference_table():
    report = aggregate(table_rows_records())
    rows = {m.suite: m for m in report.rows()}

    total = rows["Total"]
    assert (total.n_tasks, total.compiled_without, total.passed_without) == (135, 133, 126)
    assert (total.compiled_with, total.passed_with) == (135, 133)
    assert percentage(total.compiled_without, total.n_tasks) == Decimal("98.5")
    assert percentage(total.passed_without, total.n_tasks) == Decimal("93.3")
    assert percentage(total.compiled_with, total.n_tasks) == Decimal("100.0")
    assert percentage(total.passed_with, total.n_tasks) == Decimal("98.5")

    frangel = rows["frangel"]
    assert (frangel.n_tasks, frangel.compiled_without, frangel.passed_without) == (90, 88, 83)
    assert (frangel.compiled_with, frangel.passed_with) == (90, 88)
    assert percentage(frangel.compiled_without, 90) == Decimal("97.8")
    assert percentage(frangel.passed_without, 90) == Decimal("92.2")

    sypet = rows["sypet"]
    assert (sypet.n_tasks, sypet.compiled_without, sypet.passed_without) == (30, 30, 29)
    assert (sypet.compiled_with, sypet.passed_with) == (30, 30)
    assert percentage(sypet.passed_without, 30) == Decimal("96.7")

    additional = rows["additional"]
    assert (additional.n_tasks, additional.compiled_without, additional.passed_without) == (15, 15, 14)
    assert (additional.compiled_with, additional.passed_with) == (15, 15)
    assert percentage(additional.passed_without, 15) == Decimal("93.3")

    text = render_markdown(report)
    assert "| Total | 135 | 133 (98.5%) | 126 (93.3%) | 135 (100.0%) | 133 (98.5%) |" in text
    assert "| frangel | 90 | 88 (97.8%) | 83 (92.2%) | 90 (100.0%) | 88 (97.8%) |" in text
    assert "| sypet | 30 | 30 (100.0%) | 29 (96.7%) | 30 (100.0%) | 30 (100.0%) |" in text
    assert (
        "| additional | 15 | 15 (100.0%) | 14 (93.3%) | 15 (100.0%) | 15 (100.0%) |" in text
    )


@pytest.mark.acceptance(criterion="A6 property suites")
def test_property_suites_hold(repo_root, templates):
    props.test_aggregated_counts_satisfy_invariants()
    props.test_aggregate_is_order_independent()
    props.test_percentage_matches_exact_half_up_arithmetic()
    props.test_followup_budget_is_never_exceeded()

    task = parse_task_file(repo_root / "tasks" / "sample" / "ellipse-area.json")
    first = render_conversation_text(build_initial_conversation(task, templates))
    second = render_conversation_text(build_initial_conversation(task, templates))
    assert first == second


@pytest.mark.acceptance(criterion="A7 live smoke (opt-in)")
@pytest.mark.live
@pytest.mark.skipif(
    os.environ.get("APISYNTH_LIVE_SMOKE") != "1",
    reason="set APISYNTH_LIVE_SMOKE=1 and configure a backend credential to run",
)
def test_live_backend_solves_reference_tasks(repo_root, templates, tmp_path):
    config = BackendConfig(
        kind="http",
        model=os.environ.get("APISYNTH_MODEL", "gpt-4o"),
        endpoint_url=os.environ.get("APISYNTH_ENDPOINT", "https://api.openai.com/v1"),
        credential_source=os.environ.get("APISYNTH_CREDENTIAL_ENV", "OPENAI_API_KEY"),
    )
    transcript = TranscriptWriter(tmp_path / "transcript.jsonl")
    backend = make_backend(config, transcript)
    sandbox = Sandbox(compile_timeout=60.0, run_timeout=30.0)

    for task_file in ("ellipse-area.json", "get-range.json"):
        task = parse_task_file(repo_root / "tasks" / "sample" / task_file)
        solved = 0
        for attempt in range(5):
            record = synthesize(
                task, backend, templates, sandbox, tmp_path / task.id / f"run-{attempt}"
            )
            if record.final_status is FinalStatus.SOLVED:
                solved += 1
        assert solved >= 4, f"{task.id} solved only {solved}/5 runs"
