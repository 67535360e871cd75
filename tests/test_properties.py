from __future__ import annotations

import csv
import io
import json
import tempfile
from decimal import Decimal
from fractions import Fraction
from math import floor
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from apisynth.bench import aggregate, percentage, render_csv, render_json, render_markdown
from apisynth.llm import MockBackend
from apisynth.prompting import load_templates
from apisynth.refine import FinalStatus, synthesize
from apisynth.tasks import parse_task_file
from apisynth.verdict import OutcomeKind
from helpers import (
    StubSandbox,
    compile_error,
    compile_then_pass,
    compiled_late_never_solved,
    compiled_never_solved,
    env_failed,
    failing,
    immediate_pass,
    java_response,
    never_compiled,
    ok,
    runtime_error,
    solved_later,
    transcript_in,
)

# --- rounding ---------------------------------------------------------------


@given(count=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=1, max_value=10_000))
@settings(max_examples=1000, deadline=None)
def test_percentage_matches_exact_half_up_arithmetic(count, n):
    # oracle in exact rationals: one decimal, ties away from zero
    tenths = Fraction(count * 1000, n)
    expected = Decimal(floor(tenths + Fraction(1, 2))).scaleb(-1)
    assert percentage(count, n) == expected


@given(count=st.integers(min_value=0, max_value=100), n=st.integers(min_value=1, max_value=100))
def test_percentage_bounds(count, n):
    value = percentage(count, n)
    if count <= n:
        assert Decimal("0.0") <= value <= Decimal("100.0")


# --- metric invariants ------------------------------------------------------

RECORD_BUILDERS = (
    immediate_pass,
    solved_later,
    compile_then_pass,
    compiled_never_solved,
    compiled_late_never_solved,
    never_compiled,
    env_failed,
)


@st.composite
def record_sets(draw):
    suites = draw(
        st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=0, max_size=24)
    )
    return [
        draw(st.sampled_from(RECORD_BUILDERS))(f"task-{i:03d}", suite)
        for i, suite in enumerate(suites)
    ]


@given(record_sets())
@settings(max_examples=1000, deadline=None)
def test_aggregated_counts_satisfy_invariants(records):
    report = aggregate(records)
    for row in report.rows():
        assert 0 <= row.passed_without <= row.compiled_without <= row.n_tasks
        assert 0 <= row.passed_with <= row.compiled_with <= row.n_tasks
        assert row.passed_without <= row.passed_with
        assert row.compiled_without <= row.compiled_with
        assert 0 <= row.environment_failures <= row.n_tasks
        assert len(row.environment_failure_ids) == row.environment_failures
    assert report.total.n_tasks == len(records)
    assert sum(m.n_tasks for m in report.suites) == report.total.n_tasks
    assert sum(m.passed_with for m in report.suites) == report.total.passed_with
    assert sum(m.environment_failures for m in report.suites) == report.total.environment_failures


@given(record_sets().flatmap(lambda r: st.tuples(st.just(r), st.permutations(r))))
@settings(max_examples=200, deadline=None)
def test_aggregate_is_order_independent(pair):
    records, shuffled = pair
    assert render_json(aggregate(records)) == render_json(aggregate(shuffled))


@given(record_sets())
@settings(max_examples=200, deadline=None)
def test_renders_are_deterministic(records):
    report = aggregate(records)
    for renderer in (render_markdown, render_csv, render_json):
        assert renderer(report) == renderer(report)


@given(record_sets())
@settings(max_examples=200, deadline=None)
def test_renderers_report_identical_counts(records):
    report = aggregate(records)
    data = json.loads(render_json(report))
    csv_rows = list(csv.DictReader(io.StringIO(render_csv(report))))
    json_rows = {row["suite"]: row for row in data["suites"]}
    json_rows["Total"] = data["total"]
    assert len(csv_rows) == len(json_rows)
    for row in csv_rows:
        js = json_rows[row["suite"]]
        for key in (
            "tasks",
            "compiled_no_followups",
            "passed_no_followups",
            "compiled_with_followups",
            "passed_with_followups",
            "environment_failures",
        ):
            assert row[key] == str(js[key])


# --- refinement loop bounds -------------------------------------------------

OUTCOME_BUILDERS = [
    ok,
    lambda: compile_error("error: ';' expected"),
    lambda: compile_error("error: cannot find symbol"),
    lambda: runtime_error('Exception in thread "main" java.lang.IllegalStateException'),
    lambda: runtime_error('Exception in thread "main" java.lang.ArithmeticException: / by zero'),
    lambda: failing(1),
    lambda: failing(2),
    lambda: failing(1, 2),
]

RESPONSE_POOL = [
    java_response("    int f() { return 1; }\n    void test() { }"),
    java_response("    int f() { return 2; }\n    void test() { }"),
    "Sorry, no code this time.",
]

TASK = parse_task_file(
    Path(__file__).resolve().parent.parent / "tasks" / "sample" / "ellipse-area.json"
)


@given(
    outcome_picks=st.lists(st.integers(0, len(OUTCOME_BUILDERS) - 1), min_size=6, max_size=10),
    response_picks=st.lists(st.integers(0, len(RESPONSE_POOL) - 1), min_size=6, max_size=10),
    max_followups=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_followup_budget_is_never_exceeded(outcome_picks, response_picks, max_followups):
    task = TASK
    outcomes = [OUTCOME_BUILDERS[i]() for i in outcome_picks]
    responses = [RESPONSE_POOL[i] for i in response_picks]
    backend = MockBackend(script=responses)
    sandbox = StubSandbox(outcomes=outcomes)
    with tempfile.TemporaryDirectory() as tmp:
        record = synthesize(
            task,
            backend,
            load_templates(),
            sandbox,
            Path(tmp) / task.id,
            transcript_in(Path(tmp)),
            max_followups=max_followups,
        )

    assert record.followups_used <= max_followups
    assert len(record.attempts) <= max_followups + 1
    assert record.followups_used == sum(1 for a in record.attempts if a.followup_sent is not None)

    fingerprints = [a.outcome.fingerprint for a in record.attempts]
    # the loop stops at the first repeat, so only the final pair may ever match
    for left, right in zip(fingerprints[:-2], fingerprints[1:-1]):
        assert left != right

    if record.final_status is FinalStatus.SOLVED:
        assert record.attempts[-1].outcome.kind is OutcomeKind.PASS
    if record.final_status is FinalStatus.FAILED_BUDGET:
        assert record.followups_used == max_followups
    if record.final_status is FinalStatus.FAILED_SAME_ERROR:
        assert fingerprints[-1] == fingerprints[-2]
    if record.final_status is not FinalStatus.SOLVED:
        assert all(a.outcome.kind is not OutcomeKind.PASS for a in record.attempts)
