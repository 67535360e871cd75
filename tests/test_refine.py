from __future__ import annotations

import json

import pytest

from apisynth.bench import run_suite
from apisynth.llm import MockBackend, read_transcript
from apisynth.prompting import COMPILE_FOLLOWUP, RUNTIME_FOLLOWUP, load_templates
from apisynth.records import from_json_dict, to_json_dict
from apisynth.refine import (
    FinalStatus,
    RunRecord,
    load_record,
    save_record,
    synthesize,
)
from apisynth.verdict import AttemptOutcome, OutcomeKind
from helpers import (
    StubSandbox,
    compile_error,
    failing,
    ok,
    runtime_error,
    simple_response,
    transcript_in,
)

RESPONSES = [simple_response() for _ in range(8)]


def run(task, outcomes, tmp_path, responses=None, max_followups=3):
    """One loop over the task under tmp_path, its transcript at tmp_path/transcript.jsonl."""
    backend = MockBackend(script=list(responses or RESPONSES))
    sandbox = StubSandbox(outcomes=outcomes)
    templates = load_templates()
    record = synthesize(
        task,
        backend,
        templates,
        sandbox,
        tmp_path / task.id,
        transcript_in(tmp_path),
        max_followups=max_followups,
    )
    return record, sandbox


def test_immediate_pass(ellipse_task, tmp_path):
    record, sandbox = run(ellipse_task, [ok()], tmp_path)
    assert record.final_status is FinalStatus.SOLVED
    assert len(record.attempts) == 1
    assert record.followups_used == 0
    assert record.solved_without_followups
    assert record.attempts[0].followup_sent is None
    assert len(sandbox.calls) == 1


def test_record_persisted_to_task_dir(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [ok()], tmp_path)
    loaded = load_record(tmp_path / ellipse_task.id / "record.json")
    assert loaded == record


def test_compile_error_then_pass(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [compile_error(), ok()], tmp_path)
    assert record.final_status is FinalStatus.SOLVED
    assert len(record.attempts) == 2
    assert record.followups_used == 1
    assert not record.solved_without_followups
    assert record.attempts[0].followup_sent == COMPILE_FOLLOWUP

    entries = read_transcript(tmp_path / "transcript.jsonl")
    assert len(entries) == 2
    (first, first_request), (_, second_request) = entries
    assert [m.role for m in first_request] == ["system", "user"]
    # one continuous conversation: reply + follow-up appended, nothing rebuilt
    assert [m.role for m in second_request] == [
        "system",
        "user",
        "assistant",
        "user",
    ]
    assert second_request[0:2] == first_request[0:2]
    assert second_request[2].content == first.response_text
    assert second_request[3].content == COMPILE_FOLLOWUP


def test_each_reply_is_on_disk_before_it_is_judged(ellipse_task, tmp_path):
    path = tmp_path / "transcript.jsonl"
    lines_seen: list[int] = []

    class CountingSandbox(StubSandbox):
        def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
            lines_seen.append(len(path.read_text(encoding="utf-8").splitlines()))
            return super().evaluate(unit, target_name, all_ordinals, workdir, classpath)

    sandbox = CountingSandbox(outcomes=[compile_error(), failing(1), ok()])
    backend = MockBackend(script=RESPONSES)
    synthesize(ellipse_task, backend, load_templates(), sandbox, tmp_path, transcript_in(tmp_path))
    assert lines_seen == [1, 2, 3]


def transcript_lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_transcript_turns_follow_the_attempts(ellipse_task, tmp_path):
    outcomes = [compile_error(), runtime_error(), failing(2), ok()]
    record, _ = run(ellipse_task, outcomes, tmp_path)
    lines = transcript_lines(tmp_path / "transcript.jsonl")
    assert [(line["conversation"], line["turn"]) for line in lines] == [(1, 0), (1, 1), (1, 2), (1, 3)]
    assert [m["role"] for m in lines[0]["new_messages"]] == ["system", "user"]
    followups = [attempt.followup_sent for attempt in record.attempts[:-1]]
    assert [line["new_messages"] for line in lines[1:]] == [
        [{"role": "user", "content": followup}] for followup in followups
    ]


def test_a_rerun_starts_a_new_conversation(ellipse_task, tmp_path):
    run(ellipse_task, [compile_error(), ok()], tmp_path)
    run(ellipse_task, [failing(1), ok()], tmp_path)
    lines = transcript_lines(tmp_path / "transcript.jsonl")
    assert [(line["conversation"], line["turn"]) for line in lines] == [(1, 0), (1, 1), (3, 0), (3, 1)]
    assert lines[2]["new_messages"] == lines[0]["new_messages"]


def test_runtime_error_followup_text(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [runtime_error(), ok()], tmp_path)
    assert record.attempts[0].followup_sent == RUNTIME_FOLLOWUP


def test_failing_tests_followup_names_ordinals(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [failing(2, 5), ok()], tmp_path)
    assert record.attempts[0].followup_sent == (
        "The implementation fails test cases 2 and 5. Please fix the bug and make "
        "sure the implementation compiles, runs and can pass all test cases."
    )


def test_same_error_twice_stops_immediately(ellipse_task, tmp_path):
    boom = runtime_error("Exception in thread \"main\" java.lang.IllegalStateException: x")
    record, _ = run(ellipse_task, [boom, boom], tmp_path)
    assert record.final_status is FinalStatus.FAILED_SAME_ERROR
    assert len(record.attempts) == 2
    assert record.followups_used == 1
    assert record.attempts[1].followup_sent is None


def test_distinct_failures_exhaust_budget(ellipse_task, tmp_path):
    outcomes = [failing(1), failing(2), runtime_error(), compile_error()]
    record, _ = run(ellipse_task, outcomes, tmp_path)
    assert record.final_status is FinalStatus.FAILED_BUDGET
    assert len(record.attempts) == 4
    assert record.followups_used == 3


def test_zero_budget_fails_after_first_attempt(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [failing(1)], tmp_path, max_followups=0)
    assert record.final_status is FinalStatus.FAILED_BUDGET
    assert len(record.attempts) == 1
    assert record.followups_used == 0


def test_same_error_checked_before_budget(ellipse_task, tmp_path):
    # identical consecutive fingerprints with budget left: same-error wins
    outcomes = [failing(3), failing(3)]
    record, _ = run(ellipse_task, outcomes, tmp_path)
    assert record.final_status is FinalStatus.FAILED_SAME_ERROR


def test_alternating_errors_are_not_same_error(ellipse_task, tmp_path):
    outcomes = [failing(1), failing(2), failing(1), failing(2)]
    record, _ = run(ellipse_task, outcomes, tmp_path)
    assert record.final_status is FinalStatus.FAILED_BUDGET
    assert record.followups_used == 3


def test_extraction_failure_consumes_followup_with_compile_text(ellipse_task, tmp_path):
    responses = ["I refuse to write code today.", simple_response()]
    record, sandbox = run(ellipse_task, [ok()], tmp_path, responses=responses)
    assert record.final_status is FinalStatus.SOLVED
    assert len(record.attempts) == 2
    assert record.attempts[0].outcome.extraction_failed
    assert record.attempts[0].outcome.kind is OutcomeKind.COMPILE_ERROR
    assert record.attempts[0].followup_sent == COMPILE_FOLLOWUP
    # the unusable reply never reached the sandbox
    assert len(sandbox.calls) == 1


def test_extraction_failure_on_last_attempt_sets_final_status(ellipse_task, tmp_path):
    responses = ["no code here"] * 2
    record, _ = run(ellipse_task, [], tmp_path, responses=responses)
    # same extraction fingerprint twice: terminates with the extraction status
    assert record.final_status is FinalStatus.FAILED_EXTRACTION
    assert len(record.attempts) == 2


def test_extraction_failures_exhausting_budget_report_extraction(ellipse_task, tmp_path):
    responses = [
        "nothing 1",
        simple_response(),
        "sorry, nothing again",
        "still nothing at all",
    ]
    outcomes = [failing(1)]
    record, _ = run(ellipse_task, outcomes, tmp_path, responses=responses)
    assert record.final_status is FinalStatus.FAILED_EXTRACTION
    assert record.followups_used == 3


def test_backend_exhaustion_is_environment_failure(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [failing(1), failing(2)], tmp_path, responses=[simple_response()])
    assert record.final_status is FinalStatus.FAILED_ENVIRONMENT
    assert record.error is not None
    assert "exhausted" in record.error
    assert len(record.attempts) == 1  # the first attempt completed before the fault


def test_sandbox_workdirs_follow_attempt_layout(ellipse_task, tmp_path):
    _, sandbox = run(ellipse_task, [failing(1), ok()], tmp_path)
    dirs = [call[1] for call in sandbox.calls]
    assert dirs[0] == tmp_path / ellipse_task.id / "attempt-1"
    assert dirs[1] == tmp_path / ellipse_task.id / "attempt-2"


def test_an_interrupted_rerun_leaves_no_stale_record(ellipse_task, tmp_path):
    """The record an earlier run left goes with its attempts, so resume cannot take it for the re-run's."""
    run(ellipse_task, [ok()], tmp_path)
    task_dir = tmp_path / ellipse_task.id
    assert sorted(p.name for p in task_dir.iterdir()) == ["record.json"]  # the stub sandbox writes no attempt

    class Interrupted:
        def complete(self, conversation, task_id):
            raise KeyboardInterrupt

    (task_dir / "attempt-1").mkdir()
    with pytest.raises(KeyboardInterrupt):
        synthesize(ellipse_task, Interrupted(), load_templates(), StubSandbox(), task_dir, transcript_in(tmp_path))
    assert list(task_dir.iterdir()) == []
    sandbox = StubSandbox(outcomes=[failing(1), ok()])
    rerun = run_suite(
        [ellipse_task], MockBackend(script=RESPONSES), load_templates(), sandbox, tmp_path, transcript_in(tmp_path),
        resume=True,
    )
    assert [len(record.attempts) for record in rerun] == [2]


def test_record_dict_round_trip(ellipse_task, tmp_path):
    record, _ = run(ellipse_task, [failing(1, 3), ok()], tmp_path)
    assert from_json_dict(RunRecord, json.loads(json.dumps(to_json_dict(record)))) == record
    assert load_record(tmp_path / ellipse_task.id / "record.json") == record


# A record.json as earlier versions wrote it, byte for byte.
STORED_RECORD = """{
  "task_id": "get-range",
  "task_suite": "control-structures",
  "final_status": "solved",
  "followups_used": 1,
  "solved_without_followups": false,
  "wall_time_seconds": 0.5,
  "error": null,
  "attempts": [
    {
      "index": 1,
      "outcome": {
        "kind": "failing_tests",
        "fingerprint": "failing_tests:3,4",
        "failing_ordinals": [
          3,
          4
        ],
        "detail": "",
        "extraction_failed": false
      },
      "followup_sent": "fix 3 and 4"
    },
    {
      "index": 2,
      "outcome": {
        "kind": "pass",
        "fingerprint": "pass",
        "failing_ordinals": [],
        "detail": "",
        "extraction_failed": false
      },
      "followup_sent": null
    }
  ]
}
"""


def test_stored_record_layout_is_stable(tmp_path):
    path = tmp_path / "record.json"
    path.write_text(STORED_RECORD, encoding="utf-8")
    record = load_record(path)
    assert record.attempts[0].outcome.failing_ordinals == frozenset({3, 4})
    assert record.attempts[0].followup_sent == "fix 3 and 4"
    assert record.final_status is FinalStatus.SOLVED
    assert record.followups_used == 1
    assert not record.solved_without_followups
    assert [a.outcome.fingerprint for a in record.attempts] == ["failing_tests:3,4", "pass"]
    # Saving drops the derived keys and keeps every other byte.
    save_record(record, tmp_path / "again" / "record.json")
    expected = STORED_RECORD.replace('  "followups_used": 1,\n  "solved_without_followups": false,\n', "")
    for fingerprint in ("failing_tests:3,4", "pass"):
        expected = expected.replace(f'        "fingerprint": "{fingerprint}",\n', "")
    assert (tmp_path / "again" / "record.json").read_text(encoding="utf-8") == expected
    assert [p.name for p in (tmp_path / "again").iterdir()] == ["record.json"]


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["attempts"][0]["outcome"].update(failing_ordinals=[3, True]),
         "attempts[0].outcome.failing_ordinals[1]: expected an integer"),
        (lambda d: d["attempts"][0]["outcome"].update(failing_ordinals=3),
         "attempts[0].outcome.failing_ordinals: expected an array"),
        (lambda d: d.update(attempts={}), "attempts: expected an array"),
        (lambda d: d["attempts"][1]["outcome"].pop("kind"), "attempts[1].outcome.kind: missing required field"),
        (lambda d: d.update(final_status=["solved"]), "final_status: expected one of 'solved', 'failed_budget', "
         "'failed_same_error', 'failed_extraction', 'failed_environment'"),
        (lambda d: d.update(wall_time_seconds=True), "wall_time_seconds: expected a number"),
        (lambda d: d.update(error=5), "error: expected a string"),
    ],
    ids=["ordinal-true", "ordinals-int", "attempts-object", "no-kind", "status-array", "time-true", "error-int"],
)
def test_mistyped_record_names_the_json_path(tmp_path, change, message):
    data = json.loads(STORED_RECORD)
    change(data)
    path = tmp_path / "record.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_record(path)
    assert str(excinfo.value) == message


def test_record_without_optional_keys_loads():
    data = json.loads(STORED_RECORD)
    for key in ("attempts", "error"):
        del data[key]
    assert from_json_dict(RunRecord, data).attempts == ()
    data = json.loads(STORED_RECORD)
    del data["attempts"][0]["followup_sent"]
    for key in ("failing_ordinals", "detail", "extraction_failed"):
        del data["attempts"][0]["outcome"][key]
    attempt = from_json_dict(RunRecord, data).attempts[0]
    assert attempt.followup_sent is None
    assert attempt.outcome.failing_ordinals == frozenset()
    assert attempt.outcome == AttemptOutcome(OutcomeKind.FAILING_TESTS)
    assert attempt.outcome.fingerprint == "failing_tests:"
