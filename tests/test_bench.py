from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
import time
from decimal import Decimal

import pytest

from apisynth.bench import (
    MetricsError,
    aggregate,
    load_baseline,
    percentage,
    render_csv,
    render_json,
    render_markdown,
    run_suite,
    write_reports,
)
from apisynth.llm import ConfigError, MockBackend, read_transcript
from apisynth.prompting import load_templates
from apisynth.refine import FinalStatus, RunRecord, load_record
from apisynth.tasks import load_suite
from helpers import (
    StubSandbox,
    compile_error,
    env_failed,
    failing,
    immediate_pass,
    java_response,
    ok,
    runtime_error,
    table_rows_records,
    transcript_in,
)


def markdown_rows(text: str) -> dict[str, list[str]]:
    rows = {}
    for line in text.splitlines():
        if not line.startswith("|") or line.startswith("| ---") or line.startswith("| Suite"):
            continue
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        rows[cells[0]] = cells[1:]
    return rows


def test_percentage_one_decimal_half_up():
    assert percentage(88, 90) == Decimal("97.8")
    assert percentage(83, 90) == Decimal("92.2")
    assert percentage(1, 8) == Decimal("12.5")
    # exact .x5 midpoints round away from zero, not to even
    assert percentage(369, 400) == Decimal("92.3")
    assert percentage(1, 2000) == Decimal("0.1")
    assert percentage(0, 5) == Decimal("0.0")
    assert percentage(5, 5) == Decimal("100.0")


def test_percentage_of_empty_population_is_none():
    assert percentage(0, 0) is None


def test_reference_table_counts():
    report = aggregate(table_rows_records())
    rows = markdown_rows(render_markdown(report))
    assert rows["frangel"] == [
        "90",
        "88 (97.8%)",
        "83 (92.2%)",
        "90 (100.0%)",
        "88 (97.8%)",
    ]
    assert rows["sypet"] == [
        "30",
        "30 (100.0%)",
        "29 (96.7%)",
        "30 (100.0%)",
        "30 (100.0%)",
    ]
    assert rows["additional"] == [
        "15",
        "15 (100.0%)",
        "14 (93.3%)",
        "15 (100.0%)",
        "15 (100.0%)",
    ]
    assert rows["Total"] == [
        "135",
        "133 (98.5%)",
        "126 (93.3%)",
        "135 (100.0%)",
        "133 (98.5%)",
    ]


def test_suites_listed_alphabetically_then_total():
    report = aggregate(table_rows_records())
    assert [m.suite for m in report.rows()] == ["additional", "frangel", "sypet", "Total"]


def test_empty_population_renders_dashes():
    report = aggregate([])
    rows = markdown_rows(render_markdown(report))
    assert rows["Total"] == ["0", "n/a", "n/a", "n/a", "n/a"]


def test_environment_failures_count_toward_n_only():
    records = [immediate_pass("a", "s"), env_failed("b", "s"), env_failed("c", "s")]
    report = aggregate(records)
    row = report.suites[0]
    assert row.n_tasks == 3
    assert row.compiled_without == row.passed_without == 1
    assert row.compiled_with == row.passed_with == 1
    assert row.environment_failures == 2
    assert row.environment_failure_ids == ("b", "c")
    text = render_markdown(report)
    assert "Environment failures (counted as not compiled): b, c" in text


def test_markdown_omits_environment_line_when_clean():
    text = render_markdown(aggregate([immediate_pass("a", "s")]))
    assert "Environment failures" not in text


def test_impossible_counts_rejected():
    # claims a solve although no attempt ever ran
    broken = dataclasses.replace(env_failed("bad", "s"), final_status=FinalStatus.SOLVED)
    with pytest.raises(MetricsError):
        aggregate([broken])


def test_renderers_agree_on_numbers():
    records = table_rows_records() + [env_failed("env-00", "frangel")]
    report = aggregate(records)
    md_rows = markdown_rows(render_markdown(report))
    data = json.loads(render_json(report))
    csv_rows = list(csv.DictReader(io.StringIO(render_csv(report))))

    json_rows = {row["suite"]: row for row in data["suites"]}
    json_rows["Total"] = data["total"]
    for row in csv_rows:
        md = md_rows[row["suite"]]
        js = json_rows[row["suite"]]
        assert row["tasks"] == md[0] == str(js["tasks"])
        for idx, key in enumerate(
            [
                "compiled_no_followups",
                "passed_no_followups",
                "compiled_with_followups",
                "passed_with_followups",
            ],
            start=1,
        ):
            assert row[key] == str(js[key])
            assert row[f"{key}_pct"] == (js[f"{key}_pct"] or "")
            expected_cell = (
                "n/a" if js[f"{key}_pct"] is None else f"{js[key]} ({js[f'{key}_pct']}%)"
            )
            assert md[idx] == expected_cell


def test_rendering_is_deterministic():
    report = aggregate(table_rows_records())
    assert render_markdown(report) == render_markdown(report)
    assert render_json(report) == render_json(report)
    assert render_csv(report) == render_csv(report)


def test_aggregate_ignores_record_order():
    records = table_rows_records()
    forward = render_json(aggregate(records))
    backward = render_json(aggregate(list(reversed(records))))
    assert forward == backward


# --- baseline column -------------------------------------------------------


def test_baseline_file_loads(repo_root):
    baseline = load_baseline(repo_root / "data" / "frangel_baseline.json")
    assert baseline["geometry"] == (25, 22)
    assert baseline["control-structures"] == (40, 38)
    assert baseline["github"] == (25, 23)
    assert baseline["sypet"] == (30, 30)


def test_baseline_validation(tmp_path):
    bad = tmp_path / "b.json"
    bad.write_text('{"s": {"n_tasks": 5, "success_count": 9}}')
    with pytest.raises(ConfigError):
        load_baseline(bad)
    bad.write_text('{"s": {"n_tasks": 5}}')
    with pytest.raises(ConfigError):
        load_baseline(bad)
    bad.write_text('{"frangel": {"n_tasks": true, "success_count": true}}')
    with pytest.raises(ConfigError, match="must have integer n_tasks and success_count"):
        load_baseline(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_baseline(bad)
    with pytest.raises(ConfigError):
        load_baseline(tmp_path / "missing.json")


def test_baseline_column_merges_matched_suites(repo_root):
    baseline = load_baseline(repo_root / "data" / "frangel_baseline.json")
    records = [
        immediate_pass("g-0", "geometry"),
        immediate_pass("c-0", "control-structures"),
        immediate_pass("h-0", "github"),
        immediate_pass("y-0", "sypet"),
    ]
    rows = markdown_rows(render_markdown(aggregate(records), baseline))
    assert rows["geometry"][-1] == "22 (88.0%)"
    assert rows["control-structures"][-1] == "38 (95.0%)"
    assert rows["github"][-1] == "23 (92.0%)"
    assert rows["sypet"][-1] == "30 (100.0%)"
    # total pools the baseline counts of the suites that appear in this run
    assert rows["Total"][-1] == "113 (94.2%)"


def test_baseline_column_dashes_for_unknown_suite(repo_root):
    baseline = load_baseline(repo_root / "data" / "frangel_baseline.json")
    records = [immediate_pass("g-0", "geometry"), immediate_pass("x-0", "novel")]
    rows = markdown_rows(render_markdown(aggregate(records), baseline))
    assert rows["novel"][-1] == "n/a"
    assert rows["geometry"][-1] == "22 (88.0%)"
    # total uses only the matched suite
    assert rows["Total"][-1] == "22 (88.0%)"


def test_baseline_column_absent_without_baseline():
    text = render_markdown(aggregate([immediate_pass("a", "s")]))
    assert "Baseline" not in text


def test_json_baseline_fields(repo_root):
    baseline = load_baseline(repo_root / "data" / "frangel_baseline.json")
    records = [immediate_pass("g-0", "geometry"), immediate_pass("x-0", "novel")]
    data = json.loads(render_json(aggregate(records), baseline))
    by_suite = {row["suite"]: row for row in data["suites"]}
    assert by_suite["geometry"]["baseline_solved"] == 22
    assert by_suite["geometry"]["baseline_pct"] == "88.0"
    assert by_suite["novel"]["baseline_solved"] is None
    assert data["total"]["baseline_tasks"] == 25


def test_write_reports_creates_all_formats(tmp_path):
    report = aggregate(table_rows_records())
    paths = write_reports(tmp_path / "run", report)
    assert sorted(p.name for p in paths.values()) == ["report.csv", "report.json", "report.md"]
    assert paths["markdown"].read_text(encoding="utf-8") == render_markdown(report)
    json.loads(paths["json"].read_text(encoding="utf-8"))


# --- suite runner ----------------------------------------------------------

SAMPLE_TARGETS = {
    "collections-swap": "swap",
    "ellipse-area": "ellipseArea",
    "get-offset-for-line": "getOffsetForLine",
    "get-range": "GetRange",
    "palindrome-queue": "isPalindrome",
}


def scripted_backend(extra=None):
    script = {
        task_id: [java_response(f"    void {target}() {{ }}\n    void test() {{ }}")]
        for task_id, target in SAMPLE_TARGETS.items()
    }
    for task_id, responses in (extra or {}).items():
        script[task_id] = responses
    return MockBackend(script=script)


def passing_sandbox():
    return StubSandbox(by_target={target: [ok()] for target in SAMPLE_TARGETS.values()})


def test_run_suite_returns_records_in_task_id_order(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")
    records = run_suite(
        tasks, scripted_backend(), load_templates(), passing_sandbox(), tmp_path, transcript_in(tmp_path), workers=3
    )
    assert [r.task_id for r in records] == sorted(SAMPLE_TARGETS)
    assert all(r.final_status is FinalStatus.SOLVED for r in records)


def test_run_suite_writes_record_files(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")
    records = run_suite(
        tasks, scripted_backend(), load_templates(), passing_sandbox(), tmp_path, transcript_in(tmp_path), workers=2
    )
    for record in records:
        assert load_record(tmp_path / record.task_id / "record.json") == record


def test_run_suite_mixed_outcomes(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")
    sandbox = StubSandbox(
        by_target={
            "swap": [ok()],
            "ellipseArea": [compile_error(), ok()],
            "getOffsetForLine": [runtime_error(), runtime_error()],
            "GetRange": [failing(2), ok()],
            "isPalindrome": [ok()],
        }
    )
    reply = java_response("    void x() { }")
    backend = scripted_backend(
        extra={
            "ellipse-area": [reply, reply],
            "get-offset-for-line": [reply, reply],
            "get-range": [reply, reply],
        }
    )
    records = {
        r.task_id: r
        for r in run_suite(tasks, backend, load_templates(), sandbox, tmp_path, transcript_in(tmp_path), workers=4)
    }
    assert records["collections-swap"].final_status is FinalStatus.SOLVED
    assert records["ellipse-area"].followups_used == 1
    assert records["get-offset-for-line"].final_status is FinalStatus.FAILED_SAME_ERROR
    assert records["get-range"].final_status is FinalStatus.SOLVED
    report = aggregate(list(records.values()))
    assert report.total.n_tasks == 5
    assert report.total.passed_with == 4
    assert report.total.compiled_without == 4  # ellipse-area missed its first compile


class RecordingBackend:
    """Passes each call on to a backend and keeps the conversation it was sent."""

    def __init__(self, backend):
        self.backend = backend
        self.sent: dict[str, list[tuple]] = {}

    def complete(self, conversation, task_id):
        exchange = self.backend.complete(conversation, task_id)
        self.sent.setdefault(task_id, []).append(tuple(conversation))
        return exchange


def test_transcript_rebuilds_interleaved_conversations(repo_root, tmp_path):
    """Three workers, more than the cores, write turns of many tasks into one file."""
    sample = load_suite(repo_root / "tasks" / "sample")
    tasks = tuple(dataclasses.replace(task, id=f"{task.id}-{copy}") for copy in range(4) for task in sample)
    outcomes = {task.id: [compile_error(), runtime_error(), failing(1), ok()] for task in tasks}

    class PerTaskSandbox(StubSandbox):
        def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
            time.sleep(0.002)  # a real sandbox waits on javac and java here
            return outcomes[workdir.parent.name].pop(0)

    script = {
        task.id: [java_response(f"    void {task.signature.name}() {{ }}\n    void test{i}() {{ }}")
                  for i in range(4)]
        for task in tasks
    }
    backend = RecordingBackend(MockBackend(script=script))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        records = run_suite(
            tasks,
            backend,
            load_templates(),
            PerTaskSandbox(),
            tmp_path,
            transcript_in(tmp_path),
            workers=3,
        )
    finally:
        sys.setswitchinterval(switch)
    assert all(r.final_status is FinalStatus.SOLVED and len(r.attempts) == 4 for r in records)

    entries = read_transcript(tmp_path / "transcript.jsonl")
    lines = [line for line, _ in entries]
    # Some turn follows another task's line: the conversations really interleave.
    assert any(b.turn and a.task_id != b.task_id for a, b in zip(lines, lines[1:]))
    rebuilt: dict[str, list[tuple]] = {}
    turns: dict[str, list[tuple[int, int]]] = {}
    for line, request in entries:
        rebuilt.setdefault(line.task_id, []).append(request)
        turns.setdefault(line.task_id, []).append((line.conversation, line.turn))
    assert rebuilt == backend.sent
    for task_id, seen in turns.items():
        assert [turn for _, turn in seen] == [0, 1, 2, 3]
        assert len({conversation for conversation, _ in seen}) == 1, task_id
    assert len({seen[0][0] for seen in turns.values()}) == len(tasks)


def test_unresolved_dependency_skips_backend(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")
    needy = dataclasses.replace(tasks[0], dependencies=("demo-dep",))
    tasks = (needy,) + tasks[1:]
    # no script entry for the needy task: a backend call would blow up the run
    backend = scripted_backend()
    backend.script.pop(needy.id)
    records = run_suite(
        tasks, backend, load_templates(), passing_sandbox(), tmp_path, transcript_in(tmp_path),
        deps_dir=tmp_path / "deps",
    )
    by_id = {r.task_id: r for r in records}
    assert by_id[needy.id].final_status is FinalStatus.FAILED_ENVIRONMENT
    assert "demo-dep" in by_id[needy.id].error
    others = [r for r in records if r.task_id != needy.id]
    assert all(r.final_status is FinalStatus.SOLVED for r in others)


def test_resume_skips_finished_and_retries_environment(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")
    needy = dataclasses.replace(tasks[0], dependencies=("demo-dep",))
    tasks = (needy,) + tasks[1:]

    first_backend = scripted_backend()
    first_backend.script.pop(needy.id)
    run_suite(
        tasks,
        first_backend,
        load_templates(),
        passing_sandbox(),
        tmp_path,
        transcript_in(tmp_path),
        deps_dir=tmp_path / "deps",
    )

    # provide the jar, then resume: only the environment failure reruns
    deps = tmp_path / "deps"
    deps.mkdir()
    (deps / "demo-dep.jar").write_bytes(b"PK")
    target = SAMPLE_TARGETS[needy.id]
    retry_backend = MockBackend(
        script={needy.id: [java_response(f"    void {target}() {{ }}\n    void test() {{ }}")]}
    )
    sandbox = StubSandbox(by_target={target: [ok()]})
    records = run_suite(
        tasks,
        retry_backend,
        load_templates(),
        sandbox,
        tmp_path,
        transcript_in(tmp_path),
        deps_dir=deps,
        resume=True,
    )
    assert all(r.final_status is FinalStatus.SOLVED for r in records)
    assert [call[0] for call in sandbox.calls] == [target]


def test_resume_with_nothing_pending_reads_from_disk(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")
    first = run_suite(
        tasks, scripted_backend(), load_templates(), passing_sandbox(), tmp_path, transcript_in(tmp_path), workers=2
    )
    # an exhausted backend proves nothing is re-asked
    second = run_suite(
        tasks, MockBackend(script={}), load_templates(), StubSandbox(), tmp_path, transcript_in(tmp_path), resume=True
    )
    assert second == first


def test_resume_reruns_a_truncated_record(repo_root, tmp_path):
    """A record cut short, one with a field of the wrong type, or one that is no JSON object is re-run."""
    tasks = load_suite(repo_root / "tasks" / "sample")[:4]
    run_suite(tasks, scripted_backend(), load_templates(), passing_sandbox(), tmp_path, transcript_in(tmp_path))
    truncated, mistyped, listed, intact = tasks
    path = tmp_path / truncated.id / "record.json"
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
    mistyped_path = tmp_path / mistyped.id / "record.json"
    data = json.loads(mistyped_path.read_text(encoding="utf-8"))
    mistyped_path.write_text(json.dumps({**data, "wall_time_seconds": "x"}), encoding="utf-8")
    listed_path = tmp_path / listed.id / "record.json"
    listed_path.write_text(json.dumps([json.loads(listed_path.read_text(encoding="utf-8"))]), encoding="utf-8")

    rerun = (truncated, mistyped, listed)
    targets = [SAMPLE_TARGETS[task.id] for task in rerun]
    backend = MockBackend(
        script={task.id: [java_response(f"    void {target}() {{ }}")] for task, target in zip(rerun, targets)}
    )
    sandbox = StubSandbox(by_target={target: [ok()] for target in targets})
    records = run_suite(
        tasks, backend, load_templates(), sandbox, tmp_path, transcript_in(tmp_path), resume=True, workers=1
    )
    assert [call[0] for call in sandbox.calls] == targets
    assert all(r.final_status is FinalStatus.SOLVED for r in records)
    assert load_record(path) == records[0]
    assert load_record(mistyped_path) == records[1]
    assert load_record(listed_path) == records[2]
    assert load_record(tmp_path / intact.id / "record.json") == records[3]


def test_resume_reruns_a_record_of_another_task_or_suite(repo_root, tmp_path):
    tasks = load_suite(repo_root / "tasks" / "sample")[:3]
    run_suite(tasks, scripted_backend(), load_templates(), passing_sandbox(), tmp_path, transcript_in(tmp_path))
    renamed, moved, intact = tasks
    for task, key, value in ((renamed, "task_id", "some-other-task"), (moved, "task_suite", "old-suite")):
        path = tmp_path / task.id / "record.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**data, key: value}), encoding="utf-8")

    targets = [SAMPLE_TARGETS[task.id] for task in (renamed, moved)]
    rerun = zip((renamed, moved), targets)
    replies = {task.id: [java_response(f"    void {target}() {{ }}")] for task, target in rerun}
    sandbox = StubSandbox(by_target={target: [ok()] for target in targets})
    records = run_suite(
        tasks, MockBackend(script=replies), load_templates(), sandbox, tmp_path, transcript_in(tmp_path),
        resume=True, workers=1,
    )
    assert [call[0] for call in sandbox.calls] == targets
    assert [(r.task_id, r.task_suite) for r in records] == [(t.id, t.suite) for t in tasks]
    assert load_record(tmp_path / renamed.id / "record.json") == records[0]
    assert load_record(tmp_path / moved.id / "record.json") == records[1]


def test_resolved_dependency_lands_on_classpath(repo_root, tmp_path):
    needy = dataclasses.replace(load_suite(repo_root / "tasks" / "sample")[0], dependencies=("demo-dep",))
    deps = tmp_path / "deps"
    deps.mkdir()
    jar = deps / "demo-dep.jar"
    jar.write_bytes(b"PK")

    captured = {}

    class CapturingSandbox(StubSandbox):
        def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
            captured[target_name] = classpath
            return super().evaluate(unit, target_name, all_ordinals, workdir, classpath)

    target = SAMPLE_TARGETS[needy.id]
    sandbox = CapturingSandbox(by_target={target: [ok()]})
    run_suite(
        (needy,),
        scripted_backend(),
        load_templates(),
        sandbox,
        tmp_path / "run",
        transcript_in(tmp_path / "run"),
        deps_dir=deps,
    )
    assert captured[target] == [jar]


def test_rerun_whose_dependency_no_longer_resolves_leaves_no_attempts(repo_root, tmp_path):
    """A task run again without resume loses its earlier attempts also when its dependency is gone."""
    needy = dataclasses.replace(load_suite(repo_root / "tasks" / "sample")[0], dependencies=("demo-dep",))
    deps = tmp_path / "deps"
    deps.mkdir()
    (deps / "demo-dep.jar").write_bytes(b"PK")
    target = SAMPLE_TARGETS[needy.id]

    class WritingSandbox(StubSandbox):
        def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
            workdir.mkdir(parents=True)
            return super().evaluate(unit, target_name, all_ordinals, workdir, classpath)

    run_dir, task_dir = tmp_path / "run", tmp_path / "run" / needy.id
    first = run_suite(
        (needy,), scripted_backend(), load_templates(), WritingSandbox(by_target={target: [ok()]}), run_dir,
        transcript_in(run_dir), deps_dir=deps,
    )
    assert first[0].final_status is FinalStatus.SOLVED
    assert sorted(p.name for p in task_dir.iterdir()) == ["attempt-1", "record.json"]

    (deps / "demo-dep.jar").unlink()
    sandbox = StubSandbox()
    second = run_suite(
        (needy,), MockBackend(script={}), load_templates(), sandbox, run_dir, transcript_in(run_dir), deps_dir=deps
    )
    assert (second[0].final_status, second[0].error) == (
        FinalStatus.FAILED_ENVIRONMENT,
        "unresolved dependencies: demo-dep",
    )
    assert sorted(p.name for p in task_dir.iterdir()) == ["record.json"]
    assert load_record(task_dir / "record.json") == second[0]
    assert sandbox.calls == []
    assert len(read_transcript(run_dir / "transcript.jsonl")) == 1
