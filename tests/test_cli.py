from __future__ import annotations

import dataclasses
import json
import os

import pytest

import apisynth.cli as cli
from apisynth import sandbox as sandbox_module
from apisynth.llm import read_transcript
from apisynth.refine import FinalStatus, load_record
from helpers import StubSandbox, compile_error, failing, java_response, ok, runtime_error


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("APISYNTH_"):
            monkeypatch.delenv(key)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)


@pytest.fixture
def sample_task(repo_root):
    return str(repo_root / "tasks" / "sample" / "ellipse-area.json")


@pytest.fixture
def sample_suite(repo_root):
    return str(repo_root / "tasks" / "sample")


def write_script(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def stub_sandbox_factory(monkeypatch, sandbox):
    calls = []

    def factory(**settings):
        calls.append(settings)
        return sandbox

    monkeypatch.setattr(cli, "make_sandbox", factory)
    return calls


# --- synth ------------------------------------------------------------------


def test_dry_run_prints_golden_prompt(sample_task, golden_prompt, capsys):
    rc = cli.main(["synth", sample_task, "--dry-run"])
    assert rc == 0
    assert capsys.readouterr().out == golden_prompt


def test_dry_run_needs_no_credentials_or_toolchain(sample_task, monkeypatch, capsys):
    monkeypatch.setenv("PATH", "/nonexistent")
    rc = cli.main(["synth", sample_task, "--dry-run"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("<Role>")


def test_synth_solved(sample_task, tmp_path, monkeypatch, capsys):
    script = write_script(tmp_path / "script.json", [java_response("    void f() { }")])
    stub_sandbox_factory(monkeypatch, StubSandbox(outcomes=[ok()]))
    rc = cli.main(
        [
            "synth",
            sample_task,
            "--backend",
            "mock",
            "--mock-script",
            script,
            "--out",
            str(tmp_path / "runs"),
            "--run-id",
            "t1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "solved in 1 attempt" in out
    assert (tmp_path / "runs" / "t1" / "transcript.jsonl").is_file()
    assert (tmp_path / "runs" / "t1" / "ellipse-area" / "record.json").is_file()


def test_synth_exhausted_budget_exits_one(sample_task, tmp_path, monkeypatch, capsys):
    responses = [java_response("    void f() { }")] * 4
    script = write_script(tmp_path / "script.json", responses)
    sandbox = StubSandbox(outcomes=[failing(1), failing(2), runtime_error(), compile_error()])
    stub_sandbox_factory(monkeypatch, sandbox)
    rc = cli.main(
        [
            "synth",
            sample_task,
            "--backend",
            "mock",
            "--mock-script",
            script,
            "--out",
            str(tmp_path / "runs"),
            "--run-id",
            "t1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "not solved: failed_budget" in out
    assert "attempt 1: failing_tests (test case 1)" in out
    assert "attempt 4: compile_error" in out


def test_synth_missing_credential_names_variable(sample_task, tmp_path, capsys):
    rc = cli.main(["synth", sample_task, "--out", str(tmp_path / "runs"), "--run-id", "t1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "OPENAI_API_KEY" in err


def test_synth_custom_credential_variable(sample_task, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_CREDENTIAL_ENV", "DEMO_KEY")
    rc = cli.main(["synth", sample_task, "--out", str(tmp_path / "runs"), "--run-id", "t1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "DEMO_KEY" in err
    assert "OPENAI_API_KEY" not in err


def test_synth_missing_toolchain_exits_two(sample_task, tmp_path, monkeypatch, capsys):
    empty = tmp_path / "emptybin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.delenv("JAVA_HOME", raising=False)
    script = write_script(tmp_path / "script.json", [java_response("    void f() { }")])
    rc = cli.main(
        [
            "synth",
            sample_task,
            "--backend",
            "mock",
            "--mock-script",
            script,
            "--out",
            str(tmp_path / "runs"),
            "--run-id",
            "t1",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "JAVA_HOME" in err


def test_mock_backend_requires_script(sample_task, tmp_path, capsys):
    rc = cli.main(
        ["synth", sample_task, "--backend", "mock", "--out", str(tmp_path / "runs"), "--run-id", "t1"]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "mock" in err


def test_unresolved_dependency_exits_two(tmp_path, repo_root, monkeypatch, capsys):
    """The backend is built first, as bench builds it; the task then ends as an environment failure."""
    path = tmp_path / "task.json"
    path.write_text((repo_root / "tasks" / "extra" / "fastjson-read.json").read_text())
    out = ["--out", str(tmp_path / "runs"), "--run-id", "t1"]
    rc = cli.main(["synth", str(path), *out])
    assert rc == 2
    assert "OPENAI_API_KEY" in capsys.readouterr().err

    stub_sandbox_factory(monkeypatch, StubSandbox())
    rc = cli.main(["synth", str(path), "--backend", "mock", "--mock-script",
                   write_script(tmp_path / "script.json", []), *out])
    assert rc == 2
    assert capsys.readouterr() == ("not solved: failed_environment (unresolved dependencies: fastjson)\n", "")
    record = load_record(tmp_path / "runs" / "t1" / "fastjson-read" / "record.json")
    assert (record.final_status, record.error, record.attempts) == (
        FinalStatus.FAILED_ENVIRONMENT,
        "unresolved dependencies: fastjson",
        (),
    )


def test_synth_and_bench_record_an_unresolved_dependency_alike(tmp_path, repo_root, monkeypatch, capsys):
    """Neither command asks the model or runs a candidate; both write the same record and exit 2."""
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "t.json").write_text((repo_root / "tasks" / "extra" / "fastjson-read.json").read_text())
    sandbox = StubSandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    script = write_script(tmp_path / "script.json", [])
    records = {}
    for command, target in (("synth", suite / "t.json"), ("bench", suite)):
        rc = cli.main([command, str(target), "--backend", "mock", "--mock-script", script,
                       "--out", str(tmp_path / "runs"), "--run-id", command])
        assert rc == 2, command
        run_dir = tmp_path / "runs" / command
        records[command] = load_record(run_dir / "fastjson-read" / "record.json")
        assert not (run_dir / "transcript.jsonl").exists(), command
    assert capsys.readouterr().err == "error: no task reached a verdict\n"
    synth, bench = records["synth"], records["bench"]
    assert (synth.final_status, synth.attempts) == (FinalStatus.FAILED_ENVIRONMENT, ())
    assert synth == dataclasses.replace(bench, wall_time_seconds=synth.wall_time_seconds)
    assert sandbox.calls == []


# --- option precedence ------------------------------------------------------


def test_env_value_used_when_flag_absent(sample_task, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_TEMPERATURE", "9")
    rc = cli.main(["synth", sample_task, "--dry-run"])
    assert rc == 2
    assert "temperature" in capsys.readouterr().err


def test_flag_beats_env(sample_task, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_TEMPERATURE", "9")
    rc = cli.main(["synth", sample_task, "--dry-run", "--temperature", "0.5"])
    assert rc == 0
    capsys.readouterr()


def test_unparseable_env_value_is_reported(sample_task, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_TEMPERATURE", "hot")
    rc = cli.main(["synth", sample_task, "--dry-run"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "APISYNTH_TEMPERATURE" in err


@pytest.mark.parametrize(
    "extra, env, message",
    [
        (["--workers", "0"], {}, "workers must be >= 1, got 0"),
        ([], {"APISYNTH_WORKERS": "0"}, "workers must be >= 1, got 0"),
        (["--max-followups", "-1"], {}, "max-followups must be >= 0, got -1"),
        (["--compile-timeout", "0"], {}, "timeouts must be positive"),
        (["--run-timeout", "0"], {}, "timeouts must be positive"),
        (["--run-id", "a/b"], {}, "run id must be a non-empty path segment, got 'a/b'"),
        (["--run-id", ".."], {}, "run id must be a non-empty path segment, got '..'"),
        (["--run-timeout", "nan"], {}, "timeouts must be positive"),
        (["--run-timeout", "inf"], {}, "timeouts must be finite"),
        ([], {"APISYNTH_COMPILE_TIMEOUT": "1e309"}, "timeouts must be finite"),
        pytest.param(["--run-id", "r" * 256], {}, f"run id must be a non-empty path segment, got {'r' * 256!r}",
                     id="run-id-too-long"),
    ],
)
def test_bench_rejects_bad_settings(
    sample_suite, tmp_path, monkeypatch, capsys, extra, env, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    sandbox = StubSandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    argv = ["bench", sample_suite, "--backend", "mock", "--mock-script",
            bench_script(tmp_path), "--out", str(tmp_path / "runs"), *extra]
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sandbox.calls == []
    assert not (tmp_path / "runs").exists()


def test_synth_structural_violations_exit_two(tmp_path, repo_root, monkeypatch, capsys):
    task = json.loads((repo_root / "tasks" / "sample" / "ellipse-area.json").read_text())
    task["tests"][1]["ordinal"] = 1
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(task))
    sandbox = StubSandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    common = ["--backend", "mock", "--mock-script", write_script(tmp_path / "script.json", []),
              "--out", str(tmp_path / "runs")]
    rc = cli.main(["synth", str(path), *common])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: task 'ellipse-area': duplicate test case ordinal 1; "
        "test case ordinals must be 1..N consecutive, got [1, 3, 4]\n"
    )
    assert cli.main(["bench", str(path), *common]) == 2
    assert capsys.readouterr().err == err
    assert sandbox.calls == []


def test_synth_backend_failure_exits_two(sample_task, tmp_path, monkeypatch, capsys):
    stub_sandbox_factory(monkeypatch, StubSandbox())
    rc = cli.main(["synth", sample_task, "--backend", "mock", "--mock-script",
                   write_script(tmp_path / "script.json", []), "--out", str(tmp_path / "runs"),
                   "--run-id", "t1"])
    assert rc == 2
    assert capsys.readouterr().out == (
        "not solved: failed_environment (mock script exhausted after 0 responses)\n"
    )


def task_with_id(repo_root, tmp_path, task_id):
    task = json.loads((repo_root / "tasks" / "sample" / "ellipse-area.json").read_text())
    task["id"] = task_id
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "t.json").write_text(json.dumps(task))
    return suite / "t.json"


@pytest.mark.parametrize("task_id", ["../../escaped", "..", ".", "", "a/b", "a\0b"])
def test_task_id_must_be_one_path_segment(repo_root, tmp_path, task_id, capsys):
    task_file = task_with_id(repo_root, tmp_path, task_id)
    rc = cli.main(["validate", str(task_file)])
    assert rc == 1
    assert capsys.readouterr().out == f"{task_id}: task id {task_id!r} is not a single path segment\n"


def test_task_id_that_escapes_the_run_dir_is_refused(repo_root, tmp_path, monkeypatch, capsys):
    task_file = task_with_id(repo_root, tmp_path, "../../escaped")
    sandbox = StubSandbox(outcomes=[ok()])
    stub_sandbox_factory(monkeypatch, sandbox)
    script = write_script(tmp_path / "script.json", [java_response("    void f() { }")])
    common = ["--backend", "mock", "--mock-script", script, "--out", str(tmp_path / "runs"),
              "--run-id", "r1"]

    rc = cli.main(["synth", str(task_file), *common])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {task_file}: task '../../escaped': task id '../../escaped' is not a single path segment\n"
    rc = cli.main(["bench", str(task_file.parent), *common])
    assert rc == 2
    assert capsys.readouterr().err == err
    assert sandbox.calls == []
    assert not (tmp_path / "escaped").exists()


def test_an_id_too_long_for_a_file_name_is_refused(repo_root, tmp_path, monkeypatch, capsys):
    """validate lists it; synth and bench refuse the file before any model call."""
    task_id = "t" * 300
    task_file = task_with_id(repo_root, tmp_path, task_id)
    violation = f"task id {task_id!r} is not a single path segment"
    assert cli.main(["validate", str(task_file)]) == 1
    assert capsys.readouterr().out == f"{task_id}: {violation}\n"
    sandbox = StubSandbox(outcomes=[ok()])
    stub_sandbox_factory(monkeypatch, sandbox)
    script = write_script(tmp_path / "script.json", [java_response("    void f() { }")])
    common = ["--backend", "mock", "--mock-script", script, "--out", str(tmp_path / "runs")]
    for command in (["synth", str(task_file)], ["bench", str(task_file.parent)]):
        assert cli.main([*command, *common]) == 2
        assert capsys.readouterr() == ("", f"error: {task_file}: task '{task_id}': {violation}\n")
    assert sandbox.calls == []
    assert not (tmp_path / "runs").exists()


def test_a_dependency_id_too_long_for_its_archive_name_is_listed(repo_root, tmp_path, capsys):
    """``<id>.jar`` must fit in one file name; validate --deps lists the id rather than looking it up."""
    task = json.loads((repo_root / "tasks" / "sample" / "ellipse-area.json").read_text())
    dep = "d" * 253
    task["deps"] = [dep]
    (tmp_path / "t.json").write_text(json.dumps(task))
    (tmp_path / "deps").mkdir()
    rc = cli.main(["validate", str(tmp_path / "t.json"), "--deps", str(tmp_path / "deps")])
    assert rc == 1
    assert capsys.readouterr().out == (
        f"ellipse-area: dependency id {dep!r} is not a single path segment\n"
        f"ellipse-area: dependency '{dep}' does not resolve under {tmp_path / 'deps'}\n"
    )


class WritingSandbox(StubSandbox):
    """A stub that creates each attempt's workdir, as the real sandbox does."""

    def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
        workdir.mkdir(parents=True, exist_ok=True)
        return super().evaluate(unit, target_name, all_ordinals, workdir, classpath)


def test_rerun_task_leaves_no_stale_attempts(repo_root, tmp_path, monkeypatch, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "t.json").write_text((repo_root / "tasks" / "sample" / "ellipse-area.json").read_text())
    task_dir = tmp_path / "runs" / "r1" / "ellipse-area"
    reply = java_response("    void f() { }")

    def bench(outcomes, *extra):
        stub_sandbox_factory(monkeypatch, WritingSandbox(outcomes=outcomes))
        script = write_script(tmp_path / "script.json", {"ellipse-area": [reply] * len(outcomes)})
        return cli.main(["bench", str(suite), "--backend", "mock", "--mock-script", script,
                         "--out", str(tmp_path / "runs"), "--run-id", "r1", *extra])

    assert bench([failing(1), failing(2)], "--max-followups", "1") == 1
    assert sorted(p.name for p in task_dir.iterdir()) == ["attempt-1", "attempt-2", "record.json"]
    (task_dir / "record.json").unlink()
    (task_dir / "notes.txt").write_text("kept")

    assert bench([ok()], "--resume") == 0
    assert "| Total | 1 | 1 (100.0%) | 1 (100.0%)" in capsys.readouterr().out
    assert sorted(p.name for p in task_dir.iterdir()) == ["attempt-1", "notes.txt", "record.json"]
    assert len(json.loads((task_dir / "record.json").read_text())["attempts"]) == 1


def run_budget(sample_task, tmp_path, monkeypatch, *extra):
    script = write_script(tmp_path / "script.json", [java_response("    void f() { }")] * 2)
    stub_sandbox_factory(monkeypatch, StubSandbox(outcomes=[failing(1), ok()]))
    out = tmp_path / "runs"
    rc = cli.main(["synth", sample_task, "--backend", "mock", "--mock-script", script,
                   "--out", str(out), "--run-id", "t1", *extra])
    return rc, json.loads((out / "t1" / "ellipse-area" / "record.json").read_text())


def test_max_followups_from_env(sample_task, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_MAX_FOLLOWUPS", "0")
    rc, record = run_budget(sample_task, tmp_path, monkeypatch)
    assert rc == 1
    assert record["final_status"] == "failed_budget"
    assert len(record["attempts"]) == 1
    assert "not solved: failed_budget" in capsys.readouterr().out


def test_max_followups_flag_beats_env(sample_task, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_MAX_FOLLOWUPS", "0")
    rc, record = run_budget(sample_task, tmp_path, monkeypatch, "--max-followups", "1")
    assert rc == 0
    assert record["final_status"] == "solved"
    assert len(record["attempts"]) == 2
    assert "solved in 2 attempts" in capsys.readouterr().out


# --- validate ---------------------------------------------------------------


def test_validate_sample_suite(sample_suite, capsys):
    rc = cli.main(["validate", sample_suite])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [
        "collections-swap: ok",
        "ellipse-area: ok",
        "get-offset-for-line: ok",
        "get-range: ok",
        "palindrome-queue: ok",
    ]


def test_validate_reports_structural_violations(tmp_path, capsys):
    bad = {
        "id": "bad-task",
        "suite": "s",
        "signature": {"name": "f", "return_type": "int", "params": []},
        "tests": [
            {"ordinal": 1, "inputs": ["1"], "expected": "1"},
            {"ordinal": 1, "inputs": ["2"], "expected": "2"},
        ],
    }
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    rc = cli.main(["validate", str(tmp_path / "bad.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("bad-task: ")
    assert "ordinal" in out


def test_validate_flags_duplicate_ids(tmp_path, repo_root, capsys):
    source = (repo_root / "tasks" / "sample" / "ellipse-area.json").read_text()
    (tmp_path / "a.json").write_text(source)
    (tmp_path / "b.json").write_text(source)
    rc = cli.main(["validate", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "duplicate task id" in out


def test_validate_reports_every_file_past_one_that_does_not_parse(tmp_path, repo_root, capsys):
    """A file that does not parse is reported and the rest still checked; the exit is 2, over a broken rule's 1."""
    sample = repo_root / "tasks" / "sample"
    (tmp_path / "a.json").write_text((sample / "get-range.json").read_text())
    (tmp_path / "b.json").write_text('{"id": 1}')
    broken = json.loads((sample / "ellipse-area.json").read_text())
    broken["tests"][0]["ordinal"] = broken["tests"][1]["ordinal"]
    (tmp_path / "c.json").write_text(json.dumps(broken))
    rc = cli.main(["validate", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {tmp_path / 'b.json'}: id: expected a string\n"
    lines = captured.out.splitlines()
    assert lines[0] == "get-range: ok"
    assert lines[1].startswith("ellipse-area: ") and "ordinal" in lines[1]


def test_validate_unresolved_dependency(tmp_path, repo_root, capsys):
    source = (repo_root / "tasks" / "extra" / "fastjson-read.json").read_text()
    (tmp_path / "t.json").write_text(source)
    rc = cli.main(["validate", str(tmp_path / "t.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fastjson" in out


def test_validate_lists_every_rule_a_file_breaks(tmp_path, capsys):
    """A test case's shape is one rule among the others: validate lists them all and exits 1; bench refuses the file."""
    bad = {
        "id": "bad-task",
        "suite": "s",
        "signature": {"name": "2f", "return_type": "int", "params": [
            {"name": "a", "type": "int"}, {"name": "a", "type": "long"}
        ]},
        "tests": [
            {"ordinal": 1, "inputs": ["1"]},
            {"ordinal": 3, "inputs": ["2"], "expected": "2"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    violations = [
        "method name '2f' is not a valid identifier",
        "duplicate parameter name 'a'",
        "tests[0]: needs 'inputs' and a string 'expected', or a 'script'",
        "test case ordinals must be 1..N consecutive, got [1, 3]",
    ]
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("".join(f"bad-task: {v}\n" for v in violations), "")
    assert cli.main(["bench", str(path), "--backend", "mock", "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: task 'bad-task': " + "; ".join(violations) + "\n")
    assert not (tmp_path / "runs").exists()


def test_validate_empty_directory(tmp_path, capsys):
    rc = cli.main(["validate", str(tmp_path)])
    assert rc == 2
    assert "no task files" in capsys.readouterr().err


def test_validate_missing_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = cli.main(["validate", str(missing)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {missing}: no such file or directory\n"


def test_synth_missing_task_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = cli.main(["synth", str(missing), "--dry-run"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read task file")


def test_bench_directory_without_task_files(tmp_path, repo_root, capsys):
    # like `bench tasks`: the task files sit one level down
    nested = tmp_path / "suites" / "sample"
    nested.mkdir(parents=True)
    (nested / "t.json").write_text((repo_root / "tasks" / "sample" / "get-range.json").read_text())
    out = tmp_path / "runs"
    rc = cli.main(["bench", str(tmp_path / "suites"), "--backend", "mock", "--mock-script",
                   write_script(tmp_path / "empty.json", {}), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'suites'}: no task files found\n"
    assert not out.exists()


def test_parse_error_names_file(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    rc = cli.main(["validate", str(tmp_path / "broken.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "broken.json" in err


NOT_UTF8 = b"\xff\xfe{\x00}\x00"  # "{}" in UTF-16 with its byte-order mark


def test_task_file_not_utf8_exits_two(tmp_path, capsys):
    task = tmp_path / "utf16.json"
    task.write_bytes(NOT_UTF8)
    rc = cli.main(["validate", str(task)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {task}: invalid JSON: 'utf-8' codec")


LONE = "\ud800"  # json.dumps writes it as the escape "\ud800", which decodes to no Unicode character


@pytest.mark.parametrize("field", ["id", "suite"])
def test_a_lone_surrogate_in_a_task_file_is_refused(field, repo_root, tmp_path, monkeypatch, capsys):
    """validate reports the file and checks the others; synth and bench stop before any model call."""
    sample = repo_root / "tasks" / "sample"
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.json").write_text((sample / "get-range.json").read_text())
    task = json.loads((sample / "ellipse-area.json").read_text())
    bad = suite / "b.json"
    bad.write_text(json.dumps({**task, field: f"bad{LONE}"}))
    paired = suite / "c.json"  # a surrogate pair decodes to one character and stays valid
    paired.write_text(json.dumps({**task, "id": "pair-\U0001F600"}))
    error = f"error: {bad}: invalid JSON: lone surrogate '\\ud800' is not Unicode text\n"

    rc = cli.main(["validate", str(suite)])
    assert rc == 2
    assert capsys.readouterr() == ("get-range: ok\npair-\U0001F600: ok\n", error)

    sandbox = StubSandbox(outcomes=[ok()])
    stub_sandbox_factory(monkeypatch, sandbox)
    script = write_script(tmp_path / "script.json", [java_response("    void ellipseArea() { }")])
    rc = cli.main(["synth", str(bad), "--backend", "mock", "--mock-script", script, "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert capsys.readouterr() == ("", error)
    rc = cli.main(bench_args(str(suite), tmp_path, script))
    assert rc == 2
    assert capsys.readouterr() == ("", error)
    assert sandbox.calls == []


def test_a_lone_surrogate_in_a_mock_script_is_refused(sample_task, sample_suite, tmp_path, monkeypatch, capsys):
    sandbox = all_pass_sandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    script = write_script(tmp_path / "script.json", {"ellipse-area": [java_response(f"    // {LONE}")]})
    error = f"error: {script}: cannot load mock script: lone surrogate '\\ud800' is not Unicode text\n"
    rc = cli.main(["synth", sample_task, "--backend", "mock", "--mock-script", script, "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert capsys.readouterr() == ("", error)
    rc = cli.main(bench_args(sample_suite, tmp_path, script))
    assert rc == 2
    assert capsys.readouterr() == ("", error)
    assert sandbox.calls == []


def test_baseline_not_utf8_exits_two(sample_suite, tmp_path, monkeypatch, capsys):
    sandbox = all_pass_sandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    baseline = tmp_path / "baseline.json"
    baseline.write_bytes(NOT_UTF8)
    rc = cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path), "--baseline", str(baseline)))
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {baseline}: cannot load baseline: 'utf-8' codec")
    assert sandbox.calls == []


def test_mock_script_not_utf8_exits_two(sample_task, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_bytes(NOT_UTF8)
    rc = cli.main(["synth", sample_task, "--backend", "mock", "--mock-script", str(script),
                   "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {script}: cannot load mock script: 'utf-8' codec")


def test_missing_prompt_directory_exits_two(sample_task, tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    rc = cli.main(["synth", sample_task, "--dry-run", "--prompts", str(missing)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {missing}: not a prompt directory\n")


def test_prompt_template_not_utf8_exits_two(sample_task, tmp_path, capsys):
    (tmp_path / "role.txt").write_bytes(NOT_UTF8)
    rc = cli.main(["synth", sample_task, "--dry-run", "--prompts", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / 'role.txt'}: cannot read prompt template: 'utf-8' codec")
    assert captured.err.count("\n") == 1


def test_prompt_directory_with_exemplars_exits_two(sample_suite, tmp_path, monkeypatch, capsys):
    """Examples are one file, examples.txt; an exemplars/ directory left from before is refused, not ignored."""
    prompts = tmp_path / "prompts"
    (prompts / "exemplars").mkdir(parents=True)
    sandbox = all_pass_sandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    rc = cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path), "--prompts", str(prompts)))
    assert rc == 2
    assert capsys.readouterr() == (
        "",
        f"error: {prompts}/exemplars/ is no longer read: write the examples as sent to {prompts}/examples.txt\n",
    )
    assert sandbox.calls == []


def test_empty_mock_response_exits_two_before_any_task(sample_task, sample_suite, tmp_path, monkeypatch, capsys):
    sandbox = all_pass_sandbox()
    stub_sandbox_factory(monkeypatch, sandbox)
    script = write_script(tmp_path / "script.json", [""])
    rc = cli.main(["synth", sample_task, "--backend", "mock", "--mock-script", script,
                   "--out", str(tmp_path / "runs"), "--run-id", "r1"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {script}: mock script entry [0] is an empty response\n"

    payload = {task_id: [java_response(f"    void {t}() {{ }}")] for task_id, t in TARGETS.items()}
    payload["ellipse-area"] = ""
    script = write_script(tmp_path / "script.json", payload)
    rc = cli.main(bench_args(sample_suite, tmp_path, script))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {script}: mock script entry 'ellipse-area'[0] is an empty response\n"
    assert sandbox.calls == []
    assert not list((tmp_path / "runs").glob("r1/*/record.json"))


# --- bench ------------------------------------------------------------------

TARGETS = {
    "collections-swap": "swap",
    "ellipse-area": "ellipseArea",
    "get-offset-for-line": "getOffsetForLine",
    "get-range": "GetRange",
    "palindrome-queue": "isPalindrome",
}


def bench_script(tmp_path, per_task=1):
    payload = {
        task_id: [java_response(f"    void {t}() {{ }}")] * per_task
        for task_id, t in TARGETS.items()
    }
    return write_script(tmp_path / "bench-script.json", payload)


def all_pass_sandbox():
    return StubSandbox(by_target={t: [ok()] for t in TARGETS.values()})


def bench_args(sample_suite, tmp_path, script, *extra):
    return [
        "bench",
        sample_suite,
        "--backend",
        "mock",
        "--mock-script",
        script,
        "--out",
        str(tmp_path / "runs"),
        "--run-id",
        "r1",
        "--workers",
        "2",
        *extra,
    ]


def test_bench_all_solved(sample_suite, tmp_path, monkeypatch, capsys):
    stub_sandbox_factory(monkeypatch, all_pass_sandbox())
    rc = cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path), "--format", "json"))
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["total"]["tasks"] == 5
    assert data["total"]["passed_with_followups"] == 5
    run_dir = tmp_path / "runs" / "r1"
    for name in ("report.md", "report.csv", "report.json", "transcript.jsonl"):
        assert (run_dir / name).is_file()
    assert json.loads((run_dir / "report.json").read_text()) == data


def test_bench_markdown_default_and_failure_exit(sample_suite, tmp_path, monkeypatch, capsys):
    sandbox = all_pass_sandbox()
    sandbox.by_target["GetRange"] = [failing(1), failing(1)]
    stub_sandbox_factory(monkeypatch, sandbox)
    rc = cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path, per_task=2)))
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("| Suite | Tasks |")
    assert "| Total | 5 |" in out


def test_bench_baseline_column(sample_suite, tmp_path, monkeypatch, repo_root, capsys):
    stub_sandbox_factory(monkeypatch, all_pass_sandbox())
    rc = cli.main(
        bench_args(
            sample_suite,
            tmp_path,
            bench_script(tmp_path),
            "--baseline",
            str(repo_root / "data" / "frangel_baseline.json"),
        )
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Baseline solved" in out
    assert "22 (88.0%)" in out


def test_bench_resume_reuses_records(sample_suite, tmp_path, monkeypatch, capsys):
    sandbox = all_pass_sandbox()
    sandbox.by_target["GetRange"] = [failing(1), failing(1)]
    stub_sandbox_factory(monkeypatch, sandbox)
    first_rc = cli.main(
        bench_args(sample_suite, tmp_path, bench_script(tmp_path, per_task=2), "--format", "json")
    )
    first_out = capsys.readouterr().out
    assert first_rc == 1

    # resume with an empty script: nothing may ask the backend again
    empty = write_script(tmp_path / "empty.json", {})
    stub_sandbox_factory(monkeypatch, StubSandbox())
    second_rc = cli.main(
        bench_args(sample_suite, tmp_path, empty, "--format", "json", "--resume")
    )
    second_out = capsys.readouterr().out
    assert second_rc == 1
    assert json.loads(second_out) == json.loads(first_out)


def test_bench_resume_reads_records_that_store_derived_counts(
    sample_suite, tmp_path, monkeypatch, capsys
):
    """Records in the older layout, which also stored followups_used,
    solved_without_followups and each attempt's fingerprint, resume without a
    model call or a JVM."""
    sandbox = all_pass_sandbox()
    sandbox.by_target["GetRange"] = [failing(1), failing(1)]
    sandbox.by_target["ellipseArea"] = [compile_error(), ok()]
    stub_sandbox_factory(monkeypatch, sandbox)
    assert cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path, per_task=2))) == 1
    capsys.readouterr()
    run_dir = tmp_path / "runs" / "r1"
    names = ("report.md", "report.csv", "report.json")
    reports = {name: (run_dir / name).read_bytes() for name in names}
    for name in reports:
        (run_dir / name).unlink()
    for path in run_dir.glob("*/record.json"):
        record = load_record(path)
        stored = {}
        for key, value in json.loads(path.read_text(encoding="utf-8")).items():
            stored[key] = value
            if key == "final_status":
                stored["followups_used"] = record.followups_used
                stored["solved_without_followups"] = record.solved_without_followups
        for attempt, loaded in zip(stored["attempts"], record.attempts):
            outcome = attempt["outcome"]
            attempt["outcome"] = {"kind": outcome.pop("kind"), "fingerprint": loaded.outcome.fingerprint}
            attempt["outcome"].update(outcome)
        path.write_text(json.dumps(stored, indent=2) + "\n", encoding="utf-8")
    older = (run_dir / "get-range" / "record.json").read_text(encoding="utf-8")
    assert '"followups_used": 1' in older
    assert '"kind": "failing_tests",\n        "fingerprint": "failing_tests:1",' in older

    started = []
    monkeypatch.setattr(sandbox_module.subprocess, "Popen", lambda *a, **k: started.append(a))
    stub_sandbox_factory(monkeypatch, StubSandbox())
    empty = write_script(tmp_path / "empty.json", {})
    assert cli.main(bench_args(sample_suite, tmp_path, empty, "--resume")) == 1
    assert started == []
    assert {name: (run_dir / name).read_bytes() for name in reports} == reports


def test_bench_resume_appends_a_new_conversation(sample_suite, tmp_path, monkeypatch, capsys):
    reply = java_response("    void GetRange() { }")
    sandbox = all_pass_sandbox()
    sandbox.by_target["GetRange"] = [failing(1)]
    stub_sandbox_factory(monkeypatch, sandbox)
    # get-range's script runs out before its follow-up: an environment failure
    assert cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path))) == 0
    capsys.readouterr()

    script = write_script(tmp_path / "retry.json", {"get-range": [reply, reply]})
    stub_sandbox_factory(monkeypatch, StubSandbox(by_target={"GetRange": [failing(1), ok()]}))
    assert cli.main(bench_args(sample_suite, tmp_path, script, "--resume")) == 0
    assert "| Total | 5 | 5 (100.0%) | 4 (80.0%) | 5 (100.0%) | 5 (100.0%) |" in capsys.readouterr().out

    conversations: dict[str, dict[int, list[int]]] = {}
    for line, _ in read_transcript(tmp_path / "runs" / "r1" / "transcript.jsonl"):
        turns = conversations.setdefault(line.task_id, {}).setdefault(line.conversation, [])
        turns.append(line.turn)
    rerun = conversations.pop("get-range")
    assert list(rerun.values()) == [[0], [0, 1]]  # the re-run is the last conversation
    assert sorted(conversations) == sorted(TARGETS.keys() - {"get-range"})
    assert all(list(c.values()) == [[0]] for c in conversations.values())


def test_bench_resume_picks_latest_run(sample_suite, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "runs"
    stub_sandbox_factory(monkeypatch, all_pass_sandbox())
    rc = cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path)))
    assert rc == 0
    capsys.readouterr()
    # an older run whose name sorts after the latest one
    older = out_dir / "zz-older"
    older.mkdir()
    latest_mtime = (out_dir / "r1").stat().st_mtime
    os.utime(older, (latest_mtime - 3600, latest_mtime - 3600))

    empty = write_script(tmp_path / "empty.json", {})
    stub_sandbox_factory(monkeypatch, StubSandbox())
    rc = cli.main(
        [
            "bench",
            sample_suite,
            "--backend",
            "mock",
            "--mock-script",
            empty,
            "--out",
            str(out_dir),
            "--resume",
        ]
    )
    assert rc == 0
    assert "| Total | 5 | 5 (100.0%)" in capsys.readouterr().out
    assert list(older.iterdir()) == []


def test_bench_resume_without_runs_is_an_error(sample_suite, tmp_path, capsys):
    rc = cli.main(
        [
            "bench",
            sample_suite,
            "--backend",
            "mock",
            "--mock-script",
            write_script(tmp_path / "empty.json", {}),
            "--out",
            str(tmp_path / "runs"),
            "--resume",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "resume" in err


def test_bench_without_verdicts_exits_two(sample_suite, tmp_path, monkeypatch, capsys):
    stub_sandbox_factory(monkeypatch, StubSandbox())
    empty = write_script(tmp_path / "empty.json", {})
    rc = cli.main(bench_args(sample_suite, tmp_path, empty, "--format", "json"))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: no task reached a verdict\n"
    assert json.loads(captured.out)["total"]["environment_failures"] == 5


def test_bench_unknown_format_from_env(sample_suite, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("APISYNTH_FORMAT", "xml")
    stub_sandbox_factory(monkeypatch, all_pass_sandbox())
    rc = cli.main(bench_args(sample_suite, tmp_path, bench_script(tmp_path)))
    err = capsys.readouterr().err
    assert rc == 2
    assert "xml" in err
