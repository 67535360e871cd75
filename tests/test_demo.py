"""The offline demo end to end, and its reports pinned byte for byte."""

from __future__ import annotations

import io
import json

import pytest

from apisynth.bench import RENDERERS, REPORT_SUFFIXES as SUFFIXES, aggregate, load_baseline
from apisynth.refine import load_record
from helpers import load_script


@pytest.fixture(scope="module")
def demo_run(repo_root, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("demo") / "mock-demo"
    assert load_script(repo_root, "run_mock_demo").main(run_dir) == 0
    return run_dir


@pytest.fixture(scope="module")
def demo_report(demo_run):
    return aggregate([load_record(p) for p in sorted(demo_run.glob("*/record.json"))])


def test_demo_final_statuses(demo_run):
    statuses = {
        p.parent.name: json.loads(p.read_text(encoding="utf-8"))["final_status"]
        for p in demo_run.glob("*/record.json")
    }
    assert statuses == {
        "collections-swap": "solved",
        "ellipse-area": "solved",
        "get-offset-for-line": "failed_same_error",
        "get-range": "solved",
        "palindrome-queue": "solved",
    }


def masked_transcript(run_dir):
    """The transcript's lines without the fields that time them."""
    lines = [json.loads(line) for line in (run_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines()]
    for line in lines:
        del line["timestamp"], line["latency_seconds"]
    return lines


def test_demo_transcript_is_the_same_every_run(demo_run, repo_root, tmp_path):
    """Line order and conversation ids do not depend on scheduling: two runs differ only in timings."""
    assert load_script(repo_root, "run_mock_demo").main(tmp_path / "mock-demo") == 0
    first = masked_transcript(demo_run)
    assert [line["task_id"] for line in first if line["turn"] == 0] == sorted({line["task_id"] for line in first})
    assert masked_transcript(tmp_path / "mock-demo") == first


@pytest.mark.parametrize("fmt", sorted(SUFFIXES))
def test_demo_writes_golden_reports(demo_run, repo_root, fmt):
    golden = repo_root / "tests" / "data" / f"golden_report.{SUFFIXES[fmt]}"
    assert (demo_run / f"report.{SUFFIXES[fmt]}").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("with_baseline", [False, True], ids=["plain", "baseline"])
@pytest.mark.parametrize("fmt", sorted(SUFFIXES))
def test_renderers_match_golden_bytes(demo_report, repo_root, fmt, with_baseline):
    baseline = load_baseline(repo_root / "data" / "frangel_baseline.json") if with_baseline else None
    name = "golden_report_baseline" if with_baseline else "golden_report"
    golden = repo_root / "tests" / "data" / f"{name}.{SUFFIXES[fmt]}"
    assert RENDERERS[fmt](demo_report, baseline).encode("utf-8") == golden.read_bytes()


def test_show_transcript_prints_rebuilt_conversations(demo_run, repo_root, capsys):
    show = load_script(repo_root, "show_transcript").show
    out = io.StringIO()
    assert show(demo_run, "get-range", out) == 0
    text = out.getvalue()
    assert text.startswith("=== task get-range, conversation ")
    assert ", 2 turn(s)\n--- system\n" in text
    assert text.count("--- system\n") == text.count("--- assistant (turn 1,") == 1
    assert "The implementation fails test cases 3, 4 and 5." in text
    assert text.index("return List.of();") < text.index("/* fixed */")

    assert show(demo_run) == 0
    assert capsys.readouterr().out.count("=== task ") == 5
    assert show(demo_run, "no-such-task") == 1
    assert "no exchange of task 'no-such-task'" in capsys.readouterr().err
