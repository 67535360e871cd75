#!/usr/bin/env python3
"""Offline end-to-end demo: scripted model, stubbed execution, full report.

Exercises the whole pipeline (prompt building, mock backend, code extraction,
refinement loop, aggregation, report rendering) without a JDK or an API key.
The only stubbed piece is the compile-and-run step.
"""

from __future__ import annotations

import shutil
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from apisynth.bench import aggregate, render_markdown, run_suite, write_reports
from apisynth.extractor import SourceUnit
from apisynth.llm import MockBackend, TranscriptWriter
from apisynth.prompting import load_templates
from apisynth.tasks import load_suite
from apisynth.verdict import AttemptOutcome, OutcomeKind

REPO = Path(__file__).resolve().parent.parent
RUN_DIR = REPO / "runs" / "mock-demo"


@dataclass
class ScriptedSandbox:
    """Stand-in for the javac/java sandbox: replays outcomes per target method."""

    outcomes: dict[str, list[AttemptOutcome]]
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def evaluate(self, unit: SourceUnit, target_name, all_ordinals, workdir, classpath=None):
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / f"{unit.public_class_name}.java").write_text(unit.source_text, encoding="utf-8")
        with self._lock:
            queue = self.outcomes[target_name]
            return queue.pop(0) if len(queue) > 1 else queue[0]


def java_reply(class_name: str, body: str) -> str:
    return f"Here is the implementation:\n\n```java\npublic class {class_name} {{\n{body}\n}}\n```\n"


def main(run_dir: Path = RUN_DIR) -> int:
    tasks = load_suite(REPO / "tasks" / "sample")

    # One canned reply per expected model call; keyed by task id.
    script = {
        "collections-swap": [java_reply("SwapUtil", "    void swap(List<String> list, int i, int j) { java.util.Collections.swap(list, i, j); }")],
        "ellipse-area": [java_reply("EllipseMath", "    double ellipseArea(Ellipse2D e) { return Math.PI * e.getWidth() * e.getHeight() / 4; }")],
        "get-offset-for-line": [
            java_reply("OffsetFinder", "    int getOffsetForLine(JTextArea textArea, int line) { return line; }"),
            java_reply("OffsetFinder", "    int getOffsetForLine(JTextArea textArea, int line) { return line * 4; }"),
        ],
        "get-range": [
            java_reply("RangeBuilder", "    List<Integer> GetRange(int start, int end) { return List.of(); }"),
            java_reply("RangeBuilder", "    List<Integer> GetRange(int start, int end) { /* fixed */ return build(start, end); }"),
        ],
        "palindrome-queue": [
            java_reply("PalindromeChecker", "    boolean isPalindrome(Queue<Character> queue) { return missing() }"),
            java_reply("PalindromeChecker", "    boolean isPalindrome(Queue<Character> queue) { return true; }"),
        ],
    }

    # Scripted verdicts, keyed by target method name. get-offset-for-line hits
    # the same runtime error twice, showing the same-error cutoff.
    sandbox = ScriptedSandbox(
        {
            "swap": [AttemptOutcome(OutcomeKind.PASS)],
            "ellipseArea": [AttemptOutcome(OutcomeKind.PASS)],
            "getOffsetForLine": [
                AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail="Exception in thread \"main\" java.lang.StringIndexOutOfBoundsException"),
                AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail="Exception in thread \"main\" java.lang.StringIndexOutOfBoundsException"),
            ],
            "GetRange": [
                AttemptOutcome(OutcomeKind.FAILING_TESTS, failing_ordinals=frozenset({3, 4, 5})),
                AttemptOutcome(OutcomeKind.PASS),
            ],
            "isPalindrome": [
                AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail="error: ';' expected"),
                AttemptOutcome(OutcomeKind.PASS),
            ],
        }
    )

    if run_dir.exists():
        shutil.rmtree(run_dir)
    records = run_suite(
        tasks,
        MockBackend(script=script),
        load_templates(),
        sandbox,
        run_dir,
        max_followups=3,
        workers=2,
        transcript=TranscriptWriter(run_dir / "transcript.jsonl", "mock"),
    )
    report = aggregate(records)
    write_reports(run_dir, report)

    for record in records:
        print(f"{record.task_id}: {record.final_status.value} "
              f"({len(record.attempts)} attempt(s), {record.followups_used} follow-up(s))")
    print()
    sys.stdout.write(render_markdown(report))
    print(f"\nartifacts under {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
