#!/usr/bin/env python3
"""Print a run's model conversations from its transcript.

    python scripts/show_transcript.py RUN_DIR [TASK_ID]

Reads RUN_DIR/transcript.jsonl through ``apisynth.llm.read_transcript`` and
prints each conversation (or only TASK_ID's) in file order. A line holds only
the messages its request added, so printing each line's new messages, then
its reply under its turn and latency, shows every message once.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TextIO

from apisynth.llm import TranscriptLine, read_transcript

USAGE = "usage: show_transcript.py RUN_DIR [TASK_ID]"


def show(run_dir: Path, task_id: str | None = None, out: TextIO | None = None) -> int:
    out = out or sys.stdout
    try:
        entries = read_transcript(run_dir / "transcript.jsonl")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    conversations: dict[tuple[str, int], list[TranscriptLine]] = {}
    for line, _ in entries:
        if task_id is None or line.task_id == task_id:
            conversations.setdefault((line.task_id, line.conversation), []).append(line)
    if not conversations:
        print(f"error: no exchange of task {task_id!r} in {run_dir}", file=sys.stderr)
        return 1
    for (task, conversation), lines in conversations.items():
        out.write(f"=== task {task}, conversation {conversation}, {len(lines)} turn(s)\n")
        for line in lines:
            for message in line.new_messages:
                out.write(f"--- {message.role}\n{message.content}\n")
            out.write(f"--- assistant (turn {line.turn}, {line.latency_seconds:.2f} s)\n{line.response_text}\n")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(USAGE, file=sys.stderr)
        return 2
    return show(Path(argv[0]), argv[1] if len(argv) == 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
