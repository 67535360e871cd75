#!/usr/bin/env python3
"""Print a run's model conversations, rebuilt from its transcript.

    python scripts/show_transcript.py RUN_DIR [TASK_ID]

A transcript line holds only the messages its request added to the
conversation, so one line alone no longer shows what the model was sent.
This reads RUN_DIR/transcript.jsonl through ``apisynth.llm.read_transcript``
and prints each conversation (or only TASK_ID's) in file order: every
message once, and each reply under its turn and latency.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TextIO

from apisynth.llm import TranscriptEntry, read_transcript

USAGE = "usage: show_transcript.py RUN_DIR [TASK_ID]"


def show(run_dir: Path, task_id: str | None = None, out: TextIO | None = None) -> int:
    out = out or sys.stdout
    try:
        entries = read_transcript(run_dir / "transcript.jsonl")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    conversations: dict[tuple[str, int], list[TranscriptEntry]] = {}
    for entry in entries:
        if task_id is None or entry.task_id == task_id:
            conversations.setdefault((entry.task_id, entry.conversation), []).append(entry)
    if not conversations:
        print(f"error: no exchange of task {task_id!r} in {run_dir}", file=sys.stderr)
        return 1
    for (task, conversation), turns in conversations.items():
        out.write(f"=== task {task}, conversation {conversation}, {len(turns)} turn(s)\n")
        shown = 0
        for entry in turns:
            request = entry.exchange.request_messages
            for message in request[shown:]:
                out.write(f"--- {message.role}\n{message.content}\n")
            out.write(
                f"--- assistant (turn {entry.turn}, {entry.exchange.latency_seconds:.2f} s)\n"
                f"{entry.exchange.response_text}\n"
            )
            shown = len(request) + 1
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(USAGE, file=sys.stderr)
        return 2
    return show(Path(argv[0]), argv[1] if len(argv) == 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
