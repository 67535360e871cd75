"""The synthesis loop: prompt, extract, evaluate, follow up on errors."""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol

from .extractor import ExtractionError, SourceUnit, extract_source_unit
from .llm import BackendError, ChatBackend, TranscriptWriter
from .prompting import Message, PromptTemplateSet, build_followup, build_initial_conversation
from .records import from_json_dict, read_text, save_json
from .sandbox import ToolchainError
from .tasks import SynthesisTask, resolve_dependencies
from .verdict import AttemptOutcome, OutcomeKind

DEFAULT_MAX_FOLLOWUPS = 3


class FinalStatus(str, Enum):
    SOLVED = "solved"
    FAILED_BUDGET = "failed_budget"
    FAILED_SAME_ERROR = "failed_same_error"
    FAILED_EXTRACTION = "failed_extraction"
    FAILED_ENVIRONMENT = "failed_environment"


@dataclass(frozen=True)
class AttemptRecord:
    index: int
    outcome: AttemptOutcome
    followup_sent: str | None = None


@dataclass(frozen=True)
class RunRecord:
    """One task's run as record.json stores it; the follow-up count and the
    first-attempt pass are read off the attempts, not stored."""

    task_id: str
    task_suite: str
    final_status: FinalStatus
    wall_time_seconds: float
    error: str | None = None
    attempts: tuple[AttemptRecord, ...] = ()

    @property
    def followups_used(self) -> int:
        return sum(1 for a in self.attempts if a.followup_sent is not None)

    @property
    def solved_without_followups(self) -> bool:
        return bool(self.attempts) and self.attempts[0].outcome.kind is OutcomeKind.PASS


class SandboxLike(Protocol):
    def evaluate(
        self,
        unit: SourceUnit,
        target_name: str,
        all_ordinals: tuple[int, ...],
        workdir: Path,
        classpath: list[Path] | None = None,
    ) -> AttemptOutcome: ...


def save_record(record: RunRecord, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    save_json(record, path)


def load_record(path: str | Path) -> RunRecord:
    return from_json_dict(RunRecord, json.loads(read_text(path)))


def synthesize(
    task: SynthesisTask,
    backend: ChatBackend,
    templates: PromptTemplateSet,
    sandbox: SandboxLike,
    task_dir: Path,
    transcript: TranscriptWriter,
    deps_dir: Path | None = None,
    max_followups: int = DEFAULT_MAX_FOLLOWUPS,
) -> RunRecord:
    """Run the full loop for one task and persist its record under task_dir.

    The conversation is continuous: each failed attempt appends the model's
    reply and one error-specific follow-up. The loop stops on a pass, on two
    consecutive attempts with the same error fingerprint, on an exhausted
    follow-up budget, or on an environment fault: a backend error, a
    toolchain error, or a dependency that does not resolve under deps_dir,
    which ends the task before the first model call. A stop on unusable
    model output, which counts as a compile error until then, is an
    extraction failure. The record and attempt directories that an earlier
    run left in task_dir are removed first.

    Each reply goes to the transcript before its candidate is judged. The
    first attempt starts a new conversation there with the whole request;
    each later attempt is the next turn and adds only its follow-up.
    """
    start = time.monotonic()
    (task_dir / "record.json").unlink(missing_ok=True)
    for stale in task_dir.glob("attempt-*"):
        if stale.is_dir():
            shutil.rmtree(stale)
    conversation = build_initial_conversation(task, templates)
    ordinals = tuple(t.ordinal for t in task.test_cases)
    param_count = len(task.signature.parameters)
    attempts: list[AttemptRecord] = []
    final_status: FinalStatus | None = None
    error: str | None = None
    conversation_id: int | None = None
    classpath, missing = resolve_dependencies(task, deps_dir)
    if missing:
        final_status = FinalStatus.FAILED_ENVIRONMENT
        error = "unresolved dependencies: " + ", ".join(missing)

    try:
        while final_status is None:
            index = len(attempts) + 1
            exchange = backend.complete(conversation, task.id)
            new_messages = conversation if index == 1 else conversation[-1:]
            conversation_id = transcript.append(task.id, new_messages, exchange, conversation_id, index - 1)
            try:
                unit = extract_source_unit(exchange.response_text, task.signature.name, param_count)
            except ExtractionError as exc:
                outcome = AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail=str(exc), extraction_failed=True)
            else:
                outcome = sandbox.evaluate(
                    unit,
                    task.signature.name,
                    ordinals,
                    task_dir / f"attempt-{index}",
                    classpath,
                )

            previous = attempts[-1].outcome.fingerprint if attempts else None
            if outcome.kind is OutcomeKind.PASS:
                final_status = FinalStatus.SOLVED
            elif outcome.fingerprint == previous:
                final_status = FinalStatus.FAILED_SAME_ERROR
            elif len(attempts) >= max_followups:  # each earlier attempt sent a follow-up
                final_status = FinalStatus.FAILED_BUDGET
            if final_status is not None and outcome.extraction_failed:
                final_status = FinalStatus.FAILED_EXTRACTION
            followup = build_followup(outcome) if final_status is None else None
            attempts.append(AttemptRecord(index, outcome, followup_sent=followup))
            if followup is not None:
                conversation = list(conversation) + [
                    Message("assistant", exchange.response_text),
                    Message("user", followup),
                ]
    except (BackendError, ToolchainError) as exc:
        final_status = FinalStatus.FAILED_ENVIRONMENT
        error = str(exc)

    record = RunRecord(
        task_id=task.id,
        task_suite=task.suite,
        attempts=tuple(attempts),
        final_status=final_status,
        wall_time_seconds=time.monotonic() - start,
        error=error,
    )
    save_record(record, task_dir / "record.json")
    return record
