"""Build the structured conversations sent to the model."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .tasks import SynthesisTask, TestCase
from .verdict import AttemptOutcome, OutcomeKind

VALID_ROLES = ("system", "user", "assistant")
PACKAGED_PROMPTS = Path(__file__).with_name("prompts")

COMPILE_FOLLOWUP = (
    "The solution doesn't compile. Please fix the bug and make sure the "
    "implementation compiles, runs and can pass all test cases."
)
RUNTIME_FOLLOWUP = (
    "The solution throws run-time exceptions. Please fix the bug and make sure "
    "the implementation compiles, runs and can pass all test cases."
)
FAILING_FOLLOWUP_TEMPLATE = (
    "The implementation fails {which}. Please fix the bug and make sure the "
    "implementation compiles, runs and can pass all test cases."
)


class PromptError(Exception):
    pass


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in VALID_ROLES:
            raise PromptError(f"invalid message role {self.role!r}")
        if not self.content:
            raise PromptError("message content must be non-empty")


_STEP_RE = re.compile(r"^\s*Step (\d+) - ", re.MULTILINE)


@dataclass(frozen=True)
class PromptTemplateSet:
    role_text: str
    instruction_text: str
    examples: str
    task_frame: str
    output_directive: str

    def __post_init__(self) -> None:
        steps = [int(n) for n in _STEP_RE.findall(self.instruction_text)]
        if steps != list(range(1, 9)):
            raise PromptError(f"instruction text must contain Steps 1..8 in order, found {steps}")


def _indent(text: str, width: int) -> str:
    pad = " " * width
    return "\n".join(pad + line if line.strip() else line for line in text.split("\n"))


def _tag_block(tag: str, body: str) -> str:
    if not body:
        return f"<{tag}>\n</{tag}>"
    return f"<{tag}>\n{body}\n</{tag}>"


def render_test_cases(test_cases: Sequence[TestCase]) -> list[str]:
    """One ``<ordinal>. ...`` line per case; script text is kept verbatim."""
    lines = []
    for case in test_cases:
        if case.is_script:
            lines.append(f"{case.ordinal}. {case.script}")
        elif case.inputs:
            lines.append(f"{case.ordinal}. {', '.join(case.inputs)} -> {case.expected}")
        else:
            lines.append(f"{case.ordinal}. -> {case.expected}")
    return lines


def build_initial_conversation(
    task: SynthesisTask, templates: PromptTemplateSet
) -> list[Message]:
    """The two-message opening: persona, then instructions + examples + task."""
    system = Message("system", _tag_block("Role", _indent(templates.role_text, 4)))

    user_content = "\n".join(
        [
            _tag_block("Instruction", _indent(templates.instruction_text, 4)),
            _tag_block("examples", _indent(templates.examples, 4)),
            templates.task_frame,
            _tag_block("method", _indent(task.signature.render(), 4)),
            _tag_block("TestCases", _indent("\n".join(render_test_cases(task.test_cases)), 4)),
            "",
            templates.output_directive,
        ]
    )
    return [system, Message("user", user_content)]


def render_conversation_text(conversation: Sequence[Message]) -> str:
    """Plain-text form of a conversation, as printed by a dry run."""
    return "\n".join(m.content for m in conversation) + "\n"


def format_ordinals(ordinals: Iterable[int]) -> str:
    """``test case 2`` / ``test cases 2 and 5`` / ``test cases 1, 3 and 5``."""
    ordered = sorted(set(ordinals))
    if not ordered:
        raise PromptError("no failing test case ordinals to report")
    if len(ordered) == 1:
        return f"test case {ordered[0]}"
    head = ", ".join(str(o) for o in ordered[:-1])
    return f"test cases {head} and {ordered[-1]}"


def build_followup(outcome: AttemptOutcome) -> str:
    """The error-class-specific repair request appended after a failed attempt."""
    if outcome.kind is OutcomeKind.COMPILE_ERROR:
        return COMPILE_FOLLOWUP
    if outcome.kind is OutcomeKind.RUNTIME_ERROR:
        return RUNTIME_FOLLOWUP
    if outcome.kind is OutcomeKind.FAILING_TESTS:
        return FAILING_FOLLOWUP_TEMPLATE.format(which=format_ordinals(outcome.failing_ordinals))
    raise PromptError("no follow-up is defined for a passing attempt")


def load_templates(prompts_dir: Path | None = None) -> PromptTemplateSet:
    """Load the five templates, each from prompts_dir when it holds the file, else packaged.

    A custom directory may override any subset of role.txt, instruction.txt,
    examples.txt, task_frame.txt and output_directive.txt; each is inserted
    as written, less its trailing newlines. A directory that does not exist,
    a template that is not UTF-8, and an exemplars/ directory (examples once
    were one file each there) raise PromptError.
    """
    custom = Path(prompts_dir) if prompts_dir is not None else None
    if custom is not None and not custom.is_dir():
        raise PromptError(f"{custom}: not a prompt directory")
    if custom is not None and (custom / "exemplars").is_dir():
        raise PromptError(
            f"{custom}/exemplars/ is no longer read: write the examples as sent to {custom}/examples.txt"
        )

    def read(name: str) -> str:
        path = custom / name if custom is not None and (custom / name).is_file() else PACKAGED_PROMPTS / name
        try:
            return path.read_text(encoding="utf-8").rstrip("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise PromptError(f"{path}: cannot read prompt template: {exc}") from exc

    return PromptTemplateSet(
        role_text=read("role.txt"),
        instruction_text=read("instruction.txt"),
        examples=read("examples.txt"),
        task_frame=read("task_frame.txt"),
        output_directive=read("output_directive.txt"),
    )
