"""Synthesis tasks and benchmark suites: definitions, loading, validation."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .records import DecodeError, from_json_dict, read_text

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")


class TaskParseError(Exception):
    """A task file could not be parsed; the message names the file and field."""


class TaskValidationError(Exception):
    """A loaded task or suite violates a structural invariant."""


@dataclass(frozen=True)
class Parameter:
    name: str
    type: str


@dataclass(frozen=True)
class MethodSignature:
    name: str
    return_type: str
    parameters: tuple[Parameter, ...] = field(default=(), metadata={"json": "params"})
    static: bool = False
    declared_throws: tuple[str, ...] = field(default=(), metadata={"json": "throws"})

    def render(self) -> str:
        """Java-style method line, e.g. ``double ellipseArea(Ellipse2D ellipse)``."""
        params = ", ".join(f"{p.type} {p.name}" for p in self.parameters)
        line = f"{'static ' if self.static else ''}{self.return_type} {self.name}({params})"
        if self.declared_throws:
            line += " throws " + ", ".join(self.declared_throws)
        return line


@dataclass(frozen=True)
class TestCase:
    """One behavioral example: either inputs -> expected, or an assertion script.

    Script-style cases cover behaviors a single expected value cannot express,
    such as reference-mutating methods and multi-assertion checks.
    """

    ordinal: int
    inputs: tuple[str, ...] = ()
    expected: str | None = None
    script: str | None = None
    description: str | None = None

    @property
    def is_script(self) -> bool:
        return self.script is not None


@dataclass(frozen=True)
class SynthesisTask:
    id: str
    suite: str
    signature: MethodSignature
    test_cases: tuple[TestCase, ...] = field(metadata={"json": "tests"})
    dependencies: tuple[str, ...] = field(default=(), metadata={"json": "deps"})
    notes: str | None = None


def parse_task_dict(data, ctx: str) -> SynthesisTask:
    """Decode a task file's JSON; ctx (the file) leads every error message."""
    try:
        task = from_json_dict(SynthesisTask, data)
    except DecodeError as exc:
        raise TaskParseError(f"{ctx}: {exc}") from exc
    # Which shape a test case has is decided by the keys it gives.
    for index, (raw, case) in enumerate(zip(data["tests"], task.test_cases)):
        where = f"{ctx}: tests[{index}]"
        if case.ordinal < 1:
            raise TaskParseError(f"{where}.ordinal: expected a positive integer")
        if "script" in raw:
            if "inputs" in raw or "expected" in raw:
                raise TaskParseError(f"{where}: use either 'inputs'/'expected' or 'script', not both")
            if not (case.script or "").strip():
                raise TaskParseError(f"{where}.script: expected a non-empty string")
        elif "inputs" not in raw or case.expected is None:
            raise TaskParseError(f"{where}: needs 'inputs' and a string 'expected', or a 'script'")
    return task


def parse_task_file(path: Path) -> SynthesisTask:
    try:
        data = json.loads(read_text(path))
    except OSError as exc:
        raise TaskParseError(f"{path}: cannot read task file: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TaskParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_task_dict(data, str(path))


def is_path_segment(name: str) -> bool:
    """Whether name can be one directory name: not empty, "." or "..", no "/" or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def structural_violations(task: SynthesisTask) -> list[str]:
    """Invariant violations that are intrinsic to the task data itself."""
    violations = []
    if not is_path_segment(task.id):
        violations.append(f"task id {task.id!r} is not a single path segment")
    for dep in task.dependencies:
        if not is_path_segment(dep):
            violations.append(f"dependency id {dep!r} is not a single path segment")
    if not _IDENTIFIER_RE.match(task.signature.name):
        violations.append(f"method name {task.signature.name!r} is not a valid identifier")
    names = [p.name for p in task.signature.parameters]
    for name in sorted(set(n for n in names if names.count(n) > 1)):
        violations.append(f"duplicate parameter name '{name}'")
    if not task.test_cases:
        violations.append("no test cases")
    ordinals = [t.ordinal for t in task.test_cases]
    for ordinal in sorted(set(o for o in ordinals if ordinals.count(o) > 1)):
        violations.append(f"duplicate test case ordinal {ordinal}")
    if ordinals and sorted(set(ordinals)) != list(range(1, len(set(ordinals)) + 1)):
        violations.append(
            f"test case ordinals must be 1..N consecutive, got {sorted(set(ordinals))}"
        )
    return violations


def resolve_dependency(identifier: str, deps_dir: Path | None) -> Path | None:
    """Map a symbolic dependency identifier to an archive under the deps directory.

    Resolution rule: ``<deps_dir>/<identifier>.jar`` first, then a file named
    exactly ``<identifier>``.
    """
    if deps_dir is None:
        return None
    jar = deps_dir / f"{identifier}.jar"
    if jar.is_file():
        return jar
    bare = deps_dir / identifier
    if bare.is_file():
        return bare
    return None


def resolve_dependencies(
    task: SynthesisTask, deps_dir: Path | None
) -> tuple[list[Path], list[str]]:
    """The task's classpath, and the dependency identifiers that do not resolve.

    Classpath entries are absolute: javac and java run in the attempt's workdir.
    """
    classpath, missing = [], []
    for dep in task.dependencies:
        path = resolve_dependency(dep, deps_dir)
        if path is None:
            missing.append(dep)
        else:
            classpath.append(path.absolute())
    return classpath, missing


def validate_task(task: SynthesisTask, deps_dir: Path | None = None) -> list[str]:
    """Full validation report; empty iff all invariants hold and deps resolve."""
    violations = structural_violations(task)
    _, missing = resolve_dependencies(task, deps_dir)
    where = deps_dir if deps_dir is not None else "an unconfigured dependency directory"
    for dep in missing:
        violations.append(f"dependency '{dep}' does not resolve under {where}")
    return violations


def task_files(path: Path) -> list[Path]:
    """The task file at path, or in a directory what ``sorted(path.glob("*.json"))`` lists."""
    path = Path(path)
    if not path.exists():
        raise TaskParseError(f"{path}: no such file or directory")
    if not path.is_dir():
        return [path]
    try:  # iterdir joins names without parsing them, unlike ``path / name``, which also interns each
        files = sorted((f for f in path.iterdir() if f.name.endswith(".json")), key=lambda f: f.name)
    except PermissionError:  # as glob does: an unreadable directory lists nothing
        files = []
    if not files:
        raise TaskParseError(f"{path}: no task files found")
    return files


def load_task(path: Path) -> SynthesisTask:
    """Parse one task file; a structural invariant violation fails the load."""
    task = parse_task_file(path)
    violations = structural_violations(task)
    if violations:
        raise TaskValidationError(f"{path}: task '{task.id}': " + "; ".join(violations))
    return task


def load_suite(path: Path) -> tuple[SynthesisTask, ...]:
    """Load the tasks of a directory of task files or of a single task file.

    Tasks are returned in lexicographic id order. Each file loads as
    load_task loads it, and duplicate ids fail the load.
    """
    files = task_files(path)
    tasks = [load_task(f) for f in files]
    seen: dict[str, Path] = {}
    for task, origin in zip(tasks, files):
        if task.id in seen:
            raise TaskValidationError(
                f"duplicate task id '{task.id}' in {origin} (first seen in {seen[task.id]})"
            )
        seen[task.id] = origin
    return tuple(sorted(tasks, key=lambda t: t.id))
