"""Synthesis tasks and benchmark suites: definitions, loading, validation."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .records import DecodeError, from_json_dict, loads_unicode, read_text

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")
NAME_MAX = 255  # Linux's limit on the bytes of one file name


class TaskError(Exception):
    """A task file cannot be read or decoded, or a task or suite breaks a rule; the message names the file."""


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

    structural_violations checks that a case has one shape; a key given as null counts as absent.
    Script-style cases cover behaviors a single expected value cannot express,
    such as reference-mutating methods and multi-assertion checks.
    """

    ordinal: int
    inputs: tuple[str, ...] | None = None
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


def parse_task_file(path: Path) -> SynthesisTask:
    """Read and decode one task file, whose rules structural_violations checks; an error names the file."""
    try:
        return from_json_dict(SynthesisTask, loads_unicode(read_text(path)))
    except OSError as exc:
        raise TaskError(f"{path}: cannot read task file: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeError) as exc:
        raise TaskError(f"{path}: invalid JSON: {exc}") from exc
    except DecodeError as exc:
        raise TaskError(f"{path}: {exc}") from exc


def is_path_segment(name: str) -> bool:
    """Whether name can be one file name: not empty, "." or "..", no "/" or NUL, at most NAME_MAX bytes of UTF-8."""
    return (
        name not in ("", ".", "..") and "/" not in name and "\0" not in name
        and len(name.encode("utf-8", "surrogatepass")) <= NAME_MAX
    )


def is_dependency_id(name: str) -> bool:
    """Whether name is one path segment and so is ``<name>.jar``, the first file it resolves to."""
    return is_path_segment(name) and is_path_segment(f"{name}.jar")


def structural_violations(task: SynthesisTask) -> list[str]:
    """Every rule of the format the task breaks; a rule on a test case names it by JSON path, as ``tests[0]``."""
    violations = []
    if not is_path_segment(task.id):
        violations.append(f"task id {task.id!r} is not a single path segment")
    for dep in task.dependencies:
        if not is_dependency_id(dep):
            violations.append(f"dependency id {dep!r} is not a single path segment")
    if not _IDENTIFIER_RE.match(task.signature.name):
        violations.append(f"method name {task.signature.name!r} is not a valid identifier")
    names = [p.name for p in task.signature.parameters]
    for name in sorted(set(n for n in names if names.count(n) > 1)):
        violations.append(f"duplicate parameter name '{name}'")
    if not task.test_cases:
        violations.append("no test cases")
    for index, case in enumerate(task.test_cases):
        if case.script is None and None in (case.inputs, case.expected):
            violations.append(f"tests[{index}]: needs 'inputs' and a string 'expected', or a 'script'")
        elif case.script is not None and (case.inputs, case.expected) != (None, None):
            violations.append(f"tests[{index}]: use either 'inputs'/'expected' or 'script', not both")
        if case.script is not None and not case.script.strip():
            violations.append(f"tests[{index}].script: expected a non-empty string")
    ordinals = [t.ordinal for t in task.test_cases]
    for ordinal in sorted(set(o for o in ordinals if ordinals.count(o) > 1)):
        violations.append(f"duplicate test case ordinal {ordinal}")
    if ordinals and sorted(set(ordinals)) != list(range(1, len(set(ordinals)) + 1)):
        violations.append(
            f"test case ordinals must be 1..N consecutive, got {sorted(set(ordinals))}"
        )
    return violations


def resolve_dependencies(
    task: SynthesisTask, deps_dir: Path | None
) -> tuple[list[Path], list[str]]:
    """The task's classpath, and the dependency identifiers that do not resolve.

    An identifier ``X`` resolves to ``<deps_dir>/X.jar``, else to a file named
    exactly ``<deps_dir>/X``; one that is no dependency id resolves to nothing.
    Classpath entries are absolute: javac and java run in the attempt's workdir.
    """
    classpath, missing = [], []
    for dep in task.dependencies:
        files = (deps_dir / f"{dep}.jar", deps_dir / dep) if deps_dir is not None and is_dependency_id(dep) else ()
        path = next((f for f in files if f.is_file()), None)
        if path is None:
            missing.append(dep)
        else:
            classpath.append(path.absolute())
    return classpath, missing


def task_files(path: Path) -> list[Path]:
    """The task file at path, or in a directory what ``sorted(path.glob("*.json"))`` lists."""
    path = Path(path)
    if not path.exists():
        raise TaskError(f"{path}: no such file or directory")
    if not path.is_dir():
        return [path]
    try:  # iterdir joins names without parsing them, unlike ``path / name``, which also interns each
        files = sorted((f for f in path.iterdir() if f.name.endswith(".json")), key=lambda f: f.name)
    except PermissionError:  # as glob does: an unreadable directory lists nothing
        files = []
    if not files:
        raise TaskError(f"{path}: no task files found")
    return files


def load_task(path: Path) -> SynthesisTask:
    """Read one task file; a broken rule fails the load, every one named."""
    task = parse_task_file(path)
    violations = structural_violations(task)
    if violations:
        raise TaskError(f"{path}: task '{task.id}': " + "; ".join(violations))
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
            raise TaskError(
                f"duplicate task id '{task.id}' in {origin} (first seen in {seen[task.id]})"
            )
        seen[task.id] = origin
    return tuple(sorted(tasks, key=lambda t: t.id))
