"""Synthesis tasks and benchmark suites: definitions, loading, validation."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

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
    parameters: tuple[Parameter, ...] = ()
    static: bool = False
    declared_throws: tuple[str, ...] = ()

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
    test_cases: tuple[TestCase, ...]
    dependencies: tuple[str, ...] = ()
    notes: str | None = None


@dataclass(frozen=True)
class BenchmarkSuite:
    name: str
    tasks: tuple[SynthesisTask, ...]


def _require(data: dict, key: str, ctx: str):
    if key not in data:
        raise TaskParseError(f"{ctx}: missing required field '{key}'")
    return data[key]


def _require_str(data: dict, key: str, ctx: str) -> str:
    value = _require(data, key, ctx)
    if not isinstance(value, str):
        raise TaskParseError(f"{ctx}: field '{key}' must be a string")
    return value


def _require_str_list(value, key: str, ctx: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TaskParseError(f"{ctx}: field '{key}' must be an array of strings")
    return tuple(value)


def parse_signature(data: dict, ctx: str) -> MethodSignature:
    if not isinstance(data, dict):
        raise TaskParseError(f"{ctx}: field 'signature' must be an object")
    name = _require_str(data, "name", ctx)
    return_type = _require_str(data, "return_type", ctx)
    raw_params = data.get("params", [])
    if not isinstance(raw_params, list):
        raise TaskParseError(f"{ctx}: field 'signature.params' must be an array")
    params = []
    for i, p in enumerate(raw_params):
        if not isinstance(p, dict):
            raise TaskParseError(f"{ctx}: field 'signature.params[{i}]' must be an object")
        params.append(
            Parameter(
                name=_require_str(p, "name", f"{ctx}: signature.params[{i}]"),
                type=_require_str(p, "type", f"{ctx}: signature.params[{i}]"),
            )
        )
    static = data.get("static", False)
    if not isinstance(static, bool):
        raise TaskParseError(f"{ctx}: field 'signature.static' must be a boolean")
    throws = _require_str_list(data.get("throws", []), "signature.throws", ctx)
    return MethodSignature(
        name=name,
        return_type=return_type,
        parameters=tuple(params),
        static=static,
        declared_throws=throws,
    )


def parse_test_case(data: dict, index: int, ctx: str) -> TestCase:
    if not isinstance(data, dict):
        raise TaskParseError(f"{ctx}: field 'tests[{index}]' must be an object")
    tctx = f"{ctx}: tests[{index}]"
    ordinal = _require(data, "ordinal", tctx)
    if not isinstance(ordinal, int) or isinstance(ordinal, bool) or ordinal < 1:
        raise TaskParseError(f"{tctx}: field 'ordinal' must be a positive integer")
    has_script = "script" in data
    has_pair = "inputs" in data or "expected" in data
    if has_script and has_pair:
        raise TaskParseError(f"{tctx}: use either 'inputs'/'expected' or 'script', not both")
    description = data.get("description")
    if description is not None and not isinstance(description, str):
        raise TaskParseError(f"{tctx}: field 'description' must be a string")
    if has_script:
        script = data["script"]
        if not isinstance(script, str) or not script.strip():
            raise TaskParseError(f"{tctx}: field 'script' must be a non-empty string")
        return TestCase(ordinal=ordinal, script=script, description=description)
    inputs = _require_str_list(_require(data, "inputs", tctx), "inputs", tctx)
    expected = _require_str(data, "expected", tctx)
    return TestCase(ordinal=ordinal, inputs=inputs, expected=expected, description=description)


def parse_task_dict(data: dict, ctx: str) -> SynthesisTask:
    if not isinstance(data, dict):
        raise TaskParseError(f"{ctx}: top level must be an object")
    task_id = _require_str(data, "id", ctx)
    suite = _require_str(data, "suite", ctx)
    signature = parse_signature(_require(data, "signature", ctx), ctx)
    raw_tests = _require(data, "tests", ctx)
    if not isinstance(raw_tests, list):
        raise TaskParseError(f"{ctx}: field 'tests' must be an array")
    tests = tuple(parse_test_case(t, i, ctx) for i, t in enumerate(raw_tests))
    deps = _require_str_list(data.get("deps", []), "deps", ctx)
    notes = data.get("notes")
    if notes is not None and not isinstance(notes, str):
        raise TaskParseError(f"{ctx}: field 'notes' must be a string")
    return SynthesisTask(
        id=task_id,
        suite=suite,
        signature=signature,
        test_cases=tests,
        dependencies=deps,
        notes=notes,
    )


def parse_task_file(path: Path) -> SynthesisTask:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TaskParseError(f"{path}: cannot read task file: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TaskParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_task_dict(data, str(path))


def structural_violations(task: SynthesisTask) -> list[str]:
    """Invariant violations that are intrinsic to the task data itself."""
    violations = []
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
    """The task's classpath, and the dependency identifiers that do not resolve."""
    classpath, missing = [], []
    for dep in task.dependencies:
        path = resolve_dependency(dep, deps_dir)
        if path is None:
            missing.append(dep)
        else:
            classpath.append(path)
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
    """The task file at path, or the ``*.json`` files directly in a directory, by name."""
    path = Path(path)
    if not path.exists():
        raise TaskParseError(f"{path}: no such file or directory")
    if not path.is_dir():
        return [path]
    files = sorted(path.glob("*.json"))
    if not files:
        raise TaskParseError(f"{path}: no task files found")
    return files


def load_suite(path: Path) -> BenchmarkSuite:
    """Load a suite from a directory of task files or a single task file.

    Tasks are returned in lexicographic id order. Structural invariant
    violations and duplicate ids fail the load.
    """
    path = Path(path)
    files = task_files(path)
    default_name = path.name if path.is_dir() else path.stem
    tasks = [parse_task_file(f) for f in files]
    for task, origin in zip(tasks, files):
        violations = structural_violations(task)
        if violations:
            raise TaskValidationError(f"{origin}: task '{task.id}': " + "; ".join(violations))
    seen: dict[str, Path] = {}
    for task, origin in zip(tasks, files):
        if task.id in seen:
            raise TaskValidationError(
                f"duplicate task id '{task.id}' in {origin} (first seen in {seen[task.id]})"
            )
        seen[task.id] = origin
    tasks.sort(key=lambda t: t.id)
    suite_names = {t.suite for t in tasks}
    name = suite_names.pop() if len(suite_names) == 1 else default_name
    return BenchmarkSuite(name=name, tasks=tuple(tasks))
