"""Compile and run candidate Java sources in isolated per-attempt workdirs."""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import signal
import subprocess
import time
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .extractor import SourceUnit, strip_comments_and_strings

FAIL_MARKER_RE = re.compile(r"Test case #(\d+) failed")
SUCCESS_MARKER = "All test cases passed."

TIMEOUT_DIAGNOSTIC = "process timed out (forcibly terminated)"
NO_ENTRY_POINT_DIAGNOSTIC = "no runnable entry point (no main method or test method found)"


class ToolchainError(Exception):
    """The Java toolchain is unavailable; an environment problem, not a task failure."""


class OutcomeKind(str, Enum):
    PASS = "pass"
    COMPILE_ERROR = "compile_error"
    RUNTIME_ERROR = "runtime_error"
    FAILING_TESTS = "failing_tests"


@dataclass(frozen=True)
class ExecutionResult:
    exit_code: int
    stdout: str
    stderr: str
    duration_seconds: float
    timed_out: bool = False


@dataclass(frozen=True)
class AttemptOutcome:
    kind: OutcomeKind
    fingerprint: str
    failing_ordinals: frozenset[int] = frozenset()
    detail: str = ""
    extraction_failed: bool = False


T = typing.TypeVar("T")


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if is_dataclass(value):
        return to_json_dict(value)
    return value


def to_json_dict(obj) -> dict:
    """A record dataclass as JSON-ready data, one key per field in field order."""
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _converter(hint):
    """How to rebuild a value of the annotated type from JSON; None when JSON already has it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [_converter(a) for a in args if a is not type(None)]
        return inner and (lambda value: None if value is None else inner(value))
    if origin is tuple:
        item = _converter(args[0])
        return tuple if item is None else lambda value: tuple(map(item, value))
    if origin is frozenset:
        return frozenset
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint
    if is_dataclass(hint):
        return functools.partial(from_json_dict, hint)
    return None


@functools.cache
def _field_decoders(cls) -> tuple[tuple[str, typing.Callable | None, bool], ...]:
    """(name, converter, has default) per field; type hints resolve once per class."""
    hints = typing.get_type_hints(cls)
    decoders = []
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        decoders.append((f.name, _converter(hints[f.name]), has_default))
    return tuple(decoders)


def from_json_dict(cls: type[T], data: dict) -> T:
    """Inverse of to_json_dict; a missing key of a field with a default takes that default."""
    kwargs = {}
    for name, convert, optional in _field_decoders(cls):
        if optional and name not in data:
            continue
        value = data[name]
        kwargs[name] = value if convert is None else convert(value)
    return cls(**kwargs)


def save_json(obj, path: Path) -> None:
    """Write a record dataclass as JSON; dying mid-write leaves the old file or none."""
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(to_json_dict(obj), indent=2) + "\n", encoding="utf-8")
    os.replace(partial, path)


def _first_diagnostic_line(stderr: str, stdout: str) -> str:
    for text in (stderr, stdout):
        for line in text.splitlines():
            if line.strip():
                return line.strip()
    return ""


def normalize_diagnostic(line: str) -> str:
    """Stabilize a diagnostic line across workdirs: drop paths and line numbers."""
    line = re.sub(r"^\S+\.java:\d+:\s*", "", line)
    line = re.sub(r"\S*/\S*", "<path>", line)
    line = re.sub(r"\S+\.java\b", "<path>", line)
    line = re.sub(r":\d+", ":<n>", line)
    line = re.sub(r"\bline \d+", "line <n>", line)
    return re.sub(r"\s+", " ", line).strip()


def _parse_failing_ordinals(*texts: str) -> frozenset[int]:
    found = set()
    for text in texts:
        for match in FAIL_MARKER_RE.finditer(text):
            found.add(int(match.group(1)))
    return frozenset(found)


def fingerprint_of(kind: OutcomeKind, detail: str, ordinals: frozenset[int]) -> str:
    if kind is OutcomeKind.PASS:
        return "pass"
    if kind is OutcomeKind.FAILING_TESTS:
        return "failing_tests:" + ",".join(str(o) for o in sorted(ordinals))
    return f"{kind.value}:{normalize_diagnostic(detail)}"


def _outcome(kind: OutcomeKind, detail: str = "", ordinals: frozenset[int] = frozenset()) -> AttemptOutcome:
    return AttemptOutcome(
        kind=kind,
        fingerprint=fingerprint_of(kind, detail, ordinals),
        failing_ordinals=ordinals,
        detail=detail,
    )


def classify(
    compile_result: ExecutionResult,
    run_result: ExecutionResult | None,
    all_ordinals: tuple[int, ...],
) -> AttemptOutcome:
    """Map raw execution results onto the four outcome kinds.

    A nonzero run exit with failure markers is a test failure rather than a
    crash: assertions raised under -ea carry the marker text and exit nonzero.
    A clean exit without the success marker is conservatively treated as
    failing every test case, since the harness printed no verdict.
    """
    if compile_result.timed_out:
        return _outcome(OutcomeKind.COMPILE_ERROR, TIMEOUT_DIAGNOSTIC)
    if compile_result.exit_code != 0:
        detail = _first_diagnostic_line(compile_result.stderr, compile_result.stdout)
        return _outcome(OutcomeKind.COMPILE_ERROR, detail or "compilation failed")
    if run_result is None:
        return _outcome(OutcomeKind.RUNTIME_ERROR, NO_ENTRY_POINT_DIAGNOSTIC)
    if run_result.timed_out:
        return _outcome(OutcomeKind.RUNTIME_ERROR, TIMEOUT_DIAGNOSTIC)
    failing = _parse_failing_ordinals(run_result.stdout, run_result.stderr)
    if run_result.exit_code != 0:
        if failing:
            return _outcome(OutcomeKind.FAILING_TESTS, ordinals=failing)
        detail = _first_diagnostic_line(run_result.stderr, run_result.stdout)
        return _outcome(OutcomeKind.RUNTIME_ERROR, detail or "nonzero exit")
    if SUCCESS_MARKER in run_result.stdout:
        return _outcome(OutcomeKind.PASS)
    if failing:
        return _outcome(OutcomeKind.FAILING_TESTS, ordinals=failing)
    return _outcome(OutcomeKind.FAILING_TESTS, ordinals=frozenset(all_ordinals))


@dataclass(frozen=True)
class Toolchain:
    javac: str
    java: str


def _from_java_home(tool: str) -> str | None:
    home = os.environ.get("JAVA_HOME")
    if not home:
        return None
    candidate = Path(home) / "bin" / tool
    return str(candidate) if candidate.is_file() else None


def find_toolchain() -> Toolchain:
    javac = os.environ.get("APISYNTH_JAVAC") or _from_java_home("javac") or shutil.which("javac")
    java = os.environ.get("APISYNTH_JAVA") or _from_java_home("java") or shutil.which("java")
    if not javac or not java:
        raise ToolchainError(
            "Java toolchain not found: install a JDK and set JAVA_HOME or put "
            "javac/java on PATH (APISYNTH_JAVAC/APISYNTH_JAVA override)"
        )
    return Toolchain(javac=javac, java=java)


TEST_METHOD_RE = re.compile(r"\b(?:(static)\s+)?(?:final\s+)?void\s+(test\w*)\s*\(\s*\)")


def find_test_method(stripped_source: str, target_name: str) -> tuple[str, bool] | None:
    """Pick a no-arg test method to drive; prefers one named after the target."""
    matches = [(m.group(2), m.group(1) is not None) for m in TEST_METHOD_RE.finditer(stripped_source)]
    if not matches:
        return None
    lowered = target_name.lower()
    for name, static in matches:
        if lowered in name.lower():
            return name, static
    return matches[0]


def make_driver(class_name: str, stripped_source: str, target_name: str) -> tuple[str, str] | None:
    """Synthesize a main-bearing driver class; None when nothing is callable."""
    picked = find_test_method(stripped_source, target_name)
    if picked is None:
        return None
    method, static = picked
    call = f"{class_name}.{method}();" if static else f"new {class_name}().{method}();"
    driver_name = "SynthesisDriver"
    n = 2
    while driver_name in stripped_source:
        driver_name = f"SynthesisDriver{n}"
        n += 1
    body = (
        f"class {driver_name} {{\n"
        f"    public static void main(String[] args) throws Exception {{\n"
        f"        {call}\n"
        f"    }}\n"
        f"}}\n"
    )
    return driver_name, body


def _write_log(path: Path, argv: list[str], result: ExecutionResult) -> None:
    status = f"exit: {result.exit_code}" + (" (timed out)" if result.timed_out else "")
    path.write_text(
        "$ " + " ".join(argv) + "\n"
        + status + f"  ({result.duration_seconds:.2f}s)\n"
        + "--- stdout ---\n" + result.stdout
        + "\n--- stderr ---\n" + result.stderr + "\n",
        encoding="utf-8",
    )


def _execute(argv: list[str], cwd: Path, timeout: float) -> ExecutionResult:
    start = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        # Kill the whole process group: javac/java may have forked.
        try:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            proc.kill()
        stdout, stderr = proc.communicate()
        timed_out = True
    return ExecutionResult(
        exit_code=proc.returncode if proc.returncode is not None else -1,
        stdout=stdout or "",
        stderr=stderr or "",
        duration_seconds=time.monotonic() - start,
        timed_out=timed_out,
    )


@dataclass
class Sandbox:
    toolchain: Toolchain
    compile_timeout: float = 60.0
    run_timeout: float = 30.0

    def evaluate(
        self,
        unit: SourceUnit,
        target_name: str,
        all_ordinals: tuple[int, ...],
        workdir: Path,
        classpath: list[Path] | None = None,
    ) -> AttemptOutcome:
        """Write, compile, and run one candidate; persist logs and the outcome."""
        workdir.mkdir(parents=True, exist_ok=True)
        classpath = classpath or []
        source = unit.source_text
        if not source.endswith("\n"):
            source += "\n"
        main_class = unit.public_class_name
        if not unit.contains_main:
            stripped = strip_comments_and_strings(unit.source_text)
            driver = make_driver(unit.public_class_name, stripped, target_name)
            if driver is None:
                main_class = None
            else:
                main_class, driver_body = driver
                source += "\n" + driver_body

        source_path = workdir / f"{unit.public_class_name}.java"
        source_path.write_text(source, encoding="utf-8")

        compile_argv = [self.toolchain.javac]
        if classpath:
            compile_argv += ["-cp", os.pathsep.join(str(p) for p in classpath)]
        compile_argv.append(source_path.name)
        compile_result = _execute(compile_argv, workdir, self.compile_timeout)
        _write_log(workdir / "compile.log", compile_argv, compile_result)

        run_result = None
        if compile_result.exit_code == 0 and not compile_result.timed_out:
            if main_class is None:
                (workdir / "run.log").write_text(
                    NO_ENTRY_POINT_DIAGNOSTIC + "\n", encoding="utf-8"
                )
            else:
                run_cp = os.pathsep.join(["."] + [str(p) for p in classpath])
                run_argv = [self.toolchain.java, "-ea", "-cp", run_cp, main_class]
                run_result = _execute(run_argv, workdir, self.run_timeout)
                _write_log(workdir / "run.log", run_argv, run_result)

        outcome = classify(compile_result, run_result, all_ordinals)
        save_json(outcome, workdir / "outcome.json")
        return outcome


def extraction_failure_outcome(reason: str) -> AttemptOutcome:
    """Treat unusable model output like code that failed to compile."""
    return AttemptOutcome(
        kind=OutcomeKind.COMPILE_ERROR,
        fingerprint="compile_error:extraction:" + normalize_diagnostic(reason),
        detail=reason,
        extraction_failed=True,
    )
