"""Turn a candidate's compile and run results into one of the four outcome kinds; no JDK needed."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

FAIL_MARKER_RE = re.compile(r"Test case #(\d+) failed")
SUCCESS_MARKER = "All test cases passed."

TIMEOUT_DIAGNOSTIC = "process timed out (forcibly terminated)"
NO_ENTRY_POINT_DIAGNOSTIC = "no runnable entry point (no main method or test method found)"


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
    failing_ordinals: frozenset[int] = frozenset()
    detail: str = ""
    extraction_failed: bool = False

    @property
    def fingerprint(self) -> str:
        """What the same-error stop compares; derived from the fields, never stored."""
        if self.kind is OutcomeKind.PASS:
            return "pass"
        if self.kind is OutcomeKind.FAILING_TESTS:
            return "failing_tests:" + ",".join(str(o) for o in sorted(self.failing_ordinals))
        source = "extraction:" if self.extraction_failed else ""
        return f"{self.kind.value}:{source}{normalize_diagnostic(self.detail)}"


def first_diagnostic_line(stderr: str, stdout: str) -> str:
    for text in (stderr, stdout):
        for line in text.splitlines():
            if line.strip():
                return line.strip()
    return ""


def normalize_diagnostic(line: str) -> str:
    """Stabilize a diagnostic line across workdirs and run paths: drop paths, line numbers and identity hashes.

    A default toString such as ``java.lang.Object@251a69d7`` ends in an
    identity hash, which a parked JVM numbers differently from a cold java.
    Only an ``@`` right after a class name (or an array's ``;`` or ``]``)
    starts one, so ``value @5`` keeps its number.
    """
    line = re.sub(r"^\S+\.java:\d+:\s*", "", line)
    line = re.sub(r"\S*/\S*", "<path>", line)
    line = re.sub(r"\S+\.java\b", "<path>", line)
    line = re.sub(r"(?<=[\w$;\]])@[0-9a-f]{1,8}\b", "@<hash>", line)
    line = re.sub(r":\d+", ":<n>", line)
    line = re.sub(r"\bline \d+", "line <n>", line)
    return re.sub(r"\s+", " ", line).strip()


def _parse_failing_ordinals(*texts: str) -> frozenset[int]:
    found = set()
    for text in texts:
        for match in FAIL_MARKER_RE.finditer(text):
            found.add(int(match.group(1)))
    return frozenset(found)


def classify(
    compile_result: ExecutionResult,
    run_result: ExecutionResult | None,
    all_ordinals: tuple[int, ...],
    declares_target: bool = True,
) -> AttemptOutcome:
    """Map raw execution results onto the four outcome kinds.

    A pass needs all three of: the unit declares the target method, the run
    printed no failure marker, and its stdout holds the success marker.
    Failure markers decide first, whatever the exit code: assertions raised
    under -ea carry the marker text. A clean exit that is not a pass fails
    every test case, since the harness gave no verdict on the target.
    """
    if compile_result.timed_out:
        return AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail=TIMEOUT_DIAGNOSTIC)
    if compile_result.exit_code != 0:
        detail = first_diagnostic_line(compile_result.stderr, compile_result.stdout)
        return AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail=detail or "compilation failed")
    if run_result is None:
        return AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail=NO_ENTRY_POINT_DIAGNOSTIC)
    if run_result.timed_out:
        return AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail=TIMEOUT_DIAGNOSTIC)
    failing = _parse_failing_ordinals(run_result.stdout, run_result.stderr)
    if failing:
        return AttemptOutcome(OutcomeKind.FAILING_TESTS, failing_ordinals=failing)
    if run_result.exit_code != 0:
        detail = first_diagnostic_line(run_result.stderr, run_result.stdout)
        return AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail=detail or "nonzero exit")
    if declares_target and SUCCESS_MARKER in run_result.stdout:
        return AttemptOutcome(OutcomeKind.PASS)
    return AttemptOutcome(OutcomeKind.FAILING_TESTS, failing_ordinals=frozenset(all_ordinals))
