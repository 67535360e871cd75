"""Shared builders for tests: canned outcomes, records, task files, and a scripted sandbox."""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

from apisynth import sandbox as sandbox_module
from apisynth.llm import TranscriptWriter
from apisynth.refine import AttemptRecord, FinalStatus, RunRecord
from apisynth.sandbox import ParkedPool
from apisynth.tasks import SynthesisTask
from apisynth.verdict import AttemptOutcome, OutcomeKind


def load_script(repo_root, name):
    """A script under scripts/, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, repo_root / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def transcript_in(directory: Path) -> TranscriptWriter:
    """The writer a run of the loop takes, appending to directory/transcript.jsonl."""
    return TranscriptWriter(Path(directory) / "transcript.jsonl", "mock")


def ok() -> AttemptOutcome:
    return AttemptOutcome(OutcomeKind.PASS)


def compile_error(detail: str = "error: ';' expected") -> AttemptOutcome:
    return AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail=detail)


def runtime_error(detail: str = "Exception in thread \"main\" java.lang.IllegalStateException") -> AttemptOutcome:
    return AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail=detail)


def failing(*ordinals: int) -> AttemptOutcome:
    return AttemptOutcome(OutcomeKind.FAILING_TESTS, failing_ordinals=frozenset(ordinals))


class StubSandbox:
    """Replays canned outcomes instead of invoking a toolchain.

    Outcomes come either from a single shared list or from a dict keyed by
    target method name (for multi-task suites). Records every call.
    """

    def __init__(self, outcomes=None, by_target=None):
        self.outcomes = list(outcomes or [])
        self.by_target = {k: list(v) for k, v in (by_target or {}).items()}
        self.calls = []
        self._lock = threading.Lock()

    def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
        with self._lock:
            self.calls.append((target_name, Path(workdir), unit))
            queue = self.by_target[target_name] if self.by_target else self.outcomes
            return queue.pop(0)


def java_response(body: str, class_name: str = "Solution") -> str:
    """A plausible model reply: prose around a fenced Java block."""
    return (
        "Here is the complete implementation:\n\n"
        f"```java\npublic class {class_name} {{\n{body}\n}}\n```\n\n"
        "All test cases should pass."
    )


def simple_response(method_line: str = "double ellipseArea(Ellipse2D e) { return 1.0; }") -> str:
    return java_response(f"    {method_line}\n    void testAll() {{ }}")


def _record(task_id, suite, attempts, status) -> RunRecord:
    """Every attempt but the last sent a follow-up, as the loop does."""
    last = len(attempts) - 1
    return RunRecord(
        task_id=task_id,
        task_suite=suite,
        attempts=tuple(
            AttemptRecord(i + 1, o, followup_sent=None if i == last else f"follow-up {i + 1}")
            for i, o in enumerate(attempts)
        ),
        final_status=status,
        wall_time_seconds=0.1,
    )


def immediate_pass(task_id: str, suite: str) -> RunRecord:
    return _record(task_id, suite, [ok()], FinalStatus.SOLVED)


def solved_later(task_id: str, suite: str) -> RunRecord:
    return _record(task_id, suite, [failing(1), ok()], FinalStatus.SOLVED)


def compile_then_pass(task_id: str, suite: str) -> RunRecord:
    return _record(task_id, suite, [compile_error(), ok()], FinalStatus.SOLVED)


def compiled_never_solved(task_id: str, suite: str) -> RunRecord:
    return _record(task_id, suite, [failing(1), failing(1)], FinalStatus.FAILED_SAME_ERROR)


def compiled_late_never_solved(task_id: str, suite: str) -> RunRecord:
    """First attempt does not compile; later ones run but never pass."""
    return _record(
        task_id, suite, [compile_error(), failing(1), failing(1)], FinalStatus.FAILED_SAME_ERROR
    )


def never_compiled(task_id: str, suite: str) -> RunRecord:
    return _record(task_id, suite, [compile_error(), compile_error()], FinalStatus.FAILED_SAME_ERROR)


def env_failed(task_id: str, suite: str, reason: str = "backend unreachable") -> RunRecord:
    return RunRecord(
        task_id=task_id,
        task_suite=suite,
        attempts=(),
        final_status=FinalStatus.FAILED_ENVIRONMENT,
        wall_time_seconds=0.0,
        error=reason,
    )


def table_rows_records() -> list[RunRecord]:
    """A synthetic record population reproducing the reference result table.

    frangel: 90 tasks, 88 compiled / 83 passed without follow-ups,
    90 compiled / 88 passed with follow-ups. sypet: 30 tasks, one task needed
    follow-ups. additional: 15 tasks, one task needed follow-ups.
    """
    records = []
    records += [immediate_pass(f"fr-pass-{i:02d}", "frangel") for i in range(83)]
    records += [solved_later(f"fr-late-{i:02d}", "frangel") for i in range(5)]
    records += [compiled_late_never_solved(f"fr-lost-{i:02d}", "frangel") for i in range(2)]
    records += [immediate_pass(f"sy-pass-{i:02d}", "sypet") for i in range(29)]
    records += [solved_later("sy-late-00", "sypet")]
    records += [immediate_pass(f"ad-pass-{i:02d}", "additional") for i in range(14)]
    records += [solved_later("ad-late-00", "additional")]
    return records


def serialize_task(task: SynthesisTask) -> dict:
    """The task-file JSON that parses back into task."""
    tests = []
    for t in task.test_cases:
        entry: dict = {"ordinal": t.ordinal}
        if t.is_script:
            entry["script"] = t.script
        else:
            entry["inputs"] = list(t.inputs)
            entry["expected"] = t.expected
        if t.description is not None:
            entry["description"] = t.description
        tests.append(entry)
    data = {
        "id": task.id,
        "suite": task.suite,
        "signature": {
            "name": task.signature.name,
            "return_type": task.signature.return_type,
            "params": [{"name": p.name, "type": p.type} for p in task.signature.parameters],
            "static": task.signature.static,
            "throws": list(task.signature.declared_throws),
        },
        "tests": tests,
        "deps": list(task.dependencies),
    }
    if task.notes is not None:
        data["notes"] = task.notes
    return data


class EagerParkedPool(ParkedPool):
    """A ParkedPool whose runs never go cold for want of a spare: two are started first when none is idle.

    ``parked`` lists, per run asked of the pool, whether a spare ran it. It
    takes a compiler pool, as the golden run passes one, and leaves it unused.
    """

    def __init__(self, compilers=None) -> None:
        super().__init__()
        self.parked: list[bool] = []

    def run(self, toolchain, workdir, classpath, *args):
        key = tuple(classpath)
        with self._lock:
            idle = any(spare.classpath == key for spare in self._idle)
        if not idle:
            self._park(toolchain, key, 2)  # as a run that finds none does
        result = super().run(toolchain, workdir, classpath, *args)
        self.parked.append(result is not None)
        return result


def record_servers(monkeypatch) -> list:
    """Every compile server started from now on, in start order."""
    started = []

    class Recorded(sandbox_module._CompileServer):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(sandbox_module, "_CompileServer", Recorded)
    return started
