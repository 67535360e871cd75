"""Spans around the calls into each apisynth layer, recorded from outside.

Nothing here edits the program: the benchmark swaps module-level references
(``apisynth.refine.extract_source_unit`` and so on) for wrappers while a
phase runs, and wraps the backend and sandbox objects the CLI builds. Each
span records name, start, end, parent and the task id as request id. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from apisynth import bench, cli, refine


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent["request_id"]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request_id": request_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write(self, path: Path) -> None:
        """One JSON object per span, gzip-compressed, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict], name: str) -> list[float]:
    """Duration of each span called ``name`` minus the time its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        covered, cursor = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda s: s["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span["end"] - span["start"] - covered)
    return out


@contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Temporarily rebind module attributes; a missing attribute is an error."""
    saved = []
    try:
        for module, attr, new in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


def _wrap(tracer: Tracer, name: str, fn, request_of=None, annotate=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name, request_of(*args) if request_of else None) as span:
            if annotate is not None:
                annotate(span, *args)
            return fn(*args, **kwargs)

    return wrapper


class TracedBackend:
    """Wraps a ``ChatBackend``: one ``llm.complete`` span per model call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner, self.tracer = inner, tracer

    def complete(self, conversation, task_id):
        with self.tracer.span("llm.complete", task_id) as span:
            span["request_chars"] = sum(len(m.content) for m in conversation)
            span["messages"] = len(conversation)
            return self.inner.complete(conversation, task_id)


def log_exit(path: Path) -> tuple[float, bool] | None:
    """(seconds, timed out) from a sandbox log's ``exit: N  (0.71s)`` line.

    None when the log records no process (no log, or no entry point).
    """
    if not path.is_file():
        return None
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines()[:3]:
        if line.startswith("exit:") and line.endswith("s)"):
            return float(line.rsplit("(", 1)[1][:-2]), "(timed out)" in line
    return None


class TracedSandbox:
    """Wraps a ``SandboxLike``: one ``sandbox.evaluate`` span per candidate.

    The compile/run split comes from the sandbox's own ``compile.log`` and
    ``run.log``, which print durations to 10 ms.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner, self.tracer = inner, tracer
        self._seen: dict[str, set[str]] = {}
        self._lock = threading.Lock()

    def evaluate(self, unit, target_name, all_ordinals, workdir, classpath=None):
        with self.tracer.span("sandbox.evaluate") as span:
            outcome = self.inner.evaluate(unit, target_name, all_ordinals, workdir, classpath)
        with self._lock:
            seen = self._seen.setdefault(span["request_id"], set())
            span["repeat_source"] = unit.source_text in seen
            seen.add(unit.source_text)
        span["kind"] = outcome.kind.value
        logs = [log_exit(workdir / "compile.log"), log_exit(workdir / "run.log")]
        span["compile_s"], span["run_s"] = (log[0] if log else None for log in logs)
        span["timed_out"] = any(log and log[1] for log in logs)
        return outcome


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Spans around the module-level references ``refine``, ``bench`` and ``cli`` call."""
    def task_id(task, *_):
        return task.id

    def record_id(record, *_):
        return record.task_id

    def response_chars(span, text, *_):
        span["response_chars"] = len(text)

    return [
        (bench, "synthesize", _wrap(tracer, "refine.synthesize", bench.synthesize, task_id)),
        (refine, "build_initial_conversation",
         _wrap(tracer, "prompting.build_initial", refine.build_initial_conversation, task_id)),
        (refine, "extract_source_unit",
         _wrap(tracer, "extractor.extract", refine.extract_source_unit, annotate=response_chars)),
        (refine, "build_followup", _wrap(tracer, "prompting.build_followup", refine.build_followup)),
        (refine, "save_record", _wrap(tracer, "refine.save_record", refine.save_record, record_id)),
        (bench, "save_record", _wrap(tracer, "refine.save_record", bench.save_record, record_id)),
        (bench, "load_record",
         _wrap(tracer, "bench.load_record", bench.load_record, lambda path: Path(path).parent.name)),
        (cli, "load_suite", _wrap(tracer, "tasks.load_suite", cli.load_suite)),
        (cli, "run_suite", _wrap(tracer, "bench.run_suite", cli.run_suite)),
        (cli, "aggregate", _wrap(tracer, "bench.aggregate", cli.aggregate)),
        (cli, "write_reports", _wrap(tracer, "bench.write_reports", cli.write_reports)),
    ]
