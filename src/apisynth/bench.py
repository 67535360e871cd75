"""Suite runner, metric aggregation, and report rendering."""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Sequence

from .llm import ChatBackend, ConfigError, TranscriptWriter
from .prompting import PromptTemplateSet
from .refine import DEFAULT_MAX_FOLLOWUPS, FinalStatus, RunRecord, SandboxLike, load_record, synthesize
from .refine import save_record  # unused here; perfbench/spans.py rebinds bench.save_record
from .tasks import SynthesisTask
from .verdict import OutcomeKind


class MetricsError(Exception):
    """An aggregated count violates a structural invariant."""


@dataclass(frozen=True)
class SuiteMetrics:
    suite: str
    n_tasks: int
    compiled_without: int
    passed_without: int
    compiled_with: int
    passed_with: int
    environment_failure_ids: tuple[str, ...] = ()

    @property
    def environment_failures(self) -> int:
        return len(self.environment_failure_ids)


@dataclass(frozen=True)
class SuiteReport:
    suites: tuple[SuiteMetrics, ...]
    total: SuiteMetrics

    def rows(self) -> tuple[SuiteMetrics, ...]:
        return self.suites + (self.total,)


def percentage(count: int, n: int) -> Decimal | None:
    """Share of n as a percentage with one decimal, half-up; None when n is 0."""
    if n == 0:
        return None
    return (Decimal(count * 100) / Decimal(n)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def _check_invariants(m: SuiteMetrics) -> None:
    checks = [
        m.passed_without <= m.compiled_without <= m.n_tasks,
        m.passed_with <= m.compiled_with <= m.n_tasks,
        m.passed_without <= m.passed_with,
        m.compiled_without <= m.compiled_with,
        0 <= m.environment_failures <= m.n_tasks,
    ]
    if not all(checks):
        raise MetricsError(f"inconsistent counts for suite {m.suite!r}: {m}")


def _metrics(name: str, records: Sequence[RunRecord]) -> SuiteMetrics:
    compiled_without = passed_without = compiled_with = passed_with = 0
    env_ids = []
    for record in records:
        if record.final_status is FinalStatus.FAILED_ENVIRONMENT:
            # No verdict was reached; counted as neither compiling nor passing.
            env_ids.append(record.task_id)
            continue
        attempts = record.attempts
        if attempts and attempts[0].outcome.kind is not OutcomeKind.COMPILE_ERROR:
            compiled_without += 1
        if record.solved_without_followups:
            passed_without += 1
        if any(a.outcome.kind is not OutcomeKind.COMPILE_ERROR for a in attempts):
            compiled_with += 1
        if record.final_status is FinalStatus.SOLVED:
            passed_with += 1
    metrics = SuiteMetrics(
        suite=name,
        n_tasks=len(records),
        compiled_without=compiled_without,
        passed_without=passed_without,
        compiled_with=compiled_with,
        passed_with=passed_with,
        environment_failure_ids=tuple(sorted(env_ids)),
    )
    _check_invariants(metrics)
    return metrics


def aggregate(records: Sequence[RunRecord]) -> SuiteReport:
    """Per-suite and total counts for the four compile/pass measures."""
    by_suite: dict[str, list[RunRecord]] = {}
    for record in records:
        by_suite.setdefault(record.task_suite, []).append(record)
    suites = tuple(_metrics(name, group) for name, group in sorted(by_suite.items()))
    total = _metrics("Total", list(records))
    return SuiteReport(suites=suites, total=total)


Baseline = dict[str, tuple[int, int]]


def load_baseline(path: Path) -> Baseline:
    """A baseline file maps suite name to {n_tasks, success_count}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot load baseline: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: baseline must be a JSON object keyed by suite name")
    baseline: Baseline = {}
    for suite, entry in data.items():
        # Exactly int, as the records codec reads one: JSON true is not a count.
        if not isinstance(entry, dict) or not all(
            type(entry.get(key)) is int for key in ("n_tasks", "success_count")
        ):
            raise ConfigError(
                f"{path}: baseline entry {suite!r} must have integer n_tasks and success_count"
            )
        n, k = entry["n_tasks"], entry["success_count"]
        if not 0 <= k <= n:
            raise ConfigError(f"{path}: baseline entry {suite!r} has success_count outside 0..n")
        baseline[suite] = (n, k)
    return baseline


DEFAULT_WORKERS = 4

# The paper's four measures: SuiteMetrics field, report key, markdown header.
# A row holds each count under its key and the percentage under "<key>_pct".
MEASURES = (
    ("compiled_without", "compiled_no_followups", "Compiled (no follow-ups)"),
    ("passed_without", "passed_no_followups", "Passed (no follow-ups)"),
    ("compiled_with", "compiled_with_followups", "Compiled (with follow-ups)"),
    ("passed_with", "passed_with_followups", "Passed (with follow-ups)"),
)
LABEL_KEYS = ("suite", "tasks")
BASELINE_KEYS = ("baseline_tasks", "baseline_solved", "baseline_pct")


def _pct(count: int, n: int) -> str | None:
    value = percentage(count, n)
    return None if value is None else str(value)


def report_rows(report: SuiteReport, baseline: Baseline | None = None) -> list[dict]:
    """One dict per suite, then Total: the rows every report format writes.

    The Total row's baseline sums the suites the baseline covers. A row with
    no baseline tasks has None in every baseline key.
    """
    suite_baselines = [(baseline or {}).get(m.suite, (0, 0)) for m in report.suites]
    total_baseline = (sum(n for n, _ in suite_baselines), sum(k for _, k in suite_baselines))
    rows = []
    for metrics, (base_n, base_k) in zip(report.rows(), suite_baselines + [total_baseline]):
        row = dict(zip(LABEL_KEYS, (metrics.suite, metrics.n_tasks)))
        for field_name, key, _ in MEASURES:
            count = getattr(metrics, field_name)
            row[key] = count
            row[key + "_pct"] = _pct(count, metrics.n_tasks)
        row["environment_failures"] = metrics.environment_failures
        if baseline is not None:
            pct = _pct(base_k, base_n)
            values = (None, None, None) if pct is None else (base_n, base_k, pct)
            row.update(zip(BASELINE_KEYS, values))
        rows.append(row)
    return rows


def _cell(count: int | None, pct: str | None) -> str:
    return "n/a" if pct is None else f"{count} ({pct}%)"


def render_markdown(report: SuiteReport, baseline: Baseline | None = None) -> str:
    headers = ["Suite", "Tasks"] + [header for _, _, header in MEASURES]
    if baseline is not None:
        headers.append("Baseline solved")
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    _, solved_key, pct_key = BASELINE_KEYS
    for row in report_rows(report, baseline):
        cells = [str(row[key]).replace("|", r"\|") for key in LABEL_KEYS]  # a suite name may hold a "|"
        cells += [_cell(row[key], row[key + "_pct"]) for _, key, _ in MEASURES]
        if baseline is not None:
            cells.append(_cell(row[solved_key], row[pct_key]))
        lines.append("| " + " | ".join(cells) + " |")
    if report.total.environment_failures:
        lines.append("")
        lines.append(
            "Environment failures (counted as not compiled): "
            + ", ".join(report.total.environment_failure_ids)
        )
    return "\n".join(lines) + "\n"


def render_csv(report: SuiteReport, baseline: Baseline | None = None) -> str:
    rows = report_rows(report, baseline)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buffer.getvalue()


def render_json(report: SuiteReport, baseline: Baseline | None = None) -> str:
    *suites, total = report_rows(report, baseline)
    data = {"suites": suites, "total": total}
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


RENDERERS = {"markdown": render_markdown, "csv": render_csv, "json": render_json}
REPORT_SUFFIXES = {"markdown": "md", "csv": "csv", "json": "json"}  # report.<suffix> per format


def write_reports(
    run_dir: Path, report: SuiteReport, baseline: Baseline | None = None
) -> dict[str, Path]:
    """Write all three report formats at the run root."""
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fmt, suffix in REPORT_SUFFIXES.items():
        path = run_dir / f"report.{suffix}"
        path.write_text(RENDERERS[fmt](report, baseline), encoding="utf-8")
        paths[fmt] = path
    return paths


def _consistent(record: RunRecord) -> bool:
    """Whether a solved record passed at its last attempt only, and any other passed at none.

    synthesize writes only such records, and every count _check_invariants tests holds for them.
    """
    passes = [attempt for attempt in record.attempts if attempt.outcome.kind is OutcomeKind.PASS]
    if record.final_status is FinalStatus.SOLVED:
        return len(passes) == 1 and passes[0] is record.attempts[-1]
    return not passes


def run_suite(
    tasks: Sequence[SynthesisTask],
    backend: ChatBackend,
    templates: PromptTemplateSet,
    sandbox: SandboxLike,
    run_dir: Path,
    transcript: TranscriptWriter,
    deps_dir: Path | None = None,
    max_followups: int = DEFAULT_MAX_FOLLOWUPS,
    workers: int = DEFAULT_WORKERS,
    resume: bool = False,
) -> list[RunRecord]:
    """Run every task, bounded-parallel; returns records in task id order.

    With resume, tasks whose record already exists are skipped, except
    environment failures, which are retried so a repaired environment can
    fill them in, and records that no longer decode, that name another task
    or suite, or that contradict themselves (see _consistent), which are re-run.
    One worker runs the tasks in the calling thread.
    """
    records: dict[str, RunRecord] = {}
    pending = []
    for task in tasks:
        if resume:
            try:
                existing = load_record(os.path.join(run_dir, task.id, "record.json"))
            except (OSError, ValueError):  # missing, not JSON or not UTF-8, or mistyped
                existing = None
            ours = existing and (existing.task_id, existing.task_suite) == (task.id, task.suite)
            if ours and existing.final_status is not FinalStatus.FAILED_ENVIRONMENT and _consistent(existing):
                records[task.id] = existing
                continue
        pending.append(task)

    def run(task: SynthesisTask) -> RunRecord:
        return synthesize(task, backend, templates, sandbox, run_dir / task.id, transcript, deps_dir, max_followups)

    if pending:
        # One worker is the calling thread, so Ctrl-C stops its task at once. With more, an exception
        # here, Ctrl-C too, makes map cancel the tasks not yet started; the running ones finish.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for record in (map if workers == 1 else pool.map)(run, pending):
                records[record.task_id] = record

    return [records[task.id] for task in tasks]
