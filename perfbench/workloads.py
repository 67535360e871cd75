"""The three workloads: each drives ``apisynth.cli.main(["bench", ...])`` in-process.

All loads are closed loops: ``bench`` runs its own worker pool, and a worker
starts its next task only when the previous one has a verdict. A phase ends
at its deadline: the benchmark wraps the backend the CLI builds, and a task
whose first model call comes after the deadline is refused with a
``BackendError`` before the mock sees it. Refused tasks are not attempted;
they end as environment failures in the program's own report and are left
out of every metric. Tasks already started run to their verdict.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from apisynth import cli
from apisynth.llm import BackendError
from apisynth.refine import load_record, save_record

import generate
import reference
from spans import Tracer, TracedBackend, TracedSandbox, layer_patches, log_exit, patched, self_times

REFUSED = "benchmark deadline reached; task not started"


class BenchmarkError(Exception):
    """The program could not be driven at all (not a wrong verdict)."""


def percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def cpu_seconds() -> float:
    """User+system time of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class DeadlineGate:
    """Wraps a backend and ends a phase at its deadline.

    A task starts at its first model call. With ``cycle`` 1 (one-shot) a task
    may start until the deadline. With a longer cycle (repair-loop's
    REPAIR_CYCLE, run by one worker) a new cycle starts only if the previous
    cycle's duration still fits before the deadline, so that a phase holds
    whole cycles, always at least one, and rarely runs past the deadline.
    Once a task is refused, every later task is refused too.
    """

    def __init__(self, inner, deadline: float, order: dict[str, int], cycle: int) -> None:
        self.inner, self.deadline, self.order, self.cycle = inner, deadline, order, cycle
        self.started: dict[str, float] = {}
        self.closed = False
        self._cycle_start = 0.0
        self._lock = threading.Lock()

    def complete(self, conversation, task_id):
        with self._lock:
            if task_id not in self.started:
                now, index = time.perf_counter(), self.order[task_id]
                if self.cycle == 1:
                    self.closed = self.closed or now >= self.deadline
                elif index % self.cycle == 0 and index > 0:
                    self.closed = self.closed or now + (now - self._cycle_start) > self.deadline
                if self.closed:
                    raise BackendError(REFUSED)
                if index % self.cycle == 0:
                    self._cycle_start = now
                self.started[task_id] = now
        return self.inner.complete(conversation, task_id)


def bench_argv(suite: Path, script: Path, out: Path, run_id: str, workers: int, resume: bool = False) -> list[str]:
    argv = [
        "bench", str(suite),
        "--backend", "mock", "--mock-script", str(script),
        "--out", str(out), "--run-id", run_id,
        "--workers", str(workers), "--max-followups", "3", "--format", "json",
    ]
    return argv + (["--resume"] if resume else [])


@dataclass
class Driven:
    gate: DeadlineGate | None
    wall_s: float
    cpu_s: float  # this process and its children
    child_cpu_s: float


def drive(argv: list[str], tracer: Tracer | None, seconds: float = float("inf"),
          order: dict[str, int] | None = None, cycle: int = 1) -> Driven:
    """Run one ``bench`` command in-process, with its stdout captured."""
    gates: list[DeadlineGate] = []
    make_backend, make_sandbox = cli.make_backend, cli.make_sandbox

    def backend_factory(*args, **kwargs):
        backend = make_backend(*args, **kwargs)
        if tracer is not None:
            backend = TracedBackend(backend, tracer)
        gates.append(DeadlineGate(backend, time.perf_counter() + seconds, order or {}, cycle))
        return gates[-1]

    def sandbox_factory(*args, **kwargs):
        sandbox = make_sandbox(*args, **kwargs)
        return TracedSandbox(sandbox, tracer) if tracer is not None else sandbox

    replacements = [(cli, "make_backend", backend_factory), (cli, "make_sandbox", sandbox_factory)]
    if tracer is not None:
        replacements += layer_patches(tracer)
    captured = io.StringIO()
    with patched(replacements):
        cpu0, kids0, t0 = cpu_seconds(), children_cpu_seconds(), time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu, kids = cpu_seconds() - cpu0, children_cpu_seconds() - kids0
    if code not in (0, 1):
        raise BenchmarkError(f"apisynth {' '.join(argv[:2])} exited with {code}")
    return Driven(gates[0] if gates else None, wall, cpu, kids)


# ---------------------------------------------------------------------------
# Checking the program's records against the generator's expectations
# ---------------------------------------------------------------------------


def observed(record) -> dict:
    return {
        "final_status": record.final_status.value,
        "attempts": [
            (a.outcome.kind.value, sorted(a.outcome.failing_ordinals) if a.outcome.kind.value == "failing_tests" else [])
            for a in record.attempts
        ],
    }


def expected(exp: dict) -> dict:
    return {"final_status": exp["final_status"], "attempts": [(a["kind"], a["ordinals"]) for a in exp["attempts"]]}


def known_defect_verdict(exp: dict) -> dict:
    """What the classifier does today with a known-defect task: the last attempt passes."""
    attempts = [(a["kind"], a["ordinals"]) for a in exp["attempts"]]
    return {"final_status": "solved", "attempts": attempts[:-1] + [("pass", [])]}


@dataclass
class Verdicts:
    attempted: int = 0
    matched: int = 0
    known_defects: int = 0  # wrong the way ROADMAP item 3 describes
    unexpected: list[str] = field(default_factory=list)  # wrong any other way
    environment: int = 0  # no verdict reached

    @property
    def errors(self) -> int:
        return self.attempted - self.matched


def check_records(run_dir: Path, task_ids: list[str], expectations: dict[str, dict]) -> tuple[Verdicts, dict, dict]:
    """Compare records with expectations; also count JVM launches and model calls per the artifacts."""
    verdicts = Verdicts()
    counts = {"javac": 0, "java": 0, "javac_expected": 0, "java_expected": 0, "timeouts": 0}
    records = {}
    for task_id in task_ids:
        verdicts.attempted += 1
        exp = expectations[task_id]
        record = load_record(run_dir / task_id / "record.json")
        records[task_id] = record
        got = observed(record)
        if record.final_status.value == "failed_environment":
            verdicts.environment += 1
            verdicts.unexpected.append(f"{task_id}: environment failure: {record.error}")
        elif got == expected(exp):
            verdicts.matched += 1
        elif exp["known_defect"] and got == known_defect_verdict(exp):
            verdicts.known_defects += 1
        else:
            verdicts.unexpected.append(f"{task_id}: {exp['scenario']}: expected {expected(exp)}, got {got}")
        for index, attempt in enumerate(exp["attempts"], start=1):
            workdir = run_dir / task_id / f"attempt-{index}"
            javac, java = log_exit(workdir / "compile.log"), log_exit(workdir / "run.log")
            counts["javac"] += javac is not None
            counts["java"] += java is not None
            counts["javac_expected"] += attempt["javac"]
            counts["java_expected"] += attempt["java"]
            counts["timeouts"] += any(log and log[1] for log in (javac, java))
    return verdicts, counts, records


# ---------------------------------------------------------------------------
# Task workloads: one-shot and repair-loop
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed ``bench`` run produced, restricted to attempted tasks."""

    run_dir: Path
    task_ids: list[str]
    window_s: float
    cpu_s: float
    child_cpu_s: float
    wall_times: list[float]
    verdicts: Verdicts
    counts: dict
    records: dict
    llm_calls: int
    llm_calls_expected: int
    artifact_bytes: int
    tracer: Tracer | None = None

    @property
    def tasks_per_s(self) -> float:
        return len(self.task_ids) / self.window_s


def run_task_phase(work: Path, name: str, suite: Path, script: Path, tasks: list, workers: int,
                   seconds: float, tracer: Tracer | None = None, cycle: int = 1) -> Phase:
    out = work / "runs"
    order = {t.task_id: i for i, t in enumerate(tasks)}
    driven = drive(bench_argv(suite, script, out, name, workers), tracer, seconds, order, cycle)
    run_dir = out / name
    starts = driven.gate.started
    task_ids = sorted(starts)
    if not task_ids:
        raise BenchmarkError("no task started before the deadline")
    expectations = {t.task_id: t.expectation() for t in tasks}
    verdicts, counts, records = check_records(run_dir, task_ids, expectations)
    ends = [starts[t] + records[t].wall_time_seconds for t in task_ids]
    transcript = run_dir / "transcript.jsonl"
    calls = sum(1 for _ in transcript.open(encoding="utf-8")) if transcript.is_file() else 0
    return Phase(
        run_dir=run_dir,
        task_ids=task_ids,
        window_s=max(ends) - min(starts.values()),
        cpu_s=driven.cpu_s,
        child_cpu_s=driven.child_cpu_s,
        wall_times=[records[t].wall_time_seconds for t in task_ids],
        verdicts=verdicts,
        counts=counts,
        records=records,
        llm_calls=calls,
        llm_calls_expected=sum(len(expectations[t]["attempts"]) for t in task_ids),
        artifact_bytes=tree_bytes(transcript) + sum(tree_bytes(run_dir / t) for t in task_ids),
        tracer=tracer,
    )


def input_properties(phase: Phase, tasks: list) -> dict:
    """What the attempted tasks looked like: the properties BENCHMARK.json quotes."""
    by_id = {t.task_id: t for t in tasks}
    kinds: dict[str, int] = {}
    replies, evaluated, repeated = [], 0, 0
    for task_id in phase.task_ids:
        record = phase.records[task_id]
        replies += [len(r) for r in by_id[task_id].replies[: len(record.attempts)]]
        seen = set()
        for attempt in record.attempts:
            kinds[attempt.outcome.kind.value] = kinds.get(attempt.outcome.kind.value, 0) + 1
            sources = sorted((phase.run_dir / task_id / f"attempt-{attempt.index}").glob("*.java"))
            if sources:
                text = sources[0].read_text(encoding="utf-8")
                evaluated += 1
                repeated += text in seen
                seen.add(text)
    attempts = sum(kinds.values())
    n = len(phase.task_ids)
    return {
        "attempts_per_task": attempts / n,
        "outcome_mix": {k: v / attempts for k, v in sorted(kinds.items())},
        "repeat_source_share": repeated / evaluated if evaluated else 0.0,
        "reply_chars_mean": statistics.mean(replies),
        "known_defect_share": sum(1 for t in phase.task_ids if by_id[t].known_defect) / n,
    }


def phase_problems(phase: Phase) -> list[str]:
    problems = list(phase.verdicts.unexpected)
    c = phase.counts
    if c["javac"] != c["javac_expected"]:
        problems.append(f"javac launches {c['javac']} != expected {c['javac_expected']}")
    if c["java"] != c["java_expected"]:
        problems.append(f"java launches {c['java']} != expected {c['java_expected']}")
    if phase.llm_calls != phase.llm_calls_expected:
        problems.append(f"model calls {phase.llm_calls} != expected {phase.llm_calls_expected}")
    if c["timeouts"]:
        problems.append(f"{c['timeouts']} child process timeouts")
    return problems


TASKS_PER_SECOND_CAP = {"one-shot": 16, "repair-loop": 6}
WORKERS = {"one-shot": 2, "repair-loop": 1}
CYCLE = {"one-shot": 1, "repair-loop": len(generate.REPAIR_CYCLE)}


@dataclass
class Prepared:
    suite: Path
    script: Path
    tasks: list
    workers: int
    cycle: int

    def run(self, work: Path, name: str, seconds: float, tracer: Tracer | None = None) -> Phase:
        return run_task_phase(work, name, self.suite, self.script, self.tasks, self.workers, seconds, tracer,
                              self.cycle)


def prepare_tasks(work: Path, workload: str, seed: int, seconds: int, nproc: int) -> Prepared:
    """Write the measured suite and run an untimed warm-up."""
    # More tasks than the phase can take even on a much faster program; the
    # deadline, not the suite size, ends the phase.
    tasks = generate.workload_tasks(workload, seed, TASKS_PER_SECOND_CAP[workload] * seconds + 20)
    suite, script = generate.write_suite(work / "input", tasks)
    warm = generate.workload_tasks("one-shot", seed, min(2, nproc), prefix="w")
    warm_suite, warm_script = generate.write_suite(work / "warmup", warm)
    phase = run_task_phase(work / "warmup", "warmup", warm_suite, warm_script, warm, min(2, nproc), 600.0)
    problems = phase_problems(phase)
    if problems:
        raise BenchmarkError("warm-up failed: " + "; ".join(problems[:3]))
    return Prepared(suite, script, tasks, min(WORKERS[workload], nproc), CYCLE[workload])


def task_end_to_end(phase: Phase) -> tuple[dict, dict]:
    """End-to-end metrics of a task phase, and the sample count of each."""
    n = len(phase.task_ids)
    values = {
        "tasks_per_s": phase.tasks_per_s,
        "op_s_p50": percentile(phase.wall_times, 50),
        "op_s_p90": percentile(phase.wall_times, 90),
        "cpu_s_per_task": phase.cpu_s / n,
        "artifact_kb_per_task": phase.artifact_bytes / 1024 / n,
        "verdict_match_rate": phase.verdicts.matched / n,
    }
    return values, {"op_s_p50": n, "op_s_p90": n}


def task_layers(phase: Phase, workers: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced task phase."""
    real = set(phase.task_ids)
    spans = [s for s in phase.tracer.spans if s["request_id"] in real or s["request_id"] is None]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    evaluate = by_name.get("sandbox.evaluate", [])
    compile_s = [s["compile_s"] for s in evaluate if s["compile_s"] is not None]
    run_s = [s["run_s"] for s in evaluate if s["run_s"] is not None]
    overhead = [
        (s["end"] - s["start"]) - (s["compile_s"] or 0.0) - (s["run_s"] or 0.0)
        for s in evaluate if s["compile_s"] is not None
    ]
    calls = by_name.get("llm.complete", [])
    extracts = by_name.get("extractor.extract", [])
    records = [phase.records[t] for t in phase.task_ids]
    attempts = sum(len(r.attempts) for r in records)
    stops = {
        status: sum(r.final_status.value == status for r in records)
        for status in ("solved", "failed_budget", "failed_same_error", "failed_extraction", "failed_environment")
    }
    busy = sum(durations("refine.synthesize"))
    transcript = phase.run_dir / "transcript.jsonl"
    out = {
        "sandbox.compile_s_p50": percentile(compile_s, 50),
        "sandbox.compile_s_p95": percentile(compile_s, 95),
        "sandbox.javac_launches": len(compile_s),
        "sandbox.child_cpu_s_per_call": phase.child_cpu_s / len(evaluate) if evaluate else 0.0,
        "sandbox.run_s_p50": percentile(run_s, 50),
        "sandbox.run_s_p95": percentile(run_s, 95),
        "sandbox.java_launches": len(run_s),
        "sandbox.evaluate_s_p50": percentile(durations("sandbox.evaluate"), 50),
        "sandbox.evaluate_s_p95": percentile(durations("sandbox.evaluate"), 95),
        "sandbox.overhead_s_p50": percentile(overhead, 50),
        "sandbox.timeouts": sum(1 for s in evaluate if s["timed_out"]),
        "sandbox.repeat_source_share": sum(1 for s in evaluate if s["repeat_source"]) / len(evaluate) if evaluate else 0.0,
        "llm.calls": len(calls),
        "llm.complete_s_p50": percentile(durations("llm.complete"), 50),
        "llm.complete_s_p95": percentile(durations("llm.complete"), 95),
        "llm.transcript_bytes_per_call": tree_bytes(transcript) / len(calls) if calls else 0.0,
        "prompting.request_chars_p50": percentile([s["request_chars"] for s in calls], 50),
        "prompting.request_chars_max": max((s["request_chars"] for s in calls), default=0),
        "prompting.followups": len(by_name.get("prompting.build_followup", [])),
        "prompting.build_initial_s_p50": percentile(durations("prompting.build_initial"), 50),
        "extractor.calls": len(extracts),
        "extractor.extract_s_p50": percentile(durations("extractor.extract"), 50),
        "extractor.extract_s_p95": percentile(durations("extractor.extract"), 95),
        "extractor.failures": sum(1 for s in extracts if s.get("error") == "ExtractionError"),
        "extractor.response_chars_p50": percentile([s["response_chars"] for s in extracts], 50),
        "refine.attempts_per_task": attempts / len(records),
        "refine.self_s_p50": percentile(self_times(spans, "refine.synthesize"), 50),
        "refine.save_record_s_p50": percentile(durations("refine.save_record"), 50),
        "refine.solved_per_attempt": stops["solved"] / attempts,
        "bench.worker_busy_ratio": busy / (workers * phase.window_s),
        "bench.load_record_s_p50": percentile(durations("bench.load_record"), 50),
        "bench.aggregate_s": median(durations("bench.aggregate")),
        "bench.write_reports_s": median(durations("bench.write_reports")),
        "tasks.load_suite_s": median(durations("tasks.load_suite")),
    }
    for kind in ("pass", "compile_error", "runtime_error", "failing_tests"):
        out[f"sandbox.outcomes.{kind}"] = sum(1 for s in evaluate if s["kind"] == kind)
    for status, count in stops.items():
        out[f"refine.stop.{status}"] = count
    samples = {
        "sandbox.compile_s": len(compile_s), "sandbox.run_s": len(run_s), "sandbox.evaluate_s": len(evaluate),
        "llm.complete_s": len(calls), "extractor.extract_s": len(extracts),
        "prompting.build_initial_s": len(by_name.get("prompting.build_initial", [])),
        "refine.self_s": len(records), "refine.save_record_s": len(by_name.get("refine.save_record", [])),
        "bench.load_record_s": len(by_name.get("bench.load_record", [])),
    }
    problems = []
    c = phase.counts
    for label, got, want in (("javac launches", len(compile_s), c["javac_expected"]),
                             ("java launches", len(run_s), c["java_expected"]),
                             ("model calls", len(calls), phase.llm_calls_expected)):
        if got != want:
            problems.append(f"traced {label} {got} != expected {want}")
    for s in evaluate:
        # Log durations are rounded to 10 ms each, so allow 10 ms of slack.
        if (s["compile_s"] or 0.0) + (s["run_s"] or 0.0) > (s["end"] - s["start"]) + 0.01:
            problems.append(f"compile+run from logs exceeds the evaluate span in {s['request_id']}")
    return out, samples, problems


# ---------------------------------------------------------------------------
# resume-report
# ---------------------------------------------------------------------------

RESUME_RECORDS = 2000


@dataclass
class ResumeData:
    suite: Path
    script: Path
    out: Path
    run_id: str
    expectations: dict[str, dict]  # task id -> the expectation of the template it copies
    expected_rows: dict

    @property
    def records(self) -> int:
        return len(self.expectations)


def _report_rows(report: dict) -> dict:
    keys = ("tasks", "compiled_no_followups", "passed_no_followups", "compiled_with_followups",
            "passed_with_followups", "environment_failures")
    rows = {row["suite"]: {k: row[k] for k in keys} for row in report["suites"]}
    rows["Total"] = {k: report["total"][k] for k in keys}
    return rows


def _expected_row(exps: list[dict]) -> dict:
    kinds = [[a["kind"] for a in e["attempts"]] for e in exps]
    return {
        "tasks": len(exps),
        "compiled_no_followups": sum(k[0] != "compile_error" for k in kinds),
        "passed_no_followups": sum(k[0] == "pass" for k in kinds),
        "compiled_with_followups": sum(any(x != "compile_error" for x in k) for k in kinds),
        "passed_with_followups": sum(e["final_status"] == "solved" for e in exps),
        "environment_failures": 0,
    }


def prepare_resume(work: Path, seed: int, nproc: int) -> ResumeData:
    """Run the template tasks for real (this is also the warm-up), then fan their records out."""
    templates = generate.template_tasks(seed)
    suite, script = generate.write_suite(work / "templates", templates)
    phase = run_task_phase(work / "templates", "templates", suite, script, templates, min(2, nproc), 600.0)
    problems = phase_problems(phase)
    if problems:
        raise BenchmarkError("template run failed: " + "; ".join(problems[:3]))

    resume_suite = work / "resume" / "suite"
    resume_suite.mkdir(parents=True)
    out, run_id = work / "resume" / "runs", "resumed"
    by_suite: dict[str, list[dict]] = {}
    expectations = {}
    for i, task in enumerate(generate.resume_task_json(seed, RESUME_RECORDS)):
        (resume_suite / f"{task['id']}.json").write_text(json.dumps(task, indent=2) + "\n", encoding="utf-8")
        template = templates[i % len(templates)]
        record = dataclasses.replace(phase.records[template.task_id], task_id=task["id"], task_suite=task["suite"])
        save_record(record, out / run_id / task["id"] / "record.json")
        expectations[task["id"]] = template.expectation()
        by_suite.setdefault(task["suite"], []).append(expectations[task["id"]])
    rows = {name: _expected_row(exps) for name, exps in by_suite.items()}
    rows["Total"] = _expected_row(list(expectations.values()))
    script = work / "resume" / "mock-script.json"
    script.write_text("{}\n", encoding="utf-8")
    return ResumeData(resume_suite, script, out, run_id, expectations, rows)


@dataclass
class ResumePhase:
    op_times: list[float]  # wall seconds of each pass, as measured
    scales: list[float]  # reference.scale() around each pass
    cpu_times: list[float]
    matched: int
    tracer: Tracer | None

    @property
    def adjusted_op_times(self) -> list[float]:
        return [t * k for t, k in zip(self.op_times, self.scales)]


def run_resume_phase(data: ResumeData, workers: int, seconds: float, tracer: Tracer | None = None) -> ResumePhase:
    argv = bench_argv(data.suite, data.script, data.out, data.run_id, workers, resume=True)
    report_path = data.out / data.run_id / "report.json"
    phase = ResumePhase([], [], [], 0, tracer)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(phase.op_times) < 3:
        before = reference.reference_seconds()
        driven = drive(argv, tracer)
        phase.scales.append(reference.scale(before, reference.reference_seconds()))
        phase.op_times.append(driven.wall_s)
        phase.cpu_times.append(driven.cpu_s)
        phase.matched += _report_rows(json.loads(report_path.read_text(encoding="utf-8"))) == data.expected_rows
    return phase


def check_resumed_records(data: ResumeData) -> list[str]:
    """Read every record back once and compare it with its template's expectation."""
    problems = []
    for task_id, exp in data.expectations.items():
        got = observed(load_record(data.out / data.run_id / task_id / "record.json"))
        if got != expected(exp):
            problems.append(f"{task_id}: read back {got}, expected {expected(exp)}")
    return problems


def resume_end_to_end(phase: ResumePhase, data: ResumeData) -> tuple[dict, dict]:
    """End-to-end metrics of resume passes, in reference-adjusted seconds."""
    passes, ops = len(phase.op_times), phase.adjusted_op_times
    values = {
        "tasks_per_s": data.records * passes / sum(ops),
        "op_s_p50": percentile(ops, 50),
        "op_s_p90": percentile(ops, 90),
        "cpu_s_per_task": sum(c * k for c, k in zip(phase.cpu_times, phase.scales)) / (data.records * passes),
        "artifact_kb_per_task": tree_bytes(data.out / data.run_id) / 1024 / data.records,
        "verdict_match_rate": phase.matched / passes,
    }
    return values, {"op_s_p50": passes, "op_s_p90": passes}


def resume_layers(phase: ResumePhase) -> tuple[dict, dict]:
    by_name: dict[str, list[float]] = {}
    for span in phase.tracer.spans:
        by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
    loads = by_name.get("bench.load_record", [])
    out = {
        "bench.load_record_s_p50": percentile(loads, 50),
        "bench.aggregate_s": median(by_name.get("bench.aggregate", [])),
        "bench.write_reports_s": median(by_name.get("bench.write_reports", [])),
        "tasks.load_suite_s": median(by_name.get("tasks.load_suite", [])),
    }
    return out, {"bench.load_record_s": len(loads), "passes": len(phase.op_times)}
