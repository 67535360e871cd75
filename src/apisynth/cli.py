"""Command-line interface: synth, bench, and validate subcommands.

Each setting is its flag, else ``APISYNTH_<DEST>`` (the flag's dest
upper-cased), else the default of the library call it is passed to.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from pathlib import Path

from .bench import DEFAULT_WORKERS, aggregate, RENDERERS, load_baseline, run_suite, write_reports
from .llm import BackendConfig, BackendError, ConfigError, TranscriptWriter, make_backend
from .prompting import (
    PromptError,
    build_initial_conversation,
    format_ordinals,
    load_templates,
    render_conversation_text,
)
from .refine import FinalStatus, RunRecord, synthesize
from .sandbox import CompilerPool, ParkedPool, Sandbox, ToolchainError, usable_cores
from .tasks import (
    TaskError,
    is_path_segment,
    load_suite,
    load_task,
    parse_task_file,
    resolve_dependencies,
    structural_violations,
    task_files,
)
from .verdict import OutcomeKind

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_ENVIRONMENT = 2

# Every command builds its sandbox through this name, which perfbench rebinds to wrap it.
make_sandbox = Sandbox


def _setting(args: argparse.Namespace, dest: str, cast=str):
    """--<dest> when given, else APISYNTH_<DEST> cast like the flag, else None."""
    value = getattr(args, dest, None)
    if value is not None:
        return value
    name = "APISYNTH_" + dest.upper()
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}={raw!r} is not valid: {exc}") from exc


def _path(args: argparse.Namespace, dest: str) -> Path | None:
    value = _setting(args, dest)
    return Path(value) if value else None


def _given(**values) -> dict:
    """The settings that were set; the others keep the callee's defaults."""
    return {name: value for name, value in values.items() if value is not None}


def _backend_config(args: argparse.Namespace) -> BackendConfig:
    return BackendConfig(
        **_given(
            kind=_setting(args, "backend"),
            model=_setting(args, "model"),
            temperature=_setting(args, "temperature", float),
            endpoint_url=_setting(args, "endpoint"),
            credential_source=_setting(args, "credential_env") or None,
        )
    )


def _at_least(args: argparse.Namespace, dest: str, low: int) -> int | None:
    value = _setting(args, dest, int)
    if value is not None and value < low:
        raise ConfigError(f"{dest.replace('_', '-')} must be >= {low}, got {value}")
    return value


def _timeouts(args: argparse.Namespace) -> dict:
    timeouts = _given(
        compile_timeout=_setting(args, "compile_timeout", float),
        run_timeout=_setting(args, "run_timeout", float),
    )
    if not all(timeout > 0 for timeout in timeouts.values()):  # false for nan too
        raise ConfigError("timeouts must be positive")
    if math.inf in timeouts.values():  # it would leave a child with no bound
        raise ConfigError("timeouts must be finite")
    return timeouts


def _latest_run(out_dir: Path) -> str:
    runs = [p for p in out_dir.iterdir() if p.is_dir()] if out_dir.is_dir() else []
    if not runs:
        raise ConfigError(f"--resume needs an existing run under {out_dir}")
    return max(runs, key=lambda p: (p.stat().st_mtime, p.name)).name


def _run_dir(args: argparse.Namespace, resume: bool = False) -> Path:
    out = _setting(args, "out")
    out_dir = Path("runs" if out is None else out)
    run_id = _setting(args, "run_id")
    if run_id is None:
        run_id = _latest_run(out_dir) if resume else time.strftime("%Y%m%d-%H%M%S")
    if not is_path_segment(run_id):
        raise ConfigError(f"run id must be a non-empty path segment, got {run_id!r}")
    return out_dir / run_id


def _exit_code(records: list[RunRecord]) -> int:
    """synth's and bench's exit code: 2 when no record reached a verdict, 0 when every verdict is solved, else 1."""
    verdicts = [r for r in records if r.final_status is not FinalStatus.FAILED_ENVIRONMENT]
    if not verdicts:
        return EXIT_ENVIRONMENT
    if all(r.final_status is FinalStatus.SOLVED for r in verdicts):
        return EXIT_OK
    return EXIT_TASK_FAILED


def _print_record(record: RunRecord) -> None:
    if record.final_status is FinalStatus.SOLVED:
        n = len(record.attempts)
        print(f"solved in {n} attempt{'s' if n != 1 else ''}")
    else:
        suffix = f" ({record.error})" if record.error else ""
        print(f"not solved: {record.final_status.value}{suffix}")
    for attempt in record.attempts:
        line = f"  attempt {attempt.index}: {attempt.outcome.kind.value}"
        if attempt.outcome.kind is OutcomeKind.FAILING_TESTS:
            line += f" ({format_ordinals(attempt.outcome.failing_ordinals)})"
        elif attempt.outcome.detail:
            detail = attempt.outcome.detail
            line += f" ({detail[:120]}{'...' if len(detail) > 120 else ''})"
        print(line)


@contextlib.contextmanager
def warm_sandbox(workers: int, **timeouts):
    """make_sandbox's sandbox with the command's compile servers and parked JVMs, reaped on exit.

    The command, not the sandbox (make_sandbox's result may be a wrapper),
    owns the JVMs, which start from the process's helper classes (built at
    its first compile or parked run). It parks only while its workers leave
    a core idle: a spare boots on a core that no worker is busy on. With a
    worker on every core, a spare is often taken still booting: on 2 cores,
    2 workers parking ran 10% more tasks/s at a 9% lower p50, but their
    slowest tenth of tasks 19% slower than a cold java per run (perfbench
    one-shot, 4 pair medians). With the cheaper boots of today's
    CANDIDATE_JVM_FLAGS (C1 only), parking ran 25.7 against 22.5 tasks/s at
    a p50 of 0.065 against 0.078 s, and the slowest tenth still 5% slower,
    0.102 against 0.096 s (5 pair medians).
    """
    with CompilerPool() as compilers, ParkedPool() as parked:
        yield make_sandbox(compilers=compilers, parked=parked if workers < usable_cores() else None, **timeouts)


def cmd_synth(args: argparse.Namespace) -> int:
    backend_config = _backend_config(args)
    max_followups = _at_least(args, "max_followups", 0)
    timeouts = _timeouts(args)
    run_dir = _run_dir(args)
    task = load_task(Path(args.task))
    templates = load_templates(_path(args, "prompts"))

    if args.dry_run:
        conversation = build_initial_conversation(task, templates)
        sys.stdout.write(render_conversation_text(conversation))
        return EXIT_OK

    transcript = TranscriptWriter(run_dir / "transcript.jsonl", backend_config.model)
    backend = make_backend(backend_config, _path(args, "mock_script"))
    with warm_sandbox(workers=1, **timeouts) as sandbox:
        record = synthesize(
            task,
            backend,
            templates,
            sandbox,
            run_dir / task.id,
            transcript,
            _path(args, "deps"),
            **_given(max_followups=max_followups),
        )
    _print_record(record)
    return _exit_code([record])


def cmd_bench(args: argparse.Namespace) -> int:
    backend_config = _backend_config(args)
    workers = _at_least(args, "workers", 1)
    max_followups = _at_least(args, "max_followups", 0)
    timeouts = _timeouts(args)
    run_dir = _run_dir(args, args.resume)
    tasks = load_suite(Path(args.suite))
    templates = load_templates(_path(args, "prompts"))
    baseline_path = _path(args, "baseline")
    baseline = load_baseline(baseline_path) if baseline_path else None
    output_format = _setting(args, "format")
    if output_format is None:
        output_format = "markdown"
    if output_format not in RENDERERS:
        raise ConfigError(f"unknown report format {output_format!r}")

    transcript = TranscriptWriter(run_dir / "transcript.jsonl", backend_config.model)
    backend = make_backend(backend_config, _path(args, "mock_script"))
    with warm_sandbox(workers or DEFAULT_WORKERS, **timeouts) as sandbox:
        records = run_suite(
            tasks,
            backend,
            templates,
            sandbox,
            run_dir,
            transcript,
            deps_dir=_path(args, "deps"),
            resume=args.resume,
            **_given(max_followups=max_followups, workers=workers),
        )
    report = aggregate(records)
    write_reports(run_dir, report, baseline)
    sys.stdout.write(RENDERERS[output_format](report, baseline))

    code = _exit_code(records)
    if code == EXIT_ENVIRONMENT:
        print("error: no task reached a verdict", file=sys.stderr)
    return code


def cmd_validate(args: argparse.Namespace) -> int:
    deps_dir = _path(args, "deps")
    where = deps_dir if deps_dir is not None else "an unconfigured dependency directory"
    failed = unparsed = False
    seen: dict[str, Path] = {}
    for file in task_files(Path(args.path)):
        try:
            task = parse_task_file(file)
        except TaskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            unparsed = True
            continue
        violations = structural_violations(task)
        _, missing = resolve_dependencies(task, deps_dir)
        violations += [f"dependency '{dep}' does not resolve under {where}" for dep in missing]
        if task.id in seen:
            violations.append(f"duplicate task id (first seen in {seen[task.id]})")
        seen.setdefault(task.id, file)
        if violations:
            failed = True
            for violation in violations:
                print(f"{task.id}: {violation}")
        else:
            print(f"{task.id}: ok")
    if unparsed:
        return EXIT_ENVIRONMENT
    return EXIT_TASK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apisynth",
        description="Synthesize Java method implementations from signatures and test cases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=["http", "mock"], help="model backend kind")
        p.add_argument("--model", help="model name sent to the backend")
        p.add_argument("--temperature", type=float, help="sampling temperature (0..2)")
        p.add_argument("--endpoint", help="chat-completions endpoint base URL")
        p.add_argument("--prompts", metavar="DIR", help="prompt template directory")
        p.add_argument("--deps", metavar="DIR", help="dependency archive directory")
        p.add_argument("--max-followups", type=int, help="follow-up budget per task")
        p.add_argument("--compile-timeout", type=float, metavar="S", help="javac timeout")
        p.add_argument("--run-timeout", type=float, metavar="S", help="java timeout")
        p.add_argument("--out", metavar="DIR", help="root directory for run artifacts")
        p.add_argument("--mock-script", metavar="FILE", help="scripted responses for --backend mock")
        p.add_argument("--run-id", help="run directory name (default: timestamp)")

    synth = sub.add_parser("synth", help="synthesize one task")
    synth.add_argument("task", help="path to a task JSON file")
    synth.add_argument(
        "--dry-run",
        action="store_true",
        help="print the fully rendered initial prompt and exit without contacting a backend",
    )
    add_common(synth)
    synth.set_defaults(func=cmd_synth)

    bench = sub.add_parser("bench", help="run a whole suite and write reports")
    bench.add_argument("suite", help="path to a directory of task JSON files")
    bench.add_argument("--workers", type=int, help="parallel tasks")
    bench.add_argument("--resume", action="store_true", help="skip tasks with existing records")
    bench.add_argument("--baseline", metavar="FILE", help="baseline JSON for an extra column")
    bench.add_argument("--format", choices=list(RENDERERS), help="stdout format")
    add_common(bench)
    bench.set_defaults(func=cmd_bench)

    validate = sub.add_parser("validate", help="check task files without running anything")
    validate.add_argument("path", help="task file or directory")
    validate.add_argument("--deps", metavar="DIR", help="dependency archive directory")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BackendError, ToolchainError, TaskError, PromptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
