"""Command-line interface: synth, bench, and validate subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import aggregate, RENDERERS, load_baseline, run_suite, write_reports
from .config import ConfigError, RunConfig, env_value
from .llm import BackendConfig, BackendError, TranscriptWriter, make_backend
from .prompting import (
    PromptError,
    build_initial_conversation,
    format_ordinals,
    load_templates,
    render_conversation_text,
)
from .refine import FinalStatus, RunRecord, make_sandbox, synthesize
from .sandbox import OutcomeKind, ToolchainError
from .tasks import (
    TaskParseError,
    TaskValidationError,
    load_suite,
    parse_task_file,
    resolve_dependencies,
    resolve_dependency,
    structural_violations,
    validate_task,
)

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_ENVIRONMENT = 2


def _resolve(flag, env_name: str, cast=None):
    """The explicit flag, else APISYNTH_<env_name>, else None so the default applies."""
    if flag is not None:
        return flag
    raw = env_value(env_name)
    if raw is None or cast is None:
        return raw
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"APISYNTH_{env_name}={raw!r} is not valid: {exc}") from exc


def _given(**values) -> dict:
    return {name: value for name, value in values.items() if value is not None}


def _latest_run(out_dir: Path) -> str:
    runs = [p for p in out_dir.iterdir() if p.is_dir()] if out_dir.is_dir() else []
    if not runs:
        raise ConfigError(f"--resume needs an existing run under {out_dir}")
    return max(runs, key=lambda p: (p.stat().st_mtime, p.name)).name


def _build_config(args: argparse.Namespace) -> RunConfig:
    out = _resolve(args.out, "OUT")
    prompts = _resolve(args.prompts, "PROMPTS")
    deps = _resolve(args.deps, "DEPS")
    mock_script = _resolve(args.mock_script, "MOCK_SCRIPT")
    run_id = _resolve(getattr(args, "run_id", None), "RUN_ID")
    resume = bool(getattr(args, "resume", False))
    backend = BackendConfig(
        **_given(
            kind=_resolve(args.backend, "BACKEND"),
            model=_resolve(args.model, "MODEL"),
            temperature=_resolve(args.temperature, "TEMPERATURE", float),
            endpoint_url=_resolve(args.endpoint, "ENDPOINT"),
            credential_source=env_value("CREDENTIAL_ENV") or None,
        )
    )
    config = RunConfig(
        backend=backend,
        prompts_dir=Path(prompts) if prompts else None,
        deps_dir=Path(deps) if deps else None,
        mock_script=Path(mock_script) if mock_script else None,
        resume=resume,
        **_given(
            out_dir=None if out is None else Path(out),
            run_id=run_id,
            workers=_resolve(getattr(args, "workers", None), "WORKERS", int),
            compile_timeout=_resolve(args.compile_timeout, "COMPILE_TIMEOUT", float),
            run_timeout=_resolve(args.run_timeout, "RUN_TIMEOUT", float),
            max_followups=_resolve(args.max_followups, "MAX_FOLLOWUPS", int),
        ),
    )
    if resume and run_id is None:
        config = dataclasses.replace(config, run_id=_latest_run(config.out_dir))
    return config


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


def cmd_synth(args: argparse.Namespace) -> int:
    config = _build_config(args)
    task = parse_task_file(Path(args.task))
    violations = structural_violations(task)
    if violations:
        for violation in violations:
            print(f"error: {task.id}: {violation}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    templates = load_templates(config.prompts_dir)

    if args.dry_run:
        conversation = build_initial_conversation(task, templates)
        sys.stdout.write(render_conversation_text(conversation))
        return EXIT_OK

    unresolved = [d for d in task.dependencies if resolve_dependency(d, config.deps_dir) is None]
    if unresolved:
        for dep in unresolved:
            print(f"error: dependency '{dep}' does not resolve", file=sys.stderr)
        return EXIT_ENVIRONMENT
    classpath = resolve_dependencies(task, config.deps_dir)

    run_dir = config.run_dir
    transcript = TranscriptWriter(run_dir / "transcript.jsonl")
    backend = make_backend(config.backend, transcript, config.mock_script)
    sandbox = make_sandbox(config.compile_timeout, config.run_timeout)
    record = synthesize(
        task, backend, templates, sandbox, run_dir / task.id, classpath, config.max_followups
    )
    _print_record(record)
    if record.final_status is FinalStatus.SOLVED:
        return EXIT_OK
    if record.final_status is FinalStatus.FAILED_ENVIRONMENT:
        return EXIT_ENVIRONMENT
    return EXIT_TASK_FAILED


def cmd_bench(args: argparse.Namespace) -> int:
    config = _build_config(args)
    suite = load_suite(Path(args.suite))
    templates = load_templates(config.prompts_dir)
    baseline_path = _resolve(args.baseline, "BASELINE")
    baseline = load_baseline(Path(baseline_path)) if baseline_path else None
    output_format = _resolve(args.format, "FORMAT")
    if output_format is None:
        output_format = "markdown"
    if output_format not in RENDERERS:
        raise ConfigError(f"unknown report format {output_format!r}")

    run_dir = config.run_dir
    transcript = TranscriptWriter(run_dir / "transcript.jsonl")
    backend = make_backend(config.backend, transcript, config.mock_script)
    sandbox = make_sandbox(config.compile_timeout, config.run_timeout)

    records = run_suite(
        suite,
        backend,
        templates,
        sandbox,
        run_dir,
        deps_dir=config.deps_dir,
        max_followups=config.max_followups,
        workers=config.workers,
        resume=config.resume,
    )
    report = aggregate(records)
    write_reports(run_dir, report, baseline)
    sys.stdout.write(RENDERERS[output_format](report, baseline))

    verdicts = [r for r in records if r.final_status is not FinalStatus.FAILED_ENVIRONMENT]
    if all(r.final_status is FinalStatus.SOLVED for r in verdicts):
        return EXIT_OK
    return EXIT_TASK_FAILED


def cmd_validate(args: argparse.Namespace) -> int:
    deps = _resolve(args.deps, "DEPS")
    deps_dir = Path(deps) if deps else None
    path = Path(args.path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise ConfigError(f"{path}: no task files found")
    else:
        files = [path]

    failed = False
    seen: dict[str, Path] = {}
    for file in files:
        task = parse_task_file(file)
        violations = validate_task(task, deps_dir)
        if task.id in seen:
            violations.append(f"duplicate task id (first seen in {seen[task.id]})")
        seen.setdefault(task.id, file)
        if violations:
            failed = True
            for violation in violations:
                print(f"{task.id}: {violation}")
        else:
            print(f"{task.id}: ok")
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
    bench.add_argument("--workers", type=int, help="parallel tasks (default 4)")
    bench.add_argument("--resume", action="store_true", help="skip tasks with existing records")
    bench.add_argument("--baseline", metavar="FILE", help="baseline JSON for an extra column")
    bench.add_argument("--format", choices=["markdown", "csv", "json"], help="stdout format")
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
    except (
        ConfigError,
        BackendError,
        ToolchainError,
        TaskParseError,
        TaskValidationError,
        PromptError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
