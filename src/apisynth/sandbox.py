"""Compile and run candidate Java sources in isolated per-attempt workdirs."""

from __future__ import annotations

import contextlib
import locale
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .extractor import SourceUnit, strip_comments_and_strings
from .records import save_json

FAIL_MARKER_RE = re.compile(r"Test case #(\d+) failed")
SUCCESS_MARKER = "All test cases passed."

TIMEOUT_DIAGNOSTIC = "process timed out (forcibly terminated)"
NO_ENTRY_POINT_DIAGNOSTIC = "no runnable entry point (no main method or test method found)"

# Every JVM started here gets it, so none leaves an hsperfdata file in the
# system temp directory.
NO_PERF_DATA = "-XX:-UsePerfData"
# A candidate's heap and thread stacks are bounded; measured on JDK 17, these
# limits cost nothing at start-up against a bare `java -ea` (33 ms at p50).
CANDIDATE_JVM_FLAGS = (NO_PERF_DATA, "-Xmx256m", "-Xss1m", "-ea")
COMPILE_SERVER = Path(__file__).with_name("CompileServer.java")
# Measured on JDK 17: a compile server peaks at about 300 MB with the JVM's
# defaults and at about 89 MB with these after a thousand compiles; one cold
# javac peaks at about 84 MB. The server reuses one javac context while the
# dependency classpath stays the same (see CompileServer.java), so a compile
# allocates about 10 times less than a fresh context's 8 MB, and a 6 MB young
# generation holds several. The old generation starts at 14 MB, above the 10
# to 11 MB the heap holds after a young GC over a thousand compiles, so a warm
# server runs no full GC. Over 1035 compiles of benchmark candidates: 0 full
# GCs, server CPU 30 -> 9 s and peak RSS 90 -> 89 MB against fresh contexts
# with -Xmn14m -Xms24m -Xmx36m (scripts/compile_probe.py). A compile whose
# classpath differs from the last one's builds a fresh context, whose garbage
# this young generation cannot hold. Over 400 compiles with a 3.4 MB jar of
# 1694 classes (compile_probe.py --deps): 91 full GCs, peak RSS 98 MB and p50
# 36 ms when the classpath changes at every compile, against 108 MB and 33 ms
# with fresh contexts and the old heap; no full GC and 89 MB when every
# compile has the jar. No compile ran out of heap. The --add-exports open the
# javac internals the server uses. The JVM prints its own warnings (such as a
# heap flag it adjusts) to stdout by default, where they would precede "ready"
# on the reply channel; the -Xlog pair sends them to stderr instead.
COMPILE_SERVER_FLAGS = (
    "-XX:+UseSerialGC", "-Xmn6m", "-Xms20m", "-Xmx32m",
    "-XX:TieredStopAtLevel=1", "-XX:ReservedCodeCacheSize=16m", "-Xss512k", "-XX:CICompilerCount=1",
    NO_PERF_DATA, "-XX:MaxMetaspaceSize=64m", "-Xlog:disable", "-Xlog:all=warning:stderr",
    *(f"--add-exports=jdk.compiler/com.sun.tools.javac.{p}=ALL-UNNAMED" for p in ("api", "main", "util")),
)
# javac's system-error and abnormal exits (an OutOfMemoryError under the small
# heap, a compiler crash): a fault of the server, not a verdict on the source.
JAVAC_FAULT_EXITS = (3, 4)
_REPLY_HEADER = re.compile(rb"(\d+) (\d+) (\d+)\n")


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

    @classmethod
    def of(
        cls,
        kind: OutcomeKind,
        detail: str = "",
        ordinals: frozenset[int] = frozenset(),
        extraction_failed: bool = False,
    ) -> AttemptOutcome:
        """The outcome with the fingerprint its fields imply; a stored one keeps its own."""
        fingerprint = fingerprint_of(kind, detail, ordinals, extraction_failed)
        return cls(kind, fingerprint, ordinals, detail, extraction_failed)


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


def fingerprint_of(
    kind: OutcomeKind, detail: str, ordinals: frozenset[int], extraction_failed: bool = False
) -> str:
    if kind is OutcomeKind.PASS:
        return "pass"
    if kind is OutcomeKind.FAILING_TESTS:
        return "failing_tests:" + ",".join(str(o) for o in sorted(ordinals))
    source = "extraction:" if extraction_failed else ""
    return f"{kind.value}:{source}{normalize_diagnostic(detail)}"


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
        return AttemptOutcome.of(OutcomeKind.COMPILE_ERROR, TIMEOUT_DIAGNOSTIC)
    if compile_result.exit_code != 0:
        detail = _first_diagnostic_line(compile_result.stderr, compile_result.stdout)
        return AttemptOutcome.of(OutcomeKind.COMPILE_ERROR, detail or "compilation failed")
    if run_result is None:
        return AttemptOutcome.of(OutcomeKind.RUNTIME_ERROR, NO_ENTRY_POINT_DIAGNOSTIC)
    if run_result.timed_out:
        return AttemptOutcome.of(OutcomeKind.RUNTIME_ERROR, TIMEOUT_DIAGNOSTIC)
    failing = _parse_failing_ordinals(run_result.stdout, run_result.stderr)
    if failing:
        return AttemptOutcome.of(OutcomeKind.FAILING_TESTS, ordinals=failing)
    if run_result.exit_code != 0:
        detail = _first_diagnostic_line(run_result.stderr, run_result.stdout)
        return AttemptOutcome.of(OutcomeKind.RUNTIME_ERROR, detail or "nonzero exit")
    if declares_target and SUCCESS_MARKER in run_result.stdout:
        return AttemptOutcome.of(OutcomeKind.PASS)
    return AttemptOutcome.of(OutcomeKind.FAILING_TESTS, ordinals=frozenset(all_ordinals))


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


def candidate_source(unit: SourceUnit, target_name: str) -> tuple[str, str | None]:
    """The source file written for a candidate and the class to run (None: nothing runnable)."""
    source = unit.source_text
    if not source.endswith("\n"):
        source += "\n"
    if unit.contains_main:
        return source, unit.public_class_name
    driver = make_driver(unit.public_class_name, strip_comments_and_strings(unit.source_text), target_name)
    if driver is None:
        return source, None
    main_class, driver_body = driver
    return source + "\n" + driver_body, main_class


def _write_log(path: Path, argv: list[str], result: ExecutionResult) -> None:
    status = f"exit: {result.exit_code}" + (" (timed out)" if result.timed_out else "")
    path.write_text(
        "$ " + " ".join(argv) + "\n"
        + status + f"  ({result.duration_seconds:.2f}s)\n"
        + "--- stdout ---\n" + result.stdout
        + "\n--- stderr ---\n" + result.stderr + "\n",
        encoding="utf-8",
    )


def _kill_group(proc: subprocess.Popen) -> None:
    if proc.returncode is not None:  # reaped: its pid may belong to another process now
        return
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()


def _execute(argv: list[str], cwd: Path, timeout: float) -> ExecutionResult:
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            stdin=subprocess.DEVNULL,  # a harness that reads System.in sees its end at once
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",  # a candidate may print any bytes
            start_new_session=True,
        )
    except OSError as exc:
        raise ToolchainError(f"cannot start {argv[0]}: {exc.strerror or exc}") from exc
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        # Kill the whole process group: javac/java may have forked.
        _kill_group(proc)
        stdout, stderr = proc.communicate()
        timed_out = True
    return ExecutionResult(
        exit_code=proc.returncode if proc.returncode is not None else -1,
        stdout=stdout or "",
        stderr=stderr or "",
        duration_seconds=time.monotonic() - start,
        timed_out=timed_out,
    )


def _decode(data: bytes) -> str:
    """Child output as subprocess's text mode decodes it."""
    text = data.decode(locale.getpreferredencoding(False), errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _request_line(*fields: str) -> bytes | None:
    """One compile request, or None when a field cannot travel on a line."""
    if any(re.search(r"[\t\n\r]", f) for f in fields):
        return None
    try:
        return ("\t".join(fields) + "\n").encode("utf-8")
    except UnicodeEncodeError:
        return None


class _CompileServer:
    """One compiler JVM running CompileServer.java; it serves one compile at a time."""

    def __init__(self, java: str) -> None:
        self.home = tempfile.mkdtemp(prefix="apisynth-compiler-")
        self.expired = False
        try:
            self.proc = subprocess.Popen(
                [java, *COMPILE_SERVER_FLAGS, str(COMPILE_SERVER)],
                cwd=self.home,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
        except OSError:
            shutil.rmtree(self.home, ignore_errors=True)
            raise

    def _expire(self) -> None:
        self.expired = True
        _kill_group(self.proc)

    def _bounded(self, timeout: float, read):
        """read() with the server killed once timeout passes; None on a broken exchange."""
        timer = threading.Timer(timeout, self._expire)
        timer.start()
        try:
            return read()
        except (OSError, ValueError):
            return None
        finally:
            timer.cancel()

    def ready(self, timeout: float) -> bool:
        return self._bounded(timeout, self.proc.stdout.readline) == b"ready\n"

    def compile(self, request: bytes, timeout: float) -> tuple[int, bytes, bytes] | None:
        """(exit code, stdout, stderr), or None when the server did not answer in form."""

        def exchange():
            self.proc.stdin.write(request)
            self.proc.stdin.flush()
            header = _REPLY_HEADER.fullmatch(self.proc.stdout.readline())
            if header is None:
                return None
            exit_code, n_out, n_err = map(int, header.groups())
            stdout, stderr = self.proc.stdout.read(n_out), self.proc.stdout.read(n_err)
            if len(stdout) != n_out or len(stderr) != n_err:
                return None
            return exit_code, stdout, stderr

        return self._bounded(timeout, exchange)

    def stop(self, kill: bool = False) -> None:
        """End the server (at once when kill) and reap it; safe to call twice."""
        if kill:
            _kill_group(self.proc)
        with contextlib.suppress(OSError, ValueError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _kill_group(self.proc)
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.home, ignore_errors=True)


class CompilerPool:
    """Warm compiler JVMs for a sandbox, started on first use.

    A compile takes an idle server or starts a new one, so the pool grows to
    the number of compiles that run at once. A server that dies, answers out
    of form or exits with a javac fault code is dropped and the compile is
    left to a cold javac; when a server cannot start at all, every later
    compile is, after one warning on stderr. close() reaps every server, so
    their CPU time and peak memory count among this process's waited-for
    children.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_CompileServer] = []
        self._live: set[_CompileServer] = set()
        self._closed = False
        self._unusable = False  # a server failed to start: this JVM cannot host one

    def __enter__(self) -> CompilerPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _take(self, java: str, timeout: float) -> _CompileServer | None:
        with self._lock:
            if self._closed or self._unusable:
                return None
            if self._idle:
                return self._idle.pop()
            try:
                server = _CompileServer(java)
            except OSError:
                self._give_up(java)
                return None
            self._live.add(server)
        if server.ready(timeout):
            return server
        if not server.expired:
            with self._lock:
                self._give_up(java)
        self._drop(server)
        return None

    def _give_up(self, java: str) -> None:
        """Compile cold from now on, saying so once; the caller holds the lock."""
        if not self._unusable:
            self._unusable = True
            print(f"warning: {java} cannot host a compile server; every compile runs a cold javac",
                  file=sys.stderr)

    def _drop(self, server: _CompileServer) -> None:
        with self._lock:
            self._live.discard(server)
        server.stop(kill=True)

    def compile(
        self, java: str, workdir: Path, classpath: list[Path], source_name: str, timeout: float
    ) -> ExecutionResult | None:
        """Compile workdir/source_name like javac run in workdir; None leaves it to a cold javac."""
        home = os.path.abspath(workdir)
        # javac resolves relative entries against its working directory. No entries
        # means javac's default ".", which the server stands in for with its own empty
        # directory, so every compile without dependencies shares one javac context.
        entries = [os.path.join(home, p) for p in classpath]
        request = _request_line(home, os.pathsep.join(entries), source_name)
        server = None if request is None else self._take(java, timeout)
        if server is None:
            return None
        start = time.monotonic()
        reply = server.compile(request, timeout)
        duration = time.monotonic() - start
        if server.expired:
            self._drop(server)
            return ExecutionResult(-signal.SIGKILL, "", "", duration, timed_out=True)
        if reply is None or reply[0] in JAVAC_FAULT_EXITS:
            self._drop(server)
            return None
        with self._lock:
            self._idle.append(server)
        exit_code, stdout, stderr = reply
        return ExecutionResult(exit_code, _decode(stdout), _decode(stderr), duration)

    def close(self) -> None:
        """Stop taking compiles; let every server exit and reap it."""
        with self._lock:
            self._closed = True
            servers, self._idle = list(self._live), []
            self._live.clear()
        for server in servers:
            server.stop()


@dataclass
class Sandbox:
    """Compiles and runs candidates; compiles go through ``compilers`` when given."""

    toolchain: Toolchain
    compile_timeout: float = 60.0
    run_timeout: float = 30.0
    compilers: CompilerPool | None = None

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
        source, main_class = candidate_source(unit, target_name)
        source_path = workdir / f"{unit.public_class_name}.java"
        source_path.write_text(source, encoding="utf-8")

        javac_args = ["-cp", os.pathsep.join(str(p) for p in classpath)] if classpath else []
        javac_args.append(source_path.name)
        compile_result = self._compile(workdir, classpath, javac_args)
        _write_log(workdir / "compile.log", [self.toolchain.javac, *javac_args], compile_result)

        run_result = None
        if compile_result.exit_code == 0 and not compile_result.timed_out:
            if main_class is None:
                (workdir / "run.log").write_text(
                    NO_ENTRY_POINT_DIAGNOSTIC + "\n", encoding="utf-8"
                )
            else:
                run_cp = os.pathsep.join(["."] + [str(p) for p in classpath])
                run_argv = [self.toolchain.java, *CANDIDATE_JVM_FLAGS, "-cp", run_cp, main_class]
                run_result = _execute(run_argv, workdir, self.run_timeout)
                _write_log(workdir / "run.log", run_argv, run_result)

        outcome = classify(compile_result, run_result, all_ordinals, unit.contains_target_method)
        save_json(outcome, workdir / "outcome.json")
        return outcome

    def _compile(self, workdir: Path, classpath: list[Path], javac_args: list[str]) -> ExecutionResult:
        """Through a warm compiler JVM when there is one; else, or on its fault, a cold javac."""
        if self.compilers is not None:
            result = self.compilers.compile(
                self.toolchain.java, workdir, classpath, javac_args[-1], self.compile_timeout
            )
            if result is not None:
                return result
        argv = [self.toolchain.javac, "-J" + NO_PERF_DATA, *javac_args]
        return _execute(argv, workdir, self.compile_timeout)

