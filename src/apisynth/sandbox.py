"""Compile and run candidate Java sources in isolated per-attempt workdirs."""

from __future__ import annotations

import atexit
import contextlib
import locale
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .extractor import SourceUnit, candidate_source
from .verdict import (FAIL_MARKER_RE, NO_ENTRY_POINT_DIAGNOSTIC, SUCCESS_MARKER, AttemptOutcome, ExecutionResult,
                      classify, first_diagnostic_line)

# Every JVM started here gets it, so none leaves an hsperfdata file in the
# system temp directory.
NO_PERF_DATA = "-XX:-UsePerfData"
# A candidate's heap and thread stacks are bounded. The other three flags cut
# the CPU of a boot, which is most of a typical candidate's run: C1 only, JIT
# compile thresholds 20 times higher, and a 16 MB initial heap. CPU per cold
# launch, medians of 30 interleaved runs on JDK 17 (2 vCPU), two rounds:
# 52.7-53.1 -> 45.9-46.4 ms for a harness of literal asserts, 121.9-128.4 ->
# 90.1-92.1 ms for one of lambdas, streams and string concatenation. Leaving
# out C1 only or the scaling costs 1.2-24 ms on each harness; the small heap
# saves the least, 0.2-6 ms. A scaling of 10 reads as 20 does, 5 costs more.
# The price is peak speed: a harness that computes for about a second runs
# 7-12% longer.
CANDIDATE_JVM_FLAGS = (
    NO_PERF_DATA, "-Xmx256m", "-Xss1m", "-ea",
    "-XX:TieredStopAtLevel=1", "-XX:CompileThresholdScaling=20", "-Xms16m",
)
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
# javac's system-error and abnormal exits (an OutOfMemoryError, a compiler
# crash): a fault of the environment, not a verdict on the source. A server
# that gives one is dropped and the compile is retried cold; a cold javac that
# gives one ends the task as failed_environment. The exception is a system
# error from javac overflowing its own stack: a source nested a few thousand
# levels deep causes it every time, so it is a compile error like any other.
JAVAC_FAULT_EXITS = (3, 4)
JAVAC_STACK_OVERFLOW = "java.lang.StackOverflowError"
# Parked candidate JVMs run this launcher (see ParkedPool). The marker is the
# byte it writes to stdout before any of the candidate's code runs.
LAUNCHER = Path(__file__).with_name("SynthesisLauncher.java")
LAUNCHER_CLASS = LAUNCHER.stem + ".class"
LAUNCH_MARKER = b"\x06"
_BUILD_TIMEOUT = 120.0  # seconds for the javac that builds both helpers, which takes about half a second
# Bytes kept of each stream a child writes; the rest is read and dropped, but
# searched for the markers classify reads, so a verdict never depends on it.
OUTPUT_LIMIT = 1 << 20
_MARKER_RE = re.compile(FAIL_MARKER_RE.pattern.encode("ascii") + b"|" + re.escape(SUCCESS_MARKER.encode("ascii")))
_MARKER_REACH = 64  # bytes carried from one read to the next, so a marker split between reads is found
_MARKERS_KEPT = 1000  # distinct markers kept from the dropped bytes of one stream
_REPLY_HEADER = re.compile(rb"(\d+) (\d+) (\d+)\n")
_SELECT_MAX = 3600.0  # seconds: epoll refuses a wait above about 2.1e6 s; the loop re-checks the deadline
# Seconds a child's pipes are still read once its process group is killed: a
# process that left the group (setsid) may hold them open for as long as it runs.
DRAIN_GRACE = 0.5


class ToolchainError(Exception):
    """The Java toolchain is unavailable; an environment problem, not a task failure."""


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


def _write_log(path: Path, argv: list[str], result: ExecutionResult) -> None:
    status = f"exit: {result.exit_code}" + (" (timed out)" if result.timed_out else "")
    path.write_text(
        "$ " + " ".join(argv) + "\n"
        + status + f"  ({result.duration_seconds:.3f}s)\n"
        + "--- stdout ---\n" + result.stdout
        + "\n--- stderr ---\n" + result.stderr + "\n",
        encoding="utf-8",
    )


def candidate_argv(java: str, classpath: list[str] | tuple[str, ...], main_class: str) -> list[str]:
    """The command that runs main_class in a candidate JVM, the working directory first on its classpath."""
    return [java, *CANDIDATE_JVM_FLAGS, "-cp", os.pathsep.join([".", *classpath]), main_class]


def _kill_group(proc: subprocess.Popen) -> None:
    if proc.returncode is not None:  # reaped: its pid may belong to another process now
        return
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()


class _Capture:
    """One child stream: its first ``limit`` bytes kept; of the rest, the count and the markers in it."""

    def __init__(self, limit: int) -> None:
        self.kept = bytearray()
        self.limit = limit
        self.dropped = 0
        self.markers: dict[bytes, None] = {}  # distinct, in the order first seen
        self._carry = b""

    def add(self, chunk: bytes) -> None:
        room = max(self.limit - len(self.kept), 0)
        self.kept += chunk[:room]
        rest = chunk[room:]
        if not rest:
            return
        if not self.dropped:  # a marker may begin in the kept bytes
            self._carry = bytes(self.kept[-_MARKER_REACH:])
        window = self._carry + rest
        for match in _MARKER_RE.finditer(window):
            # One that ends inside the carry was found in the read before, or is kept.
            if match.end() > len(self._carry) and len(self.markers) < _MARKERS_KEPT:
                self.markers[match.group()] = None
        self._carry = window[-_MARKER_REACH:]
        self.dropped += len(rest)

    def text(self) -> str:
        """The kept bytes decoded; when bytes were dropped, a note and the markers among them."""
        text = _decode(self.kept)
        if self.dropped:
            text += f"\n[truncated: {self.dropped} more bytes not kept"
            text += "; markers among them:]" if self.markers else "]"
            text += "".join("\n" + marker.decode("ascii") for marker in self.markers)
        return text


def _collect(proc: subprocess.Popen, timeout: float, stdout_head: int = 0):
    """proc's (stdout, stderr, timed out): both read, its process group killed and proc reaped.

    The group is killed once timeout passes, and in any case once proc has
    exited, before it is reaped: so no process the child started in its
    group outlives it, and the group's id cannot have been reused. From the
    kill on, the pipes are read to their end for at most DRAIN_GRACE
    seconds and then closed, so a process that left the group cannot hold
    the run open; a proc that exited before timeout has not timed out.
    At most OUTPUT_LIMIT bytes of each stream are kept (see _Capture),
    beyond stdout_head bytes that precede the child's own output on stdout.
    """
    deadline = time.monotonic() + timeout
    out, err = _Capture(stdout_head + OUTPUT_LIMIT), _Capture(OUTPUT_LIMIT)
    timed_out = killed = False
    exit_fd = os.pidfd_open(proc.pid)  # readable once proc has exited, reaped or not
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ, out)
            selector.register(proc.stderr, selectors.EVENT_READ, err)
            selector.register(exit_fd, selectors.EVENT_READ)
            while selector.get_map():
                now = time.monotonic()
                if now >= deadline:
                    if killed:  # the grace is over
                        break
                    # Kill the whole process group: javac/java may have forked.
                    timed_out = killed = True
                    _kill_group(proc)
                    deadline = now + DRAIN_GRACE
                for key, _ in selector.select(min(deadline - now, _SELECT_MAX)):
                    if key.data is None:  # proc has exited: end what it left running, then drain
                        selector.unregister(exit_fd)
                        _kill_group(proc)
                        if not killed:
                            killed, deadline = True, time.monotonic() + DRAIN_GRACE
                        continue
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        key.data.add(chunk)
                    else:
                        selector.unregister(key.fileobj)
    finally:
        os.close(exit_fd)
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    return out, err, timed_out


def _result(out: _Capture, err: _Capture, exit_code: int, start: float, timed_out: bool) -> ExecutionResult:
    return ExecutionResult(
        exit_code=exit_code,
        stdout=out.text(),
        stderr=err.text(),
        duration_seconds=time.monotonic() - start,
        timed_out=timed_out,
    )


def _execute(argv: list[str], cwd: Path, timeout: float) -> ExecutionResult:
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            stdin=subprocess.DEVNULL,  # a harness that reads System.in sees its end at once
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    except OSError as exc:
        raise ToolchainError(f"cannot start {argv[0]}: {exc.strerror or exc}") from exc
    out, err, timed_out = _collect(proc, timeout)
    return _result(out, err, proc.returncode, start, timed_out)


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


_helpers: dict[tuple[str, Path, Path], Path] = {}
_helpers_lock = threading.Lock()


def _helper_classes(javac: str) -> Path:
    """The directory of COMPILE_SERVER's and LAUNCHER's classes, built by javac at the first call in the process.

    Both compile in one javac run with the server's own JVM flags, which keep
    that javac's peak memory (about 74 MB) below a compile server's; when that
    fails, each compiles alone, so a helper that does not compile leaves the
    other usable and is missing from the directory. Every pool of the process
    shares it until the process exits, which removes it. Another javac or
    another source path gets a build of its own.
    """
    key = (javac, COMPILE_SERVER, LAUNCHER)
    with _helpers_lock:
        if key not in _helpers:
            _helpers[key] = classes = Path(tempfile.mkdtemp(prefix="apisynth-helpers-"))
            atexit.register(shutil.rmtree, classes, ignore_errors=True)
            exports = [f for f in COMPILE_SERVER_FLAGS if f.startswith("--add-exports")]
            argv = [javac, *("-J" + f for f in COMPILE_SERVER_FLAGS if f not in exports), *exports, "-d", str(classes)]
            with contextlib.suppress(ToolchainError):  # javac cannot start: neither helper is there
                if _execute([*argv, str(COMPILE_SERVER), str(LAUNCHER)], classes, _BUILD_TIMEOUT).exit_code != 0:
                    for source in (COMPILE_SERVER, LAUNCHER):
                        _execute([*argv, str(source)], classes, _BUILD_TIMEOUT)
        return _helpers[key]


class _Child:
    """A JVM started in a temporary directory and a process group of its own, its stdin and stdout piped."""

    def __init__(self, argv: list[str], prefix: str, stderr=subprocess.PIPE, files: tuple[Path, ...] = ()) -> None:
        self.home = Path(tempfile.mkdtemp(prefix=prefix))
        try:
            for path in files:
                shutil.copyfile(path, self.home / path.name)
            self.proc = subprocess.Popen(
                argv,
                cwd=self.home,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
            )
        except OSError:
            shutil.rmtree(self.home, ignore_errors=True)
            raise

    def stop(self) -> None:
        """Kill the JVM if it still runs, reap it and remove its directory; safe to call twice."""
        _kill_group(self.proc)
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if stream is not None:
                with contextlib.suppress(OSError, ValueError):
                    stream.close()
        self.proc.wait()
        shutil.rmtree(self.home, ignore_errors=True)


class _CompileServer(_Child):
    """One compiler JVM running the CompileServer class in classes; it serves one compile at a time.

    Its stdout is read from the raw descriptor through a selector and a buffer,
    as _collect reads; a read past its deadline kills the server itself and sets timed_out.
    """

    def __init__(self, java: str, classes: Path) -> None:
        argv = [java, *COMPILE_SERVER_FLAGS, "-cp", str(classes), COMPILE_SERVER.stem]
        super().__init__(argv, "apisynth-compiler-", stderr=subprocess.DEVNULL)
        self.timed_out = False
        self._buffer = bytearray()

    def _next(self, deadline: float, size: int | None = None) -> bytes | None:
        """The next line of stdout, or with size its next size bytes; None when stdout ends or the deadline passes."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                if size is None:
                    end = self._buffer.find(b"\n") + 1 or None
                else:
                    end = size if len(self._buffer) >= size else None
                if end is not None:
                    data, self._buffer = bytes(self._buffer[:end]), self._buffer[end:]
                    return data
                wait = deadline - time.monotonic()
                if wait <= 0:
                    self.timed_out = True
                    _kill_group(self.proc)
                    return None
                if selector.select(min(wait, _SELECT_MAX)):
                    chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        return None
                    self._buffer += chunk

    def ready(self, timeout: float) -> bool:
        return self._next(time.monotonic() + timeout) == b"ready\n"

    def compile(self, request: bytes, timeout: float) -> tuple[int, bytes, bytes] | None:
        """(exit code, stdout, stderr), or None when the server did not answer in form or in time."""
        deadline = time.monotonic() + timeout
        with contextlib.suppress(OSError):  # it has died: its stdout ends at once
            self.proc.stdin.write(request)
            self.proc.stdin.flush()
        header = _REPLY_HEADER.fullmatch(self._next(deadline) or b"")
        if header is None:
            return None
        exit_code, n_out, n_err = map(int, header.groups())
        body = self._next(deadline, n_out + n_err)
        return None if body is None else (exit_code, body[:n_out], body[n_out:])


class _Pool:
    """Warm JVMs of one kind, kept idle between uses: the base of CompilerPool and ParkedPool.

    When this JDK cannot provide them, the pool says so once on stderr and
    closes, leaving every later use to a cold JVM. close() stops taking work
    and reaps every idle JVM, and stops one handed back after it, so their
    CPU time and peak memory count among this process's waited-for children.
    """

    _cold = ""  # what every use does once the pool has given up

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list = []
        self._closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _give_up(self, reason: str) -> None:
        """Go cold from now on, saying why once, and close."""
        with self._lock:
            first, self._closed = not self._closed, True
        if first:
            print(f"warning: {reason}; {self._cold}", file=sys.stderr)
        self.close()

    def _keep(self, child: _Child, most: int | None = None) -> None:
        """Make child idle, stopping the oldest idle ones beyond most; stop it if the pool is closed."""
        with self._lock:
            if self._closed:
                stale = [child]
            else:
                self._idle.append(child)
                stale = self._idle[:-most] if most else []
                del self._idle[: len(stale)]
        for old in stale:
            old.stop()

    def close(self) -> None:
        """Stop taking work; kill and reap every idle JVM."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for child in idle:
            child.stop()


class CompilerPool(_Pool):
    """Warm compiler JVMs for a sandbox, started on first use from the process's helper classes.

    A compile takes an idle server or starts a new one, so the pool grows to
    the number of compiles that run at once. A server that dies, answers out
    of form or exits with a javac fault code is dropped and the compile is
    left to a cold javac; so is every compile once a server cannot start (its
    class did not compile, or this JDK cannot run it). A server whose boot
    passes the compile's timeout is dropped and the compile goes cold; one
    whose compile passes it is dropped and the compile timed out.
    """

    _cold = "every compile runs a cold javac"

    def _take(self, toolchain: Toolchain, timeout: float) -> _CompileServer | None:
        with self._lock:
            if self._closed:
                return None
            if self._idle:
                return self._idle.pop()
        try:
            server = _CompileServer(toolchain.java, _helper_classes(toolchain.javac))
        except OSError:
            self._give_up(f"{toolchain.java} cannot host a compile server")
            return None
        if server.ready(timeout):
            return server
        if not server.timed_out:
            self._give_up(f"{toolchain.java} cannot host a compile server")
        server.stop()
        return None

    def compile(
        self, toolchain: Toolchain, workdir: Path, classpath: list[str], source_name: str, timeout: float
    ) -> ExecutionResult | None:
        """Compile workdir/source_name like javac run in workdir, classpath absolute; None leaves it to a cold javac."""
        home = os.path.abspath(workdir)
        # No entries means javac's default ".", which the server stands in for with its own
        # empty directory, so every compile without dependencies shares one javac context.
        request = _request_line(home, os.pathsep.join(classpath), source_name)
        server = None if request is None else self._take(toolchain, timeout)
        if server is None:
            return None
        start = time.monotonic()
        reply = server.compile(request, timeout)
        duration = time.monotonic() - start
        if server.timed_out:
            server.stop()
            return ExecutionResult(-signal.SIGKILL, "", "", duration, timed_out=True)
        if reply is None or reply[0] in JAVAC_FAULT_EXITS:
            server.stop()
            return None
        self._keep(server)
        exit_code, *streams = reply
        out, err = _Capture(OUTPUT_LIMIT), _Capture(OUTPUT_LIMIT)  # bounded as a cold javac's are
        for capture, data in zip((out, err), streams):
            capture.add(data)
        return ExecutionResult(exit_code, out.text(), err.text(), duration)


def usable_cores() -> int:
    """How many cores this process may run on."""
    return len(os.sched_getaffinity(0))


class _Spare(_Child):
    """One parked candidate JVM: booted in its own directory, it waits for the class to run."""

    def __init__(self, java: str, launcher: Path, classpath: tuple[str, ...]) -> None:
        super().__init__(candidate_argv(java, classpath, LAUNCHER.stem), "apisynth-spare-", files=(launcher,))
        self.classpath = classpath
        self.copied = {LAUNCHER_CLASS}
        self.start = 0.0  # the hand-off, from which its run is timed

    def hand_off(self, workdir: Path, main_class: str) -> None:
        """Copy in workdir's class files and name the class to run; its timeout counts from here."""
        for path in workdir.glob("*.class"):
            shutil.copyfile(path, self.home / path.name)
            self.copied.add(path.name)
        self.start = time.monotonic()
        try:
            self.proc.stdin.write(main_class.encode("ascii") + b"\n")
            self.proc.stdin.close()
        except OSError:  # it died while parked
            _kill_group(self.proc)

    def finish(self, workdir: Path, timeout: float) -> ExecutionResult | None:
        """The run's result, or None when the launcher refused the class.

        Files the candidate wrote are moved into workdir.
        """
        remaining = self.start + timeout - time.monotonic()
        out, err, timed_out = _collect(self.proc, remaining, len(LAUNCH_MARKER))
        if not out.kept.startswith(LAUNCH_MARKER):
            return None
        del out.kept[: len(LAUNCH_MARKER)]
        result = _result(out, err, self.proc.returncode, self.start, timed_out)
        for entry in os.scandir(self.home):
            if entry.name not in self.copied:
                shutil.move(entry.path, workdir / entry.name)
        return result


class ParkedPool(_Pool):
    """Candidate JVMs booted ahead of their run, each waiting in its own directory.

    A run takes an idle spare booted with its dependency classpath, hands it
    the candidate and at once starts one spare of that classpath in its
    place. A run that found none (the first, the first after a change of
    classpath, or one that more runs at once left without) starts two.
    Beyond one more than the most runs that have gone on at once, the
    oldest idle spares of any classpath are stopped. So on one classpath the
    spare a run takes was started two runs earlier, and no run starts more
    than two. A boot (about 45 ms of CPU; 47 ms on an idle core, 63 ms
    beside a busy one) outlasts the rest of an attempt whose model answers
    at once (35-45 ms), so a spare started by the run just before would
    often still be booting. A spare runs one candidate and exits; none is
    reused. Each spare copies the launcher class from the process's helper
    classes; when the launcher did not compile, the first run gives up and
    goes to a cold java, as does a run whose spare refuses its class.
    """

    _cold = "every run starts a cold java"

    def __init__(self) -> None:
        super().__init__()
        self._running = 0
        self._peak = 1  # the most runs that have gone on at once

    def run(
        self, toolchain: Toolchain, workdir: Path, classpath: list[str], main_class: str, timeout: float
    ) -> ExecutionResult | None:
        """Run main_class as candidate_argv does in workdir, classpath absolute; None leaves it to a cold java."""
        if not main_class.isascii() or (workdir / LAUNCHER_CLASS).exists():
            return None
        key = tuple(classpath)
        with self._lock:
            self._running += 1
            self._peak = max(self._peak, self._running)
        spare = None
        try:
            spare = self._take(key)
            if spare is not None:
                spare.hand_off(workdir, main_class)
            self._park(toolchain, key, 1 if spare is not None else 2)  # they boot while this one runs
            return None if spare is None else spare.finish(workdir, timeout)
        finally:
            if spare is not None:
                spare.stop()
            with self._lock:
                self._running -= 1

    def _take(self, key: tuple[str, ...]) -> _Spare | None:
        """An idle spare for key, if there is one."""
        with self._lock:
            spare = next((s for s in self._idle if s.classpath == key), None)
            if spare is not None:
                self._idle.remove(spare)
            return spare

    def _park(self, toolchain: Toolchain, key: tuple[str, ...], count: int) -> None:
        """Start count spares for key; stop the oldest idle ones beyond one more than the most runs seen at once."""
        if self._closed:
            return
        launcher = _helper_classes(toolchain.javac) / LAUNCHER_CLASS
        if not launcher.is_file():
            self._give_up(f"{toolchain.javac} cannot compile {LAUNCHER.name}")
            return
        for _ in range(count):
            if self._closed:
                return
            try:
                spare = _Spare(toolchain.java, launcher, key)
            except OSError:
                self._give_up(f"{toolchain.java} cannot start a parked JVM")
                return
            self._keep(spare, most=self._peak + 1)


@dataclass
class Sandbox:
    """Compiles and runs candidates; through ``compilers`` and ``parked`` when given."""

    toolchain: Toolchain = field(default_factory=find_toolchain)
    compile_timeout: float = 60.0
    run_timeout: float = 30.0
    compilers: CompilerPool | None = None
    parked: ParkedPool | None = None

    def evaluate(
        self,
        unit: SourceUnit,
        target_name: str,
        all_ordinals: tuple[int, ...],
        workdir: Path,
        classpath: list[Path] | None = None,
    ) -> AttemptOutcome:
        """Write, compile, and run one candidate; persist its logs."""
        workdir.mkdir(parents=True, exist_ok=True)
        source, main_class = candidate_source(unit, target_name)
        source_name = f"{unit.public_class_name}.java"
        (workdir / source_name).write_text(source, encoding="utf-8")
        compiled, ran = self.compile_and_run(workdir, source_name, main_class, classpath or [])
        return classify(compiled, ran, all_ordinals, unit.contains_target_method)

    def compile_and_run(
        self, workdir: Path, source_name: str, main_class: str | None, classpath: list[Path]
    ) -> tuple[ExecutionResult, ExecutionResult | None]:
        """Compile workdir/source_name, then run main_class in workdir; write compile.log and run.log.

        The run is None when the compile failed or there is no class to run
        (main_class None). A cold javac's fault exit raises ToolchainError.
        Classpath entries are absolute, as tasks.resolve_dependencies gives them.
        """
        classpath = [os.fspath(p) for p in classpath]
        argv = [self.toolchain.javac, *(["-cp", os.pathsep.join(classpath)] if classpath else []), source_name]
        compiled = None
        if self.compilers is not None:
            compiled = self.compilers.compile(self.toolchain, workdir, classpath, source_name, self.compile_timeout)
        if compiled is None:
            compiled = _execute([argv[0], "-J" + NO_PERF_DATA, *argv[1:]], workdir, self.compile_timeout)
        _write_log(workdir / "compile.log", argv, compiled)
        caused_by_source = compiled.exit_code == 3 and JAVAC_STACK_OVERFLOW in compiled.stderr
        if compiled.exit_code in JAVAC_FAULT_EXITS and not caused_by_source:
            detail = first_diagnostic_line(compiled.stderr, compiled.stdout)
            raise ToolchainError(f"javac exited {compiled.exit_code}: {detail}")
        if compiled.exit_code != 0 or compiled.timed_out:
            return compiled, None
        if main_class is None:
            (workdir / "run.log").write_text(NO_ENTRY_POINT_DIAGNOSTIC + "\n", encoding="utf-8")
            return compiled, None
        run_argv = candidate_argv(self.toolchain.java, classpath, main_class)
        ran = None
        if self.parked is not None:
            ran = self.parked.run(self.toolchain, workdir, classpath, main_class, self.run_timeout)
        if ran is None:
            ran = _execute(run_argv, workdir, self.run_timeout)
        _write_log(workdir / "run.log", run_argv, ran)
        return compiled, ran
