"""The parked run path: ParkedPool against a cold java, fallbacks, timeouts, bounded output, spares' lifecycle.

These need a real JDK and are skipped without one.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import threading
import time
from pathlib import Path

import pytest

from apisynth import sandbox as sandbox_module
from apisynth.extractor import SourceUnit, extract_source_unit
from apisynth.sandbox import CompilerPool, ParkedPool, Sandbox
from apisynth.verdict import NO_ENTRY_POINT_DIAGNOSTIC, TIMEOUT_DIAGNOSTIC, OutcomeKind
from helpers import EagerParkedPool, record_servers

FIXTURES = [
    ("PalindromeChecker.java", "isPalindrome", 1, (1, 2, 3, 4, 5, 6)),
    ("BrokenSyntax.java", "answer", 0, (1,)),
    ("ExceptionThrower.java", "divide", 2, (1,)),
    ("SecondCaseFails.java", "twice", 1, (1, 2)),
]

# Each is run parked and cold and must read the same.
SAME_CASES = [
    # A test method the sandbox drives through a generated SynthesisDriver, failing two frames down.
    "public class Driven {\n    int f() { return 1; }\n"
    "    void testF() { check(f()); }\n"
    "    static void check(int x) { if (x != 2) throw new IllegalStateException(\"Test case #1 failed\"); }\n}\n",
    'public class Exits { public static void main(String[] a) { System.out.println("bye"); System.exit(3); } }\n',
    # stdin is at its end.
    "public class Reads { public static void main(String[] a) throws Exception {\n"
    "    System.out.println(System.in.read() + \" \" + new java.util.Scanner(System.in).hasNextLine());\n} }\n",
    # A cause and a suppressed exception, each made in a method of its own.
    "public class Chained {\n"
    "    static Exception inner() { return new java.io.IOException(\"inner\"); }\n"
    "    static void fail() throws Exception {\n"
    "        Exception e = new IllegalStateException(\"outer\", inner());\n"
    "        e.addSuppressed(new RuntimeException(\"suppressed\", inner()));\n"
    "        throw e;\n    }\n"
    "    public static void main(String[] a) throws Exception { fail(); }\n}\n",
    "public class BadInit {\n    static int x = Integer.parseInt(\"nope\");\n"
    "    public static void main(String[] a) { System.out.println(x); }\n}\n",
    # A superclass's static main: the subclass is initialised first, as by the java launcher.
    'public class Sub extends Base { static { System.out.println("Sub init"); } }\n'
    'class Base { public static void main(String[] a) { System.out.println("Base main"); } }\n',
    "public class Recurses {\n    static int down(int n) { return down(n + 1) + 1; }\n"
    "    public static void main(String[] a) { down(0); }\n}\n",
    # A non-daemon thread outlives main and fails there.
    "public class Lingers { public static void main(String[] a) {\n"
    "    new Thread(new Runnable() { public void run() {\n"
    "        try { Thread.sleep(200); } catch (InterruptedException e) { }\n"
    '        System.out.println("late");\n        throw new IllegalStateException("late failure");\n'
    '    } }).start();\n    System.out.println("main returns");\n} }\n',
    # Files written, relative to the working directory, land in the attempt directory.
    "import java.nio.file.*;\npublic class Writes { public static void main(String[] a) throws Exception {\n"
    '    Files.writeString(Path.of("out.txt"), "hello");\n'
    '    Files.createDirectories(Path.of("sub"));\n    Files.writeString(Path.of("sub", "x.txt"), "x");\n'
    '    System.out.println("All test cases passed.");\n} }\n',
]
# Each is refused by the parked path and run cold.
COLD_CASES = [
    'package foo;\npublic class Sol { public static void main(String[] a) { System.out.println("All test cases passed."); } }\n',
    # contains_main accepts it, but the java launcher finds no main in Outer.
    "public class Outer {\n    static class Inner {\n"
    '        public static void main(String[] a) { System.out.println("All test cases passed."); }\n    }\n}\n',
    'public class SynthesisLauncher { public static void main(String[] a) { System.out.println("All test cases passed."); } }\n',
]


@pytest.fixture()
def pools():
    with CompilerPool() as compilers, EagerParkedPool() as parked:
        yield compilers, parked


def unit_of(source: str) -> SourceUnit:
    """A candidate whose public class is the first one declared and whose target is always there."""
    name = re.search(r"public class (\w+)", source).group(1)
    return SourceUnit(source, name, True, "static void main(" in source)


def files(workdir):
    """Every file under the attempt directory, the logs without their durations."""
    return {
        str(p.relative_to(workdir)): re.sub(rb"\(\d+\.\d{3}s\)", b"", p.read_bytes()) if p.suffix == ".log" else p.read_bytes()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }


def test_parked_runs_match_cold_java(jdk, pools, java_fixture_dir, tmp_path):
    """Exit code, stdout and stderr bytes, and every file the attempt leaves are as from a cold java."""
    compilers, parked = pools
    warm, cold = Sandbox(jdk, compilers=compilers, parked=parked), Sandbox(jdk, compilers=compilers)
    fixtures = [
        (extract_source_unit(f"```java\n{(java_fixture_dir / name).read_text(encoding='utf-8')}```", target, params),
         target, ordinals)
        for name, target, params, ordinals in FIXTURES
    ]
    cases = fixtures + [(unit_of(source), "f", (1,)) for source in SAME_CASES + COLD_CASES]

    for i, (unit, target, ordinals) in enumerate(cases):
        got = warm.evaluate(unit, target, ordinals, tmp_path / "parked" / str(i))
        want = cold.evaluate(unit, target, ordinals, tmp_path / "cold" / str(i))
        assert got == want, unit.public_class_name
        assert files(tmp_path / "parked" / str(i)) == files(tmp_path / "cold" / str(i)), unit.public_class_name

    # BrokenSyntax never runs; every other case but the cold ones ran parked.
    assert parked.parked == [True] * (len(fixtures) - 1 + len(SAME_CASES)) + [False] * len(COLD_CASES)
    logs = {unit.public_class_name: (tmp_path / "parked" / str(i) / "run.log").read_text(encoding="utf-8")
            for i, (unit, _, _) in enumerate(cases) if unit.public_class_name != "BrokenSyntax"}
    assert "\tat Driven.check(Driven.java:4)\n\tat Driven.testF(Driven.java:3)\n\tat SynthesisDriver.main(" in logs["Driven"]
    assert "Caused by: java.io.IOException: inner" in logs["Chained"]
    assert "\tSuppressed: java.lang.RuntimeException: suppressed" in logs["Chained"]
    assert "Caused by: java.lang.NumberFormatException" in logs["BadInit"]
    assert "Sub init\nBase main\n" in logs["Sub"]
    assert "exit: 3 " in logs["Exits"]
    assert "-1 false" in logs["Reads"]
    assert 'main returns\nlate\n' in logs["Lingers"]
    assert "Main method not found in class Outer" in logs["Outer"]
    assert "wrong name: foo/Sol" in logs["Sol"]
    assert not any("SynthesisLauncher" in log for name, log in logs.items() if name != "SynthesisLauncher")
    writes = cases.index(next(c for c in cases if c[0].public_class_name == "Writes"))
    assert (tmp_path / "parked" / str(writes) / "sub" / "x.txt").read_text(encoding="utf-8") == "x"



def test_compile_and_run_takes_a_source_file_and_a_class(jdk, pools, tmp_path):
    """The step needs no SourceUnit: it compiles a hand-written file and runs the class named, warm as cold."""
    compilers, parked = pools
    hello = 'public class Hello { public static void main(String[] a) { System.out.println("hello"); } }\n'
    broken = "public class Hello { int f() { return; } }\n"
    cases = {"runs": (hello, "Hello"), "no_entry": (hello, None), "broken": (broken, "Hello")}
    for name, sandbox in (("warm", Sandbox(jdk, compilers=compilers, parked=parked)), ("cold", Sandbox(jdk))):
        results = {}
        for case, (source, main_class) in cases.items():
            workdir = tmp_path / name / case
            workdir.mkdir(parents=True)
            (workdir / "Hello.java").write_text(source, encoding="utf-8")
            results[case] = sandbox.compile_and_run(workdir, "Hello.java", main_class, [])
        compiled, ran = results["runs"]
        assert (compiled.exit_code, ran.exit_code, ran.stdout, ran.timed_out) == (0, 0, "hello\n", False)
        compiled, ran = results["no_entry"]
        assert compiled.exit_code == 0 and ran is None
        no_entry_log = (tmp_path / name / "no_entry" / "run.log").read_text(encoding="utf-8")
        assert no_entry_log == NO_ENTRY_POINT_DIAGNOSTIC + "\n"
        compiled, ran = results["broken"]
        assert compiled.exit_code == 1 and ran is None
        assert compiled.stderr.startswith("Hello.java:1: error: incompatible types: missing return value\n")
        assert not (tmp_path / name / "broken" / "run.log").exists()
    for case in cases:
        assert files(tmp_path / "warm" / case) == files(tmp_path / "cold" / case), case
    assert parked.parked == [True]

def test_a_parked_run_logs_the_command_its_spare_ran(jdk, pools, tmp_path):
    """run.log holds the spare's own command, the class to run in the launcher's place, as a cold run's does."""
    compilers, parked = pools
    jar = str(tmp_path / "absent.jar")  # java accepts a missing classpath entry
    exits = unit_of(SAME_CASES[1])
    warm, cold = Sandbox(jdk, compilers=compilers, parked=parked), Sandbox(jdk, compilers=compilers)
    warm.evaluate(exits, "f", (1,), tmp_path / "a0", [jar])  # parks spares for the jar
    spare = parked._idle[0]  # the one the next run takes
    warm.evaluate(exits, "f", (1,), tmp_path / "a1", [jar])
    cold.evaluate(exits, "f", (1,), tmp_path / "cold", [jar])
    assert parked.parked == [True, True] and spare.proc.returncode == 3
    assert spare.proc.args[-1] == sandbox_module.LAUNCHER.stem
    command = "$ " + " ".join([*spare.proc.args[:-1], "Exits"])
    for workdir in ("a1", "cold"):
        assert (tmp_path / workdir / "run.log").read_text(encoding="utf-8").splitlines()[0] == command, workdir


def test_candidate_flags_print_nothing_of_their_own(jdk, pools, tmp_path):
    """No JVM warning (a deprecated flag, an adjusted heap) in stderr or in stdout, ahead of the markers."""
    compilers, parked = pools
    (tmp_path / "One.java").write_text(
        'public class One { public static void main(String[] a) { System.out.println("one line"); } }\n',
        encoding="utf-8",
    )
    assert compilers.compile(jdk, tmp_path, [], "One.java", 60).exit_code == 0
    cold = sandbox_module._execute(sandbox_module.candidate_argv(jdk.java, [], "One"), tmp_path, 30)
    assert (cold.exit_code, cold.stdout, cold.stderr) == (0, "one line\n", "")
    warm = parked.run(jdk, tmp_path, [], "One", 30)  # output before the launcher's marker refuses the run
    assert parked.parked == [True]
    assert (warm.exit_code, warm.stdout, warm.stderr) == (0, "one line\n", "")


def test_a_relative_classpath_entry_parks(jdk, pools, tmp_path, monkeypatch):
    """An entry relative to the attempt directory reaches the compile server and the spare, resolved."""
    compilers, parked = pools
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "Dep.java").write_text(
        'public class Dep { public static String verdict() { return "All test cases passed."; } }\n', encoding="utf-8"
    )
    assert Sandbox(jdk).compile_and_run(lib, "Dep.java", None, [])[0].exit_code == 0
    uses = unit_of("public class UsesDep { public static void main(String[] a) { System.out.println(Dep.verdict()); } }\n")
    sandbox = Sandbox(jdk, compilers=compilers, parked=parked)

    def no_cold_jvm(argv, *args):
        raise AssertionError(f"cold: {argv}")

    monkeypatch.setattr(sandbox_module, "_execute", no_cold_jvm)
    # Compiled through the server and run parked, each finding Dep only through the entry.
    assert sandbox.evaluate(uses, "f", (1,), tmp_path / "a1", [Path("../lib")]).kind is OutcomeKind.PASS
    assert f"-cp .{os.pathsep}{os.path.realpath(lib)} UsesDep\n" in (tmp_path / "a1" / "run.log").read_text()
    # Named from another attempt directory, it is the same classpath: that run takes a spare parked by this one.
    first = parked._idle[0]
    assert sandbox.evaluate(uses, "f", (1,), tmp_path / "t" / "a2", [Path("../../lib")]).kind is OutcomeKind.PASS
    assert parked.parked == [True, True] and first.proc.returncode == 0


def test_parked_run_timeout_kills_the_group(jdk, pools, tmp_path):
    """The run timeout counts from the hand-off; the spare's group is killed and its directory removed."""
    compilers, parked = pools
    spares = []
    spinning = unit_of("public class Spins { public static void main(String[] a) { while (true) { } } }\n")
    hasty = Sandbox(jdk, run_timeout=1.0, compilers=compilers, parked=parked)
    hasty.evaluate(unit_of(SAME_CASES[1]), "f", (1,), tmp_path / "a0")  # parks a spare
    spares.append(parked._idle[0])
    start = time.monotonic()
    outcome = hasty.evaluate(spinning, "f", (1,), tmp_path / "a1")
    elapsed = time.monotonic() - start
    assert parked.parked == [True, True]
    assert outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "timed out" in outcome.fingerprint
    assert "(timed out)" in (tmp_path / "a1" / "run.log").read_text(encoding="utf-8")
    assert elapsed < 5
    (spare,) = spares
    assert spare.proc.returncode == -9
    assert not spare.home.exists()


def running(pid: int) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists() or shutil.which("sleep") is None,
                    reason="needs /proc and a sleep command")
def test_a_candidates_child_processes_end_with_its_run(jdk, pools, tmp_path):
    """A process the candidate starts and leaves running is killed with the run, on both paths."""
    compilers, parked = pools
    spawns = unit_of(
        "public class Spawns { public static void main(String[] a) throws Exception {\n"
        '    System.out.println("pid " + new ProcessBuilder("sleep", "4141").start().pid());\n'
        '    System.out.println("All test cases passed.");\n} }\n'
    )
    pids = []
    try:
        for side, sandbox in (("parked", Sandbox(jdk, compilers=compilers, parked=parked)),
                              ("cold", Sandbox(jdk, compilers=compilers))):
            assert sandbox.evaluate(spawns, "f", (1,), tmp_path / side).kind is OutcomeKind.PASS, side
            log = (tmp_path / side / "run.log").read_text(encoding="utf-8")
            pids.append(int(re.search(r"^pid (\d+)$", log, re.MULTILINE).group(1)))
        assert parked.parked == [True]
        deadline = time.monotonic() + 5  # SIGKILL takes effect soon after killpg returns, not at once
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [running(pid) for pid in pids] == [False, False]
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(shutil.which("sleep") is None, reason="needs a sleep command")
def test_a_run_ends_when_its_jvm_does_though_a_child_holds_its_output(jdk, pools, tmp_path):
    """A process started with inheritIO shares the run's pipes; the run passes when its JVM exits, not at the timeout."""
    compilers, parked = pools
    inherits = unit_of(
        "public class Inherits { public static void main(String[] a) throws Exception {\n"
        '    new ProcessBuilder("sleep", "30").inheritIO().start();\n'
        '    System.out.println("All test cases passed.");\n} }\n'
    )
    for side, sandbox in (("parked", Sandbox(jdk, run_timeout=20.0, compilers=compilers, parked=parked)),
                          ("cold", Sandbox(jdk, run_timeout=20.0, compilers=compilers))):
        start = time.monotonic()
        assert sandbox.evaluate(inherits, "f", (1,), tmp_path / side).kind is OutcomeKind.PASS, side
        assert time.monotonic() - start < 10, side
        assert "(timed out)" not in (tmp_path / side / "run.log").read_text(encoding="utf-8")
    assert parked.parked == [True]


def detaches(name: str, then: str) -> SourceUnit:
    """A candidate that starts a `setsid sleep 30` sharing its output, prints its pid, then runs `then`."""
    return unit_of(
        "import java.nio.file.*;\n"
        f"public class {name} {{ public static void main(String[] a) throws Exception {{\n"
        '    Process p = new ProcessBuilder("setsid", "sleep", "30").inheritIO().start();\n'
        '    Path comm = Path.of("/proc/" + p.pid() + "/comm");\n'
        '    while (!Files.readString(comm).trim().equals("sleep")) Thread.sleep(5);  // setsid has run\n'
        '    System.out.println("pid " + p.pid());\n'
        f"    {then}\n}} }}\n"
    )


def kill_detached(workdir: Path) -> None:
    match = re.search(r"^pid (\d+)$", (workdir / "run.log").read_text(encoding="utf-8"), re.M)
    assert match, "the candidate printed no pid"
    with contextlib.suppress(ProcessLookupError):
        os.kill(int(match.group(1)), signal.SIGKILL)


def run_seconds(workdir: Path) -> float:
    return float(re.search(r"^exit: .*\((\d+\.\d+)s\)", (workdir / "run.log").read_text(encoding="utf-8"), re.M)[1])


needs_setsid = pytest.mark.skipif(shutil.which("setsid") is None, reason="needs setsid")


@needs_setsid
def test_a_run_ends_when_its_jvm_does_though_a_detached_child_holds_its_output(jdk, pools, tmp_path):
    """A child in a session of its own outlives the process group's kill; its pipes are read for DRAIN_GRACE only."""
    compilers, parked = pools
    unit = detaches("Detached", 'System.out.println("All test cases passed.");')
    for side, sandbox in (("parked", Sandbox(jdk, run_timeout=20.0, compilers=compilers, parked=parked)),
                          ("cold", Sandbox(jdk, run_timeout=20.0, compilers=compilers))):
        start = time.monotonic()
        try:
            assert sandbox.evaluate(unit, "f", (1,), tmp_path / side).kind is OutcomeKind.PASS, side
        finally:
            kill_detached(tmp_path / side)
        assert time.monotonic() - start < 10, side
        assert "(timed out)" not in (tmp_path / side / "run.log").read_text(encoding="utf-8")
    assert parked.parked == [True]


@needs_setsid
def test_a_timed_out_run_ends_though_a_detached_child_holds_its_output(jdk, pools, tmp_path):
    """A candidate that outlives its timeout returns within the timeout and DRAIN_GRACE, its child still running."""
    compilers, parked = pools
    unit = detaches("Lingering", "Thread.sleep(60_000);")
    timeout = 3.0
    for side, sandbox in (("parked", Sandbox(jdk, run_timeout=timeout, compilers=compilers, parked=parked)),
                          ("cold", Sandbox(jdk, run_timeout=timeout, compilers=compilers))):
        try:
            outcome = sandbox.evaluate(unit, "f", (1,), tmp_path / side)
        finally:
            kill_detached(tmp_path / side)
        assert (outcome.kind, outcome.detail) == (OutcomeKind.RUNTIME_ERROR, TIMEOUT_DIAGNOSTIC), side
        assert run_seconds(tmp_path / side) < timeout + sandbox_module.DRAIN_GRACE + 0.2, side
    assert parked.parked == [True]


def test_identity_hashes_are_the_one_difference_the_fingerprint_masks(jdk, pools, tmp_path):
    """A default toString in the detail may differ between the paths in its hash alone; the fingerprint is equal."""
    compilers, parked = pools
    throws = unit_of(
        "public class Hashes { public static void main(String[] a) {\n"
        '    throw new IllegalStateException("bad " + new Object());\n} }\n'
    )
    got = Sandbox(jdk, compilers=compilers, parked=parked).evaluate(throws, "f", (1,), tmp_path / "parked")
    want = Sandbox(jdk, compilers=compilers).evaluate(throws, "f", (1,), tmp_path / "cold")
    assert parked.parked == [True]
    assert want.kind is OutcomeKind.RUNTIME_ERROR
    assert re.search(r"bad java\.lang\.Object@[0-9a-f]+$", want.detail)
    assert got.fingerprint == want.fingerprint
    assert re.sub("@[0-9a-f]+", "", got.detail) == re.sub("@[0-9a-f]+", "", want.detail)
    unhashed = {side: {name: re.sub(rb"@[0-9a-f]+", b"", data) for name, data in files(tmp_path / side).items()}
                for side in ("parked", "cold")}
    assert unhashed["parked"] == unhashed["cold"]


def test_output_beyond_the_limit_is_dropped_and_marked(jdk, pools, tmp_path, monkeypatch):
    """Both paths keep the first OUTPUT_LIMIT bytes of each stream and say how many more they dropped."""
    monkeypatch.setattr(sandbox_module, "OUTPUT_LIMIT", 10)
    compilers, parked = pools
    chatty = unit_of(
        "public class Chatty { public static void main(String[] a) {\n"
        '    System.out.print("0123456789abcdefghij");\n    System.err.print("ABCDEFGHIJKLMNO");\n} }\n'
    )
    for side, sandbox in (("parked", Sandbox(jdk, compilers=compilers, parked=parked)),
                          ("cold", Sandbox(jdk, compilers=compilers))):
        sandbox.evaluate(chatty, "f", (1,), tmp_path / side)
        log = re.sub(r"\(\d+\.\d{3}s\)", "", (tmp_path / side / "run.log").read_text(encoding="utf-8"))
        assert log.endswith(
            "--- stdout ---\n0123456789\n[truncated: 10 more bytes not kept]\n"
            "--- stderr ---\nABCDEFGHIJ\n[truncated: 5 more bytes not kept]\n"
        ), side
    assert parked.parked == [True]


def test_markers_in_dropped_output_are_kept():
    """A marker past the limit is found whole, also when it straddles the limit or a read."""
    capture = sandbox_module._Capture(10)
    for chunk in (b"xxxxxxTest", b" case #3 failed; Test ca", b"se #12 fai", b"led", b"; Test case #3 failed",
                  b" ... All test cases passed."):
        capture.add(chunk)
    assert capture.kept == b"xxxxxxTest"
    assert capture.text() == (
        "xxxxxxTest\n[truncated: 85 more bytes not kept; markers among them:]\n"
        "Test case #3 failed\nTest case #12 failed\nAll test cases passed."
    )


def test_verdicts_do_not_depend_on_the_output_limit(jdk, pools, tmp_path, monkeypatch):
    """A pass marker printed after the limit still passes; a failure marker dropped still fails its test case."""
    compilers, parked = pools
    noise = 'for (int i = 0; i < 200; i++) System.out.print("debug ");'
    cases = {
        "LoudPass": (f"public class LoudPass {{ public static void main(String[] a) {{\n    {noise}\n"
                     '    System.out.println("All test cases passed.");\n} }\n', "pass"),
        "LoudFail": (f"public class LoudFail {{ public static void main(String[] a) {{\n    {noise}\n"
                     '    System.err.println("Test case #2 failed");\n    System.err.println("x".repeat(50));\n'
                     '    System.out.println("All test cases passed.");\n} }\n', "failing_tests:2"),
    }
    cold = Sandbox(jdk, compilers=compilers)
    unlimited = {name: cold.evaluate(unit_of(source), "f", (1, 2), tmp_path / "whole" / name)
                 for name, (source, _) in cases.items()}
    assert {name: o.fingerprint for name, o in unlimited.items()} == {name: want for name, (_, want) in cases.items()}

    monkeypatch.setattr(sandbox_module, "OUTPUT_LIMIT", 10)
    for side, sandbox in (("parked", Sandbox(jdk, compilers=compilers, parked=parked)), ("cold", cold)):
        for name, (source, _) in cases.items():
            assert sandbox.evaluate(unit_of(source), "f", (1, 2), tmp_path / side / name) == unlimited[name], side
            assert "more bytes not kept; markers among them:]" in (tmp_path / side / name / "run.log").read_text()
    assert parked.parked == [True, True]


def parked_spares(pool: ParkedPool, jdk) -> ParkedPool:
    """The pool, with spares parked for no dependencies."""
    pool._park(jdk, (), 2)
    return pool


def test_spare_exits_when_its_stdin_closes(jdk):
    """A spare whose parent goes away before handing it a class halts at once."""
    with parked_spares(ParkedPool(), jdk) as parked:
        spare = parked._idle[0]
        spare.proc.stdin.close()
        spare.proc.wait(timeout=1.0)
        assert spare.proc.stdout.read() == b""


def test_close_kills_and_reaps_idle_spares(jdk):
    with parked_spares(ParkedPool(), jdk) as parked:
        spares = list(parked._idle)
    assert spares
    assert all(spare.proc.returncode is not None and not spare.home.exists() for spare in spares)


def test_idle_spares_are_bounded_by_concurrent_runs(jdk, pools, tmp_path):
    """One run at a time keeps two idle spares: a run with another classpath stops the other key's spares."""
    compilers, parked = pools
    sandbox = Sandbox(jdk, compilers=compilers, parked=parked)
    exits = unit_of(SAME_CASES[1])
    sandbox.evaluate(exits, "f", (1,), tmp_path / "a1")
    plain = list(parked._idle)
    assert len(plain) == 2
    jar = tmp_path / "absent.jar"  # java accepts a missing classpath entry
    sandbox.evaluate(exits, "f", (1,), tmp_path / "a2", [jar])
    assert [spare.classpath for spare in parked._idle] == [(str(jar),)] * 2
    assert all(spare.proc.returncode is not None and not spare.home.exists() for spare in plain)
    assert parked.parked == [True, True]


def test_a_run_takes_a_spare_started_two_runs_before(jdk, tmp_path):
    """Without eager parking: the first run goes cold and parks two spares; each later run takes the oldest."""
    exits = unit_of(SAME_CASES[1])
    with CompilerPool() as compilers, ParkedPool() as parked:
        sandbox = Sandbox(jdk, compilers=compilers, parked=parked)
        sandbox.evaluate(exits, "f", (1,), tmp_path / "a1")
        first = list(parked._idle)
        sandbox.evaluate(exits, "f", (1,), tmp_path / "a2")
        second = list(parked._idle)
        assert len(first) == len(second) == 2
        assert second[0] is first[1]
        assert first[0].proc.returncode == 3  # it ran a2's candidate
        jar = tmp_path / "absent.jar"
        sandbox.evaluate(exits, "f", (1,), tmp_path / "a3", [jar])
        assert [spare.classpath for spare in parked._idle] == [(str(jar),)] * 2
        assert all(spare.proc.returncode is not None and not spare.home.exists() for spare in second)
        last = list(parked._idle)
    assert all(spare.proc.returncode is not None and not spare.home.exists() for spare in last)


def test_each_run_starts_one_spare_also_when_runs_overlap(jdk, tmp_path, monkeypatch):
    """Two runs at once on one classpath each take a spare and start one: no more boots than runs, plus one."""
    started = []

    class Counted(sandbox_module._Spare):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(sandbox_module, "_Spare", Counted)
    naps = unit_of(
        "public class Naps { public static void main(String[] a) throws Exception {\n"
        '    Thread.sleep(500);\n    System.out.println("All test cases passed.");\n} }\n'
    )
    with CompilerPool() as compilers, ParkedPool() as parked:
        sandbox = Sandbox(jdk, compilers=compilers, parked=parked)
        assert sandbox.evaluate(naps, "f", (1,), tmp_path / "a0").kind is OutcomeKind.PASS  # cold; parks two
        assert len(started) == 2
        workdirs = [tmp_path / f"a{i}" for i in (1, 2)]
        for workdir in workdirs:
            shutil.copytree(tmp_path / "a0", workdir, ignore=shutil.ignore_patterns("*.log"))
        results = {}
        both = threading.Barrier(2, timeout=30)

        def run(workdir):
            both.wait()
            results[workdir] = parked.run(jdk, workdir, [], "Naps", 30.0)

        threads = [threading.Thread(target=run, args=(workdir,)) for workdir in workdirs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert parked._peak == 2
        assert [results[w].stdout for w in workdirs] == ["All test cases passed.\n"] * 2
        assert len(started) == 4
        assert len(parked._idle) == 2


def test_a_launcher_that_does_not_compile_leaves_every_run_cold(jdk, tmp_path, monkeypatch, capsys):
    """One warning, no spare started, and every run as from a cold sandbox; compiles stay warm."""
    broken = tmp_path / "launcher" / sandbox_module.LAUNCHER.name
    broken.parent.mkdir()
    broken.write_text("public class SynthesisLauncher { not java }\n", encoding="utf-8")
    monkeypatch.setattr(sandbox_module, "LAUNCHER", broken)
    spares = []
    monkeypatch.setattr(sandbox_module, "_Spare", lambda *args: spares.append(args))
    servers = record_servers(monkeypatch)
    cases = [unit_of(source) for source in SAME_CASES[:3]]
    with CompilerPool() as compilers, EagerParkedPool() as parked:
        warm, cold = Sandbox(jdk, compilers=compilers, parked=parked), Sandbox(jdk, compilers=compilers)
        for i, unit in enumerate(cases * 2):
            got = warm.evaluate(unit, "f", (1,), tmp_path / "parked" / str(i))
            assert got == cold.evaluate(unit, "f", (1,), tmp_path / "cold" / str(i)), unit.public_class_name
            assert files(tmp_path / "parked" / str(i)) == files(tmp_path / "cold" / str(i)), unit.public_class_name
        (server,) = servers  # its build compiled the server alone, and that one server took every compile
        assert compilers._idle == [server] and not compilers._closed
    assert parked.parked == [False] * len(cases) * 2
    assert spares == []
    assert capsys.readouterr().err == (
        f"warning: {jdk.javac} cannot compile {broken.name}; every run starts a cold java\n"
    )


def test_giving_up_stops_the_idle_spares(jdk, monkeypatch, capsys):
    """A spare that cannot start closes the pool: the spares already idle stop at once, not when the command ends."""
    with parked_spares(ParkedPool(), jdk) as parked:
        idle = list(parked._idle)
        monkeypatch.setattr(sandbox_module, "_Spare", cannot_start)
        parked._park(jdk, (), 1)
        assert parked._closed and not parked._idle
        assert idle and all(spare.proc.returncode is not None and not spare.home.exists() for spare in idle)
        parked._give_up("another reason")  # said once, for the first
    assert capsys.readouterr().err == f"warning: {jdk.java} cannot start a parked JVM; every run starts a cold java\n"


def cannot_start(*args):
    raise OSError("cannot start")


def test_a_spare_that_cannot_start_leaves_every_run_cold(jdk, pools, tmp_path, monkeypatch, capsys):
    """It warns once, as a launcher that does not compile does."""
    monkeypatch.setattr(sandbox_module, "_Spare", cannot_start)
    compilers, parked = pools
    sandbox = Sandbox(jdk, compilers=compilers, parked=parked)
    for i in range(2):
        assert sandbox.evaluate(unit_of(SAME_CASES[1]), "f", (1,), tmp_path / str(i)).kind is OutcomeKind.RUNTIME_ERROR
    assert parked.parked == [False, False]
    assert capsys.readouterr().err == f"warning: {jdk.java} cannot start a parked JVM; every run starts a cold java\n"
