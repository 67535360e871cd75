"""The warm compile path: CompilerPool against cold javac, faults, timeouts, reaping.

Those that take the ``jdk`` fixture need a real JDK and are skipped without
one. The stub-server ones run a short Python script in the server's place,
so they control when each byte of a reply arrives, and need no JDK.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import zipfile

import pytest

import apisynth.cli as cli
from apisynth import sandbox as sandbox_module
from apisynth.extractor import SourceUnit, extract_source_unit
from apisynth.sandbox import CompilerPool, Sandbox, Toolchain
from apisynth.verdict import TIMEOUT_DIAGNOSTIC, AttemptOutcome, OutcomeKind
from helpers import EagerParkedPool, java_response, record_servers

FIXTURES = [
    ("PalindromeChecker.java", "isPalindrome", 1, (1, 2, 3, 4, 5, 6)),
    ("BrokenSyntax.java", "answer", 0, (1,)),
    ("ExceptionThrower.java", "divide", 2, (1,)),
    ("SecondCaseFails.java", "twice", 1, (1, 2)),
]

USES_HELPER = """public class UsesHelper {
    public static void main(String[] args) {
        System.out.println(dep.Helper.%s(2) == 4 ? "All test cases passed." : "Test case #1 failed");
    }
}
"""


@pytest.fixture()
def pool():
    with CompilerPool() as compilers:
        yield compilers


def fixture_unit(java_fixture_dir, name, target, params) -> SourceUnit:
    source = (java_fixture_dir / name).read_text(encoding="utf-8")
    return extract_source_unit(f"```java\n{source}```", target, params)


def compile_log(workdir) -> str:
    """compile.log without its duration, which differs from run to run."""
    text = (workdir / "compile.log").read_text(encoding="utf-8")
    return re.sub(r"\(\d+\.\d{3}s\)", "", text)


def served_by(pool: CompilerPool) -> int:
    """The pid of the pool's one idle server."""
    (server,) = pool._idle
    return server.proc.pid


@pytest.fixture(scope="module")
def helper_jar(jdk, tmp_path_factory):
    """A jar holding dep.Helper with a static twice(int)."""
    build = tmp_path_factory.mktemp("helper")
    (build / "Helper.java").write_text(
        "package dep;\npublic class Helper { public static int twice(int x) { return 2 * x; } }\n",
        encoding="utf-8",
    )
    subprocess.run([jdk.javac, "-d", str(build), str(build / "Helper.java")], check=True)
    jar = build / "helper.jar"
    with zipfile.ZipFile(jar, "w") as archive:
        archive.write(build / "dep" / "Helper.class", "dep/Helper.class")
    return jar


def unit_of(source: str) -> SourceUnit:
    """A candidate whose public class is the first one declared and whose target is always there."""
    name = re.search(r"public class (\w+)", source).group(1)
    return SourceUnit(source, name, True, "void main(" in source)


# Each runs after what it names, through the same javac context, and must read as from a cold javac.
CONTEXT_CASES = [
    # A package unit, then a reference to its package: "package p does not exist" as from javac.
    "package p;\npublic class X { public static int v = 1; }\n",
    "public class UsesP { int f() { return p.X.v; } }\n",
    # A helper class defined, then used without a definition.
    "public class Defines { int f() { return Helper.h(); } }\nclass Helper { static int h() { return 1; } }\n",
    "public class UsesHelper { int f() { return Helper.h(); } }\n",
    # More than 100 errors, twice: javac shows 100 and counts the rest of each compile.
    "public class Many {\n" + "".join(f'    int f{i}() {{ return "s{i}"; }}\n' for i in range(150)) + "}\n",
    "public class More {\n" + "".join(f'    int f{i}() {{ return "s{i}"; }}\n' for i in range(120)) + "}\n",
    # A compressed diagnostic, then one that is not: only the first ends with the note.
    'public class Compressed {\n    static void f(int x) {}\n    void g() { f("s"); }\n}\n',
    "public class Plain { int f() { return missing; } }\n",
    # Unchecked and deprecation notes.
    "import java.util.*;\npublic class Notes {\n"
    "    int g() { List l = new ArrayList(); l.add(1); return new java.util.Date().getYear(); }\n}\n",
    # 150 undefined names on one line padded to 12 KB: each error repeats the line, so both sides
    # keep the first OUTPUT_LIMIT bytes of stderr and end it with the same truncation note.
    "public class Wide { int f() { return " + " + ".join(f"u{i}" for i in range(150))
    + "; } /*" + "x" * 11000 + "*/ }\n",
]
# Deep enough to overflow the compiler's stack: a fault of the server, compiled again cold, and a
# compile error from a cold javac.
DEEP_NESTING = "public class Deep { int x = " + "(" * 3000 + "1" + ")" * 3000 + "; }\n"


def test_warm_compiles_match_cold_javac(jdk, pool, helper_jar, java_fixture_dir, tmp_path, monkeypatch):
    """One server compiles every case in turn, each as a cold javac does, byte for byte."""
    started = record_servers(monkeypatch)
    warm, cold = Sandbox(jdk, compilers=pool), Sandbox(jdk)
    fixtures = [
        (fixture_unit(java_fixture_dir, name, target, params), target, ordinals, None)
        for name, target, params, ordinals in FIXTURES
    ]
    # Compiles with the jar (passes; "cannot find symbol" in the jar's class) between ones without.
    with_jar = [
        (SourceUnit(USES_HELPER % method, "UsesHelper", False, True), "twice", (1,), [helper_jar])
        for method in ("twice", "thrice")
    ]
    cases = [fixtures[0], with_jar[0], fixtures[1], with_jar[1], *fixtures[2:]]
    # Without the jar, its package does not exist.
    cases.append((SourceUnit(USES_HELPER % "twice", "UsesHelper", False, True), "twice", (1,), None))
    # A package declaration: cold javac leaves Sol.class next to the source, so does the server.
    packaged = 'package foo;\npublic class Sol { public static void main(String[] a) { System.out.println("All test cases passed."); } }\n'
    cases.append((SourceUnit(packaged, "Sol", False, True), "f", (1,), None))
    cases += [(unit_of(source), "f", (1,), None) for source in CONTEXT_CASES]
    cases.append((with_jar[0][0], "twice", (1,), [helper_jar]))

    def files(workdir):
        """Every file the attempt left, the logs without their durations."""
        return {
            p.name: re.sub(rb"\(\d+\.\d{3}s\)", b"", p.read_bytes()) if p.suffix == ".log" else p.read_bytes()
            for p in workdir.iterdir()
        }

    def compare(i, unit, target, ordinals, classpath):
        got = warm.evaluate(unit, target, ordinals, tmp_path / "warm" / str(i), classpath)
        want = cold.evaluate(unit, target, ordinals, tmp_path / "cold" / str(i), classpath)
        assert got == want, unit.public_class_name
        assert files(tmp_path / "warm" / str(i)) == files(tmp_path / "cold" / str(i)), unit.public_class_name

    for i, case in enumerate(cases):
        compare(i, *case)
    served_by(pool)  # every compile went through one server, which is idle again
    # The crash ends the server, and the attempt is compiled cold. There javac overflows its own
    # stack on the source and exits 3, which is a compile error, not an environment fault, on
    # either side; the stack trace javac prints for it may end at another frame from one run to the next.
    deep = unit_of(DEEP_NESTING)
    for sandbox, side in ((warm, "warm"), (cold, "cold")):
        outcome = sandbox.evaluate(deep, "f", (1,), tmp_path / side / "deep")
        assert outcome == AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail="The system is out of resources.")
        assert compile_log(tmp_path / side / "deep").startswith(f"$ {jdk.javac} Deep.java\nexit: 3 ")
        assert "\njava.lang.StackOverflowError\n" in compile_log(tmp_path / side / "deep")

    logs = [compile_log(tmp_path / "warm" / str(i)) for i in range(len(cases))]
    assert sum(" error" in log for log in logs) == 10
    assert sum("\n[truncated: " in log for log in logs) == 1
    assert any("package p does not exist" in log for log in logs)
    assert any("only showing the first 100 errors, of 150 total" in log for log in logs)
    assert any("only showing the first 100 errors, of 120 total" in log for log in logs)
    assert sum("Some messages have been simplified" in log for log in logs) == 1
    assert any("uses unchecked or unsafe operations" in log and "deprecated API" in log for log in logs)
    assert len(started) == 1 and started[0].proc.returncode is not None
    assert pool._idle == []


def test_server_killed_between_compiles(jdk, pool, java_fixture_dir, tmp_path):
    warm = Sandbox(jdk, compilers=pool)
    unit = fixture_unit(java_fixture_dir, "SecondCaseFails.java", "twice", 1)
    first = warm.evaluate(unit, "twice", (1, 2), tmp_path / "a1")
    killed = served_by(pool)
    os.killpg(killed, signal.SIGKILL)

    second = warm.evaluate(unit, "twice", (1, 2), tmp_path / "a2")  # compiled cold
    assert second == first
    assert first.kind is OutcomeKind.FAILING_TESTS
    assert pool._idle == []

    third = warm.evaluate(unit, "twice", (1, 2), tmp_path / "a3")
    assert third == first
    assert served_by(pool) != killed


def test_jvm_warnings_stay_off_the_reply_channel(jdk, java_fixture_dir, tmp_path, monkeypatch):
    # A young generation as large as the initial heap makes the JVM warn before "ready".
    (initial_mb,) = [int(f[4:-1]) for f in sandbox_module.COMPILE_SERVER_FLAGS if f.startswith("-Xms")]
    provoke = f"-Xmn{initial_mb}m"
    log_pair = ("-Xlog:disable", "-Xlog:all=warning:stderr")
    bare = [f for f in sandbox_module.COMPILE_SERVER_FLAGS if f not in log_pair]
    probe = subprocess.run([jdk.java, *bare, provoke, "-version"], capture_output=True, text=True)
    assert "NewSize was set larger than initial heap size" in probe.stdout

    monkeypatch.setattr(sandbox_module, "COMPILE_SERVER_FLAGS", sandbox_module.COMPILE_SERVER_FLAGS + (provoke,))
    unit = fixture_unit(java_fixture_dir, "SecondCaseFails.java", "twice", 1)
    with CompilerPool() as pool:
        outcome = Sandbox(jdk, compilers=pool).evaluate(unit, "twice", (1, 2), tmp_path / "a1")
        served_by(pool)
    assert outcome.kind is OutcomeKind.FAILING_TESTS


def test_warm_compiles_run_no_full_gc(jdk, java_fixture_dir, tmp_path, monkeypatch):
    """One compile's garbage dies in the young generation, so a warm server never collects in full."""
    sandbox_module._helper_classes(jdk.javac)  # built before the log is on, so it holds the server's GCs alone
    gc_log = tmp_path / "gc.log"
    flags = sandbox_module.COMPILE_SERVER_FLAGS + (f"-Xlog:gc:file={gc_log}",)
    monkeypatch.setattr(sandbox_module, "COMPILE_SERVER_FLAGS", flags)
    source = (java_fixture_dir / "PalindromeChecker.java").read_text(encoding="utf-8")
    with CompilerPool() as pool:
        for i in range(40):
            workdir = tmp_path / f"c{i}"
            workdir.mkdir()
            (workdir / "PalindromeChecker.java").write_text(source, encoding="utf-8")
            result = pool.compile(jdk, workdir, [], "PalindromeChecker.java", timeout=60)
            assert result is not None and result.exit_code == 0
        served_by(pool)
    log = gc_log.read_text(encoding="utf-8")
    assert "Pause Young" in log
    assert "Pause Full" not in log


def test_server_compile_timeout(jdk, pool, java_fixture_dir, tmp_path):
    unit = fixture_unit(java_fixture_dir, "PalindromeChecker.java", "isPalindrome", 1)
    ordinals = (1, 2, 3, 4, 5, 6)
    Sandbox(jdk, compilers=pool).evaluate(unit, "isPalindrome", ordinals, tmp_path / "a1")
    server = pool._idle[0]

    # No compile finishes within a millisecond.
    hasty = Sandbox(jdk, compile_timeout=0.001, compilers=pool)
    outcome = hasty.evaluate(unit, "isPalindrome", ordinals, tmp_path / "a2")
    assert outcome.kind is OutcomeKind.COMPILE_ERROR
    assert outcome.detail == TIMEOUT_DIAGNOSTIC
    assert "(timed out)" in (tmp_path / "a2" / "compile.log").read_text(encoding="utf-8")
    assert not (tmp_path / "a2" / "run.log").exists()
    assert server.proc.returncode is not None  # killed and reaped
    assert pool._idle == []

    again = Sandbox(jdk, compilers=pool).evaluate(unit, "isPalindrome", ordinals, tmp_path / "a3")
    assert again.kind is OutcomeKind.PASS
    assert served_by(pool) != server.proc.pid


def test_concurrent_compiles_share_the_pool(jdk, java_fixture_dir, tmp_path, monkeypatch):
    """More threads than cores: no server is lost or shared, and each verdict holds."""
    threads, rounds = 3, 3
    started = record_servers(monkeypatch)
    unit = fixture_unit(java_fixture_dir, "SecondCaseFails.java", "twice", 1)
    outcomes, errors = [], []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with CompilerPool() as pool:
            warm = Sandbox(jdk, compilers=pool)

            def work(n):
                try:
                    for r in range(rounds):
                        outcomes.append(warm.evaluate(unit, "twice", (1, 2), tmp_path / f"t{n}-{r}"))
                except Exception as exc:  # reported below
                    errors.append(exc)

            workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(worker.is_alive() for worker in workers)
            assert sorted(map(id, pool._idle)) == sorted(map(id, started))
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert [o.fingerprint for o in outcomes] == ["failing_tests:2"] * threads * rounds
    assert 1 <= len(started) <= threads
    assert all(server.proc.returncode is not None for server in started)


def record_spares(monkeypatch) -> tuple[list, list]:
    """Every parked pool and every spare started from now on; each pool builds its launcher first."""
    pools, spares = [], []

    class Recorded(sandbox_module._Spare):
        def __init__(self, *args):
            super().__init__(*args)
            spares.append(self)

    class Pool(EagerParkedPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(sandbox_module, "_Spare", Recorded)
    monkeypatch.setattr(cli, "ParkedPool", Pool)
    return pools, spares


def helper_builds(monkeypatch) -> list:
    """Every javac launch from now on that compiles a helper, in a process that has built none yet."""
    builds = []
    execute = sandbox_module._execute

    def recorded(argv, *args):
        if {str(sandbox_module.COMPILE_SERVER), str(sandbox_module.LAUNCHER)} & set(argv):
            builds.append(argv)
        return execute(argv, *args)

    monkeypatch.setattr(sandbox_module, "_helpers", {})
    monkeypatch.setattr(sandbox_module, "_execute", recorded)
    return builds


def test_bench_reaps_every_server(jdk, repo_root, tmp_path, monkeypatch, capsys):
    started = record_servers(monkeypatch)
    pools, spares = record_spares(monkeypatch)
    builds = helper_builds(monkeypatch)
    monkeypatch.setattr(cli, "usable_cores", lambda: 3)  # a core left idle by the 2 workers
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("get-range", "collections-swap"):
        (suite / f"{name}.json").write_text(
            (repo_root / "tasks" / "sample" / f"{name}.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
    main = '    public static void main(String[] a) { System.out.println("All test cases passed."); }'
    replies = {
        "get-range": "    java.util.List<Integer> GetRange(int start, int end) { return null; }",
        "collections-swap": "    void swap(java.util.List<String> list, int i, int j) { }",
    }
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps({task: [java_response(method + "\n" + main)] for task, method in replies.items()}),
        encoding="utf-8",
    )
    argv = ["bench", str(suite), "--backend", "mock", "--mock-script", str(script),
            "--out", str(tmp_path / "runs"), "--run-id", "r1", "--workers", "2"]
    rc = cli.main(argv)
    assert "| Total | 2 | 2 (100.0%) | 2 (100.0%)" in capsys.readouterr().out
    assert rc == 0
    assert started
    for server in started:
        assert server.proc.returncode is not None
        assert not os.path.exists(server.home)
    assert True in pools[0].parked
    assert len(spares) >= 2  # one ran a candidate, its replacement was left idle
    for spare in spares:
        assert spare.proc.returncode is not None
        assert not spare.home.exists()
    assert len(builds) == 1  # one javac built both helpers

    # Resuming over finished records starts no JVM: no helper build, no compile server, no spare.
    started.clear()
    spares.clear()
    assert cli.main([*argv, "--resume"]) == 0
    assert started == [] and spares == [] and len(builds) == 1

    # With a worker on every core, the parked pool is left unused and every run starts a cold java.
    # Its compile servers start from the helpers the first command built.
    monkeypatch.setattr(cli, "usable_cores", lambda: 2)
    assert cli.main([*argv[:-3], "r2", "--workers", "2"]) == 0
    assert started and spares == [] and len(builds) == 1
    assert len(pools) == 3 and pools[2].parked == []


# Speaks CompileServer.java's protocol: "ready", then per request line a header
# "<exit> <stdout bytes> <stderr bytes>" and the two streams. MODE picks how.
# It stands in for java, whose arguments it ignores.
STUB_SERVER = """#!{python}
import sys, time

MODE = {mode!r}
PAUSE = 0.2
out = sys.stdout.buffer


def send(*pieces):
    for i, piece in enumerate(pieces):
        if i:
            time.sleep(PAUSE)
        out.write(piece)
        out.flush()


if MODE == "slow-boot":
    time.sleep(3)
send(b"ready\\n")
for n, request in enumerate(sys.stdin.buffer, start=1):
    if MODE == "late":
        time.sleep(1.5)
    if MODE == "bad-header":
        send(b"garbage ", b"0 0 0\\n")  # out of form only as a whole
    elif MODE == "split" and n == 1:
        send(b"1 5 5\\nou", b"t:1", b"err:", b"1")  # the header with the body's first bytes, then the rest
    else:
        send(b"0 5 5\\nout:%derr:%d" % (n, n))
"""


@pytest.fixture()
def stub_server(tmp_path, monkeypatch):
    """A function that makes every compile server from now on run STUB_SERVER in a mode; it returns them.

    The stub is the toolchain's java; its javac does not exist, so the helper build compiles nothing.
    """

    def start(mode: str) -> list:
        java = tmp_path / "java"
        java.write_text(STUB_SERVER.format(python=sys.executable, mode=mode), encoding="utf-8")
        java.chmod(0o755)
        return record_servers(monkeypatch)

    return start


def stub_toolchain(tmp_path) -> Toolchain:
    return Toolchain(javac=str(tmp_path / "javac"), java=str(tmp_path / "java"))


def stub_compile(pool: CompilerPool, tmp_path, timeout: float):
    return pool.compile(stub_toolchain(tmp_path), tmp_path, [], "Stub.java", timeout)


def test_stub_reply_in_pieces_is_put_together(stub_server, tmp_path, monkeypatch):
    """Header and body apart, the body in pieces: one reply; the server is kept, and serves the next compile."""
    started = stub_server("split")
    with CompilerPool() as pool:
        first = stub_compile(pool, tmp_path, 10)
        assert (first.exit_code, first.stdout, first.stderr, first.timed_out) == (1, "out:1", "err:1", False)
        assert first.duration_seconds >= 3 * 0.2
        (server,) = started
        assert pool._idle == [server]
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("a warm compile started a thread"))
        second = stub_compile(pool, tmp_path, 3e6)  # longer than one select wait may be
        assert (second.exit_code, second.stdout, second.stderr) == (0, "out:2", "err:2")
        assert started == [server] and pool._idle == [server] and server.proc.poll() is None


def test_stub_late_reply_times_out(stub_server, tmp_path):
    """A reply after the timeout: the read kills the server at the deadline, and the pool reaps and drops it."""
    started = stub_server("late")
    with CompilerPool() as pool:
        result = stub_compile(pool, tmp_path, 0.3)
        assert result.timed_out and result.exit_code == -signal.SIGKILL
        assert result.duration_seconds < 1.5
        (server,) = started
        assert server.proc.returncode == -signal.SIGKILL and not server.home.exists()
        assert pool._idle == [] and not pool._closed

    # The read itself kills it: the server is dead before anything stops it.
    server = sandbox_module._CompileServer(stub_toolchain(tmp_path).java, tmp_path)
    try:
        assert server.ready(10)
        assert server.compile(b"x\n", 0.3) is None and server.timed_out
        assert server.proc.wait(timeout=10) == -signal.SIGKILL
    finally:
        server.stop()


def test_stub_late_boot_goes_cold_and_keeps_the_pool(stub_server, tmp_path, capsys):
    """A server not ready within the timeout is dropped, that compile left to a cold javac, and the pool stays open."""
    started = stub_server("slow-boot")
    with CompilerPool() as pool:
        assert stub_compile(pool, tmp_path, 0.3) is None
        (server,) = started
        assert server.timed_out and server.proc.returncode == -signal.SIGKILL and not server.home.exists()
        assert not pool._closed and pool._idle == []
    assert capsys.readouterr().err == ""


def test_stub_out_of_form_header_drops_the_server(stub_server, tmp_path):
    """A header that is out of form, though its last piece alone would not be: dropped, not timed out."""
    started = stub_server("bad-header")
    with CompilerPool() as pool:
        assert stub_compile(pool, tmp_path, 10) is None
        (server,) = started
        assert not server.timed_out
        assert server.proc.returncode is not None and not server.home.exists()
        assert not pool._closed and pool._idle == []
