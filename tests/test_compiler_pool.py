"""The warm compile path: CompilerPool against cold javac, faults, timeouts, reaping.

These need a real JDK and are skipped without one.
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
from apisynth.sandbox import (
    TIMEOUT_DIAGNOSTIC,
    CompilerPool,
    OutcomeKind,
    Sandbox,
    ToolchainError,
    find_toolchain,
)
from helpers import java_response

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


@pytest.fixture(scope="module")
def jdk():
    try:
        return find_toolchain()
    except ToolchainError:
        pytest.skip("needs a JDK")


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
    return re.sub(r"\(\d+\.\d\ds\)", "", text)


def served_by(pool: CompilerPool) -> int:
    """The pid of the pool's one idle server."""
    (server,) = pool._idle
    return server.proc.pid


def record_servers(monkeypatch) -> list:
    """Every compile server started from now on, in start order."""
    started = []

    class Recorded(sandbox_module._CompileServer):
        def __init__(self, java):
            super().__init__(java)
            started.append(self)

    monkeypatch.setattr(sandbox_module, "_CompileServer", Recorded)
    return started


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


def test_warm_compiles_match_cold_javac(jdk, pool, helper_jar, java_fixture_dir, tmp_path):
    warm, cold = Sandbox(jdk, compilers=pool), Sandbox(jdk)
    cases = [
        (fixture_unit(java_fixture_dir, name, target, params), target, ordinals, None)
        for name, target, params, ordinals in FIXTURES
    ]
    for method in ("twice", "thrice"):  # passes; then "cannot find symbol" in the jar's class
        unit = SourceUnit(USES_HELPER % method, "UsesHelper", False, True)
        cases.append((unit, "twice", (1,), [helper_jar]))
    # A package declaration: cold javac leaves Sol.class next to the source, so does the server.
    packaged = 'package foo;\npublic class Sol { public static void main(String[] a) { System.out.println("All test cases passed."); } }\n'
    cases.append((SourceUnit(packaged, "Sol", False, True), "f", (1,), None))

    for i, (unit, target, ordinals, classpath) in enumerate(cases):
        got = warm.evaluate(unit, target, ordinals, tmp_path / "warm" / str(i), classpath)
        want = cold.evaluate(unit, target, ordinals, tmp_path / "cold" / str(i), classpath)
        assert got == want
        assert compile_log(tmp_path / "warm" / str(i)) == compile_log(tmp_path / "cold" / str(i))
        assert sorted(p.name for p in (tmp_path / "warm" / str(i)).iterdir()) == sorted(
            p.name for p in (tmp_path / "cold" / str(i)).iterdir()
        )
    kinds = [(tmp_path / "warm" / str(i) / "outcome.json").read_text() for i in range(len(cases))]
    assert sum('"compile_error"' in k for k in kinds) == 2
    served_by(pool)  # every compile went through one server, which is idle again


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
    gc_log = tmp_path / "gc.log"
    flags = sandbox_module.COMPILE_SERVER_FLAGS + (f"-Xlog:gc:file={gc_log}",)
    monkeypatch.setattr(sandbox_module, "COMPILE_SERVER_FLAGS", flags)
    source = (java_fixture_dir / "PalindromeChecker.java").read_text(encoding="utf-8")
    with CompilerPool() as pool:
        for i in range(40):
            workdir = tmp_path / f"c{i}"
            workdir.mkdir()
            (workdir / "PalindromeChecker.java").write_text(source, encoding="utf-8")
            result = pool.compile(jdk.java, workdir, [], "PalindromeChecker.java", timeout=60)
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


def test_bench_reaps_every_server(jdk, repo_root, tmp_path, monkeypatch, capsys):
    started = record_servers(monkeypatch)
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
    rc = cli.main(["bench", str(suite), "--backend", "mock", "--mock-script", str(script),
                   "--out", str(tmp_path / "runs"), "--run-id", "r1", "--workers", "2"])
    assert "| Total | 2 | 2 (100.0%) | 2 (100.0%)" in capsys.readouterr().out
    assert rc == 0
    assert started
    for server in started:
        assert server.proc.returncode is not None
        assert not os.path.exists(server.home)
