from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from apisynth import sandbox as sandbox_module
from apisynth.extractor import SourceUnit, candidate_source
from apisynth.llm import MockBackend
from apisynth.records import from_json_dict, to_json_dict
from apisynth.refine import FinalStatus, synthesize
from apisynth.sandbox import CANDIDATE_JVM_FLAGS, CompilerPool, Sandbox, Toolchain, ToolchainError, find_toolchain
from apisynth.verdict import (
    NO_ENTRY_POINT_DIAGNOSTIC,
    AttemptOutcome,
    ExecutionResult,
    OutcomeKind,
    classify,
    normalize_diagnostic,
)
from helpers import EagerParkedPool, java_response, record_servers, transcript_in

ORDINALS = (1, 2, 3)


def compile_result(exit_code=0, stderr="", timed_out=False) -> ExecutionResult:
    return ExecutionResult(exit_code, "", stderr, 0.1, timed_out)


def run_result(exit_code=0, stdout="", stderr="", timed_out=False) -> ExecutionResult:
    return ExecutionResult(exit_code, stdout, stderr, 0.1, timed_out)


def test_classify_compile_failure():
    outcome = classify(
        compile_result(1, "Foo.java:3: error: ';' expected"), None, ORDINALS
    )
    assert outcome.kind is OutcomeKind.COMPILE_ERROR
    assert outcome.fingerprint.startswith("compile_error:")


def test_classify_run_nonzero_with_markers_is_failing_tests():
    outcome = classify(
        compile_result(),
        run_result(1, stderr='Exception in thread "main" java.lang.AssertionError: Test case #2 failed'),
        ORDINALS,
    )
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset({2})
    assert outcome.fingerprint == "failing_tests:2"


def test_classify_run_nonzero_without_markers_is_runtime_error():
    outcome = classify(
        compile_result(),
        run_result(1, stderr='Exception in thread "main" java.lang.ArithmeticException: / by zero'),
        ORDINALS,
    )
    assert outcome.kind is OutcomeKind.RUNTIME_ERROR


def test_classify_success_marker_is_pass():
    outcome = classify(compile_result(), run_result(0, stdout="All test cases passed.\n"), ORDINALS)
    assert outcome.kind is OutcomeKind.PASS
    assert outcome.fingerprint == "pass"
    # without the target method the same run is no pass: it fails every case
    outcome = classify(
        compile_result(), run_result(0, stdout="All test cases passed.\n"), ORDINALS, declares_target=False
    )
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset(ORDINALS)


def test_classify_clean_exit_without_marker_fails_all():
    outcome = classify(compile_result(), run_result(0, stdout="done\n"), ORDINALS)
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset(ORDINALS)


def test_classify_clean_exit_with_failure_markers_uses_them():
    stdout = "Test case #1 failed\nTest case #3 failed\n"
    outcome = classify(compile_result(), run_result(0, stdout=stdout), ORDINALS)
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset({1, 3})
    assert outcome.fingerprint == "failing_tests:1,3"


def test_classify_failure_markers_beat_the_success_marker():
    stdout = "Test case #2 failed\nAll test cases passed.\n"
    outcome = classify(compile_result(), run_result(0, stdout=stdout), ORDINALS)
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset({2})


def test_classify_timeouts():
    compile_to = classify(compile_result(timed_out=True, exit_code=-9), None, ORDINALS)
    assert compile_to.kind is OutcomeKind.COMPILE_ERROR
    assert "timed out" in compile_to.fingerprint
    run_to = classify(compile_result(), run_result(timed_out=True, exit_code=-9), ORDINALS)
    assert run_to.kind is OutcomeKind.RUNTIME_ERROR
    assert "timed out" in run_to.fingerprint


def test_fingerprint_insensitive_to_paths_and_line_numbers():
    a = normalize_diagnostic("/tmp/run1/Foo.java:12: error: ';' expected")
    b = normalize_diagnostic("/work/other/Foo.java:93: error: ';' expected")
    assert a == b
    assert "error: ';' expected" in a


def test_fingerprint_insensitive_to_identity_hashes():
    """A parked and a cold run may number identity hashes differently; the same-error stop must not see it."""
    detail = 'Exception in thread "main" java.lang.IllegalStateException: bad java.lang.Object@{}'
    cold, parked = (AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail=detail.format(h))
                    for h in ("251a69d7", "7344699f"))
    assert cold.fingerprint == parked.fingerprint
    assert cold.fingerprint.endswith("bad java.lang.Object@<hash>")
    assert normalize_diagnostic("at [I@1b6d3586") == "at [I@<hash>"
    assert normalize_diagnostic("[Ljava.lang.String;@5e9f23b4") == "[Ljava.lang.String;@<hash>"
    # Not after a class name: not a hash.
    assert normalize_diagnostic("value @5") != normalize_diagnostic("value @6")


def test_fingerprint_distinguishes_messages():
    a = AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail="java.lang.IllegalStateException: x")
    b = AttemptOutcome(OutcomeKind.RUNTIME_ERROR, detail="java.lang.NullPointerException: y")
    assert a.fingerprint != b.fingerprint


def test_fingerprint_failing_tests_is_ordinal_set():
    a = AttemptOutcome(OutcomeKind.FAILING_TESTS, failing_ordinals=frozenset({5, 2}))
    assert a.fingerprint == "failing_tests:2,5"


def test_outcome_dict_round_trip():
    outcome = AttemptOutcome(
        kind=OutcomeKind.FAILING_TESTS,
        failing_ordinals=frozenset({1}),
        detail="x",
    )
    data = json.loads(json.dumps(to_json_dict(outcome)))
    assert data["failing_ordinals"] == [1]
    assert from_json_dict(AttemptOutcome, data) == outcome


def test_verdicts_and_prompts_load_no_process_code():
    """The verdict rules and the prompts they feed import neither subprocess nor the sandbox."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, apisynth.verdict, apisynth.prompting; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "apisynth.prompting" in loaded
    assert not {"subprocess", "apisynth.sandbox"} & loaded


def driven(source: str, target: str, class_name="A") -> tuple[str, str | None]:
    """candidate_source of a unit with no main: the file written and the class to run."""
    return candidate_source(unit(source, class_name, main=False), target)


def test_driver_prefers_the_test_method_named_after_the_target():
    written, main_class = driven("class A { void testHelper() {} void testGetRange() {} }", "GetRange")
    assert main_class == "SynthesisDriver"
    assert "new A().testGetRange();" in written


def test_driver_static_call_and_fallback():
    written, _ = driven("class A { static void testAll() {} }", "whatever")
    assert "A.testAll();" in written and "new A()" not in written
    source = "class A { int f() { return 1; } }"
    assert driven(source, "f") == (source + "\n", None)


def test_driver_instance_and_static():
    written, main_class = driven("class Calc { void testCalc() {} }", "calc", "Calc")
    assert main_class == "SynthesisDriver"
    assert written.endswith(
        "\nclass SynthesisDriver {\n"
        "    public static void main(String[] args) throws Exception {\n"
        "        new Calc().testCalc();\n"
        "    }\n"
        "}\n"
    )
    written, _ = driven("class Calc { static void testCalc() {} }", "calc", "Calc")
    assert "        Calc.testCalc();\n" in written


def test_driver_avoids_name_collision():
    _, main_class = driven("class SynthesisDriver { void testX() {} }", "x", "SynthesisDriver")
    assert main_class == "SynthesisDriver2"


def test_find_toolchain_env_override(monkeypatch, tmp_path):
    javac = tmp_path / "javac-custom"
    java = tmp_path / "java-custom"
    javac.write_text("#!/bin/sh\n")
    java.write_text("#!/bin/sh\n")
    monkeypatch.setenv("APISYNTH_JAVAC", str(javac))
    monkeypatch.setenv("APISYNTH_JAVA", str(java))
    toolchain = find_toolchain()
    assert toolchain.javac == str(javac)
    assert toolchain.java == str(java)
    # Without them, JAVA_HOME's bin comes before PATH.
    monkeypatch.delenv("APISYNTH_JAVAC")
    monkeypatch.delenv("APISYNTH_JAVA")
    home = tmp_path / "jdk"
    (home / "bin").mkdir(parents=True)
    for tool in ("javac", "java"):
        (home / "bin" / tool).write_text("#!/bin/sh\n")
    monkeypatch.setenv("JAVA_HOME", str(home))
    assert find_toolchain() == Toolchain(javac=str(home / "bin" / "javac"), java=str(home / "bin" / "java"))


def test_find_toolchain_missing_raises(monkeypatch, tmp_path):
    monkeypatch.delenv("APISYNTH_JAVAC", raising=False)
    monkeypatch.delenv("APISYNTH_JAVA", raising=False)
    monkeypatch.delenv("JAVA_HOME", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(ToolchainError) as excinfo:
        find_toolchain()
    assert "JAVA_HOME" in str(excinfo.value)


FAKE_JAVAC = """#!/usr/bin/env python3
import sys, time
src = open(sys.argv[-1], encoding="utf-8").read()
if "JAVAC_SLEEP" in src:
    time.sleep(30)
if "COMPILE_FAIL" in src:
    sys.stderr.write(sys.argv[-1] + ":3: error: ';' expected\\n")
    sys.exit(1)
if "JAVAC_CRASH" in src:
    sys.stderr.write("An exception has occurred in the compiler (17.0.15). Please file a bug.\\n")
    sys.exit(4)
for error in ("StackOverflowError", "OutOfMemoryError") if "JAVAC_SYSERR" in src else ():
    if error in src:
        sys.stderr.write("The system is out of resources.\\nConsult the following stack trace for details.\\n")
        sys.stderr.write("java.lang." + error + "\\n\\tat jdk.compiler/com.sun.tools.javac.Main.main(Main.java:43)\\n")
        sys.exit(3)
sys.exit(0)
"""

FAKE_JAVA = """#!/usr/bin/env python3
import glob, sys, time
src = "".join(open(f, encoding="utf-8").read() for f in sorted(glob.glob("*.java")))
if "JAVA_SLEEP" in src:
    time.sleep(30)
if "RUNTIME_BOOM" in src:
    sys.stderr.write('Exception in thread "main" java.lang.IllegalStateException: boom\\n')
    sys.stderr.write('\\tat Solution.f(Solution.java:7)\\n')
    sys.exit(1)
if "BYTE_FF" in src:
    sys.stdout.buffer.write(b"\\xff\\n")
    sys.stdout.buffer.flush()
if "FAIL_CASE_2" in src:
    sys.stderr.write('Exception in thread "main" java.lang.AssertionError: Test case #2 failed\\n')
    sys.exit(1)
sys.stdout.write("All test cases passed.\\n")
sys.exit(0)
"""


@pytest.fixture()
def fake_sandbox(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    javac = bin_dir / "javac"
    java = bin_dir / "java"
    javac.write_text(FAKE_JAVAC, encoding="utf-8")
    java.write_text(FAKE_JAVA, encoding="utf-8")
    for tool in (javac, java):
        tool.chmod(tool.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return Sandbox(
        toolchain=Toolchain(javac=str(javac), java=str(java)),
        compile_timeout=5.0,
        run_timeout=5.0,
    )


def unit(source: str, class_name="Solution", target=True, main=True) -> SourceUnit:
    return SourceUnit(
        source_text=source,
        public_class_name=class_name,
        contains_target_method=target,
        contains_main=main,
    )


def test_evaluate_pass_writes_artifacts(fake_sandbox, tmp_path):
    workdir = tmp_path / "w" / "attempt-1"
    source = "public class Solution { void f() {} public static void main(String[] a) {} }"
    outcome = fake_sandbox.evaluate(unit(source), "f", (1, 2), workdir)
    assert outcome.kind is OutcomeKind.PASS
    assert (workdir / "Solution.java").read_text(encoding="utf-8").startswith("public class")
    assert (workdir / "compile.log").exists()
    assert (workdir / "run.log").exists()
    assert not (workdir / "outcome.json").exists()


def test_evaluate_compile_error_skips_run(fake_sandbox, tmp_path):
    workdir = tmp_path / "attempt-1"
    source = "public class Solution { /* COMPILE_FAIL */ }"
    outcome = fake_sandbox.evaluate(unit(source), "f", (1,), workdir)
    assert outcome.kind is OutcomeKind.COMPILE_ERROR
    assert not (workdir / "run.log").exists()
    assert "';' expected" in outcome.detail


def test_javac_fault_exit_is_an_environment_fault(fake_sandbox, ellipse_task, templates, tmp_path):
    """A cold javac's crash is no verdict on the candidate: the task ends failed_environment."""
    source = "public class Solution { /* JAVAC_CRASH */ }"
    with pytest.raises(ToolchainError, match=r"^javac exited 4: An exception has occurred in the compiler"):
        fake_sandbox.evaluate(unit(source), "f", (1,), tmp_path / "a1")
    assert "exit: 4 " in (tmp_path / "a1" / "compile.log").read_text(encoding="utf-8")
    assert not (tmp_path / "a1" / "outcome.json").exists()

    body = "    /* JAVAC_CRASH */ double ellipseArea(java.awt.geom.Ellipse2D e) { return 0; }"
    backend = MockBackend(script=[java_response(body)])
    record = synthesize(ellipse_task, backend, templates, fake_sandbox, tmp_path / "task", transcript_in(tmp_path))
    assert record.final_status is FinalStatus.FAILED_ENVIRONMENT
    assert record.error.startswith("javac exited 4: ")
    assert record.attempts == ()


def test_javac_exit_3_is_a_verdict_only_on_its_own_stack_overflow(fake_sandbox, tmp_path):
    """A stack overflow in javac comes from the source; any other system error is the environment's."""
    deep = fake_sandbox.evaluate(unit("public class Solution { /* JAVAC_SYSERR StackOverflowError */ }"),
                                 "f", (1,), tmp_path / "a1")
    assert deep == AttemptOutcome(OutcomeKind.COMPILE_ERROR, detail="The system is out of resources.")
    assert not (tmp_path / "a1" / "outcome.json").exists()
    assert not (tmp_path / "a1" / "run.log").exists()

    with pytest.raises(ToolchainError, match=r"^javac exited 3: The system is out of resources\.$"):
        fake_sandbox.evaluate(unit("public class Solution { /* JAVAC_SYSERR OutOfMemoryError */ }"),
                              "f", (1,), tmp_path / "a2")
    assert "exit: 3 " in (tmp_path / "a2" / "compile.log").read_text(encoding="utf-8")
    assert not (tmp_path / "a2" / "outcome.json").exists()


def test_evaluate_runtime_error(fake_sandbox, tmp_path):
    source = "public class Solution { /* RUNTIME_BOOM */ public static void main(String[] a) {} }"
    outcome = fake_sandbox.evaluate(unit(source), "f", (1,), tmp_path / "a1")
    assert outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "IllegalStateException" in outcome.fingerprint


def test_evaluate_failing_case_marker(fake_sandbox, tmp_path):
    source = "public class Solution { /* FAIL_CASE_2 */ public static void main(String[] a) {} }"
    outcome = fake_sandbox.evaluate(unit(source), "f", (1, 2, 3), tmp_path / "a1")
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset({2})


def test_evaluate_pass_without_the_target_fails_every_case(fake_sandbox, tmp_path):
    source = "public class Solution { public static void main(String[] a) {} }"
    outcome = fake_sandbox.evaluate(unit(source, target=False), "f", (1, 2, 3), tmp_path / "a1")
    assert outcome.kind is OutcomeKind.FAILING_TESTS
    assert outcome.failing_ordinals == frozenset({1, 2, 3})


def test_evaluate_output_that_is_not_utf8(fake_sandbox, tmp_path):
    workdir = tmp_path / "a1"
    source = "public class Solution { /* BYTE_FF */ public static void main(String[] a) {} }"
    outcome = fake_sandbox.evaluate(unit(source), "f", (1,), workdir)
    assert outcome.kind is OutcomeKind.PASS
    assert "\ufffd" in (workdir / "run.log").read_text(encoding="utf-8")


def test_evaluate_toolchain_that_cannot_start(tmp_path):
    missing = tmp_path / "no-such-jdk" / "bin"
    sandbox = Sandbox(toolchain=Toolchain(javac=str(missing / "javac"), java=str(missing / "java")))
    source = "public class Solution { public static void main(String[] a) {} }"
    with pytest.raises(ToolchainError, match="cannot start"):
        sandbox.evaluate(unit(source), "f", (1,), tmp_path / "a1")


def test_fingerprints_stable_across_workdirs(fake_sandbox, tmp_path):
    source = "public class Solution { /* RUNTIME_BOOM */ public static void main(String[] a) {} }"
    first = fake_sandbox.evaluate(unit(source), "f", (1,), tmp_path / "r1")
    second = fake_sandbox.evaluate(unit(source), "f", (1,), tmp_path / "r2")
    assert first.fingerprint == second.fingerprint


def test_driver_injected_when_main_missing(fake_sandbox, tmp_path):
    workdir = tmp_path / "a1"
    source = "public class Solution { void f() {}\n    void testF() { }\n}"
    outcome = fake_sandbox.evaluate(unit(source, main=False), "f", (1,), workdir)
    assert outcome.kind is OutcomeKind.PASS
    written = (workdir / "Solution.java").read_text(encoding="utf-8")
    assert "class SynthesisDriver" in written
    assert "new Solution().testF();" in written


def test_no_entry_point_is_runtime_error(fake_sandbox, tmp_path):
    workdir = tmp_path / "a1"
    source = "public class Solution { void f() {} }"
    outcome = fake_sandbox.evaluate(unit(source, main=False), "f", (1,), workdir)
    assert outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert NO_ENTRY_POINT_DIAGNOSTIC in outcome.detail
    assert NO_ENTRY_POINT_DIAGNOSTIC in (workdir / "run.log").read_text(encoding="utf-8")


def test_run_timeout_is_runtime_error(fake_sandbox, tmp_path):
    fast = Sandbox(toolchain=fake_sandbox.toolchain, compile_timeout=5.0, run_timeout=0.4)
    source = "public class Solution { /* JAVA_SLEEP */ public static void main(String[] a) {} }"
    start = time.monotonic()
    outcome = fast.evaluate(unit(source), "f", (1,), tmp_path / "a1")
    elapsed = time.monotonic() - start
    assert outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "timed out" in outcome.fingerprint
    assert elapsed < 5


def test_compile_timeout_is_compile_error(fake_sandbox, tmp_path):
    fast = Sandbox(toolchain=fake_sandbox.toolchain, compile_timeout=0.4, run_timeout=5.0)
    source = "public class Solution { /* JAVAC_SLEEP */ public static void main(String[] a) {} }"
    outcome = fast.evaluate(unit(source), "f", (1,), tmp_path / "a1")
    assert outcome.kind is OutcomeKind.COMPILE_ERROR
    assert "timed out" in outcome.fingerprint


def test_a_timeout_longer_than_one_select_wait(tmp_path):
    """epoll refuses a wait above about 2.1e6 s; a timeout beyond it still waits for the child."""
    result = sandbox_module._execute([sys.executable, "-c", "pass"], tmp_path, 3e6)
    assert (result.exit_code, result.timed_out) == (0, False)


def test_classpath_passed_to_both_phases(fake_sandbox, tmp_path):
    jar = tmp_path / "dep.jar"
    jar.write_bytes(b"")
    workdir = tmp_path / "a1"
    source = "public class Solution { public static void main(String[] a) {} }"
    outcome = fake_sandbox.evaluate(unit(source), "f", (1,), workdir, classpath=[jar])
    assert outcome.kind is OutcomeKind.PASS
    assert str(jar) in (workdir / "compile.log").read_text(encoding="utf-8")
    assert str(jar) in (workdir / "run.log").read_text(encoding="utf-8")


def test_fake_java_cannot_host_a_compile_server(fake_sandbox, tmp_path, capsys, monkeypatch):
    """The fake java answers the server's start with test output: every compile goes cold."""
    started = record_servers(monkeypatch)
    source = "public class Solution { public static void main(String[] a) {} }"
    with CompilerPool() as pool:
        pooled = Sandbox(toolchain=fake_sandbox.toolchain, compile_timeout=5.0, compilers=pool)
        for attempt in ("a1", "a2"):
            outcome = pooled.evaluate(unit(source), "f", (1,), tmp_path / attempt)
            assert outcome.kind is OutcomeKind.PASS
        assert pool._closed and not pool._idle
        # The one server tried is already reaped and its directory removed.
        (server,) = started
        assert server.proc.returncode is not None and not server.home.exists()
    # Said once, not per compile.
    assert capsys.readouterr().err == (
        f"warning: {fake_sandbox.toolchain.java} cannot host a compile server; every compile runs a cold javac\n"
    )
    compile_log = (tmp_path / "a2" / "compile.log").read_text(encoding="utf-8")
    run_log = (tmp_path / "a2" / "run.log").read_text(encoding="utf-8")
    assert compile_log.startswith(f"$ {fake_sandbox.toolchain.javac} Solution.java\n")
    assert run_log.startswith(f"$ {fake_sandbox.toolchain.java} {' '.join(CANDIDATE_JVM_FLAGS)} -cp . Solution\n")


def test_candidate_reading_stdin_sees_its_end(jdk, tmp_path):
    """The candidate JVM gets no stdin of ours: a harness that reads System.in ends at once, cold or parked."""
    source = (
        "public class Solution { public static void main(String[] a) {\n"
        "    java.util.Scanner in = new java.util.Scanner(System.in);\n"
        "    System.out.println(in.hasNextLine() ? \"Test case #1 failed\" : \"All test cases passed.\");\n"
        "} }\n"
    )
    # This process's stdin is a pipe that never ends, as under a harness that holds it open.
    reader, writer = os.pipe()
    saved = os.dup(0)
    os.dup2(reader, 0)
    try:
        with EagerParkedPool() as parked:
            for side, sandbox in (("cold", Sandbox(jdk, run_timeout=20.0)),
                                  ("parked", Sandbox(jdk, run_timeout=20.0, parked=parked))):
                start = time.monotonic()
                outcome = sandbox.evaluate(unit(source), "f", (1,), tmp_path / side)
                elapsed = time.monotonic() - start
                assert outcome.kind is OutcomeKind.PASS, side
                assert elapsed < 10.0, side
    finally:
        os.dup2(saved, 0)
        for fd in (saved, reader, writer):
            os.close(fd)
    assert parked.parked == [True]


def test_candidate_heap_is_bounded(jdk, tmp_path):
    """The candidate JVM's heap is capped at 256 MB, whatever the host's memory, cold or parked."""
    source = (
        "public class Solution { public static void main(String[] a) {\n"
        "    long max = Runtime.getRuntime().maxMemory();\n"
        "    System.out.println(max <= 256L << 20 ? \"All test cases passed.\" : \"Test case #1 failed: \" + max);\n"
        "} }\n"
    )
    # A candidate that allocates past the cap ends as a runtime error naming it.
    hog = source.replace("long max = Runtime.getRuntime().maxMemory();", "long max = new long[40_000_000].length;")
    with EagerParkedPool() as parked:
        for side, sandbox in (("cold", Sandbox(jdk)), ("parked", Sandbox(jdk, parked=parked))):
            assert sandbox.evaluate(unit(source), "f", (1,), tmp_path / side / "a1").kind is OutcomeKind.PASS
            outcome = sandbox.evaluate(unit(hog), "f", (1,), tmp_path / side / "a2")
            assert outcome.kind is OutcomeKind.RUNTIME_ERROR, side
            assert "OutOfMemoryError" in outcome.detail, side
    assert parked.parked == [True, True]
