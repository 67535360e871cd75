"""Seeded inputs for the benchmark: task files, a mock script, expected verdicts.

Everything here is a pure function of the seed. The program under test only
ever sees the task files and the mock script; the expectations stay with the
benchmark and are checked against the records the program writes.

Expected verdicts follow the paper's four outcomes (compile error, run-time
error, failing test cases, pass) and its stop rules (pass, two consecutive
attempts with the same error, three follow-ups), not the program's
classifier. Two known classifier defects are generated on purpose in the
``repair-loop`` cycle, one task in ten:

* ``contradiction``: the harness prints ``Test case #N failed`` and then
  ``All test cases passed.`` and exits 0. Paper verdict: failing tests N.
* ``undeclared_target``: the class has a ``main`` that prints the success
  marker but declares no method with the target's name and arity. Paper
  verdict: failing tests, every case (nothing exercised the target).

Both sit on the fourth attempt, after three follow-ups, so that the paper's
path and the program's path make the same model calls and JVM launches; only
the verdicts differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SUCCESS = "All test cases passed."

# ---------------------------------------------------------------------------
# Method families: a signature, a reference implementation, two buggy
# variants with Python mirrors (to know exactly which test cases they fail).
# ---------------------------------------------------------------------------


def _java_str(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _digits(m: int) -> int:
    return sum(int(d) for d in str(m))


@dataclass(frozen=True)
class Family:
    method: str
    class_names: tuple[str, ...]
    return_type: str
    params: tuple[tuple[str, str], ...]  # (type, name)
    draw: object  # rng -> tuple of argument values
    reference: object  # args -> value
    correct: str  # Java method body
    bugs: dict  # name -> (Java body, Python mirror)


def _sum_range_draw(rng):
    return rng.randint(-6, 12), rng.randint(-6, 16)


def _count_char_draw(rng):
    return "".join(rng.choice("abc") for _ in range(rng.randint(0, 7))), rng.choice("abc")


def _max_of_draw(rng):
    return [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]


def _palindrome_draw(rng):
    half = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.4:
        return (half + rng.choice(["", "a", "b"]) + half[::-1],)
    return ("".join(rng.choice("ab") for _ in range(rng.randint(0, 6))),)


WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa")


def _swap_ends(text):
    words = text.split(" ")
    if len(words) > 1:
        words[0], words[-1] = words[-1], words[0]
    return " ".join(words)


def _reverse_draw(rng):
    return (" ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 5))),)


def java_literal(java_type: str, value) -> str:
    """The value as a Java expression of the given type."""
    if java_type == "String":
        return _java_str(value)
    if java_type == "char":
        return f"'{value}'"
    if java_type == "boolean":
        return "true" if value else "false"
    if java_type == "int[]":
        return "new int[] {" + ", ".join(str(v) for v in value) + "}"
    return str(value)


def show(java_type: str, value) -> str:
    """The value as written in a task file's test case."""
    if java_type == "int[]":
        return "[" + ", ".join(str(v) for v in value) + "]"
    return java_literal(java_type, value)


FAMILIES = (
    Family(
        method="sumRange",
        class_names=("RangeMath", "IntervalSums", "SeriesUtil"),
        return_type="int",
        params=(("int", "start"), ("int", "end")),
        draw=_sum_range_draw,
        reference=lambda s, e: sum(range(s, e)),
        correct=(
            "        int total = 0;\n"
            "        for (int i = start; i < end; i++) {\n"
            "            total += i;\n"
            "        }\n"
            "        return total;\n"
        ),
        bugs={
            "a": (
                "        int total = 0;\n"
                "        for (int i = start; i <= end; i++) {\n"
                "            total += i;\n"
                "        }\n"
                "        return total;\n",
                lambda s, e: sum(range(s, e + 1)),
            ),
            "b": (
                "        int total = 0;\n"
                "        for (int i = start + 1; i < end; i++) {\n"
                "            total += i;\n"
                "        }\n"
                "        return total;\n",
                lambda s, e: sum(range(s + 1, e)),
            ),
        },
    ),
    Family(
        method="countChar",
        class_names=("TextStats", "CharCounter", "LetterTally"),
        return_type="int",
        params=(("String", "text"), ("char", "c")),
        draw=_count_char_draw,
        reference=lambda t, c: t.count(c),
        correct=(
            "        int count = 0;\n"
            "        for (int i = 0; i < text.length(); i++) {\n"
            "            if (text.charAt(i) == c) {\n"
            "                count++;\n"
            "            }\n"
            "        }\n"
            "        return count;\n"
        ),
        bugs={
            "a": (
                "        int count = 0;\n"
                "        for (int i = 1; i < text.length(); i++) {\n"
                "            if (text.charAt(i) == c) {\n"
                "                count++;\n"
                "            }\n"
                "        }\n"
                "        return count;\n",
                lambda t, c: t[1:].count(c),
            ),
            "b": (
                "        int count = 0;\n"
                "        for (int i = 0; i < text.length() - 1; i++) {\n"
                "            if (text.charAt(i) == c) {\n"
                "                count++;\n"
                "            }\n"
                "        }\n"
                "        return count;\n",
                lambda t, c: t[:-1].count(c),
            ),
        },
    ),
    Family(
        method="maxOf",
        class_names=("ArrayScan", "Extremes", "PeakFinder"),
        return_type="int",
        params=(("int[]", "values"),),
        draw=lambda rng: (_max_of_draw(rng),),
        reference=lambda v: max(v),
        correct=(
            "        int best = values[0];\n"
            "        for (int i = 1; i < values.length; i++) {\n"
            "            if (values[i] > best) {\n"
            "                best = values[i];\n"
            "            }\n"
            "        }\n"
            "        return best;\n"
        ),
        bugs={
            "a": (
                "        int best = 0;\n"
                "        for (int i = 0; i < values.length; i++) {\n"
                "            if (values[i] > best) {\n"
                "                best = values[i];\n"
                "            }\n"
                "        }\n"
                "        return best;\n",
                lambda v: max(0, max(v)),
            ),
            "b": (
                "        int best = values[0];\n"
                "        for (int i = 1; i < values.length - 1; i++) {\n"
                "            if (values[i] > best) {\n"
                "                best = values[i];\n"
                "            }\n"
                "        }\n"
                "        return best;\n",
                lambda v: max(v[:-1]) if len(v) > 1 else v[0],
            ),
        },
    ),
    Family(
        method="isPalindrome",
        class_names=("WordChecks", "Mirror", "SymmetryTest"),
        return_type="boolean",
        params=(("String", "s"),),
        draw=_palindrome_draw,
        reference=lambda s: s == s[::-1],
        correct=(
            "        int n = s.length();\n"
            "        for (int i = 0; i < n / 2; i++) {\n"
            "            if (s.charAt(i) != s.charAt(n - 1 - i)) {\n"
            "                return false;\n"
            "            }\n"
            "        }\n"
            "        return true;\n"
        ),
        bugs={
            "a": (
                "        int n = s.length();\n"
                "        for (int i = 1; i < n / 2; i++) {\n"
                "            if (s.charAt(i) != s.charAt(n - 1 - i)) {\n"
                "                return false;\n"
                "            }\n"
                "        }\n"
                "        return true;\n",
                lambda s: all(s[i] == s[len(s) - 1 - i] for i in range(1, len(s) // 2)),
            ),
            "b": (
                "        int n = s.length();\n"
                "        return n < 2 || s.charAt(0) == s.charAt(n - 1);\n",
                lambda s: len(s) < 2 or s[0] == s[-1],
            ),
        },
    ),
    Family(
        method="digitSum",
        class_names=("NumberTools", "Digits", "Arith"),
        return_type="int",
        params=(("int", "n"),),
        draw=lambda rng: (rng.randint(-999, 999),),
        reference=lambda n: _digits(abs(n)),
        correct=(
            "        int m = Math.abs(n);\n"
            "        int total = 0;\n"
            "        while (m > 0) {\n"
            "            total += m % 10;\n"
            "            m /= 10;\n"
            "        }\n"
            "        return total;\n"
        ),
        bugs={
            "a": (
                "        int m = n;\n"
                "        int total = 0;\n"
                "        while (m != 0) {\n"
                "            total += m % 10;\n"
                "            m /= 10;\n"
                "        }\n"
                "        return total;\n",
                lambda n: -_digits(-n) if n < 0 else _digits(n),
            ),
            "b": (
                "        int m = Math.abs(n);\n"
                "        int total = 0;\n"
                "        while (m > 9) {\n"
                "            total += m % 10;\n"
                "            m /= 10;\n"
                "        }\n"
                "        return total;\n",
                lambda n: _digits(abs(n)) - int(str(abs(n))[0]) if abs(n) > 9 else 0,
            ),
        },
    ),
    Family(
        method="reverseWords",
        class_names=("Phrases", "SentenceOps", "WordOrder"),
        return_type="String",
        params=(("String", "text"),),
        draw=_reverse_draw,
        reference=lambda t: " ".join(reversed(t.split(" "))),
        correct=(
            '        String[] words = text.split(" ");\n'
            "        StringBuilder out = new StringBuilder();\n"
            "        for (int i = words.length - 1; i >= 0; i--) {\n"
            "            out.append(words[i]);\n"
            "            if (i > 0) {\n"
            "                out.append(' ');\n"
            "            }\n"
            "        }\n"
            "        return out.toString();\n"
        ),
        bugs={
            "a": (
                '        String[] words = text.split(" ");\n'
                "        if (words.length > 1) {\n"
                "            String first = words[0];\n"
                "            words[0] = words[words.length - 1];\n"
                "            words[words.length - 1] = first;\n"
                "        }\n"
                '        return String.join(" ", words);\n',
                _swap_ends,
            ),
            "b": (
                '        String[] words = text.split(" ");\n'
                "        StringBuilder out = new StringBuilder();\n"
                "        for (int i = words.length - 1; i >= 0; i--) {\n"
                "            out.append(words[i]);\n"
                "        }\n"
                "        return out.toString();\n",
                lambda t: "".join(reversed(t.split(" "))),
            ),
        },
    ),
)

# Generic breakages applied to any family's source.
COMPILE_BREAKS = ("semicolon", "symbol", "brace")
RUNTIME_BREAKS = ("npe", "format")


@dataclass(frozen=True)
class Case:
    ordinal: int
    args: tuple
    expected: object


@dataclass
class GeneratedTask:
    """One task: its file content, the model's replies and the expected path."""

    task_id: str
    suite: str
    family: Family
    class_name: str
    static: bool
    cases: tuple[Case, ...]
    replies: list[str] = field(default_factory=list)
    # One entry per expected attempt: {"kind", "ordinals", "javac", "java"}.
    attempts: list[dict] = field(default_factory=list)
    final_status: str = "solved"
    scenario: str = "pass"
    known_defect: str | None = None

    def task_json(self) -> dict:
        fam = self.family
        tests = []
        for case in self.cases:
            inputs = [f"{name} = {show(t, v)}" for (t, name), v in zip(fam.params, case.args)]
            tests.append({"ordinal": case.ordinal, "inputs": inputs, "expected": show(fam.return_type, case.expected)})
        return {
            "id": self.task_id,
            "suite": self.suite,
            "signature": {
                "name": fam.method,
                "return_type": fam.return_type,
                "params": [{"name": n, "type": t} for t, n in fam.params],
                "static": self.static,
                "throws": [],
            },
            "tests": tests,
            "deps": [],
        }

    def expectation(self) -> dict:
        return {
            "scenario": self.scenario,
            "final_status": self.final_status,
            "attempts": self.attempts,
            "known_defect": self.known_defect,
        }


# ---------------------------------------------------------------------------
# Java source assembly
# ---------------------------------------------------------------------------

_HELPERS = (
    (
        "Clamps a value into an inclusive range.",
        "private static int clamp{n}(int value, int low, int high) {{\n"
        "        return Math.max(low, Math.min(high, value + {n} - {n}));\n"
        "    }}",
    ),
    (
        "Joins the parts with a separator, skipping empty parts.",
        "private static String join{n}(String separator, String... parts) {{\n"
        "        StringBuilder sb = new StringBuilder();\n"
        "        for (String part : parts) {{\n"
        "            if (part.isEmpty()) {{\n"
        "                continue;\n"
        "            }}\n"
        "            if (sb.length() > 0) {{\n"
        "                sb.append(separator);\n"
        "            }}\n"
        "            sb.append(part);\n"
        "        }}\n"
        "        return sb.toString();\n"
        "    }}",
    ),
    (
        "Returns true when every element of the array is non-negative.",
        "private static boolean allNonNegative{n}(int[] values) {{\n"
        "        for (int v : values) {{\n"
        "            if (v < 0) {{\n"
        "                return false;\n"
        "            }}\n"
        "        }}\n"
        "        return values.length >= {n} - {n};\n"
        "    }}",
    ),
    (
        "Counts the bits set in a value, as a cheap checksum.",
        "private static int bits{n}(int value) {{\n"
        "        int count = 0;\n"
        "        int rest = value;\n"
        "        while (rest != 0) {{\n"
        "            count += rest & 1;\n"
        "            rest >>>= 1;\n"
        "        }}\n"
        "        return count + {n} * 0;\n"
        "    }}",
    ),
)


def _signature_line(fam: Family, static: bool, name: str | None = None) -> str:
    params = ", ".join(f"{t} {n}" for t, n in fam.params)
    return f"public {'static ' if static else ''}{fam.return_type} {name or fam.method}({params})"


def _call(task: GeneratedTask, case: Case) -> str:
    fam = task.family
    args = ", ".join(java_literal(t, v) for (t, _), v in zip(fam.params, case.args))
    target = fam.method if task.static else f"subject.{fam.method}"
    return f"{target}({args})"


def _mismatch(task: GeneratedTask, case: Case) -> str:
    fam = task.family
    call = _call(task, case)
    expected = java_literal(fam.return_type, case.expected)
    if fam.return_type == "String":
        return f"!{call}.equals({expected})"
    return f"{call} != {expected}"


def _harness_lines(task: GeneratedTask, style: str, contradiction: bool) -> list[str]:
    header = {
        "main": "    public static void main(String[] args) {",
        "test_static": f"    public static void test{task.family.method[0].upper()}{task.family.method[1:]}() {{",
        "test_instance": f"    public void test{task.family.method[0].upper()}{task.family.method[1:]}() {{",
    }[style]
    lines = [header]
    if not task.static:
        lines.append(f"        {task.class_name} subject = new {task.class_name}();")
    lines.append("        int failures = 0;")
    for case in task.cases:
        lines += [
            f"        if ({_mismatch(task, case)}) {{",
            f'            System.out.println("Test case #{case.ordinal} failed");',
            "            failures++;",
            "        }",
        ]
    if contradiction:
        lines.append(f'        System.out.println("{SUCCESS}");')
    else:
        lines += ["        if (failures == 0) {", f'            System.out.println("{SUCCESS}");', "        }"]
    lines.append("    }")
    return lines


def java_source(
    task: GeneratedTask,
    body: str,
    style: str,
    helpers: int,
    *,
    contradiction: bool = False,
    undeclared: bool = False,
    breakage: str | None = None,
) -> str:
    fam = task.family
    lines = ["import java.util.*;", "", f"public class {task.class_name} {{"]
    if breakage == "npe":
        lines += ["    private static StringBuilder callLog;", ""]
        body = '        callLog.append("call");\n' + body
    elif breakage == "format":
        body = '        int limit = Integer.parseInt(System.getProperty("limit", "unbounded"));\n' + body
    elif breakage == "symbol":
        body = "        int scale = defaultScale();\n" + body
    elif breakage == "semicolon":
        head, _, tail = body.rpartition(";")
        body = head + tail
    for i in range(helpers):
        doc, code = _HELPERS[i % len(_HELPERS)]
        lines += [f"    /** {doc} */", "    " + code.format(n=i + 1), ""]
    if undeclared:
        # A helper whose name only starts with the target's: no declaration of
        # the target itself, and a main that claims success regardless.
        lines += [
            f"    /** Draft of {fam.method}; not wired up yet. */",
            f"    {_signature_line(fam, True, fam.method + 'Draft')} {{",
            body.rstrip("\n"),
            "    }",
            "",
            "    public static void main(String[] args) {",
            f'        System.out.println("{SUCCESS}");',
            "    }",
        ]
    else:
        lines += [
            f"    /** Implementation of {fam.method} as specified by the test cases. */",
            f"    {_signature_line(fam, task.static)} {{",
            body.rstrip("\n"),
            "    }",
            "",
        ]
        lines += _harness_lines(task, style, contradiction)
    lines.append("}" if breakage != "brace" else "")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Replies
# ---------------------------------------------------------------------------

_INTROS = (
    "Here is the complete implementation.",
    "Below is a corrected version of the class.",
    "Thanks for the feedback. I reviewed the logic step by step and rewrote the method.",
    "Let me walk through the test cases first. Each case is checked in the harness, and the "
    "method handles the edge cases (empty input, negative values) explicitly.",
    "Sure. The implementation follows the eight steps: I restated the signature, read the "
    "test cases, designed the algorithm, and wrote a harness that prints one line per failure.",
)
_OUTROS = (
    "",
    "Compile and run it; the harness reports each failing test case by number.",
    "This version should compile cleanly and pass all of the listed test cases.",
    "If any test case still fails, the printed test case number shows which one.",
)


def reply(rng: random.Random, task: GeneratedTask, source: str, *, extraction: bool = False) -> str:
    """Prose around one or more fenced blocks; the candidate is the last block naming the method."""
    fam = task.family
    parts = [rng.choice(_INTROS), ""]
    if extraction or rng.random() < 0.4:
        # A draft of just the method, which names the target but has no class.
        draft_body = fam.correct if extraction else "        // sketch; see the full class below\n" + fam.correct
        parts += ["```java", f"{_signature_line(fam, task.static)} {{", draft_body.rstrip("\n"), "}", "```", ""]
    if not extraction:
        parts += ["```java", source.rstrip("\n"), "```", ""]
    if rng.random() < 0.5:
        parts += ["To try it locally:", "", "```bash", f"javac {task.class_name}.java", "```", ""]
    outro = rng.choice(_OUTROS)
    if outro:
        parts.append(outro)
    return "\n".join(parts).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

# Attempt codes: P pass, C compile error, R run-time error, Fa/Fb failing tests
# of bug a/b, X extraction failure, D known-defect attempt. "=" repeats the
# previous attempt's source exactly.
REPAIR_CYCLE = (
    ("compile-then-pass", ("C", "P"), "solved"),
    ("failing-then-pass", ("Fa", "P"), "solved"),
    ("extraction-then-pass", ("X", "P"), "solved"),
    ("runtime-failing-pass", ("R", "Fa", "P"), "solved"),
    ("same-failing-stop", ("Fa", "="), "failed_same_error"),
    ("known-defect", ("C", "R", "Fa", "D"), "failed_budget"),
    ("same-compile-stop", ("C", "="), "failed_same_error"),
    ("budget-stop", ("C", "R", "Fa", "Fb"), "failed_budget"),
    ("late-pass", ("X", "C", "R", "P"), "solved"),
    ("extraction-stop", ("X", "X"), "failed_extraction"),
)
ONE_SHOT = ("one-shot", ("P",), "solved")
DEFECTS = ("contradiction", "undeclared_target")
SUITES = ("control-structures", "frangel", "java-api", "strings")


def _draw_cases(rng: random.Random, fam: Family, count: int, need_bugs: bool) -> tuple[Case, ...]:
    for _ in range(500):
        args_list = [fam.draw(rng) for _ in range(count)]
        cases = tuple(Case(i + 1, args, fam.reference(*args)) for i, args in enumerate(args_list))
        if not need_bugs:
            return cases
        fails = [failing(fam, cases, b) for b in ("a", "b")]
        everything = frozenset(c.ordinal for c in cases)
        if all(fails) and fails[0] != fails[1] and fails[0] != everything:
            return cases
    raise RuntimeError(f"could not draw test cases for {fam.method} with {count} cases")


def failing(fam: Family, cases: tuple[Case, ...], bug: str) -> frozenset[int]:
    mirror = fam.bugs[bug][1]
    return frozenset(c.ordinal for c in cases if mirror(*c.args) != c.expected)


def make_task(rng: random.Random, index: int, task_id: str, scenario: tuple, suite: str,
              defect: str | None = None) -> GeneratedTask:
    """One task of a workload; ``index`` is its position in the workload's sequence.

    Features that move a task's cost a lot (method family, test-case count,
    helper count, which compile or run-time error) rotate with ``index``, so
    that every stretch of a run holds about the same mix whatever the seed.
    Cost-neutral features (inputs, names, static or not, harness style,
    prose, fenced blocks) come from the seeded ``rng``. A parse error stops
    javac about 0.3 s sooner than a type error, so the error kinds rotate.
    """
    name, codes, final_status = scenario
    fam = FAMILIES[index % len(FAMILIES)]
    repair = len(codes) > 1
    count = 2 + (index * 3) % 11 if repair else 1 + (index * 5) % 12
    task = GeneratedTask(
        task_id=task_id,
        suite=suite,
        family=fam,
        class_name=rng.choice(fam.class_names),
        static=rng.random() < 0.5,
        cases=_draw_cases(rng, fam, count, need_bugs=repair),
        final_status=final_status,
        scenario=name,
        known_defect=defect,
    )
    everything = frozenset(c.ordinal for c in task.cases)
    style = rng.choice(("main", "main", "test_static", "test_instance"))
    helpers = (index * 3) % 7
    previous_source = None
    for position, code in enumerate(codes):
        extraction = False
        if code == "=":
            source = previous_source
            attempt = dict(task.attempts[-1])
        elif code == "X":
            source, extraction = None, True
            attempt = {"kind": "compile_error", "ordinals": [], "javac": False, "java": False}
        elif code == "P":
            source = java_source(task, fam.correct, style, helpers)
            attempt = {"kind": "pass", "ordinals": [], "javac": True, "java": True}
        elif code == "C":
            source = java_source(task, fam.correct, style, helpers, breakage=COMPILE_BREAKS[(index + position) % 3])
            attempt = {"kind": "compile_error", "ordinals": [], "javac": True, "java": False}
        elif code == "R":
            source = java_source(task, fam.bugs["a"][0], style, helpers, breakage=RUNTIME_BREAKS[(index + position) % 2])
            attempt = {"kind": "runtime_error", "ordinals": [], "javac": True, "java": True}
        elif code in ("Fa", "Fb"):
            bug = code[1]
            source = java_source(task, fam.bugs[bug][0], style, helpers)
            attempt = {"kind": "failing_tests", "ordinals": sorted(failing(fam, task.cases, bug)), "javac": True, "java": True}
        elif code == "D" and defect == "contradiction":
            source = java_source(task, fam.bugs["b"][0], style, helpers, contradiction=True)
            attempt = {"kind": "failing_tests", "ordinals": sorted(failing(fam, task.cases, "b")), "javac": True, "java": True}
        elif code == "D" and defect == "undeclared_target":
            source = java_source(task, fam.correct, "main", helpers, undeclared=True)
            attempt = {"kind": "failing_tests", "ordinals": sorted(everything), "javac": True, "java": True}
        else:
            raise ValueError(f"unknown attempt code {code!r}")
        task.replies.append(reply(rng, task, source or "", extraction=extraction))
        task.attempts.append(attempt)
        previous_source = source
        # Small drift between attempts, as a model revises its answer.
        if code != "=" and rng.random() < 0.3:
            helpers = max(0, helpers + rng.choice((-1, 1)))
    return task


def workload_tasks(workload: str, seed: int, count: int, prefix: str = "t") -> list[GeneratedTask]:
    """The first ``count`` tasks of a workload's seeded sequence, in run order.

    ``repair-loop`` walks REPAIR_CYCLE in a fixed order so that any prefix of
    a run has the same mix of scenarios whatever the seed (see make_task for
    what the seed varies). The known-defect slot alternates between the two
    defects from cycle to cycle, starting with the one the seed's parity
    picks.
    """
    rng = random.Random(f"{workload}:{seed}:{prefix}")
    tasks = []
    for i in range(count):
        task_id = f"{prefix}{i:05d}"
        suite = SUITES[i % len(SUITES)]
        if workload == "repair-loop":
            cycle, slot = divmod(i, len(REPAIR_CYCLE))
            scenario = REPAIR_CYCLE[slot]
            defect = DEFECTS[(cycle + seed) % 2] if scenario[0] == "known-defect" else None
            tasks.append(make_task(rng, i, task_id, scenario, suite, defect))
        else:
            tasks.append(make_task(rng, i, task_id, ONE_SHOT, suite))
    return tasks


def template_tasks(seed: int) -> list[GeneratedTask]:
    """Tasks whose real records seed the ``resume-report`` run directory."""
    rng = random.Random(f"resume-templates:{seed}")
    wanted = ("compile-then-pass", "same-failing-stop", "budget-stop", "extraction-stop")
    scenarios = [ONE_SHOT] + [s for s in REPAIR_CYCLE if s[0] in wanted]
    return [make_task(rng, i, f"tpl{i:02d}", s, SUITES[i % len(SUITES)]) for i, s in enumerate(scenarios)]


def resume_task_json(seed: int, count: int) -> list[dict]:
    """Task files for a large resumed run: ids r00000.., spread over SUITES."""
    rng = random.Random(f"resume-suite:{seed}")
    out = []
    for i in range(count):
        task = make_task(rng, i, f"r{i:05d}", ONE_SHOT, SUITES[rng.randrange(len(SUITES))])
        out.append(task.task_json())
    return out


def write_suite(directory: Path, tasks: list[GeneratedTask]) -> tuple[Path, Path]:
    """Write task files and the mock script; returns (suite dir, script path)."""
    suite_dir = directory / "suite"
    suite_dir.mkdir(parents=True, exist_ok=True)
    for task in tasks:
        (suite_dir / f"{task.task_id}.json").write_text(json.dumps(task.task_json(), indent=2) + "\n", encoding="utf-8")
    script = directory / "mock-script.json"
    script.write_text(json.dumps({t.task_id: t.replies for t in tasks}) + "\n", encoding="utf-8")
    return suite_dir, script
