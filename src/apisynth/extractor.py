"""Pull a compilable Java source unit out of free-form model output; shape the file the sandbox compiles."""

from __future__ import annotations

import re
from dataclasses import dataclass


class ExtractionError(Exception):
    """The model output contains nothing that could be written to a .java file."""


@dataclass(frozen=True)
class SourceUnit:
    source_text: str
    public_class_name: str
    contains_target_method: bool
    contains_main: bool


FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)

# Strings before comments: a // inside a string literal is not a comment.
_STRIP_RE = re.compile(
    r'"(?:\\.|[^"\\])*"'
    r"|'(?:\\.|[^'\\])*'"
    r"|//[^\n]*"
    r"|/\*.*?\*/",
    re.DOTALL,
)

_CLASS_DECL = r"(?:(?:abstract|final|strictfp|sealed|non-sealed|static)\s+)*class\s+([A-Za-z_$][\w$]*)"
_PUBLIC_CLASS_RE = re.compile(r"\bpublic\s+" + _CLASS_DECL)
_ANY_CLASS_RE = re.compile(r"\b" + _CLASS_DECL)
_MAIN_RE = re.compile(r"\bvoid\s+main\s*\(")


def strip_comments_and_strings(source: str) -> str:
    """Blank out literals and comments so structural scans see only code."""

    def replace(match: re.Match) -> str:
        text = match.group(0)
        if text.startswith('"'):
            return '""'
        if text.startswith("'"):
            return "''"
        return "\n" * text.count("\n") if "\n" in text else " "

    return _STRIP_RE.sub(replace, source)


TEST_METHOD_RE = re.compile(r"\b(?:(static)\s+)?(?:final\s+)?void\s+(test\w*)\s*\(\s*\)")


def candidate_source(unit: SourceUnit, target_name: str) -> tuple[str, str | None]:
    """The source file written for a candidate and the class to run (None: nothing runnable).

    A unit without ``main`` gets a driver class that calls a no-argument test
    method: the first one named after the target, else the first one.
    """
    source = unit.source_text
    if not source.endswith("\n"):
        source += "\n"
    if unit.contains_main:
        return source, unit.public_class_name
    stripped = strip_comments_and_strings(unit.source_text)
    tests = [(m.group(2), m.group(1) is not None) for m in TEST_METHOD_RE.finditer(stripped)]
    if not tests:
        return source, None
    lowered = target_name.lower()
    method, static = next((t for t in tests if lowered in t[0].lower()), tests[0])
    class_name = unit.public_class_name
    call = f"{class_name}.{method}();" if static else f"new {class_name}().{method}();"
    driver_name, n = "SynthesisDriver", 2
    while driver_name in stripped:
        driver_name, n = f"SynthesisDriver{n}", n + 1
    return (
        f"{source}\nclass {driver_name} {{\n"
        f"    public static void main(String[] args) throws Exception {{\n"
        f"        {call}\n"
        f"    }}\n"
        f"}}\n"
    ), driver_name


def select_code_block(response_text: str, target_method_name: str) -> str:
    """Choose the code-bearing slice of a response.

    With fenced blocks: the last block mentioning the target method, else the
    longest block. Without fences the whole response is the candidate.
    """
    blocks = FENCE_RE.findall(response_text)
    if not blocks:
        return response_text
    named = [b for b in blocks if target_method_name in b]
    if named:
        return named[-1]
    return max(blocks, key=len)


def find_public_class(stripped_source: str) -> str | None:
    match = _PUBLIC_CLASS_RE.search(stripped_source)
    if match:
        return match.group(1)
    match = _ANY_CLASS_RE.search(stripped_source)
    return match.group(1) if match else None


def contains_main_method(stripped_source: str) -> bool:
    for match in _MAIN_RE.finditer(stripped_source):
        window = stripped_source[max(0, match.start() - 60) : match.start()]
        if re.search(r"\bstatic\b", window):
            return True
    return False


# A closing bracket and the opener whose depth it lowers.
_OPENER = {")": "(", "]": "[", "}": "{", ">": "<"}
_BODY_RE = re.compile(r"\s*(?:throws\s+[\w.$\s,]+)?\{")


def contains_method_declaration(stripped_source: str, name: str, param_count: int) -> bool:
    """A declaration of ``name`` whose parameter list has ``param_count`` entries.

    One scan per parameter list counts the commas outside every bracket; a
    stray ``]`` or ``}`` takes its depth below 0, a ``>`` never does.
    Declarations are told apart from call sites by the body brace (or throws
    clause) after the ``)`` that closes the list.
    """
    for match in re.finditer(rf"\b{re.escape(name)}\s*\(", stripped_source):
        start = match.end()
        depth = dict.fromkeys("([{<", 0)
        commas = 0
        for i in range(start, len(stripped_source)):
            ch = stripped_source[i]
            if ch in depth:
                depth[ch] += 1
            elif ch == ")" and not depth["("]:
                entries = commas + 1 if stripped_source[start:i].strip() else 0
                if entries == param_count and _BODY_RE.match(stripped_source, i + 1):
                    return True
                break
            elif ch in _OPENER:
                opener = _OPENER[ch]
                depth[opener] = max(0, depth[opener] - 1) if ch == ">" else depth[opener] - 1
            elif ch == "," and not any(depth.values()):
                commas += 1
    return False


def extract_source_unit(response_text: str, method_name: str, param_count: int) -> SourceUnit:
    """Extract the candidate implementation for a method from a model response."""
    block = select_code_block(response_text, method_name)
    stripped = strip_comments_and_strings(block)
    class_name = find_public_class(stripped)
    if class_name is None:
        raise ExtractionError("no Java class declaration found in the model output")
    return SourceUnit(
        source_text=block,
        public_class_name=class_name,
        contains_target_method=contains_method_declaration(stripped, method_name, param_count),
        contains_main=contains_main_method(stripped),
    )
