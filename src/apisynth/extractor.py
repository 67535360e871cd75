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

_PUBLIC_CLASS_RE = re.compile(
    r"\bpublic\s+(?:(?:abstract|final|strictfp|sealed|non-sealed|static)\s+)*class\s+([A-Za-z_$][\w$]*)"
)
_ANY_CLASS_RE = re.compile(
    r"\b(?:(?:abstract|final|strictfp|sealed|non-sealed|static)\s+)*class\s+([A-Za-z_$][\w$]*)"
)
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


def _count_top_level_params(param_text: str) -> int:
    if not param_text.strip():
        return 0
    round_depth = square_depth = curly_depth = angle_depth = 0
    commas = 0
    for ch in param_text:
        if ch == "(":
            round_depth += 1
        elif ch == ")":
            round_depth -= 1
        elif ch == "[":
            square_depth += 1
        elif ch == "]":
            square_depth -= 1
        elif ch == "{":
            curly_depth += 1
        elif ch == "}":
            curly_depth -= 1
        elif ch == "<":
            angle_depth += 1
        elif ch == ">":
            angle_depth = max(0, angle_depth - 1)
        elif ch == "," and round_depth == square_depth == curly_depth == angle_depth == 0:
            commas += 1
    return commas + 1


def contains_method_declaration(stripped_source: str, name: str, param_count: int) -> bool:
    """A declaration of ``name`` whose parameter list has ``param_count`` entries.

    Declarations are told apart from call sites by the body brace (or throws
    clause) after the parameter list.
    """
    for match in re.finditer(rf"\b{re.escape(name)}\s*\(", stripped_source):
        open_idx = match.end() - 1
        depth = 0
        close_idx = -1
        for i in range(open_idx, len(stripped_source)):
            ch = stripped_source[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    close_idx = i
                    break
        if close_idx < 0:
            continue
        params = stripped_source[open_idx + 1 : close_idx]
        if _count_top_level_params(params) != param_count:
            continue
        tail = stripped_source[close_idx + 1 :]
        if re.match(r"\s*(?:throws\s+[\w.$\s,]+)?\{", tail):
            return True
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
