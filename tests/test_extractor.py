from __future__ import annotations

import pytest

from apisynth.extractor import (
    ExtractionError,
    contains_main_method,
    contains_method_declaration,
    extract_source_unit,
    find_public_class,
    select_code_block,
    strip_comments_and_strings,
)

SIMPLE = """Here is my solution:

```java
import java.util.List;

public class RangeBuilder {
    List<Integer> GetRange(int start, int end) {
        return List.of();
    }
}
```

Hope this helps!
"""


def test_extract_from_single_fenced_block():
    unit = extract_source_unit(SIMPLE, "GetRange", 2)
    assert unit.public_class_name == "RangeBuilder"
    assert unit.contains_target_method
    assert not unit.contains_main
    assert unit.source_text.startswith("import java.util.List;")
    assert "GetRange" in unit.source_text


def test_last_block_with_target_name_wins():
    text = (
        "First try:\n```java\npublic class A { void GetRange() {} }\n```\n"
        "Better version:\n```java\npublic class B { void GetRange(int a, int b) {} }\n```\n"
        "Unrelated:\n```java\npublic class C { void other() {} }\n```\n"
    )
    block = select_code_block(text, "GetRange")
    assert "class B" in block


def test_longest_block_when_no_block_names_target():
    text = (
        "```java\npublic class Short {}\n```\n"
        "```java\npublic class MuchLongerClassBody { int x; int y; int z; }\n```\n"
    )
    block = select_code_block(text, "missingMethod")
    assert "MuchLongerClassBody" in block


def test_whole_response_without_fences():
    text = "public class Bare { int f(int x) { return x; } }"
    unit = extract_source_unit(text, "f", 1)
    assert unit.public_class_name == "Bare"
    assert unit.source_text == text


def test_no_class_anywhere_raises():
    with pytest.raises(ExtractionError):
        extract_source_unit("I could not produce code for this task, sorry.", "f", 0)


def test_non_public_class_fallback():
    unit = extract_source_unit("```java\nclass Helper { void f() {} }\n```", "f", 0)
    assert unit.public_class_name == "Helper"


def test_public_class_with_modifiers():
    unit = extract_source_unit(
        "```java\npublic final class Sealed { void f() {} }\n```", "f", 0
    )
    assert unit.public_class_name == "Sealed"


def test_class_mentioned_in_comment_is_ignored():
    source = (
        "```java\n"
        "// this class Commented is not real\n"
        "public class Actual { void f() {} }\n"
        "```"
    )
    assert extract_source_unit(source, "f", 0).public_class_name == "Actual"


def test_contains_main_detection():
    assert contains_main_method("public class A { public static void main(String[] a) {} }")
    assert contains_main_method("class A { static public void main(String[] a) {} }")
    assert not contains_main_method("class A { public void main(String[] a) {} }")
    assert not contains_main_method("class A { void test() {} }")


def test_method_detection_respects_param_count():
    stripped = "class A { int add(int a, int b) { return a + b; } }"
    assert contains_method_declaration(stripped, "add", 2)
    assert not contains_method_declaration(stripped, "add", 1)
    assert not contains_method_declaration(stripped, "add", 3)


def test_method_detection_generic_params_not_split():
    stripped = "class A { int size(Map<String, Integer> m) { return m.size(); } }"
    assert contains_method_declaration(stripped, "size", 1)


@pytest.mark.parametrize(
    "params, count",
    [
        ("@Size(min = 1, max = 2) String s, int[] xs", 2),
        ("@A({1, 2}) int x", 1),
        ("Map<String, List<int[]>> m, Runnable r", 2),
        ("int] a, b", 1),  # a stray ] keeps every later comma from counting
    ],
    ids=["annotation-arguments", "array-initializer", "nested-generics", "stray-bracket"],
)
def test_method_detection_counts_only_top_level_commas(params, count):
    stripped = f"class A {{ void f({params}) {{ }} }}"
    assert contains_method_declaration(stripped, "f", count)
    assert not contains_method_declaration(stripped, "f", count + 1)


def test_method_detection_ignores_call_sites():
    stripped = "class A { void run() { helper(1, 2); } }"
    assert not contains_method_declaration(stripped, "helper", 2)


def test_method_detection_tolerates_throws_clause():
    stripped = "class A { int f(int x) throws java.io.IOException, FooError { return x; } }"
    assert contains_method_declaration(stripped, "f", 1)


def test_method_name_only_in_comment_not_detected():
    source = "class A {\n    // GetRange(int a, int b) would go here\n    void other() {}\n}"
    stripped = strip_comments_and_strings(source)
    assert not contains_method_declaration(stripped, "GetRange", 2)


def test_strip_comments_and_strings():
    source = 'class A { String s = "class Fake {"; /* class Gone */ } // class Tail'
    stripped = strip_comments_and_strings(source)
    assert "Fake" not in stripped
    assert "Gone" not in stripped
    assert "Tail" not in stripped
    assert "class A" in stripped


def test_strip_preserves_line_count():
    source = 'a\n/* multi\nline\ncomment */\nb = "x\\ny";\nc'
    stripped = strip_comments_and_strings(source)
    assert stripped.count("\n") == source.count("\n")


def test_fenced_block_language_tag_variants():
    for tag in ("java", "Java", "", "  java"):
        text = f"```{tag}\npublic class T {{ void f() {{}} }}\n```"
        assert extract_source_unit(text, "f", 0).public_class_name == "T"
