from __future__ import annotations

import pytest

from apisynth.prompting import (
    COMPILE_FOLLOWUP,
    FAILING_FOLLOWUP_TEMPLATE,
    RUNTIME_FOLLOWUP,
    Message,
    PromptError,
    PromptTemplateSet,
    build_followup,
    build_initial_conversation,
    format_ordinals,
    load_templates,
    render_conversation_text,
    render_test_cases,
)
from apisynth.tasks import TestCase as Case
from helpers import compile_error, failing, ok, runtime_error


def test_initial_conversation_matches_golden(ellipse_task, templates, golden_prompt):
    conversation = build_initial_conversation(ellipse_task, templates)
    assert render_conversation_text(conversation) == golden_prompt


def test_initial_conversation_shape(ellipse_task, templates):
    conversation = build_initial_conversation(ellipse_task, templates)
    assert [m.role for m in conversation] == ["system", "user"]
    system, user = conversation
    assert system.content.startswith("<Role>\n")
    assert system.content.endswith("</Role>")
    assert user.content.startswith("<Instruction>\n")
    assert user.content.rstrip().endswith("Please output the results. Only output complete code.")
    assert "<examples>" in user.content
    assert "Here are 5 examples:" in user.content
    assert "double ellipseArea(Ellipse2D ellipse)" in user.content


def test_initial_conversation_is_deterministic(ellipse_task, templates):
    first = build_initial_conversation(ellipse_task, templates)
    second = build_initial_conversation(ellipse_task, templates)
    assert render_conversation_text(first) == render_conversation_text(second)


def test_instruction_must_have_eight_steps(templates):
    truncated = "\n".join(
        line for line in templates.instruction_text.split("\n") if "Step 8" not in line
    )
    with pytest.raises(PromptError) as excinfo:
        PromptTemplateSet(
            role_text=templates.role_text,
            instruction_text=truncated,
            examples=templates.examples,
            task_frame=templates.task_frame,
            output_directive=templates.output_directive,
        )
    assert "1..8" in str(excinfo.value)


def test_message_role_and_content_validation():
    with pytest.raises(PromptError):
        Message("tool", "hello")
    with pytest.raises(PromptError):
        Message("user", "")


def test_render_test_cases_pairs_and_scripts():
    cases = [
        Case(ordinal=1, inputs=("start = 10", "end = 9"), expected="output: []"),
        Case(ordinal=2, inputs=(), expected="Math.PI"),
        Case(ordinal=3, script="list = [1]; swap(list, 0, 0) -> list stays [1]"),
    ]
    assert render_test_cases(cases) == [
        "1. start = 10, end = 9 -> output: []",
        "2. -> Math.PI",
        "3. list = [1]; swap(list, 0, 0) -> list stays [1]",
    ]


def test_followup_texts_are_exact():
    assert build_followup(compile_error()) == (
        "The solution doesn't compile. Please fix the bug and make sure the "
        "implementation compiles, runs and can pass all test cases."
    )
    assert build_followup(runtime_error()) == (
        "The solution throws run-time exceptions. Please fix the bug and make sure "
        "the implementation compiles, runs and can pass all test cases."
    )
    assert build_followup(failing(2, 5)) == (
        "The implementation fails test cases 2 and 5. Please fix the bug and make "
        "sure the implementation compiles, runs and can pass all test cases."
    )


def test_followup_ordinal_phrasing():
    assert format_ordinals([3]) == "test case 3"
    assert format_ordinals([5, 2]) == "test cases 2 and 5"
    assert format_ordinals([5, 1, 3]) == "test cases 1, 3 and 5"
    assert "test case 4" in build_followup(failing(4))
    assert "test cases 1, 3 and 5" in build_followup(failing(3, 5, 1))


def test_followup_rejects_pass():
    with pytest.raises(PromptError):
        build_followup(ok())


def test_followup_constants_share_repair_clause():
    clause = "Please fix the bug and make sure the implementation compiles, runs and can pass all test cases."
    for text in (COMPILE_FOLLOWUP, RUNTIME_FOLLOWUP, FAILING_FOLLOWUP_TEMPLATE.format(which="test case 1")):
        assert text.endswith(clause)


def test_load_templates_defaults(templates):
    assert templates.examples.startswith(
        "Here are 5 examples:\n<method>\n    List<Integer> GetRange(int start, int end)\n</method>\n"
        "<TestCases>\n    1. start = 10, end = 9 -> output: []\n"
    )
    assert templates.task_frame == "Now, give you the following method signature and test cases:"
    assert templates.output_directive == "Please output the results. Only output complete code."


def test_load_templates_directory_override(tmp_path, ellipse_task):
    (tmp_path / "role.txt").write_text("You are a terse code generator.\n", encoding="utf-8")
    templates = load_templates(tmp_path)
    assert templates.role_text == "You are a terse code generator."
    # everything else still comes from the packaged defaults
    assert templates.examples == load_templates().examples
    text = render_conversation_text(build_initial_conversation(ellipse_task, templates))
    assert "<Role>\n    You are a terse code generator.\n</Role>" in text


def test_examples_override_is_inserted_as_written(tmp_path, ellipse_task):
    (tmp_path / "examples.txt").write_text(
        "Here is one example:\n<method>\n    int one()\n</method>\n"
        "<TestCases>\n    1. -> 1\n</TestCases>\n<output>\n    int one() { return 1; }\n</output>\n",
        encoding="utf-8",
    )
    text = render_conversation_text(build_initial_conversation(ellipse_task, load_templates(tmp_path)))
    assert (
        "<examples>\n"
        "    Here is one example:\n"
        "    <method>\n"
        "        int one()\n"
        "    </method>\n"
        "    <TestCases>\n"
        "        1. -> 1\n"
        "    </TestCases>\n"
        "    <output>\n"
        "        int one() { return 1; }\n"
        "    </output>\n"
        "</examples>\n"
        "Now, give you"
    ) in text


def test_empty_examples_render_an_empty_block(tmp_path, ellipse_task):
    (tmp_path / "examples.txt").write_text("", encoding="utf-8")
    text = render_conversation_text(build_initial_conversation(ellipse_task, load_templates(tmp_path)))
    assert "</Instruction>\n<examples>\n</examples>\nNow, give you" in text

