from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apisynth.records import from_json_dict, to_json_dict
from apisynth.tasks import (
    MethodSignature,
    Parameter,
    SynthesisTask,
    TaskError,
    TestCase as Case,
    load_suite,
    parse_task_file,
    resolve_dependencies,
    structural_violations,
    task_files,
)
from apisynth.refine import load_record


def make_task(**overrides) -> SynthesisTask:
    base = dict(
        id="demo",
        suite="demo-suite",
        signature=MethodSignature(
            name="area",
            return_type="double",
            parameters=(Parameter("e", "Ellipse2D"),),
        ),
        test_cases=(Case(ordinal=1, inputs=("x = 1",), expected="2"),),
    )
    base.update(overrides)
    return SynthesisTask(**base)


def write_task(path: Path, task: SynthesisTask) -> Path:
    path.write_text(json.dumps(to_json_dict(task)), encoding="utf-8")
    return path


def test_signature_render_plain():
    sig = MethodSignature("area", "double", (Parameter("e", "Ellipse2D"),))
    assert sig.render() == "double area(Ellipse2D e)"


def test_signature_render_static_and_throws():
    sig = MethodSignature(
        "getOffsetForLine",
        "int",
        (Parameter("textArea", "JTextArea"), Parameter("line", "int")),
        static=True,
        declared_throws=("BadLocationException",),
    )
    assert sig.render() == (
        "static int getOffsetForLine(JTextArea textArea, int line) throws BadLocationException"
    )


def test_parse_sample_file_round_trip(repo_root, tmp_path):
    path = repo_root / "tasks" / "sample" / "ellipse-area.json"
    task = parse_task_file(path)
    assert task.id == "ellipse-area"
    assert task.suite == "geometry"
    assert len(task.test_cases) == 4
    assert parse_task_file(write_task(tmp_path / "again.json", task)) == task


def test_parse_error_names_file_and_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"id": "x", "suite": "s", "tests": []}), encoding="utf-8")
    with pytest.raises(TaskError) as excinfo:
        parse_task_file(path)
    assert "bad.json" in str(excinfo.value)
    assert "signature" in str(excinfo.value)


def _set_at(data, path: tuple, value) -> None:
    for step in path[:-1]:
        data = data[step]
    data[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("signature", "params", 1, "name"), 7, "signature.params[1].name: expected a string"),
        (("signature", "static"), 1, "signature.static: expected a boolean"),
        (("tests", 0, "ordinal"), True, "tests[0].ordinal: expected an integer"),
        (("tests", 0, "inputs", 1), None, "tests[0].inputs[1]: expected a string"),
        (("signature", "throws"), ["E", 3], "signature.throws[1]: expected a string"),
        (("deps",), "fastjson", "deps: expected an array"),
        (("deps",), {"0": "fastjson"}, "deps: expected an array"),
    ],
    ids=["param-name", "static", "ordinal-true", "input", "throws", "deps-string", "deps-object"],
)
def test_parse_error_names_file_and_field_path(tmp_path, path, value, message):
    task = make_task(
        signature=MethodSignature("m", "int", (Parameter("a", "int"), Parameter("b", "int"))),
        test_cases=(Case(ordinal=1, inputs=("a = 1", "b = 2"), expected="3"),),
    )
    data = to_json_dict(task)
    _set_at(data, path, value)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(TaskError) as excinfo:
        parse_task_file(file)
    assert str(excinfo.value) == f"{file}: {message}"


def test_parse_error_on_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(TaskError) as excinfo:
        parse_task_file(path)
    assert "broken.json" in str(excinfo.value)


def violations_of(tmp_path, tests: list) -> list[str]:
    """The rules broken by a task file whose test cases are as written."""
    file = tmp_path / "t.json"
    data = {"id": "x", "suite": "s", "signature": {"name": "m", "return_type": "int"}, "tests": tests}
    file.write_text(json.dumps(data), encoding="utf-8")
    return structural_violations(parse_task_file(file))


def test_test_case_requires_pair_or_script(tmp_path):
    """A key given as null counts as absent."""
    pair = {"ordinal": 1, "inputs": [], "expected": "1"}
    for case in ({}, {"inputs": ["a"]}, {"expected": "1"}, {"inputs": [], "expected": None}, {"script": None}):
        assert violations_of(tmp_path, [pair, {"ordinal": 2, **case}]) == [
            "tests[1]: needs 'inputs' and a string 'expected', or a 'script'"
        ]
    assert violations_of(tmp_path, [pair | {"script": None, "description": None}]) == []


def test_test_case_rejects_pair_and_script_together(tmp_path):
    for case in ({"inputs": ["a"], "expected": "b"}, {"inputs": []}, {"expected": "b"}):
        assert violations_of(tmp_path, [{"ordinal": 1, "script": "c", **case}]) == [
            "tests[0]: use either 'inputs'/'expected' or 'script', not both"
        ]
    assert violations_of(tmp_path, [{"ordinal": 1, "script": "c", "inputs": None, "expected": None}]) == []


def test_script_must_not_be_blank(tmp_path):
    assert violations_of(tmp_path, [{"ordinal": 1, "script": " \n"}]) == [
        "tests[0].script: expected a non-empty string"
    ]
    assert violations_of(tmp_path, [{"ordinal": 1, "script": "", "inputs": []}]) == [
        "tests[0]: use either 'inputs'/'expected' or 'script', not both",
        "tests[0].script: expected a non-empty string",
    ]


@pytest.mark.parametrize("ordinal", [0, -1])
def test_an_ordinal_below_one_breaks_the_ordinal_rule(tmp_path, ordinal):
    assert violations_of(tmp_path, [{"ordinal": ordinal, "inputs": [], "expected": "1"}]) == [
        f"test case ordinals must be 1..N consecutive, got [{ordinal}]"
    ]


def test_structural_violations_catch_bad_ordinals():
    task = make_task(
        test_cases=(
            Case(ordinal=1, inputs=("a",), expected="b"),
            Case(ordinal=3, inputs=("c",), expected="d"),
        )
    )
    violations = structural_violations(task)
    assert any("consecutive" in v for v in violations)


def test_structural_violations_catch_duplicate_ordinals():
    task = make_task(
        test_cases=(
            Case(ordinal=1, inputs=("a",), expected="b"),
            Case(ordinal=1, inputs=("c",), expected="d"),
        )
    )
    assert any("duplicate test case ordinal 1" in v for v in structural_violations(task))


def test_structural_violations_catch_empty_tests_and_bad_name():
    task = make_task(
        signature=MethodSignature(name="2bad", return_type="int"),
        test_cases=(),
    )
    violations = structural_violations(task)
    assert any("no test cases" in v for v in violations)
    assert any("identifier" in v for v in violations)


def test_structural_violations_catch_duplicate_params():
    task = make_task(
        signature=MethodSignature(
            "m", "int", (Parameter("a", "int"), Parameter("a", "long"))
        )
    )
    assert any("duplicate parameter name 'a'" in v for v in structural_violations(task))


def test_dependency_resolution_order(tmp_path):
    (tmp_path / "guava.jar").write_bytes(b"")
    (tmp_path / "guava").write_bytes(b"")
    (tmp_path / "plainfile").write_bytes(b"")
    task = make_task(dependencies=("guava", "plainfile", "absent"))
    assert resolve_dependencies(task, tmp_path) == ([tmp_path / "guava.jar", tmp_path / "plainfile"], ["absent"])
    assert resolve_dependencies(task, None) == ([], ["guava", "plainfile", "absent"])


def test_resolved_dependencies_are_absolute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("deps").mkdir()
    (tmp_path / "deps" / "guava.jar").write_bytes(b"")
    classpath, missing = resolve_dependencies(make_task(dependencies=("guava",)), Path("deps"))
    assert missing == []
    assert classpath == [tmp_path / "deps" / "guava.jar"]
    assert all(p.is_absolute() and p.is_file() for p in classpath)


def test_a_dependency_resolves_once_its_archive_exists(tmp_path):
    task = make_task(dependencies=("fastjson",))
    assert resolve_dependencies(task, tmp_path) == ([], ["fastjson"])
    (tmp_path / "fastjson.jar").write_bytes(b"")
    assert resolve_dependencies(task, tmp_path) == ([tmp_path / "fastjson.jar"], [])


@pytest.mark.parametrize("dep", ["/etc/hosts", "../outside", "..", ".", "", "a/b", "a\0b"])
def test_dependency_id_must_be_one_path_segment(tmp_path, dep):
    task = make_task(dependencies=(dep,))
    assert structural_violations(task) == [f"dependency id {dep!r} is not a single path segment"]
    write_task(tmp_path / "demo.json", task)
    with pytest.raises(TaskError, match="dependency id .* is not a single path segment"):
        load_suite(tmp_path)


def test_dependency_id_that_leaves_the_deps_dir_is_refused(tmp_path):
    """An absolute id, or one with "..", would resolve outside --deps; both break the rule and resolve to nothing."""
    deps = tmp_path / "deps"
    deps.mkdir()
    outside = tmp_path / "outside.jar"
    outside.write_bytes(b"")
    for dep in (str(outside), "../outside"):
        task = make_task(dependencies=(dep,))
        assert structural_violations(task) == [f"dependency id {dep!r} is not a single path segment"]
        assert resolve_dependencies(task, deps) == ([], [dep])


def test_ids_must_fit_in_one_file_name():
    """A task id is at most 255 bytes of UTF-8, and a dependency id leaves its ``.jar`` name within them."""
    assert structural_violations(make_task(id="t" * 255, dependencies=("d" * 251,))) == []
    for task_id in ("t" * 256, "é" * 128):
        assert structural_violations(make_task(id=task_id)) == [f"task id {task_id!r} is not a single path segment"]
    for dep in ("d" * 252, "é" * 126):
        assert structural_violations(make_task(dependencies=(dep,))) == [
            f"dependency id {dep!r} is not a single path segment"
        ]


def test_load_suite_orders_tasks_lexicographically(tmp_path):
    for task_id in ["zeta", "alpha", "midl"]:
        write_task(tmp_path / f"{task_id}.json", make_task(id=task_id))
    tasks = load_suite(tmp_path)
    assert [t.id for t in tasks] == ["alpha", "midl", "zeta"]
    again = load_suite(tmp_path)
    assert again == tasks


def test_load_suite_rejects_duplicate_ids(tmp_path):
    task = make_task(id="dup")
    write_task(tmp_path / "a.json", task)
    write_task(tmp_path / "b.json", task)
    with pytest.raises(TaskError) as excinfo:
        load_suite(tmp_path)
    assert "dup" in str(excinfo.value)


def test_load_suite_single_file(repo_root):
    tasks = load_suite(repo_root / "tasks" / "sample" / "get-range.json")
    assert isinstance(tasks, tuple)
    assert [t.id for t in tasks] == ["get-range"]


def test_task_files_lists_what_glob_lists(tmp_path):
    names = ["b.json", "a.json", ".json", ".hidden.json", "X.JSON", "Z.json", "é.json", "ä.json", "日本.json"]
    for name in names + ["notes.txt", "a.json.bak", "json"]:
        (tmp_path / name).write_text("{}", encoding="utf-8")
    (tmp_path / "x.json").mkdir()
    files = task_files(tmp_path)
    assert files == sorted(tmp_path.glob("*.json"))
    assert [f.name for f in files] == [
        ".hidden.json", ".json", "Z.json", "a.json", "b.json", "x.json", "ä.json", "é.json", "日本.json"
    ]
    assert files[0] == tmp_path / ".hidden.json"


def test_a_directory_named_like_a_task_file_fails_to_read(tmp_path):
    write_task(tmp_path / "a.json", make_task())
    (tmp_path / "x.json").mkdir()
    with pytest.raises(TaskError) as excinfo:
        load_suite(tmp_path)
    assert str(excinfo.value) == f"{tmp_path / 'x.json'}: cannot read task file: Is a directory"


# A task file and a record as someone might write them by hand.
TASK_TEXT = """{
  "id": "t",
  "suite": "s",
  "signature": {"name": "m", "return_type": "int"},
  "tests": [{"ordinal": 1, "inputs": [], "expected": "1"}]
}
"""
RECORD_TEXT = """{
  "task_id": "t",
  "task_suite": "s",
  "final_status": "solved",
  "wall_time_seconds": 0.5
}
"""
READERS = {"task": (TASK_TEXT, parse_task_file), "record": (RECORD_TEXT, load_record)}


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("kind", READERS)
def test_files_with_crlf_or_cr_newlines_read_alike(tmp_path, kind, newline):
    text, read = READERS[kind]
    (tmp_path / "lf.json").write_bytes(text.encode())
    (tmp_path / "other.json").write_bytes(text.replace("\n", newline).encode())
    assert read(tmp_path / "other.json") == read(tmp_path / "lf.json")


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("task", TASK_TEXT[:-2].replace("\n", "\r\n").encode(),
         "Expecting ',' delimiter: line 6 column 1 (char 142)"),
        ("task", TASK_TEXT[:-2].replace("\n", "\r").encode(),
         "Expecting ',' delimiter: line 6 column 1 (char 142)"),
        ("task", b"\xef\xbb\xbf" + TASK_TEXT.encode(),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("task", TASK_TEXT.encode().replace(b'"s"', b'"\xff"'),
         "'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
        ("record", RECORD_TEXT[:-2].replace("\n", "\r\n").encode(),
         "Expecting ',' delimiter: line 6 column 1 (char 96)"),
        ("record", RECORD_TEXT[:-2].replace("\n", "\r").encode(),
         "Expecting ',' delimiter: line 6 column 1 (char 96)"),
        ("record", b"\xef\xbb\xbf" + RECORD_TEXT.encode(),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("record", RECORD_TEXT.encode().replace(b'"s"', b'"\xff"'),
         "'utf-8' codec can't decode byte 0xff in position 37: invalid start byte"),
    ],
    ids=[f"{kind}-{case}" for kind in READERS for case in ("crlf", "cr", "bom", "not-utf8")],
)
def test_unreadable_files_keep_their_error_text(tmp_path, kind, content, message):
    """Positions count a CRLF or CR as one newline; a BOM is not skipped."""
    path = tmp_path / "f.json"
    path.write_bytes(content)
    with pytest.raises((TaskError, ValueError)) as excinfo:
        READERS[kind][1](path)
    assert str(excinfo.value) == (f"{path}: invalid JSON: {message}" if kind == "task" else message)


def test_load_suite_missing_path(tmp_path):
    with pytest.raises(TaskError):
        load_suite(tmp_path / "nowhere")


def test_sample_suite_is_valid(repo_root):
    tasks = load_suite(repo_root / "tasks" / "sample")
    assert len(tasks) == 5
    for task in tasks:
        assert structural_violations(task) == []
        assert resolve_dependencies(task, None) == ([], [])


identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
free_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
)


@st.composite
def case_tuples(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cases = []
    for ordinal in range(1, n + 1):
        if draw(st.booleans()):
            cases.append(
                Case(
                    ordinal=ordinal,
                    inputs=tuple(draw(st.lists(free_text, max_size=3))),
                    expected=draw(free_text),
                )
            )
        else:
            script = draw(free_text.filter(lambda s: s.strip()))
            cases.append(Case(ordinal=ordinal, script=script))
    return tuple(cases)


@st.composite
def task_objects(draw):
    param_names = draw(st.lists(identifiers, max_size=3, unique=True))
    return SynthesisTask(
        id=draw(identifiers),
        suite=draw(identifiers),
        signature=MethodSignature(
            name=draw(identifiers),
            return_type=draw(st.sampled_from(["void", "int", "double", "List<Integer>"])),
            parameters=tuple(
                Parameter(name, draw(st.sampled_from(["int", "String", "long[]"])))
                for name in param_names
            ),
            static=draw(st.booleans()),
            declared_throws=tuple(draw(st.lists(identifiers, max_size=2))),
        ),
        test_cases=draw(case_tuples()),
        dependencies=tuple(draw(st.lists(identifiers, max_size=2))),
        notes=draw(st.none() | free_text),
    )


@given(task_objects())
def test_serialize_parse_round_trip(task):
    """Every generated task breaks no rule, and to_json_dict writes a task file that loads back equal."""
    assert structural_violations(task) == []
    with tempfile.TemporaryDirectory() as tmp:
        assert load_suite(write_task(Path(tmp) / "t.json", task)) == (task,)


@given(task_objects())
def test_serialized_form_is_json_stable(task):
    first = json.dumps(to_json_dict(task), sort_keys=True)
    second = json.dumps(to_json_dict(from_json_dict(SynthesisTask, json.loads(first))), sort_keys=True)
    assert first == second
