from __future__ import annotations

from pathlib import Path

import pytest

from apisynth.prompting import load_templates
from apisynth.sandbox import ToolchainError, find_toolchain
from apisynth.tasks import parse_task_file

ROOT = Path(__file__).resolve().parent.parent

_acceptance_results: dict[str, str] = {}


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return ROOT


@pytest.fixture(scope="session")
def golden_prompt() -> str:
    return (ROOT / "tests" / "data" / "golden_initial_prompt.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def templates():
    return load_templates()


@pytest.fixture()
def ellipse_task():
    return parse_task_file(ROOT / "tasks" / "sample" / "ellipse-area.json")


@pytest.fixture(scope="session")
def jdk():
    try:
        return find_toolchain()
    except ToolchainError:
        pytest.skip("needs a JDK")


@pytest.fixture()
def java_fixture_dir() -> Path:
    return ROOT / "tests" / "fixtures" / "java"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    result = yield
    report = result.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        criterion = marker.kwargs.get("criterion", item.name)
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _acceptance_results[criterion] = status
    elif marker and report.when == "setup" and report.skipped:
        criterion = marker.kwargs.get("criterion", item.name)
        _acceptance_results.setdefault(criterion, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_acceptance_results):
        terminalreporter.write_line(f"{_acceptance_results[criterion]}  {criterion}")
