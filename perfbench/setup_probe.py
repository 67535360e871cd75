"""Time apisynth's start-up in a fresh interpreter.

Usage: setup_probe.py SRC SUITE_DIR MOCK_SCRIPT

Covers what ``apisynth bench`` does before its first task: imports, argument
parsing, prompt templates, suite parse, toolchain lookup and mock-script load.
Prints the measured seconds and the same time rescaled by reference.py.
"""

import sys
import time
from pathlib import Path

import reference

src, suite, script = sys.argv[1:4]
before = reference.reference_seconds()
start = time.perf_counter()
sys.path.insert(0, src)

from apisynth import cli  # noqa: E402
from apisynth.llm import load_mock_script  # noqa: E402
from apisynth.prompting import load_templates  # noqa: E402
from apisynth.sandbox import find_toolchain  # noqa: E402
from apisynth.tasks import load_suite  # noqa: E402

cli.build_parser().parse_args(["bench", suite, "--backend", "mock", "--mock-script", script])
load_templates()
load_suite(Path(suite))
find_toolchain()
load_mock_script(Path(script))
elapsed = time.perf_counter() - start
print(elapsed, elapsed * reference.scale(before, reference.reference_seconds()))
