"""The program names the benchmark rebinds while it traces a run.

perfbench/spans.py swaps module attributes of ``refine``, ``bench`` and
``cli`` for timing wrappers, and perfbench/workloads.py swaps the CLI's two
factories. Its ``patched`` fails on a name that is gone, so a refactor that
drops one of them breaks the benchmark; this test makes it fail the test suite too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from apisynth import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_exists():
    spans = load_spans()
    replacements = spans.layer_patches(spans.Tracer())
    replacements += [(cli, "make_backend", object()), (cli, "make_sandbox", object())]
    before = [getattr(module, attr) for module, attr, _ in replacements]
    with spans.patched(replacements):
        for module, attr, new in replacements:
            assert getattr(module, attr) is new
    assert [getattr(module, attr) for module, attr, _ in replacements] == before
