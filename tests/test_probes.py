"""The probe scripts run end to end at a tiny size and report sane quantiles.

They reach into the sandbox's compile server and parked pool, so a change
there that breaks them fails here. They need a real JDK and are skipped
without one.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest


def probe(repo_root, tmp_path, script: str, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(repo_root / "scripts" / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.usefixtures("jdk")
def test_compile_probe(repo_root, tmp_path):
    # Two samples: a p90 that rounds down to the lower one would fall below the median.
    report = probe(repo_root, tmp_path, "compile_probe.py", "--compiles", "2", "--candidates", "2")
    assert report["compiles"] == sum(report["exits"].values()) == 2
    assert 0 < report["p50_ms"] <= report["p90_ms"]


@pytest.mark.usefixtures("jdk")
def test_run_probe(repo_root, tmp_path):
    report = probe(repo_root, tmp_path, "run_probe.py", "--candidates", "2", "--rounds", "1", "--gap", "0")
    for side in ("cold", "parked"):
        assert report[side]["runs"] == 2 - report[side].get("refused", 0)
        assert 0 < report[side]["p50_ms"] <= report[side]["p90_ms"]
        assert report[side]["cpu_ms_per_run"] > 0


@pytest.mark.usefixtures("jdk")
def test_run_probe_with_runs_at_once_on_two_classpaths(repo_root, tmp_path):
    report = probe(repo_root, tmp_path, "run_probe.py", "--candidates", "2", "--rounds", "2", "--gap", "0",
                   "--workers", "2", "--keys", "2")
    assert (report["workers"], report["keys"], report["cold"]["runs"]) == (2, 2, 4)
    assert report["parked"]["runs"] + report["parked"]["refused"] == 4
    assert report["parked"]["boots_per_run"] == round(report["parked"]["boots"] / 4, 2) > 0
