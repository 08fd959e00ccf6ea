"""Opt-in end-to-end benchmark-regression gate (``pytest -m bench``).

Deselected by default (see ``pytest.ini``): timing checks belong in a
quiet environment, not in tier-1.  The test shells out to the same
entry point as ``make bench-e2e`` so the two paths cannot drift.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_e2e_pipeline_within_committed_budget():
    """Current end-to-end pipeline timings stay within the (deliberately
    loose — whole-pipeline wall clock jitters) budget of BENCH_e2e.json."""
    if not (REPO_ROOT / "BENCH_e2e.json").exists():
        pytest.skip("no committed BENCH_e2e.json")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.bench_e2e", "--check"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, (
        f"end-to-end benchmark regression:\n{proc.stdout}\n{proc.stderr}"
    )


def test_kway_ml_committed_gates():
    """The committed kway-ml section honours its own quality/speed gates.

    ``run_benchmarks`` asserts these at generation time; re-asserting
    the committed file catches a hand-edited or stale BENCH_e2e.json
    (and documents the contract where the bench suite runs): geomean
    volume ratio vs recursive <= 1.1 at >= 2x its speed, every cell
    feasible and bit-identical across jobs.
    """
    path = REPO_ROOT / "BENCH_e2e.json"
    if not path.exists():
        pytest.skip("no committed BENCH_e2e.json")
    report = json.loads(path.read_text(encoding="utf-8"))
    section = report.get("kway_ml")
    assert section is not None, "BENCH_e2e.json lacks the kway-ml section"
    assert section["geomean_volume_ratio"] <= section["ratio_gate"]
    assert section["geomean_speedup_kway_ml"] >= section["speedup_gate"]
    assert section["kway_vcycles"] >= 1
    for name, entry in section["matrices"].items():
        for p, cell in entry["by_p"].items():
            assert cell["feasible"], f"{name} p={p} infeasible"
            assert cell["bit_identical"], f"{name} p={p} not bit-identical"
            assert cell["max_part_kway_ml"] <= cell["ceiling"]
