"""Checkpointed sweeps: journal format, resume, and a real mid-sweep kill.

The headline test SIGKILLs an actual subprocess *mid-sweep* (via an
env-installed fault plan firing in the child's driver loop), then
resumes from the journal it left behind and asserts the merged stream
is bit-identical to an uninterrupted sweep — the crash-resume contract
of ``docs/robustness.md`` end to end.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import EvaluationError
from repro.eval.runner import PAPER_METHODS
from repro.eval.sweep import SweepCheckpoint, build_runspecs, run_sweep
from repro.sparse.collection import build_collection
from repro.utils import faults
from repro.utils.executor import RetryPolicy, shutdown_pools

pytestmark = pytest.mark.chaos

INSTANCES = ("sym_grid2d_s", "sqr_er_s")
NRUNS = 2


def _specs():
    table = {e.name: e for e in build_collection()}
    entries = [table[n] for n in INSTANCES]
    return build_runspecs(entries, PAPER_METHODS[:2], nruns=NRUNS)


def _strip(records):
    return [
        dataclasses.replace(r, seconds=0.0, failures=())
        for r in records
    ]


@pytest.fixture(autouse=True)
def _fresh_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def reference():
    return _strip(run_sweep(_specs(), jobs=1))


def test_journal_format_and_full_replay(tmp_path, reference):
    path = tmp_path / "sweep.jsonl"
    specs = _specs()
    first = list(run_sweep(specs, jobs=2, checkpoint=path))
    assert _strip(first) == reference

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == 1 and len(header["sweep"]) == 16
    assert len(lines) == 1 + len(specs)
    indices = [json.loads(line)["index"] for line in lines[1:]]
    assert indices == [spec.index for spec in specs]

    # Resuming a *complete* journal replays it verbatim — including the
    # recorded seconds, proof nothing re-executed.
    replay = list(run_sweep(specs, jobs=2, checkpoint=path))
    assert replay == first
    assert path.read_text().splitlines() == lines  # nothing appended


@pytest.mark.parametrize("retries", [0, 1], ids=["default", "retries1"])
def test_partial_journal_resumes_bit_identical(tmp_path, reference, retries):
    path = tmp_path / "full.jsonl"
    specs = _specs()
    list(run_sweep(specs, jobs=1, checkpoint=path))
    lines = path.read_text().splitlines()

    partial = tmp_path / "partial.jsonl"
    # Header + three records, plus the torn half-line a kill mid-write
    # leaves behind: that spec must simply rerun.
    partial.write_text(
        "\n".join(lines[:4]) + "\n" + '{"index": 3, "rec'
    )
    resumed = list(
        run_sweep(specs, jobs=2, policy=RetryPolicy(retries=retries),
                  checkpoint=partial)
    )
    assert _strip(resumed) == reference
    # The torn tail was cut before appending: the journal now reloads
    # complete, so a further resume replays everything.
    assert len(SweepCheckpoint(partial, specs).done) == len(specs)


def test_journal_rejects_foreign_specs(tmp_path):
    path = tmp_path / "sweep.jsonl"
    specs = _specs()
    list(run_sweep(specs, jobs=1, checkpoint=path))
    table = {e.name: e for e in build_collection()}
    other = build_runspecs(
        [table[INSTANCES[0]]], PAPER_METHODS[:2], nruns=NRUNS + 1
    )
    with pytest.raises(EvaluationError, match="different sweep"):
        list(run_sweep(other, jobs=1, checkpoint=path))


def test_journal_rejects_garbage_header(tmp_path):
    path = tmp_path / "sweep.jsonl"
    path.write_text("not json\n")
    with pytest.raises(EvaluationError, match="header"):
        list(run_sweep(_specs(), jobs=1, checkpoint=path))


_CHILD = textwrap.dedent("""\
    import sys
    from pathlib import Path

    sys.path.insert(0, sys.argv[2])
    from repro.eval.runner import PAPER_METHODS
    from repro.eval.sweep import build_runspecs, run_sweep
    from repro.sparse.collection import build_collection

    table = {{e.name: e for e in build_collection()}}
    entries = [table[n] for n in {instances!r}]
    specs = build_runspecs(entries, PAPER_METHODS[:2], nruns={nruns})
    for record in run_sweep(specs, jobs=1, checkpoint=sys.argv[1]):
        pass
    print("COMPLETED")  # the fault plan must prevent reaching this
""")


def test_sigkill_mid_sweep_then_resume(tmp_path, reference):
    """Kill a real sweep process mid-flight; resume; merge bit-identical."""
    path = tmp_path / "sweep.jsonl"
    script = tmp_path / "child.py"
    script.write_text(_CHILD.format(instances=INSTANCES, nruns=NRUNS))
    src = str(Path(repro.__file__).resolve().parents[1])

    # The plan goes straight into the child's environment: a crash at
    # the driver-side sweep.record point, third record, scope="any",
    # installer_pid=0 — so the child process genuinely SIGKILLs itself
    # mid-sweep (no downgrade: the child is not the installer).
    env = dict(os.environ)
    env[faults.ENV_VAR] = faults.plan_to_env([
        faults.FaultRule(point="sweep.record", kind="crash",
                         hits=(3,), scope="any"),
    ])
    proc = subprocess.run(
        [sys.executable, str(script), str(path), src],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "COMPLETED" not in proc.stdout

    # The fsync-per-record journal survived the kill with exactly the
    # records that streamed before it.
    lines = path.read_text().splitlines()
    done = len(lines) - 1
    assert 3 <= done < len(_specs())

    # Resume under a clean environment merges journaled and freshly
    # computed records into the uninterrupted stream.
    merged = list(run_sweep(_specs(), jobs=2, checkpoint=path))
    assert _strip(merged) == reference
    assert len(path.read_text().splitlines()) == 1 + len(_specs())
