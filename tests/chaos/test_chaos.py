"""Chaos suite: deterministic fault injection vs the hardened executor.

Every test installs a :mod:`repro.utils.faults` plan and runs a real
partitioning or sweep through real worker pools — injected crashes are
genuine SIGKILLs, injected hangs genuinely block until the watchdog
reacts.  The contracts under test (see ``docs/robustness.md``):

* any *recovered* fault leaves results bit-identical to the fault-free
  run (stripping ``seconds`` and the ``failures`` annotations);
* every absorbed fault is recorded as a structured brief, never lost;
* a hung worker never hangs the suite — the watchdog returns within
  the deadline plus scheduling slack;
* an exhausted retry budget degrades to serial in-process completion
  instead of aborting;
* poisoned results are always caught by the boundary validator.

Marked ``chaos`` (deselected from tier-1 — the suite deliberately
kills and rebuilds the persistent pools); run with ``make test-chaos``.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.recursive import partition
from repro.eval.runner import PAPER_METHODS
from repro.eval.sweep import build_runspecs, run_sweep
from repro.sparse.collection import build_collection
from repro.sparse.generators import grid2d_laplacian
from repro.utils import faults
from repro.utils.executor import RetryPolicy, shutdown_pools
from repro.utils.faults import FaultRule

pytestmark = pytest.mark.chaos

#: Deadline for "this must not hang" assertions: generous vs the 1 s
#: task timeout used below, tiny vs the 60 s injected hangs.
WALL_CLOCK_SLACK = 30.0


def _once(tmp_path, point, kind, **kw):
    """One fault, first task to reach ``point``, across all processes."""
    token = str(tmp_path / f"{point}.{kind}.token")
    return FaultRule(point=point, kind=kind, hits=(), rate=1.0,
                    once_token=token, **kw)


@pytest.fixture(autouse=True)
def _fresh_pools():
    yield
    shutdown_pools()


# --------------------------------------------------------------------- #
# Recursive bisection under fire
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def matrix():
    return grid2d_laplacian(12, 12)


@pytest.fixture(scope="module")
def reference(matrix):
    return partition(matrix, 8, refine=True, seed=42, jobs=1)


def _partition_hardened(matrix, timeout=60.0, retries=2):
    return partition(matrix, 8, refine=True, seed=42, jobs=2,
                     policy=RetryPolicy(timeout=timeout, retries=retries))


PARTITION_FAULTS = [
    ("executor.task", "exception"),
    ("executor.task", "crash"),
    ("executor.task", "shm"),
    ("executor.result", "poison"),
    ("recursive.bisect", "exception"),
    ("recursive.bisect", "crash"),
    ("shm.attach", "shm"),
]


@pytest.mark.parametrize("point,kind", PARTITION_FAULTS)
def test_partition_recovers_bit_identical(
    tmp_path, matrix, reference, point, kind
):
    rule = _once(tmp_path, point, kind)
    with faults.install([rule]):
        res = _partition_hardened(matrix)
    assert np.array_equal(res.parts, reference.parts)
    assert res.volume == reference.volume
    assert res.failures, "an absorbed fault must leave a brief"


def test_watchdog_beats_injected_hang(tmp_path, matrix, reference):
    rule = _once(tmp_path, "executor.task", "hang", delay=60.0)
    start = time.monotonic()
    with faults.install([rule]):
        res = _partition_hardened(matrix, timeout=1.0)
    elapsed = time.monotonic() - start
    assert elapsed < WALL_CLOCK_SLACK, "watchdog failed to fire"
    assert np.array_equal(res.parts, reference.parts)
    assert any("TaskTimeout" in brief for brief in res.failures), (
        res.failures
    )


def test_exhausted_budget_degrades_to_serial(matrix, reference):
    # Every pool attempt fails (no once-token, rate 1.0, worker scope):
    # the ladder's bottom rung — the driver's own in-process execution,
    # where worker-scoped faults cannot fire — must complete the run.
    rule = FaultRule(point="executor.task", kind="exception",
                    hits=(), rate=1.0)
    with faults.install([rule]):
        res = _partition_hardened(matrix, retries=1)
    assert np.array_equal(res.parts, reference.parts)
    assert any("DegradedExecution" in brief for brief in res.failures), (
        res.failures
    )


def test_poison_is_caught_not_kept(tmp_path, matrix, reference):
    # The validator, not luck, catches the corruption: the brief names
    # ResultValidationError and the final result is the honest one.
    rule = _once(tmp_path, "executor.result", "poison")
    with faults.install([rule]):
        res = _partition_hardened(matrix)
    assert np.array_equal(res.parts, reference.parts)
    assert any("ResultValidationError" in brief for brief in res.failures)


def test_unhardened_run_still_validates(tmp_path, matrix):
    # Without timeout/retries armed there is no retry rung — but the
    # boundary validator is always on, so poison aborts loudly instead
    # of corrupting the result.
    from repro.errors import ResultValidationError

    rule = _once(tmp_path, "executor.result", "poison")
    with faults.install([rule]):
        with pytest.raises(ResultValidationError):
            partition(matrix, 8, refine=True, seed=42, jobs=2)


# --------------------------------------------------------------------- #
# Sweeps under fire
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def specs():
    table = {e.name: e for e in build_collection()}
    entries = [table[n] for n in ("sym_grid2d_s", "sqr_er_s")]
    return build_runspecs(entries, PAPER_METHODS[:2], nruns=2)


@pytest.fixture(scope="module")
def sweep_reference(specs):
    return _strip(run_sweep(specs, jobs=1))


def _strip(records):
    return [
        dataclasses.replace(r, seconds=0.0, failures=())
        for r in records
    ]


SWEEP_FAULTS = [
    ("sweep.chunk", "exception"),
    ("sweep.chunk", "crash"),
    ("sweep.result", "poison"),
]


@pytest.mark.parametrize("point,kind", SWEEP_FAULTS)
def test_sweep_recovers_bit_identical(
    tmp_path, specs, sweep_reference, point, kind
):
    rule = _once(tmp_path, point, kind)
    with faults.install([rule]):
        records = list(run_sweep(
            specs, jobs=2,
            policy=RetryPolicy(timeout=60.0, retries=2),
        ))
    assert _strip(records) == sweep_reference
    assert any(r.failures for r in records)


def test_sweep_hang_never_hangs_the_sweep(tmp_path, specs, sweep_reference):
    rule = _once(tmp_path, "sweep.chunk", "hang", delay=60.0)
    start = time.monotonic()
    with faults.install([rule]):
        records = list(run_sweep(
            specs, jobs=2,
            policy=RetryPolicy(timeout=1.0, retries=2),
        ))
    assert time.monotonic() - start < WALL_CLOCK_SLACK
    assert _strip(records) == sweep_reference
    assert any(
        "TaskTimeout" in brief for r in records for brief in r.failures
    )


def test_sweep_degrades_instead_of_aborting(specs, sweep_reference):
    rule = FaultRule(point="sweep.chunk", kind="exception",
                    hits=(), rate=1.0)
    with faults.install([rule]):
        records = list(run_sweep(
            specs, jobs=2,
            policy=RetryPolicy(timeout=60.0, retries=1),
        ))
    assert _strip(records) == sweep_reference
    assert any(
        "DegradedExecution" in brief
        for r in records for brief in r.failures
    )


def test_kway_sweep_recovers(tmp_path):
    # The direct k-way partitioner's fault point, reached through a
    # p-way sweep running algo="kway" inside process workers.
    table = {e.name: e for e in build_collection()}
    specs = build_runspecs(
        [table["sym_grid2d_s"]], PAPER_METHODS[:1],
        nruns=2, nparts=4, algo="kway",
    )
    reference = _strip(run_sweep(specs, jobs=1))
    rule = _once(tmp_path, "kway.partition", "crash")
    with faults.install([rule]):
        records = list(run_sweep(
            specs, jobs=2,
            policy=RetryPolicy(timeout=60.0, retries=2),
        ))
    assert _strip(records) == reference
    assert any(r.failures for r in records)


def test_serial_sweep_retries_inline(tmp_path, specs, sweep_reference):
    # jobs=1 is already the bottom rung: retries re-attempt inline, and
    # scope="any" makes the rule reachable outside pool workers.
    token = str(tmp_path / "serial.token")
    rule = FaultRule(point="sweep.chunk", kind="exception", hits=(),
                    rate=1.0, once_token=token, scope="any")
    with faults.install([rule]):
        records = list(
            run_sweep(specs, jobs=1, policy=RetryPolicy(retries=2))
        )
    assert _strip(records) == sweep_reference
    assert any(r.failures for r in records)
