"""Sweep chunk delivery and p-way record metrics.

A sweep chunk ships its instance *name*, never the matrix: workers load
the instance through the memoized ``load_instance``, chunk payloads are
audited and stay far below a pickled matrix, and a ``jobs`` budget
larger than the instance count still gives the serial records.
"""

import dataclasses

import pytest

from repro.eval.runner import PAPER_METHODS
from repro.eval.sweep import build_runspecs, run_sweep
from repro.obs import metrics
from repro.sparse.collection import build_collection, load_instance
from repro.utils.executor import RetryPolicy, payload_audit


def _entries(names):
    table = {e.name: e for e in build_collection()}
    return [table[n] for n in names]


NAMES = ("sym_grid2d_s", "sqr_er_s")


def _strip(records):
    return [dataclasses.replace(r, seconds=0.0) for r in records]


def test_parallel_shm_sweep_bit_identical_and_audited():
    specs = build_runspecs(_entries(NAMES), PAPER_METHODS[:2], nruns=2)
    serial = list(run_sweep(specs, jobs=1))
    with payload_audit() as audit:
        parallel = list(run_sweep(specs, jobs=2))
    assert _strip(parallel) == _strip(serial)
    assert audit["tasks"] >= len(NAMES)
    # Names + specs only: far below the 24 B/nonzero a pickled matrix
    # would cost (the smallest instance here alone is ~20 kB).
    nnz = min(load_instance(n).nnz for n in NAMES)
    assert 0 < audit["bytes"] < 24 * nnz


def test_budget_sweep_still_bit_identical():
    """Two instances under a budget of 4: per-run items on 2 sweep
    workers, each run with 2 recursion workers."""
    specs = build_runspecs(
        _entries(NAMES), PAPER_METHODS[:1], nruns=1, nparts=4
    )
    serial = list(run_sweep(specs, jobs=1))
    budgeted = list(run_sweep(specs, jobs=4))
    assert _strip(budgeted) == _strip(serial)


def test_records_carry_balance_metrics():
    specs = build_runspecs(
        _entries([NAMES[0]]), PAPER_METHODS[:1], nruns=1, nparts=4
    )
    (record,) = list(run_sweep(specs, jobs=1))
    assert record.max_part is not None and record.max_part > 0
    assert record.imbalance is not None and record.imbalance >= 0.0


@pytest.mark.parametrize("algo", ["recursive", "kway"])
def test_algo_threaded_through_specs(algo):
    specs = build_runspecs(
        _entries([NAMES[1]]), PAPER_METHODS[:1], nruns=1, nparts=4,
        algo=algo,
    )
    assert all(s.algo == algo for s in specs)
    serial = list(run_sweep(specs, jobs=1))
    parallel = list(run_sweep(specs, jobs=2))
    assert _strip(parallel) == _strip(serial)
    # The two algorithms genuinely differ (different search spaces).
    from repro.core.recursive import partition

    matrix = load_instance(NAMES[1])
    direct = partition(
        matrix, 4, method=specs[0].method, seed=specs[0].seed, algo=algo
    )
    assert serial[0].volume == direct.volume


WIDE = (
    "sym_gd97_like", "sym_grid2d_s", "sym_arrow_s", "sym_er_s",
    "sqr_er_s", "sqr_band_s", "sqr_blk_s", "sqr_perm_s",
)


@pytest.mark.parametrize("retries", [0, 1], ids=["default", "retries1"])
def test_sweep_streams_within_its_window(tmp_path, retries):
    """Both policies run the one windowed loop: when the first record
    arrives at most ``2 * workers`` chunks have been sent, and the
    checkpoint already holds that record — a hardened sweep journals as
    it goes instead of after its last chunk."""
    specs = build_runspecs(_entries(WIDE), PAPER_METHODS[:1], nruns=1)
    tasks = metrics.REGISTRY.get("repro_executor_tasks_total")
    path = tmp_path / "sweep.jsonl"
    before = tasks.value
    stream = run_sweep(specs, jobs=2, policy=RetryPolicy(retries=retries),
                       checkpoint=path)
    try:
        first = next(stream)
        sent = tasks.value - before
        journaled = path.read_text().splitlines()
    finally:
        stream.close()
    assert sent <= 2 * 2, f"{sent} of {len(WIDE)} chunks sent"
    assert len(journaled) == 2  # header + the first record
    assert first.instance == WIDE[0]
