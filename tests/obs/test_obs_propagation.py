"""Cross-process trace propagation and the disabled-path contract.

The envelope test: a traced ``partition(..., jobs=2)`` or traced sweep
must yield ONE stitched span tree — a single trace id, every parent
link resolving inside the file — even though spans are minted in
forked pool workers.  And the flip side: with tracing off (the
default), results are bit-identical and no span objects exist.
"""

import os
import time

import numpy as np
import pytest

from repro.core.recursive import partition
from repro.eval.runner import MethodSpec
from repro.eval.sweep import build_runspecs, run_sweep
from repro.obs import trace as trace_mod
from repro.obs.report import aggregate_trace, count_events, read_trace
from repro.obs.trace import Span, disable, enable
from repro.sparse.collection import build_collection
from repro.sparse.generators import grid2d_laplacian
from repro.utils import faults
from repro.utils.executor import RetryPolicy, shutdown_pools
from repro.utils.faults import FaultRule


@pytest.fixture(scope="module")
def matrix():
    return grid2d_laplacian(12, 12)


@pytest.fixture(scope="module")
def reference(matrix):
    return partition(matrix, 8, refine=True, seed=42, jobs=1)


@pytest.fixture(autouse=True)
def _fresh_pools():
    yield
    shutdown_pools()


def _traced_records(path):
    return list(read_trace(str(path)))


def _assert_single_stitched_tree(records, root_name):
    """One trace id; every parent resolves in-file; one named root."""
    assert records, "trace file is empty"
    assert len({r["trace"] for r in records}) == 1
    by_id = {r["span"]: r for r in records}
    assert len(by_id) == len(records), "span ids must be unique"
    roots = [r for r in records if r["parent"] is None]
    for r in records:
        if r["parent"] is not None:
            assert r["parent"] in by_id, (
                f"span {r['span']} ({r['name']}) references missing "
                f"parent {r['parent']}"
            )
    assert [r["name"] for r in roots] == [root_name]
    for r in records:
        assert r["t1"] is not None, "only completed spans are written"


class TestPartitionPropagation:
    def test_jobs2_yields_one_stitched_tree(
        self, tmp_path, matrix, reference
    ):
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            res = partition(matrix, 8, refine=True, seed=42, jobs=2)
        finally:
            disable()
        assert np.array_equal(res.parts, reference.parts)

        records = _traced_records(path)
        _assert_single_stitched_tree(records, "partition")
        names = {r["name"] for r in records}
        # The tree spans the whole stack: root, worker activations,
        # and the multilevel stages running inside them.
        assert "worker.bisect" in names or "worker.subtree" in names
        assert any(n.startswith("multilevel.") for n in names)
        assert any(n.startswith("fm.") for n in names)
        pids = {r["pid"] for r in records}
        assert len(pids) > 1, "expected spans minted in forked workers"

    def test_worker_spans_nest_under_parent_process_span(
        self, tmp_path, matrix
    ):
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            partition(matrix, 8, refine=True, seed=42, jobs=2)
        finally:
            disable()
        records = _traced_records(path)
        by_id = {r["span"]: r for r in records}
        main_pid = os.getpid()
        worker_recs = [r for r in records if r["pid"] != main_pid]
        assert worker_recs
        for rec in worker_recs:
            # Walk up: every worker-side span must reach a span
            # recorded by the parent process (the stitching point).
            cur = rec
            for _ in range(len(records)):
                if cur["pid"] == main_pid:
                    break
                cur = by_id[cur["parent"]]
            assert cur["pid"] == main_pid, (
                f"{rec['name']} never reaches a parent-process span"
            )

    def test_aggregation_of_real_trace(self, tmp_path, matrix):
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            partition(matrix, 8, refine=True, seed=42, jobs=2)
        finally:
            disable()
        records = _traced_records(path)
        rows = aggregate_trace(records)
        assert sum(r.count for r in rows) == len(records)
        top = {r.name: r for r in rows}
        # The root's total covers (at least) every stage's self time.
        total_self = sum(r.self_time for r in rows)
        assert top["partition"].total <= total_self + 1e-6


class TestSweepPropagation:
    def test_shm_chunk_spans_join_the_callers_trace(self, tmp_path):
        entries = [e for e in build_collection(max_tier="small")
                   if e.name == "sym_grid2d_s"]
        assert entries
        specs = build_runspecs(
            entries,
            (MethodSpec("LB", "localbest", False),
             MethodSpec("MG", "mediumgrain", False)),
            nruns=2, nparts=2, base_seed=7,
        )
        path = tmp_path / "sweep.jsonl"
        enable(str(path))
        try:
            with trace_mod.span("sweep"):
                records_out = list(run_sweep(specs, jobs=2))
        finally:
            disable()
        assert len(records_out) == len(specs)

        records = _traced_records(path)
        _assert_single_stitched_tree(records, "sweep")
        chunk_recs = [r for r in records if r["name"] == "sweep.chunk"]
        assert chunk_recs, "chunk activations missing from the trace"
        assert {r["pid"] for r in chunk_recs} - {os.getpid()}, (
            "expected sweep.chunk spans minted in pool workers"
        )
        sweep_root = next(r for r in records if r["name"] == "sweep")
        for rec in chunk_recs:
            assert rec["parent"] == sweep_root["span"]


class TestDisabledPath:
    def test_partition_bit_identical_with_and_without_tracing(
        self, tmp_path, matrix, reference
    ):
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            traced = partition(matrix, 8, refine=True, seed=42, jobs=2)
        finally:
            disable()
        untraced = partition(matrix, 8, refine=True, seed=42, jobs=2)
        assert np.array_equal(traced.parts, untraced.parts)
        assert np.array_equal(untraced.parts, reference.parts)
        assert traced.volume == untraced.volume == reference.volume

    def test_untraced_run_after_disable_writes_no_spans(
        self, tmp_path, matrix
    ):
        """Pool workers forked during a traced run must not keep its
        tracer: an untraced run on the same pool writes nothing."""
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            partition(matrix, 8, refine=True, seed=42, jobs=2)
        finally:
            disable()
        traced = len(_traced_records(path))
        assert traced
        partition(matrix, 8, refine=True, seed=42, jobs=2)
        assert len(_traced_records(path)) == traced

    def test_disabled_partition_allocates_zero_spans(
        self, monkeypatch, matrix
    ):
        assert trace_mod.TRACER is None
        allocations = []
        original = Span.__init__

        def counting(self, *args, **kw):
            allocations.append(self)
            return original(self, *args, **kw)

        monkeypatch.setattr(Span, "__init__", counting)
        partition(matrix, 8, refine=True, seed=42, jobs=1)
        assert allocations == []


# --------------------------------------------------------------------- #
# Watchdog kill: no orphans, chaos-marked like every pool-killing test.
# --------------------------------------------------------------------- #
@pytest.mark.chaos
class TestWatchdogOrphans:
    def test_killed_worker_leaves_no_orphan_spans(
        self, tmp_path, matrix, reference
    ):
        token = str(tmp_path / "hang.token")
        rule = FaultRule(point="executor.task", kind="hang", hits=(),
                         rate=1.0, once_token=token, delay=60.0)
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        start = time.monotonic()
        try:
            with faults.install([rule]):
                res = partition(matrix, 8, refine=True, seed=42, jobs=2,
                                policy=RetryPolicy(timeout=1.0, retries=2))
        finally:
            disable()
        assert time.monotonic() - start < 30.0, "watchdog failed to fire"
        assert np.array_equal(res.parts, reference.parts)

        records = _traced_records(path)
        by_id = {r["span"]: r for r in records}
        # The orphan contract: a SIGKILLed worker writes nothing for
        # its open spans, so every record in the file is complete, and
        # the retry's spans re-parent into the surviving caller's span
        # — walking up from any record terminates inside the file.
        for rec in records:
            assert rec["t1"] is not None
            seen = set()
            cur = rec
            while cur["parent"] is not None and cur["parent"] in by_id:
                assert cur["span"] not in seen, "parent cycle"
                seen.add(cur["span"])
                cur = by_id[cur["parent"]]
            if cur["parent"] is not None:
                # A dangling parent can only come from the killed
                # attempt; the aggregate must still keep the row.
                assert cur["pid"] != os.getpid()
        assert len({r["trace"] for r in records}) == 1
        # The kill shows up as data, not damage: the retried attempt
        # completes the tree and the report renders.
        rows = aggregate_trace(records)
        assert sum(r.count for r in rows) == len(records)
        assert count_events(records) is not None
