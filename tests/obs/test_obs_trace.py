"""Unit tests for the tracer/span core (:mod:`repro.obs.trace`)."""

import json
import os
import pickle
import threading

import pytest

from repro.obs import trace as trace_mod
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    activate,
    current_context,
    current_span,
    detached_span,
    disable,
    enable,
    event,
    span,
)


def _records(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        assert trace_mod.TRACER is None
        sp = span("anything", key="value")
        assert sp is NULL_SPAN
        # Every mutator is a pass and the singleton is reusable.
        with sp:
            sp.set(more=1)
            sp.event("ping")
        sp.end()
        assert span("again") is sp

    def test_helpers_are_inert(self):
        assert current_context() is None
        assert current_span() is NULL_SPAN
        event("ignored", detail=1)  # must not raise
        assert detached_span("x") is NULL_SPAN

    def test_null_span_context_is_none(self):
        # Task payloads carry None when tracing is off, so workers
        # skip activation with a single ``is None`` test.
        assert NULL_SPAN.context() is None
        assert activate(None, "worker.task") is NULL_SPAN

    def test_no_span_objects_allocated(self, monkeypatch):
        allocations = []
        original = Span.__init__

        def counting(self, *args, **kw):
            allocations.append(self)
            return original(self, *args, **kw)

        monkeypatch.setattr(Span, "__init__", counting)
        with span("a"):
            with span("b", depth=2):
                event("inner")
        assert allocations == []


class TestEnabledTree:
    def test_nested_spans_record_parentage(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with span("outer", stage="top") as outer:
            with span("inner") as inner:
                inner.event("tick", n=1)
        disable()

        recs = {r["name"]: r for r in _records(path)}
        assert set(recs) == {"outer", "inner"}
        assert recs["inner"]["parent"] == recs["outer"]["span"]
        assert recs["outer"]["parent"] is None
        assert recs["inner"]["trace"] == recs["outer"]["trace"]
        assert recs["outer"]["attrs"] == {"stage": "top"}
        assert recs["inner"]["events"][0]["name"] == "tick"
        assert recs["inner"]["events"][0]["n"] == 1

    def test_timestamps_are_ordered(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with span("outer"):
            with span("inner"):
                pass
        disable()
        recs = {r["name"]: r for r in _records(path)}
        assert recs["outer"]["t0"] <= recs["inner"]["t0"]
        assert recs["inner"]["t1"] <= recs["outer"]["t1"]
        for r in recs.values():
            assert r["t1"] >= r["t0"]

    def test_exception_records_error_event(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        disable()
        (rec,) = _records(path)
        assert rec["t1"] is not None  # closed despite the exception
        assert any(
            ev["name"] == "error" and ev["type"] == "ValueError"
            for ev in rec["events"]
        )

    def test_unwound_child_is_popped_through(self, tmp_path):
        # A child left open (no __exit__, e.g. a worker crash path)
        # must not corrupt the stack for the parent's close.
        path = str(tmp_path / "t.jsonl")
        tracer = enable(path)
        outer = span("outer")
        span("leaked-child")  # never ended
        outer.end()
        assert tracer.current() is None
        disable()
        names = [r["name"] for r in _records(path)]
        assert names == ["outer"]  # only completed spans are written

    def test_end_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)
        sp = span("once")
        sp.end()
        sp.end()
        disable()
        assert len(_records(path)) == 1

    def test_span_ids_unique_across_threads(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)

        def worker():
            for _ in range(50):
                span("w").end()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        disable()
        recs = _records(path)
        ids = [r["span"] for r in recs]
        assert len(ids) == 200
        assert len(set(ids)) == 200

    def test_per_thread_stacks_do_not_cross_parent(self, tmp_path):
        # The implicit parent comes from a *thread-local* stack: a
        # span opened on another thread must not nest under this
        # thread's open span.
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with span("main-side"):
            done = threading.Event()

            def other():
                span("thread-side").end()
                done.set()

            t = threading.Thread(target=other)
            t.start()
            t.join()
            assert done.is_set()
        disable()
        recs = {r["name"]: r for r in _records(path)}
        assert recs["thread-side"]["parent"] is None


class TestDetachedSpans:
    def test_detached_span_skips_the_stack(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = enable(path)
        sp = detached_span("request", label="r1")
        # The event-loop invariant: nothing was pushed, so a second
        # interleaved request cannot nest under the first.
        assert tracer.current() is None
        other = detached_span("request", label="r2")
        assert other.parent is None
        sp.end()
        other.end()
        disable()
        recs = _records(path)
        assert [r["parent"] for r in recs] == [None, None]
        assert len({r["span"] for r in recs}) == 2

    def test_detached_child_via_explicit_context(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)
        req = detached_span("serve.request")
        ctx = req.context()
        with activate(ctx, "serve.dispatch") as dsp:
            assert dsp.parent == req.span_id
        req.end()
        disable()
        recs = {r["name"]: r for r in _records(path)}
        assert recs["serve.dispatch"]["parent"] == recs["serve.request"]["span"]


class TestTraceContext:
    def test_pickles_roundtrip(self, tmp_path):
        ctx = TraceContext("trace-1", "span-7", str(tmp_path / "t.jsonl"))
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.trace_id == "trace-1"
        assert clone.parent == "span-7"
        assert clone.path == ctx.path

    def test_current_context_reflects_open_span(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = enable(path)
        with span("outer") as outer:
            ctx = current_context()
            assert ctx.trace_id == tracer.trace_id
            assert ctx.parent == outer.span_id
            assert ctx.path == path
        disable()


class TestActivation:
    def test_installs_and_tears_down_worker_tracer(self, tmp_path):
        # Simulate the pool-worker side: a parent mints a context,
        # then a process with no tracer adopts it for one task.
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with span("parent") as parent:
            ctx = parent.context()
        disable()
        assert trace_mod.TRACER is None

        with activate(ctx, "worker.task", item=3) as sp:
            assert trace_mod.TRACER is not None
            assert trace_mod.TRACER.trace_id == ctx.trace_id
            assert sp.parent == ctx.parent
            span("worker.sub").end()
        # Torn down after the task: the next task on this worker must
        # not inherit the previous request's trace.
        assert trace_mod.TRACER is None

        recs = {r["name"]: r for r in _records(path)}
        assert recs["worker.task"]["parent"] == recs["parent"]["span"]
        assert recs["worker.sub"]["parent"] == recs["worker.task"]["span"]
        assert len({r["trace"] for r in recs.values()}) == 1

    def test_keeps_existing_tracer_for_inline_backends(self, tmp_path):
        # Thread/inline executor backends run the "worker" body in the
        # caller's process where a tracer is already live: activation
        # must reuse it (and not close it on exit).
        path = str(tmp_path / "t.jsonl")
        tracer = enable(path)
        with span("caller") as caller:
            ctx = caller.context()
            with activate(ctx, "worker.task") as sp:
                assert trace_mod.TRACER is tracer
                assert sp.parent == caller.span_id
            assert trace_mod.TRACER is tracer
        disable()
        recs = {r["name"]: r for r in _records(path)}
        assert recs["worker.task"]["parent"] == recs["caller"]["span"]

    def test_activation_failure_still_tears_down(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with span("parent") as parent:
            ctx = parent.context()
        disable()

        with pytest.raises(RuntimeError):
            with activate(ctx, "worker.task"):
                raise RuntimeError("task blew up")
        assert trace_mod.TRACER is None
        recs = {r["name"]: r for r in _records(path)}
        # The activation span is closed and carries the error event.
        assert recs["worker.task"]["t1"] is not None
        assert any(ev["name"] == "error" for ev in recs["worker.task"]["events"])

    def test_successive_activations_never_reuse_an_id(self, tmp_path):
        # A pool worker serves many tasks of one trace, each under a
        # freshly installed tracer; their spans must stay distinct or
        # trace-report links children to the wrong task.
        path = str(tmp_path / "t.jsonl")
        enable(path)
        with span("parent") as parent:
            ctx = parent.context()
        disable()
        for task in range(3):
            with activate(ctx, "worker.task", task=task):
                span("worker.sub").end()
        ids = [r["span"] for r in _records(path)]
        assert len(ids) == 7
        assert len(set(ids)) == len(ids)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_mints_ids_under_its_own_pid(self):
        trace_mod._next_span_id()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os.close(read_fd)
            os.write(write_fd, trace_mod._next_span_id().encode())
            os._exit(0)
        os.close(write_fd)
        child_id = os.read(read_fd, 64).decode()
        os.close(read_fd)
        os.waitpid(pid, 0)
        assert child_id == f"{pid:x}-1"


class TestSinkResilience:
    def test_oserror_degrades_to_dropping(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        tracer = Tracer(str(missing))
        sp = tracer.start_span("doomed")
        sp.end()  # open() fails -> sink flips dead; must not raise
        assert tracer.sink._dead
        tracer.start_span("still-fine").end()  # dropped silently
        tracer.close()

    def test_reader_tolerates_torn_tail(self, tmp_path):
        from repro.obs.report import read_trace

        path = tmp_path / "t.jsonl"
        enable(str(path))
        span("whole").end()
        disable()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"trace": "x", "span": "torn-midwri')
        recs = list(read_trace(str(path)))
        assert [r["name"] for r in recs] == ["whole"]
