"""Per-layer metrics: benchmark-side wrapper spans and trace folding.

The program already emits spans at most stage boundaries (``fm.pass``,
``multilevel.*``, ``recursive.bisect``, ``partition``, ``vcycle.cycle``,
``serve.*``, ``worker.*``; see docs/observability.md).  Where a public
function has no span, :func:`install_wrappers` puts one around it from
the benchmark's side, by rebinding the name in the modules that call
it.  Install them before any worker pool forks: a forked worker keeps
the parent's module state, so it records the wrapper spans too.

:func:`fold` turns the span records of a traced run into the
``per_layer`` metrics of BENCHMARK.json.  Busy times and counts are per
op, over the spans under the run's *main* ops only (deadline-bound
ops are cut short at timing-dependent points, so their work is left
out, which keeps every count exact for a given seed).
"""

from __future__ import annotations

import functools
from collections import defaultdict

from common import median, ratio

#: Every per-layer metric: name -> unit.  ``s/op`` and ``1/op`` are
#: per main op (batch) or per request (serve); ``ratio`` has its base
#: in the name.  The stage each metric names is in README.md.
PER_LAYER_UNITS = {
    "sparse.load_s": "s",
    "core.split.busy_s": "s/op",
    "core.medium_grain.busy_s": "s/op",
    "core.medium_grain.vertices": "1/op",
    "partitioner.coarsen.busy_s": "s/op",
    "partitioner.coarsen.levels": "1/op",
    "partitioner.initial.busy_s": "s/op",
    "partitioner.initial.share": "ratio",
    "partitioner.initial.fm_passes": "1/op",
    "partitioner.uncoarsen.busy_s": "s/op",
    "kernels.fm_pass.busy_s": "s/op",
    "partitioner.fm.passes": "1/op",
    "partitioner.fm.moves": "1/op",
    "partitioner.fm.improving_pass_ratio": "ratio",
    "core.refine.busy_s": "s/op",
    "core.refine.iterations": "1/op",
    "core.kway.busy_s": "s/op",
    "kernels.kway_fm_pass.busy_s": "s/op",
    "partitioner.vcycle.cycles": "1/op",
    "partitioner.vcycle.keep_best_ratio": "ratio",
    "core.recursive.bisections": "1/op",
    "core.recursive.self_s": "s/op",
    "core.validate.busy_s": "s/op",
    "utils.executor.tasks": "1/op",
    "utils.executor.wait_s": "s/op",
    "utils.executor.payload_bytes": "B/op",
    "utils.executor.retries": "1/op",
    "core.volume.busy_s": "s/op",
    "spmv.busy_s": "s/op",
    "serve.admission_wait_ms": "ms",
    "serve.dispatch_ms": "ms",
    "serve.worker_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.hit_ms_p50": "ms",
    "serve.cache.miss_ms_p50": "ms",
    "serve.degraded": "ratio",
    "serve.shed": "ratio",
    "obs.trace_overhead_frac": "ratio",
}

COARSEN = ("multilevel.coarsen", "multilevel_kway.coarsen")
INITIAL = ("multilevel.initial", "multilevel_kway.initial")
UNCOARSEN = ("multilevel.uncoarsen_level", "multilevel_kway.uncoarsen_level")
FM_PASSES = ("fm.pass", "kway_fm.pass")
RECURSION = ("recursive.bisect", "worker.bisect", "worker.subtree")


def _spanned(name, attrs=None):
    """Decorator factory: run the function inside a span ``name``;
    ``attrs(result)`` adds attributes read off the return value."""
    from repro.obs import trace as _trace

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _trace.span(name) as sp:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    sp.set(**attrs(out))
                return out

        return wrapper

    return wrap


def install_wrappers() -> None:
    """Rebind the stage functions that have no span of their own.

    A name imported with ``from x import f`` is bound in the importing
    module, so each call site's module is patched.  Idempotent.
    """
    import repro.core.kway as kway
    import repro.core.methods as methods
    import repro.core.recursive as recursive
    import repro.core.refine as refine
    from repro.utils import executor

    if getattr(methods.initial_split, "_perfbench", False):
        return
    split = _spanned("core.split")
    build = _spanned(
        "core.medium_grain", lambda mg: {"vertices": mg.hypergraph.nverts}
    )
    validate = _spanned("core.validate")
    patches = [
        (methods, "initial_split", split),
        (kway, "initial_split", split),
        (methods, "build_medium_grain", build),
        (kway, "build_medium_grain", build),
        (refine, "build_medium_grain", build),
        (methods, "iterative_refine", _spanned(
            "core.refine", lambda out: {"iterations": out[1].iterations}
        )),
        (recursive, "_check_bisect_result", validate),
        (recursive, "_check_subtree_result", validate),
        (kway, "validate_parts", validate),
        (executor.MatrixExecutor, "map", _spanned(
            "utils.executor.map"
        )),
    ]
    for owner, name, deco in patches:
        wrapped = deco(getattr(owner, name))
        wrapped._perfbench = True
        setattr(owner, name, wrapped)


class Trace:
    """Span records of one traced phase, indexed for folding.

    Span ids are not unique in a trace: a pool worker mints ids from a
    counter that restarts with every task it traces, so the same id
    recurs once per task.  Records are appended when a span ends, so a
    span's parent is the *first* record after it that carries the
    parent's id; each record gets its position in the file as its key.
    """

    def __init__(self, records) -> None:
        self.spans = []
        self.children = defaultdict(list)
        waiting = defaultdict(list)
        for rec in records:
            if rec.get("t1") is None:
                continue
            rec = dict(rec, key=len(self.spans))
            self.children[rec["key"]] = waiting.pop(rec["span"], [])
            if rec.get("parent"):
                waiting[rec["parent"]].append(rec)
            self.spans.append(rec)

    @staticmethod
    def dur(rec) -> float:
        return rec["t1"] - rec["t0"]

    def named(self, name: str, **attrs):
        return [
            r for r in self.spans
            if r["name"] == name
            and all(r["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def subtree(self, roots):
        """Every span under (and including) ``roots``, with the names of
        its ancestors (for "outermost" and "inside" tests)."""
        out = []
        stack = [(r, ()) for r in roots]
        while stack:
            rec, above = stack.pop()
            out.append((rec, above))
            below = above + (rec["name"],)
            stack.extend((c, below) for c in self.children[rec["key"]])
        return out

    def self_time(self, rec) -> float:
        kids = sum(self.dur(c) for c in self.children[rec["key"]])
        return max(0.0, self.dur(rec) - kids)


def fold(trace: Trace, roots, ops: int) -> dict:
    """Partitioner-, core- and kernel-layer metrics over the subtrees of
    ``roots`` (the main ops), per op."""
    spans = trace.subtree(roots)
    dur = trace.dur

    def busy(names):
        # Outermost only: a stage nested in itself (the k-way initial
        # construction runs 2-way multilevel bisections) counts once.
        return sum(
            dur(r) for r, above in spans
            if r["name"] in names and not set(above) & set(names)
        )

    def count(names, pred=lambda r, above: True):
        return sum(
            1 for r, above in spans if r["name"] in names and pred(r, above)
        )

    def attr_sum(names, key):
        return sum(
            int(r["attrs"].get(key, 0)) for r, _ in spans if r["name"] in names
        )

    passes = count(FM_PASSES)
    cycles = count(("vcycle.cycle",))
    initial = busy(INITIAL)

    # Executor wait: how much of each map call the slowest worker span
    # does not cover (dispatch, pickling, pool start, result transfer).
    workers = [r for r, _ in spans if r["name"].startswith("worker.")]
    wait = 0.0
    for m, _ in spans:
        if m["name"] != "utils.executor.map":
            continue
        inside = [
            dur(w) for w in workers
            if w["t0"] >= m["t0"] and w["t1"] <= m["t1"]
        ]
        wait += max(0.0, dur(m) - max(inside, default=0.0))
    # The attributed total (the `trace-report` base): every span's self
    # time, except that a map call counts only its wait — the rest of
    # its interval is the worker spans, recorded in other processes.
    total_self = wait + sum(
        trace.self_time(r) for r, _ in spans
        if r["name"] != "utils.executor.map"
    )

    per_op = {
        "core.split.busy_s": busy(("core.split",)),
        "core.medium_grain.busy_s": busy(("core.medium_grain",)),
        "core.medium_grain.vertices": attr_sum(
            ("core.medium_grain",), "vertices"),
        "partitioner.coarsen.busy_s": busy(COARSEN),
        "partitioner.coarsen.levels": attr_sum(COARSEN, "levels"),
        "partitioner.initial.busy_s": initial,
        "partitioner.initial.fm_passes": count(
            FM_PASSES, lambda r, above: bool(set(above) & set(INITIAL))),
        "partitioner.uncoarsen.busy_s": busy(UNCOARSEN),
        "kernels.fm_pass.busy_s": busy(("fm.pass",)),
        "partitioner.fm.passes": passes,
        "partitioner.fm.moves": attr_sum(FM_PASSES, "moved"),
        "core.refine.busy_s": busy(("core.refine",)),
        "core.refine.iterations": attr_sum(("core.refine",), "iterations"),
        "core.kway.busy_s": sum(
            dur(r) for r, _ in spans
            if r["name"] == "partition" and r["attrs"].get("algo") == "kway"
        ),
        "kernels.kway_fm_pass.busy_s": busy(("kway_fm.pass",)),
        "partitioner.vcycle.cycles": cycles,
        "core.recursive.bisections": count(("recursive.bisect",)),
        "core.recursive.self_s": sum(
            trace.self_time(r) for r, _ in spans
            if r["name"] in RECURSION
            or (r["name"] == "partition"
                and r["attrs"].get("algo") == "recursive")
        ),
        "core.validate.busy_s": busy(("core.validate",)),
        "utils.executor.wait_s": wait,
        "core.volume.busy_s": busy(("core.volume",)),
        "spmv.busy_s": busy(("spmv",)),
    }
    out = {k: ratio(v, ops) for k, v in per_op.items()}
    out["partitioner.initial.share"] = ratio(initial, total_self)
    out["partitioner.fm.improving_pass_ratio"] = ratio(
        count(FM_PASSES, lambda r, _a: int(r["attrs"].get("delta", 0)) > 0),
        passes,
    )
    out["partitioner.vcycle.keep_best_ratio"] = ratio(
        count(("vcycle.cycle",), lambda r, _a: not r["attrs"].get("improved")),
        cycles,
    )
    return out


def serve_stages(trace: Trace, requests) -> tuple[dict, float]:
    """Daemon-side stage latencies (p50, ms) of the ``serve.request``
    spans ``requests``, plus the summed worker-span seconds.

    * admission wait — from the request's ``admitted`` event to the
      start of its dispatch span (semaphore and dispatch-thread queue);
    * dispatch — the dispatch span minus the worker span it parents
      (publish, pickling, pool round trip, boundary validation);
    * worker — the worker-side ``worker.partition`` span;
    * cache hit / miss — whole request spans by outcome.
    """
    admission, dispatch, worker = [], [], []
    for req in requests:
        admitted = [e["t"] for e in req.get("events", ())
                    if e.get("name") == "admitted"]
        for d in trace.children[req["key"]]:
            if d["name"] != "serve.dispatch":
                continue
            if admitted:
                admission.append(d["t0"] - admitted[0])
            inner = [trace.dur(w) for w in trace.children[d["key"]]
                     if w["name"] == "worker.partition"]
            if inner:
                worker.append(max(inner))
                dispatch.append(trace.dur(d) - max(inner))
    by_outcome = defaultdict(list)
    for req in requests:
        by_outcome[req["attrs"].get("outcome")].append(trace.dur(req))
    ms = 1000.0
    return {
        "serve.admission_wait_ms": ms * median(admission),
        "serve.dispatch_ms": ms * median(dispatch),
        "serve.worker_ms": ms * median(worker),
        "serve.cache.hit_ms_p50": ms * median(by_outcome["hit"]),
        "serve.cache.miss_ms_p50": ms * median(by_outcome["miss"]),
    }, sum(worker)


def registry_totals(snapshot: dict) -> dict:
    """Counter totals and histogram sums (over all labels) from a
    metrics snapshot or a ``/metrics`` page parsed into the same shape."""
    out = {}
    for name, metric in snapshot.items():
        out[name] = sum(
            s["value"] for s in metric["samples"] if s["suffix"] in ("", "_sum")
        )
    return out


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text exposition into ``snapshot()``'s shape
    (counters and histogram ``_sum``/``_count`` series only)."""
    out: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix):
                base, sfx = name[: -len(suffix)], suffix
                break
        else:
            base, sfx = name, ""
        if sfx == "_bucket":
            continue
        out.setdefault(base, {"samples": []})["samples"].append(
            {"suffix": sfx, "value": float(value)}
        )
    return out


def zero_metrics() -> dict:
    """Every per-layer metric at 0: the value for a layer a workload
    never runs (e.g. the serve cache on ``bisect``)."""
    return {name: 0.0 for name in PER_LAYER_UNITS}
