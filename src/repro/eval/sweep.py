"""Parallel sweep engine: (instance x method x seed) as a work queue.

The paper's experiments are *sweeps* — every matrix, every method, many
seeds — and their cost is embarrassingly parallel across runs.  This
module turns the runner's sequential triple loop into explicit work
items:

:class:`RunSpec`
    One fully-described run: instance name, method, seed, and every
    knob needed to execute it in any process.  Specs are plain frozen
    dataclasses, picklable by construction.
:func:`build_runspecs`
    Expands (entries x methods x seeds) in the canonical order — the
    exact iteration order of the historical serial runner, with the
    seed tree ``spawn_seeds(base_seed, nruns)`` preserved, so a sweep's
    results are a pure function of its inputs regardless of ``jobs``.
:func:`run_sweep`
    Streams :class:`~repro.eval.runner.RunRecord` results in spec
    order.  ``jobs=1`` executes inline (the reference path); ``jobs>=2``
    dispatches chunks to the shared execution layer's persistent worker
    pool (:func:`repro.utils.executor.process_pool` — the same pool
    recursive bisection schedules its tree on, shut down once via
    atexit).  Chunks follow instance boundaries so each worker's matrix
    cache (:func:`~repro.sparse.collection.load_instance` is memoized
    per process, and the kernel/SpMV states hang off the cached objects)
    stays hot for a whole instance.  Because every record is determined
    by its spec alone, the parallel sweep is **bit-identical** to the
    serial one — same seeds, volumes, feasibility, BSP costs, and
    ordering — apart from the measured wall-clock ``seconds``.

    ``jobs`` also accepts a :class:`~repro.utils.executor.JobsBudget`:
    the total is then *split* between sweep-level workers and the
    recursion-level workers inside each p-way run (``outer * inner <=
    total``), so ``experiment --jobs N`` composes across both levels
    instead of oversubscribing with nested pools.
:class:`SweepAggregator`
    Incremental aggregation: per-(method, instance) running sums of
    volume/seconds/BSP cost.  Consuming the stream through an
    aggregator keeps memory flat for very large sweeps instead of
    materializing every record.
"""

from __future__ import annotations

import dataclasses
import errno as _errno
import hashlib
import json
import os
import sys
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.validate import validate_run_record
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.errors import (
    EvaluationError,
    ExecutionError,
    ResultValidationError,
    ShmAttachError,
)
from repro.sparse.collection import CollectionEntry, load_instance
from repro.utils import faults
from repro.utils.executor import (
    STORE_CAP,
    JobsBudget,
    RetryPolicy,
    SharedMatrixStore,
    account_payload,
    drop_process_pool,
    pool_map,
    pool_submit,
    resilient_map,
)
from repro.utils.parallel import resolve_jobs as _resolve_jobs
from repro.utils.rng import spawn_seeds

_SWEEP_CHUNKS = _metrics.counter(
    "repro_sweep_chunks_total", "Sweep chunks dispatched to workers."
)
_SWEEP_RUNS = _metrics.counter(
    "repro_sweep_runs_total",
    "Sweep runs executed (checkpoint replays excluded).",
)

__all__ = [
    "RunSpec",
    "build_runspecs",
    "execute_runspec",
    "run_sweep",
    "SweepCheckpoint",
    "SweepAggregator",
    "resolve_jobs",
]


@dataclass(frozen=True)
class RunSpec:
    """One (instance, method, seed) work item of a sweep.

    Carries everything :func:`execute_runspec` needs so a spec can be
    executed in any process; ``index`` is the spec's position in the
    canonical sweep order (used only for bookkeeping — results are
    streamed in order already).
    """

    index: int
    instance: str
    matrix_class: str
    label: str
    method: str
    refine: bool
    seed: int
    nparts: int = 2
    eps: float = 0.03
    config: str = "mondriaan"
    with_bsp: bool = False
    #: Run the full downstream pipeline as well: greedy vector
    #: distribution plus the verified SpMV simulation, with the simulated
    #: volume cross-checked against the partitioner's.  This is the
    #: "whole pipeline" the end-to-end benchmark times.
    verify_spmv: bool = False
    #: Recursion-level worker count *inside* this run (p-way runs only;
    #: a bipartitioning has no inner parallelism).  Set by the sweep's
    #: :class:`~repro.utils.executor.JobsBudget` split — a speed knob
    #: only, the record is bit-identical for every value.
    jobs: int = 1
    #: p-way partitioning scheme for ``nparts > 2`` runs: ``"recursive"``
    #: bisection or the direct ``"kway"`` partitioner (see
    #: :func:`repro.core.recursive.partition`'s ``algo``).  Ignored for
    #: bipartitionings.
    algo: str = "recursive"
    #: Multilevel V-cycle count for ``algo="kway"`` runs (see
    #: :attr:`repro.partitioner.config.PartitionerConfig.kway_vcycles`).
    #: ``0`` keeps the flat direct k-way path bit-for-bit; a
    #: result-determining knob, so it participates in the sweep
    #: fingerprint (unlike ``jobs``).  Ignored for recursive runs and
    #: bipartitionings.
    kway_vcycles: int = 0
    #: Cross-process trace envelope
    #: (:class:`repro.obs.trace.TraceContext`, ``None`` when tracing is
    #: disabled).  Rides the spec into pool workers the way the
    #: deadline rides hardened tasks; purely observational, so it is
    #: normalized away from the sweep fingerprint like ``jobs``.
    trace: object = None


def build_runspecs(
    entries: Iterable[CollectionEntry],
    methods: Sequence,
    *,
    nruns: int = 3,
    nparts: int = 2,
    eps: float = 0.03,
    config: str = "mondriaan",
    base_seed: int = 2014,
    with_bsp: bool = False,
    verify_spmv: bool = False,
    algo: str = "recursive",
    kway_vcycles: int = 0,
) -> list[RunSpec]:
    """Expand a sweep into specs in the canonical (serial) order.

    The order is instance-major, then method, then run — exactly the
    historical triple loop — and run ``r`` of every method uses
    ``spawn_seeds(base_seed, nruns)[r]``, so methods face identical
    randomness and the spec list is a pure function of the arguments.
    """
    if nruns < 1:
        raise EvaluationError("nruns must be at least 1")
    seeds = spawn_seeds(base_seed, nruns)
    specs: list[RunSpec] = []
    for entry in entries:
        for spec in methods:
            for seed in seeds:
                specs.append(
                    RunSpec(
                        index=len(specs),
                        instance=entry.name,
                        matrix_class=entry.matrix_class.short,
                        label=spec.label,
                        method=spec.method,
                        refine=spec.refine,
                        seed=seed,
                        nparts=nparts,
                        eps=eps,
                        config=config,
                        with_bsp=with_bsp,
                        verify_spmv=verify_spmv,
                        algo=algo,
                        kway_vcycles=kway_vcycles,
                    )
                )
    return specs


def execute_runspec(spec: RunSpec, matrix=None):
    """Execute one work item and return its :class:`RunRecord`.

    Importable at module level (process-pool workers pickle the function
    by reference).  The heavy per-instance objects — the matrix, its
    hypergraph models, kernel states — are cached per process via
    :func:`load_instance` and the object caches hanging off it;
    ``matrix`` short-circuits the load when the caller already holds the
    instance (shared-memory chunk delivery hands workers the published
    matrix instead of rebuilding it by name).
    """
    import dataclasses

    from repro.core.methods import bipartition
    from repro.core.recursive import partition
    from repro.eval.runner import RunRecord
    from repro.partitioner.config import get_config
    from repro.spmv.bsp import bsp_cost

    if matrix is None:
        matrix = load_instance(spec.instance)
    cfg = get_config(spec.config)
    if spec.kway_vcycles != cfg.kway_vcycles:
        cfg = dataclasses.replace(cfg, kway_vcycles=spec.kway_vcycles)
    if spec.nparts == 2:
        res = bipartition(
            matrix,
            method=spec.method,
            eps=spec.eps,
            refine=spec.refine,
            config=cfg,
            seed=spec.seed,
        )
    else:
        res = partition(
            matrix,
            spec.nparts,
            method=spec.method,
            eps=spec.eps,
            refine=spec.refine,
            config=cfg,
            seed=spec.seed,
            jobs=spec.jobs,
            algo=spec.algo,
        )
    bsp = None
    if spec.with_bsp:
        bsp = bsp_cost(matrix, res.parts, spec.nparts).cost
    if spec.verify_spmv:
        from repro.errors import EvaluationError as _EvalError
        from repro.spmv.simulate import simulate_spmv

        report = simulate_spmv(matrix, res.parts, spec.nparts)
        if report.volume != res.volume:
            raise _EvalError(
                f"simulated SpMV volume {report.volume} disagrees with "
                f"partitioner volume {res.volume} on {spec.instance}"
            )
    return RunRecord(
        instance=spec.instance,
        matrix_class=spec.matrix_class,
        method=spec.label,
        seed=spec.seed,
        nparts=spec.nparts,
        volume=res.volume,
        seconds=res.seconds,
        feasible=res.feasible,
        bsp=bsp,
        max_part=res.max_part,
        imbalance=res.imbalance,
        failures=tuple(getattr(res, "failures", ())),
    )


def _execute_chunk(specs: list[RunSpec]) -> list:
    """Worker entry point: execute one chunk of specs in order."""
    faults.fault_point("sweep.chunk")
    ctx = specs[0].trace if specs else None
    with _trace.activate(
        ctx, "sweep.chunk",
        instance=specs[0].instance if specs else "",
        nspecs=len(specs),
    ):
        records = [execute_runspec(spec) for spec in specs]
    return faults.fault_point("sweep.result", records)


def _execute_chunk_shm(payload) -> list:
    """Worker entry point for shared-memory chunk delivery.

    The payload carries a :class:`~repro.utils.executor.MatrixHandle`
    (a few dozen bytes) instead of relying on the worker rebuilding the
    instance by name; attaching is zero-copy and cached per process, so
    consecutive chunks of one instance in one worker share the matrix
    object — and with it the kernel/SpMV state caches — exactly like the
    name-loaded path did.  A ``None`` handle (the parent paced its
    publications past the store cap) or an already-evicted segment falls
    back to the by-name load; records are identical either way.
    """
    handle, name, specs = payload
    faults.fault_point("sweep.chunk")
    ctx = specs[0].trace if specs else None
    with _trace.activate(
        ctx, "sweep.chunk", instance=name, nspecs=len(specs),
        shm=handle is not None,
    ):
        if handle is None:
            matrix = load_instance(name)
        else:
            try:
                matrix = handle.open()
            except ShmAttachError:
                matrix = load_instance(name)
        records = [
            execute_runspec(spec, matrix=matrix) for spec in specs
        ]
    return faults.fault_point("sweep.result", records)


def _chunk_by_instance(specs: Sequence[RunSpec]) -> list[list[RunSpec]]:
    """Split specs at instance boundaries (specs are instance-major)."""
    chunks: list[list[RunSpec]] = []
    for spec in specs:
        if chunks and chunks[-1][0].instance == spec.instance:
            chunks[-1].append(spec)
        else:
            chunks.append([spec])
    return chunks


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` means the CPU count."""
    return _resolve_jobs(jobs, error=EvaluationError)


def _sweep_fingerprint(specs: Sequence[RunSpec]) -> str:
    """Identity of a sweep for checkpoint compatibility.

    Every result-determining spec field participates; the speed and
    resilience knobs are normalized away — ``jobs`` is zeroed, and when
    ``spec.config`` is a live
    :class:`~repro.partitioner.config.PartitionerConfig` (rather than a
    preset name) its ``jobs`` / ``exec_backend`` / ``task_timeout`` /
    ``retries`` are reset to their defaults.  None of those change what
    a run computes (see ``docs/robustness.md``), so a sweep interrupted
    under one set of resilience knobs and resumed under another must
    still match its journal.
    """
    payload = []
    for spec in specs:
        cfg = spec.config
        if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
            cfg = dataclasses.replace(
                cfg, jobs=1, exec_backend="auto",
                task_timeout=None, retries=0,
            )
        payload.append(dataclasses.astuple(
            dataclasses.replace(spec, jobs=0, config=cfg, trace=None)
        ))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _record_to_json(record) -> dict:
    out = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif value is not None and not isinstance(value, (bool, str)):
            value = float(value) if isinstance(value, float) else int(value)
        out[f.name] = value
    return out


def _record_from_json(data: dict):
    from repro.eval.runner import RunRecord

    data = dict(data)
    data["failures"] = tuple(data.get("failures", ()))
    return RunRecord(**data)


class SweepCheckpoint:
    """JSONL journal of completed sweep records (crash-resumable sweeps).

    Line 1 is a header carrying the sweep fingerprint (so a journal can
    never be replayed against a *different* sweep); every further line is
    ``{"index": <spec index>, "record": {...}}``, appended and fsynced
    the moment the record is produced — a SIGKILLed sweep loses at most
    the record being written, and a torn trailing line from the kill is
    skipped on reload.  ``done`` maps already-completed spec indices to
    their reloaded records; :func:`run_sweep` skips those specs and
    yields the journal's records in their place, so an interrupted sweep
    resumed with the same specs streams results bit-identical to an
    uninterrupted run.

    Disk pressure degrades, never aborts: an ``OSError`` on a journal
    write (``ENOSPC``, quota) drops the file handle and the sweep keeps
    streaming **unjournaled** — records after the failure simply rerun
    on a resume.  The one-shot brief is exposed via
    :meth:`take_write_error` so :func:`run_sweep` can annotate the
    record in flight when it happened; the ``checkpoint.write`` fault
    point (inside :meth:`_write`) lets the chaos suite inject exactly
    this.
    """

    def __init__(self, path, specs: Sequence[RunSpec]) -> None:
        self.path = Path(path)
        self.fingerprint = _sweep_fingerprint(specs)
        self.done: dict[int, object] = {}
        self.write_error: str | None = None
        self._error_taken = False
        self._fh = None
        if self.path.exists() and self.path.stat().st_size:
            self._load()
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            self._degrade(exc)
        if self._fh is not None and self._fh.tell() == 0:
            self._write({"sweep": self.fingerprint, "version": 1})

    def _load(self) -> None:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        try:
            header = json.loads(lines[0])
        except (json.JSONDecodeError, IndexError):
            raise EvaluationError(
                f"checkpoint {self.path} has no readable header; "
                f"delete it to start the sweep over"
            ) from None
        if header.get("sweep") != self.fingerprint:
            raise EvaluationError(
                f"checkpoint {self.path} belongs to a different sweep "
                f"(journal {header.get('sweep')!r} != specs "
                f"{self.fingerprint!r}); point it elsewhere or delete it"
            )
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail write from a crash; the spec reruns
            self.done[int(entry["index"])] = _record_from_json(
                entry["record"]
            )

    def _write(self, obj: dict) -> None:
        if self._fh is None:
            return  # journaling already degraded away
        try:
            faults.fault_point("checkpoint.write")
            self._fh.write(json.dumps(obj) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        """Stop journaling after a write failure; the sweep continues."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close-on-full-disk
                pass
            self._fh = None
        name = _errno.errorcode.get(exc.errno, "OSError")
        self.write_error = f"CheckpointWriteError[{name}]"
        print(
            f"repro-sweep: checkpoint journal degraded to read-only "
            f"({name}: {exc}); the sweep continues unjournaled",
            file=sys.stderr,
        )

    def take_write_error(self) -> str | None:
        """The degradation brief, the first time it is asked for.

        One record carries the annotation (the one whose append
        failed); later records run identically to an unjournaled sweep
        and stay clean — ``failures`` describes events, not a sticky
        state, and ``/stats``-style polling belongs to the daemon tier.
        """
        if self.write_error is None or self._error_taken:
            return None
        self._error_taken = True
        return self.write_error

    def append(self, spec: RunSpec, record) -> None:
        """Journal one completed record (flushed and fsynced)."""
        self._write(
            {"index": spec.index, "record": _record_to_json(record)}
        )

    def close(self) -> None:
        """Close the journal file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _validate_chunk_records(chunk: list[RunSpec], records) -> None:
    """Boundary validation of a worker-returned chunk of records."""
    name = chunk[0].instance
    if not isinstance(records, list) or len(records) != len(chunk):
        got = (
            len(records) if isinstance(records, list)
            else type(records).__name__
        )
        raise ResultValidationError(
            f"chunk of {len(chunk)} specs returned {got} records",
            task=name,
        )
    for spec, record in zip(chunk, records):
        validate_run_record(spec, record)


def _annotate(record, briefs: tuple):
    if not briefs:
        return record
    return dataclasses.replace(
        record, failures=record.failures + briefs
    )


def _execute_serial(spec: RunSpec, policy: RetryPolicy):
    """Inline execution with the retry half of ``policy``.

    The serial path *is* the degradation ladder's bottom rung — there is
    no worker to kill, so deadlines don't apply and retry exhaustion
    propagates the error instead of degrading further.
    """
    briefs: list[str] = []
    attempt = 0
    while True:
        try:
            records = _execute_chunk([spec])
            _validate_chunk_records([spec], records)
            return _annotate(records[0], tuple(briefs))
        except Exception as exc:
            attempt += 1
            if attempt > policy.retries:
                raise
            briefs.append(ExecutionError(
                f"run raised {type(exc).__name__}: {exc}",
                task=spec.instance, attempt=attempt,
            ).brief())
            time.sleep(policy.delay_for(attempt))


def run_sweep(
    specs: Sequence[RunSpec],
    *,
    jobs: "int | None | JobsBudget" = 1,
    exec_backend: str = "process",
    progress: bool = False,
    task_timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
) -> Iterator:
    """Execute specs and yield their records in spec order.

    ``jobs=1`` runs inline; ``jobs>=2`` dispatches instance-aligned
    chunks to the shared persistent worker pool (splitting down to
    per-run items when there are fewer instances than workers),
    streaming chunk results as they complete (``map`` preserves
    submission order).  A :class:`~repro.utils.executor.JobsBudget`
    instead *splits* its total between sweep workers and the recursion
    workers inside each p-way run — chunks then stay instance-aligned
    and the remainder of the budget is handed down via ``RunSpec.jobs``.
    Records are bit-identical across every ``jobs`` value and
    ``exec_backend`` except for the measured ``seconds`` (and any
    ``failures`` annotations — like ``seconds``, they describe how a run
    went, not its result).

    ``exec_backend`` selects the worker flavour: ``"process"`` (the
    default — sweeps are dominated by per-run Python orchestration, so
    processes sidestep the GIL; each chunk ships a
    :class:`~repro.utils.executor.MatrixHandle` to its worker, which
    attaches the published instance zero-copy instead of rebuilding it
    by name) or ``"thread"`` (in-process workers; chunks never split
    below instance boundaries there, so concurrent threads never share
    one instance's cached kernel states).  Process-chunk payloads are
    folded into any active
    :func:`~repro.utils.executor.payload_audit`.

    ``task_timeout`` / ``retries`` arm the hardened execution path (see
    ``docs/robustness.md``): each pool chunk gets a per-task deadline
    enforced by a watchdog that kills hung workers, crashed / timed-out
    / invalid chunks are retried with capped exponential backoff, and a
    chunk that exhausts its budget is completed serially in the driver —
    the sweep always finishes, annotating affected records' ``failures``
    instead of aborting.  The defaults (``None``/``0``) preserve the
    unhardened dispatch exactly.  Every worker-returned record is
    boundary-validated (spec-echo consistency, sane metrics) on every
    path, hardened or not.

    ``checkpoint`` (a path) makes the sweep crash-resumable: completed
    records are journaled to JSONL as they stream
    (:class:`SweepCheckpoint`), and a rerun pointing at the same journal
    with the same specs skips the already-done work and replays its
    records in place — merged output bit-identical to an uninterrupted
    sweep.
    """
    if exec_backend not in ("process", "thread"):
        raise EvaluationError(
            f"run_sweep exec_backend must be 'process' or 'thread', "
            f"got {exec_backend!r}"
        )
    inner = None
    if isinstance(jobs, JobsBudget):
        budget = jobs
        chunks = _chunk_by_instance(specs)
        workers, inner = budget.split(len(chunks))
        if inner > 1:
            chunks = [
                [dataclasses.replace(spec, jobs=inner) for spec in chunk]
                for chunk in chunks
            ]
            specs = [spec for chunk in chunks for spec in chunk]
        jobs = workers
    else:
        jobs = resolve_jobs(jobs)
    ctx = _trace.current_context()
    if ctx is not None:
        # Stamp the live trace envelope onto every spec so pool workers
        # parent their chunk spans into this sweep.  Fingerprints
        # normalize the field away, so checkpoints are unaffected.
        specs = [dataclasses.replace(s, trace=ctx) for s in specs]
    policy = RetryPolicy.resolve(task_timeout, retries)
    journal = (
        SweepCheckpoint(checkpoint, specs) if checkpoint is not None
        else None
    )
    try:
        if journal is not None and journal.done:
            pending = [s for s in specs if s.index not in journal.done]
        else:
            pending = list(specs)
        stream = _execute_pending(
            pending, jobs, exec_backend, policy, progress, inner
        )
        try:
            for spec in specs:
                if journal is not None and spec.index in journal.done:
                    yield journal.done[spec.index]
                    continue
                record = next(stream)
                if journal is not None:
                    journal.append(spec, record)
                    brief = journal.take_write_error()
                    if brief is not None:
                        record = _annotate(record, (brief,))
                faults.fault_point("sweep.record")
                _SWEEP_RUNS.inc()
                yield record
        finally:
            stream.close()
    finally:
        if journal is not None:
            journal.close()


def _execute_pending(
    specs: list[RunSpec],
    jobs: int,
    exec_backend: str,
    policy: RetryPolicy,
    progress: bool,
    inner: int | None,
) -> Iterator:
    """Yield records for ``specs`` in order (the dispatch half of
    :func:`run_sweep`, after checkpoint filtering)."""
    if jobs == 1 or len(specs) <= 1:
        last = None
        for spec in specs:
            if progress and spec.instance != last:  # pragma: no cover
                print(f"[sweep] {spec.instance}", flush=True)
                last = spec.instance
            _SWEEP_CHUNKS.inc()
            yield _execute_serial(spec, policy)
        return
    chunks = _chunk_by_instance(specs)
    if len(chunks) < jobs and inner is None and exec_backend != "thread":
        # Fewer instances than workers (e.g. many seeds of one matrix):
        # instance-aligned chunks would leave workers idle, so fall back
        # to per-run items — cache locality matters less than an empty
        # pool.  (Not under a budget — the leftover went to the inner
        # level — and not under threads, where two workers sharing one
        # instance would share its cached kernel states.)
        chunks = [[spec] for spec in specs]
    workers = min(jobs, len(chunks))
    _SWEEP_CHUNKS.inc(len(chunks))
    if policy.active:
        yield from _run_chunks_resilient(
            chunks, workers, exec_backend, policy, progress
        )
        return
    try:
        if exec_backend == "thread":
            results = pool_map("thread", workers, _execute_chunk, chunks)
            for chunk, records in zip(chunks, results):
                if progress:  # pragma: no cover - console side effect
                    print(f"[sweep] {chunk[0].instance}", flush=True)
                _validate_chunk_records(chunk, records)
                yield from records
        else:
            for chunk, records in _run_chunks_shm(chunks, workers):
                if progress:  # pragma: no cover - console side effect
                    print(f"[sweep] {chunk[0].instance}", flush=True)
                _validate_chunk_records(chunk, records)
                yield from records
    except BrokenProcessPool:
        # A worker died; forget the poisoned pool so the next sweep
        # starts fresh instead of failing forever.
        drop_process_pool()
        raise


def _run_chunks_resilient(
    chunks: list[list[RunSpec]],
    workers: int,
    exec_backend: str,
    policy: RetryPolicy,
    progress: bool,
) -> Iterator:
    """Hardened chunk dispatch: deadlines, retry/backoff, serial fallback.

    Chunks become individual :func:`~repro.utils.executor.resilient_map`
    tasks (per-chunk deadlines need per-chunk futures, so the windowed
    streaming of :func:`_run_chunks_shm` gives way to one fan-out; the
    first ``STORE_CAP`` distinct instances still ship shared-memory
    handles, the rest load by name in their workers).  Chunk-level
    failure briefs are annotated onto every record of the affected
    chunk.
    """
    if exec_backend == "thread":
        kind, fn = "thread", _execute_chunk
        items: list = list(chunks)
    else:
        kind, fn = "process", _execute_chunk_shm
        published: set[str] = set()
        items = []
        for chunk in chunks:
            name = chunk[0].instance
            if name in published or len(published) < STORE_CAP:
                handle = SharedMatrixStore.for_matrix(
                    load_instance(name)
                ).handle
                published.add(name)
            else:
                handle = None  # past the cap: the worker loads by name
            payload = (handle, name, chunk)
            account_payload([payload])
            items.append(payload)

    def fallback(i: int):
        # The driver's own by-name execution: scope="worker" faults and
        # pool pathologies cannot reach here, so degraded completion is
        # genuine completion.
        return _execute_chunk(chunks[i])

    values, failures = resilient_map(
        kind, workers, fn, items,
        policy=policy, fallback=fallback,
        validate=lambda i, recs: _validate_chunk_records(chunks[i], recs),
        labels=[chunk[0].instance for chunk in chunks],
    )
    for chunk, records, fails in zip(chunks, values, failures):
        if progress:  # pragma: no cover - console side effect
            print(f"[sweep] {chunk[0].instance}", flush=True)
        briefs = tuple(f.brief() for f in fails)
        for record in records:
            yield _annotate(record, briefs)


def _run_chunks_shm(
    chunks: list[list[RunSpec]], workers: int
) -> Iterator[tuple[list[RunSpec], list]]:
    """Dispatch chunks to the shared process pool via the matrix store.

    Chunks are instance-aligned, so each ships one
    :class:`~repro.utils.executor.MatrixHandle` (publishing the instance
    on first use — repeated chunks of one matrix reuse the live segment)
    plus the specs; submission runs in a bounded window of ``2 *
    workers`` — wide enough to keep every worker busy, narrow enough
    that a long sweep publishes stores just ahead of the workers that
    need them.  Publication itself is paced by the store cache's LRU
    cap: while ``STORE_CAP`` *distinct instances* have handle-shipped
    chunks in flight, chunks of further instances ship name-only (their
    worker rebuilds the instance, exactly like the ``pool_map`` path
    this replaces) instead of publishing a segment destined for
    eviction before its worker attaches; chunks of already-published
    instances always ship the live handle.  The worker-side by-name
    fallback still covers any remaining eviction race.  Results stream
    in submission order.

    Publishing requires building each instance in the *parent* (the old
    path had workers rebuild instances themselves, in parallel); the
    window overlaps the parent's builds with worker compute, which wins
    whenever partitioning dominates generation — the normal case — and
    trades the old path's duplicated per-worker rebuilds for one
    zero-copy publication per instance.
    """
    window = max(2, 2 * workers)
    pending: deque = deque()
    #: Distinct instances whose pending chunks shipped a handle -> count.
    #: The publication gate works on *instances*, not chunks: a repeat
    #: chunk of an already-published matrix reuses the live segment at
    #: zero eviction risk, and only genuinely new instances count
    #: against the cap.
    live: dict[str, int] = {}
    idx = 0
    while idx < len(chunks) or pending:
        while idx < len(chunks) and len(pending) < window:
            chunk = chunks[idx]
            name = chunk[0].instance
            if name in live or len(live) < STORE_CAP:
                handle = SharedMatrixStore.for_matrix(
                    load_instance(name)
                ).handle
                live[name] = live.get(name, 0) + 1
            else:
                handle = None  # past the cap: would be evicted unused
            payload = (handle, name, chunk)
            account_payload([payload])
            pending.append(
                (chunk, handle is not None,
                 pool_submit("process", workers,
                             _execute_chunk_shm, payload))
            )
            idx += 1
        chunk, had_handle, future = pending.popleft()
        records = future.result()
        if had_handle:
            name = chunk[0].instance
            live[name] -= 1
            if not live[name]:
                del live[name]
        yield chunk, records


@dataclass
class _MethodInstanceAgg:
    """Running sums for one (method, instance) cell."""

    runs: int = 0
    volume_sum: float = 0.0
    seconds_sum: float = 0.0
    bsp_sum: float = 0.0
    has_bsp: bool = True
    feasible_runs: int = 0


@dataclass
class SweepAggregator:
    """Incremental sweep aggregation (streaming counterpart of
    ``ExperimentData.mean_metric``).

    Feed records with :meth:`add` as they arrive; per-(method, instance)
    run-averaged metrics are available at any point without holding the
    records themselves.  The paper's protocol averages each metric over
    the runs before profiles/geomeans — this computes exactly those
    averages.
    """

    cells: dict = field(default_factory=dict)
    _instances: dict = field(default_factory=dict)
    _methods: dict = field(default_factory=dict)
    total_runs: int = 0
    feasible_runs: int = 0

    def add(self, record) -> None:
        """Fold one :class:`RunRecord` into the running sums."""
        key = (record.method, record.instance)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = _MethodInstanceAgg()
            self._instances.setdefault(record.instance, None)
            self._methods.setdefault(record.method, None)
        cell.runs += 1
        cell.volume_sum += record.volume
        cell.seconds_sum += record.seconds
        if record.bsp is None:
            cell.has_bsp = False
        else:
            cell.bsp_sum += record.bsp
        cell.feasible_runs += bool(record.feasible)
        self.total_runs += 1
        self.feasible_runs += bool(record.feasible)

    def instances(self) -> list[str]:
        """Instance names in first-appearance order."""
        return list(self._instances)

    def methods(self) -> list[str]:
        """Method labels in first-appearance order."""
        return list(self._methods)

    def mean(self, method: str, instance: str, metric: str) -> float:
        """Run-averaged ``metric`` for one (method, instance) cell."""
        cell = self.cells.get((method, instance))
        if cell is None or cell.runs == 0:
            raise EvaluationError(
                f"no runs recorded for {method!r} on {instance!r}"
            )
        if metric == "volume":
            return cell.volume_sum / cell.runs
        if metric == "seconds":
            return cell.seconds_sum / cell.runs
        if metric == "bsp":
            if not cell.has_bsp:
                raise EvaluationError(
                    f"record {instance}/{method} lacks metric 'bsp'"
                )
            return cell.bsp_sum / cell.runs
        raise EvaluationError(f"unknown metric {metric!r}")

    def feasible_fraction(self) -> float:
        """Fraction of aggregated runs satisfying the eqn-(1) constraint."""
        if self.total_runs == 0:
            return 1.0
        return self.feasible_runs / self.total_runs
