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
    atexit).  A chunk ships its instance *name*, and chunks follow
    instance boundaries so each worker's matrix cache
    (:func:`~repro.sparse.collection.load_instance` is memoized per
    process, and the kernel/SpMV states hang off the cached objects)
    stays hot for a whole instance.  ``jobs`` is one total worker
    budget, split between sweep-level workers and the recursion-level
    workers inside each p-way run (``outer * inner <= total``, see
    :func:`~repro.utils.parallel.split_jobs`), so ``experiment --jobs
    N`` composes across both levels instead of oversubscribing with
    nested pools.  Because every record is determined by its spec
    alone, the parallel sweep is **bit-identical** to the serial one —
    same seeds, volumes, feasibility, BSP costs, and ordering — apart
    from the measured wall-clock ``seconds``.
"""

from __future__ import annotations

import dataclasses
import errno as _errno
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.validate import validate_run_record
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.errors import EvaluationError, ResultValidationError
from repro.sparse.collection import CollectionEntry, load_instance
from repro.utils import faults
from repro.utils.executor import RetryPolicy, resilient_map, run_inline
from repro.utils.parallel import resolve_jobs, split_jobs
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
    #: p-way partitioning scheme for ``nparts > 2`` runs: ``"recursive"``
    #: bisection or the direct ``"kway"`` partitioner (see
    #: :func:`repro.core.recursive.partition`'s ``algo``).  Ignored for
    #: bipartitionings.
    algo: str = "recursive"
    #: Multilevel cycle count for ``algo="kway"`` runs (see
    #: :attr:`repro.partitioner.config.PartitionerConfig.kway_vcycles`).
    #: A result-determining knob, so it participates in the sweep
    #: fingerprint of ``algo="kway"`` specs.  Ignored for recursive runs
    #: and bipartitionings.
    kway_vcycles: int = 1


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
    kway_vcycles: int = 1,
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


def execute_runspec(spec: RunSpec, jobs: int = 1):
    """Execute one work item and return its :class:`RunRecord`.

    Importable at module level (process-pool workers pickle the function
    by reference).  The heavy per-instance objects — the matrix, its
    hypergraph models, kernel states — are cached per process via
    :func:`load_instance` and the object caches hanging off it.
    ``jobs`` is the recursion-level worker count inside a p-way run
    (:func:`run_sweep` hands down its budget's inner share); a speed
    knob only, the record is bit-identical for every value.
    """
    from repro.core.methods import bipartition
    from repro.core.recursive import partition
    from repro.eval.runner import RunRecord
    from repro.partitioner.config import get_config
    from repro.spmv.bsp import bsp_cost

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
            jobs=jobs,
            algo=spec.algo,
        )
    bsp = None
    if spec.with_bsp:
        bsp = bsp_cost(matrix, res.parts, spec.nparts).cost
    if spec.verify_spmv:
        from repro.spmv.simulate import simulate_spmv

        report = simulate_spmv(matrix, res.parts, spec.nparts)
        if report.volume != res.volume:
            raise EvaluationError(
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


def _execute_chunk(payload) -> list:
    """Execute one ``(instance, specs, jobs)`` chunk in order (worker or
    driver).

    The payload names the instance; every spec loads it through the
    memoized :func:`load_instance`, so consecutive chunks of one
    instance in one worker share the matrix object — and with it the
    kernel/SpMV state caches.  ``jobs`` is the recursion-level worker
    count of every p-way run in the chunk.
    """
    name, specs, jobs = payload
    faults.fault_point("sweep.chunk")
    with _trace.span("sweep.chunk", instance=name, nspecs=len(specs)):
        records = [execute_runspec(spec, jobs=jobs) for spec in specs]
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


def _sweep_fingerprint(specs: Sequence[RunSpec]) -> str:
    """Identity of a sweep for checkpoint compatibility.

    Specs and configs hold only result-determining knobs — the worker
    count and the retry policy are :func:`run_sweep` arguments — so a
    sweep interrupted under one ``jobs`` / ``policy`` and resumed under
    another still matches its journal.  The one field normalized away
    is ``kway_vcycles``: it counts only for ``algo="kway"`` specs
    (recursive runs never read it), and a live
    :class:`~repro.partitioner.config.PartitionerConfig`'s copy never
    counts, because :func:`execute_runspec` overrides it with the
    spec's.
    """
    payload = []
    for spec in specs:
        cfg = spec.config
        if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
            cfg = dataclasses.replace(cfg, kway_vcycles=1)
        vcycles = spec.kway_vcycles if spec.algo == "kway" else None
        payload.append(dataclasses.astuple(dataclasses.replace(
            spec, config=cfg, kway_vcycles=vcycles,
        )))
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
        intact = None
        if self.path.exists() and self.path.stat().st_size:
            intact = self._load()
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
            if intact is not None:
                # Cut a torn tail: an append glued onto it would make a
                # later resume stop reading at the glued line.
                self._fh.truncate(intact)
        except OSError as exc:
            self._degrade(exc)
        if self._fh is not None and self._fh.tell() == 0:
            self._write({"sweep": self.fingerprint, "version": 1})

    def _load(self) -> int:
        """Read the journal; returns the byte length of its intact
        prefix (the header and every complete record line)."""
        data = self.path.read_bytes()
        lines = data.splitlines(keepends=True)
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
        # A header without its newline is the whole file: cut it too,
        # and the journal starts over.
        intact = len(lines[0]) if lines[0].endswith(b"\n") else 0
        for line in lines[1:]:
            try:
                entry = json.loads(line) if line.endswith(b"\n") else None
            except json.JSONDecodeError:
                entry = None
            if entry is None:
                break  # torn tail write from a crash; the spec reruns
            self.done[int(entry["index"])] = _record_from_json(
                entry["record"]
            )
            intact += len(line)
        return intact

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


def run_sweep(
    specs: Sequence[RunSpec],
    *,
    jobs: int | None = 1,
    progress: bool = False,
    policy: RetryPolicy = RetryPolicy(),
    checkpoint=None,
) -> Iterator:
    """Execute specs and yield their records in spec order.

    ``jobs`` is the total worker budget (``None``/``0`` = CPU count),
    spent under one rule: the sweep cuts instance-aligned chunks (per-run
    items when there are fewer instances than workers, so no worker
    idles), then :func:`~repro.utils.parallel.split_jobs` divides the
    budget into sweep workers and the recursion workers that ride each
    chunk into :func:`execute_runspec`'s ``jobs``.  One sweep worker
    runs inline; more dispatch their chunks to the shared persistent
    process pool through the execution layer's one dispatch loop
    (:func:`~repro.utils.executor.resilient_map`), which keeps at most
    ``2 * workers`` chunks in flight and streams records in spec order
    as soon as every earlier chunk is done.  Records are bit-identical
    across every ``jobs`` value except for the measured ``seconds``
    (and any ``failures`` annotations — like ``seconds``, they describe
    how a run went, not its result).

    Each chunk ships its instance name, and the worker loads the matrix
    through the memoized :func:`~repro.sparse.collection.load_instance`.
    Chunk payloads are folded into any active
    :func:`~repro.utils.executor.payload_audit`.

    An armed ``policy`` (a :class:`~repro.utils.executor.RetryPolicy`)
    hardens that same loop (see ``docs/robustness.md``): each pool chunk
    gets a per-task deadline enforced by a watchdog that kills hung
    workers, crashed / timed-out / invalid chunks are retried with
    capped exponential backoff, and a chunk that exhausts its budget is
    completed serially in the driver — the sweep always finishes,
    annotating affected records' ``failures`` instead of aborting.
    Under the default policy the first failure is raised instead.
    Dispatch, streaming and journaling are the same either way, and
    every worker-returned record is boundary-validated (spec-echo
    consistency, sane metrics) on every path.

    ``checkpoint`` (a path) makes the sweep crash-resumable: completed
    records are journaled to JSONL as they stream
    (:class:`SweepCheckpoint`), and a rerun pointing at the same journal
    with the same specs skips the already-done work and replays its
    records in place — merged output bit-identical to an uninterrupted
    sweep.
    """
    jobs = resolve_jobs(jobs, error=EvaluationError)
    journal = (
        SweepCheckpoint(checkpoint, specs) if checkpoint is not None
        else None
    )
    try:
        if journal is not None and journal.done:
            pending = [s for s in specs if s.index not in journal.done]
        else:
            pending = list(specs)
        stream = _execute_pending(pending, jobs, policy, progress)
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
    policy: RetryPolicy,
    progress: bool,
) -> Iterator:
    """Yield records for ``specs`` in order (the dispatch half of
    :func:`run_sweep`, after checkpoint filtering) under the total
    worker budget ``jobs``."""
    chunks = _chunk_by_instance(specs)
    if len(chunks) < jobs:
        # Fewer instances than workers (e.g. many seeds of one matrix):
        # instance-aligned chunks would leave workers idle, so fall back
        # to per-run items — cache locality matters less than an empty
        # pool.
        chunks = [[spec] for spec in specs]
    workers, inner = split_jobs(jobs, len(chunks))
    if workers > 1:
        _SWEEP_CHUNKS.inc(len(chunks))
        yield from _run_chunks(chunks, workers, policy, progress, inner)
        return
    # Inline, one spec at a time: the serial path *is* the degradation
    # ladder's bottom rung.
    last = None
    for spec in specs:
        if progress and spec.instance != last:  # pragma: no cover
            print(f"[sweep] {spec.instance}", flush=True)
            last = spec.instance
        _SWEEP_CHUNKS.inc()
        records, fails = run_inline(
            lambda spec=spec: _checked_chunk([spec], inner),
            policy=policy, label=spec.instance,
        )
        yield _annotate(records[0], tuple(f.brief() for f in fails))


def _checked_chunk(chunk: list[RunSpec], jobs: int) -> list:
    """The driver's own execution of a chunk, validated."""
    records = _execute_chunk((chunk[0].instance, chunk, jobs))
    _validate_chunk_records(chunk, records)
    return records


def _run_chunks(
    chunks: list[list[RunSpec]],
    workers: int,
    policy: RetryPolicy,
    progress: bool,
    jobs: int,
) -> Iterator:
    """Dispatch chunks to the shared process pool.

    Each chunk ships as ``(instance, specs, jobs)``, ``jobs`` being the
    recursion-level share of the budget.
    :func:`~repro.utils.executor.resilient_map` sends at most ``2 *
    workers`` chunks ahead of the oldest record not yet yielded and
    streams records in chunk order, so a checkpointed sweep journals as
    it goes under every ``policy``.

    Under an armed ``policy`` a chunk that exhausts its retries is
    completed serially in the driver (``scope="worker"`` faults and pool
    pathologies cannot reach there, so degraded completion is genuine
    completion); chunk-level failure briefs are annotated onto every
    record of the affected chunk.
    """
    payloads = [(chunk[0].instance, chunk, jobs) for chunk in chunks]
    stream = resilient_map(
        workers, _execute_chunk, payloads,
        policy=policy,
        fallback=lambda i: _execute_chunk(payloads[i]),
        validate=lambda i, recs: _validate_chunk_records(chunks[i], recs),
        labels=[payload[0] for payload in payloads],
    )
    try:
        for (name, _, _), (records, fails) in zip(payloads, stream):
            if progress:  # pragma: no cover - console side effect
                print(f"[sweep] {name}", flush=True)
            briefs = tuple(f.brief() for f in fails)
            for record in records:
                yield _annotate(record, briefs)
    finally:
        stream.close()
