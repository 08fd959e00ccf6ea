"""Recursive bisection into ``p`` parts, serially or on a process pool.

The paper's ``p = 64`` experiments (Fig. 6b, Table II) use the
medium-grain method "in a recursive bisection scheme": the nonzeros are
split in two, each half is split again, and so on, until ``p`` parts
exist.  The load budget is handed down Mondriaan-style: with the global
ceiling ``L = max_allowed_part_size(N, p, eps)``, a subproblem that will
eventually hold ``q`` parts may keep at most ``L * q`` nonzeros, so a
bisection into ``q0 + q1`` parts runs with the *asymmetric* per-side
ceilings ``(L * q0, L * q1)``.  Satisfying every local constraint
guarantees the global eqn-(1) constraint.

Each bisection is a full method run (any of the paper's six variants,
including iterative refinement per step); sub-splits see the submatrix of
their nonzeros with the original shape, so empty rows/columns are handled
by the hypergraph models naturally.

Seed discipline
---------------
After the first split, the two subproblems are completely independent, so
the recursion tree is a natural source of parallelism — *if* randomness
does not couple the nodes.  Every node therefore draws its RNG from a
:class:`~numpy.random.SeedSequence` keyed on the node's *position* in the
tree (:func:`~repro.utils.rng.child_sequence` of the run's root sequence
at the node's left/right path), never from a stream shared along the
traversal.  Results are then a pure function of ``(matrix, arguments,
seed)`` — identical whether the tree is walked depth-first in one process
or scheduled across a worker pool in any order.

Parallel execution
------------------
``partition(..., jobs=N)`` runs the tree on the shared execution layer
(:mod:`repro.utils.executor`), mirroring the sweep engine's knob
(``jobs=1``, the default, is serial; ``0``/``None`` = CPU count).  The
scheduler widens the frontier with rounds of concurrent bisections until
there are at least ``jobs`` independent subtrees, then hands each worker
a whole subtree to solve serially — within a worker
the usual per-object caches (``FMPassState`` per hypergraph,
``SpMVState`` per matrix) are reused across that subtree's bisections
exactly as in a serial run.  The workers are processes: the matrix is
published once to a shared-memory store and each task ships only an
index range.  The partition returned is **bit-identical** for every
``jobs`` value.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
import numpy as np

from repro.core.floor import keep_best
from repro.core.methods import _bipartition
from repro.core.validate import validate_parts
from repro.core.volume import (
    communication_volume,
    load_balance,
    part_sizes,
)
from repro.errors import PartitioningError, ResultValidationError
from repro.obs import trace as _trace
from repro.partitioner.config import PartitionerConfig, get_config
from repro.sparse.matrix import SparseMatrix
from repro.utils import faults
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, Degraded, observe_overshoot
from repro.utils.executor import MatrixExecutor, RetryPolicy
from repro.utils.parallel import resolve_jobs
from repro.utils.rng import (
    SeedLike,
    as_generator,
    as_seed_sequence,
    child_sequence,
)
from repro.utils.timing import Timer
from repro.utils.validation import check_eps, check_pos_int

__all__ = ["PartitionResult", "partition"]


@dataclass
class PartitionResult:
    """Outcome of a ``p``-way partitioning.

    Attributes
    ----------
    parts:
        Part id in ``[0, nparts)`` per canonical nonzero.
    nparts:
        Requested number of parts.
    volume:
        Communication volume of the p-way partitioning (eqn (3)).
    max_part:
        ``max_k |A_k|``.
    feasible:
        Whether ``max_part <= max_allowed_part_size(N, p, eps)``.
    imbalance:
        ``max_k |A_k| / (N/p) - 1``.
    seconds:
        Total wall-clock time over all bisections.
    method:
        The method label used for every bisection.
    bisection_volumes:
        The per-bisection volumes in recursion (depth-first pre-)order
        (diagnostics; their sum generally differs from ``volume``, which
        is measured on the final p-way partitioning of the full matrix).
    failures:
        Structured failure briefs (``"TaskTimeout[...]@attempt1"``-style
        strings, see :meth:`repro.errors.ExecutionError.brief`) the
        hardened execution layer recorded on the way to this result —
        retries that eventually succeeded, watchdog kills, degraded
        serial completions.  Empty on an untroubled run.
    """

    parts: np.ndarray
    nparts: int
    volume: int
    max_part: int
    feasible: bool
    imbalance: float
    seconds: float
    method: str
    bisection_volumes: list[int] = field(default_factory=list)
    failures: tuple = ()


@dataclass(frozen=True)
class _Node:
    """One subproblem of the recursion tree.

    ``path`` identifies the node's position — ``()`` is the root, and each
    element descends to the left (``0``, lower part ids) or right (``1``)
    child.  The node's RNG is ``child_sequence(root, *path)``, so the
    stream depends on the position alone.  ``indices`` are canonical
    nonzero indices into the node's matrix (always sorted ascending, so a
    submatrix built from them aligns positionally).
    """

    path: tuple[int, ...]
    indices: np.ndarray
    first_part: int
    nparts: int

    def children(self, parts01: np.ndarray) -> tuple["_Node", "_Node"]:
        """Split this node by a 0/1 bisection of its nonzeros."""
        q0 = self.nparts // 2
        q1 = self.nparts - q0
        return (
            _Node(
                self.path + (0,), self.indices[parts01 == 0],
                self.first_part, q0,
            ),
            _Node(
                self.path + (1,), self.indices[parts01 == 1],
                self.first_part + q0, q1,
            ),
        )


def partition(
    matrix: SparseMatrix,
    nparts: int,
    method: str = "mediumgrain",
    eps: float = 0.03,
    refine: bool = False,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    jobs: int = 1,
    algo: str | None = None,
    deadline: Deadline | None = None,
    policy: RetryPolicy | None = None,
) -> PartitionResult:
    """Partition the nonzeros of ``matrix`` into ``nparts`` parts.

    Parameters mirror :func:`repro.core.methods.bipartition`; ``refine``
    applies Algorithm-2 iterative refinement inside every bisection step
    (or, under ``algo="kway"``, the generalized k-way iterate loop after
    the direct partitioning).  ``nparts`` may be any positive integer
    (not only powers of two): an uneven split hands ``floor(q/2)`` parts
    to one side and the rest to the other, with proportional ceilings.

    ``algo`` selects the p-way scheme (``None`` = the config's
    :attr:`~repro.partitioner.config.PartitionerConfig.algo`):
    ``"recursive"`` — the paper's recursive bisection, implemented here —
    or ``"kway"`` — the direct k-way partitioner of
    :mod:`repro.core.kway`, which optimizes the connectivity-(λ−1)
    volume in one shot and is delegated to after validation.

    ``jobs`` schedules independent subtrees of the recursion on a process
    pool (``1``, the default, = serial; ``0``/``None`` = CPU count).  The
    result is bit-identical for every ``jobs`` value: each bisection's
    randomness is keyed on its tree position, not on traversal order.
    The direct k-way partitioner has no tree to schedule, so ``jobs`` is
    validated but does not apply there.  ``policy`` (a
    :class:`~repro.utils.executor.RetryPolicy`; ``None`` = the default,
    which raises the first failure) sets the pool tasks' watchdog
    deadline and retry budget — like ``jobs``, it never changes the
    result (see ``docs/robustness.md``).

    ``deadline`` (a :class:`~repro.utils.deadline.Deadline` or the
    deterministic :class:`~repro.utils.deadline.SoftBudget`) makes the
    run *anytime*.  The recursion checks it before each bisection and
    hands it to the bisection itself, whose multilevel run and iterate
    loop stop at their next boundary
    (:func:`repro.core.methods.bipartition`) — on the pool too: frontier
    bisections and subtree workers carry the deadline.  Once it has
    expired, the remaining subtrees are finished with an even contiguous
    fallback split instead of further method runs — every nonzero still
    gets a part in ``[0, nparts)`` and per-part sizes stay within one of
    each other, so the result passes validation, just at degraded
    quality.  A cut-short run returns the best of its answer and the two
    contiguous splits of the whole matrix
    (:func:`repro.core.floor.keep_best`) and reports each cut-short
    bisection's ``Degraded[...]`` brief and a ``Degraded[recursive]``
    brief for the skipped subtrees in ``failures``.  A ``SoftBudget``
    stays deterministic under every ``jobs``: a lone task runs
    inline on the caller's own budget, and concurrent tasks each count
    down a copy taken at dispatch.  So ``jobs >= 2`` matches ``jobs=1``
    for every budget that expires by the end of the root bisection;
    later, each concurrent subtree has its own copy of what was left.
    Under ``algo="kway"`` the deadline is threaded into every engine
    loop instead (see :func:`repro.core.kway.partition_kway`).  With
    ``deadline=None`` nothing changes, bit for bit.
    """
    nparts = check_pos_int(nparts, "nparts")
    check_eps(eps)
    cfg = get_config(config)
    if algo is None:
        algo = cfg.algo
    jobs = resolve_jobs(jobs, error=PartitioningError)
    if algo == "kway":
        from repro.core.kway import partition_kway

        result = partition_kway(
            matrix, nparts, method=method, eps=eps, refine=refine,
            config=cfg, seed=seed, deadline=deadline,
        )
        observe_overshoot(deadline, "kway")
        return result
    if algo != "recursive":
        from repro.partitioner.config import ALGO_CHOICES

        raise PartitioningError(
            f"unknown partitioning algorithm {algo!r}; "
            f"expected one of {ALGO_CHOICES}"
        )
    root_seed = as_seed_sequence(seed)
    n = matrix.nnz
    if nparts > max(n, 1):
        raise PartitioningError(
            f"cannot split {n} nonzeros into {nparts} non-trivial parts"
        )

    parts = np.zeros(n, dtype=np.int64)
    ceiling = max_allowed_part_size(n, nparts, eps)
    volumes: dict[tuple[int, ...], int] = {}
    failures: tuple = ()
    degraded: list[str] = []
    skipped = 0
    timer = Timer()
    with timer, _trace.span(
        "partition", method=method, nparts=nparts, algo="recursive",
        jobs=jobs,
    ):
        if nparts > 1:
            root = _Node((), np.arange(n, dtype=np.int64), 0, nparts)
            job = _TreeJob(
                ceiling=ceiling, eps=eps, method=method, refine=refine,
                cfg=cfg, root_seed=root_seed, deadline=deadline,
            )
            # With fewer than 4 parts at most one bisection can ever be
            # in flight, so a pool would only add process overhead.
            if jobs >= 2 and nparts >= 4:
                failures, skipped = _solve_parallel(
                    matrix, root, job, jobs, parts, volumes, degraded,
                    policy,
                )
            else:
                skipped = _solve_serial(
                    matrix, root, job, parts, volumes, degraded
                )
        volume = None
        # At p = 2 a bisected root is the whole answer, and the
        # bisection already kept its best against this same floor.
        if skipped or (degraded and nparts > 2):
            parts, volume = keep_best(
                matrix, parts, np.full(nparts, ceiling, dtype=np.int64)
            )
    failures += tuple(degraded)
    if skipped:
        failures += (
            Degraded(
                "recursive", completed=len(volumes), skipped=skipped
            ).brief(),
        )

    if volume is None:
        volume = communication_volume(matrix, parts)
    observe_overshoot(deadline, "recursive")
    biggest, imbalance = load_balance(
        part_sizes(matrix, parts, nparts), matrix.nnz
    )
    return PartitionResult(
        parts=parts,
        nparts=nparts,
        volume=volume,
        max_part=biggest,
        feasible=biggest <= ceiling,
        imbalance=imbalance,
        seconds=timer.elapsed,
        method=method + ("+ir" if refine else ""),
        bisection_volumes=[volumes[p] for p in sorted(volumes)],
        failures=failures,
    )


@dataclass(frozen=True)
class _TreeJob:
    """The per-run constants every tree node shares (picklable, so one
    object describes the job to pool workers as well)."""

    ceiling: int
    eps: float
    method: str
    refine: bool
    cfg: PartitionerConfig
    root_seed: np.random.SeedSequence
    # The run's deadline (None = unbounded), checked by every node and
    # handed to every bisection, in the driver and in pool workers alike.
    deadline: Deadline | None = None


def _bisect_node(
    matrix: SparseMatrix,
    node: _Node,
    job: _TreeJob,
) -> tuple[np.ndarray, int, tuple[str, ...]]:
    """Run one bisection; returns the 0/1 parts (aligned with
    ``node.indices``), its communication volume and the ``Degraded``
    briefs of whatever ``job.deadline`` cut short in it."""
    faults.fault_point("recursive.bisect")
    q0 = node.nparts // 2
    q1 = node.nparts - q0
    sub = (
        matrix
        if node.indices.size == matrix.nnz
        else matrix.select(node.indices)
    )
    cap0, cap1 = job.ceiling * q0, job.ceiling * q1
    if node.indices.size > cap0 + cap1:
        # An ancestor bisection could not satisfy its ceilings (e.g. a 1D
        # model facing an unsplittable dense line) and overloaded this
        # subproblem.  Proceed best-effort with proportionally relaxed
        # ceilings — the global constraint is already lost, which
        # ``partition`` reports via ``feasible=False``; aborting here
        # would be worse than finishing with the smallest achievable
        # imbalance (Mondriaan behaves the same way).
        relaxed = max_allowed_part_size(node.indices.size, node.nparts, job.eps)
        cap0 = max(cap0, relaxed * q0)
        cap1 = max(cap1, relaxed * q1)
    with _trace.span(
        "recursive.bisect",
        path="".join(map(str, node.path)) or "root",
        nnz=int(node.indices.size),
    ):
        result = _bipartition(
            sub,
            job.method,
            job.eps,
            job.refine,
            job.cfg,
            as_generator(child_sequence(job.root_seed, *node.path)),
            (cap0, cap1),
            job.deadline,
        )
    briefs = tuple(d.brief() for d in result.degraded)
    return result.parts, result.volume, briefs


def _fallback_split(node: _Node, out: np.ndarray) -> None:
    """Assign ``node``'s nonzeros to its part range without bisecting.

    Contiguous even chunks: sizes differ by at most one, and since a
    subtree holding ``q`` parts has at most ``L * q`` nonzeros,
    ``ceil(n/q) <= L`` — the fallback respects the global eqn-(1)
    ceiling whenever the ancestors did.  Quality is sacrificed (the
    split ignores the matrix structure entirely); validity is not.
    """
    for offset, chunk in enumerate(
        np.array_split(node.indices, node.nparts)
    ):
        out[chunk] = node.first_part + offset


def _solve_serial(
    matrix: SparseMatrix,
    node: _Node,
    job: _TreeJob,
    out: np.ndarray,
    volumes: dict,
    degraded: list,
) -> int:
    """Depth-first reference traversal; assigns parts ``node.first_part ..
    first_part + nparts - 1`` to the nonzeros in ``node.indices``.

    Each bisection receives ``job.deadline``; the ``Degraded`` briefs of
    the bisections it cut short are appended to ``degraded``.  Returns
    the number of subtrees an expired deadline finished with the
    fallback split instead of bisections (0 on a normal run).
    """
    if node.nparts == 1:
        out[node.indices] = node.first_part
        return 0
    if job.deadline is not None and job.deadline.expired():
        _fallback_split(node, out)
        return 1
    parts01, volume, briefs = _bisect_node(matrix, node, job)
    volumes[node.path] = volume
    degraded.extend(briefs)
    left, right = node.children(parts01)
    skipped = _solve_serial(matrix, left, job, out, volumes, degraded)
    skipped += _solve_serial(matrix, right, job, out, volumes, degraded)
    return skipped


def _bisect_task(sub: SparseMatrix, extra) -> tuple[np.ndarray, int, tuple]:
    """Executor task: one bisection of a delivered submatrix (the node
    arrives index-free; the worker addresses the submatrix positionally).
    Returns ``(parts01, volume, briefs)`` as :func:`_bisect_node` does.
    """
    path, nparts, job = extra
    local = _Node(path, np.arange(sub.nnz, dtype=np.int64), 0, nparts)
    with _trace.span(
        "worker.bisect", path="".join(map(str, path)) or "root",
    ):
        return _bisect_node(sub, local, job)


def _subtree_task(
    sub: SparseMatrix, extra
) -> tuple[np.ndarray, dict, list, int]:
    """Executor task: solve a whole subtree serially on a delivered
    submatrix.

    ``path`` stays absolute so every descendant derives the same seed
    stream it would in a single-process run; the returned parts are
    relative (``0 .. nparts - 1``), the caller re-offsets them.  Returns
    ``(parts, volumes, briefs, skipped)``: the last two are
    :func:`_solve_serial`'s ``degraded`` list and return value.
    """
    path, nparts, job = extra
    local = _Node(path, np.arange(sub.nnz, dtype=np.int64), 0, nparts)
    out = np.zeros(sub.nnz, dtype=np.int64)
    volumes: dict = {}
    briefs: list = []
    with _trace.span(
        "worker.subtree", path="".join(map(str, path)) or "root",
        nparts=nparts,
    ):
        skipped = _solve_serial(sub, local, job, out, volumes, briefs)
    return out, volumes, briefs, skipped


def _node_tasks(matrix: SparseMatrix, nodes: list[_Node], job: _TreeJob):
    """The executor ``(indices, extra)`` items for one map over ``nodes``.

    The root node (all nonzeros) ships ``None`` so no index array — and
    so no nonzero data at all — crosses the worker boundary.  A lone
    task runs inline and counts down the driver's own deadline, exactly
    as :func:`_solve_serial` would; concurrent tasks each get a copy
    taken here, at dispatch, so a ``SoftBudget`` counts the same for
    every ``jobs``.
    """
    tasks = []
    for nd in nodes:
        own = job
        if len(nodes) > 1 and job.deadline is not None:
            own = replace(job, deadline=copy.copy(job.deadline))
        indices = None if nd.indices.size == matrix.nnz else nd.indices
        tasks.append((indices, (nd.path, nd.nparts, own)))
    return tasks


def _path_label(path: tuple[int, ...]) -> str:
    return "node:" + ("".join(map(str, path)) or "root")


def _node_submatrix(matrix: SparseMatrix, nd: _Node) -> SparseMatrix:
    return (
        matrix
        if nd.indices.size == matrix.nnz
        else matrix.select(nd.indices)
    )


def _check_bisect_result(matrix: SparseMatrix, nd: _Node, value) -> None:
    """Boundary validation of one worker-returned bisection.

    Structural invariants via :func:`validate_parts` plus eqn-(3) volume
    consistency: the reported volume must equal the volume recomputed in
    the driver from the parts the worker handed back.  A bisection the
    deadline cut short is still a complete bisection with its recomputed
    volume, so it passes the same checks.
    """
    label = _path_label(nd.path)
    try:
        parts01, volume, _briefs = value
    except Exception:
        raise ResultValidationError(
            f"bisect task returned {type(value).__name__}, not "
            f"(parts, volume, briefs)", task=label,
        ) from None
    validate_parts(parts01, nd.indices.size, 2, context=label)
    actual = communication_volume(_node_submatrix(matrix, nd), parts01)
    if int(volume) != actual:
        raise ResultValidationError(
            f"reported bisection volume {volume} != recomputed {actual} "
            f"({label}): result corrupted in transit", task=label,
        )


def _check_subtree_result(matrix: SparseMatrix, nd: _Node, value) -> None:
    """Boundary validation of one worker-returned subtree solution.

    The relative parts must be a complete in-range assignment.  When the
    worker bisected the subtree's *root*, that bisection —
    reconstructible from the parts alone, since part ranges are
    deterministic — must recompute to the volume the worker reported for
    it.  When an expired deadline made the worker fallback-split its
    root instead, there is no such volume, and the parts must be exactly
    that (deterministic) fallback split.
    """
    label = _path_label(nd.path)
    try:
        local, vols, _briefs, _skipped = value
    except Exception:
        raise ResultValidationError(
            f"subtree task returned {type(value).__name__}, not "
            f"(parts, volumes, briefs, skipped)", task=label,
        ) from None
    validate_parts(local, nd.indices.size, nd.nparts, context=label)
    reported = vols.get(nd.path) if isinstance(vols, dict) else None
    if reported is None:
        fallback = np.empty(nd.indices.size, dtype=np.int64)
        _fallback_split(
            _Node(nd.path, np.arange(nd.indices.size), 0, nd.nparts),
            fallback,
        )
        if not np.array_equal(local, fallback):
            raise ResultValidationError(
                f"subtree root has no reported volume and is not the "
                f"fallback split ({label}): result corrupted in transit",
                task=label,
            )
        return
    q0 = nd.nparts // 2
    parts01 = (local >= q0).astype(np.int64)
    actual = communication_volume(_node_submatrix(matrix, nd), parts01)
    if int(reported) != actual:
        raise ResultValidationError(
            f"reported subtree root volume {reported} != recomputed "
            f"{actual} ({label}): result corrupted in transit", task=label,
        )


def _solve_parallel(
    matrix: SparseMatrix,
    root: _Node,
    job: _TreeJob,
    jobs: int,
    out: np.ndarray,
    volumes: dict,
    degraded: list,
    policy: RetryPolicy | None = None,
) -> tuple[tuple, int]:
    """Scheduler for ``jobs >= 2``: frontier-widening rounds of concurrent
    bisections, then one serial subtree per worker.

    Because every node's randomness is position-keyed, the schedule has no
    influence on the result — this produces exactly the partition of
    :func:`_solve_serial` for every ``jobs``.  Returns the
    failure briefs the hardened executor accumulated (empty when nothing
    went wrong) and the number of subtrees an expired deadline finished
    via the fallback split; the ``Degraded`` briefs of cut-short
    bisections are appended to ``degraded``.
    """
    with MatrixExecutor(matrix, jobs, policy=policy) as ex:
        skipped = _schedule_tree(ex, root, job, jobs, out, volumes, degraded)
        return tuple(f.brief() for f in ex.failures), skipped


def _schedule_tree(
    ex: MatrixExecutor,
    root: _Node,
    job: _TreeJob,
    jobs: int,
    out: np.ndarray,
    volumes: dict,
    degraded: list,
) -> int:
    """Widen the frontier until every worker has a subtree, then dispatch.

    The driver checks ``job.deadline`` at round boundaries (before each
    frontier round and before the subtree dispatch) — the counterpart of
    :func:`_solve_serial`'s per-node check — and every task carries it
    too: a frontier bisection stops at its next multilevel boundary, and
    a subtree worker checks before each of its bisections, so a
    dispatched subtree may come back partly (or wholly) fallback-split.
    Frontier rounds and subtree workers hand back their ``Degraded``
    briefs (appended to ``degraded``) and the workers their skipped
    counts (added to the return value).  The root bisection runs inline
    on the driver's own deadline (see :func:`_node_tasks`), so up to its
    end a ``SoftBudget`` run matches :func:`_solve_serial` check for
    check.
    """
    matrix = ex.matrix
    deadline = job.deadline
    frontier: list[_Node] = [root]
    while True:
        splittable = [nd for nd in frontier if nd.nparts > 1]
        if not splittable or len(splittable) >= jobs:
            break
        if deadline is not None and deadline.expired():
            break  # stop widening; the dispatch check below degrades
        # (A single bisection runs inline — the executor short-circuits
        # one-task maps — so the round-trip is skipped automatically.)
        results = ex.map(
            _bisect_task,
            _node_tasks(matrix, splittable, job),
            validate=lambda i, v, nodes=splittable: _check_bisect_result(
                matrix, nodes[i], v
            ),
        )
        results_iter = iter(results)
        widened: list[_Node] = []
        for nd in frontier:
            if nd.nparts == 1:
                widened.append(nd)
                continue
            parts01, volume, briefs = next(results_iter)
            volumes[nd.path] = volume
            degraded.extend(briefs)
            widened.extend(nd.children(parts01))
        frontier = widened
    subtrees = [nd for nd in frontier if nd.nparts > 1]
    for nd in frontier:
        if nd.nparts == 1:
            out[nd.indices] = nd.first_part
    if not subtrees:
        return 0
    if deadline is not None and deadline.expired():
        for nd in subtrees:
            _fallback_split(nd, out)
        return len(subtrees)
    results = ex.map(
        _subtree_task,
        _node_tasks(matrix, subtrees, job),
        validate=lambda i, v: _check_subtree_result(matrix, subtrees[i], v),
    )
    skipped = 0
    for nd, (local, vols, briefs, cut) in zip(subtrees, results):
        out[nd.indices] = nd.first_part + local
        volumes.update(vols)
        degraded.extend(briefs)
        skipped += cut
    return skipped
