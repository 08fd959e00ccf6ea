"""Deterministic anytime-degradation contract of the engines.

``SoftBudget`` expires after a fixed number of boundary checks, so
every degradation here is exact and host-speed independent: a budget of
N lets exactly N boundaries through, and the cut-short result is
pinned, not racy.  Three invariants are pinned for every engine:

* an expired deadline still yields a *complete, valid* partition (the
  incumbent / fallback), never an exception or a partial assignment;
* the cut-short run says so — a ``Degraded[...]`` brief in
  ``failures`` (or the refinement trace);
* no deadline, ``Deadline(None)``, and a far-future deadline are all
  byte-identical to each other: the anytime substrate costs nothing
  until it fires.
"""

import dataclasses
import sys

import numpy as np
import pytest

from repro.core.floor import (
    contiguous_splits,
    floor_split,
    floor_volume,
    keep_best,
)
from repro.core.kway import partition_kway
from repro.core.methods import bipartition
from repro.core.recursive import partition
from repro.core.validate import validate_partition
from repro.core.volume import communication_volume
from repro.hypergraph.metrics import connectivity_volume
from repro.hypergraph.models import row_net_model
from repro.kernels.python_backend import MATCH_CHUNK
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.obs.report import count_events, read_trace
from repro.partitioner.bipartition import bipartition_hypergraph
from repro.partitioner.config import get_config
from repro.partitioner.initial import contiguous_parts
from repro.partitioner.multilevel import (
    multilevel_kway,
    recursive_kway_parts,
)
from repro.sparse.collection import load_instance
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, SoftBudget
from repro.utils.executor import RetryPolicy

SEED = 2014
INSTANCE = "sym_grid2d_s"


@pytest.fixture(scope="module")
def matrix():
    return load_instance(INSTANCE)


def _assert_complete_and_valid(matrix, res, nparts, eps=0.03):
    ceiling = max_allowed_part_size(matrix.nnz, nparts, eps)
    validate_partition(
        matrix, res.parts, nparts,
        volume=res.volume, max_part=res.max_part,
        feasible=res.feasible, ceiling=ceiling,
        context="anytime",
    )


# --------------------------------------------------------------------- #
# No-deadline paths are byte-identical
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("vcycles", [1])
def test_unbounded_deadlines_are_bit_identical(matrix, vcycles):
    base = partition_kway(matrix, 4, seed=SEED, vcycles=vcycles)
    for idle in (Deadline(None), Deadline(3600.0)):
        run = partition_kway(
            matrix, 4, seed=SEED, vcycles=vcycles, deadline=idle
        )
        np.testing.assert_array_equal(run.parts, base.parts)
        assert run.volume == base.volume
        assert run.failures == ()


@pytest.mark.parametrize("refine", [False, True])
def test_bipartition_unbounded_deadlines_are_bit_identical(matrix, refine):
    base = bipartition(matrix, refine=refine, seed=SEED)
    for idle in (Deadline(None), Deadline(3600.0), _Probe()):
        run = bipartition(matrix, refine=refine, seed=SEED, deadline=idle)
        np.testing.assert_array_equal(run.parts, base.parts)
        assert run.volume == base.volume
        assert run.degraded == ()


def test_bipartition_hypergraph_unbounded_deadlines_are_bit_identical(
    matrix,
):
    h = row_net_model(matrix).hypergraph
    base = bipartition_hypergraph(h, seed=SEED)
    for idle in (Deadline(None), Deadline(3600.0)):
        run = bipartition_hypergraph(h, seed=SEED, deadline=idle)
        np.testing.assert_array_equal(run.parts, base.parts)
        assert run.cut == base.cut
        assert run.degraded is None


def test_recursive_unbounded_deadline_is_bit_identical(matrix):
    base = partition(matrix, 8, seed=SEED)
    for jobs in (1, 2):  # on the pool, every task carries the deadline
        for idle in (Deadline(None), Deadline(3600.0)):
            run = partition(matrix, 8, seed=SEED, jobs=jobs, deadline=idle)
            np.testing.assert_array_equal(run.parts, base.parts)
            assert run.volume == base.volume
            assert run.failures == ()
    # algo="kway" hands the deadline to the k-way engine, which checks
    # it inside every matching sweep, where Deadline(None) never
    # expires.
    for vcycles in (1, 2):
        cfg = dataclasses.replace(
            get_config("mondriaan"), kway_vcycles=vcycles
        )
        base = partition(matrix, 8, seed=SEED, algo="kway", config=cfg)
        run = partition(
            matrix, 8, seed=SEED, algo="kway", config=cfg,
            deadline=Deadline(None),
        )
        np.testing.assert_array_equal(run.parts, base.parts)
        assert run.volume == base.volume
        assert run.failures == ()


# --------------------------------------------------------------------- #
# Expired budgets degrade, never break
# --------------------------------------------------------------------- #
def test_multilevel_kway_expired_budget_returns_feasible(matrix):
    res = partition_kway(
        matrix, 4, seed=SEED, vcycles=2, deadline=SoftBudget(0)
    )
    _assert_complete_and_valid(matrix, res, 4)
    assert res.feasible is True
    assert any("Degraded[" in b for b in res.failures)
    # The multilevel engine itself must report the cut-short build.
    assert any("multilevel" in b for b in res.failures)


def test_partial_budget_is_no_worse_than_zero_budget(matrix):
    # More boundaries granted can only help: the keep-best contract
    # makes quality monotone in the budget.
    cut0 = partition_kway(
        matrix, 4, seed=SEED, vcycles=1, deadline=SoftBudget(0)
    )
    cut64 = partition_kway(
        matrix, 4, seed=SEED, vcycles=1, deadline=SoftBudget(64)
    )
    full = partition_kway(matrix, 4, seed=SEED, vcycles=1)
    assert full.volume <= cut64.volume <= cut0.volume


def test_recursive_expired_budget_fallback_split_is_complete(matrix):
    res = partition(matrix, 8, seed=SEED, deadline=SoftBudget(0))
    _assert_complete_and_valid(matrix, res, 8)
    # The fallback split is even by construction: every part exists and
    # the result is feasible under the eqn-(1) ceiling.
    assert res.feasible is True
    np.testing.assert_array_equal(np.unique(res.parts), np.arange(8))
    assert any(b.startswith("Degraded[recursive]") for b in res.failures)


def test_recursive_partial_budget_finishes_some_bisections(matrix):
    # A budget covering the root's own check and every check of the root
    # bisection: the root bisection completes, and the next subtree's
    # check expires, so both subtrees take the fallback split.
    base = partition(matrix, 8, seed=SEED)
    res = partition(
        matrix, 8, seed=SEED,
        deadline=SoftBudget(_root_bisection_checks(matrix, 8)),
    )
    _assert_valid_and_within_floor(matrix, res, 8)
    assert not any(
        b.startswith("Degraded[multilevel]") for b in res.failures
    ), res.failures
    assert any(
        b.startswith("Degraded[recursive]") for b in res.failures
    ), res.failures
    assert res.bisection_volumes == base.bisection_volumes[:1]


def test_parallel_recursion_budget_matches_serial(matrix):
    # The root's check runs in the driver either way, so a budget that
    # expires there gives the same degraded partition with and without
    # a worker pool.
    serial = partition(matrix, 8, seed=SEED, deadline=SoftBudget(0))
    parallel = partition(
        matrix, 8, seed=SEED, jobs=2, deadline=SoftBudget(0)
    )
    np.testing.assert_array_equal(parallel.parts, serial.parts)


def test_iterative_refine_expired_budget_keeps_base_partition(matrix):
    # A budget that lets the whole base multilevel run through and
    # expires at the Algorithm-2 iterate loop's first check: the refined
    # run returns the unrefined partition kept-best against the
    # contiguous floor, flagged degraded in the trace.
    base_checks = _Probe()
    base = bipartition(matrix, seed=SEED, deadline=base_checks)
    assert "iterative_refine" not in base_checks.callers()
    cut = bipartition(
        matrix, refine=True, seed=SEED,
        deadline=SoftBudget(len(base_checks.checks)),
    )
    ceiling = max_allowed_part_size(matrix.nnz, 2, 0.03)
    kept, volume = keep_best(matrix, base.parts, (ceiling, ceiling))
    np.testing.assert_array_equal(cut.parts, kept)
    assert cut.volume == volume <= base.volume
    assert cut.refinement is not None
    assert cut.refinement.degraded is not None
    assert cut.refinement.degraded.where == "iterate"
    assert [d.where for d in cut.degraded] == ["iterate"]


# --------------------------------------------------------------------- #
# The 2-way engine stops at every boundary, never below the floor
# --------------------------------------------------------------------- #
class _Probe:
    """A deadline that never expires and records who checked it, as
    ``(function, line)`` pairs in check order."""

    def __init__(self):
        self.checks: list[tuple[str, int]] = []

    def expired(self) -> bool:
        frame = sys._getframe(1)
        self.checks.append((frame.f_code.co_name, frame.f_lineno))
        return False

    def callers(self) -> list[str]:
        return [name for name, _ in self.checks]

    def boundaries(self) -> dict[str, int]:
        """Check index of the first and the last check at each
        multilevel boundary.  The coarsening loop (``coarsen``) checks
        before each level; the uncoarsening loop (``_uncoarsen``)
        before each uncoarsening level."""
        stage_of = {
            "coarsen": "coarsen",
            "initial_partition": "initial",
            "_uncoarsen": "uncoarsen",
        }
        found: dict[str, int] = {}
        for i, (name, _) in enumerate(self.checks):
            stage = stage_of.get(name)
            if stage is not None:
                found.setdefault(f"first-{stage}", i)
                found[f"last-{stage}"] = i
        return found


def _floor_volume(matrix, nparts, eps=0.03):
    ceiling = max_allowed_part_size(matrix.nnz, nparts, eps)
    return floor_volume(matrix, np.full(nparts, ceiling))


def _assert_valid_and_within_floor(matrix, res, nparts):
    _assert_complete_and_valid(matrix, res, nparts)
    assert res.feasible is True
    assert res.volume <= _floor_volume(matrix, nparts)


def test_probe_sees_every_multilevel_boundary(matrix):
    probe = _Probe()
    bipartition(matrix, refine=True, seed=SEED, deadline=probe)
    stages = probe.boundaries()
    for stage in ("coarsen", "initial", "uncoarsen"):
        assert f"first-{stage}" in stages, probe.checks
    assert stages["last-coarsen"] < stages["first-initial"]
    assert stages["last-initial"] < stages["first-uncoarsen"]
    assert "iterative_refine" in probe.callers()


@pytest.mark.parametrize("refine", [False, True])
def test_bipartition_budget_expiring_at_each_boundary(matrix, refine):
    probe = _Probe()
    bipartition(matrix, refine=refine, seed=SEED, deadline=probe)
    for stage, budget in sorted(probe.boundaries().items()):
        res = bipartition(
            matrix, refine=refine, seed=SEED, deadline=SoftBudget(budget)
        )
        _assert_valid_and_within_floor(matrix, res, 2)
        assert res.degraded[0].where == "multilevel", stage


@pytest.mark.parametrize("nparts", [2, 4, 16, 64])
def test_recursive_budget_expiring_at_each_boundary(matrix, nparts):
    probe = _Probe()
    full = partition(matrix, nparts, seed=SEED, deadline=probe)
    assert full.failures == ()
    stages = probe.boundaries()
    assert {"first-coarsen", "first-initial", "first-uncoarsen"} <= set(
        stages
    ), probe.checks
    for stage, budget in sorted(stages.items()):
        res = partition(
            matrix, nparts, seed=SEED, deadline=SoftBudget(budget)
        )
        _assert_valid_and_within_floor(matrix, res, nparts)
        assert any(
            b.startswith("Degraded[multilevel]") for b in res.failures
        ), (stage, res.failures)


@pytest.mark.parametrize("nparts", [2, 4, 16, 64])
@pytest.mark.parametrize("vcycles", [1, 2])
@pytest.mark.parametrize("budget", [0, 1, 8])
def test_kway_degraded_answer_keeps_best_against_floor(
    matrix, nparts, vcycles, budget
):
    res = partition_kway(
        matrix, nparts, seed=SEED, vcycles=vcycles,
        deadline=SoftBudget(budget),
    )
    _assert_valid_and_within_floor(matrix, res, nparts)
    assert any(b.startswith("Degraded[") for b in res.failures)


def test_recursive_expired_root_keeps_best_against_floor(matrix):
    # Budget 0 skips the root: the fallback split is kept-best against
    # the contiguous floor of the whole matrix.
    for nparts in (2, 8):
        res = partition(matrix, nparts, seed=SEED, deadline=SoftBudget(0))
        _assert_valid_and_within_floor(matrix, res, nparts)


# --------------------------------------------------------------------- #
# The clustering sweep stops inside, and the floor answers
# --------------------------------------------------------------------- #
#: Engines whose first deadline check inside a clustering sweep comes
#: before they have contracted any level.  On the pool, the root
#: bisection runs inline on the calling process's deadline, so that check
#: comes at the same count as on the serial run.
SWEEP_ENGINES = {
    "recursive": lambda m, d: partition(m, 8, seed=SEED, deadline=d),
    "recursive-jobs2": lambda m, d: partition(
        m, 8, seed=SEED, jobs=2, deadline=d
    ),
    "kway": lambda m, d: partition_kway(
        m, 8, seed=SEED, vcycles=1, deadline=d
    ),
    "kway-vcycles": lambda m, d: partition_kway(
        m, 8, seed=SEED, vcycles=2, deadline=d
    ),
}


@pytest.mark.parametrize("engine", list(SWEEP_ENGINES))
def test_budget_expiring_in_the_first_sweep_returns_the_floor(
    matrix, engine
):
    # The first in-sweep check belongs to the level-0 sweep: expiring
    # there leaves no level, so the engine answers contiguously and the
    # caller's keep-best returns the floor itself.
    run = SWEEP_ENGINES[engine]
    probe = _Probe()
    run(matrix, probe)
    callers = probe.callers()
    first = callers.index("cluster_vertices")
    # Level 0's coarsening check is the only one before it.
    assert callers[first - 1] == "coarsen"
    assert callers[:first].count("coarsen") == 1
    res = run(matrix, SoftBudget(first))
    ceiling = max_allowed_part_size(matrix.nnz, 8, 0.03)
    parts, volume = floor_split(matrix, np.full(8, ceiling))
    np.testing.assert_array_equal(res.parts, parts)
    assert res.volume == volume
    assert res.feasible is True
    assert any(
        b.startswith("Degraded[multilevel]") for b in res.failures
    ), res.failures


def test_sweep_stop_is_a_deadline_event_on_the_coarsen_span(
    matrix, tmp_path
):
    probe = _Probe()
    bipartition(matrix, seed=SEED, deadline=probe)
    first = probe.callers().index("cluster_vertices")
    path = str(tmp_path / "trace.jsonl")
    _trace.enable(path)
    try:
        bipartition(matrix, seed=SEED, deadline=SoftBudget(first))
    finally:
        _trace.disable()
    records = list(read_trace(path))
    (coarsen,) = [r for r in records if r["name"] == "multilevel.coarsen"]
    assert coarsen["attrs"]["levels"] == 0
    (stop,) = [e for e in coarsen["events"] if e["name"] == "deadline"]
    assert stop["where"] == "match"
    assert stop["visited"] == MATCH_CHUNK
    assert count_events(records)["deadline[match]"] == 1


def test_kway_vcycle_sweep_stops_on_the_deadline(matrix, tmp_path):
    # The k-way V-cycle coarsens with the engines' loop, so its
    # restricted clustering sweeps check the deadline too.  Expiring at
    # the first such check ends the cycle; keep-best returns an answer
    # no worse than the multilevel construction the cycle started from.
    def run(deadline):
        return partition_kway(
            matrix, 4, seed=SEED, vcycles=2, deadline=deadline
        )

    probe = _Probe()
    run(probe)
    callers = probe.callers()
    cycle = callers.index("kway_vcycle_refine")
    first = callers.index("cluster_vertices", cycle)
    path = str(tmp_path / "trace.jsonl")
    _trace.enable(path)
    try:
        res = run(SoftBudget(first))
    finally:
        _trace.disable()
    _assert_complete_and_valid(matrix, res, 4)
    assert res.feasible is True
    construction = partition_kway(matrix, 4, seed=SEED, vcycles=1)
    assert res.volume <= construction.volume
    assert any(
        b.startswith("Degraded[vcycle]") for b in res.failures
    ), res.failures
    records = list(read_trace(path))
    (cycle_span,) = [r for r in records if r["name"] == "vcycle.cycle"]
    (stop,) = [
        e for e in cycle_span["events"]
        if e["name"] == "deadline" and e["where"] == "match"
    ]
    assert stop["visited"] == MATCH_CHUNK


def test_kway_construction_expiring_midway_splits_the_rest(matrix):
    # The k-way engine's coarsest construction checks the deadline
    # before each of its bisections; expiring at the third, the part
    # ranges left are split contiguously, and the answer is still
    # feasible and no worse than the floor.
    def run(deadline):
        return partition_kway(
            matrix, 16, seed=SEED, vcycles=1, deadline=deadline
        )

    probe = _Probe()
    run(probe)
    construct = [i for i, name in enumerate(probe.callers())
                 if name == "split"]
    assert len(construct) > 2, probe.checks
    res = run(SoftBudget(construct[2]))
    _assert_valid_and_within_floor(matrix, res, 16)
    assert any(
        b.startswith("Degraded[multilevel]") for b in res.failures
    ), res.failures

    # The construction itself reports what it bisected and what it
    # split contiguously.
    h = row_net_model(matrix).hypergraph
    ceilings = np.full(16, max_allowed_part_size(matrix.nnz, 16, 0.03))
    cfg = get_config("mondriaan")
    probe = _Probe()
    _, record = recursive_kway_parts(
        h, 16, ceilings, cfg, np.random.default_rng(SEED), probe
    )
    assert record is None
    construct = [i for i, name in enumerate(probe.callers())
                 if name == "split"]
    parts, record = recursive_kway_parts(
        h, 16, ceilings, cfg, np.random.default_rng(SEED),
        SoftBudget(construct[2]),
    )
    # Depth first: [0,16) and [0,8) are bisected; [0,4), [4,8) and
    # [8,16) are split contiguously.
    assert record.brief() == "Degraded[recursive]@2done+3skipped"
    np.testing.assert_array_equal(np.unique(parts), np.arange(16))
    # The contiguous split of a range is the O(n) weight rule.
    rest = np.flatnonzero(parts >= 8)
    np.testing.assert_array_equal(
        parts[rest],
        8 + contiguous_parts(h.induce(rest), ceilings[8:]),
    )


def test_kway_deadline_inside_the_finest_refinement_degrades_multilevel(
    matrix,
):
    # The last check of a k-way multilevel run sits between two FM
    # passes of the finest level.  Expiring there cuts that refinement
    # short, and the engine reports its own record with the level
    # counts, as the 2-way engine does, not the bare FM brief.
    h = row_net_model(matrix).hypergraph
    ceilings = np.full(4, max_allowed_part_size(matrix.nnz, 4, 0.03))

    def run(deadline):
        return multilevel_kway(h, 4, ceilings, "mondriaan", SEED, deadline)

    probe = _Probe()
    full = run(probe)
    assert full.degraded is None
    res = run(SoftBudget(len(probe.checks) - 1))
    assert res.degraded is not None
    assert res.degraded.where == "multilevel"
    assert res.degraded.skipped == 0
    assert res.degraded.completed >= 1
    assert res.cut == connectivity_volume(h, res.parts)
    assert res.feasible is True

    whole = partition_kway(matrix, 4, seed=SEED, vcycles=1)
    probe = _Probe()
    partition_kway(matrix, 4, seed=SEED, vcycles=1, deadline=probe)
    cut = partition_kway(
        matrix, 4, seed=SEED, vcycles=1,
        deadline=SoftBudget(len(probe.checks) - 1),
    )
    _assert_valid_and_within_floor(matrix, cut, 4)
    assert cut.volume >= whole.volume
    assert [b.split("@")[0] for b in cut.failures] == [
        "Degraded[multilevel]"
    ], cut.failures


# --------------------------------------------------------------------- #
# The pool path obeys the deadline too
# --------------------------------------------------------------------- #
def _root_bisection_checks(matrix, nparts):
    """Checks a serial run makes up to and including the root
    bisection's last one: the index of the first subtree's check."""
    probe = _Probe()
    partition(matrix, nparts, seed=SEED, deadline=probe)
    subtree_checks = [
        i for i, name in enumerate(probe.callers()) if name == "_solve_serial"
    ]
    return subtree_checks[1]


def _retries():
    return REGISTRY.get("repro_executor_retries_total").value


def test_parallel_budget_through_root_bisection_matches_serial(matrix):
    # The root bisection runs inline on the driver's own budget, so
    # every budget that expires by its last check sees exactly the
    # serial run's checks: parts, volume and briefs all agree —
    # including the cut-short root's Degraded[multilevel] brief, which
    # the pool path used to drop.
    root_checks = _root_bisection_checks(matrix, 8)
    for budget in range(root_checks + 1):
        serial = partition(matrix, 8, seed=SEED, deadline=SoftBudget(budget))
        parallel = partition(
            matrix, 8, seed=SEED, jobs=2, deadline=SoftBudget(budget),
        )
        np.testing.assert_array_equal(parallel.parts, serial.parts)
        assert parallel.volume == serial.volume, budget
        assert parallel.failures == serial.failures, budget
        assert parallel.bisection_volumes == serial.bisection_volumes
        if 0 < budget < root_checks:
            assert any(
                b.startswith("Degraded[multilevel]")
                for b in parallel.failures
            ), (budget, parallel.failures)


@pytest.mark.parametrize("worker_checks", [0, 3])
def test_budget_expiring_in_subtree_worker_degrades_without_retry(
    matrix, worker_checks
):
    # The budget outlives the root bisection and the driver's dispatch
    # check; each subtree worker then counts down its own copy with
    # ``worker_checks`` checks left, so the hardened pool path and the
    # plain one give the same answer.  With 0 the
    # worker fallback-splits its own root and reports no volume for it,
    # which validation must accept: a cut-short subtree is a valid
    # answer, not a corrupted one to retry.
    root_checks = _root_bisection_checks(matrix, 8)
    base = partition(matrix, 8, seed=SEED)
    first = None
    for policy in (RetryPolicy(timeout=60.0, retries=2), None):
        retries = _retries()
        res = partition(
            matrix, 8, seed=SEED, jobs=2, policy=policy,
            deadline=SoftBudget(root_checks + 1 + worker_checks),
        )
        assert _retries() == retries
        assert not any("Error" in b for b in res.failures), res.failures
        first = first or res
        np.testing.assert_array_equal(res.parts, first.parts)
        assert res.failures == first.failures
    _assert_valid_and_within_floor(matrix, first, 8)
    assert any(b.startswith("Degraded[recursive]") for b in first.failures)
    assert first.bisection_volumes[0] == base.bisection_volumes[0]
    if worker_checks == 0:
        assert first.bisection_volumes == base.bisection_volumes[:1]
    else:
        assert any(
            b.startswith("Degraded[multilevel]") for b in first.failures
        ), first.failures


# --------------------------------------------------------------------- #
# The contiguous floor
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("ceilings", [(608, 608), (700, 516), (19,) * 64])
def test_contiguous_splits_fit_the_ceilings(matrix, ceilings):
    for split in contiguous_splits(matrix, ceilings):
        sizes = np.bincount(split, minlength=len(ceilings))
        assert sizes.sum() == matrix.nnz
        assert (sizes <= np.asarray(ceilings)).all()
    row_major, col_major = contiguous_splits(matrix, ceilings)
    # Row-major is the canonical order itself: the part ids never fall.
    assert (np.diff(row_major) >= 0).all()
    assert (np.diff(col_major[matrix.col_order()]) >= 0).all()
    # The floor is the better of the two.
    assert floor_volume(matrix, ceilings) == min(
        communication_volume(matrix, row_major),
        communication_volume(matrix, col_major),
    )


def test_keep_best_prefers_feasible_then_lower_volume(matrix):
    ceiling = max_allowed_part_size(matrix.nnz, 2, 0.03)
    lopsided = np.zeros(matrix.nnz, dtype=np.int64)  # volume 0, infeasible
    parts, volume = keep_best(matrix, lopsided, (ceiling, ceiling))
    assert volume == _floor_volume(matrix, 2) > 0
    assert np.bincount(parts).max() <= ceiling
    # A feasible answer below the floor is kept as it is.
    good = bipartition(matrix, seed=SEED)
    kept, kept_volume = keep_best(matrix, good.parts, (ceiling, ceiling))
    assert kept_volume == min(good.volume, _floor_volume(matrix, 2))
    if good.volume <= _floor_volume(matrix, 2):
        assert kept is good.parts
