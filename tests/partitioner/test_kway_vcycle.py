"""Tests for the k-way generalization of V-cycle refinement.

Covers the three pillars the multilevel k-way pipeline rests on:

* restricted matching with *arbitrary* part vectors (same-part matches
  only, exact cut preservation under projection, exact restore),
* :func:`~repro.partitioner.vcycle.kway_vcycle_refine` semantics
  (keep-best, truthful feasibility, no-ops, validation), and
* the deterministic weight repairs of
  :func:`~repro.partitioner.fm.kway_rebalance` plus the
  :func:`~repro.partitioner.multilevel.multilevel_kway` driver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.hypergraph.models import row_net_model
from repro.partitioner.coarsen import contract, match_vertices
from repro.partitioner.config import get_config
from repro.partitioner.fm import kway_rebalance, kway_refine
from repro.partitioner.initial import greedy_kway_vertex_parts
from repro.partitioner.multilevel import multilevel_kway
from repro.partitioner.vcycle import (
    _parts_feasible,
    kway_vcycle_refine,
    vcycle_refine,
)
from repro.sparse.generators import erdos_renyi, grid2d_laplacian
from repro.utils.balance import max_allowed_part_size


def random_h(rng, n, nnets):
    nets = [
        rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)),
                   replace=False).tolist()
        for _ in range(nnets)
    ]
    return Hypergraph.from_net_lists(n, nets)


def ceilings_for(h, nparts, eps=0.1):
    cap = max_allowed_part_size(h.total_weight(), nparts, eps)
    return np.full(nparts, cap, dtype=np.int64)


# --------------------------------------------------------------------- #
# Restricted matching with k-way part vectors
# --------------------------------------------------------------------- #
class TestRestrictedKWayMatching:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_never_matches_across_parts(self, rng, k):
        h = random_h(rng, 30, 50)
        parts = rng.integers(0, k, size=30).astype(np.int64)
        match = match_vertices(
            h, get_config("mondriaan"), rng, 10**9, restrict_parts=parts
        )
        for v in range(30):
            if match[v] >= 0:
                assert parts[v] == parts[match[v]]

    @pytest.mark.parametrize("k", [3, 4])
    def test_projection_preserves_cut_exactly(self, rng, k):
        h = random_h(rng, 36, 60)
        parts = rng.integers(0, k, size=36).astype(np.int64)
        match = match_vertices(
            h, get_config("mondriaan"), rng, 10**9, restrict_parts=parts
        )
        cmap, coarse = contract(h, match)
        coarse_parts = np.empty(coarse.nverts, dtype=np.int64)
        coarse_parts[cmap] = parts
        # Exact restore: projecting the coarse labels back down must
        # reproduce the fine vector bit for bit.
        np.testing.assert_array_equal(coarse_parts[cmap], parts)
        assert connectivity_volume(coarse, coarse_parts) == (
            connectivity_volume(h, parts)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 6))
    def test_multi_level_chain_preserves_cut(self, seed, k):
        """Property: a whole restricted coarsening *chain* is cut-exact.

        Every level of a k-way V-cycle relies on this — the coarse cut
        being the fine cut is what lets ``kway_refine`` optimize the
        true objective on a smaller hypergraph.
        """
        rng = np.random.default_rng(seed)
        h = random_h(rng, 40, 70)
        parts = rng.integers(0, k, size=40).astype(np.int64)
        fine_cut = connectivity_volume(h, parts)
        cur_h, cur_parts = h, parts
        for _ in range(3):
            match = match_vertices(
                cur_h, get_config("mondriaan"), rng, 10**9,
                restrict_parts=cur_parts,
            )
            cmap, coarse = contract(cur_h, match)
            coarse_parts = np.empty(coarse.nverts, dtype=np.int64)
            coarse_parts[cmap] = cur_parts
            np.testing.assert_array_equal(coarse_parts[cmap], cur_parts)
            assert connectivity_volume(coarse, coarse_parts) == fine_cut
            if coarse.nverts == cur_h.nverts:
                break
            cur_h, cur_parts = coarse, coarse_parts


# --------------------------------------------------------------------- #
# kway_vcycle_refine semantics
# --------------------------------------------------------------------- #
class TestKWayVCycle:
    def _setup(self, rng, k, n=120, nnz=800):
        a = erdos_renyi(n, n, nnz, seed=7)
        h = row_net_model(a).hypergraph
        ceilings = ceilings_for(h, k)
        # Feasible but unoptimized start: longest-processing-time greedy
        # (deterministic, balance-aware, cut-oblivious).
        vw = np.asarray(h.vwgt)
        parts = np.empty(h.nverts, dtype=np.int64)
        pw = np.zeros(k, dtype=np.int64)
        for v in np.argsort(-vw, kind="stable"):
            t = int(np.argmin(pw))
            parts[v] = t
            pw[t] += vw[v]
        assert _parts_feasible(h, parts, k, ceilings)
        return h, parts, ceilings

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_monotone_and_consistent(self, rng, k):
        h, parts, ceilings = self._setup(rng, k)
        res = kway_vcycle_refine(h, parts, k, ceilings, seed=11)
        assert res.cuts[0] == connectivity_volume(h, parts)
        assert all(b <= a for a, b in zip(res.cuts, res.cuts[1:]))
        assert res.cut == res.cuts[-1]
        assert res.cut == connectivity_volume(h, res.parts)
        assert res.feasible
        assert bool(np.all(part_weights(h, res.parts, k) <= ceilings))

    def test_improves_a_bad_start(self, rng):
        h, parts, ceilings = self._setup(rng, 4)
        res = kway_vcycle_refine(h, parts, 4, ceilings, seed=3)
        assert res.cut < connectivity_volume(h, parts)

    def test_zero_cycles_is_identity(self, rng):
        h, parts, ceilings = self._setup(rng, 3)
        res = kway_vcycle_refine(
            h, parts, 3, ceilings, seed=5, max_cycles=0
        )
        assert res.cycles == 0
        np.testing.assert_array_equal(res.parts, parts)
        assert res.cuts == [connectivity_volume(h, parts)]
        assert res.feasible

    def test_input_not_mutated(self, rng):
        h, parts, ceilings = self._setup(rng, 4)
        before = parts.copy()
        kway_vcycle_refine(h, parts, 4, ceilings, seed=2)
        np.testing.assert_array_equal(parts, before)

    def test_deterministic_given_seed(self, rng):
        h, parts, ceilings = self._setup(rng, 5)
        r1 = kway_vcycle_refine(h, parts, 5, ceilings, seed=9)
        r2 = kway_vcycle_refine(h, parts, 5, ceilings, seed=9)
        np.testing.assert_array_equal(r1.parts, r2.parts)
        assert r1.cuts == r2.cuts

    def test_nparts_one_is_noop(self):
        h = Hypergraph.from_net_lists(5, [[0, 1], [2, 3, 4]])
        parts = np.zeros(5, dtype=np.int64)
        res = kway_vcycle_refine(
            h, parts, 1, np.array([h.total_weight()]), seed=0
        )
        assert res.cut == 0
        assert res.feasible
        np.testing.assert_array_equal(res.parts, parts)

    def test_empty_hypergraph(self):
        h = Hypergraph.from_net_lists(0, [])
        res = kway_vcycle_refine(
            h, np.zeros(0, dtype=np.int64), 3,
            np.array([1, 1, 1], dtype=np.int64), seed=0,
        )
        assert res.cut == 0
        assert res.feasible
        assert res.parts.shape == (0,)

    def test_singleton_hypergraph(self):
        h = Hypergraph.from_net_lists(1, [])
        res = kway_vcycle_refine(
            h, np.zeros(1, dtype=np.int64), 3,
            np.array([2, 2, 2], dtype=np.int64), seed=0,
        )
        assert res.cut == 0
        assert res.feasible

    def test_infeasible_input_repaired_or_reported(self, rng):
        """An infeasible start is never silently kept: the result is
        either repaired to satisfy the ceilings (feasible=True and the
        weights really do fit) or truthfully reported infeasible."""
        a = grid2d_laplacian(10, 10)
        h = row_net_model(a).hypergraph
        k = 4
        ceilings = ceilings_for(h, k, eps=0.05)
        parts = np.zeros(h.nverts, dtype=np.int64)  # everything in part 0
        assert not _parts_feasible(h, parts, k, ceilings)
        res = kway_vcycle_refine(h, parts, k, ceilings, seed=1)
        truth = bool(np.all(part_weights(h, res.parts, k) <= ceilings))
        assert res.feasible == truth

    def test_unrepairable_reports_infeasible(self):
        # Total weight 4 but ceilings only admit 3: no part vector fits.
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        parts = np.array([0, 0, 1, 1], dtype=np.int64)
        ceilings = np.array([1, 1, 1], dtype=np.int64)
        res = kway_vcycle_refine(h, parts, 3, ceilings, seed=0)
        assert not res.feasible

    def test_validation_errors(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        parts = np.array([0, 1, 2, 0], dtype=np.int64)
        ceil3 = np.array([2, 2, 2], dtype=np.int64)
        with pytest.raises(PartitioningError):
            kway_vcycle_refine(h, parts, 0, ceil3)
        with pytest.raises(PartitioningError):
            kway_vcycle_refine(h, parts[:3], 3, ceil3)
        with pytest.raises(PartitioningError):  # id 2 out of range for k=2
            kway_vcycle_refine(h, parts, 2, ceil3[:2])
        with pytest.raises(PartitioningError):  # ceilings wrong shape
            kway_vcycle_refine(h, parts, 3, ceil3[:2])
        with pytest.raises(PartitioningError):
            kway_vcycle_refine(h, parts, 3, ceil3, max_cycles=-1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_never_worse_than_input(self, seed):
        rng = np.random.default_rng(seed)
        h = random_h(rng, 30, 45)
        k = 3
        ceilings = ceilings_for(h, k, eps=0.2)
        parts = rng.integers(0, k, size=h.nverts).astype(np.int64)
        res = kway_vcycle_refine(h, parts, k, ceilings, seed=seed)
        start_feasible = _parts_feasible(h, parts, k, ceilings)
        if start_feasible:
            # Keep-best contract: a feasible input may only improve.
            assert res.feasible
            assert res.cut <= connectivity_volume(h, parts)
        truth = bool(np.all(part_weights(h, res.parts, k) <= ceilings))
        assert res.feasible == truth


# --------------------------------------------------------------------- #
# Feasibility flag (regression: was a hard-coded 2-way computation)
# --------------------------------------------------------------------- #
class TestFeasibleFlag:
    def test_kway_truthful(self):
        """Regression: feasibility must come from per-part weights.

        The old flag computed ``w1 = dot(parts, vwgt)`` / ``w0 = total -
        w1`` — for the k=3 vector below that yields (w0, w1) = (0, 4)
        against 2-way ceilings, mis-reporting every k > 2 state."""
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        parts = np.array([0, 1, 2, 1], dtype=np.int64)
        # True per-part weights: (1, 2, 1).
        assert _parts_feasible(
            h, parts, 3, np.array([1, 2, 1], dtype=np.int64)
        )
        assert not _parts_feasible(
            h, parts, 3, np.array([1, 1, 2], dtype=np.int64)
        )

    def test_two_way_still_truthful(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        parts = np.array([0, 0, 0, 1], dtype=np.int64)
        assert _parts_feasible(
            h, parts, 2, np.array([3, 1], dtype=np.int64)
        )
        assert not _parts_feasible(
            h, parts, 2, np.array([2, 2], dtype=np.int64)
        )

    def test_two_way_vcycle_flag_matches_weights(self, rng):
        a = erdos_renyi(60, 60, 300, seed=4)
        h = row_net_model(a).hypergraph
        cap = max_allowed_part_size(h.total_weight(), 2, 0.1)
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        res = vcycle_refine(h, parts, (cap, cap), seed=8)
        truth = bool(
            np.all(part_weights(h, res.parts, 2) <= np.array([cap, cap]))
        )
        assert res.feasible == truth


# --------------------------------------------------------------------- #
# kway_rebalance — the projection repair
# --------------------------------------------------------------------- #
class TestKWayRebalance:
    def test_feasible_input_untouched(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        parts = np.array([0, 1, 2, 0], dtype=np.int64)
        before = parts.copy()
        ok = kway_rebalance(
            h, parts, 3, np.array([2, 1, 1], dtype=np.int64)
        )
        assert ok
        np.testing.assert_array_equal(parts, before)

    def test_single_move_repair(self):
        h = Hypergraph.from_net_lists(4, [[0, 1, 2, 3]])
        parts = np.array([0, 0, 0, 1], dtype=np.int64)
        ceilings = np.array([2, 2, 2], dtype=np.int64)
        ok = kway_rebalance(h, parts, 3, ceilings)
        assert ok
        assert bool(np.all(part_weights(h, parts, 3) <= ceilings))

    def test_swap_repair(self):
        """A state single moves cannot fix: every other part is at its
        ceiling, so the only repair is exchanging a heavy vertex of the
        overweight part with a lighter one elsewhere."""
        h = Hypergraph(
            4,
            np.array([0, 2, 4], dtype=np.int64),
            np.array([0, 1, 2, 3], dtype=np.int64),
            vwgt=np.array([3, 1, 2, 2], dtype=np.int64),
        )
        parts = np.array([0, 0, 1, 1], dtype=np.int64)  # weights (4, 4)
        ceilings = np.array([3, 5], dtype=np.int64)
        ok = kway_rebalance(h, parts, 2, ceilings)
        assert ok
        assert bool(np.all(part_weights(h, parts, 2) <= ceilings))

    def test_impossible_returns_false(self):
        h = Hypergraph.from_net_lists(3, [[0, 1, 2]])
        parts = np.array([0, 0, 0], dtype=np.int64)
        ok = kway_rebalance(
            h, parts, 2, np.array([1, 1], dtype=np.int64)
        )
        assert not ok

    def test_deterministic(self, rng):
        h = random_h(rng, 20, 30)
        base = rng.integers(0, 3, size=20).astype(np.int64)
        base[:10] = 0  # force imbalance
        ceilings = ceilings_for(h, 3, eps=0.15)
        p1, p2 = base.copy(), base.copy()
        ok1 = kway_rebalance(h, p1, 3, ceilings)
        ok2 = kway_rebalance(h, p2, 3, ceilings)
        assert ok1 == ok2
        np.testing.assert_array_equal(p1, p2)


# --------------------------------------------------------------------- #
# multilevel_kway driver
# --------------------------------------------------------------------- #
class TestMultilevelKway:
    @pytest.mark.parametrize("k", [3, 4])
    def test_grid_quality(self, rng, k):
        a = grid2d_laplacian(16, 16)
        h = row_net_model(a).hypergraph
        ceilings = ceilings_for(h, k, eps=0.1)
        res = multilevel_kway(h, k, ceilings, seed=0)
        assert res.feasible
        assert bool(np.all(part_weights(h, res.parts, k) <= ceilings))
        random_parts = rng.integers(0, k, size=h.nverts).astype(np.int64)
        assert connectivity_volume(h, res.parts) < connectivity_volume(
            h, random_parts
        )
        assert res.cut == connectivity_volume(h, res.parts)

    def test_deterministic_given_seed(self):
        a = erdos_renyi(100, 100, 600, seed=13)
        h = row_net_model(a).hypergraph
        ceilings = ceilings_for(h, 4)
        r1 = multilevel_kway(h, 4, ceilings, seed=21)
        r2 = multilevel_kway(h, 4, ceilings, seed=21)
        np.testing.assert_array_equal(r1.parts, r2.parts)

    def test_beats_flat_construction_on_grid(self):
        """The point of the tentpole: on a structured instance the
        multilevel path must beat a flat single-level construction
        refined at full resolution (pinned seed, deterministic)."""
        a = grid2d_laplacian(24, 24)
        h = row_net_model(a).hypergraph
        k = 8
        ceilings = ceilings_for(h, k, eps=0.1)
        ml = multilevel_kway(h, k, ceilings, seed=2014)
        rng = np.random.default_rng(2014)
        flat0 = greedy_kway_vertex_parts(h, k, ceilings, rng)
        flat_res = kway_refine(
            h, flat0, k, ceilings, get_config("mondriaan"), seed=2014
        )
        assert ml.cut < flat_res.cut

    def test_validation(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        with pytest.raises(PartitioningError):
            multilevel_kway(h, 1, np.array([4], dtype=np.int64))
        with pytest.raises(PartitioningError):
            multilevel_kway(h, 3, np.array([2, 2], dtype=np.int64))

    def test_empty_hypergraph(self):
        h = Hypergraph.from_net_lists(0, [])
        res = multilevel_kway(
            h, 3, np.array([1, 1, 1], dtype=np.int64), seed=0
        )
        assert res.feasible
        assert res.parts.shape == (0,)
        assert res.cut == 0
