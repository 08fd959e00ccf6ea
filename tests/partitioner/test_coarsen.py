"""Tests for matching and contraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.partitioner.coarsen import (
    coarsen_level,
    contract,
    match_vertices,
)
from repro.kernels import python_backend
from repro.partitioner.config import get_config
from repro.utils.deadline import Expired, SoftBudget


def random_hypergraph(rng, n, nnets, max_size=5):
    nets = []
    for _ in range(nnets):
        size = int(rng.integers(2, min(n, max_size) + 1))
        nets.append(rng.choice(n, size=size, replace=False).tolist())
    return Hypergraph.from_net_lists(n, nets)


class TestMatching:
    def test_matching_is_symmetric(self, rng):
        h = random_hypergraph(rng, 20, 30)
        match = match_vertices(h, get_config("mondriaan"), rng, 10**9)
        for v in range(h.nverts):
            u = match[v]
            if u >= 0:
                assert match[u] == v
                assert u != v

    def test_connected_pairs_matched(self):
        # Two disjoint heavy pairs must both match.
        h = Hypergraph.from_net_lists(4, [[0, 1], [0, 1], [2, 3], [2, 3]])
        rng = np.random.default_rng(0)
        match = match_vertices(h, get_config("mondriaan"), rng, 10**9)
        assert match[0] == 1 and match[1] == 0
        assert match[2] == 3 and match[3] == 2

    def test_weight_cap_respected(self):
        h = Hypergraph.from_net_lists(2, [[0, 1]], vwgt=[5, 5])
        rng = np.random.default_rng(0)
        match = match_vertices(h, get_config("mondriaan"), rng, 8)
        assert match[0] == -1 and match[1] == -1

    def test_isolated_vertices_unmatched(self):
        h = Hypergraph.from_net_lists(4, [[0, 1]])
        rng = np.random.default_rng(0)
        match = match_vertices(h, get_config("mondriaan"), rng, 10**9)
        assert match[2] == -1 and match[3] == -1

    def test_large_nets_skipped(self):
        # One huge net only; with max_net_size_matching below its size no
        # pairs can be scored.
        cfg = get_config("mondriaan")
        small_cfg = type(cfg)(**{**cfg.__dict__, "max_net_size_matching": 3})
        h = Hypergraph.from_net_lists(6, [[0, 1, 2, 3, 4, 5]])
        rng = np.random.default_rng(0)
        match = match_vertices(h, small_cfg, rng, 10**9)
        assert (match == -1).all()

    def test_absorption_prefers_small_nets(self):
        # v0 shares a 2-net with v1 (absorption score 1) and two 3-nets
        # with v2 (score 2 * 1/2 = 1)... tip the balance with a third
        # 3-net: hcm would score v2 = 3 > 1 and pick it, absorption scores
        # v2 = 1.5 vs the 2-net's... make the 2-net cost 2 so absorption
        # gives v1 = 2 > 1.5 while hcm gives v1 = 2 < 3.
        h = Hypergraph.from_net_lists(
            4,
            [[0, 1], [0, 2, 3], [0, 2, 3], [0, 2, 3]],
            ncost=[2, 1, 1, 1],
        )

        class FixedOrder:
            def permutation(self, n):
                return np.arange(n)

        m_abs = match_vertices(
            h, get_config("patoh"), FixedOrder(), 10**9
        )
        m_hcm = match_vertices(
            h, get_config("mondriaan"), FixedOrder(), 10**9
        )
        assert m_abs[0] == 1  # absorption: 2-net partner wins
        assert m_hcm[0] == 2  # heavy connectivity: shared-net count wins

    def test_deadline_stops_the_sweep_between_chunks(self, monkeypatch):
        # Chunks of 8 visits: the budget lets the checks after 8 and 16
        # visits through and expires at the one after 24.
        monkeypatch.setattr(python_backend, "MATCH_CHUNK", 8)
        h = random_hypergraph(np.random.default_rng(5), 40, 60)
        cfg = get_config("mondriaan")
        with pytest.raises(Expired) as stop:
            match_vertices(
                h, cfg, np.random.default_rng(0), 10**9,
                deadline=SoftBudget(2),
            )
        assert stop.value.visited == 24
        # A level the sweep did not finish is never contracted.
        with pytest.raises(Expired):
            coarsen_level(
                h, cfg, np.random.default_rng(0), 10**9,
                deadline=SoftBudget(0),
            )


class TestContraction:
    def test_weights_summed(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]], vwgt=[1, 2, 3, 4])
        match = np.array([1, 0, 3, 2])
        cmap, coarse = contract(h, match)
        assert coarse.nverts == 2
        assert coarse.total_weight() == 10
        assert sorted(coarse.vwgt.tolist()) == [3, 7]

    def test_cmap_consistent(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]])
        match = np.array([1, 0, -1, -1])
        cmap, coarse = contract(h, match)
        assert cmap[0] == cmap[1]
        assert cmap[2] != cmap[3]
        assert coarse.nverts == 3

    def test_collapsed_nets_dropped(self):
        # Net {0,1} collapses to a single coarse vertex -> dropped.
        h = Hypergraph.from_net_lists(4, [[0, 1], [1, 2, 3]])
        match = np.array([1, 0, -1, -1])
        _, coarse = contract(h, match, merge_identical_nets=False)
        assert coarse.nnets == 1
        assert coarse.net_sizes().tolist() == [3]

    def test_pins_deduplicated(self):
        # Net {0,1,2} with 0,1 merged must contain the coarse vertex once.
        h = Hypergraph.from_net_lists(3, [[0, 1, 2]])
        match = np.array([1, 0, -1])
        _, coarse = contract(h, match)
        assert coarse.net_sizes().tolist() == [2]
        # Revalidate structure fully.
        Hypergraph(
            coarse.nverts, coarse.xpins, coarse.pins, coarse.vwgt,
            coarse.ncost,
        )

    def test_identical_nets_merged_costs_added(self):
        h = Hypergraph.from_net_lists(
            4, [[0, 2], [1, 2], [2, 3]], ncost=[2, 3, 1]
        )
        match = np.array([1, 0, -1, -1])  # 0+1 merge -> first two nets equal
        _, coarse = contract(h, match, merge_identical_nets=True)
        assert coarse.nnets == 2
        assert sorted(coarse.ncost.tolist()) == [1, 5]

    def test_identical_nets_kept_when_disabled(self):
        h = Hypergraph.from_net_lists(4, [[0, 2], [1, 2], [2, 3]])
        match = np.array([1, 0, -1, -1])
        _, coarse = contract(h, match, merge_identical_nets=False)
        assert coarse.nnets == 3

    def test_no_pins(self):
        h = Hypergraph(3, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        cmap, coarse = contract(h, np.array([1, 0, -1]))
        assert coarse.nverts == 2
        assert coarse.nnets == 0


class TestCutPreservation:
    """Contraction must preserve cuts of partitionings that respect the
    clustering: the coarse cut of a coarse partitioning equals the fine cut
    of its projection."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_projection_cut_equal(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, 16, 24)
        level = coarsen_level(h, get_config("mondriaan"), rng, 10**9)
        coarse_parts = rng.integers(
            0, 2, size=level.coarse.nverts
        ).astype(np.int64)
        fine_parts = coarse_parts[level.cmap]
        assert connectivity_volume(
            level.coarse, coarse_parts
        ) == connectivity_volume(h, fine_parts)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_total_weight_preserved(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, 14, 20)
        level = coarsen_level(h, get_config("patoh"), rng, 10**9)
        assert level.coarse.total_weight() == h.total_weight()
        # cmap is onto 0..ncoarse-1
        assert set(level.cmap.tolist()) == set(range(level.coarse.nverts))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_coarse_structure_valid(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, 18, 28)
        level = coarsen_level(h, get_config("mondriaan"), rng, 10**9)
        c = level.coarse
        # Full revalidation (contract builds with validate=False).
        Hypergraph(c.nverts, c.xpins, c.pins, c.vwgt, c.ncost)
