"""Tests for Fiduccia–Mattheyses refinement.

Key guarantees exercised here:

* the cut never increases when the input is feasible (the paper's
  Algorithm-2 monotonicity rests on this);
* the reported cut always equals an independent recomputation;
* balance ceilings are honoured, including asymmetric ones;
* an infeasible input is repaired when possible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.partitioner.fm import fm_refine, kway_refine


def chain_hypergraph(n: int) -> Hypergraph:
    """Path-like hypergraph: nets {i, i+1}; optimal bipartition cut = 1."""
    return Hypergraph.from_net_lists(n, [[i, i + 1] for i in range(n - 1)])


class TestBasics:
    def test_improves_alternating_chain(self):
        h = chain_hypergraph(8)
        parts = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        res = fm_refine(h, parts, (4, 4), seed=0)
        assert res.cut == 1
        assert res.feasible
        assert res.cut == connectivity_volume(h, res.parts)

    def test_already_optimal_unchanged_cut(self):
        h = chain_hypergraph(8)
        parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        res = fm_refine(h, parts, (4, 4), seed=0)
        assert res.cut == 1
        assert res.improvement == 0

    def test_input_not_mutated(self):
        h = chain_hypergraph(6)
        parts = np.array([0, 1, 0, 1, 0, 1])
        orig = parts.copy()
        fm_refine(h, parts, (3, 3), seed=0)
        np.testing.assert_array_equal(parts, orig)

    def test_respects_balance(self):
        h = chain_hypergraph(10)
        parts = (np.arange(10) % 2).astype(np.int64)
        res = fm_refine(h, parts, (5, 5), seed=1)
        w = part_weights(h, res.parts, 2)
        assert w[0] <= 5 and w[1] <= 5

    def test_asymmetric_ceilings(self):
        h = chain_hypergraph(9)
        parts = (np.arange(9) % 2).astype(np.int64)
        res = fm_refine(h, parts, (3, 6), seed=1)
        w = part_weights(h, res.parts, 2)
        assert w[0] <= 3 and w[1] <= 6
        assert res.feasible

    def test_weighted_vertices(self):
        h = Hypergraph.from_net_lists(
            4, [[0, 1], [1, 2], [2, 3]], vwgt=[3, 1, 1, 3]
        )
        parts = np.array([0, 1, 0, 1])
        res = fm_refine(h, parts, (4, 4), seed=2)
        w = part_weights(h, res.parts, 2)
        assert max(w) <= 4
        assert res.cut <= connectivity_volume(h, parts)

    def test_net_costs_respected(self):
        # Cutting the expensive net must be avoided.
        h = Hypergraph.from_net_lists(
            4, [[0, 1], [2, 3], [1, 2]], ncost=[10, 10, 1]
        )
        parts = np.array([0, 1, 0, 1])  # cuts both expensive nets
        res = fm_refine(h, parts, (2, 2), seed=0)
        assert res.cut == 1

    def test_zero_passes(self):
        h = chain_hypergraph(4)
        parts = np.array([0, 1, 0, 1])
        res = fm_refine(h, parts, (2, 2), seed=0, max_passes=0)
        assert res.passes == 0
        assert res.cut == connectivity_volume(h, parts)


class TestInfeasibleInputs:
    def test_rebalances_overweight_side(self):
        h = chain_hypergraph(8)
        parts = np.zeros(8, dtype=np.int64)  # all on side 0
        res = fm_refine(h, parts, (4, 4), seed=0)
        assert res.feasible
        w = part_weights(h, res.parts, 2)
        assert w[0] <= 4 and w[1] <= 4

    def test_impossible_total_rejected(self):
        h = chain_hypergraph(4)
        with pytest.raises(PartitioningError, match="exceeds"):
            fm_refine(h, np.zeros(4, dtype=np.int64), (1, 1))

    def test_kway_input_rejected(self):
        h = chain_hypergraph(4)
        with pytest.raises(PartitioningError, match="0/1"):
            fm_refine(h, np.array([0, 1, 2, 0]), (4, 4))

    def test_wrong_shape_rejected(self):
        h = chain_hypergraph(4)
        with pytest.raises(PartitioningError, match="shape"):
            fm_refine(h, np.zeros(3, dtype=np.int64), (4, 4))

    def test_negative_ceiling_rejected_by_both_arities(self):
        # A negative ceiling can never hold; both refiners refuse it
        # rather than return a vector that is infeasible by fiat.
        h = chain_hypergraph(4)
        parts = np.array([0, 0, 1, 1])
        with pytest.raises(PartitioningError, match="non-negative"):
            fm_refine(h, parts, (-1, 100))
        with pytest.raises(PartitioningError, match="non-negative"):
            kway_refine(h, parts, 2, np.array([-1, 100]))


class TestEdgeCases:
    def test_empty_hypergraph(self):
        h = Hypergraph(0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        res = fm_refine(h, np.zeros(0, dtype=np.int64), (0, 0))
        assert res.cut == 0 and res.feasible

    def test_single_vertex(self):
        h = Hypergraph(1, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        res = fm_refine(h, np.zeros(1, dtype=np.int64), (1, 1))
        assert res.feasible

    def test_isolated_vertices_only(self):
        h = Hypergraph(5, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        parts = np.zeros(5, dtype=np.int64)
        res = fm_refine(h, parts, (3, 3), seed=0)
        assert res.feasible
        assert res.cut == 0

    def test_zero_weight_vertices(self):
        h = Hypergraph.from_net_lists(3, [[0, 1], [1, 2]], vwgt=[0, 1, 0])
        parts = np.array([0, 0, 1])
        res = fm_refine(h, parts, (1, 1), seed=0)
        assert res.cut == connectivity_volume(h, res.parts)

    def test_boundary_only_config(self):
        h = chain_hypergraph(12)
        parts = (np.arange(12) % 2).astype(np.int64)
        res = fm_refine(h, parts, (6, 6), config="patoh", seed=0)
        assert res.cut == connectivity_volume(h, res.parts)
        assert res.cut <= connectivity_volume(h, parts)


class TestMonotonicityProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 20),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    def test_never_worse_on_random_hypergraphs(self, n, seed, data):
        rng = np.random.default_rng(seed)
        nnets = int(rng.integers(2, 3 * n))
        nets = []
        for _ in range(nnets):
            size = int(rng.integers(2, min(n, 6) + 1))
            nets.append(rng.choice(n, size=size, replace=False).tolist())
        h = Hypergraph.from_net_lists(n, nets)
        parts = rng.integers(0, 2, size=n).astype(np.int64)
        cap = max(
            int(parts.sum()), n - int(parts.sum()), (n + 1) // 2
        )
        before = connectivity_volume(h, parts)
        res = fm_refine(h, parts, (cap, cap), seed=int(rng.integers(1e9)))
        after = connectivity_volume(h, res.parts)
        assert after <= before
        assert res.cut == after
        w = part_weights(h, res.parts, 2)
        assert w[0] <= cap and w[1] <= cap
