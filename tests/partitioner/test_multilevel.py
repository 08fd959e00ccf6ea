"""Tests for the multilevel V-cycle driver and public bipartition API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.hypergraph.models import row_net_model
from repro.partitioner.bipartition import bipartition_hypergraph
from repro.partitioner.multilevel import multilevel_bipartition
from repro.partitioner.config import get_config
from repro.sparse.generators import erdos_renyi, grid2d_laplacian
from repro.utils.deadline import SoftBudget


class TestMultilevel:
    def test_grid_quality(self):
        """A 12x12 grid's row-net model splits with a small cut."""
        a = grid2d_laplacian(12, 12)
        mdl = row_net_model(a)
        res = multilevel_bipartition(
            mdl.hypergraph, (372, 372), "mondriaan", seed=0
        )
        assert res.feasible
        cut = connectivity_volume(mdl.hypergraph, res.parts)
        # Perfect bisection of the grid cuts ~12 rows; allow head-room but
        # demand far better than a random split (which cuts ~half of 144).
        assert cut <= 30

    def test_better_than_random(self, rng):
        a = erdos_renyi(150, 150, 900, seed=5)
        mdl = row_net_model(a)
        h = mdl.hypergraph
        cap = int(1.03 * h.total_weight() / 2)
        res = multilevel_bipartition(h, (cap, cap), "mondriaan", seed=1)
        random_parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        assert connectivity_volume(h, res.parts) < connectivity_volume(
            h, random_parts
        )

    def test_deterministic_given_seed(self):
        a = erdos_renyi(80, 80, 400, seed=9)
        h = row_net_model(a).hypergraph
        cap = int(1.05 * h.total_weight() / 2)
        r1 = multilevel_bipartition(h, (cap, cap), "mondriaan", seed=42)
        r2 = multilevel_bipartition(h, (cap, cap), "mondriaan", seed=42)
        np.testing.assert_array_equal(r1.parts, r2.parts)

    def test_small_graph_no_levels(self):
        # Below the coarsening target: direct initial partitioning.
        h = Hypergraph.from_net_lists(6, [[0, 1, 2], [3, 4, 5], [2, 3]])
        res = multilevel_bipartition(h, (3, 3), "mondriaan", seed=0)
        assert res.feasible
        assert connectivity_volume(h, res.parts) == 1


class TestBipartitionHypergraph:
    def test_result_fields_consistent(self):
        a = erdos_renyi(60, 60, 350, seed=2)
        h = row_net_model(a).hypergraph
        res = bipartition_hypergraph(h, eps=0.03, seed=3)
        assert res.cut == connectivity_volume(h, res.parts)
        w = part_weights(h, res.parts, 2)
        assert res.weights == (int(w[0]), int(w[1]))
        assert res.feasible == (
            w[0] <= res.max_weights[0] and w[1] <= res.max_weights[1]
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        checks=st.one_of(st.none(), st.integers(0, 60)),
    )
    def test_cut_is_the_connectivity_volume(self, seed, checks):
        # The engine's cut is reported as is: it must be the finest
        # vector's true cut, whether the run finishes or a SoftBudget
        # cuts it short at any of its boundaries.
        a = erdos_renyi(400, 400, 2000, seed=seed)
        h = row_net_model(a).hypergraph
        deadline = None if checks is None else SoftBudget(checks)
        res = bipartition_hypergraph(
            h, eps=0.03, seed=seed, deadline=deadline
        )
        assert res.cut == connectivity_volume(h, res.parts)
        w = part_weights(h, res.parts, 2)
        assert res.weights == (int(w[0]), int(w[1]))
        assert res.feasible == bool(np.all(w <= res.max_weights))

    def test_eps_ceiling_derivation(self):
        h = Hypergraph.from_net_lists(4, [[0, 1], [2, 3]], vwgt=[2, 2, 2, 2])
        res = bipartition_hypergraph(h, eps=0.0, seed=0)
        assert res.max_weights == (4, 4)
        assert res.feasible

    def test_explicit_max_weights(self):
        h = Hypergraph.from_net_lists(6, [[i, i + 1] for i in range(5)])
        res = bipartition_hypergraph(h, max_weights=(2, 4), seed=0)
        assert res.weights[0] <= 2
        assert res.weights[1] <= 4

    def test_infeasible_total_rejected(self):
        h = Hypergraph.from_net_lists(4, [[0, 1]], vwgt=[3, 3, 3, 3])
        with pytest.raises(PartitioningError, match="exceeds"):
            bipartition_hypergraph(h, max_weights=(5, 5))

    def test_negative_max_weights_rejected(self):
        h = Hypergraph.from_net_lists(2, [[0, 1]])
        with pytest.raises(PartitioningError):
            bipartition_hypergraph(h, max_weights=(-1, 5))

    def test_patoh_preset_works(self):
        a = erdos_renyi(100, 100, 600, seed=4)
        h = row_net_model(a).hypergraph
        res = bipartition_hypergraph(h, eps=0.03, config="patoh", seed=5)
        assert res.feasible

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_instances_feasible_and_consistent(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(10, 60))
        n = int(rng.integers(10, 60))
        nnz = int(rng.integers(max(m, n), min(4 * max(m, n), m * n)))
        a = erdos_renyi(m, n, nnz, seed=seed)
        h = row_net_model(a).hypergraph
        res = bipartition_hypergraph(h, eps=0.1, seed=seed)
        assert res.feasible
        assert res.cut == connectivity_volume(h, res.parts)
