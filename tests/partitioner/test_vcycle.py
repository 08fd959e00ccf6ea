"""Tests for hMetis-style V-cycle refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refine import vcycle_refine_bipartition
from repro.core.volume import communication_volume, max_allowed_part_size
from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.hypergraph.models import row_net_model
from repro.partitioner.coarsen import cluster_vertices, contract
from repro.partitioner.config import get_config
from repro.partitioner.vcycle import vcycle_refine
from repro.sparse.generators import erdos_renyi, grid2d_laplacian


def random_h(rng, n, nnets):
    nets = [
        rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)),
                   replace=False).tolist()
        for _ in range(nnets)
    ]
    return Hypergraph.from_net_lists(n, nets)


class TestRestrictedMatching:
    def test_never_matches_across_parts(self, rng):
        h = random_h(rng, 24, 40)
        parts = rng.integers(0, 2, size=24).astype(np.int64)
        cluster = cluster_vertices(
            h, get_config("mondriaan"), rng, 10**9, restrict_parts=parts
        )
        np.testing.assert_array_equal(parts[cluster], parts)

    def test_projection_preserves_cut_exactly(self, rng):
        h = random_h(rng, 30, 50)
        parts = rng.integers(0, 2, size=30).astype(np.int64)
        cluster = cluster_vertices(
            h, get_config("mondriaan"), rng, 10**9, restrict_parts=parts
        )
        cmap, coarse = contract(h, cluster)
        coarse_parts = np.empty(coarse.nverts, dtype=np.int64)
        coarse_parts[cmap] = parts
        # Consistency: every cluster is monochromatic.
        np.testing.assert_array_equal(coarse_parts[cmap], parts)
        assert connectivity_volume(coarse, coarse_parts) == (
            connectivity_volume(h, parts)
        )


class TestVCycle:
    def test_monotone_non_increasing(self, rng):
        a = erdos_renyi(120, 120, 800, seed=3)
        h = row_net_model(a).hypergraph
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        cap = int(1.2 * h.total_weight() / 2)
        res = vcycle_refine(h, parts, (cap, cap), seed=1)
        assert all(
            res.cuts[i + 1] <= res.cuts[i] for i in range(len(res.cuts) - 1)
        )
        assert res.cut == connectivity_volume(h, res.parts)
        assert res.cut <= connectivity_volume(h, parts)

    def test_respects_balance(self, rng):
        a = erdos_renyi(100, 100, 600, seed=4)
        h = row_net_model(a).hypergraph
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        cap = int(1.1 * h.total_weight() / 2)
        res = vcycle_refine(h, parts, (cap, cap), seed=2)
        w = part_weights(h, res.parts, 2)
        assert res.feasible == (w[0] <= cap and w[1] <= cap)
        assert res.feasible

    def test_zero_cycles_identity(self, rng):
        h = random_h(rng, 16, 20)
        parts = rng.integers(0, 2, size=16).astype(np.int64)
        res = vcycle_refine(h, parts, (16, 16), seed=0, max_cycles=0)
        np.testing.assert_array_equal(res.parts, parts)
        assert res.cycles == 0

    def test_input_not_mutated(self, rng):
        h = random_h(rng, 20, 30)
        parts = rng.integers(0, 2, size=20).astype(np.int64)
        orig = parts.copy()
        vcycle_refine(h, parts, (20, 20), seed=0)
        np.testing.assert_array_equal(parts, orig)

    def test_rejects_kway(self, rng):
        h = random_h(rng, 10, 10)
        with pytest.raises(PartitioningError):
            vcycle_refine(h, np.arange(10) % 3, (10, 10))

    def test_stops_when_no_improvement(self, rng):
        """A V-cycle that cannot improve terminates after one cycle."""
        # Optimally split chain.
        h = Hypergraph.from_net_lists(8, [[i, i + 1] for i in range(7)])
        parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        res = vcycle_refine(h, parts, (4, 4), seed=1, max_cycles=5)
        assert res.cut == 1
        assert res.cycles == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_property(self, seed):
        rng = np.random.default_rng(seed)
        h = random_h(rng, int(rng.integers(8, 30)), int(rng.integers(5, 40)))
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        cap = h.nverts  # no effective balance constraint
        res = vcycle_refine(h, parts, (cap, cap), seed=seed)
        assert res.cut <= connectivity_volume(h, parts)


class TestMatrixLevelVCycle:
    def test_refines_matrix_bipartitioning(self, rng):
        a = grid2d_laplacian(12, 12)
        parts = rng.integers(0, 2, size=a.nnz).astype(np.int64)
        before = communication_volume(a, parts)
        refined, cuts = vcycle_refine_bipartition(a, parts, eps=0.1, seed=5)
        after = communication_volume(a, refined)
        assert after <= before
        assert cuts[0] == before
        assert cuts[-1] == after

    def test_balance_respected(self, rng):
        a = erdos_renyi(40, 40, 300, seed=6)
        parts = (rng.permutation(a.nnz) < a.nnz // 2).astype(np.int64)
        refined, _ = vcycle_refine_bipartition(a, parts, eps=0.03, seed=7)
        ceiling = max_allowed_part_size(a.nnz, 2, 0.03)
        assert np.bincount(refined, minlength=2).max() <= ceiling
