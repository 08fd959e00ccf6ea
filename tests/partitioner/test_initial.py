"""Tests for initial partitioning constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.partitioner import initial
from repro.partitioner.config import get_config
from repro.partitioner.initial import (
    greedy_grow,
    initial_partition,
    spectral_sweep,
)


def clustered_hypergraph() -> Hypergraph:
    """Two 5-cliques joined by one bridge net: obvious optimal split."""
    nets = []
    for base in (0, 5):
        nets += [[base + i, base + j] for i in range(5) for j in range(i + 1, 5)]
    nets.append([4, 5])
    return Hypergraph.from_net_lists(10, nets)


def grid_hypergraph(side: int) -> Hypergraph:
    """The ``side x side`` grid graph: a repeated Fiedler eigenvalue."""
    nets = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                nets.append([v, v + 1])
            if r + 1 < side:
                nets.append([v, v + side])
    return Hypergraph.from_net_lists(side * side, nets)


class TestGreedyGrow:
    def test_zero_one_output(self, rng):
        h = clustered_hypergraph()
        parts = greedy_grow(h, (5, 5), rng)
        assert set(parts.tolist()) <= {0, 1}

    def test_growth_is_connected_on_clusters(self, rng):
        """On the two-clique graph greedy growing should usually capture
        one clique (check over several seeds that at least one run does)."""
        h = clustered_hypergraph()
        perfect = 0
        for seed in range(10):
            parts = greedy_grow(h, (5, 5), np.random.default_rng(seed))
            w = part_weights(h, parts, 2)
            side0 = frozenset(np.flatnonzero(parts == 0).tolist())
            if side0 in (
                frozenset(range(5)),
                frozenset(range(5, 10)),
            ):
                perfect += 1
        assert perfect >= 5

    def test_disconnected_hypergraph(self, rng):
        h = Hypergraph.from_net_lists(6, [[0, 1], [2, 3]])  # 4,5 isolated
        parts = greedy_grow(h, (3, 3), rng)
        assert parts.shape == (6,)
        assert set(parts.tolist()) <= {0, 1}

    def test_empty_hypergraph(self, rng):
        h = Hypergraph(0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert greedy_grow(h, (0, 0), rng).size == 0


class TestCliqueLaplacian:
    def test_matches_pairwise_definition(self):
        h = Hypergraph.from_net_lists(
            5, [[0, 1, 2], [1, 3], [4], [2, 3, 4, 0]], ncost=[3, 2, 7, 1]
        )
        want = np.zeros((5, 5))
        for net, cost in ((h.net_pins(i), h.ncost[i]) for i in range(4)):
            for u in net:
                for v in net:
                    if u != v:
                        want[u, v] -= cost / (len(net) - 1)
        want[np.diag_indices(5)] = -want.sum(axis=1)
        np.testing.assert_allclose(initial._clique_laplacian(h), want)

    def test_chunking_does_not_change_the_sum(self, monkeypatch):
        h = grid_hypergraph(5)
        full = initial._clique_laplacian(h)
        monkeypatch.setattr(initial, "_MAX_PAIRS", 1)
        np.testing.assert_array_equal(initial._clique_laplacian(h), full)


class TestSpectralSweep:
    def test_two_cliques_cut_one_without_fm(self):
        h = clustered_hypergraph()
        parts = spectral_sweep(h, (5, 5))
        assert connectivity_volume(h, parts) == 1
        assert part_weights(h, parts, 2).tolist() == [5, 5]

    @pytest.mark.parametrize("caps", [(3, 9), (9, 3)])
    def test_asymmetric_ceilings(self, caps):
        """A path cut once, at the prefix matching the ceilings."""
        h = Hypergraph.from_net_lists(12, [[i, i + 1] for i in range(11)])
        parts = spectral_sweep(h, caps)
        w = part_weights(h, parts, 2)
        assert w[0] <= caps[0] and w[1] <= caps[1]
        assert connectivity_volume(h, parts) == 1

    def test_weighted_share_breaks_cut_ties(self):
        """No nets: every prefix cuts nothing, so the sweep lands on the
        ``cap0 / (cap0 + cap1)`` share of the weight."""
        h = Hypergraph.from_net_lists(8, [], vwgt=[1] * 8)
        parts = spectral_sweep(h, (4, 8))
        assert part_weights(h, parts, 2).tolist() == [3, 5]

    def test_disconnected_hypergraph(self):
        h = Hypergraph.from_net_lists(
            6, [[0, 2], [2, 4], [1, 3], [3, 5]]
        )
        parts = spectral_sweep(h, (3, 3))
        assert connectivity_volume(h, parts) == 0
        assert part_weights(h, parts, 2).tolist() == [3, 3]

    def test_no_net_of_two_pins(self):
        h = Hypergraph.from_net_lists(4, [[0], [2], []])
        parts = spectral_sweep(h, (2, 2))
        assert parts.tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize("nverts", [1, 2])
    def test_tiny(self, nverts):
        nets = [[0, 1]] if nverts == 2 else []
        h = Hypergraph.from_net_lists(nverts, nets)
        parts = spectral_sweep(h, (1, 1))
        assert parts.shape == (nverts,)
        assert part_weights(h, parts, 2).tolist() in ([1, 0], [0, 1], [1, 1])
        res = initial_partition(
            h, (1, 1), get_config("mondriaan"), np.random.default_rng(0)
        )
        assert res.feasible

    def test_infeasible_everywhere_takes_least_overweight(self):
        h = Hypergraph.from_net_lists(3, [[0, 1], [1, 2]], vwgt=[5, 5, 5])
        parts = spectral_sweep(h, (8, 8))
        assert sorted(part_weights(h, parts, 2).tolist()) == [5, 10]

    def test_rotated_eigenbasis_gives_the_same_order(self):
        """A repeated λ2 (the square grid) leaves LAPACK free to return
        any orthonormal basis of the Fiedler space, with any signs; the
        canonical projection must not see the difference."""
        lap = initial._clique_laplacian(grid_hypergraph(4))
        evals, evecs = np.linalg.eigh(lap)
        space = np.flatnonzero(np.abs(evals - evals[1]) <= 1e-8 * evals[-1])
        assert space.size == 2
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        rotated = evecs.copy()
        rotated[:, space] = evecs[:, space] @ rot
        rotated[:, space[0]] *= -1
        rotated[:, space[-1] + 1:] *= -1
        np.testing.assert_array_equal(
            initial._fiedler_order(evals, rotated),
            initial._fiedler_order(evals, evecs),
        )


class TestInitialPartition:
    def test_finds_obvious_split(self, rng):
        h = clustered_hypergraph()
        res = initial_partition(h, (5, 5), get_config("mondriaan"), rng)
        assert res.feasible
        assert res.cut == 1  # only the bridge net

    def test_feasibility_with_weights(self, rng):
        h = Hypergraph.from_net_lists(
            4, [[0, 1], [1, 2], [2, 3]], vwgt=[4, 1, 1, 4]
        )
        res = initial_partition(h, (6, 6), get_config("mondriaan"), rng)
        assert res.feasible
        w = part_weights(h, res.parts, 2)
        assert max(w) <= 6

    def test_large_level_skips_the_eigensolve(self, monkeypatch, rng):
        def fail(*args):
            raise AssertionError("spectral sweep above the size cap")

        monkeypatch.setattr(initial, "_SPECTRAL_MAX_NVERTS", 4)
        monkeypatch.setattr(initial, "spectral_sweep", fail)
        h = clustered_hypergraph()
        res = initial_partition(h, (5, 5), get_config("mondriaan"), rng)
        assert res.feasible

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_instances_feasible(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        nets = [
            rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)),
                       replace=False).tolist()
            for _ in range(int(rng.integers(2, 30)))
        ]
        h = Hypergraph.from_net_lists(n, nets)
        cap = (n + 1) // 2 + 1
        res = initial_partition(h, (cap, cap), get_config("patoh"), rng)
        assert res.feasible
        w = part_weights(h, res.parts, 2)
        assert max(w) <= cap
