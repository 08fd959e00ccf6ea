"""Tests for the reusable FM pass state and its caching contract."""

import gc
import weakref

import numpy as np
import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import PYTHON_KERNELS, FMPassState
from repro.kernels.state import (
    compute_fm_setup,
    fm_stall_limit,
    seed_buckets,
)
from repro.partitioner.fm import fm_refine


def random_hypergraph(rng: np.random.Generator, nverts: int, nnets: int):
    """A random hypergraph (mirrors the equivalence-suite builder)."""
    nets = [
        rng.choice(nverts, size=int(rng.integers(1, 6)), replace=False)
        for _ in range(nnets)
    ]
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 3, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


@pytest.fixture
def h():
    return random_hypergraph(np.random.default_rng(0), nverts=40, nnets=60)


class TestCaching:
    def test_state_cached_per_backend(self, h):
        assert PYTHON_KERNELS.fm_state(h) is PYTHON_KERNELS.fm_state(h)

    def test_for_hypergraph_same_instance(self, h):
        s1 = FMPassState.for_hypergraph(h, "python")
        s2 = FMPassState.for_hypergraph(h, "python")
        assert s1 is s2

    def test_distinct_hypergraphs_distinct_states(self, h):
        h2 = random_hypergraph(np.random.default_rng(1), 40, 60)
        assert FMPassState.for_hypergraph(h, "python") is not (
            FMPassState.for_hypergraph(h2, "python")
        )

    def test_derived_scalars(self, h):
        state = FMPassState.for_hypergraph(h, "python")
        assert state.max_gain == h.max_vertex_net_cost()
        assert state.slack == int(h.vwgt.max())
        assert state.total_weight == h.total_weight()
        assert state.nbuckets == 2 * state.max_gain + 1

    def test_list_mirrors_match_arrays(self, h):
        mirrors = FMPassState.for_hypergraph(h, "python").list_mirrors()
        assert mirrors["xpins"] == h.xpins.tolist()
        assert mirrors["pins"] == h.pins.tolist()
        assert mirrors["sizes"] == h.net_sizes().tolist()

    def test_cached_state_does_not_keep_its_hypergraph_alive(self):
        # The state holds its hypergraph weakly, so a dropped hypergraph
        # and its cached state go at once, without waiting for the
        # cyclic garbage collector.
        h = random_hypergraph(np.random.default_rng(2), 40, 60)
        cap = int(1.2 * h.total_weight() / 2) + 1
        fm_refine(h, np.zeros(h.nverts, dtype=np.int64), (cap, cap),
                  "mondriaan", seed=0)
        assert PYTHON_KERNELS.fm_state(h).lists is not None
        graph = weakref.ref(h)
        gc.disable()
        try:
            del h
            assert graph() is None
        finally:
            gc.enable()


class TestReuse:
    def test_repeated_refine_equals_fresh_state(self, h):
        """State reuse across fm_refine calls must not change results."""
        rng = np.random.default_rng(3)
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        cap = int(1.2 * h.total_weight() / 2) + 1

        # Reused path: one cached state across several calls with
        # different seeds and start vectors.
        reused = []
        for seed in range(5):
            r = fm_refine(h, parts, (cap, cap), seed=seed)
            reused.append((r.parts.copy(), r.cut, r.improvement))
            parts = r.parts

        # Fresh path: identical schedule, each call on a new,
        # structurally identical hypergraph (so no state is cached).
        parts2 = np.random.default_rng(3).integers(
            0, 2, size=h.nverts
        ).astype(np.int64)
        for seed, (p_ref, cut_ref, imp_ref) in enumerate(reused):
            h2 = Hypergraph(h.nverts, h.xpins, h.pins, h.vwgt, h.ncost)
            r = fm_refine(h2, parts2, (cap, cap), seed=seed)
            np.testing.assert_array_equal(r.parts, p_ref)
            assert r.cut == cut_ref
            assert r.improvement == imp_ref
            parts2 = r.parts

    def test_input_parts_never_mutated(self, h):
        parts = np.random.default_rng(5).integers(
            0, 2, size=h.nverts
        ).astype(np.int64)
        before = parts.copy()
        cap = h.total_weight()
        fm_refine(h, parts, (cap, cap), seed=1)
        np.testing.assert_array_equal(parts, before)


def _reference_fm_setup(h, parts, boundary_only):
    """The per-pin form of ``compute_fm_setup``: each pin reads its own
    side's and the other side's pin count."""
    net_ids = h.net_ids()
    pin_parts = parts[h.pins]
    pc1 = np.zeros(h.nnets, dtype=np.int64)
    np.add.at(pc1, net_ids, pin_parts)
    pc0 = h.net_sizes() - pc1
    own = np.where(pin_parts == 0, pc0[net_ids], pc1[net_ids])
    other = np.where(pin_parts == 0, pc1[net_ids], pc0[net_ids])
    contrib = h.ncost[net_ids] * (
        (own == 1).astype(np.int64) - (other == 0).astype(np.int64)
    )
    gain = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(gain, h.pins, contrib)
    mask = np.ones(h.nverts, dtype=bool)
    if boundary_only:
        mask = np.zeros(h.nverts, dtype=bool)
        np.logical_or.at(mask, h.pins, ((pc0 > 0) & (pc1 > 0))[net_ids])
    return pc0, pc1, gain, mask


@pytest.mark.parametrize("boundary_only", [False, True])
@pytest.mark.parametrize("case_seed", range(6))
def test_fm_setup_matches_per_pin_reference(case_seed, boundary_only):
    rng = np.random.default_rng(500 + case_seed)
    h = random_hypergraph(rng, nverts=int(rng.integers(2, 80)),
                          nnets=int(rng.integers(1, 120)))
    parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    if case_seed == 0:
        parts[:] = 0  # every net uncut: no boundary at all
    got = compute_fm_setup(h, parts, boundary_only)
    want = _reference_fm_setup(h, parts, boundary_only)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestStallLimit:
    """The one stall rule both FM passes of every backend use."""

    @pytest.mark.parametrize(
        "frac,nverts,expected",
        [
            (0.22, 100, 32),
            (0.22, 2331, 512),
            (0.22, 2332, 512),
            (0.22, 100_000, 512),
            (0.3, 100, 32),
            (0.3, 2331, 512),
            (0.3, 2332, 512),
            (0.3, 100_000, 512),
            # Below the cap the window is max(32, int(frac * n)).
            (0.22, 2000, 440),
            (0.3, 1000, 300),
        ],
    )
    def test_rule(self, frac, nverts, expected):
        assert fm_stall_limit(frac, nverts) == expected


@pytest.mark.parametrize("nkeys", [1, 7, 300, 70_000])
@pytest.mark.parametrize("case_seed", range(4))
def test_seed_buckets_matches_insertion_loop(case_seed, nkeys):
    """The vectorized seeding equals LIFO-inserting the seeds one by
    one, for key ranges held in 8, 16 and 32 bits."""
    rng = np.random.default_rng(case_seed)
    nverts = 60
    seeds = rng.permutation(nverts)[: int(rng.integers(0, nverts + 1))]
    keys = rng.integers(0, nkeys, size=seeds.size)
    head = [-1] * nkeys
    nxt = [-1] * nverts
    prv = [-1] * nverts
    inside = [False] * nverts
    for v, b in zip(seeds.tolist(), keys.tolist()):
        f = head[b]
        nxt[v] = f
        prv[v] = -1
        if f != -1:
            prv[f] = v
        head[b] = v
        inside[v] = True
    got = seed_buckets(seeds, keys, nkeys, nverts)
    for g, w in zip(got, (head, nxt, prv, inside)):
        assert g.tolist() == w
