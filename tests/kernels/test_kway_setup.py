"""``compute_kway_setup`` against a dense ``np.add.at`` reference.

The shared k-way setup builds every array with ``np.bincount`` and
scatters ``connect`` only over each net's present parts.  The reference
is the pre-sparse dense construction (an ``npins x k`` scatter), frozen
once in ``benchmarks/_baseline_kernels.py`` as the "before" side of the
kernel ledger; all seven outputs must agree exactly on random
hypergraphs, including the corner cases the sparse path handles
implicitly.
"""

import numpy as np
import pytest

from benchmarks._baseline_kernels import (
    baseline_kway_setup as dense_kway_setup,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.kway import compute_kway_setup


OUTPUTS = ("occ", "pw", "base", "connect", "best_to", "best_gain",
           "insert_mask")


def _hypergraph(rng, nverts, nnets):
    """Random hypergraph with one-pin nets, zero-cost nets and (usually)
    vertices on no net at all (the top few ids are never drawn)."""
    covered = max(2, nverts - int(rng.integers(0, 4)))
    nets = []
    for _ in range(nnets):
        one_pin = rng.random() < 0.15
        size = 1 if one_pin else int(rng.integers(2, min(covered, 8) + 1))
        nets.append(rng.choice(covered, size=size, replace=False))
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 4, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


def _case(seed, k, feasible):
    """A random start that is within its ceilings, or one that piles
    every vertex on part 0 (over a ceiling of ceil(W / k) < W)."""
    rng = np.random.default_rng(9100 + seed)
    nverts = int(rng.integers(k, k + 80))
    h = _hypergraph(rng, nverts, int(rng.integers(1, 120)))
    if feasible:
        parts = rng.integers(0, k, size=h.nverts).astype(np.int64)
        pw = np.bincount(parts, weights=h.vwgt, minlength=k).astype(np.int64)
        ceilings = pw + int(rng.integers(0, 3))
    else:
        parts = np.zeros(h.nverts, dtype=np.int64)
        ceilings = np.full(k, -(-h.total_weight() // k), dtype=np.int64)
    return h, parts, ceilings


@pytest.mark.parametrize("boundary_only", [False, True])
@pytest.mark.parametrize("feasible", [True, False], ids=["feas", "infeas"])
@pytest.mark.parametrize("k", [2, 3, 64])
@pytest.mark.parametrize("seed", range(6))
def test_setup_matches_dense_reference(seed, k, feasible, boundary_only):
    h, parts, ceilings = _case(seed, k, feasible)
    pw = np.bincount(parts, weights=h.vwgt, minlength=k)
    assert bool(np.all(pw <= ceilings)) == feasible
    got = compute_kway_setup(h, parts, k, ceilings, boundary_only)
    want = dense_kway_setup(h, parts, k, ceilings, boundary_only)
    for name, g, w in zip(OUTPUTS, got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def test_setup_covers_corner_cases():
    """The random draws really contain the corner cases named above."""
    seen = {"one_pin": False, "zero_cost": False, "isolated": False}
    for seed in range(6):
        h, _, _ = _case(seed, 3, True)
        sizes = h.net_sizes()
        seen["one_pin"] |= bool(np.any(sizes == 1))
        seen["zero_cost"] |= bool(np.any(h.ncost == 0))
        seen["isolated"] |= bool(np.any(np.diff(h.xnets) == 0))
    assert all(seen.values()), seen


def test_setup_on_empty_hypergraph_shapes():
    h = Hypergraph.from_net_lists(3, [], vwgt=np.ones(3, dtype=np.int64))
    parts = np.array([0, 1, 1], dtype=np.int64)
    ceilings = np.full(4, 3, dtype=np.int64)
    got = compute_kway_setup(h, parts, 4, ceilings, True)
    want = dense_kway_setup(h, parts, 4, ceilings, True)
    for name, g, w in zip(OUTPUTS, got, want):
        assert g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)
