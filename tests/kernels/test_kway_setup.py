"""``compute_kway_setup`` against a dense ``np.add.at`` reference.

The shared k-way setup builds ``occ``/``connect`` either dense or as
pair tables of their nonzero entries, as the density rule
(``repro.kernels.kway.sparse_tables``) decides.  The reference is the
pre-sparse dense construction (an ``npins x k`` scatter), frozen once in
``benchmarks/_baseline_kernels.py`` as the "before" side of the kernel
ledger.  Every case runs on both sides of the rule — the rule forced
each way — and all seven outputs, densified, must agree exactly on
random hypergraphs, including the corner cases the sparse path handles
implicitly: a net spanning all k parts, zero-cost nets, one-pin nets,
isolated vertices and an infeasible start.
"""

import numpy as np
import pytest

from benchmarks._baseline_kernels import (
    baseline_kway_setup as dense_kway_setup,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import kway
from repro.kernels.kway import (
    PairTable,
    compute_kway_setup,
    densify,
    sparse_tables,
)


OUTPUTS = ("occ", "pw", "base", "connect", "best_to", "best_gain",
           "insert_mask")


def _hypergraph(rng, nverts, nnets, extra=()):
    """Random hypergraph with one-pin nets, zero-cost nets and (usually)
    vertices on no net at all (the top few ids are never drawn), plus
    the ``extra`` nets."""
    covered = max(2, nverts - int(rng.integers(0, 4)))
    nets = []
    for _ in range(nnets):
        one_pin = rng.random() < 0.15
        size = 1 if one_pin else int(rng.integers(2, min(covered, 8) + 1))
        nets.append(rng.choice(covered, size=size, replace=False))
    nets.extend(extra)
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 4, size=len(nets))
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


def _case(seed, k, feasible):
    """A random start that is within its ceilings, with one net holding
    a vertex of every part; or one that piles every vertex on part 0
    (over a ceiling of ceil(W / k) < W)."""
    rng = np.random.default_rng(9100 + seed)
    nverts = int(rng.integers(k, k + 80))
    nnets = int(rng.integers(1, 120))
    if feasible:
        parts = rng.integers(0, k, size=nverts).astype(np.int64)
        spanning = rng.permutation(nverts)[:k]
        parts[spanning] = np.arange(k)
        h = _hypergraph(rng, nverts, nnets, extra=[spanning])
        pw = np.bincount(parts, weights=h.vwgt, minlength=k).astype(np.int64)
        ceilings = pw + int(rng.integers(0, 3))
    else:
        h = _hypergraph(rng, nverts, nnets)
        parts = np.zeros(h.nverts, dtype=np.int64)
        ceilings = np.full(k, -(-h.total_weight() // k), dtype=np.int64)
    return h, parts, ceilings


def _assert_setups_equal(got, want):
    for name, g, w in zip(OUTPUTS, got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def _forced_setups(monkeypatch, h, parts, k, ceilings, boundary_only):
    """The setup with the density rule forced dense, then sparse."""
    out = []
    for sparse in (False, True):
        monkeypatch.setattr(kway, "sparse_tables", lambda h, k, s=sparse: s)
        setup = compute_kway_setup(h, parts, k, ceilings, boundary_only)
        assert isinstance(setup.occ, PairTable) == sparse
        assert isinstance(setup.connect, PairTable) == sparse
        out.append(setup)
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("boundary_only", [False, True])
@pytest.mark.parametrize("feasible", [True, False], ids=["feas", "infeas"])
@pytest.mark.parametrize("k", [2, 3, 8, 64])
@pytest.mark.parametrize("seed", range(6))
def test_setup_matches_dense_reference(
    seed, k, feasible, boundary_only, monkeypatch
):
    h, parts, ceilings = _case(seed, k, feasible)
    pw = np.bincount(parts, weights=h.vwgt, minlength=k)
    assert bool(np.all(pw <= ceilings)) == feasible
    want = dense_kway_setup(h, parts, k, ceilings, boundary_only)
    for setup in _forced_setups(
        monkeypatch, h, parts, k, ceilings, boundary_only
    ):
        _assert_setups_equal(densify(setup), want)
    # Unforced, the rule picks one of the two.
    _assert_setups_equal(
        densify(compute_kway_setup(h, parts, k, ceilings, boundary_only)),
        want,
    )


def test_setup_covers_corner_cases():
    """The random draws really contain the corner cases named above."""
    seen = {"one_pin": False, "zero_cost": False, "isolated": False,
            "spans_all_k": False}
    for seed in range(6):
        for k in (2, 3, 8, 64):
            h, parts, _ = _case(seed, k, True)
            sizes = h.net_sizes()
            seen["one_pin"] |= bool(np.any(sizes == 1))
            seen["zero_cost"] |= bool(np.any(h.ncost == 0))
            seen["isolated"] |= bool(np.any(np.diff(h.xnets) == 0))
            lam = [np.unique(parts[h.net_pins(n)]).size
                   for n in range(h.nnets)]
            seen["spans_all_k"] |= max(lam) == k
    assert all(seen.values()), seen


def test_density_rule_reads_net_sizes():
    """At k=64, small nets give pair tables and one big net keeps the
    tables dense; at k=2 the small nets are dense too."""
    rng = np.random.default_rng(3)
    nverts = 400
    small = [rng.choice(nverts, size=3, replace=False) for _ in range(300)]
    h_small = Hypergraph.from_net_lists(nverts, small)
    h_big = Hypergraph.from_net_lists(nverts, small + [np.arange(nverts)])
    assert sparse_tables(h_small, 64)
    assert not sparse_tables(h_big, 64)
    assert not sparse_tables(h_small, 2)
    parts = rng.integers(0, 64, size=nverts).astype(np.int64)
    ceilings = np.full(64, nverts, dtype=np.int64)
    setup = compute_kway_setup(h_small, parts, 64, ceilings, False)
    assert isinstance(setup.occ, PairTable)
    # The pair tables hold only what may be nonzero: each pin's own part
    # and the other parts of its cut nets.
    assert setup.connect.keys.size <= nverts + 3 * 2 * len(small)
    setup = compute_kway_setup(h_big, parts, 64, ceilings, False)
    assert isinstance(setup.occ, np.ndarray)


def test_setup_on_empty_hypergraph_shapes(monkeypatch):
    h = Hypergraph.from_net_lists(3, [], vwgt=np.ones(3, dtype=np.int64))
    parts = np.array([0, 1, 1], dtype=np.int64)
    ceilings = np.full(4, 3, dtype=np.int64)
    for boundary_only in (False, True):
        want = dense_kway_setup(h, parts, 4, ceilings, boundary_only)
        for setup in _forced_setups(
            monkeypatch, h, parts, 4, ceilings, boundary_only
        ):
            _assert_setups_equal(densify(setup), want)
