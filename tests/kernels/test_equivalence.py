"""Cross-backend equivalence: backends must be bit-compatible.

Two layers:

* the flat-array kernels of the ``"numba"`` backend run *interpreted*
  (numba's ``njit`` degrades to an identity decorator when numba is
  absent), so the transliteration is checked in every environment on
  small random hypergraphs;
* when real numba is installed, the same checks run through the JIT
  (and the registry then resolves ``"auto"`` to it), otherwise those
  are skipped cleanly.
"""

import numpy as np
import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.kernels import get_backend, numba_available
from repro.kernels.numba_backend import NumbaBackend
from repro.partitioner.coarsen import coarsen_level, match_vertices
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.fm import fm_refine
from repro.partitioner.multilevel import multilevel_bipartition


def random_hypergraph(rng: np.random.Generator, nverts: int, nnets: int):
    """A random hypergraph with unit-free weights/costs and no dup pins."""
    nets = []
    for _ in range(nnets):
        size = int(rng.integers(1, min(6, nverts) + 1))
        nets.append(rng.choice(nverts, size=size, replace=False))
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 3, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


def backends_under_test():
    """The reference backend plus the flat-array backend (interpreted
    when numba is absent, JIT when present)."""
    return get_backend("python"), NumbaBackend()


CONFIGS = [
    PartitionerConfig(name="eq-mondriaan"),
    PartitionerConfig(
        name="eq-patoh",
        coarse_target=8,
        matching="absorption",
        boundary_only=True,
        fm_max_passes=3,
    ),
]


# Seed 6 draws a hypergraph large enough for the FM stall cap to bind:
# at 2,400 vertices frac * nverts is 528 (frac 0.22) and 720 (frac 0.3),
# both above the 512 cap, and its random start stalls for longer than
# that (checked by test_fm_pass_stall_cap_binds).
CAP_SEED = 6


def _fm_case(case_seed):
    rng = np.random.default_rng(1000 + case_seed)
    if case_seed == CAP_SEED:
        h = random_hypergraph(rng, nverts=2400, nnets=3600)
    else:
        h = random_hypergraph(rng, nverts=40, nnets=60)
    parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    cap = int(1.2 * h.total_weight() / 2) + 1
    return h, parts, cap


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", [*range(6), CAP_SEED])
def test_fm_refine_equivalent(cfg, case_seed):
    h, parts, cap = _fm_case(case_seed)
    py, flat = backends_under_test()
    r_py = fm_refine(h, parts, (cap, cap), cfg, seed=case_seed, backend=py)
    r_nb = fm_refine(h, parts, (cap, cap), cfg, seed=case_seed, backend=flat)
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert r_py.cut == r_nb.cut
    assert r_py.improvement == r_nb.improvement
    assert r_py.feasible == r_nb.feasible
    assert r_py.passes == r_nb.passes
    # And the reported cut is the true connectivity volume.
    assert r_py.cut == connectivity_volume(h, r_py.parts)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
def test_fm_pass_stall_cap_binds(cfg):
    """Both backends stop the first pass of the cap case exactly 513
    moves (the 512-move stall window, then the move that exceeds it)
    after its last improvement, and report the same move count."""
    h, parts, cap = _fm_case(CAP_SEED)
    outs = []
    for backend in backends_under_test():
        p = parts.copy()
        delta, feasible, tried = backend.fm_pass(
            backend.fm_state(h), p, (cap, cap), cfg,
            np.random.default_rng(CAP_SEED),
        )
        moved = int(np.count_nonzero(p != parts))
        assert feasible
        assert tried - moved == 513
        outs.append((delta, feasible, tried, p))
    (d0, f0, t0, p0), (d1, f1, t1, p1) = outs
    assert (d0, f0, t0) == (d1, f1, t1)
    np.testing.assert_array_equal(p0, p1)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(4))
def test_matching_equivalent(cfg, case_seed):
    rng = np.random.default_rng(2000 + case_seed)
    h = random_hypergraph(rng, nverts=50, nnets=70)
    py, flat = backends_under_test()
    cap = h.total_weight()
    m_py = match_vertices(
        h, cfg, np.random.default_rng(case_seed), cap, backend=py
    )
    m_nb = match_vertices(
        h, cfg, np.random.default_rng(case_seed), cap, backend=flat
    )
    np.testing.assert_array_equal(m_py, m_nb)


@pytest.mark.parametrize("case_seed", range(3))
def test_restricted_matching_equivalent(case_seed):
    rng = np.random.default_rng(3000 + case_seed)
    h = random_hypergraph(rng, nverts=40, nnets=50)
    restrict = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    py, flat = backends_under_test()
    cfg = CONFIGS[0]
    m_py = match_vertices(
        h, cfg, np.random.default_rng(7), h.total_weight(),
        restrict_parts=restrict, backend=py,
    )
    m_nb = match_vertices(
        h, cfg, np.random.default_rng(7), h.total_weight(),
        restrict_parts=restrict, backend=flat,
    )
    np.testing.assert_array_equal(m_py, m_nb)
    # Restriction honoured: matched pairs stay within a part.
    for v, u in enumerate(m_py.tolist()):
        if u != -1:
            assert restrict[v] == restrict[u]


@pytest.mark.parametrize("case_seed", range(3))
def test_coarsen_level_equivalent(case_seed):
    """Same seed => identical CoarseLevel output across backends."""
    rng = np.random.default_rng(4000 + case_seed)
    h = random_hypergraph(rng, nverts=60, nnets=80)
    py, flat = backends_under_test()
    cfg = CONFIGS[0]
    lvl_py = coarsen_level(
        h, cfg, np.random.default_rng(11), h.total_weight(), backend=py
    )
    lvl_nb = coarsen_level(
        h, cfg, np.random.default_rng(11), h.total_weight(), backend=flat
    )
    np.testing.assert_array_equal(lvl_py.cmap, lvl_nb.cmap)
    assert lvl_py.coarse.nverts == lvl_nb.coarse.nverts
    np.testing.assert_array_equal(lvl_py.coarse.xpins, lvl_nb.coarse.xpins)
    np.testing.assert_array_equal(lvl_py.coarse.pins, lvl_nb.coarse.pins)
    np.testing.assert_array_equal(lvl_py.coarse.vwgt, lvl_nb.coarse.vwgt)
    np.testing.assert_array_equal(lvl_py.coarse.ncost, lvl_nb.coarse.ncost)


def test_multilevel_equivalent():
    """End-to-end: a full multilevel run is backend-independent."""
    rng = np.random.default_rng(99)
    h = random_hypergraph(rng, nverts=120, nnets=160)
    cap = int(1.1 * h.total_weight() / 2) + 1
    py, flat = backends_under_test()
    cfg = PartitionerConfig(name="eq-ml", coarse_target=16, n_initial=2)
    r_py = multilevel_bipartition(h, (cap, cap), cfg, seed=5, backend=py)
    r_nb = multilevel_bipartition(h, (cap, cap), cfg, seed=5, backend=flat)
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert r_py.cut == r_nb.cut


@pytest.mark.skipif(
    not numba_available(), reason="numba not installed: JIT backend absent"
)
def test_jit_backend_via_registry():
    """With real numba, the registry-resolved backend matches python."""
    rng = np.random.default_rng(5)
    h = random_hypergraph(rng, nverts=80, nnets=100)
    parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    cap = int(1.2 * h.total_weight() / 2) + 1
    r_py = fm_refine(h, parts, (cap, cap), seed=1, backend="python")
    r_nb = fm_refine(h, parts, (cap, cap), seed=1, backend="numba")
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert (r_py.cut, r_py.improvement) == (r_nb.cut, r_nb.improvement)
