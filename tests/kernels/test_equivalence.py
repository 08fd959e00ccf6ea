"""The python kernels against the frozen reference kernels.

The reference (``ReferenceKernels`` in ``conftest.py``) is the seed's
2-way FM pass and matching sweep, frozen in ``benchmarks/``; the python
kernels must give the same partitions, cuts and matchings on small
random hypergraphs, and through whole coarsening levels and multilevel
runs.  The frozen passes have no stall cap, so the cap case checks that
the python pass stops where the cap says it must.
"""

import dataclasses

import numpy as np
import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.kernels import PYTHON_KERNELS, python_backend
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


def on_reference(cfg, reference):
    """``cfg`` with the reference kernels injected."""
    return dataclasses.replace(cfg, kernel_backend=reference)


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
def test_fm_refine_equivalent(cfg, case_seed, reference_kernels):
    h, parts, cap = _fm_case(case_seed)
    r_py = fm_refine(h, parts, (cap, cap), cfg, seed=case_seed)
    r_ref = fm_refine(
        h, parts, (cap, cap), on_reference(cfg, reference_kernels),
        seed=case_seed,
    )
    np.testing.assert_array_equal(r_py.parts, r_ref.parts)
    assert r_py.cut == r_ref.cut
    assert r_py.improvement == r_ref.improvement
    assert r_py.feasible == r_ref.feasible
    assert r_py.passes == r_ref.passes
    # And the reported cut is the true connectivity volume.
    assert r_py.cut == connectivity_volume(h, r_py.parts)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
def test_fm_pass_stall_cap_binds(cfg, reference_kernels):
    """The python pass stops the first pass of the cap case exactly 513
    moves (the 512-move stall window, then the move that exceeds it)
    after its last improvement, and keeps the same prefix as the
    uncapped reference pass."""
    h, parts, cap = _fm_case(CAP_SEED)
    outs = []
    for kernels in (PYTHON_KERNELS, reference_kernels):
        p = parts.copy()
        delta, feasible, tried = kernels.fm_pass(
            kernels.fm_state(h), p, (cap, cap), cfg,
            np.random.default_rng(CAP_SEED),
        )
        outs.append((delta, feasible, tried, p))
    (d0, f0, t0, p0), (d1, f1, _, p1) = outs
    assert f0
    assert t0 - int(np.count_nonzero(p0 != parts)) == 513
    assert (d0, f0) == (d1, f1)
    np.testing.assert_array_equal(p0, p1)


def _matching_case(case_seed):
    rng = np.random.default_rng(2000 + case_seed)
    h = random_hypergraph(rng, nverts=50, nnets=70)
    return h, case_seed, None


def _restricted_matching_case(case_seed):
    rng = np.random.default_rng(3000 + case_seed)
    h = random_hypergraph(rng, nverts=40, nnets=50)
    restrict = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    return h, 7, restrict


#: Every matching case below: ``(config, case builder, case seed)``.
MATCHING_CASES = [
    *(
        pytest.param(cfg, _matching_case, seed, id=f"{cfg.name}-{seed}")
        for cfg in CONFIGS for seed in range(4)
    ),
    *(
        pytest.param(
            CONFIGS[0], _restricted_matching_case, seed,
            id=f"restricted-{seed}",
        )
        for seed in range(3)
    ),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(4))
def test_matching_equivalent(cfg, case_seed, reference_kernels):
    h, seed, _ = _matching_case(case_seed)
    cap = h.total_weight()
    m_py = match_vertices(h, cfg, np.random.default_rng(seed), cap)
    m_ref = match_vertices(
        h, on_reference(cfg, reference_kernels),
        np.random.default_rng(seed), cap,
    )
    np.testing.assert_array_equal(m_py, m_ref)


@pytest.mark.parametrize("case_seed", range(3))
def test_restricted_matching_equivalent(case_seed, reference_kernels):
    h, seed, restrict = _restricted_matching_case(case_seed)
    cfg = CONFIGS[0]
    m_py = match_vertices(
        h, cfg, np.random.default_rng(seed), h.total_weight(),
        restrict_parts=restrict,
    )
    m_ref = match_vertices(
        h, on_reference(cfg, reference_kernels), np.random.default_rng(seed),
        h.total_weight(), restrict_parts=restrict,
    )
    np.testing.assert_array_equal(m_py, m_ref)
    # Restriction honoured: matched pairs stay within a part.
    for v, u in enumerate(m_py.tolist()):
        if u != -1:
            assert restrict[v] == restrict[u]


class _NeverExpires:
    """A deadline that never expires and counts its checks."""

    def __init__(self):
        self.checks = 0

    def expired(self) -> bool:
        self.checks += 1
        return False


@pytest.mark.parametrize("chunk", [7, python_backend.MATCH_CHUNK])
@pytest.mark.parametrize("cfg, make_case, case_seed", MATCHING_CASES)
def test_deadline_bound_matching_equivalent(
    cfg, make_case, case_seed, chunk, reference_kernels, monkeypatch
):
    """A sweep checking a deadline that never expires, between chunks
    of ``chunk`` visits (7 splits every case into several), matches
    exactly what the frozen reference matches without one."""
    monkeypatch.setattr(python_backend, "MATCH_CHUNK", chunk)
    h, seed, restrict = make_case(case_seed)
    never = _NeverExpires()
    m_py = match_vertices(
        h, cfg, np.random.default_rng(seed), h.total_weight(),
        restrict_parts=restrict, deadline=never,
    )
    m_ref = match_vertices(
        h, on_reference(cfg, reference_kernels), np.random.default_rng(seed),
        h.total_weight(), restrict_parts=restrict,
    )
    np.testing.assert_array_equal(m_py, m_ref)
    # One check between each two chunks, none before the first.
    assert never.checks == (h.nverts - 1) // chunk


@pytest.mark.parametrize("case_seed", range(3))
def test_coarsen_level_equivalent(case_seed, reference_kernels):
    """Same seed => identical CoarseLevel output under both kernels."""
    rng = np.random.default_rng(4000 + case_seed)
    h = random_hypergraph(rng, nverts=60, nnets=80)
    cfg = CONFIGS[0]
    lvl_py = coarsen_level(h, cfg, np.random.default_rng(11), h.total_weight())
    lvl_ref = coarsen_level(
        h, on_reference(cfg, reference_kernels), np.random.default_rng(11),
        h.total_weight(),
    )
    np.testing.assert_array_equal(lvl_py.cmap, lvl_ref.cmap)
    assert lvl_py.coarse.nverts == lvl_ref.coarse.nverts
    np.testing.assert_array_equal(lvl_py.coarse.xpins, lvl_ref.coarse.xpins)
    np.testing.assert_array_equal(lvl_py.coarse.pins, lvl_ref.coarse.pins)
    np.testing.assert_array_equal(lvl_py.coarse.vwgt, lvl_ref.coarse.vwgt)
    np.testing.assert_array_equal(lvl_py.coarse.ncost, lvl_ref.coarse.ncost)


def test_multilevel_equivalent(reference_kernels):
    """End-to-end: a full multilevel run equals the reference run."""
    rng = np.random.default_rng(99)
    h = random_hypergraph(rng, nverts=120, nnets=160)
    cap = int(1.1 * h.total_weight() / 2) + 1
    cfg = PartitionerConfig(name="eq-ml", coarse_target=16)
    r_py = multilevel_bipartition(h, (cap, cap), cfg, seed=5)
    r_ref = multilevel_bipartition(
        h, (cap, cap), on_reference(cfg, reference_kernels), seed=5
    )
    np.testing.assert_array_equal(r_py.parts, r_ref.parts)
    assert r_py.cut == r_ref.cut

