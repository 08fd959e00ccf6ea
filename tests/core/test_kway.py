"""The direct k-way partitioning subsystem (``repro.core.kway``)."""

import numpy as np
import pytest

from repro.core.medium_grain import build_medium_grain
from repro.core.methods import ALGO_NAMES, METHOD_NAMES
from repro.core.kway import partition_kway
from repro.core.recursive import partition
from repro.core.refine import iterative_refine
from repro.core.split import initial_split, split_from_kway
from repro.core.volume import (
    communication_volume,
    max_allowed_part_size,
    max_part_size,
)
from repro.errors import PartitioningError, SplitError
from repro.partitioner import coarsen
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.initial import greedy_kway_vertex_parts
from repro.sparse.generators import erdos_renyi, grid2d_laplacian, kdiagonal
from repro.utils.rng import as_generator


MATRICES = {
    "er": lambda: erdos_renyi(120, 140, 900, seed=5),
    "grid": lambda: grid2d_laplacian(18, 18),
    "kdiag": lambda: kdiagonal(260, (-16, -1, 0, 1, 16), seed=2),
}


# --------------------------------------------------------------------- #
# partition_kway
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("p", [2, 3, 4, 7])
def test_partition_kway_basic(name, p):
    m = MATRICES[name]()
    res = partition_kway(m, p, seed=11)
    assert res.nparts == p
    assert res.parts.shape == (m.nnz,)
    assert res.volume == communication_volume(m, res.parts)
    assert res.max_part == max_part_size(m, res.parts, p)
    ceiling = max_allowed_part_size(m.nnz, p, 0.03)
    assert res.feasible == (res.max_part <= ceiling)
    assert res.feasible, f"{name} p={p}: max_part {res.max_part} > {ceiling}"
    assert res.bisection_volumes == []


def test_partition_kway_deterministic():
    m = MATRICES["er"]()
    a = partition_kway(m, 5, seed=3)
    b = partition_kway(m, 5, seed=3)
    np.testing.assert_array_equal(a.parts, b.parts)
    assert a.volume == b.volume


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_partition_kway_every_method(method):
    m = MATRICES["er"]()
    res = partition_kway(m, 4, method=method, seed=7)
    assert res.volume == communication_volume(m, res.parts)
    assert res.method == method + "+ml"


def test_partition_kway_refine_never_worse():
    m = MATRICES["grid"]()
    base = partition_kway(m, 4, seed=9)
    refined = partition_kway(m, 4, seed=9, refine=True)
    # Same seed stream up to the iterate loop, which keeps the best.
    assert refined.volume <= base.volume
    assert refined.method == "mediumgrain+ml+ir"


def test_partition_kway_trivial_and_errors():
    m = MATRICES["er"]()
    one = partition_kway(m, 1, seed=0)
    assert one.volume == 0 and one.feasible
    with pytest.raises(PartitioningError):
        partition_kway(m, m.nnz + 1)
    with pytest.raises(PartitioningError):
        partition_kway(m, 4, method="nope")


# --------------------------------------------------------------------- #
# algo dispatch
# --------------------------------------------------------------------- #
def test_algo_registry():
    assert ALGO_NAMES == ("recursive", "kway")


def test_partition_algo_dispatch_matches_partition_kway():
    m = MATRICES["er"]()
    via_algo = partition(m, 4, algo="kway", seed=21)
    direct = partition_kway(m, 4, seed=21)
    np.testing.assert_array_equal(via_algo.parts, direct.parts)
    assert via_algo.volume == direct.volume


def test_partition_algo_from_config_and_validation():
    m = MATRICES["er"]()
    cfg = PartitionerConfig(algo="kway")
    res = partition(m, 4, config=cfg, seed=21)
    direct = partition_kway(m, 4, config=cfg, seed=21)
    np.testing.assert_array_equal(res.parts, direct.parts)
    with pytest.raises(PartitioningError):
        partition(m, 4, algo="bogus")
    with pytest.raises(PartitioningError):
        PartitionerConfig(algo="bogus")
    # An explicit algo overrides the config's.
    rec = partition(m, 4, config=cfg, algo="recursive", seed=21)
    assert rec.method == "mediumgrain"


def test_kway_ignores_jobs():
    """No recursion tree: ``jobs`` is validated, then a bit-identical
    no-op."""
    m = MATRICES["grid"]()
    ref = partition(m, 4, algo="kway", seed=5)
    for jobs in (2, 4):
        res = partition(m, 4, algo="kway", seed=5, jobs=jobs)
        np.testing.assert_array_equal(ref.parts, res.parts)
    with pytest.raises(PartitioningError):
        partition(m, 4, algo="kway", jobs=-1)


def test_kway_bit_identical_across_kernel_backends(
    reference_kernels, monkeypatch
):
    """The python kernels and the frozen reference kernels give the same
    multilevel k-way partition, coarsening at the pair limit, where the
    frozen pair sweep is the reference."""
    monkeypatch.setattr(coarsen, "MAX_CLUSTER_MEMBERS", 2)
    m = MATRICES["kdiag"]()
    py = partition_kway(m, 6, seed=13, vcycles=2)
    ref = partition_kway(
        m, 6, seed=13, vcycles=2,
        config=PartitionerConfig(kernel_backend=reference_kernels),
    )
    np.testing.assert_array_equal(py.parts, ref.parts)


# --------------------------------------------------------------------- #
# greedy initial assignment
# --------------------------------------------------------------------- #
def test_greedy_init_respects_ceilings_when_possible():
    m = MATRICES["er"]()
    inst = build_medium_grain(initial_split(m, seed=1))
    h = inst.hypergraph
    for p in (3, 5, 8):
        ceiling = max_allowed_part_size(h.total_weight(), p, 0.03)
        ceilings = np.full(p, ceiling, dtype=np.int64)
        vparts = greedy_kway_vertex_parts(
            h, p, ceilings, as_generator(4)
        )
        pw = np.bincount(vparts, weights=h.vwgt, minlength=p)
        # LPT into lightest-with-room: unit-ish group weights always fit.
        assert pw.max() <= ceiling + h.vwgt.max(), (p, pw.max(), ceiling)


# --------------------------------------------------------------------- #
# majority split + k-way iterate loop
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("direction", [0, 1])
def test_split_from_kway_majority_side_is_pure(direction):
    m = MATRICES["er"]()
    rng = np.random.default_rng(8)
    parts = rng.integers(0, 5, size=m.nnz).astype(np.int64)
    split = split_from_kway(m, parts, direction, nparts=5)
    if direction == 0:
        # Every row group holds nonzeros of exactly one part.
        for i in range(m.nrows):
            sel = (m.rows == i) & split.ar_mask
            if sel.any():
                assert len(np.unique(parts[sel])) == 1
    else:
        for j in range(m.ncols):
            sel = (m.cols == j) & split.ac_mask
            if sel.any():
                assert len(np.unique(parts[sel])) == 1


def test_split_from_kway_matches_bipartition_semantics_for_two_parts():
    """For k = 2 the majority re-encoding must still be *expressible* —
    the lifted vertex partitioning reproduces the nonzero partitioning."""
    m = MATRICES["grid"]()
    rng = np.random.default_rng(3)
    parts = rng.integers(0, 2, size=m.nnz).astype(np.int64)
    for direction in (0, 1):
        split = split_from_kway(m, parts, direction, nparts=2)
        inst = build_medium_grain(split)
        vparts = inst.vertex_parts_majority(parts, 2)
        # Majority side is pure, and strays on the other side must agree
        # group-wise too only when the group is single-part; spot-check
        # the round trip volume never *increases* representation error
        # on the pure side:
        back = inst.nonzero_parts(vparts)
        if direction == 0:
            assert np.array_equal(
                back[split.ar_mask], parts[split.ar_mask]
            )
        else:
            assert np.array_equal(
                back[split.ac_mask], parts[split.ac_mask]
            )


def test_split_from_kway_validation():
    m = MATRICES["er"]()
    parts = np.zeros(m.nnz, dtype=np.int64)
    with pytest.raises(SplitError):
        split_from_kway(m, parts[:-1], 0)
    with pytest.raises(SplitError):
        split_from_kway(m, parts, 2)
    with pytest.raises(SplitError):
        split_from_kway(m, parts + 3, 0, nparts=2)


def test_vertex_parts_majority_exact_on_expressible():
    m = MATRICES["er"]()
    split = initial_split(m, seed=2)
    inst = build_medium_grain(split)
    rng = np.random.default_rng(5)
    vparts = rng.integers(0, 4, size=inst.hypergraph.nverts).astype(np.int64)
    parts = inst.nonzero_parts(vparts)
    lifted = inst.vertex_parts_majority(parts, 4)
    np.testing.assert_array_equal(lifted, vparts)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_kway_iterative_refine_monotone(name):
    m = MATRICES[name]()
    p = 5
    res = partition_kway(m, p, seed=17)
    refined, trace = iterative_refine(
        m, res.parts, 0.03, seed=23, nparts=p,
        initial_volume=res.volume,
    )
    vols = trace.volumes
    assert vols[0] == res.volume
    assert all(b <= a for a, b in zip(vols, vols[1:])), vols
    assert communication_volume(m, refined) == vols[-1]
    ceiling = max_allowed_part_size(m.nnz, p, 0.03)
    assert max_part_size(m, refined, p) <= ceiling


def test_kway_iterate_never_trades_feasibility_for_volume():
    """A feasible input must come out feasible: the majority lift can
    produce an infeasible low-volume candidate (the FM rebalance may
    fail), and keep-best must not accept it over the feasible best."""
    from repro.sparse.collection import load_instance

    m = load_instance("rec_td_small_a")
    p, eps = 5, 0.001
    ceiling = max_allowed_part_size(m.nnz, p, eps)
    res = partition_kway(m, p, eps=eps, seed=2)
    assert res.feasible
    refined, _trace = iterative_refine(
        m, res.parts, eps, seed=2, nparts=p,
        initial_volume=res.volume,
    )
    assert max_part_size(m, refined, p) <= ceiling
    assert communication_volume(m, refined) <= res.volume


def test_iterative_refine_still_rejects_multiway_without_nparts():
    m = MATRICES["er"]()
    parts = np.zeros(m.nnz, dtype=np.int64)
    parts[: m.nnz // 3] = 1
    parts[m.nnz // 3 : m.nnz // 2] = 2
    with pytest.raises(PartitioningError):
        iterative_refine(m, parts, 0.03, seed=1)


def test_iterative_refine_nparts_bounds_part_ids():
    m = MATRICES["er"]()
    ones = np.ones(m.nnz, dtype=np.int64)
    # nparts=1 must reject part id 1, not silently accept it.
    with pytest.raises(PartitioningError):
        iterative_refine(m, ones, 0.03, seed=1, nparts=1)
    with pytest.raises(PartitioningError):
        iterative_refine(m, ones * 5, 0.03, seed=1, nparts=5)
    zeros = np.zeros(m.nnz, dtype=np.int64)
    refined, trace = iterative_refine(m, zeros, 0.03, seed=1, nparts=1)
    assert trace.converged and trace.volumes == [0]
    np.testing.assert_array_equal(refined, zeros)
