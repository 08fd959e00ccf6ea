"""k-way FM kernels: cross-backend bit-identity and metric invariants.

Mirrors ``tests/kernels/test_equivalence.py`` for the k-way pass: the
flat-array loop of the ``"numba"`` backend runs interpreted when numba is
absent, so the transliteration is checked in every environment; with real
numba installed the same checks exercise the JIT.
"""

import numpy as np
import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.kernels import get_backend, kway
from repro.kernels.kway import compute_kway_setup, densify
from repro.kernels.numba_backend import NumbaBackend, _kway_move_loop
from repro.kernels.state import fm_stall_limit
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.fm import kway_refine


def random_hypergraph(rng: np.random.Generator, nverts: int, nnets: int):
    nets = [
        rng.choice(
            nverts, size=int(rng.integers(1, min(6, nverts) + 1)),
            replace=False,
        )
        for _ in range(nnets)
    ]
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 3, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


CONFIGS = [
    PartitionerConfig(name="kw-mondriaan"),
    PartitionerConfig(
        name="kw-patoh", boundary_only=True, fm_max_passes=3
    ),
]


# Seeds 0-7 draw the usual small k (2..8); seeds 8-15 draw wide rows
# (k 9..64), where argmax ties across many parts are common and the
# python backend resolves them with list.index.
SMALL_K_SEEDS = list(range(8))
WIDE_K_SEEDS = list(range(8, 16))
# Seed 16 draws a small k on 2,400 vertices: large enough for the FM
# stall cap to bind (frac * nverts is 528 at frac 0.22, above the 512
# cap), with a random start that stalls for longer than that (checked
# by test_kway_fm_pass_stall_cap_binds).
CAP_SEED = 16


def _case(case_seed, start="random"):
    """A random hypergraph, k and ceilings, with a ``"random"`` start,
    an ``"extreme"`` one (everything on part 0) or a ``"balanced"`` one
    (each vertex onto the lightest part: within every ceiling)."""
    rng = np.random.default_rng(7000 + case_seed)
    if case_seed in WIDE_K_SEEDS:
        k = int(rng.integers(9, 65))
        grow = k
    else:
        k = int(rng.integers(2, 9))
        grow = 0
    if case_seed == CAP_SEED:
        h = random_hypergraph(rng, nverts=2400, nnets=4800)
    else:
        h = random_hypergraph(
            rng, nverts=int(rng.integers(5, 60 + grow)),
            nnets=int(rng.integers(3, 80 + grow)),
        )
    if start == "extreme":
        parts = np.zeros(h.nverts, dtype=np.int64)
    elif start == "balanced":
        parts = np.zeros(h.nverts, dtype=np.int64)
        pw = np.zeros(k, dtype=np.int64)
        for v in rng.permutation(h.nverts):
            parts[v] = int(pw.argmin())
            pw[parts[v]] += h.vwgt[v]
    else:
        parts = rng.integers(0, k, size=h.nverts).astype(np.int64)
    cap = int(np.ceil(1.1 * h.total_weight() / k)) + int(
        h.vwgt.max(initial=1)
    )
    ceilings = np.full(k, cap, dtype=np.int64)
    return h, parts, k, ceilings


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "case_seed", SMALL_K_SEEDS + WIDE_K_SEEDS + [CAP_SEED]
)
def test_kway_refine_backend_equivalent(cfg, case_seed):
    h, parts, k, ceilings = _case(case_seed)
    py, flat = get_backend("python"), NumbaBackend()
    r_py = kway_refine(h, parts, k, ceilings, cfg, seed=case_seed, backend=py)
    r_nb = kway_refine(
        h, parts, k, ceilings, cfg, seed=case_seed, backend=flat
    )
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert r_py.cut == r_nb.cut
    assert r_py.improvement == r_nb.improvement
    assert r_py.feasible == r_nb.feasible
    assert r_py.passes == r_nb.passes
    # The reported cut is the true connectivity-(λ−1) volume.
    assert r_py.cut == connectivity_volume(h, r_py.parts)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
def test_kway_fm_pass_stall_cap_binds(cfg):
    """Both backends stop the first k-way pass of the cap case exactly
    513 moves (the 512-move stall window, then the move that exceeds
    it) after its last improvement, and report the same move count."""
    h, parts, k, ceilings = _case(CAP_SEED)
    outs = []
    for backend in (get_backend("python"), NumbaBackend()):
        p = parts.copy()
        delta, feasible, tried = backend.kway_fm_pass(
            backend.fm_state(h), p, k, ceilings, cfg,
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
@pytest.mark.parametrize("case_seed", WIDE_K_SEEDS[:4])
def test_kway_refine_zero_ceiling_part_backend_equivalent(cfg, case_seed):
    """A part with ceiling 0 must stay empty; the balance metric divides
    by its ceiling.  Wide k leaves the other parts room for its weight."""
    h, parts, k, ceilings = _case(case_seed)
    ceilings = ceilings.copy()
    ceilings[k // 2] = 0
    py, flat = get_backend("python"), NumbaBackend()
    r_py = kway_refine(h, parts, k, ceilings, cfg, seed=case_seed, backend=py)
    r_nb = kway_refine(
        h, parts, k, ceilings, cfg, seed=case_seed, backend=flat
    )
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert (r_py.cut, r_py.feasible, r_py.passes) == (
        r_nb.cut, r_nb.feasible, r_nb.passes
    )
    assert r_py.feasible
    assert not np.any(r_py.parts == k // 2)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", SMALL_K_SEEDS[:6] + WIDE_K_SEEDS[:3])
def test_kway_refine_monotone_from_feasible(cfg, case_seed):
    h, parts, k, ceilings = _case(case_seed, start="balanced")
    assert bool(np.all(part_weights(h, parts, k) <= ceilings))
    before = connectivity_volume(h, parts)
    r = kway_refine(
        h, parts, k, ceilings, cfg, seed=case_seed,
        backend=get_backend("python"),
    )
    assert r.cut <= before
    assert r.feasible
    assert bool(np.all(part_weights(h, r.parts, k) <= ceilings))


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", SMALL_K_SEEDS[:6] + WIDE_K_SEEDS[:3])
def test_kway_refine_rebalances_extreme_start(cfg, case_seed):
    """All weight on part 0 (no boundary at all) must still rebalance."""
    h, parts, k, ceilings = _case(case_seed, start="extreme")
    for backend in (get_backend("python"), NumbaBackend()):
        r = kway_refine(
            h, parts, k, ceilings, cfg, seed=case_seed, backend=backend
        )
        assert r.feasible, part_weights(h, r.parts, k)
        assert bool(np.all(part_weights(h, r.parts, k) <= ceilings))


def test_kway_refine_input_not_modified_and_state_reuse():
    h, parts, k, ceilings = _case(3)
    keep = parts.copy()
    py = get_backend("python")
    r1 = kway_refine(h, parts, k, ceilings, seed=5, backend=py)
    np.testing.assert_array_equal(parts, keep)
    # Cached FMPassState (and its per-nparts k-way scratch) reused across
    # calls must be bit-identical to the first run.
    r2 = kway_refine(h, parts, k, ceilings, seed=5, backend=py)
    np.testing.assert_array_equal(r1.parts, r2.parts)
    assert r1.cut == r2.cut
    # The flat-array backend caches the k-way bucket scratch on the
    # hypergraph's pass state; a second call reuses it bit-identically.
    flat = NumbaBackend()
    f1 = kway_refine(h, parts, k, ceilings, seed=5, backend=flat)
    assert flat.fm_state(h).kway is not None
    assert "moved_from" in flat.fm_state(h).kway
    f2 = kway_refine(h, parts, k, ceilings, seed=5, backend=flat)
    np.testing.assert_array_equal(f1.parts, f2.parts)
    assert f1.cut == f2.cut


def test_kway_refine_validation():
    from repro.errors import PartitioningError

    h, parts, k, ceilings = _case(1)
    with pytest.raises(PartitioningError):
        kway_refine(h, parts, 1, ceilings[:1])
    with pytest.raises(PartitioningError):
        kway_refine(h, parts[:-1], k, ceilings)
    with pytest.raises(PartitioningError):
        kway_refine(h, parts, k, ceilings[:-1])
    with pytest.raises(PartitioningError):
        kway_refine(h, np.full(h.nverts, k, dtype=np.int64), k, ceilings)
    with pytest.raises(PartitioningError):
        kway_refine(h, parts, k, np.zeros(k, dtype=np.int64))


# --------------------------------------------------------------------- #
# Both sides of the density rule, and transit overweight mid-pass.
# --------------------------------------------------------------------- #
REGIMES = pytest.mark.parametrize(
    "sparse", [False, True], ids=["dense", "sparse"]
)


def _force_regime(monkeypatch, sparse):
    monkeypatch.setattr(kway, "sparse_tables", lambda h, k: sparse)


@REGIMES
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "case_seed", SMALL_K_SEEDS[:4] + WIDE_K_SEEDS[:4] + [CAP_SEED]
)
def test_kway_refine_backend_equivalent_per_regime(
    cfg, case_seed, sparse, monkeypatch
):
    """The python pass on flat lists filled from either kind of setup
    table equals the transliteration, which always runs densified."""
    _force_regime(monkeypatch, sparse)
    h, parts, k, ceilings = _case(case_seed)
    py, flat = get_backend("python"), NumbaBackend()
    r_py = kway_refine(h, parts, k, ceilings, cfg, seed=case_seed, backend=py)
    r_nb = kway_refine(
        h, parts, k, ceilings, cfg, seed=case_seed, backend=flat
    )
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert (r_py.cut, r_py.improvement, r_py.feasible, r_py.passes) == (
        r_nb.cut, r_nb.improvement, r_nb.feasible, r_nb.passes
    )
    assert r_py.cut == connectivity_volume(h, r_py.parts)


class _WeightLog(np.ndarray):
    """Part weights that keep a copy of every state written to them."""

    def __setitem__(self, idx, val):
        super().__setitem__(idx, val)
        self.states.append(np.array(self))


def _transit_overweight_moves(h, parts, k, ceilings, cfg, seed):
    """Moves of one interpreted transliteration pass after which some
    part is over its ceiling (each move writes ``pw`` twice: source,
    then target)."""
    setup = densify(
        compute_kway_setup(h, parts, k, ceilings, cfg.boundary_only)
    )
    pw = setup.pw.view(_WeightLog)
    pw.states = []
    state = NumbaBackend().fm_state(h)
    scratch = state.kway_arrays()
    loop = getattr(_kway_move_loop, "py_func", _kway_move_loop)
    loop(
        h.xpins, h.pins, h.xnets, h.vnets, h.ncost, h.vwgt, parts.copy(),
        setup.occ, setup.connect, pw, ceilings, setup.base,
        setup.best_to, setup.best_gain, setup.insert_mask,
        np.random.default_rng(seed).permutation(h.nverts),
        scratch["head"], scratch["nxt"], scratch["prv"], scratch["inside"],
        scratch["locked"], scratch["moved"], scratch["moved_from"],
        state.max_gain, state.slack,
        fm_stall_limit(cfg.fm_early_exit_frac, h.nverts),
    )
    after_move = pw.states[1::2]
    return sum(bool(np.any(w > ceilings)) for w in after_move)


def _tight_case(case_seed):
    """A balanced start under ceilings at its heaviest part: feasible,
    but a transit-slack move overfills its target."""
    h, parts, k, _ = _case(case_seed, start="balanced")
    cap = int(part_weights(h, parts, k).max())
    return h, parts, k, np.full(k, cap, dtype=np.int64)


TIGHT_SEEDS = [0, 2, 9, 11]


@REGIMES
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", TIGHT_SEEDS)
def test_kway_fm_pass_transit_overweight_backend_equivalent(
    cfg, case_seed, sparse, monkeypatch
):
    """Tight ceilings: the pass starts feasible, some moves leave a part
    overweight (the rebalancing selection then runs mid-pass), and the
    python pass still equals the transliteration move for move."""
    _force_regime(monkeypatch, sparse)
    h, parts, k, ceilings = _tight_case(case_seed)
    assert bool(np.all(part_weights(h, parts, k) <= ceilings))
    assert _transit_overweight_moves(
        h, parts, k, ceilings, cfg, case_seed
    ) > 0
    outs = []
    for backend in (get_backend("python"), NumbaBackend()):
        p = parts.copy()
        res = backend.kway_fm_pass(
            backend.fm_state(h), p, k, ceilings, cfg,
            np.random.default_rng(case_seed),
        )
        outs.append((res, p))
    (r0, p0), (r1, p1) = outs
    assert r0 == r1
    np.testing.assert_array_equal(p0, p1)
    assert r0[1]  # feasible: the rollback keeps a feasible prefix
    assert bool(np.all(part_weights(h, p0, k) <= ceilings))
