"""Golden-value regression tests.

Every algorithm in the package is deterministic given a seed, so a fixed
(instance, method, seed) triple must always produce the same volume.
These pins catch *silent behavioural drift* — a refactor that keeps the
tests green but changes results (different matching order, altered gain
update, reseeded RNG path) breaks them immediately.

If a change intentionally alters results (e.g. a quality improvement),
regenerate the table below and say so in the commit:

    python -c "..."  # see the generation snippet in the repo history

Re-pinned once, deliberately, when the coarsest-level initial
partitioning changed from eight greedy/random restarts to one greedy
grow plus one spectral sweep (14 of the 24 bipartition volumes moved,
by -5 to +3; geomean bipartition volume over the small and medium
collection tiers stayed within +1.5% for every paper method).

Re-pinned once more when coarsening moved from pair matching to
clustering (no member limit, each level's sweep stopping at the coarse
target): 9 of the 24 bipartition volumes moved, by -6 to +3, the
``sqr_cl_m`` long-pass pin by -1 and the recursive p=8 pin from
(108, 153) to (111, 155); the paper's Table I volume shape holds (see
docs/performance.md, "Clustering coarsening").
"""

import pytest

from repro import bipartition, initial_split, load_instance, partition

# (instance, method, refine) -> volume at seed 2014
GOLDEN_BIPARTITION = {
    ("sym_gd97_like", "localbest", False): 30,
    ("sym_gd97_like", "localbest", True): 29,
    ("sym_gd97_like", "finegrain", False): 28,
    ("sym_gd97_like", "finegrain", True): 28,
    ("sym_gd97_like", "mediumgrain", False): 30,
    ("sym_gd97_like", "mediumgrain", True): 30,
    ("sqr_er_s", "localbest", False): 137,
    ("sqr_er_s", "localbest", True): 122,
    ("sqr_er_s", "finegrain", False): 124,
    ("sqr_er_s", "finegrain", True): 123,
    ("sqr_er_s", "mediumgrain", False): 127,
    ("sqr_er_s", "mediumgrain", True): 123,
    ("rec_td_small_a", "localbest", False): 39,
    ("rec_td_small_a", "localbest", True): 33,
    ("rec_td_small_a", "finegrain", False): 37,
    ("rec_td_small_a", "finegrain", True): 36,
    ("rec_td_small_a", "mediumgrain", False): 41,
    ("rec_td_small_a", "mediumgrain", True): 37,
    ("sym_grid2d_s", "localbest", False): 32,
    ("sym_grid2d_s", "localbest", True): 32,
    ("sym_grid2d_s", "finegrain", False): 32,
    ("sym_grid2d_s", "finegrain", True): 32,
    ("sym_grid2d_s", "mediumgrain", False): 32,
    ("sym_grid2d_s", "mediumgrain", True): 32,
}

SEED = 2014

# MG+IR volumes at seed 2014 where FM passes run long enough for the
# stall cap to matter.  The pins above all sit below it; the two large
# instances run medium-grain hypergraphs of 6,092 and 6,906 vertices,
# where the 512-move cap binds, and ``sqr_cl_m`` moves (234 -> 240)
# under a 256-move cap.  Pinned from the uncapped code, so they also
# pin that the 512 cap leaves these answers unchanged (``sqr_cl_m`` was
# 234 under pair matching).
GOLDEN_MG_IR_LONG_PASSES = {
    "sym_grid2d_l": 156,
    "sqr_band_l": 6,
    "sqr_cl_m": 233,
}


@pytest.mark.parametrize(
    "instance,method,refine",
    sorted(GOLDEN_BIPARTITION),
    ids=lambda v: str(v),
)
def test_bipartition_volumes_pinned(instance, method, refine):
    matrix = load_instance(instance)
    result = bipartition(
        matrix, method=method, refine=refine, seed=SEED
    )
    assert result.volume == GOLDEN_BIPARTITION[(instance, method, refine)]


@pytest.mark.parametrize("instance", sorted(GOLDEN_MG_IR_LONG_PASSES))
def test_long_pass_mg_ir_volumes_pinned(instance):
    matrix = load_instance(instance)
    result = bipartition(
        matrix, method="mediumgrain", refine=True, seed=SEED
    )
    assert result.volume == GOLDEN_MG_IR_LONG_PASSES[instance]


def test_recursive_p8_pinned():
    """Pinned under the position-keyed seed streams: every bisection
    derives its RNG from the node's tree path (the scheme that makes the
    parallel recursion bit-identical to serial), so this value is stable
    for every ``jobs``.  Regenerated when that scheme replaced the
    traversal-order stream (previously (110, 152)), again when the
    spectral sweep joined the coarsest-level candidates (previously
    (107, 153)), and when clustering replaced pair matching
    (previously (108, 153))."""
    matrix = load_instance("sym_grid2d_s")
    result = partition(
        matrix, 8, method="mediumgrain", refine=True, seed=SEED
    )
    assert (result.volume, result.max_part) == (111, 155)


def test_initial_split_pinned():
    matrix = load_instance("sym_gd97_like")
    split = initial_split(matrix, seed=SEED)
    assert int(split.ar_mask.sum()) == 112
