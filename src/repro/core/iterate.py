"""The full iterative method (paper Section V, future work).

Algorithm 2 exploits the medium-grain encoding freedom only for *local*
refinement (one single-level KL run per iteration).  The paper's closing
section sketches the natural escalation:

    "Instead of using this idea for iterative refinement only, [...] one
    can also design a full iterative method, where a full multi-level
    partitioning is performed in each iteration.  This would present an
    entirely new method [...] where one could trade computation time for
    solution quality, by using more or less iterations."

This module implements that method.  Iteration 0 is a standard
medium-grain run (Algorithm-1 split).  Iteration ``k`` re-encodes the best
bipartitioning found so far as a split (alternating the direction like
Algorithm 2), builds the composite hypergraph, and runs the *entire
multilevel partitioner* on it from scratch — coarsening included — which
can escape local optima that single-level FM cannot.  The best result is
kept, so quality is monotone in the iteration count; each iteration costs
roughly one full medium-grain partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.medium_grain import build_medium_grain
from repro.core.refine import iterative_refine
from repro.core.split import initial_split, split_from_bipartition
from repro.errors import PartitioningError
from repro.partitioner.bipartition import bipartition_hypergraph
from repro.partitioner.config import PartitionerConfig, get_config
from repro.sparse.matrix import SparseMatrix
from repro.utils.balance import max_allowed_part_size
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_eps

__all__ = ["FullIterativeResult", "full_iterative_bipartition"]


@dataclass
class FullIterativeResult:
    """Outcome of the full iterative method.

    Attributes
    ----------
    parts:
        Best bipartitioning found (0/1 per canonical nonzero).
    volume:
        Its communication volume.
    volumes:
        Best-so-far volume after each iteration (length ``iterations+1``;
        index 0 is the initial medium-grain run).  Non-increasing.
    attempt_volumes:
        The raw volume produced by each re-partitioning attempt (not
        monotone — attempts may regress and are then discarded).
    seconds:
        Total wall-clock time.
    feasible:
        Whether the best partitioning satisfies the ceilings.
    """

    parts: np.ndarray
    volume: int
    volumes: list[int] = field(default_factory=list)
    attempt_volumes: list[int] = field(default_factory=list)
    seconds: float = 0.0
    feasible: bool = True


def full_iterative_bipartition(
    matrix: SparseMatrix,
    iterations: int = 4,
    eps: float = 0.03,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    *,
    refine_each: bool = True,
    max_weights: tuple[int, int] | None = None,
) -> FullIterativeResult:
    """Bipartition by repeated full multilevel medium-grain runs.

    Parameters
    ----------
    matrix:
        Matrix to bipartition.
    iterations:
        Number of re-partitioning iterations *after* the initial run.
        ``iterations=0`` reduces to plain medium-grain (+IR when
        ``refine_each``).
    eps, config, seed:
        As for :func:`repro.core.methods.bipartition`.
    refine_each:
        Run Algorithm-2 iterative refinement after every multilevel run
        (the strongest configuration; the paper's suggestion composes both
        mechanisms).
    max_weights:
        Optional explicit per-side ceilings overriding ``eps``.

    Returns
    -------
    FullIterativeResult
    """
    if iterations < 0:
        raise PartitioningError(
            f"iterations must be non-negative, got {iterations}"
        )
    cfg = get_config(config)
    rng = as_generator(seed)
    if max_weights is None:
        check_eps(eps)
        ceiling = max_allowed_part_size(matrix.nnz, 2, eps)
        max_weights = (ceiling, ceiling)

    timer = Timer()
    with timer:
        # Iteration 0: the standard medium-grain pipeline.
        split = initial_split(matrix, rng)
        best_parts, best_vol = _partition_split(
            matrix, split, cfg, rng, max_weights, refine_each, eps
        )
        volumes = [best_vol]
        attempts = [best_vol]

        direction = 0
        for _ in range(iterations):
            split = split_from_bipartition(matrix, best_parts, direction)
            direction = 1 - direction
            parts, vol = _partition_split(
                matrix, split, cfg, rng, max_weights, refine_each, eps
            )
            attempts.append(vol)
            if vol < best_vol:
                best_parts, best_vol = parts, vol
            volumes.append(best_vol)

    sizes = np.bincount(best_parts, minlength=2)
    return FullIterativeResult(
        parts=best_parts,
        volume=best_vol,
        volumes=volumes,
        attempt_volumes=attempts,
        seconds=timer.elapsed,
        feasible=bool(
            sizes[0] <= max_weights[0] and sizes[1] <= max_weights[1]
        ),
    )


def _partition_split(
    matrix: SparseMatrix,
    split,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    max_weights: tuple[int, int],
    refine_each: bool,
    eps: float,
) -> tuple[np.ndarray, int]:
    """One full multilevel run on a given split (+ optional Algorithm 2).

    The per-iteration volume evaluations are hoisted away: the medium-
    grain connectivity-1 cut *is* the matrix volume (eqn (6)), so the
    multilevel result's cut seeds Algorithm 2's ``initial_volume`` and
    the refinement trace's final entry is the returned volume — no
    :func:`~repro.core.volume.communication_volume` call per iteration.
    """
    instance = build_medium_grain(split)
    hres = bipartition_hypergraph(
        instance.hypergraph, eps, cfg, rng, max_weights=max_weights,
    )
    parts = instance.nonzero_parts(hres.parts)
    if not refine_each:
        return parts, hres.cut
    parts, trace = iterative_refine(
        matrix, parts, eps, cfg, rng, max_weights=max_weights,
        initial_volume=hres.cut,
    )
    return parts, trace.final_volume
