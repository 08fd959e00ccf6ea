"""The bipartitioning methods compared in the paper.

Six labelled methods appear in the experiments (Figs. 4–6, Tables I–II):

==========  ==========================================================
``LB``      *localbest* — run both 1D models (row-net and column-net)
            and keep the lower-volume result; Mondriaan's default up to
            version 3.11.
``FG``      fine-grain — the 2D state of the art prior to this paper.
``MG``      medium-grain — the paper's method: Algorithm-1 split,
            composite hypergraph, multilevel bipartitioning, eqn-(5)
            mapping.
``*+IR``    any of the above followed by Algorithm-2 iterative
            refinement.
==========  ==========================================================

The pure 1D models (``rownet``, ``colnet``) are also exposed — the paper
uses them in the Fig. 3 walk-through.

:func:`bipartition` is the single entry point; it measures wall-clock
partitioning time (the paper's second metric) and returns a
:class:`BipartitionResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.floor import keep_best
from repro.core.medium_grain import build_medium_grain
from repro.core.refine import RefinementTrace, iterative_refine
from repro.core.split import initial_split
from repro.core.volume import load_balance, max_part_size, part_sizes
from repro.errors import PartitioningError
from repro.hypergraph.models import (
    HypergraphModel,
    column_net_model,
    fine_grain_model,
    row_net_model,
)
from repro.partitioner.bipartition import bipartition_hypergraph
from repro.partitioner.config import (
    ALGO_CHOICES,
    PartitionerConfig,
    get_config,
)
from repro.sparse.matrix import SparseMatrix
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, Degraded, observe_overshoot
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_eps

__all__ = ["METHOD_NAMES", "ALGO_NAMES", "BipartitionResult", "bipartition"]

METHOD_NAMES = (
    "rownet",
    "colnet",
    "localbest",
    "finegrain",
    "mediumgrain",
)

#: The registered p-way partitioning algorithms every method above can
#: run under (see :func:`repro.core.recursive.partition`'s ``algo``):
#: ``"recursive"`` — recursive bisection, each split a full method run;
#: ``"kway"`` — the direct k-way partitioner (:mod:`repro.core.kway`)
#: optimizing the connectivity-(λ−1) volume in one shot.
ALGO_NAMES = ALGO_CHOICES


@dataclass
class BipartitionResult:
    """Outcome of one bipartitioning run.

    Attributes
    ----------
    parts:
        Part id (0/1) per canonical nonzero of the matrix.
    volume:
        Communication volume ``V`` (eqn (3)).
    method:
        Method name, with ``"+ir"`` appended when refinement ran.
    max_part:
        ``max(|A_0|, |A_1|)``.
    feasible:
        Whether the eqn-(1) constraint holds for the ceilings used.
    imbalance:
        Achieved ``max_k |A_k| / (N/2) - 1``.
    seconds:
        Wall-clock partitioning time, including the model build, the
        multilevel run, the mapping back, and (when enabled) iterative
        refinement — matching what the paper times.
    refinement:
        The Algorithm-2 trace when ``refine=True``, else ``None``.
    details:
        Free-form diagnostics (e.g. which 1D model localbest chose).
    degraded:
        The :class:`~repro.utils.deadline.Degraded` records of every
        run a deadline cut short (multilevel runs, then the iterate
        loop); empty when nothing was cut.
    """

    parts: np.ndarray
    volume: int
    method: str
    max_part: int
    feasible: bool
    imbalance: float
    seconds: float
    refinement: Optional[RefinementTrace] = None
    details: dict = field(default_factory=dict)
    degraded: tuple[Degraded, ...] = ()


def bipartition(
    matrix: SparseMatrix,
    method: str = "mediumgrain",
    eps: float = 0.03,
    refine: bool = False,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    *,
    max_weights: tuple[int, int] | None = None,
    deadline: Deadline | None = None,
) -> BipartitionResult:
    """Bipartition a sparse matrix with one of the paper's methods.

    Parameters
    ----------
    matrix:
        Matrix to bipartition.
    method:
        One of :data:`METHOD_NAMES`.
    eps:
        Load-imbalance fraction (paper default 0.03).
    refine:
        Apply Algorithm-2 iterative refinement afterwards (the ``+IR``
        variants).
    config:
        Partitioner preset (``"mondriaan"`` or ``"patoh"``) or an explicit
        :class:`~repro.partitioner.config.PartitionerConfig`.
    seed:
        Seed or generator; a single seed fixes the entire run.
    max_weights:
        Optional per-side nonzero ceilings overriding ``eps`` (recursive
        bisection uses this).
    deadline:
        Optional anytime deadline.  The multilevel run checks it at its
        coarsening, coarsest-level and uncoarsening boundaries and
        inside its matching sweeps
        (:func:`repro.partitioner.multilevel.multilevel_bipartition`),
        and the ``refine=True`` iterate loop between iterations
        (:func:`repro.core.refine.iterative_refine`).  A cut-short run
        returns the best of its answer and the two contiguous splits
        (:func:`repro.core.floor.keep_best`), ranked by feasibility,
        then volume, and lists what was cut in ``degraded``.  ``None``
        (the default) is byte-for-byte the undeadlined run.

    Returns
    -------
    BipartitionResult
    """
    result = _bipartition(
        matrix, method, eps, refine, config, seed, max_weights, deadline
    )
    observe_overshoot(deadline, "bipartition")
    return result


def _bipartition(
    matrix: SparseMatrix,
    method: str,
    eps: float,
    refine: bool,
    config: PartitionerConfig | str,
    seed: SeedLike,
    max_weights: tuple[int, int] | None,
    deadline: Deadline | None,
) -> BipartitionResult:
    """:func:`bipartition` without the overshoot observation (recursive
    bisection calls this once per node and observes its own call)."""
    if method not in METHOD_NAMES:
        raise PartitioningError(
            f"unknown method {method!r}; expected one of {METHOD_NAMES}"
        )
    cfg = get_config(config)
    rng = as_generator(seed)
    if max_weights is None:
        check_eps(eps)
        ceiling = max_allowed_part_size(matrix.nnz, 2, eps)
        max_weights = (ceiling, ceiling)

    details: dict = {}
    timer = Timer()
    with timer:
        # Every engine returns its answer's connectivity-1 cut, which
        # *is* the matrix volume (eqn (6)); it seeds Algorithm 2 and the
        # floor comparison, so the answer is scored once.
        if method == "localbest":
            parts, volume, degraded = _run_localbest(
                matrix, eps, cfg, rng, max_weights, details, deadline
            )
        elif method == "mediumgrain":
            parts, volume, degraded = _run_medium_grain(
                matrix, eps, cfg, rng, max_weights, details, deadline
            )
        else:
            model = _build_model(matrix, method)
            parts, volume, degraded = _partition_model(
                model, eps, cfg, rng, max_weights, deadline
            )
        trace: Optional[RefinementTrace] = None
        if refine:
            parts, trace = iterative_refine(
                matrix,
                parts,
                eps,
                cfg,
                rng,
                max_weights=max_weights,
                initial_volume=volume,
                deadline=deadline,
            )
            volume = trace.final_volume
            if trace.degraded is not None:
                degraded += (trace.degraded,)
        if degraded:
            parts, volume = keep_best(matrix, parts, max_weights, volume)

    sizes = part_sizes(matrix, parts, 2)
    biggest, imbalance = load_balance(sizes, matrix.nnz)
    return BipartitionResult(
        parts=parts,
        volume=volume,
        method=method + ("+ir" if refine else ""),
        max_part=biggest,
        feasible=bool(
            sizes[0] <= max_weights[0] and sizes[1] <= max_weights[1]
        ),
        imbalance=imbalance,
        seconds=timer.elapsed,
        refinement=trace,
        details=details,
        degraded=degraded,
    )


def _build_model(matrix: SparseMatrix, method: str) -> HypergraphModel:
    if method == "rownet":
        return row_net_model(matrix)
    if method == "colnet":
        return column_net_model(matrix)
    if method == "finegrain":
        return fine_grain_model(matrix)
    raise PartitioningError(f"no hypergraph model for method {method!r}")


def _partition_model(
    model: HypergraphModel,
    eps: float,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    max_weights: tuple[int, int],
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, int, tuple[Degraded, ...]]:
    """Bipartition ``model``; returns the nonzero parts, their volume
    (the model's cut) and the degradation records."""
    result = bipartition_hypergraph(
        model.hypergraph, eps, cfg, rng, max_weights=max_weights,
        deadline=deadline,
    )
    degraded = (result.degraded,) if result.degraded else ()
    return model.nonzero_parts(result.parts), result.cut, degraded


def _run_localbest(
    matrix: SparseMatrix,
    eps: float,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    max_weights: tuple[int, int],
    details: dict,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, int, tuple[Degraded, ...]]:
    """Row-net and column-net, keep the lower communication volume
    (ties: better balance, then row-net)."""
    best_parts: np.ndarray | None = None
    best_key: tuple | None = None
    all_degraded: tuple[Degraded, ...] = ()
    for name in ("rownet", "colnet"):
        model = _build_model(matrix, name)
        parts, volume, degraded = _partition_model(
            model, eps, cfg, rng, max_weights, deadline
        )
        all_degraded += degraded
        key = (volume, max_part_size(matrix, parts, 2))
        if best_key is None or key < best_key:
            best_parts, best_key = parts, key
            details["localbest_choice"] = name
            details["localbest_volume"] = key[0]
    assert best_parts is not None
    return best_parts, best_key[0], all_degraded


def _run_medium_grain(
    matrix: SparseMatrix,
    eps: float,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    max_weights: tuple[int, int],
    details: dict,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, int, tuple[Degraded, ...]]:
    """Algorithm-1 split, composite hypergraph, multilevel bipartitioning,
    eqn-(5) mapping back to the nonzeros; returns the parts, their
    volume (the composite hypergraph's cut) and the degradation
    records."""
    split = initial_split(matrix, rng)
    instance = build_medium_grain(split)
    details["mg_vertices"] = instance.hypergraph.nverts
    details["mg_nets"] = instance.hypergraph.nnets
    result = bipartition_hypergraph(
        instance.hypergraph, eps, cfg, rng, max_weights=max_weights,
        deadline=deadline,
    )
    degraded = (result.degraded,) if result.degraded else ()
    return instance.nonzero_parts(result.parts), result.cut, degraded
