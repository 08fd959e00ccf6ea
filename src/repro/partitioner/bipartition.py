"""Public hypergraph-bipartitioning entry point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.multilevel import multilevel_bipartition
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_eps

__all__ = ["bipartition_hypergraph", "BipartitionHResult"]


@dataclass(frozen=True)
class BipartitionHResult:
    """Result of a hypergraph bipartitioning.

    Attributes
    ----------
    parts:
        Part id (0/1) per vertex.
    cut:
        Connectivity-1 cut (for two parts: total cost of cut nets).
    weights:
        ``(w0, w1)`` part weights.
    max_weights:
        The ceilings the run was given.
    feasible:
        Whether ``weights[k] <= max_weights[k]`` for both sides.
    degraded:
        The :class:`~repro.utils.deadline.Degraded` record when a
        deadline cut the multilevel run short, else ``None``.
    """

    parts: np.ndarray
    cut: int
    weights: tuple[int, int]
    max_weights: tuple[int, int]
    feasible: bool
    degraded: Degraded | None = None


def bipartition_hypergraph(
    h: Hypergraph,
    eps: float = 0.03,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_weights: tuple[int, int] | None = None,
    deadline: Deadline | None = None,
) -> BipartitionHResult:
    """Bipartition a hypergraph minimizing the connectivity-1 cut.

    Parameters
    ----------
    h:
        Hypergraph to split.
    eps:
        Load-imbalance fraction; each side may weigh at most
        ``(1 + eps) * W / 2`` (with the integer clamp of
        :func:`repro.utils.balance.max_allowed_part_size`).  Ignored when
        ``max_weights`` is given.
    config:
        Partitioner preset name (``"mondriaan"``, ``"patoh"``) or an
        explicit :class:`~repro.partitioner.config.PartitionerConfig`.
    seed:
        Seed or generator for all randomized decisions.
    max_weights:
        Optional explicit per-side ceilings, overriding ``eps`` (used by
        recursive bisection to hand down its global budget).
    deadline:
        Optional anytime deadline for the multilevel run, checked at its
        level boundaries (see
        :func:`~repro.partitioner.multilevel.multilevel_bipartition`).
        ``None`` is byte-for-byte the undeadlined run.

    Returns
    -------
    BipartitionHResult
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    if max_weights is None:
        check_eps(eps)
        total = h.total_weight()
        ceiling = max_allowed_part_size(total, 2, eps)
        max_weights = (ceiling, ceiling)
    else:
        max_weights = (int(max_weights[0]), int(max_weights[1]))
        if max_weights[0] < 0 or max_weights[1] < 0:
            raise PartitioningError("max_weights must be non-negative")
    if h.total_weight() > max_weights[0] + max_weights[1]:
        raise PartitioningError(
            f"total weight {h.total_weight()} exceeds combined ceilings "
            f"{max_weights}: infeasible"
        )

    result = multilevel_bipartition(h, max_weights, cfg, rng, deadline)
    weights = part_weights(h, result.parts, 2)
    cut = connectivity_volume(h, result.parts)
    return BipartitionHResult(
        parts=result.parts,
        cut=cut,
        weights=(int(weights[0]), int(weights[1])),
        max_weights=max_weights,
        feasible=bool(
            weights[0] <= max_weights[0] and weights[1] <= max_weights[1]
        ),
        degraded=result.degraded,
    )
