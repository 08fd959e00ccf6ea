"""Partitioner configuration and the two named presets.

The paper evaluates every method under two hypergraph partitioners
(Mondriaan's internal one, Figs. 4–5 and Table I; and PaToH, Fig. 6 and
Table II) to show its conclusions are partitioner-robust.  We mirror that
with two presets of the same multilevel engine that differ in coarsening
style, search effort, and refinement scope — genuinely different
quality/speed trade-offs, not just different seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitioningError
from repro.kernels import KernelBackend

__all__ = ["PartitionerConfig", "get_config", "PRESETS", "ALGO_CHOICES"]

#: Valid values of ``PartitionerConfig.algo`` / the ``--algo`` CLI flag:
#: how a p-way partitioning is produced (see
#: :func:`repro.core.recursive.partition`).  Defined here (a leaf module)
#: so the config, the CLI, and the sweep engine share one registry;
#: ``repro.core.methods`` re-exports it as ``ALGO_NAMES``.
ALGO_CHOICES = ("recursive", "kway")


@dataclass(frozen=True)
class PartitionerConfig:
    """Tuning knobs of the multilevel bipartitioner.

    Attributes
    ----------
    name:
        Preset identifier (informational).
    coarse_target:
        Stop coarsening once the hypergraph has at most this many vertices.
    matching:
        The clustering score: ``"hcm"`` — heavy connectivity, the sum of
        the net costs a vertex shares with a cluster; ``"absorption"`` —
        PaToH-style scaled score ``cost / (|net| - 1)``.
    max_net_size_matching:
        Nets larger than this are ignored while scoring clusters (dense
        rows would otherwise make clustering quadratic).
    fm_max_passes:
        Maximum FM passes per refinement call.
    fm_early_exit_frac:
        Abort a pass after ``max(32, min(int(frac * nverts), 512))``
        consecutive moves without improving on the best prefix (see
        :func:`repro.kernels.state.fm_stall_limit`).  The 512 cap binds
        from 2,332 vertices at the default 0.22 and from 1,710 at 0.3.
    boundary_only:
        Seed FM's buckets with boundary vertices only (vertices on cut
        nets), inserting interior vertices lazily when touched.
    kernel_backend:
        ``None`` (the default): the python kernels of
        :mod:`repro.kernels` run the scalar hot loops.  The field exists
        only as the seam through which the benchmark harness injects a
        frozen :class:`~repro.kernels.KernelBackend` instance; it is not
        a user option, and a string value is rejected.
    algo:
        How ``partition(matrix, nparts)`` produces a p-way partitioning:
        ``"recursive"`` (the paper's recursive-bisection scheme, default)
        or ``"kway"`` (the direct k-way partitioner of
        :mod:`repro.core.kway`, optimizing the connectivity-(λ−1) volume
        in one shot).  This genuinely changes the result — the two
        algorithms explore different search spaces; it does *not* change
        results across ``partition``'s ``jobs`` values within either
        algorithm.
    kway_vcycles:
        Multilevel cycles of the direct k-way partitioner
        (``algo="kway"``; see :mod:`repro.core.kway`).  Cycle 1 (the
        default runs only this one) is a full multilevel construction
        (unrestricted coarsening, recursive-bisection coarsest level,
        k-way-FM refinement at every level on the way up —
        :func:`repro.partitioner.multilevel.multilevel_kway`), and each
        further cycle is an hMetis-style *restricted* V-cycle
        (:func:`repro.partitioner.vcycle.kway_vcycle_refine`) that
        re-coarsens respecting the current partitioning and can move
        whole clusters between parts.  This genuinely changes the result
        (better volume for more time); within a fixed value results stay
        bit-identical across ``jobs``.
        The config accepts ``0`` because the recursive algorithm never
        reads the field, but the k-way partitioner rejects it: ``0``
        selected the flat single-level path, which was removed.

    The knobs that only decide how a run executes — the worker count
    and the retry policy — are not fields: they are the ``jobs`` and
    ``policy`` arguments of :func:`repro.core.recursive.partition`.
    The coarsening limits both presets share — the cluster weight cap,
    the stall threshold and the level cap — are not fields either: they
    are constants of :mod:`repro.partitioner.coarsen`.
    """

    name: str = "mondriaan"
    coarse_target: int = 144
    matching: str = "hcm"
    max_net_size_matching: int = 400
    fm_max_passes: int = 4
    fm_early_exit_frac: float = 0.22
    boundary_only: bool = False
    kernel_backend: KernelBackend | None = None
    algo: str = "recursive"
    kway_vcycles: int = 1

    def __post_init__(self) -> None:
        if self.matching not in ("hcm", "absorption"):
            raise PartitioningError(
                f"unknown matching scheme {self.matching!r}"
            )
        if self.kernel_backend is not None and not isinstance(
            self.kernel_backend, KernelBackend
        ):
            raise PartitioningError(
                f"kernel_backend={self.kernel_backend!r}: the kernel "
                f"backends were removed; the python kernels always run "
                f"(leave kernel_backend unset)"
            )
        if self.coarse_target < 2:
            raise PartitioningError("coarse_target must be at least 2")
        if self.fm_max_passes < 1:
            raise PartitioningError("fm_max_passes must be at least 1")
        if self.algo not in ALGO_CHOICES:
            raise PartitioningError(
                f"unknown partitioning algorithm {self.algo!r}; "
                f"expected one of {ALGO_CHOICES}"
            )
        if self.kway_vcycles < 0:
            raise PartitioningError("kway_vcycles must be non-negative")


PRESETS: dict[str, PartitionerConfig] = {
    "mondriaan": PartitionerConfig(name="mondriaan"),
    "patoh": PartitionerConfig(
        name="patoh",
        coarse_target=72,
        matching="absorption",
        max_net_size_matching=256,
        fm_max_passes=7,
        fm_early_exit_frac=0.3,
        boundary_only=True,
    ),
}


def get_config(config: "PartitionerConfig | str") -> PartitionerConfig:
    """Resolve a preset name or pass through an explicit config object."""
    if isinstance(config, PartitionerConfig):
        return config
    if isinstance(config, str):
        try:
            return PRESETS[config]
        except KeyError:
            raise PartitioningError(
                f"unknown partitioner preset {config!r}; "
                f"available: {sorted(PRESETS)}"
            ) from None
    raise PartitioningError(
        f"config must be a PartitionerConfig or preset name, got "
        f"{type(config).__name__}"
    )
