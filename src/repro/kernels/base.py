"""Interface of the partitioner's kernels.

A kernel backend owns the scalar hot loops of the partitioner — the
2-way and k-way FM move loops and the coarsening clustering sweep —
behind a uniform, state-passing API.  Everything
*around* the loops (vectorized pass setup, RNG consumption, validation,
pass orchestration) lives outside it.  The python kernels
(:class:`~repro.kernels.python_backend.PythonBackend`) are the one
implementation; the interface is the seam through which the benchmark
harness injects its frozen baselines.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.state import FMPassState

__all__ = ["KernelBackend"]


class KernelBackend:
    """Base class for kernel backends (see :mod:`repro.kernels`).

    Subclasses set :attr:`name` and implement the kernels.  The contract
    for every kernel: bit-identical results to the python kernels for
    the same inputs and RNG stream.
    """

    #: Key of this backend's cached :class:`FMPassState`.
    name: str = "abstract"

    def fm_state(self, h: Hypergraph) -> FMPassState:
        """The (cached) reusable pass state for ``h`` under this backend."""
        return FMPassState.for_hypergraph(h, self.name)

    # ------------------------------------------------------------------ #
    # The hot loops.
    # ------------------------------------------------------------------ #
    def fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        maxw: tuple[int, int],
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool, int]:
        """One FM pass; mutates ``parts`` in place.

        Returns ``(cut delta, feasible, tried)``: *delta* is the cut
        reduction of the applied best prefix, *feasible* whether the
        result honours ``maxw``, and *tried* the number of moves the
        pass made before rolling back to that prefix.  The pass stops
        after :func:`~repro.kernels.state.fm_stall_limit` moves in a row
        that do not improve the best prefix.
        """
        raise NotImplementedError

    def kway_fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        nparts: int,
        ceilings: np.ndarray,
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool, int]:
        """One k-way FM pass on the connectivity-(λ−1) metric; mutates
        ``parts`` in place.

        ``parts`` holds part ids in ``[0, nparts)``; ``ceilings`` the
        per-part weight ceilings (length ``nparts``).  The move loop
        maintains per-net part-occupancy counts and exact connectivity
        gains (see :mod:`repro.kernels.kway`), applies the best feasible
        prefix, and returns ``(cut delta, feasible, tried)`` exactly like
        :meth:`fm_pass`.
        """
        raise NotImplementedError

    def cluster_vertices(
        self,
        state: FMPassState,
        order: np.ndarray,
        absorption: bool,
        max_net: int,
        max_cluster_weight: int,
        max_members: int | None,
        min_clusters: int,
        restrict_parts: np.ndarray | None,
        deadline=None,
    ) -> np.ndarray:
        """Greedy clustering sweep in the given visit ``order``.

        A visited vertex that no cluster holds yet scores the clusters
        of the pins on its nets of at most ``max_net`` pins (cost, or
        ``cost / (size - 1)`` with ``absorption``, per shared net) and
        joins the best one whose weight plus its own fits
        ``max_cluster_weight`` and which holds fewer than
        ``max_members`` vertices (``None``: no limit).  Ties go to the
        lighter cluster, then to the first one touched.  With
        ``restrict_parts`` only same-part clusters qualify.  The sweep
        ends once only ``min_clusters`` clusters are left (``0``: it
        visits the whole order).

        Returns the cluster map: vertices with equal entries form one
        cluster, and each entry is a vertex of that cluster.  At
        ``max_members=2`` and ``min_clusters=0`` the sweep is the greedy
        pair matching.  A
        ``deadline`` is checked during the sweep, which raises
        :class:`~repro.utils.deadline.Expired` once it has expired;
        callers pass one only when they have one, so a kernel without
        the parameter serves every unbounded run.
        """
        raise NotImplementedError
