"""Abstract interface of a kernel backend.

A backend owns the three scalar hot loops of the partitioner — the FM
move loop, greedy-matching candidate scoring, and identical-net merging —
behind a uniform, state-passing API.  Everything *around* the loops
(vectorized pass setup, RNG consumption, validation, pass orchestration)
is shared, which is what makes backends bit-compatible: for a fixed
hypergraph and seed, every backend must return identical results.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.state import FMPassState

__all__ = ["KernelBackend"]


class KernelBackend:
    """Base class for kernel backends (see :mod:`repro.kernels`).

    Subclasses set :attr:`name` and implement the three kernels.  The
    contract for every kernel: bit-identical results to the ``"python"``
    reference backend for the same inputs and RNG stream.
    """

    #: Registry key; also the ``PartitionerConfig.kernel_backend`` value.
    name: str = "abstract"

    def fm_state(self, h: Hypergraph) -> FMPassState:
        """The (cached) reusable pass state for ``h`` under this backend."""
        return FMPassState.for_hypergraph(h, self.name)

    # ------------------------------------------------------------------ #
    # The three hot loops.
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

    def match_vertices(
        self,
        state: FMPassState,
        order: np.ndarray,
        absorption: bool,
        max_net: int,
        max_cluster_weight: int,
        restrict_parts: np.ndarray | None,
    ) -> np.ndarray:
        """Greedy matching sweep in the given visit ``order``.

        Returns the partner array (``-1`` for unmatched vertices).
        """
        raise NotImplementedError

    def merge_identical(
        self, xpins: np.ndarray, pins: np.ndarray, ncost: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge nets with identical (sorted) pin sets, summing costs."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The SpMV-side sequential kernel (see :mod:`repro.kernels.spmv`).
    # ------------------------------------------------------------------ #
    def greedy_owners(
        self,
        ptr: np.ndarray,
        flat: np.ndarray,
        extent: int,
        nparts: int,
        fallback_balance: np.ndarray,
    ) -> np.ndarray:
        """Greedy vector-owner assignment for one SpMV phase.

        ``(ptr, flat)`` is the CSR incidence list from
        :func:`repro.kernels.spmv.axis_incidences`.  The default is the
        reference scalar loop; backends may override it with a faster
        implementation under the usual bit-compatibility contract.
        """
        from repro.kernels.spmv import greedy_owners_reference

        return greedy_owners_reference(
            ptr, flat, extent, nparts, fallback_balance
        )
