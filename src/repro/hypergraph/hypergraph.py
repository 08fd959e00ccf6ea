"""Compressed hypergraph data structure.

:class:`Hypergraph` stores the net→pin incidence in CSR form (``xpins`` /
``pins``) together with integer vertex weights and net costs, mirroring the
layouts used by PaToH and Mondriaan.  The transposed vertex→net incidence
(``xnets`` / ``vnets``) is built lazily with a vectorized counting sort and
cached — the partitioner traverses both directions constantly.

Structural invariants (enforced at construction):

* ``xpins`` is non-decreasing with ``xpins[0] == 0`` and
  ``xpins[-1] == len(pins)``;
* every pin is a valid vertex id;
* no net contains the same vertex twice (pin-count bookkeeping in FM relies
  on this);
* vertex weights and net costs are non-negative.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import HypergraphError

__all__ = ["Hypergraph"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class Hypergraph:
    """An immutable hypergraph in CSR (net→pins) representation.

    Parameters
    ----------
    nverts:
        Number of vertices ``|V|`` (vertices are ``0 .. nverts-1``; isolated
        vertices — in no net — are allowed).
    xpins:
        Net pointer array of length ``nnets + 1``.
    pins:
        Concatenated pin (vertex id) lists of all nets.
    vwgt:
        Vertex weights (``int64``, length ``nverts``).  Defaults to ones.
    ncost:
        Net costs (``int64``, length ``nnets``).  Defaults to ones.
    validate:
        Skip the structural validation when false (used internally by the
        coarsener whose outputs are valid by construction).
    """

    __slots__ = (
        "nverts", "nnets", "xpins", "pins", "vwgt", "ncost", "_cache",
        "__weakref__",
    )

    def __init__(
        self,
        nverts: int,
        xpins: np.ndarray,
        pins: np.ndarray,
        vwgt: Optional[np.ndarray] = None,
        ncost: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
    ) -> None:
        if nverts < 0:
            raise HypergraphError(f"nverts must be >= 0, got {nverts}")
        xpins = np.asarray(xpins, dtype=np.int64).ravel()
        pins = np.asarray(pins, dtype=np.int64).ravel()
        if xpins.size == 0:
            raise HypergraphError("xpins must have length nnets + 1 >= 1")
        nnets = xpins.size - 1
        if vwgt is None:
            vwgt = np.ones(nverts, dtype=np.int64)
        else:
            vwgt = np.asarray(vwgt, dtype=np.int64).ravel()
        if ncost is None:
            ncost = np.ones(nnets, dtype=np.int64)
        else:
            ncost = np.asarray(ncost, dtype=np.int64).ravel()

        if validate:
            if xpins[0] != 0 or xpins[-1] != pins.size:
                raise HypergraphError(
                    "xpins must start at 0 and end at len(pins) "
                    f"(got {xpins[0]}..{xpins[-1]}, pins={pins.size})"
                )
            if np.any(np.diff(xpins) < 0):
                raise HypergraphError("xpins must be non-decreasing")
            if pins.size and (pins.min() < 0 or pins.max() >= nverts):
                raise HypergraphError("pin vertex ids out of range")
            if vwgt.size != nverts:
                raise HypergraphError(
                    f"vwgt length {vwgt.size} != nverts {nverts}"
                )
            if ncost.size != nnets:
                raise HypergraphError(
                    f"ncost length {ncost.size} != nnets {nnets}"
                )
            if vwgt.size and vwgt.min() < 0:
                raise HypergraphError("vertex weights must be non-negative")
            if ncost.size and ncost.min() < 0:
                raise HypergraphError("net costs must be non-negative")
            # Duplicate pins within a net break FM pin-count bookkeeping.
            if pins.size:
                net_ids = np.repeat(np.arange(nnets), np.diff(xpins))
                order = np.lexsort((pins, net_ids))
                sn, sp = net_ids[order], pins[order]
                dup = (sn[1:] == sn[:-1]) & (sp[1:] == sp[:-1])
                if dup.any():
                    bad = int(sn[1:][dup][0])
                    raise HypergraphError(
                        f"net {bad} contains a duplicate pin"
                    )

        self.nverts = int(nverts)
        self.nnets = int(nnets)
        self.xpins = _readonly(xpins)
        self.pins = _readonly(pins)
        self.vwgt = _readonly(vwgt)
        self.ncost = _readonly(ncost)
        self._cache: dict = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_net_lists(
        cls,
        nverts: int,
        nets: Sequence[Iterable[int]],
        vwgt: Optional[np.ndarray] = None,
        ncost: Optional[np.ndarray] = None,
    ) -> "Hypergraph":
        """Build from an explicit list of pin lists (small graphs / tests)."""
        net_lists = [list(n) for n in nets]
        sizes = np.array([len(n) for n in net_lists], dtype=np.int64)
        xpins = np.zeros(len(net_lists) + 1, dtype=np.int64)
        np.cumsum(sizes, out=xpins[1:])
        pins = (
            np.concatenate([np.asarray(n, dtype=np.int64) for n in net_lists])
            if net_lists and xpins[-1] > 0
            else np.empty(0, dtype=np.int64)
        )
        return cls(nverts, xpins, pins, vwgt, ncost)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def npins(self) -> int:
        """Total number of pins (sum of net sizes)."""
        return self.pins.size

    def net_sizes(self) -> np.ndarray:
        """Size of each net (vectorized ``diff`` of the pointer array)."""
        out = self._cache.get("net_sizes")
        if out is None:
            out = _readonly(np.diff(self.xpins))
            self._cache["net_sizes"] = out
        return out

    def net_ids(self) -> np.ndarray:
        """Net id of every pin, aligned with :attr:`pins` (cached).

        Equivalent to ``np.repeat(np.arange(nnets), net_sizes())``; FM
        setup, the transpose builder, the gain bound, the connectivity
        metric, and contraction all need this expansion, so it is computed
        once per hypergraph (hypergraphs are immutable).
        """
        out = self._cache.get("net_ids")
        if out is None:
            out = _readonly(
                np.repeat(
                    np.arange(self.nnets, dtype=np.int64), self.net_sizes()
                )
            )
            self._cache["net_ids"] = out
        return out

    def net_pins(self, net: int) -> np.ndarray:
        """Pins of one net as a read-only view."""
        return self.pins[self.xpins[net] : self.xpins[net + 1]]

    def total_weight(self) -> int:
        """Sum of all vertex weights."""
        return int(self.vwgt.sum())

    # ------------------------------------------------------------------ #
    # Transposed incidence (vertex -> nets), built lazily
    # ------------------------------------------------------------------ #
    def _build_transpose(self) -> tuple[np.ndarray, np.ndarray]:
        cached = self._cache.get("transpose")
        if cached is None:
            deg = np.bincount(self.pins, minlength=self.nverts)
            xnets = np.zeros(self.nverts + 1, dtype=np.int64)
            np.cumsum(deg, out=xnets[1:])
            # Sort (pin -> net) pairs by pin id, net id as tie-break.
            # The pairs are unique (no duplicate pins within a net), so
            # an unstable sort of the combined key pin * nnets + net
            # equals the stable sort of pins alone — and quicksort on
            # one int64 key is ~3x faster than a stable argsort here.
            net_ids = self.net_ids()
            if self.nnets > 0 and self.nverts < 2**62 // self.nnets:
                order = np.argsort(self.pins * np.int64(self.nnets) + net_ids)
            else:  # combined key could overflow: keep the stable sort
                order = np.argsort(self.pins, kind="stable")
            vnets = net_ids[order]
            cached = (_readonly(xnets), _readonly(vnets))
            self._cache["transpose"] = cached
        return cached

    @property
    def xnets(self) -> np.ndarray:
        """Vertex pointer array of the transposed incidence (length nverts+1)."""
        return self._build_transpose()[0]

    @property
    def vnets(self) -> np.ndarray:
        """Concatenated net lists per vertex (aligned with :attr:`xnets`)."""
        return self._build_transpose()[1]

    def vertex_nets(self, v: int) -> np.ndarray:
        """Nets containing vertex ``v`` as a read-only view."""
        xnets, vnets = self._build_transpose()
        return vnets[xnets[v] : xnets[v + 1]]

    def vertex_degrees(self) -> np.ndarray:
        """Number of nets incident to each vertex."""
        out = self._cache.get("degrees")
        if out is None:
            out = _readonly(np.bincount(self.pins, minlength=self.nverts))
            self._cache["degrees"] = out
        return out

    def max_vertex_net_cost(self) -> int:
        """``max_v sum(ncost[n] for n containing v)`` — the FM gain bound."""
        out = self._cache.get("max_net_cost")
        if out is None:
            if self.npins == 0:
                out = 0
            else:
                costs = self.ncost[self.net_ids()]
                tot = np.zeros(self.nverts, dtype=np.int64)
                np.add.at(tot, self.pins, costs)
                out = int(tot.max(initial=0))
            self._cache["max_net_cost"] = out
        return out

    # ------------------------------------------------------------------ #
    # Induced sub-hypergraphs
    # ------------------------------------------------------------------ #
    def induce(self, vertices: np.ndarray) -> "Hypergraph":
        """Sub-hypergraph induced by a vertex subset.

        ``vertices`` is an array of distinct vertex ids; vertex ``i`` of
        the result corresponds to ``vertices[i]`` (weights follow).
        Nets are restricted to their kept pins; nets left with fewer
        than two pins are dropped (they can never be cut).  Fully
        vectorized — used by the recursive-bisection construction of
        initial k-way partitionings, where sub-hypergraphs of the
        coarsest level are bipartitioned independently.
        """
        vertices = np.asarray(vertices, dtype=np.int64).ravel()
        new_id = np.full(self.nverts, -1, dtype=np.int64)
        new_id[vertices] = np.arange(vertices.size, dtype=np.int64)
        keep_pin = new_id[self.pins] >= 0
        net_ids = self.net_ids()
        kept_counts = np.bincount(
            net_ids[keep_pin], minlength=self.nnets
        )
        keep_net = kept_counts >= 2
        keep = keep_pin & keep_net[net_ids]
        sizes = kept_counts[keep_net]
        xpins = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=xpins[1:])
        return Hypergraph(
            vertices.size,
            xpins,
            new_id[self.pins[keep]],
            vwgt=self.vwgt[vertices],
            ncost=self.ncost[keep_net],
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # Cosmetics
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hypergraph(nverts={self.nverts}, nnets={self.nnets}, "
            f"npins={self.npins})"
        )
