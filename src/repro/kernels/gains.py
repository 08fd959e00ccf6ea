"""Array-based gain buckets for Fiduccia–Mattheyses refinement.

(Part of the kernel engine: the python FM move loop links and unlinks
these buckets directly.)

The classic FM data structure: one bucket array per side, each bucket a
doubly-linked list of vertices threaded through flat ``next``/``prev``
arrays, plus a moving ``max`` pointer per side.  All operations are O(1)
except ``pop_best``-style scans, which amortize against gain updates exactly
as in the original Fiduccia–Mattheyses design.

Implementation note (per the hpc-parallel performance guides): this
structure lives in FM's scalar hot loop, so plain Python ``list`` storage is
used instead of NumPy arrays — single-element reads/writes on lists are
2–3x faster than NumPy scalar indexing, and none of the operations here
vectorize.
"""

from __future__ import annotations

__all__ = ["GainBuckets"]


class GainBuckets:
    """Two-sided gain bucket lists over vertices ``0 .. nverts-1``.

    Parameters
    ----------
    nverts:
        Number of vertices.
    max_gain:
        Upper bound on ``|gain|`` of any vertex (the maximum total cost of
        nets incident to one vertex).  Gains outside the bound raise
        ``IndexError`` — by construction FM never produces them.
    """

    __slots__ = ("nverts", "offset", "nbuckets", "head", "nxt", "prv",
                 "gain", "inside", "maxptr")

    def __init__(self, nverts: int, max_gain: int) -> None:
        self.nverts = nverts
        self.offset = max_gain
        self.nbuckets = 2 * max_gain + 1
        # head[side][gain + offset] -> first vertex or -1
        self.head = [[-1] * self.nbuckets, [-1] * self.nbuckets]
        self.nxt = [-1] * nverts
        self.prv = [-1] * nverts
        self.gain = [0] * nverts
        self.inside = [False] * nverts
        # Highest possibly-non-empty bucket per side (monotone scan cursor).
        self.maxptr = [-1, -1]

    # ------------------------------------------------------------------ #
    def insert(self, v: int, side: int, gain: int) -> None:
        """Insert free vertex ``v`` (currently on ``side``) with ``gain``."""
        b = gain + self.offset
        head = self.head[side]
        first = head[b]
        self.nxt[v] = first
        self.prv[v] = -1
        if first != -1:
            self.prv[first] = v
        head[b] = v
        self.gain[v] = gain
        self.inside[v] = True
        if b > self.maxptr[side]:
            self.maxptr[side] = b

    def remove(self, v: int, side: int) -> None:
        """Remove vertex ``v`` from its bucket on ``side``."""
        if not self.inside[v]:
            return
        p, n = self.prv[v], self.nxt[v]
        if p != -1:
            self.nxt[p] = n
        else:
            self.head[side][self.gain[v] + self.offset] = n
        if n != -1:
            self.prv[n] = p
        self.inside[v] = False

    def adjust(self, v: int, side: int, delta: int) -> None:
        """Change the gain of an inserted vertex by ``delta`` (re-files it)."""
        if not self.inside[v]:
            return
        g = self.gain[v] + delta
        self.remove(v, side)
        self.insert(v, side, g)

    def best_movable(self, side: int, room: int, vw) -> int:
        """Highest-gain vertex on ``side`` with ``vw[v] <= room``.

        ``vw`` is the vertex-weight sequence and ``room`` the remaining
        capacity (plus transit slack) of the *target* side; the test is a
        plain comparison rather than a caller-supplied predicate, which
        keeps the scan free of closure allocations and Python calls.

        Returns ``-1`` if none.  Scans buckets downward from the side's max
        pointer, tightening the pointer past empty buckets as it goes (the
        pointer only ever needs to move up on insert).
        """
        head = self.head[side]
        nxt = self.nxt
        b = self.maxptr[side]
        while b >= 0:
            v = head[b]
            if v == -1:
                self.maxptr[side] = b - 1  # bucket empty: tighten cursor
                b -= 1
                continue
            while v != -1:
                if vw[v] <= room:
                    return v
                v = nxt[v]
            b -= 1
        return -1

    def peek_gain(self, v: int) -> int:
        """Current filed gain of ``v`` (meaningful only while inserted)."""
        return self.gain[v]
