"""Tests for the FM gain-bucket structure.

``best_movable(side, room, vw)`` scans for the highest-gain vertex whose
weight fits in ``room`` — the closure-free form the kernels use.
``FREE`` is a unit-weight vector with unlimited room for tests that only
exercise the bucket discipline.
"""

from repro.partitioner.gains import GainBuckets

FREE = [1] * 16  # unit weights; pair with a large room to accept all
ROOM = 10**9


class TestGainBuckets:
    def test_insert_and_best(self):
        b = GainBuckets(4, max_gain=3)
        b.insert(0, 0, 2)
        b.insert(1, 0, -1)
        b.insert(2, 1, 3)
        assert b.best_movable(0, ROOM, FREE) == 0
        assert b.best_movable(1, ROOM, FREE) == 2

    def test_empty_side(self):
        b = GainBuckets(2, max_gain=1)
        b.insert(0, 0, 0)
        assert b.best_movable(1, ROOM, FREE) == -1

    def test_remove(self):
        b = GainBuckets(3, max_gain=2)
        b.insert(0, 0, 2)
        b.insert(1, 0, 1)
        b.remove(0, 0)
        assert b.best_movable(0, ROOM, FREE) == 1
        assert not b.inside[0]

    def test_remove_not_inside_is_noop(self):
        b = GainBuckets(2, max_gain=1)
        b.remove(0, 0)  # must not raise
        assert not b.inside[0]

    def test_lifo_within_bucket(self):
        b = GainBuckets(3, max_gain=1)
        b.insert(0, 0, 1)
        b.insert(1, 0, 1)
        # Most recently inserted is at the head.
        assert b.best_movable(0, ROOM, FREE) == 1

    def test_weight_filter_skips(self):
        # Vertex 0 is too heavy to move; the scan must fall through to 1.
        b = GainBuckets(3, max_gain=2)
        b.insert(0, 0, 2)
        b.insert(1, 0, 1)
        vw = [5, 1, 1]
        assert b.best_movable(0, 1, vw) == 1

    def test_weight_filter_all_blocked(self):
        b = GainBuckets(2, max_gain=1)
        b.insert(0, 0, 1)
        assert b.best_movable(0, 0, [3, 3]) == -1

    def test_adjust_refiles(self):
        b = GainBuckets(3, max_gain=4)
        b.insert(0, 0, 0)
        b.insert(1, 0, 2)
        b.adjust(0, 0, 4)  # 0 now has gain 4 > 2
        assert b.best_movable(0, ROOM, FREE) == 0
        assert b.gain[0] == 4

    def test_adjust_negative(self):
        b = GainBuckets(2, max_gain=3)
        b.insert(0, 0, 3)
        b.insert(1, 0, 1)
        b.adjust(0, 0, -4)
        assert b.best_movable(0, ROOM, FREE) == 1
        assert b.gain[0] == -1

    def test_adjust_outside_is_noop(self):
        b = GainBuckets(2, max_gain=2)
        b.adjust(0, 0, 1)
        assert not b.inside[0]

    def test_maxptr_recovers_after_pop_and_insert(self):
        b = GainBuckets(4, max_gain=3)
        b.insert(0, 0, 3)
        b.remove(0, 0)
        assert b.best_movable(0, ROOM, FREE) == -1
        b.insert(1, 0, 2)
        assert b.best_movable(0, ROOM, FREE) == 1
        b.insert(2, 0, 3)  # pointer must climb back up
        assert b.best_movable(0, ROOM, FREE) == 2

    def test_middle_removal_links(self):
        b = GainBuckets(4, max_gain=1)
        b.insert(0, 0, 1)
        b.insert(1, 0, 1)
        b.insert(2, 0, 1)
        b.remove(1, 0)  # remove the middle of the linked list
        found = []
        while True:
            v = b.best_movable(0, ROOM, FREE)
            if v == -1:
                break
            found.append(v)
            b.remove(v, 0)
        assert sorted(found) == [0, 2]

    def test_heavier_vertex_skipped_deeper_in_bucket(self):
        # Both vertices share a bucket; the head is too heavy, so the
        # scan walks the linked list and returns the lighter one.
        b = GainBuckets(3, max_gain=1)
        b.insert(0, 0, 1)
        b.insert(1, 0, 1)  # head of the bucket (LIFO)
        vw = [1, 7, 1]
        assert b.best_movable(0, 2, vw) == 0

    def test_zero_max_gain(self):
        b = GainBuckets(2, max_gain=0)
        b.insert(0, 0, 0)
        assert b.best_movable(0, ROOM, FREE) == 0
