"""Unit contract of the anytime-deadline substrate.

The deadline types are the ground everything anytime stands on: the
engines only ever call ``expired()`` at boundaries, so these tests pin
the three behaviours the engines assume — ``Deadline(None)`` never
fires, expiry is monotonic-clock based and survives pickling (the
daemon mints deadlines that forked workers must honour), and
``SoftBudget`` is exactly deterministic in its check count.
"""

import copy
import pickle
import time

from repro.utils.deadline import Deadline, Degraded, SoftBudget


# --------------------------------------------------------------------- #
# Deadline
# --------------------------------------------------------------------- #
def test_none_deadline_never_expires():
    d = Deadline(None)
    assert d.expired() is False
    assert d.remaining() is None
    assert repr(d) == "Deadline(None)"


def test_zero_and_negative_deadlines_expire_immediately():
    assert Deadline(0).expired() is True
    assert Deadline(-3.5).expired() is True
    assert Deadline(-3.5).remaining() == 0.0


def test_future_deadline_counts_down_not_up():
    d = Deadline(3600.0)
    assert d.expired() is False
    remaining = d.remaining()
    assert 0.0 < remaining <= 3600.0


def test_deadline_is_absolute_not_relative():
    # The expiry is fixed at construction: sleeping consumes it.
    d = Deadline(0.01)
    time.sleep(0.02)
    assert d.expired() is True


def test_deadline_pickles_to_the_same_expiry():
    # CLOCK_MONOTONIC is system-wide on Linux: the absolute expiry is
    # exactly what must cross a fork into a pool worker.
    d = Deadline(3600.0)
    clone = pickle.loads(pickle.dumps(d))
    assert clone.expired() is False
    assert abs(clone.remaining() - d.remaining()) < 1.0
    gone = pickle.loads(pickle.dumps(Deadline(0)))
    assert gone.expired() is True
    # An unbounded deadline crosses too (a pool task carries it).
    for clone in (pickle.loads(pickle.dumps(Deadline(None))),
                  copy.copy(Deadline(None))):
        assert clone.expired() is False
        assert clone.remaining() is None


# --------------------------------------------------------------------- #
# SoftBudget
# --------------------------------------------------------------------- #
def test_soft_budget_allows_exactly_n_checks():
    budget = SoftBudget(3)
    assert [budget.expired() for _ in range(6)] == [
        False, False, False, True, True, True,
    ]


def test_soft_budget_zero_and_negative_expire_instantly():
    assert SoftBudget(0).expired() is True
    assert SoftBudget(-5).expired() is True


def test_soft_budget_remaining_is_the_countdown():
    budget = SoftBudget(2)
    assert budget.remaining() == 2.0
    budget.expired()
    assert budget.remaining() == 1.0


# --------------------------------------------------------------------- #
# Degraded
# --------------------------------------------------------------------- #
def test_degraded_brief_shape():
    rec = Degraded("vcycle", completed=2, skipped=1)
    assert rec.brief() == "Degraded[vcycle]@2done+1skipped"
    assert Degraded("fm").brief() == "Degraded[fm]@0done+0skipped"


def test_degraded_is_frozen_and_comparable():
    a = Degraded("iterate", completed=1, skipped=4)
    assert a == Degraded("iterate", completed=1, skipped=4)
    try:
        a.completed = 9
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("Degraded must be immutable")


# --------------------------------------------------------------------- #
# Overshoot
# --------------------------------------------------------------------- #
def test_overshoot_is_time_past_expiry():
    assert Deadline(None).overshoot() is None
    assert Deadline(3600.0).overshoot() == 0.0
    d = Deadline(0)
    time.sleep(0.02)
    assert 0.02 <= d.overshoot() < 60.0


def _overshoot_child(algo):
    from repro.obs.metrics import REGISTRY

    return REGISTRY.get("repro_deadline_overshoot_seconds").labels(algo=algo)


def test_overshoot_histogram_observes_wall_clock_deadlines_only():
    from repro import bipartition, partition
    from repro.sparse.collection import load_instance

    a = load_instance("sym_gd97_like")
    rec, bi = _overshoot_child("recursive"), _overshoot_child("bipartition")
    kway = _overshoot_child("kway")
    counts = (rec.count, bi.count, kway.count)
    sums = (rec.sum, bi.sum, kway.sum)

    # Unbounded and check-counting deadlines are not observed.
    partition(a, 4, seed=1, deadline=Deadline(None))
    partition(a, 4, seed=1, deadline=SoftBudget(0))
    bipartition(a, seed=1)
    assert (rec.count, bi.count, kway.count) == counts

    # A far-future deadline is met: one observation of 0 seconds.
    partition(a, 4, seed=1, deadline=Deadline(3600.0))
    assert rec.count == counts[0] + 1 and rec.sum == sums[0]
    # An expired one is late; the recursive bisections inside a
    # partition call are not observed as bipartition calls.
    partition(a, 4, seed=1, deadline=Deadline(0))
    assert rec.count == counts[0] + 2 and rec.sum > sums[0]
    assert bi.count == counts[1]
    bipartition(a, seed=1, deadline=Deadline(0))
    assert bi.count == counts[1] + 1 and bi.sum > sums[1]
    partition(a, 4, seed=1, algo="kway", deadline=Deadline(0))
    assert kway.count == counts[2] + 1 and kway.sum > sums[2]
