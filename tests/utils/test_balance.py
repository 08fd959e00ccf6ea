"""Tests for the eqn-(1) load ceiling."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.utils.balance import max_allowed_part_size


class TestMaxAllowedPartSize:
    def test_paper_example(self):
        # 1000 nonzeros, 2 parts, eps = 0.03 -> each side <= 515.
        assert max_allowed_part_size(1000, 2, 0.03) == 515

    def test_perfect_balance_clamp(self):
        # floor(1.03 * 3 / 2) = 3 but ceil(3/2) = 2: stays satisfiable at 2.
        assert max_allowed_part_size(3, 2, 0.0) == 2

    def test_eps_zero_is_ceil(self):
        assert max_allowed_part_size(10, 3, 0.0) == 4  # ceil(10/3)

    def test_zero_total(self):
        assert max_allowed_part_size(0, 4, 0.03) == 0

    def test_single_part(self):
        assert max_allowed_part_size(100, 1, 0.03) == 103

    def test_invalid_nparts(self):
        with pytest.raises(ValueError):
            max_allowed_part_size(10, 0, 0.03)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            max_allowed_part_size(10, 2, -0.5)

    @given(
        total=st.integers(0, 10_000),
        nparts=st.integers(1, 64),
        eps=st.floats(0, 1, allow_nan=False),
    )
    # 1.57 * 1100 is 1726.9999999999998 in floats but 1727 as intended.
    @example(total=1100, nparts=1, eps=0.57)
    def test_always_satisfiable(self, total, nparts, eps):
        """A perfectly balanced integer partitioning always fits."""
        ceiling = max_allowed_part_size(total, nparts, eps)
        perfect_max = -(-total // nparts)
        assert ceiling >= perfect_max
        # And the ceiling never exceeds the eqn-(1) bound by more than the
        # integrality clamp.  The bound is exact; the tolerance admits the
        # decimal eps a float cannot hold (0.57 is stored as 0.5699...).
        bound = (1 + Fraction(eps)) * total / nparts
        assert ceiling <= max(perfect_max, bound + Fraction(1, 10**6))

    @given(total=st.integers(1, 10_000), nparts=st.integers(1, 64))
    def test_monotone_in_eps(self, total, nparts):
        assert max_allowed_part_size(total, nparts, 0.1) <= (
            max_allowed_part_size(total, nparts, 0.5)
        )
