"""Unit tests for the packed-bitset substrate of the logic engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.bitset import (
    coverage_mask,
    full_mask,
    half_space,
    is_subset,
    iter_bits,
    mask_of,
    popcount,
)
from repro.logic.cube import Cube


class TestRawHelpers:
    def test_mask_of_round_trips_through_iter_bits(self):
        members = {0, 3, 17, 64, 200}
        assert set(iter_bits(mask_of(members))) == members

    def test_iter_bits_is_increasing(self):
        assert list(iter_bits(mask_of([5, 1, 9, 2]))) == [1, 2, 5, 9]

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(mask_of(range(10))) == 10

    def test_full_mask(self):
        assert full_mask(0) == 0b1
        assert full_mask(2) == 0b1111
        assert full_mask(3).bit_count() == 8

    def test_is_subset(self):
        assert is_subset(0b0101, 0b1101)
        assert not is_subset(0b0101, 0b1001)
        assert is_subset(0, 0)


class TestCoverageMask:
    @pytest.mark.parametrize("text", ["", "-", "1", "0-1", "10-1-", "-----"])
    def test_matches_explicit_enumeration(self, text):
        cube = Cube.from_string(text)
        expected = mask_of(
            m for m in range(1 << cube.width) if (m & cube.mask) == cube.value
        )
        assert coverage_mask(cube.width, cube.mask, cube.value) == expected
        assert cube.coverage_mask() == expected

    def test_minterm_cube_is_single_bit(self):
        cube = Cube.from_minterm(5, 3)
        assert cube.coverage_mask() == 1 << 5

    def test_universe_covers_everything(self):
        assert Cube.universe(4).coverage_mask() == full_mask(4)

    def test_minterms_iterates_coverage_in_order(self):
        cube = Cube.from_string("-0-")
        assert list(cube.minterms()) == list(iter_bits(cube.coverage_mask()))


class TestHalfSpace:
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_half_space_is_var_equals_zero(self, width):
        for var in range(width):
            expected = mask_of(
                m for m in range(1 << width) if not m >> var & 1
            )
            assert half_space(width, var) == expected


@given(st.sets(st.integers(min_value=0, max_value=120)),
       st.sets(st.integers(min_value=0, max_value=120)))
@settings(max_examples=150, deadline=None)
def test_bitset_algebra_matches_set_algebra(xs, ys):
    bx = mask_of(xs)
    by = mask_of(ys)
    assert set(iter_bits(bx | by)) == xs | ys
    assert set(iter_bits(bx & by)) == xs & ys
    assert set(iter_bits(bx & ~by)) == xs - ys
    assert set(iter_bits(bx ^ by)) == xs ^ ys
    assert is_subset(bx, by) == (xs <= ys)
    assert (bx & by == 0) == xs.isdisjoint(ys)
    assert popcount(bx) == len(xs)
    assert sorted(xs) == list(iter_bits(bx))
