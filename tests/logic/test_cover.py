"""Unit tests for repro.logic.cover."""

import itertools
import random

import pytest

from repro.errors import CoveringError
from repro.logic.cube import Cube
from repro.logic.cover import (
    EXACT_SEARCH_LIMIT,
    CoverResult,
    essential_primes,
    essential_sop,
    minimal_cover,
)
from repro.logic.function import BooleanFunction
from repro.logic.quine_mccluskey import primes_of, useful_primes


def brute_force_min_terms(f: BooleanFunction) -> int:
    """Minimum number of primes needed to cover f, by exhaustive search."""
    primes = useful_primes(primes_of(f), f.on)
    if not f.on:
        return 0
    for k in range(1, len(primes) + 1):
        for combo in itertools.combinations(primes, k):
            covered = set()
            for cube in combo:
                covered.update(cube.minterms())
            if f.on <= covered:
                return k
    raise AssertionError("primes cannot cover the function")


class TestEssentialPrimes:
    def test_textbook_essentials(self):
        f = BooleanFunction(("a", "b", "c", "d"),
                            on=frozenset({4, 8, 10, 11, 12, 15}),
                            dc=frozenset({9, 14}))
        primes = primes_of(f)
        essentials = essential_primes(primes, f.on)
        # Every essential prime must be the sole cover of some on minterm.
        for e in essentials:
            assert any(
                sum(1 for p in primes if p.contains(m)) == 1 and e.contains(m)
                for m in f.on
            )

    def test_no_essentials_in_cyclic_cover(self):
        # The classic cyclic function: every minterm covered by 2 primes.
        on = {0b001, 0b011, 0b010, 0b110, 0b100, 0b101}
        f = BooleanFunction(("a", "b", "c"), on=frozenset(on))
        primes = primes_of(f)
        assert essential_primes(primes, f.on) == []


class TestMinimalCover:
    def test_result_is_valid_cover(self):
        f = BooleanFunction(("a", "b", "c", "d"),
                            on=frozenset({4, 8, 10, 11, 12, 15}),
                            dc=frozenset({9, 14}))
        result = minimal_cover(f)
        assert f.is_cover(result.cubes)
        assert result.exact

    def test_minimality_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(15):
            width = rng.randint(2, 4)
            space = 1 << width
            on = frozenset(m for m in range(space) if rng.random() < 0.45)
            dc = frozenset(
                m for m in range(space) if m not in on and rng.random() < 0.15
            )
            f = BooleanFunction(tuple(f"v{i}" for i in range(width)), on, dc)
            result = minimal_cover(f)
            assert f.is_cover(result.cubes)
            assert result.num_terms == brute_force_min_terms(f)

    def test_cyclic_core_solved_exactly(self):
        on = {0b001, 0b011, 0b010, 0b110, 0b100, 0b101}
        f = BooleanFunction(("a", "b", "c"), on=frozenset(on))
        result = minimal_cover(f)
        assert f.is_cover(result.cubes)
        assert result.num_terms == 3  # known optimum for the cyclic cover

    def test_empty_function(self):
        f = BooleanFunction(("a", "b"))
        result = minimal_cover(f)
        assert result.cubes == ()
        assert result.exact

    def test_constant_one(self):
        f = BooleanFunction.constant(("a", "b"), 1)
        result = minimal_cover(f)
        assert result.cubes == (Cube.universe(2),)

    def test_insufficient_candidates_raise(self):
        f = BooleanFunction(("a", "b"), on=frozenset({0b00, 0b11}))
        with pytest.raises(CoveringError):
            minimal_cover(f, primes=[Cube.from_string("11")])

    def test_non_implicant_candidate_raises(self):
        f = BooleanFunction(("a", "b"), on=frozenset({0b11}))
        with pytest.raises(CoveringError):
            minimal_cover(f, primes=[Cube.from_string("1-"), Cube.from_string("11")])

    def test_greedy_fallback(self):
        # Every minterm but 0 and 63: the primes are the 30 two-literal
        # cubes x_i & ~x_j, each minterm lies in at least five of them,
        # so the cyclic core is all 30 primes, past EXACT_SEARCH_LIMIT.
        f = BooleanFunction(
            tuple("abcdef"), on=frozenset(range(1, 63))
        )
        assert len(primes_of(f)) > EXACT_SEARCH_LIMIT
        result = minimal_cover(f)
        assert result.exact is False
        assert result.essential == ()
        assert f.is_cover(result.cubes)

    def test_essentials_recorded(self):
        # f = a·b with on = {3}: the only prime is essential.
        f = BooleanFunction(("a", "b"), on=frozenset({0b11}))
        result = minimal_cover(f)
        assert result.essential == (Cube.from_string("11"),)

    def test_num_literals(self):
        result = CoverResult(
            cubes=(Cube.from_string("1-"), Cube.from_string("01")),
            essential=(),
            exact=True,
        )
        assert result.num_terms == 2
        assert result.num_literals == 3


class TestEssentialSop:
    def test_wrapper_equivalence(self):
        f = BooleanFunction(("a", "b", "c"), on=frozenset({1, 3, 5, 7}))
        result = essential_sop(f)
        # f = a (variable 0): single-cube cover.
        assert result.cubes == (Cube.from_string("1--"),)

    def test_uses_dont_cares(self):
        # dc minterm 0b01 is (a=1, b=0): merging it with on minterm 0b11
        # yields the single-literal cube a=1 ("1-").
        f = BooleanFunction(("a", "b"), on=frozenset({0b11}), dc=frozenset({0b01}))
        result = essential_sop(f)
        assert result.cubes == (Cube.from_string("1-"),)


class TestCandidateValidation:
    def test_wrong_width_candidate_rejected(self):
        f = BooleanFunction(("a", "b", "c"), frozenset({0, 1, 2, 3}))
        with pytest.raises(ValueError):
            minimal_cover(f, primes=[Cube.universe(2)])
