"""Reference (set-based) two-level logic engine, retained for cross-checks.

This module preserves the original extensional implementations that the
packed-bitset engine (:mod:`repro.logic.bitset` and the rewritten
:mod:`~repro.logic.quine_mccluskey` / :mod:`~repro.logic.cover` /
:mod:`repro.util.setcover`) replaced on the hot paths.  They build one
:class:`~repro.logic.cube.Cube` per care minterm and manipulate explicit
``set`` objects — slow, but small and obviously correct.  The prime cover
and the set cover keep their own essential loops, greedy heuristics,
searches and (for the set cover) the all-pairs dominance scan, where the
fast engine runs both on one covering core; agreement between the two is
what the equivalence suite checks.

The Hypothesis equivalence suite
(``tests/logic/test_bitset_equivalence.py``) asserts that both engines
produce *identical* primes, useful-prime filters, covers and set-cover
selections on random inputs, and ``benchmarks/bench_logic.py`` times the
two side by side to quantify the speedup recorded in ``BENCH_logic.json``.

One determinism note: the original branch-and-bound broke ties in its
most-constrained-minterm choice by ``frozenset`` iteration order.  Both
this reference and the bitset engine instead break that tie by smallest
minterm, so the two are comparable point-for-point on arbitrary inputs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from ..errors import CoveringError
from .cube import Cube, popcount, remove_contained
from .function import BooleanFunction


def prime_implicants_reference(
    on: Iterable[int], dc: Iterable[int], width: int
) -> list[Cube]:
    """All prime implicants, by per-minterm Cube tabulation (original)."""
    on = set(on)
    dc = set(dc)
    if on & dc:
        raise ValueError("on-set and dc-set overlap")
    care = on | dc
    if not care:
        return []
    full_space = 1 << width
    if care == set(range(full_space)):
        return [Cube.universe(width)]

    current: set[Cube] = {Cube.from_minterm(m, width) for m in care}
    primes: set[Cube] = set()
    while current:
        groups: dict[tuple[int, int], list[Cube]] = {}
        for cube in current:
            groups.setdefault((cube.mask, popcount(cube.value)), []).append(cube)
        merged_from: set[Cube] = set()
        next_level: set[Cube] = set()
        for (mask, ones), cubes in groups.items():
            partner_group = groups.get((mask, ones + 1), [])
            for a in cubes:
                for b in partner_group:
                    merged = a.merge(b)
                    if merged is not None:
                        next_level.add(merged)
                        merged_from.add(a)
                        merged_from.add(b)
        primes.update(current - merged_from)
        current = next_level
    return sorted(primes)


def useful_primes_reference(
    primes: Iterable[Cube], on: Iterable[int]
) -> list[Cube]:
    """Primes touching the on-set, by per-minterm enumeration (original)."""
    on = set(on)
    kept = []
    for prime in primes:
        if any(m in on for m in prime.minterms()):
            kept.append(prime)
    return kept


def minimal_cover_reference(
    function: BooleanFunction,
    primes: Sequence[Cube] | None = None,
    exact: bool | None = None,
) -> tuple[tuple[Cube, ...], tuple[Cube, ...], bool]:
    """Original set-based cover selection.

    Returns ``(cubes, essential, exact)`` matching the fields of
    :class:`repro.logic.cover.CoverResult`.
    """
    from .cover import EXACT_SEARCH_LIMIT

    if primes is None:
        primes = useful_primes_reference(
            prime_implicants_reference(function.on, function.dc, function.width),
            function.on,
        )
    primes = list(primes)
    care_off = function.off
    for prime in primes:
        if any(m in care_off for m in prime.minterms()):
            raise CoveringError(
                f"candidate {prime} intersects the off-set of the function"
            )

    remaining = set(function.on)
    if not remaining:
        return (), (), True

    chosen: list[Cube] = []
    essential: list[Cube] = []
    while True:
        new_essentials = [
            p
            for p in _essential_primes(primes, remaining)
            if p not in chosen
        ]
        if not new_essentials:
            break
        for prime in new_essentials:
            chosen.append(prime)
            if prime not in essential:
                essential.append(prime)
            remaining -= set(prime.minterms())
        if not remaining:
            break

    if remaining:
        candidates = [
            p
            for p in primes
            if p not in chosen and any(m in remaining for m in p.minterms())
        ]
        union: set[int] = set()
        for cube in candidates:
            union.update(m for m in cube.minterms() if m in remaining)
        if not remaining <= union:
            raise CoveringError(
                f"{len(remaining)} on-set minterms cannot be covered by the "
                f"supplied candidate implicants"
            )
        use_exact = (
            exact
            if exact is not None
            else len(candidates) <= EXACT_SEARCH_LIMIT
        )
        if use_exact:
            extra = _branch_and_bound(candidates, frozenset(remaining))
            exact_flag = True
        else:
            extra = _greedy(candidates, set(remaining))
            exact_flag = False
        chosen.extend(extra)
    else:
        exact_flag = True

    chosen = remove_contained(chosen)
    return tuple(sorted(chosen)), tuple(sorted(essential)), exact_flag


def _essential_primes(primes: Sequence[Cube], on: Iterable[int]) -> list[Cube]:
    on = set(on)
    essential: list[Cube] = []
    for minterm in sorted(on):
        covering = [p for p in primes if p.contains(minterm)]
        if len(covering) == 1 and covering[0] not in essential:
            essential.append(covering[0])
    return essential


def _greedy(candidates: Sequence[Cube], remaining: set[int]) -> list[Cube]:
    chosen: list[Cube] = []
    coverage = {
        cube: {m for m in cube.minterms() if m in remaining}
        for cube in candidates
    }
    while remaining:
        best = max(
            candidates,
            key=lambda c: (
                len(coverage[c] & remaining),
                -c.num_literals,
            ),
        )
        gain = coverage[best] & remaining
        if not gain:
            raise CoveringError("greedy cover stalled (internal error)")
        chosen.append(best)
        remaining -= gain
    return chosen


def _branch_and_bound(
    candidates: Sequence[Cube], remaining: frozenset[int]
) -> list[Cube]:
    candidate_list = list(candidates)
    cover_map = {
        cube: frozenset(m for m in cube.minterms() if m in remaining)
        for cube in candidate_list
    }
    greedy_choice = _greedy(candidate_list, set(remaining))
    best: list[Cube] = list(greedy_choice)
    best_cost = _cost(best)

    def search(uncovered: frozenset[int], chosen: list[Cube]) -> None:
        nonlocal best, best_cost
        if not uncovered:
            cost = _cost(chosen)
            if cost < best_cost:
                best = list(chosen)
                best_cost = cost
            return
        if len(chosen) + 1 > best_cost[0]:
            return
        target = min(
            uncovered,
            key=lambda m: (
                sum(1 for c in candidate_list if m in cover_map[c]),
                m,
            ),
        )
        options = [c for c in candidate_list if target in cover_map[c]]
        options.sort(key=lambda c: (len(cover_map[c] & uncovered),), reverse=True)
        for option in options:
            if option in chosen:
                continue
            chosen.append(option)
            if _cost(chosen) <= best_cost:
                search(uncovered - cover_map[option], chosen)
            chosen.pop()

    search(remaining, [])
    return best


def _cost(cubes: Sequence[Cube]) -> tuple[int, int]:
    return (len(cubes), sum(c.num_literals for c in cubes))


def minimum_set_cover_reference(
    universe: set[Hashable],
    candidates: Sequence[frozenset],
    exact: bool | None = None,
) -> tuple[tuple[int, ...], bool]:
    """Original set-based generic set cover.

    Returns ``(chosen, exact)`` matching the fields of
    :class:`repro.util.setcover.SetCoverResult`.
    """
    from ..util.setcover import EXACT_LIMIT

    universe = set(universe)
    if not universe:
        return (), True
    total: set = set()
    for candidate in candidates:
        total |= candidate
    if not universe <= total:
        missing = sorted(universe - total, key=repr)
        raise CoveringError(f"elements cannot be covered: {missing}")

    remaining = set(universe)
    chosen: list[int] = []

    while remaining:
        forced = None
        for element in sorted(remaining, key=repr):
            covering = [
                i for i, cand in enumerate(candidates) if element in cand
            ]
            if len(covering) == 1:
                forced = covering[0]
                break
        if forced is None:
            break
        if forced not in chosen:
            chosen.append(forced)
        remaining -= candidates[forced]

    if not remaining:
        return tuple(sorted(chosen)), True

    live = [
        i
        for i, cand in enumerate(candidates)
        if i not in chosen and cand & remaining
    ]
    useful = {i: frozenset(candidates[i] & remaining) for i in live}
    undominated = []
    for i in live:
        dominated = any(
            (useful[i] < useful[j])
            or (useful[i] == useful[j] and j < i)
            for j in live
            if j != i
        )
        if not dominated:
            undominated.append(i)
    live = undominated

    use_exact = exact if exact is not None else len(live) <= EXACT_LIMIT
    if use_exact:
        extra = _sc_branch_and_bound(remaining, live, useful)
        return tuple(sorted(chosen + extra)), True
    extra = _sc_greedy(remaining, live, useful)
    return tuple(sorted(chosen + extra)), False


def _sc_greedy(
    remaining: set, live: list[int], useful: dict[int, frozenset]
) -> list[int]:
    chosen = []
    remaining = set(remaining)
    while remaining:
        best = max(live, key=lambda i: (len(useful[i] & remaining), -i))
        gain = useful[best] & remaining
        if not gain:
            raise CoveringError("greedy set cover stalled (internal error)")
        chosen.append(best)
        remaining -= gain
    return chosen


def _sc_branch_and_bound(
    remaining: set, live: list[int], useful: dict[int, frozenset]
) -> list[int]:
    best = _sc_greedy(remaining, live, useful)

    def search(uncovered: frozenset, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        target = min(
            uncovered,
            key=lambda e: (
                sum(1 for i in live if e in useful[i]),
                repr(e),
            ),
        )
        options = [i for i in live if target in useful[i]]
        options.sort(key=lambda i: (-len(useful[i] & uncovered), i))
        for option in options:
            if option in chosen:
                continue
            chosen.append(option)
            search(uncovered - useful[option], chosen)
            chosen.pop()

    search(frozenset(remaining), [])
    return sorted(best)


def static_one_hazards_reference(
    cubes: Sequence[Cube], width: int
) -> list[tuple[int, int, int]]:
    """Original per-minterm static-1 hazard scan, as (a, b, variable)."""
    covered = sorted({m for cube in cubes for m in cube.minterms()})
    covered_set = set(covered)
    hazards = []
    for m in covered:
        for bit in range(width):
            other = m ^ (1 << bit)
            if other <= m or other not in covered_set:
                continue
            if not any(c.contains(m) and c.contains(other) for c in cubes):
                hazards.append((m, other, bit))
    return hazards
