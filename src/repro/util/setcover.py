"""The unate covering core, and the generic minimum set cover on top of it.

SEANCE solves two unate covering problems of the same shape: the
minimum prime cover behind every "essential SOP" equation
(:mod:`repro.logic.cover`) and the dichotomy cover of the Tracey state
assignment (:mod:`repro.assign.tracey`).  They differ only in cost:
the prime cover minimises (terms, literals), the set cover minimises
terms alone.  Both front ends therefore share three primitives over
*coverage masks* — one packed bitset per candidate, either a raw int or
a :class:`~repro.logic.bitset.ChunkedMask`:

* :func:`essentials` — the sole coverers of the elements covered
  exactly once.  Coverage counts are a property of the static candidate
  list, so one pass finds every essential candidate;
* :func:`greedy` — repeatedly take the candidate with the largest gain,
  then the smallest weight, ties to the lowest index;
* :func:`branch_and_bound` — the exact minimum-(count, weight) cover,
  seeded with the greedy cover.

:func:`minimum_set_cover` is the zero-weight front end over frozensets:
elements are numbered in ``repr``-sorted order (the scan order of the
original set-based solver, kept in :mod:`repro.logic._reference`),
dominated candidates are dropped by :func:`_undominated_indexed`, and
the cyclic core is searched exactly up to :data:`EXACT_LIMIT`
candidates and greedily above it.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass

from ..errors import CoveringError
from ..logic.bitset import andnot, contains_member, iter_bits, members_of

#: Above this many candidates in the cyclic core the solver goes greedy.
#: The bitset rewrite (O(words) dominance/coverage ops plus a memoised
#: search) raised this from the original 30.
EXACT_LIMIT = 48


@dataclass(frozen=True)
class SetCoverResult:
    """Chosen candidate indices (into the input sequence) and provenance."""

    chosen: tuple[int, ...]
    exact: bool


def essentials(coverage: Sequence, remaining) -> list[int]:
    """Indices of the sole coverers of ``remaining``'s once-covered elements.

    Ordered by the smallest such element each one covers.
    """
    once = 0
    more = 0
    for cov in coverage:
        more |= once & cov
        once |= cov
    unique = andnot(once, more) & remaining
    firsts = []
    for i, cov in enumerate(coverage):
        hits = cov & unique
        if hits:
            firsts.append((next(members_of(hits)), i))
    return [i for _, i in sorted(firsts)]


def greedy(
    cover_map: Mapping, weights: Mapping, live: Sequence[int], remaining
) -> list[int]:
    """Greedy cover: the largest gain, then the smallest weight, first.

    ``live`` must ascend, so ties go to the lowest index.
    """
    chosen: list[int] = []
    while remaining:
        best = max(
            live,
            key=lambda i: (
                (cover_map[i] & remaining).bit_count(),
                -weights[i],
            ),
        )
        gain = cover_map[best] & remaining
        if not gain:
            raise CoveringError("greedy cover stalled (internal error)")
        chosen.append(best)
        remaining = andnot(remaining, gain)
    return chosen


def branch_and_bound(
    cover_map: Mapping, weights: Mapping, live: Sequence[int], remaining
) -> list[int]:
    """Exact minimum cover of ``remaining`` by cost (count, total weight).

    Depth-first search on the uncovered element with the fewest covering
    candidates (ties to the smallest element), trying the options with
    the largest gain first (ties to the lowest index, so ``live`` must
    ascend).  A node is pruned when even one more candidate cannot beat
    the incumbent, and memoised on its uncovered bitset: once a state has
    been explored with a componentwise no-worse (count, weight) prefix,
    revisiting it cannot produce a strictly better incumbent, so the
    revisit is pruned without changing which cover is returned.
    """
    best = greedy(cover_map, weights, live, remaining)
    best_cost = (len(best), sum(weights[i] for i in best))

    # Static most-constrained order: how many candidates cover each
    # element never changes during the search.
    counts: dict[int, int] = {}
    for i in live:
        for m in members_of(cover_map[i]):
            counts[m] = counts.get(m, 0) + 1
    order = sorted(counts, key=lambda m: (counts[m], m))

    explored: dict = {}
    chosen: list[int] = []

    def search(uncovered, weight: int) -> None:
        nonlocal best, best_cost
        if not uncovered:
            if (len(chosen), weight) < best_cost:
                best = list(chosen)
                best_cost = (len(chosen), weight)
            return
        if (len(chosen) + 1, weight) >= best_cost:
            return
        prefixes = explored.setdefault(uncovered, [])
        for terms, lighter in prefixes:
            if terms <= len(chosen) and lighter <= weight:
                return
        prefixes.append((len(chosen), weight))
        target = next(m for m in order if contains_member(uncovered, m))
        options = [i for i in live if contains_member(cover_map[i], target)]
        options.sort(
            key=lambda i: (cover_map[i] & uncovered).bit_count(), reverse=True
        )
        for option in options:
            chosen.append(option)
            search(
                andnot(uncovered, cover_map[option]), weight + weights[option]
            )
            chosen.pop()

    search(remaining, 0)
    return best


def minimum_set_cover(
    universe: set[Hashable], candidates: Sequence[frozenset]
) -> SetCoverResult:
    """Select a minimum family of candidates whose union covers ``universe``.

    Returns indices into ``candidates`` (deterministic for equal inputs).
    Raises :class:`CoveringError` when the union of all candidates misses
    part of the universe.
    """
    universe = set(universe)
    if not universe:
        return SetCoverResult((), True)
    # Number the elements in repr-sorted order; element k of ``order`` is
    # bit k of every incidence bitset below.
    order = sorted(universe, key=repr)
    index = {element: k for k, element in enumerate(order)}
    full = (1 << len(order)) - 1

    masks: list[int] = []
    for candidate in candidates:
        bits = 0
        for element in candidate:
            k = index.get(element)
            if k is not None:
                bits |= 1 << k
        masks.append(bits)

    total = 0
    for bits in masks:
        total |= bits
    if total != full:
        missing = sorted(
            (order[k] for k in iter_bits(full & ~total)), key=repr
        )
        raise CoveringError(f"elements cannot be covered: {missing}")

    chosen = essentials(masks, full)
    remaining = full
    for i in chosen:
        remaining &= ~masks[i]
    if not remaining:
        return SetCoverResult(tuple(sorted(chosen)), True)

    taken = set(chosen)
    live = [
        i
        for i, bits in enumerate(masks)
        if i not in taken and bits & remaining
    ]
    useful = {i: masks[i] & remaining for i in live}
    live = _undominated_indexed(live, useful)
    weights = dict.fromkeys(live, 0)
    if len(live) <= EXACT_LIMIT:
        extra = branch_and_bound(useful, weights, live, remaining)
        return SetCoverResult(tuple(sorted(chosen + extra)), True)
    extra = greedy(useful, weights, live, remaining)
    return SetCoverResult(tuple(sorted(chosen + extra)), False)


def _undominated_indexed(
    live: list[int], useful: dict[int, int]
) -> list[int]:
    """Drop every candidate whose useful mask another one dominates.

    Computes exactly the survivors of the all-pairs predicate
    ``ui | uj == uj and (ui != uj or j < i)`` without the quadratic
    scan.  Duplicate masks are collapsed to their lowest index first; a
    distinct mask is then dominated iff some *strict* superset exists
    among the other distinct masks.

    Masks are processed in popcount buckets, largest first, so every
    possible dominator of a mask is indexed before the mask is probed
    (a strict superset has strictly larger popcount, and domination is
    transitive, so indexing only the *surviving* masks of earlier
    buckets is complete).  The index is one candidate-axis bitset per
    universe element — bit ``t`` of ``bucket[k]`` says indexed mask
    ``t`` contains element ``k`` — so "some indexed mask contains every
    element of ``m``" is an AND-cascade over ``m``'s elements, walked
    rarest element first and abandoned on the first empty
    intersection, which for an undominated mask is almost immediate.
    The bitsets live in bytearrays (O(1) bit appends when a bucket's
    survivors are inserted) and are materialised as ints lazily per
    probe generation.
    """
    # Lowest live index per distinct mask (``live`` ascends, so first
    # wins); later duplicates are dominated by the equal-mask clause.
    first: dict[int, int] = {}
    for i in live:
        first.setdefault(useful[i], i)
    distinct = list(first)
    nbytes = (len(distinct) + 7) // 8

    freq: dict[int, int] = {}
    for m in distinct:
        for k in iter_bits(m):
            freq[k] = freq.get(k, 0) + 1
    by_size: dict[int, list[int]] = {}
    for m in distinct:
        by_size.setdefault(m.bit_count(), []).append(m)

    arrays: dict[int, bytearray] = {}
    ints: dict[int, int] = {}  # lazy int view of ``arrays``, per element
    dominated: set[int] = set()
    slot = 0
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        if arrays:
            for m in group:
                elems = sorted(iter_bits(m), key=freq.__getitem__)
                acc = None
                for k in elems:
                    arr = arrays.get(k)
                    if arr is None:
                        acc = 0
                        break
                    bucket = ints.get(k)
                    if bucket is None:
                        bucket = int.from_bytes(arr, "little")
                        ints[k] = bucket
                    acc = bucket if acc is None else acc & bucket
                    if not acc:
                        break
                if acc:
                    dominated.add(m)
        touched: set[int] = set()
        for m in group:
            if m in dominated:
                continue
            byte, bit = slot >> 3, 1 << (slot & 7)
            slot += 1
            for k in iter_bits(m):
                arr = arrays.get(k)
                if arr is None:
                    arr = bytearray(nbytes)
                    arrays[k] = arr
                arr[byte] |= bit
                touched.add(k)
        for k in touched:
            ints.pop(k, None)

    return [
        i
        for i in live
        if first[useful[i]] == i and useful[i] not in dominated
    ]
