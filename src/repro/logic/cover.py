"""Minimum-cover selection over prime implicants, on packed bitsets.

SEANCE reduces ``Z``, ``SSD`` and the next-state equations to an
*essential* sum-of-products (paper Section 5.2): essential primes first,
then a minimum completion of the cover.  This module implements that
selection exactly for the paper-scale problems (branch-and-bound over the
cyclic core) with a greedy fallback for large instances.

Cost model: primary objective is the number of product terms, secondary is
the total literal count — the classic two-level cost used by
Quine-McCluskey treatments (Mano; Kohavi), which is also what the paper's
"depth" metric ultimately depends on.

Engine notes: every candidate's coverage is one packed bitset
(:meth:`Cube.coverage_mask`, or :meth:`Cube.chunked_coverage` above
:data:`~repro.logic.bitset.DENSE_WIDTH_LIMIT`), and the selection itself
is the unate covering core of :mod:`repro.util.setcover` with each
prime's literal count as its weight.  This module adds what is specific
to primes: the off-set check on the candidates and the final
single-cube-containment pass.  The original set-based selection survives
in :mod:`repro.logic._reference` for the equivalence suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..errors import CoveringError
from ..util.setcover import branch_and_bound, essentials, greedy
from .bitset import ChunkedMask, andnot, mask_of
from .cube import Cube, remove_contained
from .function import BooleanFunction
from .quine_mccluskey import primes_of, useful_primes

#: Above this many undecided primes the exact branch-and-bound hands over
#: to the greedy heuristic.  The paper's machines stay far below it.  The
#: value is part of the pinned output contract (the ``exact`` flag of
#: every golden cover), so the bitset rewrite kept it; the generic
#: :data:`repro.util.setcover.EXACT_LIMIT` was raised instead.
EXACT_SEARCH_LIMIT = 26


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a covering run.

    Attributes
    ----------
    cubes:
        The selected cover, sorted for determinism.
    essential:
        The subset of ``cubes`` that was essential (sole cover of some
        on-set minterm among the candidate primes).
    exact:
        True when the selection is provably minimum (essential extraction
        plus exhaustive branch-and-bound); False when the greedy fallback
        decided any part of the cyclic core.
    """

    cubes: tuple[Cube, ...]
    essential: tuple[Cube, ...]
    exact: bool

    @property
    def num_terms(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)


def _coverages(primes: Sequence[Cube], mask) -> list:
    """Per-prime coverage masks in the representation ``mask`` uses."""
    if isinstance(mask, ChunkedMask):
        return [p.chunked_coverage(mask.chunk_bits) for p in primes]
    return [p.coverage_mask() for p in primes]


def essential_primes(
    primes: Sequence[Cube], on: Iterable[int] | int | ChunkedMask
) -> list[Cube]:
    """Primes that are the unique cover of at least one on-set minterm."""
    if isinstance(on, (int, ChunkedMask)):
        on_mask = on
    else:
        on_mask = mask_of(on)
    primes = list(primes)
    coverage = _coverages(primes, on_mask)
    return [primes[i] for i in essentials(coverage, on_mask)]


def minimal_cover(
    function: BooleanFunction, primes: Sequence[Cube] | None = None
) -> CoverResult:
    """Select a minimum (or near-minimum) prime cover of ``function``.

    Parameters
    ----------
    function:
        The incompletely specified target function.
    primes:
        Candidate implicants; defaults to all primes of ``function``.
        Every candidate must be an implicant of the function.

    The cyclic core left after the essential primes is searched exactly
    up to :data:`EXACT_SEARCH_LIMIT` candidates and greedily above it.

    Raises
    ------
    CoveringError
        When the candidates cannot cover the on-set (only possible with an
        explicit, insufficient ``primes`` argument).
    """
    if primes is None:
        primes = useful_primes(primes_of(function), function.on_mask)
    primes = list(primes)
    coverage = []
    if function.wide:
        # Wide widths never materialise the off-set: a candidate avoids
        # it exactly when its coverage stays inside the care set.
        care_mask = function.care_mask
        for prime in primes:
            function._check_cube_width(prime, function.names)
            cov = prime.chunked_coverage(care_mask.chunk_bits)
            if not cov.is_subset(care_mask):
                raise CoveringError(
                    f"candidate {prime} intersects the off-set of the function"
                )
            coverage.append(cov)
    else:
        off_mask = function.off_mask
        for prime in primes:
            function._check_cube_width(prime, function.names)
            cov = prime.coverage_mask()
            if cov & off_mask:
                raise CoveringError(
                    f"candidate {prime} intersects the off-set of the function"
                )
            coverage.append(cov)

    remaining = function.on_mask
    if not remaining:
        return CoverResult((), (), True)

    essential_idx = essentials(coverage, remaining)
    for i in essential_idx:
        remaining = andnot(remaining, coverage[i])
    chosen_idx = list(essential_idx)
    exact = True
    if remaining:
        taken = set(essential_idx)
        live = [
            i
            for i, cov in enumerate(coverage)
            if i not in taken and cov & remaining
        ]
        cover_map = {i: coverage[i] & remaining for i in live}
        union = 0
        for i in live:
            union |= cover_map[i]
        uncoverable = andnot(remaining, union)
        if uncoverable:
            raise CoveringError(
                f"{uncoverable.bit_count()} on-set minterms cannot "
                f"be covered by the supplied candidate implicants"
            )
        literals = {i: primes[i].num_literals for i in live}
        if len(live) <= EXACT_SEARCH_LIMIT:
            extra = branch_and_bound(cover_map, literals, live, remaining)
        else:
            extra = greedy(cover_map, literals, live, remaining)
            exact = False
        chosen_idx.extend(extra)

    chosen = remove_contained([primes[i] for i in chosen_idx])
    essential = [primes[i] for i in essential_idx]
    return CoverResult(tuple(sorted(chosen)), tuple(sorted(essential)), exact)


def essential_sop(function: BooleanFunction) -> CoverResult:
    """The paper's "essential SOP expression": minimum prime cover.

    Convenience wrapper used for the ``Z`` and ``SSD`` equations, where
    self-synchronisation makes a hazard-free (all-primes) cover
    unnecessary (paper Section 5.2).
    """
    return minimal_cover(function)
