"""Tracey USTT state assignment (paper Step 3).

The algorithm, following Tracey (1966) as the paper cites:

1. **Seed dichotomies.**  For every input column and every pair of
   transitions ``s -> S``, ``t -> T`` (stable entries count as ``s -> s``)
   with ``S != T``, emit the seed ``({s, S}; {t, T})``.  A state variable
   constant across each block with opposite values keeps the two
   transition subcubes disjoint, so no critical race between them exists.
   Uniqueness seeds ``({s}; {t})`` for every state pair guarantee the
   paper's Section 3 requirement that "each state must have a unique
   bit-vector assignment".

2. **Merged dichotomies.**  Maximal merges of compatible seed
   orientations are the candidate state variables; one enumeration
   (:func:`~repro.assign.dichotomy.merged_dichotomies`) also yields the
   seeds each candidate covers.

3. **Covering.**  A minimum family of merged dichotomies covering every
   seed gives the fewest state variables — the paper's "general algorithm
   that will generate the smallest number of state variables".  The cover
   is solved by :func:`~repro.util.setcover.minimum_set_cover`, the
   zero-weight front end of the unate covering core the prime covers
   also use: exactly at paper scale, greedily (``exact=False``) when the
   cyclic core outgrows :data:`~repro.util.setcover.EXACT_LIMIT`.

4. **Code construction.**  Chosen dichotomy ``i`` becomes variable
   ``y{i+1}``: 0 on its left block, 1 on its right block.  States in
   neither block take 0 — any filling is valid because every constraint's
   participating states already lie inside the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..errors import StateAssignmentError
from ..flowtable.table import FlowTable
from ..util.setcover import minimum_set_cover
from .dichotomy import (
    Dichotomy,
    block_mask,
    state_bits,
    merged_dichotomies,
)
from .encoding import StateEncoding


@dataclass(frozen=True)
class AssignmentResult:
    """The encoding plus the artifacts that produced it."""

    encoding: StateEncoding
    seeds: tuple[Dichotomy, ...]
    chosen: tuple[Dichotomy, ...]
    exact: bool


def seed_dichotomies(
    table: FlowTable, uniqueness: bool = True
) -> list[Dichotomy]:
    """Seed dichotomies of the table (transition pairs + uniqueness).

    Raises :class:`StateAssignmentError` when a transition pair's blocks
    intersect — impossible in a normal-mode table, and fatal for USTT
    assignment otherwise.
    """
    seeds: list[Dichotomy] = []
    seen: set[tuple[frozenset[str], frozenset[str]]] = set()

    def note(left: set[str], right: set[str]) -> None:
        if left & right:
            raise StateAssignmentError(
                f"transition blocks intersect ({sorted(left & right)}); "
                f"the table is not in normal mode"
            )
        d = Dichotomy(frozenset(left), frozenset(right)).canonical()
        key = (d.left, d.right)
        if key not in seen:
            seen.add(key)
            seeds.append(d)

    for column in table.columns:
        moves: list[tuple[str, str]] = []
        for state in table.states:
            dest = table.next_state(state, column)
            if dest is not None:
                moves.append((state, dest))
        for (s, dest_s), (t, dest_t) in combinations(moves, 2):
            if dest_s == dest_t:
                continue
            note({s, dest_s}, {t, dest_t})

    if uniqueness:
        for s, t in combinations(table.states, 2):
            note({s}, {t})
    return absorb_seeds(seeds)


def absorb_seeds(seeds: list[Dichotomy]) -> list[Dichotomy]:
    """Drop seeds whose blocks are contained (blockwise) in another seed.

    Any variable covering the containing seed covers the contained one,
    so removing contained seeds changes neither the covering problem's
    optimum nor its feasible solutions — it only shrinks the merge graph,
    which dominates the assignment runtime on the larger machines.
    """
    if not seeds:
        return []
    bit_of = state_bits(seeds)
    blocks = [
        (block_mask(d.left, bit_of), block_mask(d.right, bit_of))
        for d in seeds
    ]
    kept: list[Dichotomy] = []
    for i, (al, ar) in enumerate(blocks):
        absorbed = False
        for j, (bl, br) in enumerate(blocks):
            if i == j:
                continue
            contained = (al & ~bl == 0 and ar & ~br == 0) or (
                al & ~br == 0 and ar & ~bl == 0
            )
            if contained:
                equal = (al == bl and ar == br) or (al == br and ar == bl)
                # Of two equal seeds keep the first occurrence only.
                if equal and j > i:
                    continue
                absorbed = True
                break
        if not absorbed:
            kept.append(seeds[i])
    return kept


def assign_states(
    table: FlowTable, uniqueness: bool = True
) -> AssignmentResult:
    """Compute a minimum-variable USTT encoding for ``table``.

    A single-state table degenerates to one variable constant 0 (some
    feedback signal must exist for the architecture to instantiate).
    """
    if table.num_states == 1:
        encoding = StateEncoding(("y1",), {table.states[0]: 0})
        return AssignmentResult(encoding, (), (), True)

    seeds = seed_dichotomies(table, uniqueness=uniqueness)
    candidates, candidate_sets = merged_dichotomies(seeds)
    cover = minimum_set_cover(set(range(len(seeds))), candidate_sets)
    chosen = [candidates[i] for i in cover.chosen]

    variables = tuple(f"y{i + 1}" for i in range(len(chosen)))
    codes: dict[str, int] = {}
    for state in table.states:
        code = 0
        for i, dichotomy in enumerate(chosen):
            if state in dichotomy.right:
                code |= 1 << i
            # left block and unassigned states take 0
        codes[state] = code
    encoding = StateEncoding(variables, codes)
    return AssignmentResult(
        encoding=encoding,
        seeds=tuple(seeds),
        chosen=tuple(chosen),
        exact=cover.exact,
    )
