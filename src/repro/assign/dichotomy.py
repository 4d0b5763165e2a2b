"""Dichotomies: the partition-pair currency of Tracey state assignment.

Paper Step 3 finds "a valid unicode single-time transition (USTT) state
assignment ... using partition sets [Tracey 1966]".  Tracey's method works
with *dichotomies*: ordered pairs of disjoint state blocks ``(L; R)``.  A
state variable *covers* a dichotomy when it is constant 0 on every state
of one block and constant 1 on every state of the other.

Two facts drive the algorithm:

* every pair of transitions ``s -> S`` and ``t -> T`` in the same input
  column with different destinations generates the seed dichotomy
  ``({s, S}; {t, T})`` — a variable covering it keeps the two transition
  subcubes disjoint, which is exactly the USTT race-freedom condition;
* ordered dichotomies merge when their left blocks avoid each other's
  right blocks, and a set of pairwise-compatible dichotomies merges as a
  whole (unions of lefts and rights stay disjoint), so maximal merged
  dichotomies are maximal cliques of the pairwise-compatibility graph.

Two lemmas make that enumeration cheap (:func:`merged_dichotomies`):

* **mirror pairs** — swapping the blocks of both ends preserves
  compatibility and no clique holds both orientations of one seed, so
  maximal cliques come in disjoint mirror pairs; one member per pair is
  enumerated;
* **coverage by maximality** — a seed orientation whose blocks lie inside
  a maximal clique's merged dichotomy is compatible with every member, so
  it is a member: the seeds a candidate covers are read off its clique.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StateAssignmentError
from ..logic.bitset import iter_bits


@dataclass(frozen=True)
class Dichotomy:
    """An ordered pair of disjoint, non-empty state blocks."""

    left: frozenset[str]
    right: frozenset[str]

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise StateAssignmentError("dichotomy blocks must be non-empty")
        if self.left & self.right:
            raise StateAssignmentError(
                f"dichotomy blocks overlap: {sorted(self.left & self.right)}"
            )

    # ------------------------------------------------------------------
    def reversed(self) -> "Dichotomy":
        """The opposite orientation (blocks swapped)."""
        return Dichotomy(self.right, self.left)

    def canonical(self) -> "Dichotomy":
        """Orientation-independent canonical form (for deduplication)."""
        if sorted(self.left) <= sorted(self.right):
            return self
        return self.reversed()

    def compatible(self, other: "Dichotomy") -> bool:
        """True when the two ordered dichotomies can merge."""
        return not (self.left & other.right) and not (self.right & other.left)

    def merge(self, other: "Dichotomy") -> "Dichotomy":
        """Union of blocks; only valid when :meth:`compatible`."""
        if not self.compatible(other):
            raise StateAssignmentError(
                f"cannot merge incompatible dichotomies {self} and {other}"
            )
        return Dichotomy(self.left | other.left, self.right | other.right)

    def covers(self, seed: "Dichotomy") -> bool:
        """True when this (merged) dichotomy covers ``seed`` in either
        orientation."""
        return (seed.left <= self.left and seed.right <= self.right) or (
            seed.left <= self.right and seed.right <= self.left
        )

    @property
    def states(self) -> frozenset[str]:
        return self.left | self.right

    def __str__(self) -> str:
        left = ",".join(sorted(self.left))
        right = ",".join(sorted(self.right))
        return f"({left} ; {right})"


def merge_all(dichotomies: list[Dichotomy]) -> Dichotomy:
    """Merge a pairwise-compatible family into one dichotomy."""
    if not dichotomies:
        raise StateAssignmentError("cannot merge an empty family")
    merged = dichotomies[0]
    for other in dichotomies[1:]:
        merged = merged.merge(other)
    return merged


def state_bits(dichotomies: list[Dichotomy]) -> dict[str, int]:
    """Assign each state of ``dichotomies`` one bit position (sorted order).

    The returned mapping, together with :func:`block_mask`, is the shared
    packing convention for every bitset consumer of dichotomy blocks
    (:func:`merged_dichotomies` and
    :func:`repro.assign.tracey.absorb_seeds`).
    """
    states = sorted({s for d in dichotomies for s in d.states})
    return {s: k for k, s in enumerate(states)}


def block_mask(block: frozenset[str], bit_of: dict[str, int]) -> int:
    """Pack a state block into an incidence bitset under ``bit_of``."""
    bits = 0
    for s in block:
        bits |= 1 << bit_of[s]
    return bits


def merged_dichotomies(
    seeds: list[Dichotomy],
) -> tuple[list[Dichotomy], list[frozenset[int]]]:
    """Tracey's candidate state variables and the seeds each one covers.

    Returns the maximal merged dichotomies of
    :func:`maximal_merged_dichotomies` and, for each, the indices into
    ``seeds`` of the seeds it :meth:`~Dichotomy.covers` — the incidence
    input of the covering step in :func:`repro.assign.tracey.assign_states`.

    Distinct seeds are numbered ``k`` (duplicates and mirrored duplicates
    share a number); vertex ``2k`` is seed ``k`` as given and vertex
    ``2k + 1`` its mirror.  Three lemmas shape the enumeration:

    * **Mirror pairs.**  Swapping both dichotomies' blocks preserves
      compatibility, and no clique holds both orientations of one seed
      (its blocks would overlap), so maximal cliques come in disjoint
      mirror pairs merging to the two orientations of one dichotomy.
      Rooting the search at ``R = {2k}`` with ``P`` the neighbours from
      seeds above ``k`` and ``X`` those from seeds below ``k`` emits
      exactly the pair member holding vertex ``2k`` for the smallest
      seed ``k`` the pair touches: one clique per pair.
    * **Coverage by maximality.**  A seed orientation whose blocks lie
      inside a maximal clique's merged ``(L; R)`` is compatible with
      every member, so it is already a member: a candidate covers
      exactly the seeds of its clique, folded over mirror pairs.
    * **No duplicates.**  Two maximal cliques merging to the same
      dichotomy would have a clique as their union, so distinct pairs
      yield distinct candidates.

    The recursion is Bron–Kerbosch with the Tomita pivot (Tomita, Tanaka
    & Takahashi 2006) on vertex bitsets walked as ``low = v & -v``.
    States are bit positions in sorted-name order, so sorting candidates
    on their blocks' bit-index tuples is sorting on their name lists.
    """
    bit_of = state_bits(seeds)
    states = sorted(bit_of)
    lefts: list[int] = []
    rights: list[int] = []
    holders: list[list[int]] = []  # input positions of each distinct seed
    number: dict[tuple[int, int], int] = {}
    for i, seed in enumerate(seeds):
        left = block_mask(seed.left, bit_of)
        right = block_mask(seed.right, bit_of)
        k = number.get((left, right))
        if k is None:
            k = number[(left, right)] = number[(right, left)] = len(holders)
            holders.append([])
            lefts += (left, right)
            rights += (right, left)
        holders[k].append(i)

    # adj[v] is the vertex bitset of the orientations v can merge with;
    # each test on an even vertex also settles the mirrored edge.
    n = len(lefts)
    adj = [0] * n
    for u in range(0, n, 2):
        lu, ru = lefts[u], rights[u]
        for v in range(u + 2, n):
            if not (lu & rights[v]) and not (ru & lefts[v]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                adj[u + 1] |= 1 << (v ^ 1)
                adj[v ^ 1] |= 1 << (u + 1)

    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        # Tomita pivot: the vertex of x | p with the most neighbours in p.
        # An excluded vertex adjacent to all of p would extend every
        # clique grown here, so none of them is maximal: prune.  Scanning
        # x before p lets that prune fire early.
        best = -1
        spared = 0
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            inside = adj[low.bit_length() - 1] & p
            if inside == p:
                return
            count = inside.bit_count()
            if count > best:
                best = count
                spared = inside
        rest = p
        while rest:
            low = rest & -rest
            rest ^= low
            inside = adj[low.bit_length() - 1] & p
            count = inside.bit_count()
            if count > best:
                best = count
                spared = inside
        branch = p & ~spared
        while branch:
            low = branch & -branch
            branch ^= low
            near = adj[low.bit_length() - 1]
            if p & near:
                expand(r | low, p & near, x & near)
            elif not x & near:
                cliques.append(r | low)
            p ^= low
            x |= low

    for u in range(0, n, 2):
        near = adj[u]
        below = (1 << u) - 1
        if near & ~below:
            expand(1 << u, near & ~below, near & below)
        elif not near:
            cliques.append(1 << u)

    rows = []
    for clique in cliques:
        left = right = 0
        covered: list[int] = []
        for v in iter_bits(clique):
            left |= lefts[v]
            right |= rights[v]
            covered += holders[v >> 1]
        a = tuple(iter_bits(left))
        b = tuple(iter_bits(right))
        if a > b:
            a, b = b, a
        rows.append((a, b, frozenset(covered)))
    rows.sort(key=lambda row: row[:2])
    candidates = [
        Dichotomy(
            frozenset(states[k] for k in a), frozenset(states[k] for k in b)
        )
        for a, b, _ in rows
    ]
    return candidates, [covered for _, _, covered in rows]


def maximal_merged_dichotomies(seeds: list[Dichotomy]) -> list[Dichotomy]:
    """All maximal merges of pairwise-compatible seed orientations.

    Both orientations of every seed participate.  Each maximal clique of
    the compatibility graph, taken up to its mirror, merges to one
    returned dichotomy — one candidate state variable — in canonical
    orientation; the list is sorted on the blocks' sorted state names.
    See :func:`merged_dichotomies`, which also returns each candidate's
    covered seeds.
    """
    return merged_dichotomies(seeds)[0]
