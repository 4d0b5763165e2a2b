"""Differential test: the mirror-broken enumerator against the definition.

:func:`repro.assign.dichotomy.merged_dichotomies` enumerates one maximal
clique per mirror pair and reads each candidate's covered seeds off its
clique.  The oracle here is the naive definition it replaces: every
maximal clique of the compatibility graph over *all* distinct seed
orientations, merged, canonicalised, deduplicated and sorted, and a
:meth:`Dichotomy.covers` scan of every candidate against every seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.dichotomy import (
    Dichotomy,
    maximal_merged_dichotomies,
    merge_all,
    merged_dichotomies,
)

#: State names whose sorted order differs from both their numeric and
#: their insertion order ("p10" < "p2"), so index order is exercised.
NAMES = ("p2", "p10", "p0", "q", "P1", "p1", "r3")


def naive_maximal_cliques(vertices: list[Dichotomy]) -> list[list[Dichotomy]]:
    """Every maximal clique of the pairwise-compatibility graph, by
    extending cliques in index order and keeping those no vertex extends."""
    n = len(vertices)
    compatible = {
        (i, j): vertices[i].compatible(vertices[j])
        for i in range(n)
        for j in range(n)
    }
    cliques: list[list[int]] = []

    def grow(clique: list[int], start: int) -> None:
        cliques.append(clique)
        for v in range(start, n):
            if all(compatible[u, v] for u in clique):
                grow(clique + [v], v + 1)

    grow([], 0)
    maximal = [
        clique
        for clique in cliques
        if clique
        and not any(
            v not in clique and all(compatible[u, v] for u in clique)
            for v in range(n)
        )
    ]
    return [[vertices[v] for v in clique] for clique in maximal]


def oracle(seeds: list[Dichotomy]):
    oriented: list[Dichotomy] = []
    for seed in seeds:
        for d in (seed, seed.reversed()):
            if d not in oriented:
                oriented.append(d)
    cliques = naive_maximal_cliques(oriented)
    merged = {merge_all(clique).canonical() for clique in cliques}
    candidates = sorted(merged, key=lambda d: (sorted(d.left), sorted(d.right)))
    coverage = [
        frozenset(i for i, seed in enumerate(seeds) if c.covers(seed))
        for c in candidates
    ]
    return candidates, coverage, len(cliques)


@st.composite
def seed_families(draw):
    """2-7 states; seeds in arbitrary orientation, with duplicates and
    mirrored duplicates mixed in."""
    states = draw(
        st.lists(st.sampled_from(NAMES), min_size=2, max_size=7, unique=True)
    )
    sides = st.lists(
        st.sampled_from((0, 1, 2)), min_size=len(states), max_size=len(states)
    ).filter(lambda s: 1 in s and 2 in s)

    def dichotomy(side: list[int]) -> Dichotomy:
        return Dichotomy(
            frozenset(s for s, k in zip(states, side) if k == 1),
            frozenset(s for s, k in zip(states, side) if k == 2),
        )

    seeds = [
        dichotomy(side) for side in draw(st.lists(sides, min_size=1, max_size=7))
    ]
    for i in draw(st.lists(st.integers(0, len(seeds) - 1), max_size=3)):
        seeds.append(seeds[i].reversed() if draw(st.booleans()) else seeds[i])
    return draw(st.permutations(seeds))


@given(seed_families())
@settings(max_examples=150, deadline=None)
def test_enumerator_matches_the_naive_definition(seeds):
    candidates, coverage = merged_dichotomies(seeds)
    expected, expected_coverage, clique_count = oracle(seeds)
    assert candidates == expected
    assert coverage == expected_coverage
    assert maximal_merged_dichotomies(seeds) == expected
    # Mirror-pair lemma: the full graph's maximal cliques are exactly the
    # mirror pairs of the enumerated ones.
    assert clique_count == 2 * len(candidates)


def test_duplicate_orientations_share_coverage():
    a = Dichotomy(frozenset({"a"}), frozenset({"b"}))
    c = Dichotomy(frozenset({"c"}), frozenset({"d"}))
    seeds = [a, c, a.reversed(), a]
    candidates, coverage = merged_dichotomies(seeds)
    assert [str(d) for d in candidates] == ["(a,c ; b,d)", "(a,d ; b,c)"]
    assert coverage == [frozenset({0, 1, 2, 3})] * 2


def test_no_seeds_no_candidates():
    assert merged_dichotomies([]) == ([], [])
