"""Pins on the greedy Tracey cover of the random chain tables.

``benchmarks/bench_logic.random_flow_table`` rows at 9 and 13 positions
have too many candidate dichotomies for the exact cover, so their
assignment comes from the greedy fallback (``exact=False``), which
breaks ties by candidate index.  The paper-suite goldens are all exact,
so these pins are what holds the candidate *order* of
:func:`repro.assign.dichotomy.merged_dichotomies` fixed: a reordering
changes which dichotomies the greedy cover picks.
"""

import sys
from pathlib import Path

import pytest

from repro.api import SynthesisOptions, synthesize

BENCHMARKS = Path(__file__).resolve().parent.parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from bench_logic import random_flow_table  # noqa: E402

CHOSEN = {
    9: (
        "(p0,p1,p2,p3,p4 ; p5,p6,p7,p8)",
        "(p0,p1,p2,p6,p8 ; p3,p4,p5,p7)",
        "(p0,p1,p3,p7,p8 ; p2,p4,p5,p6)",
        "(p0,p2,p3,p4,p5,p6 ; p1,p7,p8)",
    ),
    13: (
        "(p0,p1,p10,p11,p12,p2,p3 ; p4,p5,p6,p7,p8,p9)",
        "(p0,p1,p10,p11,p12,p2,p3,p4,p5,p8 ; p6,p7,p9)",
        "(p0,p1,p11,p12,p5,p6,p7,p8 ; p10,p2,p3,p4,p9)",
        "(p0,p1,p2,p3,p4,p5,p6 ; p10,p11,p12,p7,p8,p9)",
        "(p0,p10,p11,p3,p4,p5 ; p1,p12,p2,p6,p7,p8,p9)",
    ),
}


@pytest.mark.parametrize("positions", sorted(CHOSEN))
def test_greedy_cover_choice_is_pinned(positions):
    result = synthesize(
        random_flow_table(positions), SynthesisOptions(minimize=False)
    )
    assignment = result.assignment
    assert assignment.exact is False
    assert tuple(str(d) for d in assignment.chosen) == CHOSEN[positions]
