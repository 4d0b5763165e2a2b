"""Experiment F5 — the Figure-5 factoring, and what it costs.

Two ablations around the paper's Step 7 (the joint run sets the
``reduce_mode="joint"`` option; the default is the paper's ``split``):

* **split vs joint reduction** — the paper reduces the ``f̄sv`` and
  ``fsv`` halves separately (the canonical form its worked example
  factors from); letting the minimiser merge across the boundary gives
  smaller but shallower logic.  Both must compute the same functions;
  the bench reports the depth/literal trade *and* the per-pass
  wall-clock diff of the ``factor`` stage (from the
  :class:`~repro.pipeline.manager.PipelineReport` of each run).
* **Hackbart & Dietmeyer's remark** — "the possible slowed response of a
  network using a hazard detection variable ... the levels of state
  variable logic can be high" (paper Section 6): the factored FANTOM
  next-state depth versus the two-level SIC baseline's.
"""

import pytest

from conftest import cold_report, pass_seconds, print_table
from repro import api
from repro.baselines.huffman import synthesize_huffman
from repro.bench import TABLE1_BENCHMARKS
from repro.bench import benchmark as load_bench

_rows: list[tuple] = []
_timing_rows: list[tuple] = []


@pytest.mark.parametrize("name", TABLE1_BENCHMARKS)
def test_factoring_ablation(benchmark, name):
    table = load_bench(name)

    split = benchmark(api.synthesize, table)
    split_cold, split_report = cold_report(table)
    joint, joint_report = cold_report(
        table, api.SynthesisOptions(reduce_mode="joint")
    )
    sic = synthesize_huffman(table)

    def y_cost(result):
        depth = max(eq.expr.depth() for eq in result.next_state)
        literals = sum(len(eq.expr.literals()) for eq in result.next_state)
        return depth, literals

    split_depth, split_lits = y_cost(split)
    joint_depth, joint_lits = y_cost(joint)
    _rows.append(
        (
            name,
            split_depth,
            split_lits,
            joint_depth,
            joint_lits,
            sic.y_depth,
        )
    )
    split_ms = pass_seconds(split_report, "factor") * 1000
    joint_ms = pass_seconds(joint_report, "factor") * 1000
    _timing_rows.append(
        (
            name,
            f"{split_ms:.2f}",
            f"{joint_ms:.2f}",
            f"{joint_ms - split_ms:+.2f}",
        )
    )

    # the two runs must agree everywhere upstream of Step 7
    assert split_cold.table1_row() == split.table1_row()
    assert joint.assignment.encoding == split.assignment.encoding
    # both modes factor the same functions, so the depth ordering is the
    # only degree of freedom; joint can only be as deep or shallower.
    assert joint_depth <= split_depth
    # the Hackbart-Dietmeyer remark: the protected machine is deeper
    # than the two-level SIC baseline.
    assert split_depth >= sic.y_depth


def test_print_factoring(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if _rows:
        print_table(
            "Figure 5 — factoring ablation "
            "(reduce_mode split vs joint; SIC = two-level baseline)",
            ["Benchmark", "split depth", "split lits", "joint depth",
             "joint lits", "SIC depth"],
            _rows,
        )
    if _timing_rows:
        print_table(
            "factor-stage wall clock, split vs joint "
            "(cold runs, per-pass PipelineReport timings)",
            ["Benchmark", "split ms", "joint ms", "diff ms"],
            _timing_rows,
        )
