"""Two-level logic engine: cubes, functions, Quine-McCluskey, covers, ASTs.

This package is the substrate under every synthesis stage of SEANCE:

* :class:`~repro.logic.cube.Cube` — product terms over a fixed space,
* :class:`~repro.logic.function.BooleanFunction` — incompletely specified
  functions as explicit on/dc minterm sets,
* :mod:`~repro.logic.quine_mccluskey` — prime-implicant generation,
* :mod:`~repro.logic.cover` — essential-prime extraction and minimum
  cover selection (the paper's "essential SOP expression"),
* :mod:`~repro.logic.expr` — gate-level expression trees with the paper's
  depth convention,
* :mod:`~repro.logic.factor` — first-level (AND-NOR) expansion, consensus
  bridging and the ``L·R`` common-cube factoring of Figure 5,
* :mod:`~repro.logic.depth` — Table 1's depth metrics.
"""

from .bitset import (
    CHUNK_BITS,
    DENSE_WIDTH_LIMIT,
    ChunkedMask,
    chunked_coverage,
    coverage_mask,
    full_mask,
    iter_bits,
    mask_of,
)
from .cube import Cube, cover_contains, remove_contained
from .cover import (
    CoverResult,
    essential_primes,
    essential_sop,
    minimal_cover,
)
from .depth import (
    CostReport,
    DepthReport,
    depth_report,
    expression_depth,
    longest_depth,
)
from .expr import (
    And,
    Const,
    Expr,
    Lit,
    Nor,
    Or,
    cube_to_expr,
    expr_truth,
    make_and,
    make_or,
    sop_to_expr,
)
from .factor import (
    bridge_consensus,
    common_cube,
    divide_cube,
    factor_groups,
    factored_sop_expr,
    first_level,
    has_complemented_inputs,
)
from .function import MAX_WIDTH, BooleanFunction, truth_table
from .quine_mccluskey import (
    all_primes_cover,
    prime_implicants,
    primes_of,
    useful_primes,
)

__all__ = [
    "And",
    "BooleanFunction",
    "CHUNK_BITS",
    "ChunkedMask",
    "Const",
    "CostReport",
    "CoverResult",
    "Cube",
    "DENSE_WIDTH_LIMIT",
    "DepthReport",
    "Expr",
    "Lit",
    "MAX_WIDTH",
    "Nor",
    "Or",
    "all_primes_cover",
    "bridge_consensus",
    "common_cube",
    "cover_contains",
    "chunked_coverage",
    "coverage_mask",
    "cube_to_expr",
    "depth_report",
    "divide_cube",
    "essential_primes",
    "essential_sop",
    "expr_truth",
    "expression_depth",
    "factor_groups",
    "factored_sop_expr",
    "first_level",
    "full_mask",
    "has_complemented_inputs",
    "iter_bits",
    "longest_depth",
    "make_and",
    "make_or",
    "mask_of",
    "minimal_cover",
    "prime_implicants",
    "primes_of",
    "remove_contained",
    "sop_to_expr",
    "truth_table",
    "useful_primes",
]
