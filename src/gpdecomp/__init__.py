"""Partitions of complete r-uniform hypergraphs into complete r-partite
r-graphs: constructions, exhaustive verification, exact minima on tiny
instances, and exact bound-formula evaluation."""

from .blocks import BlockDecomposition, construct_trivial_blocks, verify_blocks
from .bounds import (
    BoundReport,
    alon_lower_coefficient,
    base_coefficient,
    corollary2_value,
    count_c_prime,
    lower_bound,
    predicted_family_tallies,
    theorem1_coefficient,
    threshold_d,
)
from .constructions import (
    FamilyTally,
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1,
    construct_theorem1_detailed,
)
from .core import Decomposition, GroundSet, RPartiteGraph
from .exact import ExactResult, SearchBudget, solve_exact
from .fileio import (
    ParseError,
    parse_blocks,
    parse_decomposition,
    serialize_blocks,
    serialize_decomposition,
)
from .verifier import VerificationReport, coverage_histogram, verify_decomposition

__all__ = [
    "BlockDecomposition",
    "BoundReport",
    "Decomposition",
    "ExactResult",
    "FamilyTally",
    "GroundSet",
    "ParseError",
    "RPartiteGraph",
    "SearchBudget",
    "VerificationReport",
    "alon_lower_coefficient",
    "base_coefficient",
    "construct_baseline",
    "construct_even_from_odd",
    "construct_theorem1",
    "construct_theorem1_detailed",
    "construct_trivial_blocks",
    "corollary2_value",
    "count_c_prime",
    "coverage_histogram",
    "lower_bound",
    "parse_blocks",
    "parse_decomposition",
    "predicted_family_tallies",
    "serialize_blocks",
    "serialize_decomposition",
    "solve_exact",
    "theorem1_coefficient",
    "threshold_d",
    "verify_blocks",
    "verify_decomposition",
]
__version__ = "0.1.0"
