import gpdecomp

# The package's public names.  Adding or dropping one is a decision that
# shows in the diff of this list.
PUBLIC = [
    "Block",
    "BlockDecomposition",
    "BoundReport",
    "ClassLayout",
    "Decomposition",
    "ExactResult",
    "FamilyTally",
    "GroundSet",
    "ParseError",
    "RPartiteGraph",
    "SearchBudget",
    "Signature",
    "VerificationReport",
    "alon_lower_coefficient",
    "base_coefficient",
    "block_to_four_parts",
    "construct_baseline",
    "construct_even_from_odd",
    "construct_star_bipartite",
    "construct_theorem1",
    "construct_theorem1_detailed",
    "construct_trivial_blocks",
    "corollary2_below_one",
    "corollary2_value",
    "count_c_prime",
    "coverage_histogram",
    "enumerate_candidate_pieces",
    "enumerate_signatures",
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


def test_public_api_is_pinned():
    assert sorted(gpdecomp.__all__) == PUBLIC
    # an explicit list can name something the package no longer defines
    assert all(hasattr(gpdecomp, name) for name in PUBLIC)
