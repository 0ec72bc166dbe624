import ast
from pathlib import Path

import gpdecomp

# The package's public names.  Adding or dropping one is a decision that
# shows in the diff of this list.
PUBLIC = [
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


def test_public_api_is_pinned():
    assert sorted(gpdecomp.__all__) == PUBLIC
    # an explicit list can name something the package no longer defines
    assert all(hasattr(gpdecomp, name) for name in PUBLIC)


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public name that only the tests use is surface to document, pin and
    # keep working for no caller: move it into the tests instead.  A use is
    # any Name or Attribute node naming it, in the package's modules other
    # than __init__.py or in the benchmark.
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in sorted((root / "src" / "gpdecomp").glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in paths + sorted((root / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(gpdecomp.__all__) - used)
    assert not unused, f"public names with no caller outside the tests: {unused}"
