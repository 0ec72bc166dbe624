import hashlib
from dataclasses import asdict
from itertools import combinations, product
from math import comb, prod

import pytest

from gpdecomp import (
    ClassLayout,
    Signature,
    binomial,
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1,
    construct_theorem1_detailed,
    construct_trivial_blocks,
    enumerate_signatures,
    predicted_family_tallies,
    serialize_decomposition,
    verify_blocks,
    verify_decomposition,
)
from gpdecomp.blocks import BipartiteGraph, Block, BlockDecomposition
from gpdecomp.constructions import _route_pieces, route_signature
from gpdecomp.core import Decomposition, GroundSet, RPartiteGraph, edge_masks, edge_of_mask


def piece_edges(piece):
    """The edges of a piece as sorted vertex tuples."""
    return map(edge_of_mask, edge_masks(piece))


# -- baseline -----------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_baseline_counts_and_validity(n):
    for r in range(1, n + 1):
        dec = construct_baseline(n, r)
        assert dec.piece_count == binomial(n - (r + 1) // 2, r // 2)
        assert verify_decomposition(dec).valid


def test_baseline_special_cases():
    assert construct_baseline(5, 1).piece_count == 1
    assert construct_baseline(5, 2).piece_count == 4
    assert construct_baseline(5, 3).piece_count == 3
    assert construct_baseline(6, 4).piece_count == 6
    assert construct_baseline(7, 5).piece_count == 6


def test_baseline_bytes_golden():
    # The serialized baseline for every 1 <= r <= n <= 12, in (n, r) order,
    # hashed as one stream: pins the pieces and their order, not only counts.
    h = hashlib.sha256()
    for n in range(1, 13):
        for r in range(1, n + 1):
            h.update(serialize_decomposition(construct_baseline(n, r)).encode())
    assert h.hexdigest() == "6fe1ddba77db408fcb72b7ed727335d6b141e33034adf6bbd9af2dc8898c2e1b"


def test_baseline_rejects_bad_uniformity():
    with pytest.raises(ValueError):
        construct_baseline(3, 4)
    with pytest.raises(ValueError):
        construct_baseline(3, 0)


def test_stars():
    # At r = 2 the baseline is the n-1 stars ({0..a-1}, {a}).
    assert construct_baseline(2, 2).piece_count == 1
    assert construct_baseline(4, 2).piece_count == 3
    dec = construct_baseline(50, 2)
    assert dec.piece_count == 49
    assert verify_decomposition(dec).valid
    assert [p.parts for p in construct_baseline(4, 2).pieces] == [
        ((0,), (1,)), ((0, 1), (2,)), ((0, 1, 2), (3,))]
    for n in (1, 0):
        with pytest.raises(ValueError):
            construct_baseline(n, 2)


# -- signatures ---------------------------------------------------------

def brute_force_signatures(k, n, r):
    """The profiles of every size vector in ``product`` order, which is the
    lexicographic order of the vectors."""
    return [
        tuple((i, s) for i, s in enumerate(vec) if s)
        for vec in product(range(n + 1), repeat=k)
        if sum(vec) == r
    ]


# (10, 2, 19) puts r far above n: 10 profiles, against C(28, 9) = 6.9M
# splits of 19 into 10 unbounded sizes.  At r < 0 there is no profile, and
# at r = 0 there is one, the empty profile.
@pytest.mark.parametrize(
    "k,n,r",
    [(3, 3, 5), (2, 3, 5), (1, 4, 4), (4, 2, 7), (3, 4, 6), (10, 2, 19)]
    + [(k, 2, r) for k in (1, 2, 3) for r in (-2, -1, 0)],
)
def test_enumerate_signatures_matches_brute_force(k, n, r):
    sigs = enumerate_signatures(ClassLayout(k=k, n=n), r)
    got = [s.assignments for s in sigs]
    assert got == brute_force_signatures(k, n, r)
    assert len(got) == len(set(got))


def test_enumerate_signatures_worked_example():
    sigs = enumerate_signatures(ClassLayout(k=3, n=3), 5)
    assert len(sigs) == 12
    by_type = {}
    for s in sigs:
        by_type.setdefault(tuple(sorted(size for _, size in s.assignments)), []).append(s)
    assert len(by_type[(2, 3)]) == 6
    assert len(by_type[(1, 2, 2)]) == 3
    assert len(by_type[(1, 1, 3)]) == 3


def test_enumerate_signatures_k2():
    sigs = enumerate_signatures(ClassLayout(k=2, n=3), 5)
    assert sorted(s.assignments for s in sigs) == [
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]


def test_signature_census_identity():
    # summing the per-signature edge counts reproduces binomial(kn, r)
    for k, n, r in [(3, 3, 5), (4, 2, 5), (3, 4, 7), (2, 5, 6)]:
        sigs = enumerate_signatures(ClassLayout(k=k, n=n), r)
        total = sum(prod(comb(n, s) for _, s in sig.assignments) for sig in sigs)
        assert total == binomial(k * n, r)


# -- the pieces of one signature ---------------------------------------

def signature_pieces(layout, sig):
    """The pieces the class-split construction gives one profile's route,
    with the default providers."""
    routes = [route_signature(layout, sig)]
    return next(_route_pieces(layout, routes, construct_baseline, construct_trivial_blocks))


def edges_with_profile(layout, profile):
    """All r-sets whose intersection with class i has size profile.get(i, 0)."""
    n, k = layout.n, layout.k
    r = sum(profile.values())
    out = []
    for e in combinations(range(k * n), r):
        sizes = {i: 0 for i in range(k)}
        for v in e:
            sizes[v // n] += 1
        if {i: s for i, s in sizes.items() if s} == profile:
            out.append(e)
    return out


def test_decompose_signature_paired_family_with_complement():
    layout = ClassLayout(k=3, n=3)
    sig = Signature(((0, 2), (1, 2)))  # the lone extra vertex lives elsewhere
    pieces = signature_pieces(layout, sig)
    assert len(pieces) == 4
    comp = (6, 7, 8)
    covered = []
    for p in pieces:
        assert comp in p.parts
        covered.extend(piece_edges(p))
    expected = edges_with_profile(layout, {0: 2, 1: 2, 2: 1})
    assert sorted(covered) == sorted(expected)
    assert len(expected) == 27


def test_decompose_signature_two_three():
    layout = ClassLayout(k=3, n=3)
    pieces = signature_pieces(layout, Signature(((0, 3), (1, 2))))
    assert len(pieces) == 2
    covered = [e for p in pieces for e in piece_edges(p)]
    assert sorted(covered) == sorted(edges_with_profile(layout, {0: 3, 1: 2}))
    assert len(covered) == 3


def test_decompose_signature_generic():
    layout = ClassLayout(k=3, n=3)
    pieces = signature_pieces(layout, Signature(((0, 3), (1, 1), (2, 1))))
    assert len(pieces) == 1
    covered = list(piece_edges(pieces[0]))
    assert sorted(covered) == sorted(edges_with_profile(layout, {0: 3, 1: 1, 2: 1}))
    assert len(covered) == 9


def test_decompose_signature_vacuous_when_no_complement():
    layout = ClassLayout(k=2, n=3)
    assert route_signature(layout, Signature(((0, 2), (1, 2)))) is None


def test_decompose_signature_rejects_oversized():
    with pytest.raises(ValueError):
        signature_pieces(ClassLayout(k=2, n=3), Signature(((0, 4), (1, 1))))


# -- theorem 1 ----------------------------------------------------------

def test_theorem1_worked_example():
    dec, tally = construct_theorem1_detailed(3, 3, 5)
    assert dec.piece_count == 27
    assert (tally.paired_two_classes, tally.two_plus_three, tally.generic) == (12, 12, 3)
    report = verify_decomposition(dec)
    assert report.valid
    assert report.edge_count == 126


def test_theorem1_small_cases():
    dec = construct_theorem1(2, 3, 5)
    rep = verify_decomposition(dec)
    assert rep.valid and rep.edge_count == 6

    # k = d leaves no complement: the paired family is vacuous
    dec, tally = construct_theorem1_detailed(3, 2, 5)
    assert tally.paired_two_classes == 0
    rep = verify_decomposition(dec)
    assert rep.valid and rep.edge_count == 6


def test_theorem1_preconditions():
    with pytest.raises(ValueError):
        construct_theorem1(3, 3, 4)  # even r
    with pytest.raises(ValueError):
        construct_theorem1(3, 3, 1)
    with pytest.raises(ValueError):
        construct_theorem1(2, 2, 5)  # r > k*n
    with pytest.raises(ValueError):
        construct_theorem1(1, 5, 3)  # n < 2


def test_theorem1_accepts_substituted_block_provider():
    bip = [
        BipartiteGraph((0, 1), (2, 3)),
        BipartiteGraph((0,), (1,)),
        BipartiteGraph((2,), (3,)),
    ]
    bd = BlockDecomposition(4, tuple(Block(a, b) for a, b in product(bip, bip)))
    assert verify_blocks(bd).valid
    swapped = construct_theorem1(4, 3, 5, block_provider=lambda n: bd)
    assert verify_decomposition(swapped).valid
    # equal-size provider: piece count must not increase
    default = construct_theorem1(4, 3, 5)
    assert swapped.piece_count <= default.piece_count


def split_trivial_blocks(n):
    """A valid (n-1)^2 + 1 block decomposition: the first trivial block with
    the second side of its first bipartite graph cut in two."""
    bd = construct_trivial_blocks(n)
    head = bd.blocks[0]
    a, b = head.first.side_a, head.first.side_b
    halves = (
        Block(BipartiteGraph(a, b[:1]), head.second),
        Block(BipartiteGraph(a, b[1:]), head.second),
    )
    return BlockDecomposition(n, halves + bd.blocks[1:])


@pytest.mark.parametrize("n,k,r", [(3, 3, 5), (4, 3, 5), (3, 4, 7), (3, 5, 9)])
def test_theorem1_tally_follows_block_count(n, k, r):
    bd = split_trivial_blocks(n)
    assert len(bd.blocks) == (n - 1) ** 2 + 1
    assert verify_blocks(bd).valid
    dec, tally = construct_theorem1_detailed(n, k, r, block_provider=lambda m: bd)
    assert verify_decomposition(dec).valid
    d = (r - 1) // 2
    predicted = predicted_family_tallies(n, k, d, block_count_fn=lambda m: (m - 1) ** 2 + 1)
    assert asdict(tally) == predicted
    assert predicted != predicted_family_tallies(n, k, d)


def _trivial_blocks_plus(extra, drop=0):
    """A block provider: the trivial blocks without the first ``drop`` ones,
    plus ``extra``."""
    return lambda m: BlockDecomposition(m, construct_trivial_blocks(m).blocks[drop:] + extra)


def _baseline_except(size, replace):
    """A sub-provider: the baseline, except ``replace(n)`` for ``size``."""
    return lambda m, s: replace(m) if s == size else construct_baseline(m, s)


STRAY_BLOCK = Block(BipartiteGraph((0,), (3,)), BipartiteGraph((0,), (1,)))
FIRST_TRIVIAL = construct_trivial_blocks(3).blocks[0]


@pytest.mark.parametrize(
    "providers,message",
    [
        (dict(block_provider=_trivial_blocks_plus((STRAY_BLOCK,))),
         r"^out-of-range vertex 3$"),
        (dict(block_provider=_trivial_blocks_plus((FIRST_TRIVIAL,))),
         r"block_provider\(3\) is invalid: pair \(\(0, 1\), \(0, 1\)\) covered 2 times"),
        (dict(block_provider=_trivial_blocks_plus((), drop=1)),
         r"block_provider\(3\) is invalid: pair \(\(0, 1\), \(0, 1\)\) covered 0 times"),
        (dict(block_provider=lambda m: construct_trivial_blocks(m + 1)),
         r"block_provider\(3\) returned an output for n=4$"),
        (dict(sub_provider=_baseline_except(
            2, lambda m: Decomposition(GroundSet(m, 2), construct_baseline(m, 2).pieces[1:]))),
         r"sub_provider\(3, 2\) is invalid: edge \(0, 1\) covered 0 times"),
        (dict(sub_provider=_baseline_except(3, lambda m: construct_baseline(m + 1, 3))),
         r"sub_provider\(3, 3\) returned an output for n=4, r=3$"),
    ],
    ids=["out-of-range-block", "duplicated-block", "missing-block", "blocks-for-wrong-n",
         "short-sub", "sub-of-wrong-ground"],
)
def test_theorem1_rejects_bad_provider(providers, message):
    with pytest.raises(ValueError, match=message):
        construct_theorem1(3, 3, 5, **providers)


def _verified(*args):
    raise AssertionError("an output of the wrong size was verified")


@pytest.mark.parametrize(
    "verifier,providers,message",
    [
        ("verify_decomposition", dict(sub_provider=lambda m, s: construct_baseline(m + 1, s)),
         r"sub_provider\(3, 1\) returned an output for n=4, r=1$"),
        ("verify_blocks", dict(block_provider=lambda m: construct_trivial_blocks(m + 1)),
         r"block_provider\(3\) returned an output for n=4$"),
    ],
    ids=["sub", "blocks"],
)
def test_theorem1_refuses_wrong_size_before_verifying(monkeypatch, verifier, providers, message):
    # The O(1) size check comes first: a full verification of K_4^(1) or of
    # the blocks for 4 would be wasted on an output that is refused anyway.
    monkeypatch.setattr(f"gpdecomp.constructions.{verifier}", _verified)
    with pytest.raises(ValueError, match=message):
        construct_theorem1(3, 3, 5, **providers)


# SHA-256 of the serialized output, which pins piece order as well as content.
THEOREM1_GOLDEN = {
    (3, 3, 5): "3d617d5da88eed1af5cf2d7d3359b99e364b9591d2f80632032c83357adb8d8f",
    (4, 3, 5): "82c18f00ae15642251066f658830e1ac8243bd2978226c35d590be153c74eae0",
    (3, 4, 7): "a94ca3f40e1058ad2a648603b4564618f3b266facb9fc38f7b1fc0b04b952a38",
    (2, 5, 9): "fc4d6219178e3ed3a49c050789c57c039d0c40862a596644375df00b168a711e",
    (5, 3, 3): "daa82c1c95bef5a33a61f296beb93af1778b10fee4633879821986b591e060fb",
    (4, 4, 7): "cb7e4e8bc80a3ec14991585aa934d90f953bf2256c0a8b00d31c6e4f570f0051",
}


@pytest.mark.parametrize("n,k,r", sorted(THEOREM1_GOLDEN))
def test_theorem1_golden_output(n, k, r):
    text = serialize_decomposition(construct_theorem1(n, k, r))
    assert hashlib.sha256(text.encode()).hexdigest() == THEOREM1_GOLDEN[(n, k, r)]


def _scrambled(dec):
    """``dec`` with each piece's parts in reverse order, each part reversed."""
    return Decomposition(dec.ground, tuple(
        RPartiteGraph(tuple(part[::-1] for part in p.parts[::-1])) for p in dec.pieces))


def _scrambled_blocks(m):
    """The trivial blocks with each bipartite factor's sides swapped and reversed."""
    flip = lambda g: BipartiteGraph(g.side_b[::-1], g.side_a[::-1])
    return BlockDecomposition(m, tuple(
        Block(flip(b.first), flip(b.second)) for b in construct_trivial_blocks(m).blocks))


@pytest.mark.parametrize("n,k,r", [(4, 3, 5), (3, 4, 7), (5, 3, 3)])
def test_theorem1_canonical_from_unsorted_providers(n, k, r):
    scrambled = construct_theorem1(n, k, r, sub_provider=lambda m, s: _scrambled(
        construct_baseline(m, s)), block_provider=_scrambled_blocks)
    assert serialize_decomposition(scrambled) == serialize_decomposition(construct_theorem1(n, k, r))


def test_even_from_odd_canonical_from_unsorted_provider():
    scrambled = construct_even_from_odd(10, 4, odd_provider=lambda m, s: _scrambled(
        construct_baseline(m, s)))
    assert serialize_decomposition(scrambled) == serialize_decomposition(construct_even_from_odd(10, 4))


# -- even from odd ------------------------------------------------------

@pytest.mark.parametrize("n,r", [(4, 2), (6, 4), (10, 4), (7, 2)])
def test_even_from_odd_valid(n, r):
    dec = construct_even_from_odd(n, r)
    assert verify_decomposition(dec).valid
    source = construct_baseline(n + 1, r + 1)
    assert dec.piece_count <= source.piece_count


@pytest.mark.parametrize(
    "odd_provider,message",
    [
        (lambda m, s: Decomposition(GroundSet(m, s), construct_baseline(m, s).pieces[1:]),
         r"odd_provider\(7, 5\) is invalid: edge \(0, 1, 2, 3\) covered 0 times$"),
        (lambda m, s: construct_baseline(m + 1, s),
         r"odd_provider\(7, 5\) returned an output for n=8, r=5$"),
        (lambda m, s: construct_baseline(m, s - 2),
         r"odd_provider\(7, 5\) returned an output for n=7, r=3$"),
        (lambda m, s: Decomposition(GroundSet(m, s), (
            RPartiteGraph(((0,), (0, 1), (2,), (3,), (6,))),) + construct_baseline(m, s).pieces[1:]),
         r"^piece 0 has overlapping parts at vertex 0$"),
    ],
    ids=["dropped-piece", "wrong-n", "wrong-r", "overlapping-parts"],
)
def test_even_from_odd_rejects_bad_provider(odd_provider, message):
    with pytest.raises(ValueError, match=message):
        construct_even_from_odd(6, 4, odd_provider=odd_provider)


def test_even_from_odd_preconditions():
    with pytest.raises(ValueError):
        construct_even_from_odd(5, 3)
    with pytest.raises(ValueError):
        construct_even_from_odd(3, 4)
