"""The class-split construction's routes, listed one profile at a time: the
reference that ``theorem1_routes`` is tested against."""

from typing import List, Optional, Tuple

from gpdecomp.constructions import ClassLayout, Route, _profiles


def route_signature(layout: ClassLayout,
                    assignments: Tuple[Tuple[int, int], ...]) -> Optional[Route]:
    """The route whose pieces partition the edges with the given profile,
    its sorted (class, size) pairs.

    Dispatches on the profile shape:

    * all sizes 2, or sizes 1,2,...,2: the 2-classes are paired in ascending
      order through blocks and an odd leftover 2-class uses the star pieces.
      The complement of the 2-classes is one more part, which realizes every
      placement of the extra vertex at once, so every placement of the 1
      shares this route.  None (vacuous) when the complement is empty.
    * sizes 2,...,2,3: the same pairing times a 3-class decomposition.
    * anything else: plain product of per-class decompositions.
    """
    if not assignments:
        raise ValueError("empty profile")
    if any(s > layout.n for _, s in assignments):
        raise ValueError("intersection size exceeds class size")
    twos = [c for c, s in assignments if s == 2]
    rest = tuple((c, s) for c, s in assignments if s != 2)
    rest_sizes = [s for _, s in rest]
    pairs = tuple(zip(twos[::2], twos[1::2]))
    leftover = ((twos[-1], 2),) if len(twos) % 2 else ()
    if rest_sizes in ([], [1]):
        comp = tuple(v for v in range(layout.total) if v // layout.n not in twos)
        return Route("paired_two_classes", pairs, leftover, comp) if comp else None
    if rest_sizes == [3]:
        return Route("two_plus_three", pairs, leftover + rest)
    return Route("generic", (), assignments)


def per_profile_routes(layout: ClassLayout, r: int) -> List[Route]:
    """One :func:`route_signature` call per profile: the paired routes
    deduplicated and sorted first, then every other route in lexicographic
    size-vector order."""
    routes = [
        rt for rt in (route_signature(layout, a) for a, _ in _profiles(layout, r))
        if rt is not None
    ]
    paired = sorted({rt for rt in routes if rt.family == "paired_two_classes"})
    return paired + [rt for rt in routes if rt.family != "paired_two_classes"]
