"""Job lists of the three workloads, with the checks on every output.

A builder takes the imported ``gpdecomp`` package, a seeded ``random.Random``
and a scratch directory, and returns the job list of one pass.  The seed sets
job order, mutant kinds and mutation positions; the library only ever sees
the generated inputs.  Expected answers are computed here from the inputs,
not by asking the library; the one exception is that theorem1 tallies are
compared with the bounds layer's prediction, so that two layers must agree.

Mutants are made by editing the serialized text of a valid decomposition, so
their expected witness follows from which line was touched:

* delete piece i: the smallest edge of piece i is covered 0 times;
* duplicate piece i: the same edge is covered twice, by the two copies;
* move vertex v from part A to part B of piece i: the edges of i through v
  lose their cover and the edges through v with one vertex of A minus v gain
  a second one; the smallest of these is the witness.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from math import comb, prod
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from recorder import Job, Recorder

Parts = Tuple[Tuple[int, ...], ...]
Edge = Tuple[int, ...]

# verify-ladder: 75k-145k-edge decompositions, all exhaustively checkable.
LADDER = [
    ("theorem1", (7, 3, 7)),
    ("theorem1", (10, 3, 5)),
    ("baseline", (20, 8)),
    ("baseline", (24, 6)),
    ("baseline", (28, 5)),
    ("baseline", (19, 10)),
    ("even-from-odd", (22, 6)),
]
CLI_INSTANCE = (10, 3, 5)  # theorem1 (n, k, r) taken through cli.main

# build-large: 5.5M-8.3M edges, far beyond exhaustive checking.
LARGE = [(9, 4, 7), (7, 5, 7), (8, 8, 5), (6, 10, 5), (10, 6, 5)]
BLOCK_SIZES = (25, 30)
BLOCK_MUTANT_SIZE = 25
BLOCK_MUTANTS = 5
BOUNDS_CHUNKS = [range(d, d + 3) for d in range(140, 161, 3)]
THRESHOLD_D = 147

# exact-search: (n, r, max_nodes, known f_r(n) or None).  The first four are
# proved within their budget; the last three stop at it.
EXACT = [
    (6, 3, 1_000_000, 4),
    (6, 4, 1_000_000, 6),
    (7, 3, 1_000_000, 5),
    (9, 7, 1_000_000, 9),
    (7, 4, 100_000, None),
    (8, 3, 100_000, None),
    (8, 4, 100_000, None),
]
# Facts about the open instances a sound interval must respect: f_4(7) = 9
# and f_3(8) = 6 (both MILP-proved), and a 14-piece K_8^(4) is known.
INTERVAL_MUST_CONTAIN = {(7, 4): 9, (8, 3): 6}
UPPER_KNOWN = {(8, 4): 14}


# -- text and piece helpers (independent of the library) ---------------------

def parse_line(line: str) -> Parts:
    return tuple(tuple(int(v) for v in part.split(",")) for part in line.split(" | "))


def format_line(parts) -> str:
    canon = sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0])
    return " | ".join(",".join(str(v) for v in p) for p in canon)


def min_edge(parts) -> Edge:
    """Smallest edge of a piece in lexicographic order: any edge's sorted
    vertices dominate the sorted part minima one by one."""
    return tuple(sorted(min(p) for p in parts))


def covers(parts: Parts, edge: Edge) -> bool:
    e = set(edge)
    return all(len(e.intersection(p)) == 1 for p in parts)


@dataclass(frozen=True)
class Mutant:
    text: str
    kind: str
    witness: Edge
    multiplicity: int
    hits: Optional[Tuple[int, ...]]  # None: known only from the recount
    histogram: Dict[int, int]
    pieces: Tuple[Parts, ...]  # for the recount by piece membership


KINDS = ("delete", "duplicate", "move")


def mutants(text: str, rng: random.Random) -> List[Mutant]:
    """One seeded mutant of each kind of a serialized valid decomposition.

    The verifier scans edges in lexicographic order up to the first bad one,
    so a reject's cost depends on where the touched piece's smallest edge
    falls.  The pieces are split by that edge into one stratum per mutant,
    and each mutant touches a random piece of its own stratum; the seed
    decides which kind goes to which stratum."""
    magic, n, r, body, pieces = _split(text)
    order = sorted(range(len(body)), key=lambda i: min_edge(pieces[i]))
    kinds = list(KINDS)
    rng.shuffle(kinds)
    out = []
    for j, kind in enumerate(kinds):
        stratum = order[j * len(order) // len(kinds):(j + 1) * len(order) // len(kinds)] or order
        if kind == "move":
            stratum = [i for i in stratum if any(len(p) >= 2 for p in pieces[i])] or [
                i for i in order if any(len(p) >= 2 for p in pieces[i])]
        out.append(_mutant(magic, n, r, body, pieces, rng.choice(stratum), kind, rng))
    return out


def piece_mutants(text: str, rng: random.Random) -> List[Mutant]:
    """Every one-piece deletion and duplication of a small decomposition."""
    magic, n, r, body, pieces = _split(text)
    return [_mutant(magic, n, r, body, pieces, i, kind, rng)
            for i in range(len(body)) for kind in ("delete", "duplicate")]


def _split(text: str):
    lines = text.split("\n")
    head = lines[1].split(" ")
    body = lines[2:-1]
    return lines[0], int(head[1]), int(head[3]), body, [parse_line(line) for line in body]


def _mutant(magic: str, n: int, r: int, body: List[str], pieces: List[Parts], i: int,
            kind: str, rng: random.Random) -> Mutant:
    total = comb(n, r)
    piece = pieces[i]
    size = prod(len(p) for p in piece)
    hits: Optional[Tuple[int, ...]]
    if kind == "delete":
        new, new_pieces = body[:i] + body[i + 1:], pieces[:i] + pieces[i + 1:]
        witness, mult, hits = min_edge(piece), 0, ()
        hist = {1: total - size, 0: size}
    elif kind == "duplicate":
        j = rng.randrange(len(body) + 1)
        new, new_pieces = body[:j] + [body[i]] + body[j:], pieces[:j] + [piece] + pieces[j:]
        witness, mult = min_edge(piece), 2
        hits = tuple(k for k, line in enumerate(new) if line == body[i])
        hist = {1: total - size, 2: size}
    else:
        a = rng.choice([k for k, p in enumerate(piece) if len(p) >= 2])
        b = rng.choice([k for k in range(len(piece)) if k != a])
        v = rng.choice(piece[a])
        rest = [p for k, p in enumerate(piece) if k not in (a, b)]
        shrunk = tuple(x for x in piece[a] if x != v)
        line = format_line([shrunk, piece[b] + (v,)] + rest)
        new, new_pieces = body[:i] + [line] + body[i + 1:], pieces[:i] + [parse_line(line)] + pieces[i + 1:]
        lost_min = min_edge([(v,), piece[b]] + rest)
        gained_min = min_edge([(v,), shrunk] + rest)
        lost = len(piece[b]) * prod(len(p) for p in rest)
        gained = len(shrunk) * prod(len(p) for p in rest)
        witness = min(lost_min, gained_min)
        mult = 0 if witness == lost_min else 2
        hits = None
        hist = {1: total - lost - gained, 0: lost, 2: gained}
    text = "\n".join([magic, f"n {n} r {r} pieces {len(new)}"] + new) + "\n"
    return Mutant(text, kind, witness, mult, hits, hist, tuple(new_pieces))


def check_mutant(ctx: Recorder, gp, mut: Mutant):
    """Parse a mutant, check the verifier's reject verdict and witness, and
    return the parsed decomposition."""
    t0 = time.perf_counter()
    d = ctx.call(gp.parse_decomposition, mut.text)
    rep = ctx.call(gp.verify_decomposition, d)
    ctx.verdict(time.perf_counter() - t0)
    ctx.count("fileio.bytes", len(mut.text))
    ctx.check(not rep.valid, "verifier", f"{mut.kind} mutant accepted")
    ctx.check(rep.witness == mut.witness and rep.witness_multiplicity == mut.multiplicity,
              "verifier", f"{mut.kind} mutant: witness {rep.witness} x{rep.witness_multiplicity}, "
              f"expected {mut.witness} x{mut.multiplicity}")
    if rep.witness is not None:
        hits = tuple(k for k, parts in enumerate(mut.pieces) if covers(parts, rep.witness))
        ctx.check(tuple(rep.witness_pieces) == hits and len(hits) == rep.witness_multiplicity,
                  "verifier", f"{mut.kind} mutant: covering pieces {rep.witness_pieces}, "
                  f"recount gives {hits}")
    if mut.hits is not None:
        ctx.check(tuple(rep.witness_pieces) == mut.hits, "verifier",
                  f"{mut.kind} mutant: covering pieces {rep.witness_pieces}, expected {mut.hits}")
    return d


# -- verify-ladder -------------------------------------------------------------

def _builder(gp, method: str):
    return {
        "theorem1": gp.construct_theorem1,
        "baseline": gp.construct_baseline,
        "even-from-odd": gp.construct_even_from_odd,
    }[method]


def _ground(method: str, args) -> Tuple[int, int]:
    if method == "theorem1":
        n, k, r = args
        return n * k, r
    return args


def valid_job(gp, label: str, build, args, n: int, r: int) -> Job:
    """construct -> serialize -> parse -> verify; the output must be accepted."""
    total = comb(n, r)

    def run(ctx: Recorder) -> None:
        d = ctx.call(build, *args)
        ctx.count("constructions.pieces", d.piece_count)
        ctx.check(sum(prod(len(p) for p in piece.parts) for piece in d.pieces) == total,
                  "constructions", f"{label}: edge census differs from C({n},{r})")
        text = ctx.call(gp.serialize_decomposition, d)
        back = ctx.call(gp.parse_decomposition, text)
        ctx.count("fileio.bytes", len(text))
        ctx.check(back == d, "fileio", f"{label}: parse(serialize(d)) != d")
        ctx.round_tripped(d.piece_count)
        rep = ctx.call(gp.verify_decomposition, back)
        ok = rep.valid and rep.edge_count == total
        ctx.check(ok, "verifier", f"{label}: valid decomposition rejected: {rep.message}")
        if ok:
            ctx.count("verifier.edges", total)
            ctx.accepted(total)

    return Job(f"valid:{label}", run)


def _mutant_job(gp, label: str, mut: Mutant) -> Job:
    def run(ctx: Recorder) -> None:
        d = check_mutant(ctx, gp, mut)
        hist = ctx.call(gp.coverage_histogram, d)
        ctx.check(hist == mut.histogram, "verifier",
                  f"{mut.kind} mutant: histogram {hist}, expected {mut.histogram}")

    return Job(f"mutant:{label}:{mut.kind}", run)


def _cli(ctx: Recorder, gp, argv: List[str], expect_exit: int, expect_line: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ctx.call(gp.cli.main, argv)
    ctx.count("cli.calls")
    if code != expect_exit:
        ctx.count("cli.bad_exit")
    ctx.check(code == expect_exit, "cli", f"{argv[0]} exited {code}, expected {expect_exit}")
    ctx.check(expect_line in out.getvalue().split("\n"), "cli",
              f"{argv[0]} printed no {expect_line!r}")


def verify_ladder(gp, rng: random.Random, scratch: Path) -> List[Job]:
    jobs = []
    for method, args in LADDER:
        build, label = _builder(gp, method), f"{method}{args}"
        text = gp.serialize_decomposition(build(*args))
        jobs.append(valid_job(gp, label, build, args, *_ground(method, args)))
        jobs += [_mutant_job(gp, label, mut) for mut in mutants(text, rng)]

    n, k, r = CLI_INSTANCE
    built = scratch / "cli-built.gpd"
    bad = scratch / "cli-mutant.gpd"
    valid_text = gp.serialize_decomposition(gp.construct_theorem1(n, k, r))
    bad.write_text(mutants(valid_text, rng)[0].text, encoding="utf-8")
    pieces = valid_text.count("\n") - 2

    def cli_accept(ctx: Recorder) -> None:
        _cli(ctx, gp, ["construct", "--method", "theorem1", "--n", str(n), "--k", str(k),
                       "--r", str(r), "--out", str(built), "--porcelain"], 0, f"pieces={pieces}")
        _cli(ctx, gp, ["verify", str(built), "--porcelain"], 0, "valid=1")

    def cli_reject(ctx: Recorder) -> None:
        _cli(ctx, gp, ["verify", str(bad), "--porcelain"], 1, "valid=0")

    jobs += [Job("cli:accept", cli_accept), Job("cli:reject", cli_reject)]
    rng.shuffle(jobs)
    return jobs


# -- build-large -------------------------------------------------------------

def _large_job(gp, n: int, k: int, r: int) -> Job:
    total = comb(n * k, r)

    def run(ctx: Recorder) -> None:
        d, tally = ctx.call(gp.construct_theorem1_detailed, n, k, r)
        ctx.count("constructions.pieces", d.piece_count)
        census = sum(prod(len(p) for p in piece.parts) for piece in d.pieces) == total
        ctx.check(census, "constructions", f"theorem1{(n, k, r)}: edge census differs "
                  f"from C({n * k},{r})")
        text = ctx.call(gp.serialize_decomposition, d)
        back = ctx.call(gp.parse_decomposition, text)
        ctx.count("fileio.bytes", len(text))
        ctx.check(back == d, "fileio", f"theorem1{(n, k, r)}: parse(serialize(d)) != d")
        ctx.round_tripped(d.piece_count)
        predicted = ctx.call(gp.predicted_family_tallies, n, k, (r - 1) // 2)
        got = {
            "paired_two_classes": tally.paired_two_classes,
            "two_plus_three": tally.two_plus_three,
            "generic": tally.generic,
        }
        ok = got == predicted and sum(got.values()) == d.piece_count
        ctx.check(ok, "constructions", f"theorem1{(n, k, r)}: tallies {got}, predicted {predicted}")
        if census and ok and back == d:
            ctx.accepted(total)

    return Job(f"large:theorem1{(n, k, r)}", run)


def _blocks_job(gp, n: int) -> Job:
    pairs = comb(n, 2) ** 2

    def run(ctx: Recorder) -> None:
        bd = ctx.call(gp.construct_trivial_blocks, n)
        text = ctx.call(gp.serialize_blocks, bd)
        back = ctx.call(gp.parse_blocks, text)
        ctx.count("fileio.bytes", len(text))
        ctx.check(back == bd, "fileio", f"blocks n={n}: parse(serialize(b)) != b")
        ctx.round_tripped(len(bd.blocks))
        rep = ctx.call(gp.verify_blocks, back)
        ctx.count("blocks.pairs", pairs)
        ok = rep.valid and rep.pair_count == pairs and rep.block_count == (n - 1) ** 2
        ctx.check(ok, "blocks", f"trivial blocks n={n} rejected or miscounted")

    return Job(f"blocks:{n}", run)


def _side(text: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in text[2:].split(","))


def _min_pair(line: str):
    halves = []
    for half in line.split(" ; "):
        a, b = half.split(" ")
        halves.append(min_edge([_side(a), _side(b)]))
    return tuple(halves)


def _blocks_mutants(gp, text: str, rng: random.Random) -> List[Job]:
    """One block mutant per stratum of the touched block's smallest pair,
    which is where ``verify_blocks`` stops scanning; each deletes or
    duplicates a random block of its stratum."""
    lines = text.split("\n")
    body = lines[2:-1]
    n = int(lines[1].split(" ")[1])
    order = sorted(range(len(body)), key=lambda i: _min_pair(body[i]))
    jobs = []
    for s in range(BLOCK_MUTANTS):
        i = rng.choice(order[s * len(order) // BLOCK_MUTANTS:(s + 1) * len(order) // BLOCK_MUTANTS])
        if rng.random() < 0.5:
            kind, new, mult = "delete", body[:i] + body[i + 1:], 0
        else:
            j = rng.randrange(len(body) + 1)
            kind, new, mult = "duplicate", body[:j] + [body[i]] + body[j:], 2
        bad = "\n".join([lines[0], f"n {n} blocks {len(new)}"] + new) + "\n"
        jobs.append(_blocks_mutant_job(gp, n, bad, kind, _min_pair(body[i]), mult))
    return jobs


def _blocks_mutant_job(gp, n: int, bad: str, kind: str, witness, mult: int) -> Job:
    def run(ctx: Recorder) -> None:
        t0 = time.perf_counter()
        bd = ctx.call(gp.parse_blocks, bad)
        rep = ctx.call(gp.verify_blocks, bd)
        ctx.verdict(time.perf_counter() - t0)
        ctx.count("fileio.bytes", len(bad))
        ctx.count("blocks.pairs", comb(n, 2) ** 2)
        ok = not rep.valid and rep.witness == witness and rep.witness_multiplicity == mult
        ctx.check(ok, "blocks", f"{kind} block mutant: witness {rep.witness} "
                  f"x{rep.witness_multiplicity}, expected {witness} x{mult}")

    return Job(f"blocks-mutant:{n}:{kind}", run)


def _bounds_job(gp, ds: range) -> Job:
    def run(ctx: Recorder) -> None:
        td = ctx.call(gp.threshold_d)
        ctx.check(td == THRESHOLD_D, "bounds", f"threshold_d() = {td}, expected {THRESHOLD_D}")
        for d in ds:
            rep = ctx.call(gp.theorem1_coefficient, d, 10)
            ctx.count("bounds.reports")
            ok = rep.r == 2 * d + 1 and rep.coefficient_below_one == (d >= THRESHOLD_D)
            ctx.check(ok, "bounds", f"theorem1_coefficient({d}, 10) disagrees with the threshold")

    return Job(f"bounds:{ds.start}-{ds.stop - 1}", run)


def build_large(gp, rng: random.Random, scratch: Path) -> List[Job]:
    jobs = [_large_job(gp, *args) for args in LARGE]
    jobs += [_blocks_job(gp, n) for n in BLOCK_SIZES]
    text = gp.serialize_blocks(gp.construct_trivial_blocks(BLOCK_MUTANT_SIZE))
    jobs += _blocks_mutants(gp, text, rng)
    jobs += [_bounds_job(gp, ds) for ds in BOUNDS_CHUNKS]
    rng.shuffle(jobs)
    return jobs


# -- exact-search --------------------------------------------------------------

def _exact_job(gp, n: int, r: int, max_nodes: int, known: Optional[int], mutant_seed: int) -> Job:
    budget = gp.SearchBudget(max_nodes=max_nodes)
    baseline = comb(n - (r + 1) // 2, r // 2)

    def run(ctx: Recorder) -> None:
        res = ctx.call(gp.solve_exact, n, r, budget)
        ctx.count("exact.nodes", res.nodes)
        ok = res.lower_bound <= res.value <= baseline
        if res.optimal:
            ctx.count("exact.proved")
            ctx.count("exact.proof_nodes", res.nodes)
            ok = ok and res.lower_bound == res.value
        else:
            ctx.count("exact.budget_hits")
            ctx.count("exact.gap", res.value - res.lower_bound)
        if known is not None:
            ok = ok and res.optimal and res.value == known
        must = INTERVAL_MUST_CONTAIN.get((n, r))
        if must is not None:
            ok = ok and res.lower_bound <= must <= res.value
        if (n, r) in UPPER_KNOWN:
            ok = ok and res.lower_bound <= UPPER_KNOWN[(n, r)]
        ctx.check(ok, "exact", f"solve_exact({n},{r}): optimal={res.optimal} "
                  f"[{res.lower_bound}, {res.value}]")

        text = ctx.call(gp.serialize_decomposition, res.witness)
        back = ctx.call(gp.parse_decomposition, text)
        ctx.count("fileio.bytes", len(text))
        ctx.check(back == res.witness, "fileio", f"({n},{r}) witness: parse(serialize(w)) != w")
        ctx.round_tripped(back.piece_count)
        rep = ctx.call(gp.verify_decomposition, back)
        good = rep.valid and back.piece_count == res.value
        ctx.check(good, "exact", f"({n},{r}) witness invalid or of the wrong size")
        if good:
            ctx.count("verifier.edges", comb(n, r))
            ctx.accepted(comb(n, r))
        for mut in piece_mutants(text, random.Random(mutant_seed)):
            check_mutant(ctx, gp, mut)

    return Job(f"exact:{n},{r}", run)


def exact_search(gp, rng: random.Random, scratch: Path) -> List[Job]:
    jobs = [_exact_job(gp, n, r, nodes, known, rng.randrange(2**32))
            for n, r, nodes, known in EXACT]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "build-large": build_large,
    "exact-search": exact_search,
}
# Percentile reported as job_s_tail: the highest of 50/75/90/95/99 that keeps
# at least ten samples beyond it at the benchmark's run length.  It is fixed
# per workload so that a faster program, which fits more jobs into a run,
# is not scored at a higher percentile than its parent.
TAIL_PERCENTILE = {"verify-ladder": 75.0, "build-large": 75.0, "exact-search": 90.0}
