"""Command-line interface.

Subcommands: construct, verify, exact, bounds.  Exit codes: 0 success/valid,
1 invalid decomposition, 2 parse error, 3 bad arguments, 4 budget exhausted.
With ``--porcelain`` reports are emitted as ``key=value`` lines (keys:
pieces, valid, f_exact, lower_bound, lower_kind, nodes, threshold_d,
coefficient_num, coefficient_den).

A bad argument has one path: argparse's own errors, the commands' checks,
the soft caps and an unwritable ``--out`` all raise ``ValueError`` or
``OSError``, and :func:`main` prints ``error: <message>`` to stderr and
returns 3.  Only ``verify`` reports its file's read and parse errors
itself, as exit 2.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, NoReturn, Optional

from . import bounds as bounds_mod
from .constructions import (
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1_detailed,
)
from .core import Decomposition, binomial
from .exact import SOFT_CAP_N as EXACT_CAP_N, SearchBudget, solve_exact
from .fileio import ParseError, parse_decomposition, serialize_decomposition
from .verifier import SOFT_CAP_EDGES, SOFT_CAP_N, verify_decomposition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BAD_ARGS = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that
    :func:`main` reports them like any other bad argument: exit 3, one
    ``error:`` line and no usage text.  ``add_subparsers`` makes the
    subcommand parsers of this class too."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _over_cap(what: str, cap: object) -> ValueError:
    return ValueError(f"{what} exceeds soft cap {cap} (pass --allow-large to run it anyway)")


def _write_decomposition(d: Decomposition, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_decomposition(d))


def cmd_construct(args: argparse.Namespace) -> int:
    n, r = args.n, args.r
    tally = None
    if args.method == "stars":
        if r not in (None, 2):
            raise ValueError("stars implies r=2")
        dec = construct_baseline(n, 2)
    elif args.method == "theorem1":
        if r is None or args.k is None:
            raise ValueError("theorem1 requires --r and --k")
        dec, tally = construct_theorem1_detailed(n, args.k, r)
    elif r is None:
        raise ValueError(f"{args.method} requires --r")
    elif args.method == "baseline":
        dec = construct_baseline(n, r)
    else:
        dec = construct_even_from_odd(n, r)
    _write_decomposition(dec, args.out)

    if args.porcelain:
        print(f"pieces={dec.piece_count}")
    else:
        print(f"wrote {args.out}: {dec.piece_count} pieces on "
              f"{dec.ground.n} vertices, r={dec.ground.r}")
        if tally is not None:
            print(f"  paired-2s family:  {tally.paired_two_classes}")
            print(f"  2s-plus-3 family:  {tally.two_plus_three}")
            print(f"  generic family:    {tally.generic}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        # newline="": the format allows LF only, so CR bytes reach the parser.
        with open(args.path, encoding="utf-8", newline="") as fh:
            dec = parse_decomposition(fh.read())
    except OSError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except (ParseError, UnicodeDecodeError) as exc:
        return _fail(f"parse error: {exc}", EXIT_PARSE)
    n, r = dec.ground.n, dec.ground.r
    if not args.allow_large and (n > SOFT_CAP_N or binomial(n, r) > SOFT_CAP_EDGES):
        raise _over_cap(f"n={n} r={r}", f"n <= {SOFT_CAP_N}, C(n, r) <= {SOFT_CAP_EDGES}")
    report = verify_decomposition(dec)
    if args.porcelain:
        print(f"pieces={report.piece_count}")
        print(f"valid={'1' if report.valid else '0'}")
    elif report.valid:
        print(f"VALID: {report.piece_count} pieces, {report.edge_count} edges")
    else:
        print(f"INVALID: {report.message}")
        if report.witness is not None:
            print(f"  witness edge {report.witness} covered "
                  f"{report.witness_multiplicity} times by pieces {list(report.witness_pieces)}")
    return EXIT_OK if report.valid else EXIT_INVALID


# How ExactResult.lower_kind reads in the human report.
_PROOF_WORDS = {"bnb": "branch-and-bound", "trivial": "trivial bound",
                "inertia": "inertia bound", "link": "link bound"}


def cmd_exact(args: argparse.Namespace) -> int:
    if args.n > EXACT_CAP_N and not args.allow_large:
        raise _over_cap(f"n={args.n}", EXACT_CAP_N)
    budget = SearchBudget(max_nodes=args.max_nodes, wall_clock_s=args.max_seconds)
    result = solve_exact(args.n, args.r, budget, allow_large=args.allow_large)
    if args.out:
        _write_decomposition(result.witness, args.out)
    proof = _PROOF_WORDS[result.lower_kind]
    if args.porcelain:
        if result.optimal:
            print(f"f_exact={result.value}")
        print(f"pieces={result.witness.piece_count}")
        print(f"lower_bound={result.lower_bound}")
        print(f"lower_kind={result.lower_kind}")
        print(f"nodes={result.nodes}")
    elif result.optimal:
        print(f"f_{args.r}({args.n}) = {result.value}  ({proof}, {result.nodes} nodes)")
    else:
        print(f"budget exhausted after {result.nodes} nodes; "
              f"best interval [{result.lower_bound}, {result.value}] "
              f"(lower end: {proof})")
    return EXIT_OK if result.optimal else EXIT_BUDGET


@contextmanager
def _exact_digits() -> Iterator[None]:
    """Lift Python's int-to-str digit limit (3.10.7 and later) while a bounds
    report prints, then restore it.

    The report prints exact values with thousands of digits, such as
    epsilon_k = d!*C'/k from d of about 1550; the limit stays in force
    everywhere else, so parsing untrusted text keeps its guard."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _print_report(rep: bounds_mod.BoundReport, porcelain: bool) -> None:
    coef = rep.theorem1_coefficient
    if porcelain:
        print(f"coefficient_num={coef.numerator}")
        print(f"coefficient_den={coef.denominator}")
        return
    rows = [
        ("d", rep.d),
        ("r", rep.r),
        ("k", rep.k),
        ("coefficient", f"{coef} ~= {float(coef):.6f}"),
        ("coefficient < 1", "yes" if rep.coefficient_below_one else "no"),
        ("C'", rep.c_prime),
        ("epsilon_k = d!*C'/k", rep.epsilon_k),
        ("alon lower coefficient", rep.alon_lower_coefficient),
        ("decay bound (r/2)(14/15)^(r/4)", rep.corollary2_value),
        ("decay bound precision (digits)", rep.precision_digits),
    ]
    width = max(len(str(name)) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.scan_range:
        try:
            lo, hi = (int(x) for x in args.scan_range.split(":"))
        except ValueError:
            raise ValueError("scan-range must look like 140:160") from None
        if not 1 <= lo <= hi:
            raise ValueError("scan-range needs 1 <= LO <= HI")
        if hi > bounds_mod.SOFT_CAP_D and not args.allow_large:
            raise _over_cap(f"scan-range HI={hi}", bounds_mod.SOFT_CAP_D)
        td = bounds_mod.threshold_d()
        if args.porcelain:
            print(f"threshold_d={td}")
            return EXIT_OK
        for d in range(lo, hi + 1):
            coef = bounds_mod.base_coefficient(d)
            marker = "  <-- threshold" if d == td else ""
            print(f"d={d:<5} coefficient ~= {float(coef):.9f} "
                  f"{'< 1' if coef < 1 else '>= 1'}{marker}")
        print(f"threshold d = {td}, uniformity r = {2 * td + 1}")
        return EXIT_OK
    if args.d is None and args.r is None:
        raise ValueError("give --d or --r (or --scan-range)")
    if args.d is not None and args.r is not None and args.r != 2 * args.d + 1:
        raise ValueError("inconsistent --d and --r (need r = 2d+1)")
    if args.d is not None:
        d = args.d
    elif args.r % 2 == 0 or args.r < 3:
        raise ValueError("--r must be odd and >= 3 (or give --d)")
    else:
        d = (args.r - 1) // 2
    if d > bounds_mod.SOFT_CAP_D and not args.allow_large:
        raise _over_cap(f"d={d}", bounds_mod.SOFT_CAP_D)
    rep = bounds_mod.theorem1_coefficient(d, args.k)
    with _exact_digits():
        _print_report(rep, args.porcelain)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpdecomp",
        description="Construct, verify, and bound partitions of complete "
        "r-uniform hypergraphs into complete r-partite r-graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a decomposition and write it to a file")
    construct.add_argument("--method", required=True,
                           choices=["stars", "baseline", "theorem1", "even-from-odd"])
    construct.add_argument("--n", type=int, required=True,
                           help="vertex count (class size for theorem1)")
    construct.add_argument("--r", type=int, default=None, help="uniformity")
    construct.add_argument("--k", type=int, default=None, help="class count (theorem1)")
    construct.add_argument("--out", required=True, help="output decomposition file")

    verify = sub.add_parser("verify", help="verify a decomposition file exhaustively")
    verify.add_argument("path")

    exact = sub.add_parser("exact", help="exact minimum piece count on a tiny instance")
    exact.add_argument("--n", type=int, required=True)
    exact.add_argument("--r", type=int, required=True)
    exact.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
    exact.add_argument("--max-seconds", type=float, default=None)
    exact.add_argument("--out", default=None, help="write the witness here")

    bounds = sub.add_parser("bounds", help="evaluate the bound formulas")
    bounds.add_argument("--d", type=int, default=None)
    bounds.add_argument("--r", type=int, default=None)
    bounds.add_argument("--k", type=int, default=1)
    bounds.add_argument("--scan-range", default=None, metavar="LO:HI",
                        help="print the coefficient over a range of d and the threshold")

    for p, capped in ((verify, "the file's n and C(n, r)"), (exact, "n"),
                      (bounds, "d (and on HI of --scan-range)")):
        p.add_argument("--allow-large", action="store_true",
                       help=f"override the soft cap on {capped}")
    for p, func in ((construct, cmd_construct), (verify, cmd_verify),
                    (exact, cmd_exact), (bounds, cmd_bounds)):
        p.add_argument("--porcelain", action="store_true")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_BAD_ARGS)
