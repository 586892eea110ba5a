"""Command line front end.

Subcommands: reconstruct, verify, show, diff.  Exit codes: 0 ok,
1 usage/parse error, 2 solver stuck or deadlocked, 3 inconsistent seeds,
4 verification failure or differing potentials.
"""

from __future__ import annotations

import argparse
import sys

from .formats import (
    diff_potentials,
    parse_key_query,
    read_potential,
    serialize_potential,
    write_potential,
    write_trace,
)
from .rationals import format_rational, parse_natural
from .reconstruct import (
    InconsistentSeed,
    NoProgress,
    SeedMode,
    SolverStuck,
    reconstruct,
)
from .verify import (
    check_euler,
    check_limit_product,
    check_separation,
    check_symmetry,
    check_vanishing,
)
from .wdvv import residual_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STUCK = 2
EXIT_INCONSISTENT = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


def _order(text: str) -> int:
    """An order given as an option: ASCII digits only, as in the files."""
    try:
        return parse_natural(text, "order")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage errors to exit code 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbifrob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    rec = sub.add_parser("reconstruct", help="solve for the potential and write it")
    rec.add_argument("-A", "--multiplet", required=True, help='orders, e.g. "2,3,7"')
    rec.add_argument("-m", "--max-order", type=_order, required=True)
    rec.add_argument(
        "--mode",
        default="standard",
        help="standard | vanishing | vanishing-no-quartic | rescaled:<p/q>",
    )
    rec.add_argument("-o", "--out", help="potential file (stdout when omitted)")
    rec.add_argument("--trace", help="write the reconstruction trace here")
    rec.add_argument(
        "--strategy",
        choices=("guided", "exhaustive"),
        default="guided",
        help="candidate search order (exhaustive ignores the schedule hints)",
    )
    rec.set_defaults(func=_cmd_reconstruct)

    ver = sub.add_parser("verify", help="run checks and the residual scan on a file")
    ver.add_argument("potential")
    ver.add_argument(
        "--checks",
        help="comma separated subset of " + ",".join(CHECKS),
    )
    ver.add_argument(
        "--max-order",
        type=_order,
        help="scan order for the wdvv check (default: the file's max-order)",
    )
    ver.set_defaults(func=_cmd_verify)

    show = sub.add_parser("show", help="print one coefficient")
    show.add_argument("potential")
    show.add_argument("query", help='coefficient key, e.g. "(1,1)^4 m=0"')
    show.set_defaults(func=_cmd_show)

    diff = sub.add_parser("diff", help="compare the coefficient maps of two files")
    diff.add_argument("potential1")
    diff.add_argument("potential2")
    diff.set_defaults(func=_cmd_diff)
    return parser


def _cmd_reconstruct(args) -> int:
    mode = SeedMode.from_token(args.mode)
    pot, trace = reconstruct(
        args.multiplet, args.max_order, mode, strategy=args.strategy
    )
    if args.out:
        write_potential(pot, args.out)
        print(
            f"reconstructed {pot.geometry.multiplet} up to order {pot.max_order}: "
            f"{len(pot.coeffs)} nonzero coefficients -> {args.out}"
        )
    else:
        sys.stdout.write(serialize_potential(pot))
    if args.trace:
        write_trace(trace, args.trace)
    if trace.free:
        print(f"note: {len(trace.free)} coefficients left free (see trace)", file=sys.stderr)
    return EXIT_OK


def _symmetry_reports(pot) -> list:
    geom = pot.geometry
    return [
        check_symmetry(pot, i1, i2)
        for i1 in range(1, geom.r + 1)
        for i2 in range(i1 + 1, geom.r + 1)
        if geom.order(i1) == geom.order(i2)
    ]


# name -> reports of the check, in the default output order.  By default
# every check runs, "vanishing" only on files of a vanishing seed mode.
# The wdvv scan is run and printed after all the other reports.
CHECKS = {
    "euler": lambda pot: [check_euler(pot)],
    "separation": lambda pot: [check_separation(pot)],
    "symmetry": _symmetry_reports,
    "limit": lambda pot: [check_limit_product(pot)],
    "vanishing": lambda pot: [check_vanishing(pot)],
    "wdvv": lambda pot: [],
}


def _cmd_verify(args) -> int:
    pot = read_potential(args.potential)
    if args.checks is not None:
        selected = [name.strip() for name in args.checks.split(",") if name.strip()]
        selected = list(dict.fromkeys(selected))  # once each, as first named
        if not selected:
            raise UsageError(f"--checks {args.checks!r} names no check")
        unknown = set(selected) - set(CHECKS)
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(sorted(unknown))}")
    else:
        vanishing = not pot.seed_mode.degree_one
        selected = [name for name in CHECKS if name != "vanishing" or vanishing]

    reports = [report for name in selected for report in CHECKS[name](pot)]
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.passed

    if "wdvv" in selected:
        m_max = args.max_order if args.max_order is not None else pot.max_order
        scan = residual_scan(pot, m_max)
        sys.stdout.write(scan.to_text())
        ok = ok and scan.ok

    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_show(args) -> int:
    pot = read_potential(args.potential)
    key = parse_key_query(pot.geometry, args.query)
    if key.m > pot.max_order:
        # The file knows nothing above its max-order: absent is not zero.
        raise UsageError(
            f"order {key.m} is above the file's max-order {pot.max_order}"
        )
    print(format_rational(pot.get_coefficient(key)))
    return EXIT_OK


def _cmd_diff(args) -> int:
    pot1 = read_potential(args.potential1)
    pot2 = read_potential(args.potential2)
    difference = diff_potentials(pot1, pot2)
    if difference is None:
        print("potentials agree")
        return EXIT_OK
    print(f"first difference: {difference[0]}")
    return EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverStuck, NoProgress) as exc:
        print(f"solver stuck: {exc}", file=sys.stderr)
        return EXIT_STUCK
    except InconsistentSeed as exc:
        print(f"inconsistent seeds: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
