"""Command line front end.

Subcommands: reconstruct, verify, show, diff.  Exit codes: 0 ok,
1 usage/parse error or an order with more than series.MAX_KEYS
admissible keys (reconstruct -m, verify's max-order header), 2 solver
stuck or deadlocked, 3 inconsistent seeds, 4 verification failure or
differing potentials.
"""

from __future__ import annotations

import argparse
import sys

# Each _cmd_* imports the modules it runs, so that a subcommand loads none
# it does not need: verify no solver code, show and diff no WDVV code.
from .rationals import format_rational, parse_natural

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
    from .formats import serialize_potential, write_potential, write_trace
    from .reconstruct import InconsistentSeed, ReconstructionError, reconstruct
    from .series import SeedMode

    mode = SeedMode.from_token(args.mode)
    try:
        pot, trace = reconstruct(
            args.multiplet, args.max_order, mode, strategy=args.strategy
        )
    except InconsistentSeed as exc:
        print(f"inconsistent seeds: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ReconstructionError as exc:  # SolverStuck or NoProgress
        print(f"solver stuck: {exc}", file=sys.stderr)
        return EXIT_STUCK
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


def _symmetry_reports(verify, pot) -> list:
    geom = pot.geometry
    return [
        verify.check_symmetry(pot, i1, i2)
        for i1 in range(1, geom.r + 1)
        for i2 in range(i1 + 1, geom.r + 1)
        if geom.order(i1) == geom.order(i2)
    ]


# name -> reports of the check, given the verify module and the file, in
# the default output order.  By default every check runs, "vanishing"
# only on files of a vanishing seed mode.  The wdvv scan is run after all
# the other checks and printed after their reports.
CHECKS = {
    "euler": lambda verify, pot: [verify.check_euler(pot)],
    "separation": lambda verify, pot: [verify.check_separation(pot)],
    "symmetry": _symmetry_reports,
    "limit": lambda verify, pot: [verify.check_limit_product(pot)],
    "vanishing": lambda verify, pot: [verify.check_vanishing(pot)],
    "selection": lambda verify, pot: [verify.check_selection(pot)],
    "seeds": lambda verify, pot: [verify.check_seeds(pot)],
    "wdvv": lambda verify, pot: [],
}


def _cmd_verify(args) -> int:
    from . import verify
    from .formats import read_potential
    from .series import check_key_count
    from .wdvv import residual_scan

    pot = read_potential(args.potential)
    check_key_count(pot.geometry, pot.max_order)
    if args.checks is not None:
        selected = [name.strip() for name in args.checks.split(",") if name.strip()]
        selected = list(dict.fromkeys(selected))  # once each, as first named
        if not selected:
            raise UsageError(f"--checks {args.checks!r} names no check")
        unknown = set(selected) - set(CHECKS)
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(sorted(unknown))}")
    else:
        skipped = "vanishing" if pot.seed_mode.degree_one else None
        selected = [name for name in CHECKS if name != skipped]

    reports = [report for name in selected for report in CHECKS[name](verify, pot)]
    scan = None
    if "wdvv" in selected:
        # Scanned before any report is printed: a scan order the file
        # cannot serve is refused with nothing on stdout.
        m_max = args.max_order if args.max_order is not None else pot.max_order
        scan = residual_scan(pot, m_max)
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.passed

    if scan is not None:
        sys.stdout.write(scan.to_text())
        ok = ok and scan.ok

    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_show(args) -> int:
    from .formats import parse_key_query, read_potential

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
    from .formats import diff_potentials, read_potential

    pot1 = read_potential(args.potential1)
    pot2 = read_potential(args.potential2)
    difference = diff_potentials(pot1, pot2)
    if difference is None:
        orders = {pot1.max_order, pot2.max_order}
        print("potentials agree" + ("" if len(orders) == 1 else f" up to order {min(orders)}"))
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
