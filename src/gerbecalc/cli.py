"""Command line interface.

Subcommands: demo, validate, charge, equiv, selfcheck.  Exit codes are a
stable contract: 0 for success/pass, 1 for domain failures (validation,
equivalence not found, precondition violations), 2 for usage and parse
errors.  Results go to stdout, diagnostics to stderr.  The environment
variable GERBECALC_TOL overrides the default tolerances when the --tol flag
is not given; either must be a finite non-negative number.  selfcheck
checks D^2 = 0 and delta K + K delta = 1 exactly on seeded random covers, on
the cached integer D and K the solver applies; --break-sign negates a copy of D.

``main`` builds the argument parser once per process and reuses it.  equiv
loads its two files with ``load_pair``, so files with the same complex and
cover share one Cover, and with it one basis and one D.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bicomplex import _exact_defects
from .builders import build_gerbopole, build_minus_one_gerbe, build_monopole
from .cover import check_good_cover
from .deligne import (
    DEFAULT_EQUIVALENCE_TOL,
    DEFAULT_VALIDATION_TOL,
    _checked_tol,
    charge,
    gauge_equivalent,
    gauge_shift,
    validate_cocycle,
)
from .errors import FormatError, GerbecalcError, InvalidInputError
from .randomdata import random_complex_and_cover, random_gauge_potential
from .rng import Lcg64
from .serialize import load_datum, load_pair, save_datum, save_witness

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

_BUILDERS = {
    "minus1": build_minus_one_gerbe,
    "monopole": build_monopole,
    "gerbopole": build_gerbopole,
}


def _resolve_tol(flag_value: float | None, fallback: float) -> float:
    if flag_value is not None:
        tol, source = flag_value, "--tol"
    else:
        env = os.environ.get("GERBECALC_TOL")
        if env is None:
            return fallback
        try:
            tol, source = float(env), "GERBECALC_TOL"
        except ValueError:
            raise FormatError(f"GERBECALC_TOL is not a number: {env!r}") from None
    try:
        return _checked_tol(tol, source)
    except InvalidInputError as exc:
        raise FormatError(str(exc)) from None


def _format_tuple(t: tuple[int, ...]) -> str:
    return "(" + ",".join(str(i) for i in t) + ")"


def cmd_demo(args) -> int:
    datum = _BUILDERS[args.name](args.m, winding=args.winding)
    if args.perturb_gauge is not None:
        rng = Lcg64(args.perturb_gauge)
        potential = random_gauge_potential(
            datum.cover, datum.level + 1, rng, amplitude=0.5
        )
        datum = gauge_shift(datum, potential)
    print(f"level: {datum.level}")
    print("nerve: " + " ".join(_format_tuple(t) for t in datum.cover.nerve()))
    for entry in check_good_cover(datum.cover).warnings:
        print(
            f"note: overlap {_format_tuple(entry.indices)} is not contractible, "
            f"betti={entry.betti}",
            file=sys.stderr,
        )
    print(f"charge: {charge(datum):.9f}")
    if args.out:
        save_datum(args.out, datum)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    datum = load_datum(args.file)
    tol = _resolve_tol(args.tol, DEFAULT_VALIDATION_TOL)
    report = validate_cocycle(datum, tol)
    for (p, n) in sorted(report.residuals):
        print(f"residual (p={p},n={n}): {report.residuals[(p, n)]:.3e}")
    if report.passed:
        print(f"PASS (tol={tol:g})")
        return EXIT_OK
    for peak in report.worst[:3]:
        print(
            f"worst: |r|={peak.magnitude:.3e} at bidegree {peak.bidegree}, "
            f"overlap {_format_tuple(peak.indices)}, cell {_format_tuple(peak.cell)}",
            file=sys.stderr,
        )
    print(f"FAIL (tol={tol:g})")
    return EXIT_DOMAIN


def cmd_charge(args) -> int:
    datum = load_datum(args.file)
    print(f"{charge(datum):.9f}")
    return EXIT_OK


def cmd_equiv(args) -> int:
    first, second = load_pair(args.a, args.b)
    tol = _resolve_tol(args.tol, DEFAULT_EQUIVALENCE_TOL)
    result = gauge_equivalent(first, second, tol)
    if result.equivalent:
        print(f"EQUIVALENT (residual {result.residual:.3e})")
        if args.out:
            save_witness(args.out, first.cover, result.witness)
            print(f"wrote witness {args.out}", file=sys.stderr)
        return EXIT_OK
    print(f"NOT-FOUND (residual {result.residual:.3e})")
    return EXIT_DOMAIN


def cmd_selfcheck(args) -> int:
    if args.trials < 0:
        raise FormatError("--trials must be non-negative")
    rng = Lcg64(args.seed)
    passed = 0
    failure = None
    for trial in range(args.trials):
        complex, cover = random_complex_and_cover(rng)
        degrees = range(complex.top_dimension + 2)
        residuals = _exact_defects(cover, degrees, break_sign=args.break_sign)
        if residuals["D2"] == residuals["homotopy"] == 0:
            passed += 1
        elif failure is None:
            failure = (trial, complex, cover, residuals)
    print(f"{passed}/{args.trials} passed")
    if args.trials == 0:
        print("warning: no trials run, vacuous pass", file=sys.stderr)
        return EXIT_OK
    if failure is not None:
        trial, complex, cover, residuals = failure
        print(f"counterexample at trial {trial}:", file=sys.stderr)
        print(
            f"  complex: {complex.vertex_count} vertices, "
            f"top dimension {complex.top_dimension}",
            file=sys.stderr,
        )
        print(f"  cover sets: {[sorted(s) for s in cover.sets]}", file=sys.stderr)
        for name, value in residuals.items():
            print(f"  {name} residual: {value}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gerbecalc",
        description=(
            "Validate cocycle data on triangulated manifolds, decide gauge "
            "equivalence, and compute integer charges."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a worked example and report its charge")
    demo.add_argument("name", choices=sorted(_BUILDERS))
    demo.add_argument("--m", type=int, default=12, help="mesh resolution")
    demo.add_argument("--winding", type=int, default=1)
    demo.add_argument("--out", help="write the datum as JSON")
    demo.add_argument(
        "--perturb-gauge",
        type=int,
        metavar="SEED",
        help="apply a seeded random gauge shift before writing",
    )
    demo.set_defaults(func=cmd_demo)

    validate = sub.add_parser("validate", help="check a datum file is a cocycle")
    validate.add_argument("file")
    validate.add_argument("--tol", type=float, default=None)
    validate.set_defaults(func=cmd_validate)

    charge_cmd = sub.add_parser("charge", help="print the charge of a datum file")
    charge_cmd.add_argument("file")
    charge_cmd.set_defaults(func=cmd_charge)

    equiv = sub.add_parser("equiv", help="decide gauge equivalence of two files")
    equiv.add_argument("a")
    equiv.add_argument("b")
    equiv.add_argument("--tol", type=float, default=None)
    equiv.add_argument("--out", help="write the witness potential as JSON")
    equiv.set_defaults(func=cmd_equiv)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="check that D^2 = 0 and delta K + K delta = 1 exactly on the integer "
        "matrices of D and K over seeded random covers",
    )
    selfcheck.add_argument("--seed", type=int, default=42)
    selfcheck.add_argument("--trials", type=int, default=100)
    selfcheck.add_argument(
        "--break-sign",
        action="store_true",
        help="test hook: undo the sign twist of dbar in a copy of D to force a failure",
    )
    selfcheck.set_defaults(func=cmd_selfcheck)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GerbecalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
