#!/usr/bin/env python3
"""Build the worked examples across resolutions and report their invariants.

For each construction (level -1 circle datum, monopole, gerbopole) this
prints validation residuals, cover diagnostics, and the charge at several
mesh resolutions, demonstrating that the charge is an exact integer
independent of the discretization.  It then runs a gauge-equivalence round
trip: shift a datum by a random potential, recover a witness, and check the
witness reproduces the shift.

A resolution too coarse for the winding is skipped with a note; the
surveys and round trips use the resolutions that remain.  A winding of 0 is
a usage error (exit 2).  Exits 1, naming each failure on stderr, when a
charge is more than 1e-9 from the winding, a round trip is rejected, its
witness misses the shift by more than DEFAULT_EQUIVALENCE_TOL (the (0, k)
rows modulo 2 pi), or no resolution of a construction is fine enough; 0
otherwise.
"""

import argparse
import math
import sys
import time

sys.path.insert(0, "src")

from gerbecalc import (
    DEFAULT_EQUIVALENCE_TOL,
    InvalidInputError,
    big_d,
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    charge,
    check_good_cover,
    gauge_equivalent,
    gauge_shift,
    validate_cocycle,
    wrap,
)
from gerbecalc.randomdata import random_gauge_potential
from gerbecalc.rng import Lcg64


CHARGE_TOL = 1e-9


def survey(name, build, resolutions, winding, failures):
    """The datum at the first resolution the builder accepts, or None."""
    print(f"== {name} ==")
    first = None
    for m in resolutions:
        t0 = time.perf_counter()
        try:
            datum = build(m, winding=winding)
        except InvalidInputError as exc:  # the resolution is too coarse for the winding
            print(f"  m={m:3d}  skipped: {exc}")
            continue
        if first is None:
            first = datum
        report = validate_cocycle(datum)
        q = charge(datum)
        dt = time.perf_counter() - t0
        print(
            f"  m={m:3d}  max residual {report.max_residual():.2e}  "
            f"charge {q:+.12f}  ({dt * 1e3:.1f} ms)"
        )
        if not abs(q - winding) <= CHARGE_TOL:
            failures.append(f"{name} m={m}: charge {q!r}, winding {winding}")
    if first is None:
        failures.append(f"{name}: no resolution in {resolutions} is fine enough for winding {winding}")
        return None
    for entry in check_good_cover(first.cover).entries:
        flag = "" if entry.contractible else "   <- not contractible"
        print(f"  overlap {entry.indices}: betti {entry.betti}{flag}")
    return first


def nonzero_winding(text):
    winding = int(text)
    if winding == 0:
        raise argparse.ArgumentTypeError("winding must be a nonzero integer")
    return winding


def witness_gap(gap, angle):
    """The sup norm of D(witness) - delta with its ``angle`` part, the (0, k)
    rows, taken modulo 2 pi; inf if any value is not finite."""
    worst = 0.0
    for key, part in gap.parts.items():
        for component in part.components.values():
            for v in component.values.values():
                if not math.isfinite(v):
                    return math.inf
                worst = max(worst, abs(wrap(v) if key == angle else v))
    return worst


def equivalence_round_trip(datum, seed, failures):
    rng = Lcg64(seed)
    potential = random_gauge_potential(datum.cover, datum.level + 1, rng)
    shifted = gauge_shift(datum, potential)
    result = gauge_equivalent(datum, shifted)
    if not result.equivalent:
        print(f"  level {datum.level}: rejected, residual {result.residual:.2e}")
        failures.append(f"level {datum.level} round trip rejected at residual {result.residual!r}")
        return
    delta = shifted.data - datum.data
    pushed = big_d(result.witness.data, datum.cover)
    gap = witness_gap(pushed - delta, (0, datum.level + 2))
    print(
        f"  level {datum.level}: accepted={result.equivalent}  "
        f"residual {result.residual:.2e}  "
        f"|D(witness) - delta| = {gap:.2e}"
    )
    if not gap <= DEFAULT_EQUIVALENCE_TOL:
        failures.append(f"level {datum.level} witness misses the shift by {gap!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--winding", type=nonzero_winding, default=1)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    failures = []
    minus1 = survey(
        "level -1 on the circle", build_minus_one_gerbe, [12, 24, 48], args.winding, failures
    )
    monopole = survey(
        "monopole on the 2-sphere", build_monopole, [6, 12, 24, 48], args.winding, failures
    )
    gerbopole = survey(
        "gerbopole on the 3-sphere", build_gerbopole, [6, 12, 24], args.winding, failures
    )

    print("== gauge-equivalence round trips ==")
    for datum in (minus1, monopole, gerbopole):
        if datum is not None:
            equivalence_round_trip(datum, args.seed, failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
