"""The three workloads: what one pass does, and how its outputs are checked.

Each workload builds its inputs in ``setup`` and runs one fixed mix of calls
per ``run_pass``.  Only the calls into ``gerbecalc`` are timed; preparation
between them and every check run outside the timed regions.  Calls go through
module attributes (``deligne.gauge_shift``, ``cli.main``) so that the traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from collections import Counter

from gerbecalc import bicomplex, builders, cli, cover, deligne, randomdata, serialize, simplicial
from gerbecalc.bicomplex import BigradedCochain, TotalCochain
from gerbecalc.rng import Lcg64
from gerbecalc.simplicial import Cochain

from checker import DSizes, Geometry, compare_with_library, parts_of_document, parts_of_total, read_document, witness_residual

CHARGE_TOL = 1e-9
WITNESS_TOL = 1e-8
LEVELS = {"minus1": -1, "monopole": 0, "gerbopole": 1}
BUILDERS = {
    "minus1": "build_minus_one_gerbe",
    "monopole": "build_monopole",
    "gerbopole": "build_gerbopole",
}


def build(name, m, winding=1, base=8):
    fn = getattr(builders, BUILDERS[name])
    if name == "gerbopole":
        return fn(m, winding, base_segments=base)
    return fn(m, winding)


def derived_seed(seed, *salt) -> int:
    """A per-input seed: the run seed mixed with the input's label."""
    rng = Lcg64(seed)
    for item in salt:
        for ch in str(item):
            rng = Lcg64(rng.next_u64() ^ ord(ch))
    return rng.next_u64() & 0x7FFFFFFF


class PassResult:
    """Timed work of one pass, by call category, with its operation counts.

    ``between``, if given, runs after each timed call, outside the timed region.
    """

    def __init__(self, between=None):
        self.between = between
        self.times: Counter = Counter()
        self.ops = 0
        self.failed = 0
        self.sizes = DSizes()

    def timed(self, category, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.times[category] += time.perf_counter() - start
        self.ops += 1
        if self.between is not None:
            self.between()
        return result


class Workload:
    """Shared checking helpers; subclasses define setup and run_pass."""

    def __init__(self, seed: int, workdir: str, between=None):
        self.seed = seed
        self.workdir = workdir
        self.between = between
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)
        return ok

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check_witness(self, result: PassResult, label, geometry, level, first, second, witness):
        try:
            r = witness_residual(geometry, level, first, second, witness, result.sizes)
        except ValueError as exc:
            self.check(False, f"{label}: witness does not fit the checker's basis: {exc}")
            return
        self.check(r <= WITNESS_TOL, f"{label}: witness residual {r:.3e} exceeds {WITNESS_TOL:g}")

    def cross_check(self, geometry: Geometry, cov, degrees) -> None:
        """Compare the checker's D with ``big_d`` on seeded random real cochains."""
        rng = Lcg64(derived_seed(self.seed, "cross-check"))
        for degree in degrees:
            cols, _ = geometry.basis(degree, with_global=True)
            grouped: dict = {}
            for p, n, t, cell in cols:
                grouped.setdefault((p, n), {}).setdefault(t, {})[cell] = rng.uniform(-1.0, 1.0)
            x = TotalCochain(
                degree,
                {
                    (p, n): BigradedCochain(p, n, {t: Cochain(p, vals) for t, vals in comps.items()})
                    for (p, n), comps in grouped.items()
                },
            )
            image = parts_of_total(bicomplex.big_d(x, cov))
            err = compare_with_library(geometry, degree, grouped, image)
            self.check(
                err <= 1e-12,
                f"checker D and big_d disagree by {err:.3e} on degree {degree} "
                f"({len(cov.sets)} sets)",
            )


class CliLadder(Workload):
    """The terminal user's path: ``gerbecalc.cli.main`` in process."""

    name = "cli-ladder"
    # every validate/charge file, written in setup: (builder, m, base)
    LADDER = (
        [("minus1", m, 8) for m in (12, 24, 48, 96)]
        + [("monopole", m, 8) for m in (12, 24, 48, 96, 192, 384)]
        + [("gerbopole", m, 8) for m in (12, 24, 48, 96)]
        + [("gerbopole", 48, 32)]
    )
    # demo --out per pass; demo runs the exact-rank good-cover check
    DEMOS = [("minus1", 12), ("minus1", 24), ("minus1", 48), ("monopole", 12),
             ("monopole", 24), ("monopole", 48), ("gerbopole", 12), ("gerbopole", 24)]
    # demo --perturb-gauge per pass, each paired with the plain demo for equiv
    PERTURBED = [("minus1", 24), ("monopole", 24), ("gerbopole", 12)]
    # demo --winding 2 per pass, paired with the winding-1 demo (NOT-FOUND)
    WINDING2 = ("monopole", 24)
    # copies with one connection value moved by 0.1 (validate must FAIL)
    CORRUPT = [("monopole", 192), ("gerbopole", 48)]

    def _ladder_file(self, name, m, base):
        return self.path(f"ladder-{name}-{m}-b{base}.json")

    def setup(self):
        for name, m, base in self.LADDER:
            serialize.save_datum(self._ladder_file(name, m, base), build(name, m, base=base))
        for name, m in self.CORRUPT:
            doc = read_document(self._ladder_file(name, m, 8))
            k = doc["datum"]["level"] + 2
            rng = Lcg64(derived_seed(self.seed, "corrupt", name, m))
            part = next(p for p in doc["datum"]["parts"] if (p["p"], p["n"]) == (1, k - 1))
            comp = part["components"][rng.randint(0, len(part["components"]) - 1)]
            entry = comp["entries"][rng.randint(0, len(comp["entries"]) - 1)]
            entry["value"] += 0.1
            with open(self.path(f"corrupt-{name}-{m}.json"), "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        self.geometries: dict = {}

    def _cli(self, result: PassResult, category: str, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = result.timed(category, lambda: cli.main(argv))
        return rc, out.getvalue(), err.getvalue()

    def _geometry(self, path, doc):
        got = self.geometries.get(path)
        if got is None or got.sets != [frozenset(s) for s in doc["cover"]["sets"]]:
            got = Geometry.of_document(doc)
            self.geometries[path] = got
        return got

    def _demo(self, result, name, m, out, winding=1, perturb=None):
        argv = ["demo", name, "--m", str(m), "--out", out]
        if winding != 1:
            argv += ["--winding", str(winding)]
        if perturb is not None:
            argv += ["--perturb-gauge", str(perturb)]
        label = " ".join(argv[:4]) + (f" w{winding}" if winding != 1 else "") + (
            " perturbed" if perturb is not None else ""
        )
        rc, stdout, stderr = self._cli(result, "demo", argv)
        if not self.check(rc == 0 and os.path.exists(out), f"{label}: exit {rc}"):
            return
        lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        self.check(lines.get("level") == str(LEVELS[name]), f"{label}: level {lines.get('level')}")
        c = float(lines.get("charge", "nan"))
        self.check(abs(c - winding) <= CHARGE_TOL, f"{label}: charge {c} != {winding}")
        doc = read_document(out)
        geometry = self._geometry(out, doc)
        nerve = " ".join("(" + ",".join(map(str, t)) + ")" for t in geometry.full_nerve())
        self.check(lines.get("nerve") == nerve, f"{label}: nerve {lines.get('nerve')!r} != {nerve!r}")
        for line in stderr.splitlines():
            if not line.startswith("note: overlap"):
                continue
            head, betti = line.split(" is not contractible, betti=")
            t = tuple(int(i) for i in head.split("(")[1].rstrip(")").split(","))
            b = tuple(int(i) for i in betti.strip("()").split(","))
            self.check(
                b[0] - b[1] + b[2] == geometry.euler_characteristic(t),
                f"{label}: betti {b} of overlap {t} contradicts its cell counts",
            )

    def _validate(self, result, path, expect_pass=True):
        rc, stdout, _ = self._cli(result, "validate", ["validate", path])
        verdict = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        if expect_pass:
            self.check(rc == 0 and verdict.startswith("PASS"), f"validate {path}: exit {rc}, {verdict!r}")
        else:
            self.check(rc == 1 and verdict.startswith("FAIL"), f"validate {path} (corrupted): exit {rc}, {verdict!r}")

    def _charge(self, result, path, winding):
        rc, stdout, _ = self._cli(result, "charge", ["charge", path])
        ok = rc == 0 and abs(float(stdout.strip() or "nan") - winding) <= CHARGE_TOL
        self.check(ok, f"charge {path}: exit {rc}, {stdout.strip()!r} != {winding}")

    def _equiv(self, result, a, b, expect_equivalent):
        witness = self.path("witness.json")
        if os.path.exists(witness):
            os.remove(witness)
        rc, stdout, _ = self._cli(result, "equiv", ["equiv", a, b, "--out", witness])
        if not expect_equivalent:
            self.check(rc == 1 and stdout.startswith("NOT-FOUND"), f"equiv {a} {b}: {stdout.strip()!r}, expected NOT-FOUND")
            return
        if not (rc == 0 and stdout.startswith("EQUIVALENT")):
            result.failed += 1
            return
        doc_a, doc_b, doc_w = read_document(a), read_document(b), read_document(witness)
        geometry = self._geometry(a, doc_a)
        same = doc_a["cover"] == doc_b["cover"] == doc_w["cover"]
        if self.check(same, f"equiv {a} {b}: files disagree on the cover"):
            self.check_witness(
                result, f"equiv {a} {b}", geometry, doc_a["datum"]["level"],
                parts_of_document(doc_a["datum"]["parts"]),
                parts_of_document(doc_b["datum"]["parts"]),
                parts_of_document(doc_w["witness"]["parts"]),
            )

    def run_pass(self) -> PassResult:
        result = PassResult(self.between)
        demo_file = lambda name, m: self.path(f"demo-{name}-{m}.json")
        for name, m in self.DEMOS:
            self._demo(result, name, m, demo_file(name, m))
        perturbed = []
        for name, m in self.PERTURBED:
            out = self.path(f"perturbed-{name}-{m}.json")
            self._demo(result, name, m, out, perturb=derived_seed(self.seed, "perturb", name, m))
            perturbed.append((demo_file(name, m), out))
        name, m = self.WINDING2
        winding2 = self.path(f"winding2-{name}-{m}.json")
        self._demo(result, name, m, winding2, winding=2)

        files = [(self._ladder_file(*case), 1) for case in self.LADDER]
        files += [(p, 1) for _, p in perturbed] + [(winding2, 2)]
        for path, _ in files:
            self._validate(result, path)
        for name, m in self.CORRUPT:
            self._validate(result, self.path(f"corrupt-{name}-{m}.json"), expect_pass=False)
        for path, winding in files:
            self._charge(result, path, winding)
        for a, b in perturbed:
            self._equiv(result, a, b, expect_equivalent=True)
        self._equiv(result, demo_file(*self.WINDING2), winding2, expect_equivalent=False)
        return result

    def cross_check_all(self):
        for name, m in (("monopole", 24), ("gerbopole", 12)):
            datum = build(name, m)
            k = datum.level + 2
            self.cross_check(Geometry.of_cover(datum.cover), datum.cover, (k - 1, k))


class EquivSolve(Workload):
    """Library calls at the top of the ladders, where dense solves dominate."""

    name = "equiv-solve"
    CASES = [("monopole", m) for m in (96, 192, 384)] + [("gerbopole", m) for m in (24, 48, 96)]
    AMPLITUDE = 0.5
    # gauge shifts that gauge_equivalent rejects although they are shifts:
    # fixed seeds, so the failure count repeats exactly
    KEPT = [("monopole", 12), ("monopole", 48), ("gerbopole", 12), ("gerbopole", 24)]
    KEPT_AMPLITUDE = 3.0
    KEPT_SEED = 3

    def setup(self):
        self.cases = []
        self.geometries = {}
        for name, m in self.CASES:
            self.cases.append(self._case(name, m, self.AMPLITUDE, derived_seed(self.seed, "shift", name, m)))
        for name, m in self.KEPT:
            self.cases.append(self._case(name, m, self.KEPT_AMPLITUDE, derived_seed(self.KEPT_SEED, "kept", name, m)))

    def _case(self, name, m, amplitude, seed):
        datum = build(name, m)
        potential = randomdata.random_gauge_potential(
            datum.cover, datum.level + 1, Lcg64(seed), amplitude=amplitude
        )
        return (f"{name} m={m} amplitude {amplitude:g}", datum, potential)

    def run_pass(self) -> PassResult:
        result = PassResult(self.between)
        for label, datum, potential in self.cases:
            shifted = result.timed("shift", deligne.gauge_shift, datum, potential)
            report = result.timed("validate", deligne.validate_cocycle, shifted)
            self.check(report.passed, f"{label}: shifted datum fails validation ({report.max_residual():.3e})")
            c = result.timed("charge", deligne.charge, shifted)
            self.check(abs(c - 1) <= CHARGE_TOL, f"{label}: charge {c} != 1")
            found = result.timed("equiv", deligne.gauge_equivalent, datum, shifted)
            if not found.equivalent:
                result.failed += 1
                continue
            self.check_witness(
                result, label, self._geometry(label, datum), datum.level,
                parts_of_total(datum.data), parts_of_total(shifted.data),
                parts_of_total(found.witness.data),
            )
        return result

    def _geometry(self, label, datum):
        got = self.geometries.get(label)
        if got is None:
            got = self.geometries[label] = Geometry.of_cover(datum.cover)
        return got

    def cross_check_all(self):
        for label, datum, _ in (self.cases[0], self.cases[3]):
            k = datum.level + 2
            self.cross_check(self._geometry(label, datum), datum.cover, (k - 1, k))


def torus_triangles(n: int) -> list[tuple[int, int, int]]:
    """An n-by-n grid on the torus, each square cut along one diagonal."""
    vid = lambda i, j: (i % n) * n + (j % n)
    out = []
    for i in range(n):
        for j in range(n):
            out.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            out.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return out


class StarCover(Workload):
    """The cover and bicomplex layers with one set per vertex."""

    name = "star-cover"
    GRID = 12
    AMPLITUDE = 0.5
    # one charge here takes about 1.5 ms, too little to time steadily once
    CHARGE_REPEATS = 5

    def setup(self):
        n = self.GRID
        triangles = torus_triangles(n)
        self.complex = simplicial.SimplicialComplex.from_top_cells(n * n, triangles, closed_manifold=True)
        stars = [{v} for v in range(n * n)]
        for tri in triangles:
            for v in tri:
                stars[v].update(tri)
        self.sets = [sorted(s) for s in stars]
        setup_cover = cover.Cover.build(self.complex, self.sets)
        rng = Lcg64(derived_seed(self.seed, "star"))
        self.potential = randomdata.random_gauge_potential(setup_cover, 1, rng, amplitude=self.AMPLITUDE)
        one_form = Cochain(1, {e: rng.uniform(-self.AMPLITUDE, self.AMPLITUDE) for e in self.complex.cells(1)})
        self.higher = TotalCochain(
            1,
            {
                (1, 0): BigradedCochain(1, 0, {(): one_form}),
                (0, 1): randomdata.random_bigraded(setup_cover, 0, 1, rng, self.AMPLITUDE),
            },
        )
        # build_trivial has no angle-flagged transition layer to shift into
        self.zero = TotalCochain(2, {(0, 2): BigradedCochain.zero(0, 2, angle_valued=True)})
        self.geometry = Geometry(self.complex.simplices, self.sets)

    def run_pass(self) -> PassResult:
        result = PassResult(self.between)
        # a fresh cover per pass: empty nerve and overlap caches, as per CLI call
        cov = cover.Cover.build(self.complex, self.sets)
        zero = deligne.GerbeDatum(0, self.zero, cov)
        shifted = result.timed("shift", deligne.gauge_shift, zero, self.potential)
        higher = result.timed("shift", deligne.higher_gauge_shift, zero, self.higher)
        for label, datum in (("gauge shift", shifted), ("higher gauge shift", higher)):
            report = result.timed("validate", deligne.validate_cocycle, datum)
            self.check(report.passed, f"{label}: fails validation ({report.max_residual():.3e})")
            for _ in range(self.CHARGE_REPEATS):
                c = result.timed("charge", deligne.charge, datum)
                self.check(abs(c) <= CHARGE_TOL, f"{label}: charge {c} != 0")
        found = result.timed("equiv", deligne.gauge_equivalent, zero, shifted)
        if found.equivalent:
            self.check_witness(
                result, "gauge shift", self.geometry, 0, parts_of_total(zero.data),
                parts_of_total(shifted.data), parts_of_total(found.witness.data),
            )
        else:
            result.failed += 1
        other = result.timed("equiv", deligne.gauge_equivalent, zero, higher)
        self.check(not other.equivalent, "higher gauge shift accepted against the zero datum")
        report = result.timed("goodcover", cover.check_good_cover, cov)
        self._check_good_cover(report)
        return result

    def _check_good_cover(self, report):
        nerve = self.geometry.full_nerve()
        self.check([e.indices for e in report.entries] == nerve, "good-cover entries differ from the nerve")
        for e in report.entries:
            b = e.betti
            if not self.check(
                b[0] - b[1] + b[2] == self.geometry.euler_characteristic(e.indices),
                f"betti {b} of overlap {e.indices} contradicts its cell counts",
            ):
                return
            if len(e.indices) == 1:
                self.check(e.contractible, f"closed star {e.indices} reported not contractible")

    def cross_check_all(self):
        cov = cover.Cover.build(self.complex, self.sets)
        self.cross_check(self.geometry, cov, (1, 2))


WORKLOADS = {w.name: w for w in (CliLadder, EquivSolve, StarCover)}
