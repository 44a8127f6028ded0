import hashlib
import math
import sys

import numpy as np
import pytest

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    InvalidInputError,
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    charge,
    curvature,
    exterior_derivative,
    gauge_equivalent,
    validate_cocycle,
    wrap,
)
from gerbecalc.builders import circle_complex, gerbopole_equator_pair, join_sphere3, two_cone_sphere
from gerbecalc.serialize import datum_to_dict, save_datum

TWO_PI = 2.0 * math.pi


def gerbe_equations_oracle(datum):
    """Termwise check of the five gerbe equations, independent of big_d.

    Covers: transition cocycle on quadruples (vacuous for three sets),
    connection compatibility on triples, 2-form differences on pairs,
    curvature defined patchwise, and closedness of the curvature.
    """
    cover = datum.cover
    phi = datum.data.part(0, 3) or BigradedCochain.zero(0, 3, True)
    conn = datum.data.part(1, 2) or BigradedCochain.zero(1, 2)
    two_form = datum.data.part(2, 1) or BigradedCochain.zero(2, 1)
    field = curvature(datum)
    worst = 0.0
    for t in cover.nerve():
        sub = cover.overlap(t)
        if len(t) == 3:
            i, j, k = t
            for a, b in sub.cells(1):
                dlng = wrap(phi.component(t).get((b,)) - phi.component(t).get((a,)))
                value = (
                    conn.component((j, k)).get((a, b))
                    - conn.component((i, k)).get((a, b))
                    + conn.component((i, j)).get((a, b))
                    + dlng
                )
                worst = max(worst, abs(wrap(value)))
        elif len(t) == 2:
            i, j = t
            da = exterior_derivative(conn.component(t).restricted_to(sub), sub)
            for tri in sub.cells(2):
                value = (
                    two_form.component((j,)).get(tri)
                    - two_form.component((i,)).get(tri)
                    - da.get(tri)
                )
                worst = max(worst, abs(value))
        elif len(t) == 1:
            df = exterior_derivative(two_form.component(t).restricted_to(sub), sub)
            for tet in sub.cells(3):
                worst = max(worst, abs(field.get(tet) - df.get(tet)))
    worst = max(worst, exterior_derivative(field, cover.complex).sup_norm())
    return worst


class TestMinusOneGerbe:
    @pytest.mark.parametrize("m", [12, 18, 24])
    def test_validates_and_has_unit_charge(self, m):
        datum = build_minus_one_gerbe(m)
        assert datum.level == -1
        assert validate_cocycle(datum, 1e-9).passed
        assert charge(datum) == pytest.approx(1.0, abs=1e-10)

    def test_function_differences_vanish_exactly(self):
        datum = build_minus_one_gerbe(12)
        layer = datum.data.part(0, 1)
        for t in datum.cover.nerve():
            if len(t) != 2:
                continue
            i, j = t
            sub = datum.cover.overlap(t)
            for v in sub.cells(0):
                assert layer.component((j,)).get(v) == layer.component((i,)).get(v)

    def test_charge_oracle_direct_sum(self):
        m = 12
        datum = build_minus_one_gerbe(m)
        field = curvature(datum)
        # oracle: m increments of 2*pi/m each, read off along the circle
        for k in range(m - 1):
            assert field.get((k, k + 1)) == pytest.approx(TWO_PI / m, abs=1e-15)
        assert field.get((0, m - 1)) == pytest.approx(-TWO_PI / m, abs=1e-15)

    def test_curvature_closed_vacuously_at_top(self):
        datum = build_minus_one_gerbe(12)
        closed = exterior_derivative(curvature(datum), datum.cover.complex)
        assert closed.values == {}

    @pytest.mark.parametrize("m", [5, 9, 10, 6])
    def test_bad_resolution_rejected(self, m):
        with pytest.raises(InvalidInputError):
            build_minus_one_gerbe(m)


class TestMonopole:
    @pytest.mark.parametrize("m", [6, 12, 24])
    def test_validates_and_has_unit_charge(self, m):
        datum = build_monopole(m)
        assert datum.level == 0
        assert validate_cocycle(datum, 1e-9).passed
        assert charge(datum) == pytest.approx(1.0, abs=1e-10)

    def test_first_patch_connection_vanishes(self):
        datum = build_monopole(12)
        conn = datum.data.part(1, 1)
        assert conn.component((0,)).values == {}

    def test_curvature_spreads_over_polar_cells(self):
        m = 12
        field = curvature(build_monopole(m))
        assert len(field.values) == m
        for tri, value in field.values.items():
            assert 2 * m + 1 in tri
            assert abs(value) == pytest.approx(TWO_PI / m, abs=1e-12)

    def test_resolution_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            build_monopole(5)

    def test_winding_too_fast_for_mesh_rejected(self):
        with pytest.raises(InvalidInputError):
            build_monopole(6, winding=2)


class TestGerbopole:
    @pytest.mark.parametrize("m", [6, 12])
    def test_validates_and_has_unit_charge(self, m):
        datum = build_gerbopole(m)
        assert datum.level == 1
        assert validate_cocycle(datum, 1e-9).passed
        assert charge(datum) == pytest.approx(1.0, abs=1e-10)

    def test_termwise_equations_oracle(self):
        datum = build_gerbopole(12)
        assert gerbe_equations_oracle(datum) < 1e-9

    def test_curvature_mass(self):
        m = 12
        datum = build_gerbopole(m)
        field = curvature(datum)
        assert len(field.values) == m
        for value in field.values.values():
            assert abs(value) == pytest.approx(TWO_PI / m, abs=1e-12)

    def test_transition_respects_index_antisymmetry(self):
        datum = build_gerbopole(6)
        layer = datum.data.part(0, 3)
        sorted_comp = layer.component((0, 1, 2))
        swapped = layer.component((0, 2, 1))
        assert (sorted_comp + swapped).sup_norm() == 0.0

    def test_resolution_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            build_gerbopole(4)


class TestWindingLinearity:
    @pytest.mark.parametrize(
        "build,m",
        [
            (build_minus_one_gerbe, 12),
            (build_monopole, 12),
            (build_gerbopole, 12),
        ],
    )
    def test_doubling_the_winding_doubles_the_charge(self, build, m):
        datum = build(m, winding=2)
        assert validate_cocycle(datum, 1e-9).passed
        assert charge(datum) == pytest.approx(2.0, abs=1e-10)


class TestEquatorRestriction:
    def test_monopole_sits_on_the_equator(self):
        for winding in (1, -1):
            restricted, direct = gerbopole_equator_pair(12, winding)
            assert validate_cocycle(restricted, 1e-9).passed
            assert validate_cocycle(direct, 1e-9).passed
            assert charge(restricted) == pytest.approx(charge(direct), abs=1e-10)
            assert abs(charge(restricted)) == pytest.approx(1.0, abs=1e-10)
            # the restriction is the direct build itself, not just gauge equivalent to it
            assert datum_to_dict(restricted) == datum_to_dict(direct)

    def test_equator_equivalence_survives_a_gauge_shift(self):
        from gerbecalc import gauge_shift
        from gerbecalc.randomdata import random_gauge_potential
        from gerbecalc.rng import Lcg64

        restricted, direct = gerbopole_equator_pair(6)
        pot = random_gauge_potential(direct.cover, 1, Lcg64(13))
        shifted = gauge_shift(direct, pot)
        result = gauge_equivalent(restricted, shifted)
        assert result.equivalent
        assert result.residual < 1e-8


def _build_for(key):
    kind, *args = key
    if kind == "equator":
        *args, which = args
        restricted, direct = gerbopole_equator_pair(*args)
        return restricted if which == "restricted" else direct
    builders = {
        "minus1": build_minus_one_gerbe,
        "monopole": build_monopole,
        "gerbopole": build_gerbopole,
    }
    return builders[kind](*args)


# sha256 of each builder's save_datum JSON as the hand-written layers that
# _descend replaced wrote it, so any change to the descent's signs, order or
# rounding shows here; monopole m=6 at winding 2 is rejected as too coarse
PINNED_DIGESTS = {
    ("minus1", 12, 1): "3c0f12465e1cbcc72e705e7dfb45829a26288cd76b240e67d4ec5cfbd5d74927",
    ("minus1", 12, -1): "81ca0dc939ba0c0097cffb8903ac57274cb238baf156775b5c62c0f4e7e80e85",
    ("minus1", 24, 1): "0c4689eb831d30d1de78a2f287acb982a36f5c382f3bc083e3d6e626d07fcc43",
    ("minus1", 24, -1): "39f958d86d73e1c1904f046b3d69cd2d21c2bc4acbc77a4dc3cfadd3aec525c6",
    ("monopole", 6, 1): "a393630168d3cf370232de1755ef4f620d23d679d150af06029779d120f3bdb2",
    ("monopole", 6, -1): "c870aed028995126dda82d3f62fd8685b85ecf25a5aecc09abec1d1331b61c50",
    ("monopole", 12, 1): "6ba830919eb90d9cb4bc369e4e650b2869add5fd51dea889aa41b8b4b27e6599",
    ("monopole", 12, -1): "1c9e20bd35d8016251322bf19fa0a4410a7ececca3df5a4a526b7553bd398d73",
    ("monopole", 12, 2): "bdb6fe98d50118b749be048dd5c6e28b405fb971ab75497c46886be9bdbf8b17",
    ("monopole", 48, 1): "88ad76aaeb498876232462ad028036fe91f87cea84691c55fe5a78b7fe413b6c",
    ("monopole", 48, -1): "1dde5691d52e2865bd23d694ba54b1f081c7dd1dbb8ed9bc1b16851076ae557d",
    ("monopole", 48, 2): "7f331e2edfb883625a2b3226b0dc7489e78914c8e2f9b4f90b9ad7113093bb37",
    ("gerbopole", 6, 1, 8): "ed4d5b9537037bd47228c39adf99e405125faa2936ed8038271a83a68cf6186f",
    ("gerbopole", 6, 1, 16): "9433e3e6b6e3e70dd0f5e51dd007df67bacfc585446aacbe12bd72bd26c8ddbf",
    ("gerbopole", 6, -1, 8): "5c9b5731c6c54cf49215b91bcc1b2f990c71b36d369ed62a6ed19dc9490d65d9",
    ("gerbopole", 6, -1, 16): "2542a067f46059cd92b127d2834eb319bb2ce58db94357393fed2529b13f5a85",
    ("gerbopole", 12, 1, 8): "678d52ea6ffd17f475e52f9107939c1ebf65a50d7f9111c27de649dd0f22eefe",
    ("gerbopole", 12, 1, 16): "6719fce78bb47db506b0ea445cad892643af2cbccddfe274bfac0fa65862aaa2",
    ("gerbopole", 12, -1, 8): "23134e365ca2050b430c1f02748c221f6fad6af6e26504fd9fa4a73f813e3f3f",
    ("gerbopole", 12, -1, 16): "ee2a7ab1571368709d0679d5221a7eaae0645612f70d75b8e07aa461deeda46d",
    ("equator", 6, "restricted"): "ae5a886fb8be838ef949a6d3e9899bd91d4c8df0e1aeed49f5a7c0e1e1d786dd",
    ("equator", 6, "direct"): "ae5a886fb8be838ef949a6d3e9899bd91d4c8df0e1aeed49f5a7c0e1e1d786dd",
    ("equator", 12, -1, "restricted"): "5ebdc24924b34c1147e859d0ee1b661a029308c3cebe9131ce6011c73abadf4b",
    ("equator", 12, -1, "direct"): "5ebdc24924b34c1147e859d0ee1b661a029308c3cebe9131ce6011c73abadf4b",
    # at winding 3, wrap(w * (b - a)) and wrap(w * b - w * a) differ on most
    # ring and band edges (at winding 2 on none), so these rows catch a
    # descent that scales the angle before its difference
    ("monopole", 24, 3): "827ea288bcf5b09098a3a74f3148adaca127a70209a6e9859dcadd9b18fb9770",
    ("monopole", 24, -3): "371d90018c728d96ff77bc89b220a86f1acb39dd8767b100ec6e3afdbddfc1f5",
    ("gerbopole", 24, 3, 8): "57e6b7597d29208d4b2a887dc755a233df5dbc5cfbfc551a1598ef21c84c13eb",
    ("minus1", 24, 3): "593308f4049aee9df25c19c2f627f6df8b0d73ae6ea1ecaf25dcd6e1e3e7d913",
    ("equator", 24, 3, "direct"): "df9affa03aea639502474a222459ce5d34199009aae78aba69f8f6b45a7b067c",
}


@pytest.mark.parametrize("key", list(PINNED_DIGESTS))
def test_builder_output_is_pinned_byte_for_byte(key, tmp_path):
    path = tmp_path / "datum.json"
    save_datum(path, _build_for(key))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[key]


@pytest.mark.parametrize(
    "build, asked",
    [
        (lambda: build_minus_one_gerbe(24, 3), []),
        (lambda: build_monopole(24, 3), [(0, 1)]),
        (lambda: build_gerbopole(12, -1), [(0, 1, 2)]),
        # the gerbopole's ladder, then the direct bundle's
        (lambda: gerbopole_equator_pair(24, 3), [(0, 1, 2), (0, 1)]),
    ],
    ids=["minus1", "monopole", "gerbopole", "equator"],
)
def test_each_ladder_asks_only_its_deepest_overlap(build, asked, monkeypatch):
    # every form below the transition is read off the cover's D through dbar:
    # no overlap complex but the deepest is built, and no dict d is taken
    seen, overlap = [], Cover.overlap
    monkeypatch.setattr(Cover, "overlap", lambda cover, t: seen.append(tuple(t)) or overlap(cover, t))

    def refused(*args):
        raise AssertionError("a builder called exterior_derivative")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gerbecalc" and hasattr(module, "exterior_derivative"):
            monkeypatch.setattr(module, "exterior_derivative", refused)
    built = build()
    assert seen == asked
    for datum in built if isinstance(built, tuple) else (built,):
        assert validate_cocycle(datum).passed


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: circle_complex(2), "^a circle needs at least 3 segments$"),
        (lambda: two_cone_sphere(2), "^a sphere band needs at least 3 segments$"),
        (lambda: join_sphere3(6, 2), "^both polygons need at least 3 segments$"),
        (lambda: build_monopole(12, 0), "^winding must be a nonzero integer, got 0$"),
        (lambda: build_monopole(12, 1.0), "^winding must be a nonzero integer, got 1.0$"),
        (lambda: build_gerbopole(6, base_segments=6), "^the base polygon needs an even count >= 8$"),
        (lambda: build_gerbopole(6, base_segments=9), "^the base polygon needs an even count >= 8$"),
        # a count that is not an integer is refused, as a resolution is by _check_resolution
        (lambda: circle_complex(5.5), "^segments must be an integer, got 5.5$"),
        (lambda: two_cone_sphere(5.5), "^segments must be an integer, got 5.5$"),
        (lambda: join_sphere3(6, 5.5), "^base_segments must be an integer, got 5.5$"),
        (lambda: join_sphere3(True), "^segments must be an integer, got True$"),
        (lambda: build_gerbopole(12, 1, "a"), "^base_segments must be an integer, got 'a'$"),
        (lambda: build_monopole(5.5), "^resolution must be an integer >= 6, got 5.5$"),
        # m and winding are read by the id rule, so True is not a winding of 1
        (lambda: build_monopole(12, True), "^winding must be a nonzero integer, got True$"),
        (lambda: build_gerbopole(True), "^resolution must be an integer >= 6, got True$"),
        (lambda: build_minus_one_gerbe(12.0), r"^the three-arc cover needs m >= 12 with 6 \| m, got 12\.0$"),
        (lambda: build_minus_one_gerbe(12, True), "^winding must be a nonzero integer, got True$"),
    ],
    ids=[
        "circle", "sphere-band", "join", "winding-0", "winding-float", "base-6", "base-odd",
        "circle-float", "sphere-band-float", "join-base-float", "join-bool", "base-str", "monopole-float",
        "monopole-winding-bool", "gerbopole-bool", "minus1-float", "minus1-winding-bool",
    ],
)
def test_refusals(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


@pytest.mark.parametrize("build", [build_minus_one_gerbe, build_monopole, build_gerbopole])
def test_numpy_integers_build_the_same_document(build, tmp_path):
    # read by the id rule, np.int64(12) and np.int32(-1) are the ints 12 and -1
    save_datum(tmp_path / "plain.json", build(12, -1))
    save_datum(tmp_path / "numpy.json", build(np.int64(12), np.int32(-1)))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
