import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    check_good_cover,
    GaugePotential,
    InvalidInputError,
    TotalCochain,
    big_d,
    cech_delta,
    dbar,
    exterior_derivative,
    permutation_sign,
    wrap,
)
from gerbecalc.bicomplex import (
    _basis,
    _coboundary,
    _contraction,
    _exact_defects,
    _SparseD,
    _wrapped,
)
from gerbecalc.builders import (
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    circle_complex,
    gerbopole_equator_pair,
    two_cone_sphere,
)
from gerbecalc.randomdata import random_bigraded, random_complex_and_cover, random_total
from gerbecalc.rng import Lcg64

from conftest import (
    closed_star_cover,
    reference_contraction,
    reference_dbar,
    reference_delta,
    torus_grid,
)

TWO_PI = 2.0 * math.pi


class TestWrap:
    def test_fixed_points(self):
        assert wrap(0.0) == 0.0
        assert wrap(2 * math.pi) == 0.0
        assert wrap(1.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-15)

    def test_branch_convention(self):
        assert wrap(math.pi) == math.pi
        assert wrap(-math.pi) == math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            wrap(float("nan"))
        with pytest.raises(InvalidInputError):
            wrap(float("inf"))

    @pytest.mark.parametrize("bad", ["1", None, True, [1.0], np.bool_(True)])
    def test_refuses_what_is_not_a_real_number(self, bad):
        # float() would take "1" and True, and raise a bare TypeError on None
        with pytest.raises(InvalidInputError, match="^angle .*: must be a real number$"):
            wrap(bad)

    def test_takes_any_real_number(self):
        assert wrap(7) == wrap(7.0) == wrap(np.int64(7)) == wrap(np.float64(7.0))
        assert type(wrap(np.float32(1.5))) is float and wrap(np.float32(1.5)) == 1.5

    @given(st.floats(-50.0, 50.0, allow_nan=False))
    def test_range_and_congruence(self, x):
        w = wrap(x)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - x, TWO_PI)) < 1e-9

    EDGES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 1e6, -1e6]
    EDGES += [math.nextafter(x, d) for x in (math.pi, -math.pi) for d in (-math.inf, math.inf)]
    EDGES += [k * math.pi for k in range(-99, 100, 2)]  # odd multiples up to +-99 pi
    EDGES += [1.7e308, -1.7e308, float(2**53 + 1), 1e-320, -1e-320]

    @staticmethod
    def bits(values):
        return [struct.pack("<d", v) for v in values]

    def test_array_helper_matches_wrap_bit_for_bit(self):
        values = np.array(self.EDGES)
        expected = [wrap(x) for x in self.EDGES]
        assert self.bits(_wrapped(values).tolist()) == self.bits(expected)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_array_helper_matches_wrap_on_any_finite_value(self, x):
        assert self.bits(_wrapped(np.array([x])).tolist()) == self.bits([wrap(x)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_helper_leaves_non_finite_values_unchanged(self, bad):
        values = np.array([4.0, bad, 1.0])
        out = _wrapped(values)
        assert out[0] == wrap(4.0) and out[2] == 1.0
        assert out[1] == bad or (math.isnan(bad) and math.isnan(out[1]))
        assert values[0] == 4.0  # the input is left as it was


class TestAntisymmetry:
    def test_permutation_sign(self):
        assert permutation_sign((0, 1, 2)) == 1
        assert permutation_sign((0, 2, 1)) == -1
        assert permutation_sign((2, 0, 1)) == 1
        assert permutation_sign((1, 1)) == 0
        assert permutation_sign(np.array([2, 0, 1])) == 1

    @pytest.mark.parametrize("bad", [["a", 1], [0.5, 1], [True, 0]])
    def test_permutation_sign_refuses_what_is_not_an_id(self, bad):
        with pytest.raises(InvalidInputError, match="^permutation indices .*: ids must be integers$"):
            permutation_sign(bad)

    def test_component_lookup_applies_sign(self):
        c = Cochain(0, {(0,): 2.0})
        layer = BigradedCochain(0, 2, {(0, 1): c})
        assert layer.component((0, 1)).values == {(0,): 2.0}
        assert layer.component((1, 0)).values == {(0,): -2.0}
        assert layer.component((0, 2)).values == {}

    def test_repeated_index_is_zero(self):
        c = Cochain(0, {(0,): 2.0})
        layer = BigradedCochain(0, 2, {(0, 1): c})
        assert layer.component((1, 1)).values == {}

    @pytest.mark.parametrize("bad", [0.5, "0", True])
    def test_component_refuses_non_integer_indices(self, bad):
        # int() would read 0.5 as set 0 and return the (0,) component
        layer = BigradedCochain(0, 1, {(0,): Cochain(0, {(0,): 2.0})})
        with pytest.raises(InvalidInputError, match="ids must be integers"):
            layer.component((bad,))


# the three operators on a one-part (0, 1) input
ONE_PART_OPS = pytest.mark.parametrize(
    "op",
    [cech_delta, dbar, lambda layer, cover: big_d(TotalCochain(1, {(0, 1): layer}), cover)],
    ids=["cech_delta", "dbar", "big_d"],
)


def two_set_cover():
    K = two_cone_sphere(6)
    band = set(range(12))
    return Cover.build(K, [band | {12}, band | {13}])


class TestSupNorm:
    """A NaN anywhere makes the sup norm NaN; the built-in max() misses a NaN
    that comes after a number."""

    @pytest.mark.parametrize("position", [0, -1])
    def test_nan_in_any_position_at_every_level(self, position):
        def nan_at(mapping, make_nan):
            key = list(mapping)[position]
            return {**mapping, key: make_nan(key)}

        def part(key, value):
            p, n = key
            cochain = Cochain(p, {tuple(range(p + 1)): value})
            return BigradedCochain(p, n, {tuple(range(n)): cochain})

        cochain = Cochain(0, nan_at({(v,): 2.0 for v in range(4)}, lambda key: math.nan))
        layer = BigradedCochain(
            0,
            1,
            nan_at(
                {(i,): Cochain(0, {(0,): 2.0}) for i in range(3)},
                lambda key: Cochain(0, {(0,): math.nan}),
            ),
        )
        total = TotalCochain(
            2,
            nan_at(
                {(p, 2 - p): part((p, 2 - p), 2.0) for p in range(3)},
                lambda key: part(key, math.nan),
            ),
        )
        for x in (cochain, layer, total):
            assert math.isnan(x.sup_norm())


class TestCechDelta:
    def test_global_to_sets_is_restriction(self):
        cover = two_set_cover()
        K = cover.complex
        c = Cochain(0, {(v,): float(v) for v in range(K.vertex_count)})
        layer = BigradedCochain(0, 0, {(): c})
        d = cech_delta(layer, cover)
        for i in (0, 1):
            expected = c.restricted_to(cover.overlap((i,)))
            assert (d.components[(i,)] - expected).sup_norm() == 0.0

    def test_pair_difference_pattern(self):
        # (delta h)_{ij} = h_j - h_i on the overlap
        cover = two_set_cover()
        h0 = Cochain(0, {(0,): 1.0, (12,): 4.0})
        h1 = Cochain(0, {(0,): 0.25, (13,): 7.0})
        layer = BigradedCochain(0, 1, {(0,): h0, (1,): h1})
        d = cech_delta(layer, cover)
        band = cover.overlap((0, 1))
        expected = h1.restricted_to(band) - h0.restricted_to(band)
        assert (d.components[(0, 1)] - expected).sup_norm() == 0.0

    def test_triple_alternating_pattern(self):
        # (delta g)_{ijk} = g_jk - g_ik + g_ij
        rng = Lcg64(5)
        K = circle_complex(9)
        cover = Cover.build(
            K, [set(range(9)), set(range(9)), set(range(9))]
        )
        g = random_bigraded(cover, 0, 2, rng)
        d = cech_delta(g, cover)
        got = d.components[(0, 1, 2)]
        expected = (
            g.component((1, 2)) - g.component((0, 2)) + g.component((0, 1))
        )
        assert (got - expected).sup_norm() == 0.0

    def test_cover_mismatch_rejected(self):
        cover = two_set_cover()
        layer = BigradedCochain(0, 1, {(5,): Cochain(0, {})})
        with pytest.raises(InvalidInputError):
            cech_delta(layer, cover)

    @ONE_PART_OPS
    def test_value_outside_its_overlap_rejected(self, op):
        # vertex 13, the south pole, lies outside set 0
        layer = BigradedCochain(0, 1, {(0,): Cochain(0, {(13,): 1.0})})
        spill = r"part \(0,1\) component \(0,\) spills outside its overlap at \(13,\)"
        with pytest.raises(InvalidInputError, match=spill):
            op(layer, two_set_cover())

    @ONE_PART_OPS
    def test_non_integer_index_rejected(self, op):
        # no set has index 0.5; int() would read it as set 0, which holds vertex 0.
        # The id rule refuses the key when the layer is made, before op reads it
        with pytest.raises(InvalidInputError, match=r"^component key \(0.5,\): ids must be integers$"):
            op(BigradedCochain(0, 1, {(0.5,): Cochain(0, {(0,): 1.0})}), two_set_cover())


class TestOperatorIdentities:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_delta_squared(self, seed):
        rng = Lcg64(seed)
        _, cover = random_complex_and_cover(rng)
        for n in range(0, min(2, len(cover.sets)) + 1):
            c = random_bigraded(cover, 0, n, rng)
            assert cech_delta(cech_delta(c, cover), cover).sup_norm() < 1e-12

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_anticommutation(self, seed):
        rng = Lcg64(seed)
        _, cover = random_complex_and_cover(rng)
        top = cover.complex.top_dimension
        for n in range(0, min(2, len(cover.sets)) + 1):
            for p in range(0, top):
                c = random_bigraded(cover, p, n, rng)
                mixed = cech_delta(dbar(c, cover), cover) + dbar(
                    cech_delta(c, cover), cover
                )
                assert mixed.sup_norm() < 1e-12

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_big_d_squared(self, seed):
        rng = Lcg64(seed)
        _, cover = random_complex_and_cover(rng)
        for degree in (1, 2):
            total = random_total(cover, degree, rng)
            assert big_d(big_d(total, cover), cover).sup_norm() < 1e-12

    def test_dbar_sign_convention(self):
        # dbar = d on even cover degree, -d on odd
        cover = two_set_cover()
        rng = Lcg64(99)
        c0 = random_bigraded(cover, 0, 0, rng)
        c1 = random_bigraded(cover, 0, 1, rng)
        d0 = dbar(c0, cover)
        d1 = dbar(c1, cover)
        raw0 = exterior_derivative(c0.components[()], cover.complex)
        assert (d0.components[()] - raw0).sup_norm() == 0.0
        raw1 = exterior_derivative(c1.components[(0,)], cover.overlap((0,)))
        assert (d1.components[(0,)] + raw1).sup_norm() == 0.0


class TestIndependentReferences:
    """cech_delta and dbar against references that share no code with the
    matrix of D, on thinned random layers at every (p, n) up to n = 3 on the
    closed-star cover of the icosahedron."""

    BIDEGREES = [(p, n) for n in range(4) for p in range(3)]

    @pytest.fixture(scope="class")
    def layers(self, icosahedron):
        cover = closed_star_cover(icosahedron)
        rng = Lcg64(71)
        layers = {}
        for p, n in self.BIDEGREES:
            dense = random_bigraded(cover, p, n, rng)
            # a third of the values absent, which both sides must read as zero
            thinned = {
                t: Cochain(p, {c: v for c, v in comp.values.items() if rng.uniform() < 0.67})
                for t, comp in dense.components.items()
            }
            layers[p, n] = BigradedCochain(p, n, thinned)
        return cover, layers

    @pytest.mark.parametrize("p, n", BIDEGREES)
    def test_cech_delta_is_the_alternating_sum_of_restrictions(self, layers, p, n):
        cover, layer = layers[0], layers[1][p, n]
        assert layer.components
        assert cech_delta(layer, cover).components == reference_delta(layer, cover)

    @pytest.mark.parametrize("p, n", BIDEGREES)
    def test_dbar_is_the_twisted_exterior_derivative(self, layers, p, n):
        cover, layer = layers[0], layers[1][p, n]
        got = dbar(layer, cover)
        assert (got.form_degree, got.cech_degree) == (p + 1, n)
        assert got.components == reference_dbar(layer, cover)


class TestExactSquare:
    """D_{k+1} D_k on the cached integer matrix of D, with no tolerance."""

    @pytest.fixture(
        params=[(build_minus_one_gerbe, 12), (build_monopole, 12), (build_gerbopole, 6), None],
        ids=["minus1", "monopole", "gerbopole", "icosahedron-stars"],
    )
    def cover_and_level(self, request, icosahedron):
        if request.param is None:
            return closed_star_cover(icosahedron), 0
        build, m = request.param
        datum = build(m)
        return datum.cover, datum.level

    def test_square_is_exactly_zero(self, cover_and_level):
        cover, level = cover_and_level
        k = level + 2
        blocks = _exact_defects(cover, (k - 1, k, k + 1))
        assert blocks == {"delta2": 0, "d2": 0, "anticommute": 0, "D2": 0, "homotopy": 0}

    def test_dropped_twist_breaks_anticommutation(self, cover_and_level):
        cover, level = cover_and_level
        blocks = _exact_defects(cover, (level + 1,), break_sign=True)
        assert blocks["anticommute"] != 0
        assert blocks["D2"] == blocks["anticommute"]
        # delta^2, d^2 and delta K + K delta do not involve the twist
        assert blocks["delta2"] == blocks["d2"] == blocks["homotopy"] == 0
        # the twist was undone in a copy: the cached D still squares to zero
        assert _exact_defects(cover, (level + 1,))["D2"] == 0

    def test_a_sign_flipped_in_the_cached_d_is_noticed(self):
        cover = build_monopole(12).cover
        kept = _coboundary(cover, 2)
        signs = kept.signs.copy()
        signs[0] = -signs[0]  # a dbar entry: the first run of row block (2, 1)
        cover._operators["D", 2] = _SparseD(kept.shape, kept.rows, kept.cols, signs, kept.leading)
        blocks = _exact_defects(cover, range(cover.complex.top_dimension + 2))
        assert blocks["D2"] != 0
        # K reads D's delta runs only, so the homotopy does not see a dbar sign
        assert blocks["homotopy"] == 0


class TestContraction:
    """K, (K c)_s(cell) = c_{(j(cell),) + s}(cell), against its definition and
    through delta K + K delta = 1 in integer products, with no tolerance."""

    COVERS = {
        "minus1": lambda ico: build_minus_one_gerbe(12).cover,
        "monopole": lambda ico: build_monopole(12).cover,
        "gerbopole": lambda ico: build_gerbopole(6).cover,
        "icosahedron-stars": closed_star_cover,
        "torus-6-stars": lambda ico: closed_star_cover(torus_grid(6)),
        "torus-12-stars": lambda ico: closed_star_cover(torus_grid(12)),
    }

    @pytest.mark.parametrize("name", list(COVERS))
    def test_homotopy_identity_holds_exactly(self, name, icosahedron):
        cover = self.COVERS[name](icosahedron)
        assert _exact_defects(cover, range(cover.complex.top_dimension + 2))["homotopy"] == 0

    def test_homotopy_identity_on_the_selfcheck_covers(self):
        rng = Lcg64(42)
        for _ in range(25):
            complex, cover = random_complex_and_cover(rng)
            assert _exact_defects(cover, range(complex.top_dimension + 2))["homotopy"] == 0

    @pytest.mark.parametrize("name", ["minus1", "monopole", "gerbopole", "icosahedron-stars"])
    def test_matches_its_definition(self, name, icosahedron):
        cover = self.COVERS[name](icosahedron)
        for k in range(1, cover.complex.top_dimension + 2):
            rows, cols = _basis(cover, k), _basis(cover, k - 1)
            contraction = _contraction(cover, k)
            assert contraction.shape == (cols.size, rows.size)
            assert np.all(contraction.signs == 1)
            pairs = sorted(zip(contraction.rows.tolist(), contraction.cols.tolist()))
            assert pairs == sorted(reference_contraction(cover, rows, cols))

    def test_a_missing_entry_is_noticed(self):
        cover = build_monopole(12).cover
        kept = _contraction(cover, 2)
        cut = _SparseD(kept.shape, kept.rows[1:], kept.cols[1:], kept.signs[1:])
        cover._operators["K", 2] = cut
        # K_2 acts in delta K on degree 2 and in K delta on degree 1
        assert _exact_defects(cover, (1,))["homotopy"] == 1
        assert _exact_defects(cover, (2,))["homotopy"] == 1


def layout_digests(cover) -> dict[str, str]:
    """The first 16 hex digits of sha256 digests of a cover's arrays, over total
    degrees k = 0 to top + 1: the complex's face tables, every basis block that
    D_k reads or writes, D_k and K_k (shape, rows, cols, signs), and the
    good-cover entries.  Each array is hashed as int64 after its shape."""
    top = cover.complex.top_dimension

    def digest(arrays) -> str:
        sha = hashlib.sha256()
        for array in arrays:
            array = np.asarray(array, np.int64)
            sha.update(repr(array.shape).encode())
            sha.update(array.tobytes())
        return sha.hexdigest()[:16]

    def blocks(basis):
        for (p, n), span in basis.positions.items():
            tuples = np.array(basis.tuples[n], np.int64).reshape(len(basis.tuples[n]), n)
            yield from ([p, n, span.start, span.stop], tuples, basis.tuple_ids[p, n], basis.cell_ids[p, n])
            yield basis.keys[p, n]

    def matrix(m):
        return [m.shape, m.rows, m.cols, m.signs]

    degrees = range(top + 2)
    entries = repr(check_good_cover(cover).entries).encode()
    return {
        "faces": digest(cover.complex._faces[q] for q in range(1, top + 1)),
        "bases": digest(a for k in range(top + 3) for a in blocks(_basis(cover, k))),
        "D": digest(a for k in degrees for a in matrix(_coboundary(cover, k))),
        "K": digest(a for k in degrees for a in matrix(_contraction(cover, k))),
        "good": hashlib.sha256(entries).hexdigest()[:16],
    }


LAYOUT_COVERS = {
    "minus1-12": lambda: build_minus_one_gerbe(12).cover,
    "monopole-6": lambda: build_monopole(6).cover,
    "gerbopole-6": lambda: build_gerbopole(6).cover,
    "equator-6": lambda: gerbopole_equator_pair(6)[0].cover,
    "torus-6-stars": lambda: closed_star_cover(torus_grid(6)),
    "torus-12-stars": lambda: closed_star_cover(torus_grid(12)),
    **{f"random-{seed}": lambda seed=seed: random_complex_and_cover(Lcg64(seed))[1] for seed in range(10)},
}

# taken from an implementation that sorted rows by np.lexsort and found faces by a
# stable sort, so they check the row keys against an independent order
PINNED_LAYOUTS = {
    "minus1-12": {
        "faces": "520e85bae215b5fb", "bases": "e5a6a49f274f75f8", "D": "318d986a8c65ba2a",
        "K": "13b6bc7106f6cc1c", "good": "5dda400e42f3276e",
    },
    "monopole-6": {
        "faces": "2618c5da51ae8b37", "bases": "69c4e7d457324bec", "D": "121952fdcb5800b4",
        "K": "cd60e83b51cfe0b3", "good": "db547517e9e12016",
    },
    "gerbopole-6": {
        "faces": "9c4e8f1329ca65fe", "bases": "799d9e4a6f14fc5a", "D": "1f0bf338b57642f5",
        "K": "f2f07debfff59910", "good": "28df034a7fcff9f9",
    },
    "equator-6": {
        "faces": "b35f740bae98cebe", "bases": "b419875a4dead48a", "D": "2fffc229e2a80ca7",
        "K": "2d74f055119ec321", "good": "db547517e9e12016",
    },
    "torus-6-stars": {
        "faces": "dc641b6b615d4ac7", "bases": "68f2f20e518d268b", "D": "da490649e17d13da",
        "K": "4ce59d8397e5a651", "good": "9c7b36bb29f0061b",
    },
    "torus-12-stars": {
        "faces": "fb5a59411d7b63bb", "bases": "052c9f4542c61f19", "D": "2281fc7f52f1a793",
        "K": "308ca1ef338773ca", "good": "11f1e27b8486f4db",
    },
    "random-0": {
        "faces": "925bb1dd8c51eb21", "bases": "ba61f84f5e422ddc", "D": "fe351fe06c2c322f",
        "K": "52548888609bfedc", "good": "8168b9ee9be1f856",
    },
    "random-1": {
        "faces": "c7a1de67c18a01ee", "bases": "6ba12b643d820b2f", "D": "6ea25c2acbd5e846",
        "K": "ccb638a9a7bd1827", "good": "27730bfc35f59854",
    },
    "random-2": {
        "faces": "0b3cc2384d155fc6", "bases": "c01390905f410941", "D": "a69560e8818e8d0b",
        "K": "78ea3086bff61f07", "good": "bf3ba6ea04635278",
    },
    "random-3": {
        "faces": "48959ee1c265cf25", "bases": "2a7172707d3693f0", "D": "5dc1bcb1a8297d4a",
        "K": "ad4f1084dbe651ce", "good": "1520450e7deadd44",
    },
    "random-4": {
        "faces": "1bd714da25998e56", "bases": "879fdbcaddd1ec54", "D": "10dd76390996a33e",
        "K": "0f1d3c557ac80fe6", "good": "65212e075c76d6a9",
    },
    "random-5": {
        "faces": "141c8a61b93ee2e8", "bases": "3970107e5e263c10", "D": "ef39bf587b34e216",
        "K": "ff400c7bae18bfb3", "good": "66eb66294a22faf9",
    },
    "random-6": {
        "faces": "a4e4b3d5f1a4c779", "bases": "d7cb68b345cb566c", "D": "d45444c4904b7c4b",
        "K": "d9b909453d3e7dd1", "good": "ca294a1027892a2b",
    },
    "random-7": {
        "faces": "7558de5a03071e72", "bases": "727e512c881d058a", "D": "2cc7879d1afe095b",
        "K": "6872e0e1bf0efbce", "good": "27730bfc35f59854",
    },
    "random-8": {
        "faces": "0b3cc2384d155fc6", "bases": "27d88205dad2980d", "D": "10c966db199ff73f",
        "K": "5f1049ecf7674547", "good": "21f47a3545133d16",
    },
    "random-9": {
        "faces": "b3c0875cec73d059", "bases": "c765764b26367233", "D": "0abc84a5a3560ff2",
        "K": "8a7f3a884eafa265", "good": "1520450e7deadd44",
    },
}


class TestLayoutPin:
    """Face tables, bases, D, K and good-cover entries, byte for byte."""

    @pytest.mark.parametrize("name", list(LAYOUT_COVERS))
    def test_layout_is_pinned(self, name):
        assert layout_digests(LAYOUT_COVERS[name]()) == PINNED_LAYOUTS[name]


class TestStructuralValidation:
    def test_gauge_potential_rejects_global_part(self):
        layer = BigradedCochain(1, 0, {(): Cochain(1, {})})
        with pytest.raises(InvalidInputError):
            GaugePotential(TotalCochain(1, {(1, 0): layer}))

    def test_part_bidegree_must_match_total_degree(self):
        layer = BigradedCochain(0, 1, {})
        with pytest.raises(InvalidInputError):
            TotalCochain(2, {(0, 1): layer})

    def test_angle_only_on_functions(self):
        with pytest.raises(InvalidInputError):
            BigradedCochain(1, 1, {}, angle_valued=True)

    def test_bigraded_refusals(self):
        one = Cochain(0, {(0,): 1.0})
        with pytest.raises(InvalidInputError, match="^bidegrees must be non-negative$"):
            BigradedCochain(0, -1, {})
        wrong_length = r"^component key \(0,\) has wrong length for cech degree 2$"
        with pytest.raises(InvalidInputError, match=wrong_length):
            BigradedCochain(0, 2, {(0,): one})
        for key in [(1, 0), (0, 0), (-1, 0)]:
            unordered = f"^component key {re.escape(str(key))} is not strictly increasing$"
            with pytest.raises(InvalidInputError, match=unordered):
                BigradedCochain(0, 2, {key: one})
        with pytest.raises(InvalidInputError, match=r"^component at \(0, 1\) has degree 0, expected 1$"):
            BigradedCochain(1, 2, {(0, 1): one})
        with pytest.raises(InvalidInputError, match="^expected 2 indices, got 1$"):
            BigradedCochain(0, 2, {}).component((0,))
        with pytest.raises(InvalidInputError, match="^bidegrees differ$"):
            BigradedCochain(0, 2, {}) + BigradedCochain(0, 1, {})

    @pytest.mark.parametrize("bad", ["a", 1.0, True, None])
    def test_degrees_are_read_as_ids(self, bad):
        with pytest.raises(InvalidInputError, match="^cochain degree .*: ids must be integers$"):
            Cochain(bad, {})
        for degrees in ((bad, 0), (0, bad)):
            with pytest.raises(InvalidInputError, match="^bidegree .*: ids must be integers$"):
                BigradedCochain(*degrees, {})
        with pytest.raises(InvalidInputError, match="^total degree .*: ids must be integers$"):
            TotalCochain(bad, {})

    @pytest.mark.parametrize(
        "key",
        [(True,), (1.0,), (np.float64(1.0),), (0.5,), ("1",), 1],
        ids=["bool", "float", "numpy-float", "half", "str", "bare-int"],
    )
    def test_component_keys_are_read_as_ids(self, key):
        # a file holds integer indices only, so the key is refused where the layer is made
        with pytest.raises(InvalidInputError, match=r"^component key .*: ids must be integers$"):
            BigradedCochain(1, 1, {key: Cochain(1, {})})

    @pytest.mark.parametrize(
        "key", [(1.0, 1), (True, 1), (1, np.float64(1.0)), "ab"], ids=["float", "bool", "numpy-float", "str"]
    )
    def test_part_keys_are_read_as_ids(self, key):
        # a file holds an integer "p" and "n" only, so the key is refused where the total is made
        with pytest.raises(InvalidInputError, match=r"^part key .*: ids must be integers$"):
            TotalCochain(2, {key: BigradedCochain(1, 1, {})})

    @pytest.mark.parametrize("key", [(1,), (1, 1, 0)], ids=["one", "three"])
    def test_part_keys_are_pairs(self, key):
        with pytest.raises(InvalidInputError, match=r"^part key .* is not a bidegree \(p, n\)$"):
            TotalCochain(2, {key: BigradedCochain(1, 1, {})})

    def test_keys_are_stored_as_python_ints(self):
        one = Cochain(1, {})
        comps = {(np.int64(0),): one, (np.int32(1),): one}
        layer = BigradedCochain(1, 1, comps)
        assert list(layer.components) == [(0,), (1,)]
        assert {type(i) for t in layer.components for i in t} == {int}
        total = TotalCochain(2, {(np.int64(1), np.uint8(1)): layer})
        assert list(total.parts) == [(1, 1)] and {*map(type, next(iter(total.parts)))} == {int}
        # keys that already are tuples of ints keep their dict
        plain = {(0,): one, (1,): one}
        assert BigradedCochain(1, 1, plain).components is plain
        parts = {(1, 1): layer}
        assert TotalCochain(2, parts).parts is parts

    def test_negative_total_degree_refused(self):
        # as Cochain and BigradedCochain refuse theirs; big_d once gave degree -4
        with pytest.raises(InvalidInputError, match="^total degree must be non-negative$"):
            TotalCochain(-5, {})
        with pytest.raises(InvalidInputError, match="^total degree must be non-negative$"):
            TotalCochain.zero(-1)
        assert TotalCochain(0, {}).total_degree == 0

    def test_numpy_degrees_are_stored_as_python_ints(self):
        one = np.int64(1)
        layer = BigradedCochain(one, one, {})
        degrees = [Cochain(one, {}).degree, layer.form_degree, layer.cech_degree, TotalCochain(one, {}).total_degree]
        assert [type(d) for d in degrees] == [int] * 4

    def test_total_refusals(self):
        with pytest.raises(InvalidInputError, match=r"^part stored under wrong bidegree \(1,1\)$"):
            TotalCochain(2, {(1, 1): BigradedCochain(2, 0, {})})
        # an angle-valued part is a 0-form layer, so the degree check keeps it at (0, k)
        angle = BigradedCochain(0, 1, {}, angle_valued=True)
        assert TotalCochain(1, {(0, 1): angle}).parts == {(0, 1): angle}
        with pytest.raises(InvalidInputError, match=r"^part at \(0,1\) does not match total degree 2$"):
            TotalCochain(2, {(0, 1): angle})
        with pytest.raises(InvalidInputError, match="^total degrees differ$"):
            TotalCochain(2, {}) + TotalCochain(1, {})


class TestSparseSums:
    """BigradedCochain and TotalCochain add by the one sparse dict sum."""

    def test_bigraded_sum_drops_an_incoming_empty_component_and_ors_the_flags(self):
        plain = BigradedCochain(0, 1, {(0,): Cochain(0, {(0,): 1.0})})
        angle = BigradedCochain(0, 1, {(1,): Cochain(0, {}), (0,): Cochain(0, {(1,): 2.0})}, True)
        total = plain + angle
        assert total.components == {(0,): Cochain(0, {(0,): 1.0, (1,): 2.0})}
        assert total.angle_valued and (angle + plain).angle_valued
        assert not (plain + plain).angle_valued
        assert (plain + plain.scaled(-1.0)).components == {}
        # the left operand's components are copied as they are, an empty one too
        assert (angle + BigradedCochain.zero(0, 1)).components == angle.components

    def test_total_sum_drops_a_part_that_cancels_to_empty(self):
        conn = BigradedCochain(1, 1, {(0,): Cochain(1, {(0, 1): 0.5})})
        form = BigradedCochain(2, 0, {(): Cochain(2, {(0, 1, 2): 1.0})})
        total = TotalCochain(2, {(1, 1): conn, (2, 0): form})
        assert (total + TotalCochain(2, {(1, 1): conn.scaled(-1.0)})).parts == {(2, 0): form}
        assert (total - total).parts == {}
        # an incoming empty part falls away, so a flag part must join a nonempty one first
        flag = TotalCochain(2, {(0, 2): BigradedCochain.zero(0, 2, True)})
        assert (total + flag).parts == total.parts
        assert (flag + total).parts == {**flag.parts, **total.parts}


def setdefault_components(basis, vec, p, n):
    """Block (p, n) of ``vec`` as components, one ``setdefault`` per nonzero
    coordinate: a decode that reads no runs, the reference ``components_of``
    is compared with."""
    span = basis.positions.get((p, n), range(0))
    at = np.flatnonzero(vec[span.start : span.stop])
    if not at.size:
        return {}
    tuples, cells, grouped = basis.tuples[n], basis.complex.cells(p), {}
    found = zip(basis.tuple_ids[p, n][at].tolist(), basis.cell_ids[p, n][at].tolist())
    for (t, c), v in zip(found, vec[span.start + at].tolist()):
        grouped.setdefault(tuples[t], {})[cells[c]] = v
    return {t: Cochain(p, v) for t, v in grouped.items()}


def sparse_vectors(size, seed):
    """Seeded vectors of ``size`` coordinates: empty, one nonzero at each end, and
    random ones with about 1 in 2, 1 in 5 and 1 in 50 coordinates nonzero."""
    rng, found = Lcg64(seed), [np.zeros(size)]
    for at in {0, size - 1} if size else ():
        one = np.zeros(size)
        one[at] = -0.75
        found.append(one)
    for keep in (0.5, 0.2, 0.02):
        found.append(np.array([rng.uniform(-1.0, 1.0) if rng.uniform() < keep else 0.0 for _ in range(size)]))
    return found


DECODE_COVERS = {
    "minus one gerbe 12": lambda: build_minus_one_gerbe(12).cover,
    "monopole 12": lambda: build_monopole(12).cover,
    "monopole 48": lambda: build_monopole(48).cover,
    "gerbopole 6": lambda: build_gerbopole(6).cover,
    "gerbopole 12": lambda: build_gerbopole(12).cover,
    "torus 6x6 stars": lambda: closed_star_cover(torus_grid(6)),
    "torus 12x12 stars": lambda: closed_star_cover(torus_grid(12)),
}


class TestDecode:
    """``components_of`` reads each component off one run of its block; it gives
    the cochains, and their order, of a decode by one ``setdefault`` per value."""

    @pytest.mark.parametrize("name", list(DECODE_COVERS))
    def test_runs_decode_as_setdefault_does(self, name):
        cover = DECODE_COVERS[name]()
        for degree in range(cover.complex.top_dimension + 3):
            basis = _basis(cover, degree)
            for i, vec in enumerate(sparse_vectors(basis.size, degree)):
                parts = {}
                for p, n in basis.positions:
                    got, expected = basis.components_of(vec, p, n), setdefault_components(basis, vec, p, n)
                    assert list(got) == list(expected), (name, degree, i, p, n)
                    for t, comp in got.items():
                        assert comp.degree == p
                        assert list(comp.values.items()) == list(expected[t].values.items())
                    if expected:
                        parts[p, n] = BigradedCochain(p, n, expected)
                total = basis.total_of(vec)
                assert total == TotalCochain(degree, parts) and list(total.parts) == list(parts)

    def test_a_block_beyond_the_layout_is_empty(self):
        basis = _basis(build_monopole(12).cover, 2)
        assert basis.components_of(np.ones(basis.size), 3, 0) == {}
