import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    GaugePotential,
    InvalidInputError,
    TotalCochain,
    big_d,
    cech_delta,
    dbar,
    permutation_sign,
    wrap,
)
from gerbecalc.bicomplex import _square_blocks
from gerbecalc.builders import (
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    circle_complex,
    two_cone_sphere,
)
from gerbecalc.randomdata import random_bigraded, random_complex_and_cover, random_total
from gerbecalc.rng import Lcg64

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

    @given(st.floats(-50.0, 50.0, allow_nan=False))
    def test_range_and_congruence(self, x):
        w = wrap(x)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - x, TWO_PI)) < 1e-9


class TestAntisymmetry:
    def test_permutation_sign(self):
        assert permutation_sign((0, 1, 2)) == 1
        assert permutation_sign((0, 2, 1)) == -1
        assert permutation_sign((2, 0, 1)) == 1
        assert permutation_sign((1, 1)) == 0

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
        from gerbecalc import exterior_derivative

        raw0 = exterior_derivative(c0.components[()], cover.complex)
        assert (d0.components[()] - raw0).sup_norm() == 0.0
        raw1 = exterior_derivative(c1.components[(0,)], cover.overlap((0,)))
        assert (d1.components[(0,)] + raw1).sup_norm() == 0.0


def star_cover(complex):
    """One set per vertex: the vertex and its neighbours."""
    stars = [{v} for v in range(complex.vertex_count)]
    for a, b in complex.cells(1):
        stars[a].add(b)
        stars[b].add(a)
    return Cover.build(complex, stars)


class TestExactSquare:
    """D_{k+1} D_k on the integer matrix of D, with no tolerance."""

    @pytest.fixture(
        params=[(build_minus_one_gerbe, 12), (build_monopole, 12), (build_gerbopole, 6), None],
        ids=["minus1", "monopole", "gerbopole", "icosahedron-stars"],
    )
    def cover_and_level(self, request, icosahedron):
        if request.param is None:
            return star_cover(icosahedron), 0
        build, m = request.param
        datum = build(m)
        return datum.cover, datum.level

    def test_square_is_exactly_zero(self, cover_and_level):
        cover, level = cover_and_level
        k = level + 2
        blocks = _square_blocks(cover, (k - 1, k, k + 1))
        assert blocks == {"delta2": 0, "d2": 0, "anticommute": 0, "D2": 0}

    def test_dropped_twist_breaks_anticommutation(self, cover_and_level):
        cover, level = cover_and_level
        blocks = _square_blocks(cover, (level + 1,), _drop_twist=True)
        assert blocks["anticommute"] != 0
        assert blocks["D2"] == blocks["anticommute"]
        # delta^2 and d^2 do not involve the twist
        assert blocks["delta2"] == blocks["d2"] == 0


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
