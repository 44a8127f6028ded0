import functools
import gc
import hashlib
import itertools
import math
import sys
import time
import warnings
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    GerbeDatum,
    GerbecalcError,
    InvalidInputError,
    NumericError,
    SimplicialComplex,
    StructuralError,
    TotalCochain,
    ValidationReport,
    betti_numbers,
    big_d,
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    build_trivial,
    charge,
    check_good_cover,
    curvature,
    exterior_derivative,
    fundamental_cycle,
    gauge_equivalent,
    gauge_shift,
    higher_gauge_shift,
    integrate,
    validate_cocycle,
    wrap,
)
from gerbecalc.builders import gerbopole_equator_pair, join_sphere3, two_cone_sphere
from gerbecalc.serialize import load_datum, save_datum
from gerbecalc import bicomplex
from gerbecalc.bicomplex import GaugePotential, _coboundary_matrix, _flat, _LayerBasis, _SparseD
from gerbecalc.deligne import DEFAULT_EQUIVALENCE_TOL, EquivalenceResult, _descent
from gerbecalc.randomdata import random_complex_and_cover, random_gauge_potential, random_total
from gerbecalc.rng import Lcg64

from conftest import (
    ICOSAHEDRON_FACES,
    closed_star_cover,
    reference_contraction,
    reference_dbar,
    reference_delta,
    sparse_transition_monopoles,
    torus_grid,
)

TWO_PI = 2.0 * math.pi


def coordinates(basis, total):
    """The vector of a total cochain on the basis, its parts placed by ``vector``."""
    return basis.vector((*key, *_flat(part, basis.complex)) for key, part in total.parts.items())


def without_leading_columns(matrix, count):
    """The matrix less its first ``count`` columns, renumbered from 0: the D of a
    potential, which has no global (k - 1, 0) block."""
    keep = matrix.cols >= count
    shape = (matrix.shape[0], matrix.shape[1] - count)
    return _SparseD(shape, matrix.rows[keep], matrix.cols[keep] - count, matrix.signs[keep])


def dense_of(matrix):
    out = np.zeros(matrix.shape)
    out[matrix.rows, matrix.cols] = matrix.signs
    return out


def pole_shift(datum, g):
    """build_monopole(m) shifted by g at the south pole on set 1: every edge of
    set 1 that touches the pole gains that much connection."""
    south = datum.cover.complex.vertex_count - 1
    conn = datum.data.part(1, 1)
    values = dict(conn.components[(1,)].values)
    for edge in datum.cover.overlap((1,)).cells(1):
        if south in edge:
            values[edge] = values.get(edge, 0.0) + g
    components = {**conn.components, (1,): Cochain(1, values)}
    parts = {**datum.data.parts, (1, 1): BigradedCochain(1, 1, components)}
    return GerbeDatum(0, TotalCochain(2, parts), datum.cover)


def bundle_equations_oracle(datum):
    """Termwise check of the four bundle equations, independent of big_d.

    Returns the worst absolute residual over: transition cocycle condition on
    triples, connection compatibility on pairs, curvature defined patchwise,
    and closedness of the curvature.
    """
    cover = datum.cover
    phi = datum.data.part(0, 2) or BigradedCochain.zero(0, 2, True)
    conn = datum.data.part(1, 1) or BigradedCochain.zero(1, 1)
    field = curvature(datum)
    worst = 0.0
    nerve = cover.nerve()
    for t in nerve:
        if len(t) == 3:
            i, j, k = t
            sub = cover.overlap(t)
            for (v,) in sub.cells(0):
                value = (
                    phi.component((j, k)).get((v,))
                    - phi.component((i, k)).get((v,))
                    + phi.component((i, j)).get((v,))
                )
                worst = max(worst, abs(wrap(value)))
    for t in nerve:
        if len(t) == 2:
            i, j = t
            sub = cover.overlap(t)
            for a, b in sub.cells(1):
                dlng = wrap(phi.component(t).get((b,)) - phi.component(t).get((a,)))
                value = (
                    conn.component((j,)).get((a, b))
                    - conn.component((i,)).get((a, b))
                    - dlng
                )
                worst = max(worst, abs(wrap(value)))
    for t in nerve:
        if len(t) == 1:
            sub = cover.overlap(t)
            da = exterior_derivative(conn.component(t).restricted_to(sub), sub)
            for tri in sub.cells(2):
                worst = max(worst, abs(field.get(tri) - da.get(tri)))
    dfield = exterior_derivative(field, cover.complex)
    worst = max(worst, dfield.sup_norm())
    return worst


class TestValidate:
    def test_zero_datum_passes(self):
        K = two_cone_sphere(6)
        cover = Cover.build(K, [set(range(12)) | {12}, set(range(12)) | {13}])
        report = validate_cocycle(build_trivial(cover, 0))
        assert report.passed
        assert report.max_residual() == 0.0

    def test_monopole_passes_and_matches_oracle(self):
        datum = build_monopole(12)
        report = validate_cocycle(datum, 1e-9)
        assert report.passed
        assert bundle_equations_oracle(datum) < 1e-9

    def test_perturbed_monopole_fails_with_localized_residual(self):
        datum = build_monopole(12)
        phi = datum.data.part(0, 2)
        values = dict(phi.components[(0, 1)].values)
        values[(3,)] += 0.3
        perturbed = GerbeDatum(
            0,
            TotalCochain(
                2,
                {
                    **datum.data.parts,
                    (0, 2): BigradedCochain(
                        0, 2, {(0, 1): Cochain(0, values)}, angle_valued=True
                    ),
                },
            ),
            datum.cover,
        )
        report = validate_cocycle(perturbed, 1e-9)
        assert not report.passed
        assert report.max_residual() == pytest.approx(0.3, abs=1e-12)
        top = report.worst[0]
        assert top.bidegree == (1, 2)
        assert top.indices == (0, 1)
        assert 3 in top.cell
        # oracle: recompute the affected equation directly
        assert bundle_equations_oracle(perturbed) == pytest.approx(0.3, abs=1e-12)

    def test_transition_layer_must_be_angle_valued(self):
        datum = build_monopole(6)
        parts = dict(datum.data.parts)
        plain = parts[(0, 2)]
        parts[(0, 2)] = BigradedCochain(0, 2, plain.components, angle_valued=False)
        # a part that spills, before or after the transition layer: the angle
        # rule is checked on every part before any part is placed
        spill = BigradedCochain(1, 1, {(1,): Cochain(1, {(0, 12): 1.0})})  # 12 is outside set 1
        rest = {key: part for key, part in parts.items() if key != (1, 1)}
        for given in (parts, {(1, 1): spill, **rest}, {**rest, (1, 1): spill}):
            with pytest.raises(InvalidInputError, match="^the transition layer must be angle-valued$"):
                GerbeDatum(0, TotalCochain(2, given), datum.cover)

    def test_support_outside_overlap_rejected(self):
        datum = build_monopole(6)
        # north pole (id 12) is not in the band overlap
        bad_phi = BigradedCochain(
            0, 2, {(0, 1): Cochain(0, {(12,): 1.0})}, angle_valued=True
        )
        parts = dict(datum.data.parts)
        parts[(0, 2)] = bad_phi
        with pytest.raises(InvalidInputError, match=r"\(0,2\) component \(0, 1\) spills .* \(12,\)"):
            GerbeDatum(0, TotalCochain(2, parts), datum.cover)

    def test_non_integer_component_index_rejected(self):
        # int() in a lookup would read (1.5,) as set 1's component
        datum = build_monopole(6)
        parts = dict(datum.data.parts)
        comps = dict(parts[(1, 1)].components)
        comps[(1.5,)] = comps.pop((1,))
        # the id rule refuses the key when the layer is made
        with pytest.raises(InvalidInputError, match=r"^component key \(1.5,\): ids must be integers$"):
            parts[(1, 1)] = BigradedCochain(1, 1, comps)

    @pytest.mark.parametrize("position", [0, -1])
    def test_non_finite_curvature_fails(self, position):
        datum = build_monopole(6)
        parts = dict(datum.data.parts)
        values = dict(parts[(2, 0)].components[()].values)
        values[list(values)[position]] = math.nan
        parts[(2, 0)] = BigradedCochain(2, 0, {(): Cochain(2, values)})
        report = validate_cocycle(GerbeDatum(0, TotalCochain(2, parts), datum.cover))
        assert not report.passed
        assert math.isnan(report.residuals[(2, 1)])
        assert math.isnan(report.max_residual())

    @pytest.mark.parametrize("position", [0, 5, -1])
    def test_nan_cell_leads_the_worst_cells(self, position):
        # shifted connection values give many residual cells larger than 1,
        # which a NaN cell must not fall behind
        datum = build_monopole(12)
        parts = dict(datum.data.parts)
        connection = parts[(1, 1)].components[(1,)]
        parts[(1, 1)] = BigradedCochain(
            1, 1, {(1,): Cochain(1, {e: v + 1.0 for e, v in connection.values.items()})}
        )
        values = dict(parts[(2, 0)].components[()].values)
        nan_cell = list(values)[position]
        values[nan_cell] = math.nan
        parts[(2, 0)] = BigradedCochain(2, 0, {(): Cochain(2, values)})
        report = validate_cocycle(GerbeDatum(0, TotalCochain(2, parts), datum.cover))
        assert math.isnan(report.residuals[(2, 1)])
        nan_peaks = [pk for pk in report.worst if math.isnan(pk.magnitude)]
        assert nan_peaks and report.worst[: len(nan_peaks)] == tuple(nan_peaks)
        assert {pk.cell for pk in nan_peaks} == {nan_cell}
        rest = [pk.magnitude for pk in report.worst[len(nan_peaks) :]]
        assert rest == sorted(rest, reverse=True) and rest[0] > 1.0

    @pytest.mark.parametrize("layer", ["connection", "transition"])
    def test_overflow_in_a_wrapped_row_fails_instead_of_raising(self, layer):
        # finite values whose residual in the (1, 2) row, which is wrapped,
        # overflows to inf: through delta of the connection, or through the
        # edge difference of the transition on the band edge (0, 1)
        datum = build_monopole(12)
        parts = dict(datum.data.parts)
        if layer == "connection":
            connection = dict(parts[(1, 1)].components[(1,)].values)
            connection[(0, 1)] = 1.7e308
            parts[(1, 1)] = BigradedCochain(
                1, 1, {(0,): Cochain(1, {(0, 1): -1.7e308}), (1,): Cochain(1, connection)}
            )
        else:
            phi = dict(parts[(0, 2)].components[(0, 1)].values)
            phi[(0,)], phi[(1,)] = 1.7e308, -1.7e308
            parts[(0, 2)] = BigradedCochain(0, 2, {(0, 1): Cochain(0, phi)}, angle_valued=True)
        report = validate_cocycle(GerbeDatum(0, TotalCochain(2, parts), datum.cover))
        assert not report.passed
        assert report.residuals[(1, 2)] == math.inf
        assert report.worst[0].magnitude == math.inf
        assert report.worst[0].bidegree == (1, 2)

    def test_max_residual_reports_nan_in_any_position(self):
        for residuals in (
            {(0, 1): math.nan, (1, 0): 0.5},
            {(0, 1): 0.5, (1, 0): math.nan},
        ):
            report = ValidationReport(1e-9, residuals, (), False)
            assert math.isnan(report.max_residual())


class TestCurvatureAndCharge:
    def test_trivial_curvature_and_charge(self):
        datum = build_monopole(6)
        trivial = build_trivial(datum.cover, 0)
        assert curvature(trivial).values == {}
        assert charge(trivial) == 0.0

    def test_monopole_curvature_support_and_mass(self):
        m = 12
        datum = build_monopole(m)
        field = curvature(datum)
        south = 2 * m + 1
        assert all(south in tri for tri in field.values)
        assert len(field.values) == m
        for value in field.values.values():
            assert abs(value) == pytest.approx(TWO_PI / m, abs=1e-12)
        # oracle: total winding of the wrapped increments around the pole
        lon = lambda v: TWO_PI * (v % m) / m
        winding = sum(
            wrap(lon(m + (k + 1) % m) - lon(m + k)) for k in range(m)
        )
        total = integrate(field, fundamental_cycle(datum.cover.complex))
        assert total == pytest.approx(winding, abs=1e-12)
        assert total == pytest.approx(TWO_PI, abs=1e-12)

    def test_charge_needs_matching_dimension(self):
        datum = build_monopole(6)
        sphere3 = join_sphere3(6)
        cover3 = Cover.build(sphere3, [set(v[0] for v in sphere3.cells(0))])
        with pytest.raises(InvalidInputError):
            charge(build_trivial(cover3, 0))

    def test_curvature_closed_below_top_dimension(self):
        # a bundle on the 3-sphere: curvature degree 2 < top dimension 3
        sphere3 = join_sphere3(6)
        verts = set(v[0] for v in sphere3.cells(0))
        cover = Cover.build(sphere3, [verts, verts])
        rng = Lcg64(17)
        b_vals = {e: rng.uniform(-1, 1) for e in sphere3.cells(1)}
        connection = Cochain(1, b_vals)
        field = exterior_derivative(connection, sphere3)
        datum = GerbeDatum(
            0,
            TotalCochain(
                2,
                {
                    (1, 1): BigradedCochain(
                        1, 1, {(0,): connection, (1,): connection}
                    ),
                    (2, 0): BigradedCochain(2, 0, {(): field.scaled(-1.0)}),
                },
            ),
            cover,
        )
        assert validate_cocycle(datum).passed
        closed = exterior_derivative(curvature(datum), sphere3)
        assert closed.sup_norm() < 1e-10


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_validate_refuses_nan_infinite_and_negative(self, tol):
        with pytest.raises(InvalidInputError, match="tol must be finite and non-negative"):
            validate_cocycle(build_monopole(6), tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_equivalence_refuses_nan_infinite_and_negative(self, tol):
        datum = build_monopole(6)
        with pytest.raises(InvalidInputError, match="tol must be finite and non-negative"):
            gauge_equivalent(datum, datum, tol=tol)

    def test_infinite_tolerance_cannot_equate_different_charges(self):
        # an infinite tolerance once accepted any residual, so charges 1 and 2 matched
        with pytest.raises(InvalidInputError):
            gauge_equivalent(build_monopole(12), build_monopole(12, winding=2), tol=math.inf)

    @pytest.mark.parametrize("tol", ["1e-9", True, "abc", [1], np.bool_(False)])
    def test_refuses_what_is_not_a_real_number(self, tol):
        # float() would take "1e-9" and True (as 1.0), and raise a bare error on the rest
        datum = build_monopole(6)
        with pytest.raises(InvalidInputError, match="tol .*: must be a real number"):
            validate_cocycle(datum, tol)
        with pytest.raises(InvalidInputError, match="tol .*: must be a real number"):
            gauge_equivalent(datum, datum, tol=tol)

    @pytest.mark.parametrize("tol", [1, np.float32(1e-6), np.int64(0), Fraction(1, 10**9)])
    def test_takes_any_real_number(self, tol):
        datum = build_monopole(6)
        report = validate_cocycle(datum, tol)
        assert report.passed and report.tolerance == float(tol) and type(report.tolerance) is float

    def test_zero_is_legal(self):
        # the builder's residuals are exactly zero
        datum = build_monopole(6)
        assert validate_cocycle(datum, 0).passed
        assert gauge_equivalent(datum, datum, tol=0.0).equivalent


class TestGaugeEquivalence:
    def test_reflexive(self):
        datum = build_monopole(6)
        result = gauge_equivalent(datum, datum)
        assert result.equivalent
        assert result.residual < 1e-12
        assert result.witness.data.sup_norm() < 1e-9

    def test_random_shift_accepted_and_witness_reproduces_delta(self):
        datum = build_monopole(12)
        rng = Lcg64(23)
        for _ in range(3):
            pot = random_gauge_potential(datum.cover, 1, rng)
            shifted = gauge_shift(datum, pot)
            assert validate_cocycle(shifted).passed
            result = gauge_equivalent(datum, shifted)
            assert result.equivalent
            assert result.residual < 1e-8
            delta = shifted.data - datum.data
            pushed = big_d(result.witness.data, datum.cover)
            assert (pushed - delta).sup_norm() < 1e-8

    def test_symmetric_with_negated_witness(self):
        datum = build_monopole(6)
        pot = random_gauge_potential(datum.cover, 1, Lcg64(31))
        shifted = gauge_shift(datum, pot)
        forward = gauge_equivalent(datum, shifted)
        backward = gauge_equivalent(shifted, datum)
        assert forward.equivalent and backward.equivalent
        total = forward.witness.data + backward.witness.data
        assert total.sup_norm() < 1e-8

    @pytest.mark.parametrize("case", ["monopole", "gerbopole", "icosahedron-stars"])
    def test_witness_matches_a_dense_zig_zag(self, case, icosahedron):
        # the witness is the zig-zag of K from the top Cech degree down, then
        # D eta = -omega on the global forms with eta = 0 where the walk seeds
        # and roots it: at the first vertex at level 0, on the edges of the
        # degree-0 walk's spanning tree above, where eta is then unique
        datum = {
            "monopole": lambda: build_monopole(12),
            "gerbopole": lambda: build_gerbopole(6),
            "icosahedron-stars": lambda: GerbeDatum.zero(closed_star_cover(icosahedron), 0),
        }[case]()
        cover, k = datum.cover, datum.level + 2
        shifted = gauge_shift(datum, random_gauge_potential(cover, k - 1, Lcg64(67), 0.5))
        result = gauge_equivalent(datum, shifted)
        assert result.equivalent
        rows, cols, below = (_LayerBasis(cover, j) for j in (k, k - 1, k - 2))
        angle = list(rows.positions.get((0, k), ()))
        b = coordinates(rows, shifted.data) - coordinates(rows, datum.data)
        b[angle] = [wrap(v) for v in b[angle]]
        witness = coordinates(cols, result.witness.data)
        # D(W) = B - A through the dict operator, angle rows modulo 2*pi
        residual = coordinates(rows, big_d(result.witness.data, cover)) - b
        residual[angle] = [wrap(v) for v in residual[angle]]
        assert np.max(np.abs(residual)) <= 1e-8

        contraction = np.zeros((cols.size, rows.size))
        for target, source in reference_contraction(cover, rows, cols):
            contraction[target, source] = 1.0
        d, d_below = (dense_of(_coboundary_matrix(cover, j)) for j in (k - 1, k - 2))

        def contracted(r, span):
            part = np.zeros(rows.size)
            part[list(span)] = r[list(span)]
            return contraction @ part

        x, r = np.zeros(cols.size), b.copy()
        for n in range(k, 1, -1):
            y = contracted(r, rows.positions[k - n, n])
            x, r = x + y, r - d @ y
        omega = contracted(r, rows.positions[k - 1, 1])[list(cols.positions[k - 1, 0])]
        forms = list(below.positions[k - 2, 0])
        block = d_below[np.ix_(list(cols.positions[k - 1, 0]), forms)]
        complex = cover.complex
        if k == 2:
            fixed = [0]
        else:
            # the rows that solved a step of the degree-0 walk are the edges of a
            # spanning tree: each joins two trees of a union-find, and they are
            # one fewer than the vertices
            fixed = [e for _, e in complex._order(0)[0]]
            root = list(range(len(complex.cells(0))))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for u, v in complex._faces[1][fixed].tolist():
                assert find(u) != find(v)
                root[find(u)] = find(v)
            assert len(fixed) == len(complex.cells(0)) - 1
        free = [j for j in range(len(forms)) if j not in fixed]
        eta = np.zeros(len(forms))
        eta[free], _, rank, _ = np.linalg.lstsq(block[:, free], -omega, rcond=None)
        assert rank == len(free)
        restricted = list(cols.positions[k - 2, 1])
        x[restricted] += (d_below[:, forms] @ eta)[restricted]
        np.testing.assert_allclose(witness, x, rtol=0.0, atol=1e-12)
        # a fixed linear map of b
        np.testing.assert_array_equal(_descent(cover, k, -b), -_descent(cover, k, b))

    def test_monopole_not_equivalent_to_trivial(self):
        datum = build_monopole(12)
        trivial = build_trivial(datum.cover, 0)
        result = gauge_equivalent(datum, trivial)
        assert not result.equivalent
        assert result.witness is None
        assert result.residual > 1e-3
        # the invariant obstruction
        assert abs(charge(datum) - charge(trivial)) == pytest.approx(1.0, abs=1e-10)

    def test_validation_is_gauge_invariant(self):
        datum = build_monopole(12)
        rng = Lcg64(41)
        for _ in range(3):
            pot = random_gauge_potential(datum.cover, 1, rng, amplitude=2.0)
            shifted = gauge_shift(datum, pot)
            assert validate_cocycle(shifted, 1e-9).passed
            assert charge(shifted) == pytest.approx(charge(datum), abs=1e-10)

    def test_shifted_monopole_residual_at_round_off(self):
        # the solve works on D itself, not on D^T D, whose condition number
        # is the square of cond(D) and left residuals near 1e-13 at m=192
        datum = build_monopole(192)
        pot = random_gauge_potential(datum.cover, 1, Lcg64(23))
        result = gauge_equivalent(datum, gauge_shift(datum, pot))
        assert result.equivalent
        assert result.residual <= 1e-14

    def test_shifted_trivial_datum_is_equivalent_to_it(self):
        trivial = build_trivial(build_monopole(12).cover, 0)
        pot = random_gauge_potential(trivial.cover, 1, Lcg64(29), amplitude=0.5)
        shifted = gauge_shift(trivial, pot)
        assert shifted.transition_layer.angle_valued
        assert validate_cocycle(shifted).passed
        result = gauge_equivalent(trivial, shifted)
        assert result.equivalent
        assert result.residual < 1e-12

    def test_non_finite_datum_gets_a_library_error(self):
        datum = build_monopole(6)
        parts = dict(datum.data.parts)
        values = dict(parts[(2, 0)].components[()].values)
        values[next(iter(values))] = math.nan
        parts[(2, 0)] = BigradedCochain(2, 0, {(): Cochain(2, values)})
        broken = GerbeDatum(0, TotalCochain(2, parts), datum.cover)
        with pytest.raises(GerbecalcError):
            gauge_equivalent(datum, broken)

    def test_overflowing_difference_raises_numeric_error(self):
        # both data are cocycles, constant transitions of +-1.7e308 on every
        # arc, but their difference overflows to -inf in the angle layer
        cover = build_minus_one_gerbe(12).cover

        def constant_transition(value):
            functions = {
                (i,): Cochain(0, {v: value for v in cover.overlap((i,)).cells(0)})
                for i in range(len(cover.sets))
            }
            part = BigradedCochain(0, 1, functions, angle_valued=True)
            return GerbeDatum(-1, TotalCochain(1, {(0, 1): part}), cover)

        first, second = constant_transition(1.7e308), constant_transition(-1.7e308)
        assert validate_cocycle(first).passed and validate_cocycle(second).passed
        with pytest.raises(NumericError, match="not finite"):
            gauge_equivalent(first, second)

    @pytest.mark.parametrize("g", [2.0**20, 2.0**27, 2.0**30, 2.0**40, 1.2345e8, 1.2345e9])
    def test_large_gauge_shift_at_the_pole_is_accepted(self, g):
        # the walk is exact: the witness is g at the pole, where a least-squares
        # solve left an error of about machine epsilon times g
        datum = build_monopole(12)
        shifted = pole_shift(datum, g)
        assert validate_cocycle(shifted).passed
        result = gauge_equivalent(datum, shifted)
        assert result.equivalent
        rows = _LayerBasis(datum.cover, 2)
        angle = list(rows.positions[0, 2])
        residual = coordinates(rows, big_d(result.witness.data, datum.cover)) - (
            shifted._vector - datum._vector
        )
        residual[angle] = [wrap(v) for v in residual[angle]]
        assert np.max(np.abs(residual)) <= DEFAULT_EQUIVALENCE_TOL

    @pytest.mark.parametrize(
        "g",
        # b is g on the 12 pole edges: g^2 = max / 13 leaves no headroom for
        # a sum of squares, and |b|^2 itself overflows at g = 2**520
        [math.sqrt(sys.float_info.max / 13), 2.0**520],
        ids=["sqrt_max_over_13", "2**520"],
    )
    def test_huge_pole_shift_is_accepted_at_residual_zero(self, g):
        # the descent forms no norm: the walk takes these shifts exactly
        datum = build_monopole(12)
        shifted = pole_shift(datum, g)
        assert validate_cocycle(shifted).passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gauge_equivalent(datum, shifted)
        assert result.equivalent and result.residual == 0.0

    @pytest.mark.parametrize("g", [2.0**300, 2.0**520, 1e300], ids=["2**300", "2**520", "1e300"])
    def test_huge_level_one_shift_is_accepted_exactly(self, g):
        # build_gerbopole(6) shifted by a (1, 1) potential of g on five edges of
        # set 0: the peel solves d eta = omega exactly in degree 1 too
        datum = build_gerbopole(6)
        edges = datum.cover.overlap((0,)).cells(1)[:5]
        part = BigradedCochain(1, 1, {(0,): Cochain(1, dict.fromkeys(edges, g))})
        shifted = gauge_shift(datum, GaugePotential(TotalCochain(2, {(1, 1): part})))
        assert validate_cocycle(shifted).passed
        result = gauge_equivalent(datum, shifted)
        assert result.equivalent and result.residual == 0.0
        rows = _LayerBasis(datum.cover, 3)
        angle = list(rows.positions[0, 3])
        residual = coordinates(rows, big_d(result.witness.data, datum.cover)) - (
            shifted._vector - datum._vector
        )
        residual[angle] = [wrap(v) for v in residual[angle]]
        assert np.max(np.abs(residual)) == 0.0

    @pytest.mark.parametrize(
        "build", [build_minus_one_gerbe, build_monopole, build_gerbopole],
        ids=["minus1", "monopole", "gerbopole"],
    )
    def test_invariant_under_2pi_shifts_of_transition_values(self, build):
        # D is linear, so the shifts reach the residual and the difference as
        # multiples of 2*pi, which the wrapped rows absorb
        datum = build(12)
        k = datum.level + 2
        layer = datum.transition_layer
        turned = {
            t: Cochain(
                0, {c: v + TWO_PI * (i % 5 - 2) for i, (c, v) in enumerate(comp.values.items())}
            )
            for t, comp in layer.components.items()
        }
        parts = {**datum.data.parts, (0, k): BigradedCochain(0, k, turned, angle_valued=True)}
        shifted = GerbeDatum(datum.level, TotalCochain(k, parts), datum.cover)
        assert validate_cocycle(shifted, 1e-12).passed
        for result in (gauge_equivalent(datum, shifted), gauge_equivalent(shifted, datum)):
            assert result.equivalent
            assert result.residual < 1e-12
            assert result.witness.data.sup_norm() < 1e-12

    @pytest.mark.parametrize("name", ["zeros-left-out", "shift-to-zero"])
    def test_absent_transition_values_mean_zero(self, name):
        datum, sparse = sparse_transition_monopoles()
        report = validate_cocycle(sparse[name], 0.0)
        assert report.passed and report.max_residual() == 0.0
        result = gauge_equivalent(datum, sparse[name])
        assert result.equivalent
        assert result.residual < 1e-12

    def test_level_mismatch_rejected(self):
        datum = build_monopole(6)
        with pytest.raises(InvalidInputError):
            gauge_equivalent(datum, build_trivial(datum.cover, 1))

    def test_invalid_cocycle_rejected(self):
        datum = build_monopole(6)
        parts = dict(datum.data.parts)
        comp = dict(parts[(0, 2)].components[(0, 1)].values)
        comp[(0,)] += 0.5
        parts[(0, 2)] = BigradedCochain(
            0, 2, {(0, 1): Cochain(0, comp)}, angle_valued=True
        )
        broken = GerbeDatum(0, TotalCochain(2, parts), datum.cover)
        with pytest.raises(InvalidInputError):
            gauge_equivalent(datum, broken)


def moved_connection(datum, by):
    """The datum with one value of its (1, k - 1) connection layer moved by ``by``."""
    k = datum.level + 2
    layer = datum.data.part(1, k - 1)
    t, comp = next(iter(layer.components.items()))
    cell = next(iter(comp.values))
    components = {**layer.components, t: Cochain(1, {**comp.values, cell: comp.values[cell] + by})}
    parts = {**datum.data.parts, (1, k - 1): BigradedCochain(1, k - 1, components)}
    return GerbeDatum(datum.level, TotalCochain(k, parts), datum.cover)


def unsummarised(datum):
    """A copy of the datum that keeps no residual maxima or peaks yet."""
    copy = object.__new__(GerbeDatum)
    vars(copy).update(vars(datum), _maxima=None, _peaks=None)
    return copy


class TestResidualSummary:
    """A datum keeps its residual's maxima and peaks; each call reads them with its own tol."""

    @pytest.mark.parametrize("build", [build_monopole, build_gerbopole], ids=["monopole", "gerbopole"])
    def test_a_passing_report_at_a_loose_tol_passes_nothing_on(self, build):
        datum, other = moved_connection(build(12), 1e-6), build(12)
        report = validate_cocycle(datum, 1.0)
        assert report.passed and 1e-7 < report.max_residual() < 1e-5
        assert not validate_cocycle(datum, 1e-12).passed
        with pytest.raises(InvalidInputError, match="^first datum is not a cocycle at tolerance 1e-12$"):
            gauge_equivalent(datum, other, 1e-12)
        with pytest.raises(InvalidInputError, match="^second datum is not a cocycle at tolerance 1e-12$"):
            gauge_equivalent(other, datum, 1e-12)
        assert gauge_equivalent(datum, datum, 1.0).equivalent

    @pytest.mark.parametrize("build", [build_monopole, build_gerbopole], ids=["monopole", "gerbopole"])
    def test_a_shift_summarises_its_own_residual(self, build):
        # the parent's report is read first, so a shift that kept its summary would repeat it
        datum = moved_connection(build(12), 1e-3)
        before = validate_cocycle(datum)
        for seed in range(3):
            potential = random_gauge_potential(datum.cover, datum.level + 1, Lcg64(seed), amplitude=0.5)
            shifted = gauge_shift(datum, potential)
            report = validate_cocycle(shifted)
            assert report == validate_cocycle(unsummarised(shifted))
            assert report != before
        assert validate_cocycle(datum) == before

    def test_a_report_is_a_copy_of_the_summary(self):
        datum = moved_connection(build_monopole(12), 1e-6)
        report = validate_cocycle(datum)
        report.residuals.clear()
        assert validate_cocycle(datum) == validate_cocycle(unsummarised(datum))
        assert validate_cocycle(datum).residuals

    @pytest.mark.parametrize("build", [build_monopole, build_gerbopole], ids=["monopole", "gerbopole"])
    def test_equivalence_keeps_the_maxima_and_finds_no_peaks(self, build):
        datum, other = moved_connection(build(12), 1e-6), build(12)
        with pytest.raises(InvalidInputError):
            gauge_equivalent(datum, other, 1e-12)
        assert datum._maxima is not None and datum._peaks is None
        assert validate_cocycle(datum) == validate_cocycle(unsummarised(datum))
        assert datum._peaks is not None


def eager_witness(first, second):
    """The witness of ``gauge_equivalent(first, second)`` decoded from the
    coordinates of a descent run here."""
    cover, k = first.cover, first.level + 2
    b = second._vector - first._vector
    span = bicomplex._basis(cover, k).positions[0, k]
    b[span.start : span.stop] = bicomplex._wrapped(b[span.start : span.stop])
    cols = bicomplex._basis(cover, k - 1)
    # at level -1 a potential, having no global part, is empty
    return cols.total_of(_descent(cover, k, b) if k > 1 else np.zeros(cols.size))


class TestWitness:
    """An accepted result's witness is the descent's coordinates decoded by ``total_of``."""

    CASES = (
        [("monopole", m) for m in (12, 24, 48, 96)]
        + [("gerbopole", m) for m in (12, 24)]
        + [("minus1", m) for m in (12, 24)]
        + [("torus star", 12)]
    )

    @staticmethod
    def datum(name, m):
        if name == "torus star":
            return GerbeDatum.zero(closed_star_cover(torus_grid(m)), 0)
        return {"monopole": build_monopole, "gerbopole": build_gerbopole, "minus1": build_minus_one_gerbe}[name](m)

    @pytest.mark.parametrize("name, m", CASES)
    def test_is_the_decoded_descent(self, name, m):
        datum = self.datum(name, m)
        potential = random_gauge_potential(datum.cover, datum.level + 1, Lcg64(m), amplitude=0.5)
        shifted = gauge_shift(datum, potential)
        result = gauge_equivalent(datum, shifted)
        assert result.equivalent and result.witness.data == eager_witness(datum, shifted)

    def test_equality_and_repr(self):
        datum = build_monopole(24)
        shifted = gauge_shift(datum, random_gauge_potential(datum.cover, 1, Lcg64(2), amplitude=0.5))
        first, second = gauge_equivalent(datum, shifted), gauge_equivalent(datum, shifted)
        eager = EquivalenceResult(True, first.residual, GaugePotential(eager_witness(datum, shifted)))
        assert first == second == eager
        assert repr(first) == repr(eager)
        assert first != gauge_equivalent(shifted, datum)
        assert first.witness != GaugePotential(TotalCochain.zero(1))
        with pytest.raises(FrozenInstanceError):
            first.witness.data = TotalCochain.zero(1)


class TestTorusStarCovers:
    """The closed-star covers of the n-by-n torus grids, where H^1 is not zero:
    the walk meets closed 1-forms that are not exact."""

    @pytest.fixture(scope="class", params=[6, 12], ids=["torus-6", "torus-12"])
    def zero(self, request):
        return GerbeDatum.zero(closed_star_cover(torus_grid(request.param)), 0)

    def test_small_gauge_shifts_are_equivalent(self, zero):
        # omega is exact on these shifts, so it integrates consistently around
        # every edge off the spanning forest
        for seed in range(3):
            potential = random_gauge_potential(zero.cover, 1, Lcg64(seed), amplitude=0.5)
            shifted = gauge_shift(zero, potential)
            result = gauge_equivalent(zero, shifted)
            assert result.equivalent and result.residual <= 1e-12
            residual = big_d(result.witness.data, zero.cover) - shifted.data
            assert residual.sup_norm() <= 1e-12

    def test_a_winding_shift_is_not_found(self, zero):
        # the potential 2 pi i_w / n at vertex w of the star of v, with row i_w
        # lifted next to the row of v: a gauge shift, whose wrapped difference
        # leaves a closed 1-form with period 2 pi around the torus
        cover = zero.cover
        n = math.isqrt(cover.complex.vertex_count)
        components = {}
        for v in range(n * n):
            lifted = {}
            for (w,) in cover.overlap((v,)).cells(0):
                row = w // n
                lifted[(w,)] = TWO_PI * (row + n * round((v // n - row) / n)) / n
            components[(v,)] = Cochain(0, lifted)
        potential = GaugePotential(TotalCochain(1, {(0, 1): BigradedCochain(0, 1, components)}))
        shifted = gauge_shift(zero, potential)
        assert validate_cocycle(shifted).passed
        assert charge(shifted) == pytest.approx(0.0, abs=1e-12)
        assert not gauge_equivalent(zero, shifted).equivalent


class TestTwoSpheres:
    """The closed-star cover of two disjoint two-cone spheres, vertices 0-13 and
    14-27: the level-0 walk starts a tree at the lowest vertex of each sphere."""

    @pytest.fixture(scope="class")
    def zero(self):
        triangles = two_cone_sphere(6).cells(2)
        both = triangles + tuple(tuple(v + 14 for v in t) for t in triangles)
        return GerbeDatum.zero(closed_star_cover(SimplicialComplex.from_top_cells(28, both)), 0)

    def test_small_gauge_shifts_are_equivalent(self, zero):
        for seed in range(3):
            potential = random_gauge_potential(zero.cover, 1, Lcg64(seed), amplitude=0.5)
            result = gauge_equivalent(zero, gauge_shift(zero, potential))
            assert result.equivalent and result.residual <= 1e-12

    def test_charge_is_refused(self, zero):
        with pytest.raises(StructuralError, match="top cells are not connected"):
            charge(zero)


class TestHigherGaugeShift:
    def _global_one_form(self, datum, seed):
        rng = Lcg64(seed)
        vals = {e: rng.uniform(-1, 1) for e in datum.cover.complex.cells(1)}
        b = Cochain(1, vals)
        return b, TotalCochain(1, {(1, 0): BigradedCochain(1, 0, {(): b})})

    def test_zero_top_part_reduces_to_gauge_shift(self):
        datum = build_monopole(6)
        pot = random_gauge_potential(datum.cover, 1, Lcg64(3))
        assert higher_gauge_shift(datum, pot.data).data == gauge_shift(datum, pot).data

    def test_curvature_moves_by_exact_derivative(self):
        datum = build_monopole(12)
        b, full = self._global_one_form(datum, 7)
        shifted = higher_gauge_shift(datum, full)
        assert validate_cocycle(shifted).passed
        diff = curvature(shifted) - curvature(datum)
        db = exterior_derivative(b, datum.cover.complex)
        assert (diff - db).sup_norm() < 1e-10

    def test_charge_preserved_on_closed_manifold(self):
        datum = build_monopole(12)
        _, full = self._global_one_form(datum, 19)
        shifted = higher_gauge_shift(datum, full)
        assert charge(shifted) == pytest.approx(charge(datum), abs=1e-10)

    def test_degree_mismatch_rejected(self):
        datum = build_monopole(6)
        with pytest.raises(InvalidInputError):
            higher_gauge_shift(datum, TotalCochain.zero(2))


class TestCoboundaryMatrix:
    """The sparse D of the equivalence solve against big_d as the reference."""

    # name -> (cover, level), given the icosahedron fixture; the closed-star
    # cover's nerve goes six sets deep, and at level 2 the delta rows read
    # parent overlaps of up to three sets
    DATA = {
        "level-1": lambda ico: (build_minus_one_gerbe(12).cover, -1),
        "level0": lambda ico: (build_monopole(12).cover, 0),
        "level1": lambda ico: (build_gerbopole(6).cover, 1),
        "icosahedron-stars": lambda ico: (closed_star_cover(ico), 2),
    }

    @pytest.mark.parametrize("name", list(DATA))
    @pytest.mark.parametrize("omit_top_form", [False, True])
    def test_matches_big_d_on_random_vectors(self, name, omit_top_form, icosahedron):
        # omit_top_form: the solve's columns, without the global (k-1, 0) block
        cover, level = self.DATA[name](icosahedron)
        k = level + 2
        cols, rows = _LayerBasis(cover, k - 1), _LayerBasis(cover, k)
        omitted = len(cols.positions[k - 1, 0]) if omit_top_form else 0
        matrix = without_leading_columns(_coboundary_matrix(cover, k - 1), omitted)
        assert matrix.shape == (rows.size, cols.size - omitted)
        assert np.all(np.abs(matrix.signs) == 1.0)
        assert len(set(zip(matrix.rows.tolist(), matrix.cols.tolist()))) == len(matrix.signs)
        rng = Lcg64(53 + k)

        def padded(x):
            return np.concatenate([np.zeros(omitted), x])

        for _ in range(3):
            x = np.array([rng.uniform(-1.0, 1.0) for _ in range(matrix.shape[1])])
            expected = coordinates(rows, big_d(cols.total_of(padded(x)), cover))
            # both sum the nonzeros of one walk in the same order
            np.testing.assert_array_equal(matrix.apply(x), expected)
        # an angle-valued (0, k-1) part spread over several multiples of 2*pi:
        # big_d stays linear on it, as the matrix is
        x = padded(np.array([rng.uniform(-1.0, 1.0) for _ in range(matrix.shape[1])]))
        angle = [i for i in cols.positions.get((0, k - 1), ()) if i >= omitted]
        x[angle] += [TWO_PI * rng.randint(-3, 3) for _ in angle]
        parts = dict(cols.total_of(x).parts)
        if angle:
            angles = parts[0, k - 1].components
            parts[0, k - 1] = BigradedCochain(0, k - 1, angles, angle_valued=True)
        expected = coordinates(rows, big_d(TotalCochain(k - 1, parts), cover))
        np.testing.assert_array_equal(matrix.apply(x[omitted:]), expected)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_global_d_is_the_plain_d_and_d_holds_its_minus(self, q):
        # D's global block against -d: the minus of D = delta - dbar is the
        # assembler's alone, and the equivalence solve's walk reads the plain d
        cover = build_gerbopole(6).cover
        complex, rng = cover.complex, Lcg64(61 + q)
        c = Cochain(q, {cell: rng.uniform(-1.0, 1.0) for cell in complex.cells(q)})
        expected = exterior_derivative(c, complex).values
        plain = np.array([expected.get(cell, 0.0) for cell in complex.cells(q + 1)])
        cols, rows = _LayerBasis(cover, q), _LayerBasis(cover, q + 1)
        padded = np.zeros(cols.size)
        padded[cols.positions[q, 0].start : cols.positions[q, 0].stop] = list(c.values.values())
        span = rows.positions[q + 1, 0]
        image = _coboundary_matrix(cover, q).apply(padded)
        np.testing.assert_array_equal(image[span.start : span.stop], -plain)


def _selfcheck_covers():
    rng = Lcg64(42)  # the covers of ``gerbecalc selfcheck --seed 42``, in its order
    return [random_complex_and_cover(rng)[1] for _ in range(25)]


# name -> (covers, the degrees checked), given the icosahedron; every degree's
# Cech degrees reach past each cover's nerve, so empty layers are covered too
BLOCK_COVERS = {
    "builders": lambda ico: [
        (build(m).cover, None)
        for build, m in ((build_minus_one_gerbe, 12), (build_monopole, 12), (build_gerbopole, 6))
    ],
    "equator pair": lambda ico: [(datum.cover, None) for datum in gerbopole_equator_pair(6)],
    "icosahedron stars": lambda ico: [(closed_star_cover(ico), None)],
    "torus 6x6 stars": lambda ico: [(closed_star_cover(torus_grid(6)), None)],
    # 25 stars meet at each pole: degrees above 3 reach layers of tens of thousands
    "two-cone 24 stars": lambda ico: [(closed_star_cover(two_cone_sphere(24)), range(4))],
    "selfcheck seed 42": lambda ico: [(cover, None) for cover in _selfcheck_covers()],
}


class TestLayerBasis:
    """Flat coordinates: one block per overlap, cells in ``cells(p)`` order."""

    @pytest.mark.parametrize("name", list(BLOCK_COVERS))
    def test_blocks_and_lowest_sets_follow_set_membership(self, icosahedron, name):
        # block (p, n) holds exactly the pairs (t, cell), in order, with t an
        # n-subset of the sets that hold the cell; K reads each coordinate
        # (s, cell) at (j,) + s, j the lowest of those sets, unless s starts at j
        for cover, degrees in BLOCK_COVERS[name](icosahedron):
            top = cover.complex.top_dimension
            holding = {
                cell: [i for i, members in enumerate(cover.sets) if members.issuperset(cell)]
                for p in range(top + 1)
                for cell in cover.complex.cells(p)
            }
            for k in degrees or range(top + 3):
                basis = _LayerBasis(cover, k)
                for (p, n), span in basis.positions.items():
                    cells = cover.complex.cells(p)
                    ids = zip(basis.tuple_ids[p, n].tolist(), basis.cell_ids[p, n].tolist())
                    found = [(basis.tuples[n][t], cells[c]) for t, c in ids]
                    expected = [(t, c) for c in cells for t in itertools.combinations(holding[c], n)]
                    assert found == sorted(expected), (name, k, p, n)
                rows, cols = bicomplex._basis(cover, k - 1), bicomplex._basis(cover, k)
                read = {}
                K = bicomplex._contraction(cover, k)
                for r, c in zip(K.rows.tolist(), K.cols.tolist()):
                    p, n, t, cell = cols.entry(c)
                    assert t[0] == min(holding[cell]), (name, k, t, cell)
                    assert rows.entry(r) == (p, n - 1, t[1:], cell)
                    read[r] = read.get(r, 0) + 1
                targets = map(rows.entry, range(rows.size))
                reading = [r for r, (_, _, s, cell) in enumerate(targets) if s[:1] != (min(holding[cell]),)]
                assert read == dict.fromkeys(reading, 1), (name, k)

    @pytest.mark.parametrize("omit_top_form", [False, True])
    def test_round_trip(self, icosahedron, omit_top_form):
        # omit_top_form: a potential's data, whose global block stays zero
        cover = closed_star_cover(icosahedron)
        for k in range(1, 5):
            basis = _LayerBasis(cover, k)
            if omit_top_form:
                x = random_gauge_potential(cover, k, Lcg64(61 + k)).data
            else:
                x = random_total(cover, k, Lcg64(61 + k))
            vec = coordinates(basis, x)
            omitted = len(basis.positions[k, 0]) if omit_top_form else 0
            assert not vec[:omitted].any()
            assert np.count_nonzero(vec) == basis.size - omitted
            assert basis.total_of(vec) == x

    def test_blocks_follow_the_layers(self, icosahedron):
        cover = closed_star_cover(icosahedron)
        basis, overlap = _LayerBasis(cover, 3), functools.cache(cover.overlap)
        for j in range(basis.size):
            p, n, t, cell = basis.entry(j)
            assert j in basis.positions[p, n]
            # overlap t's block starts at the first coordinate of its tuple index
            first = np.searchsorted(basis.tuple_ids[p, n], basis.index[t])
            start = basis.positions[p, n].start + int(first)
            assert j == start + overlap(t).cells(p).index(cell)
            assert basis.index[t] == cover._layer_arrays(n).tuples.index(t)
        for key, span in basis.positions.items():
            # sorted by (tuple index, cell id), the order the assembler searches
            keys = list(zip(basis.tuple_ids[key].tolist(), basis.cell_ids[key].tolist()))
            assert keys == sorted(set(keys)) and len(keys) == len(span)
            assert np.all(np.diff(basis.keys[key]) > 0)
            found = basis.find(*key, basis.tuple_ids[key], basis.cell_ids[key])
            assert found.tolist() == list(span)

    @pytest.mark.parametrize(
        "part, message",
        [
            # stars of opposite vertices 0 and 11 do not meet: (0, 11) is outside the nerve
            (BigradedCochain(0, 2, {(0, 11): Cochain(0, {(0,): 1.0})}), "spills outside"),
            # vertex 11 lies outside the overlap of the stars of 0 and 1
            (BigradedCochain(0, 2, {(0, 1): Cochain(0, {(11,): 1.0})}), "spills outside"),
            # the global top-form part lies outside a potential's coordinates
            (BigradedCochain(2, 0, {(): Cochain(2, {(0, 1, 2): 1.0})}), "no global form part"),
        ],
        ids=["tuple-outside-nerve", "cell-outside-overlap", "omitted-top-form"],
    )
    def test_value_outside_the_basis_raises(self, icosahedron, part, message):
        # values reach the basis only through vector, as in big_d and GerbeDatum
        cover = closed_star_cover(icosahedron)
        assert (0, 11) not in cover._layer_arrays(2).tuples
        basis = _LayerBasis(cover, 2)
        total = TotalCochain(2, {(part.form_degree, part.cech_degree): part})
        with pytest.raises(InvalidInputError, match=message):
            GaugePotential(basis.total_of(coordinates(basis, total)))

    @pytest.mark.parametrize(
        "components, named",
        [
            # two cells outside the overlap of the stars of 0 and 1, {0, 1, 2, 5}
            ({(0, 1): {(0,): 1.0, (11,): 1.0, (10,): 1.0}}, r"\(0, 1\) spills .* at \(11,\)"),
            ({(0, 1): {(10,): 1.0, (0,): 1.0, (11,): 1.0}}, r"\(0, 1\) spills .* at \(10,\)"),
            # a tuple outside the nerve, and a cell outside a tuple's overlap
            ({(0, 11): {(0,): 1.0}, (0, 1): {(11,): 1.0}}, r"\(0, 11\) spills .* at \(0,\)"),
            ({(0, 1): {(11,): 1.0}, (0, 11): {(0,): 1.0}}, r"\(0, 1\) spills .* at \(11,\)"),
            # a tuple past the last set, with or without values, after a spill
            ({(0, 1): {(11,): 1.0}, (0, 12): {}}, r"\(0, 1\) spills .* at \(11,\)"),
            ({(0, 12): {}, (0, 1): {(11,): 1.0}}, r"\(0, 12\) does not fit 12 sets"),
        ],
        ids=["cells", "cells-reordered", "tuple-first", "cell-first", "spill-first", "fit-first"],
    )
    def test_two_faults_name_the_first_in_input_order(self, icosahedron, components, named):
        cover = closed_star_cover(icosahedron)
        part = BigradedCochain(
            0, 2, {t: Cochain(0, values) for t, values in components.items()}
        )
        with pytest.raises(InvalidInputError, match=named):
            _LayerBasis(cover, 2).vector([(0, 2, *_flat(part, cover.complex))])

    def test_a_part_that_needs_more_sets_than_the_cover_has_is_refused(self):
        # the monopole's cover has two sets, and a (0, 3) part needs three
        cover = build_monopole(6).cover
        part = BigradedCochain(0, 3, {(0, 1, 2): Cochain(0, {(0,): 1.0})}, angle_valued=True)
        message = r"^part at \(0,3\) needs 3 cover sets, cover has 2$"
        with pytest.raises(InvalidInputError, match=message):
            _LayerBasis(cover, 3).vector([(0, 3, *_flat(part, cover.complex))])
        with pytest.raises(InvalidInputError, match=message):
            GerbeDatum(1, TotalCochain(3, {(0, 3): part}), cover)

    def test_place_and_vector_keep_the_input_order(self, icosahedron):
        cover = closed_star_cover(icosahedron)
        basis = _LayerBasis(cover, 2)
        comps = {(1, 5): {(6,): 0.5, (0,): -0.0}, (0, 1): {(5,): 2.0, (11,): 1.0}}
        part = BigradedCochain(0, 2, {t: Cochain(0, v) for t, v in comps.items()})
        with pytest.raises(InvalidInputError, match=r"\(0, 1\) spills .* at \(11,\)"):
            basis.place(0, 2, *_flat(part, cover.complex)[:-1])
        del comps[0, 1][11,]
        part = BigradedCochain(0, 2, {t: Cochain(0, v) for t, v in comps.items()})
        *flat, values = _flat(part, cover.complex)
        at = basis.place(0, 2, *flat)
        vec = basis.vector([(0, 2, *flat, values)])
        first = basis.positions[0, 2].start
        tuple_ids = basis.tuple_ids[0, 2]
        expected = [
            first
            + int(np.searchsorted(tuple_ids, basis.index[t]))
            + cover.overlap(t).cells(0).index(cell)
            for t, comp in comps.items()
            for cell in comp
        ]
        assert at.tolist() == expected
        assert values.tolist() == [0.5, -0.0, 2.0]
        assert math.copysign(1.0, values[1]) == -1.0
        # vector puts each value at its coordinate, the -0.0 with its sign
        assert vec[at].tolist() == [0.5, -0.0, 2.0] and np.count_nonzero(vec) == 2
        assert math.copysign(1.0, vec[at[1]]) == -1.0


class TestResidualAgainstIndependentReference:
    """validate_cocycle against D(datum) summed from the references of
    TestIndependentReferences: restrictions for delta, the twisted exterior
    derivative for dbar."""

    BUILDS = {
        "minus1": lambda: build_minus_one_gerbe(12),
        "monopole": lambda: build_monopole(12),
        "gerbopole": lambda: build_gerbopole(6),
    }

    @staticmethod
    def reference_residuals(datum):
        k, cover = datum.level + 2, datum.cover
        rows = {}
        for (p, n), part in datum.data.parts.items():
            for key, comps, sign in (
                ((p, n + 1), reference_delta(part, cover), 1.0),
                ((p + 1, n), reference_dbar(part, cover), -1.0),
            ):
                row = rows.setdefault(key, {})
                for t, comp in comps.items():
                    row[t] = row.get(t, Cochain.zero(key[0])) + comp.scaled(sign)
        residuals = {}
        for key, row in rows.items():
            values = [v for comp in row.values() for v in comp.values.values()]
            if not values:
                continue
            if key in ((0, k + 1), (1, k)):
                values = [wrap(v) for v in values]
            residuals[key] = max((abs(v) for v in values), default=0.0)
        return residuals

    def shifted(self, name):
        datum = self.BUILDS[name]()
        rng = Lcg64(sum(map(ord, name)))
        return higher_gauge_shift(datum, random_total(datum.cover, datum.level + 1, rng, 0.5))

    def check_against_reference(self, datum):
        report, expected = validate_cocycle(datum), self.reference_residuals(datum)
        assert set(expected) <= set(report.residuals)
        for key, value in report.residuals.items():
            assert abs(value - expected.get(key, 0.0)) <= 1e-12, key
        failing = {key for key, value in expected.items() if value > report.tolerance}
        assert report.passed == (not failing)
        reported = {key for key, value in report.residuals.items() if value > report.tolerance}
        assert reported == failing
        return report, failing

    @pytest.mark.parametrize("name", list(BUILDS))
    def test_shifted_datum_passes_with_the_reference_residuals(self, name):
        report, _ = self.check_against_reference(self.shifted(name))
        assert report.passed

    @pytest.mark.parametrize("name", list(BUILDS))
    def test_moved_connection_value_fails_at_the_reference_bidegrees(self, name):
        datum = self.shifted(name)
        k = datum.level + 2
        part = datum.data.part(1, k - 1)
        t, comp = next(iter(part.components.items()))
        cell = next(iter(comp.values))
        moved = Cochain(1, {**comp.values, cell: comp.values[cell] + 0.1})
        layer = BigradedCochain(1, k - 1, {**part.components, t: moved})
        parts = {**datum.data.parts, (1, k - 1): layer}
        report, failing = self.check_against_reference(
            GerbeDatum(datum.level, TotalCochain(k, parts), datum.cover)
        )
        assert not report.passed
        assert report.worst[0].bidegree in failing
        assert report.worst[0].magnitude == pytest.approx(0.1, abs=1e-12)


class TestDataAsCoordinates:
    """A datum keeps its coordinates; a shift adds D of the potential to them,
    and ``data`` decodes them into the dict sum the public API gives."""

    BUILDS = {
        "minus1": lambda: build_minus_one_gerbe(12),
        "monopole": lambda: build_monopole(12),
        "monopole-winding-1": lambda: build_monopole(12, -1),
        "gerbopole": lambda: build_gerbopole(6),
        "icosahedron-stars": lambda: GerbeDatum.zero(
            closed_star_cover(
                SimplicialComplex.from_top_cells(12, ICOSAHEDRON_FACES, closed_manifold=True)
            ),
            0,
        ),
    }

    @staticmethod
    def dict_sum(datum, shift):
        """``datum.data`` plus the image of the shift, through the dict operators:
        D(shift) with an empty angle-valued (0, k) part, which flags the image's
        transition layer also where the datum has none.  The flag joins D(shift)
        first; added to the datum first, it would fall away with an empty part."""
        k = datum.level + 2
        flag = TotalCochain(k, {(0, k): BigradedCochain.zero(0, k, True)})
        return datum.data + (flag + big_d(shift, datum.cover))

    @staticmethod
    def saved(tmp_path, name, datum):
        path = tmp_path / f"{name}.json"
        save_datum(path, datum)
        return path.read_bytes()

    @staticmethod
    def stored_zeros(datum):
        return [
            (key, t, cell, math.copysign(1.0, v))
            for key, part in datum.data.parts.items()
            for t, comp in part.components.items()
            for cell, v in comp.values.items()
            if v == 0.0
        ]

    def test_builders_store_zeros(self):
        # the monopole's transition is winding * longitude, 0.0 or -0.0 at longitude 0
        assert [z[3] for z in self.stored_zeros(build_monopole(12))] == [1.0, 1.0]
        assert [z[3] for z in self.stored_zeros(build_monopole(12, -1))] == [-1.0, -1.0]

    @pytest.mark.parametrize("name", list(BUILDS))
    @pytest.mark.parametrize("amplitude", [0.5, 3.0])
    def test_shifted_data_is_the_dict_sum(self, tmp_path, name, amplitude):
        datum = self.BUILDS[name]()
        rng = Lcg64(sum(map(ord, name)) + int(amplitude))
        potential = random_gauge_potential(datum.cover, datum.level + 1, rng, amplitude)
        shifted = gauge_shift(datum, potential)
        expected = self.dict_sum(datum, potential.data)
        by_dicts = GerbeDatum(datum.level, expected, datum.cover)
        assert shifted.data == expected and shifted == by_dicts
        assert self.stored_zeros(shifted) == self.stored_zeros(by_dicts)
        assert self.saved(tmp_path, "shifted", shifted) == self.saved(tmp_path, "dicts", by_dicts)
        # a second shift starts from coordinates that were never decoded
        again = random_gauge_potential(datum.cover, datum.level + 1, rng, 0.5)
        twice = gauge_shift(gauge_shift(datum, potential), again)
        assert twice.data == self.dict_sum(by_dicts, again.data)

    @pytest.mark.parametrize("vertex", [13, 12], ids=["elsewhere", "on-the-zero"])
    def test_stored_negative_zeros_keep_their_sign_until_reached(self, tmp_path, vertex):
        # the band vertices 0 and 12 hold -0.0; a potential on set 0 at one
        # band vertex moves the transition there only
        datum = build_monopole(12, -1)
        comps = {(0,): Cochain(0, {(vertex,): 0.25})}
        shift = TotalCochain(1, {(0, 1): BigradedCochain(0, 1, comps)})
        shifted = higher_gauge_shift(datum, shift)
        by_dicts = GerbeDatum(0, self.dict_sum(datum, shift), datum.cover)
        assert shifted == by_dicts
        zeros = self.stored_zeros(shifted)
        assert zeros == self.stored_zeros(by_dicts)
        assert [z[2] for z in zeros] == ([(0,), (12,)] if vertex == 13 else [(0,)])
        assert self.saved(tmp_path, "a", shifted) == self.saved(tmp_path, "b", by_dicts)

    def test_empty_parts_and_components_follow_the_dict_sum(self):
        datum = build_monopole(12)
        k, cover = 2, datum.cover
        empty = {
            # an empty transition layer, an empty global part, and empty components
            # inside and outside the shift's reach
            (0, 2): BigradedCochain(0, 2, {}, angle_valued=True),
            (2, 0): BigradedCochain.zero(2, 0),
            (1, 1): BigradedCochain(1, 1, {(0,): Cochain.zero(1), (1,): Cochain.zero(1)}),
        }
        bare = GerbeDatum(0, TotalCochain(k, empty), cover)
        # a potential on set i at one band vertex reaches component (i,) of the
        # (1, 1) part and leaves the other without values
        shifts = [
            TotalCochain(1, {(0, 1): BigradedCochain(0, 1, {(i,): Cochain(0, {(v,): 0.5})})})
            for i, v in ((0, 12), (1, 13))
        ]
        for shift in shifts + [TotalCochain.zero(1)]:
            shifted = higher_gauge_shift(bare, shift)
            assert shifted.data == self.dict_sum(bare, shift)
            assert shifted.data.parts.keys() == self.dict_sum(bare, shift).parts.keys()

    def test_a_value_that_cancels_is_dropped(self):
        datum = build_monopole(12)
        phi = datum.transition_layer.components[(0, 1)].values
        comps = {(0,): Cochain(0, {(1,): phi[(1,)]})}
        shift = TotalCochain(1, {(0, 1): BigradedCochain(0, 1, comps)})
        shifted = higher_gauge_shift(datum, shift)
        assert shifted.data == self.dict_sum(datum, shift)
        assert (1,) not in shifted.transition_layer.components[(0, 1)].values

    def test_a_long_chain_of_shifts_decodes_at_the_default_recursion_limit(self, tmp_path):
        # 1,500 shifts are decoded in one loop, past the depth a recursion
        # through each parent's data would reach; the digest pins the bytes
        # apart from the dict sum that defines them
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            datum, rng = build_monopole(12, -1), Lcg64(20)
            for _ in range(1500):
                potential = random_gauge_potential(datum.cover, 1, rng, amplitude=0.5)
                datum = gauge_shift(datum, potential)
            assert validate_cocycle(datum).passed
            digest = hashlib.sha256(self.saved(tmp_path, "chain", datum)).hexdigest()
        finally:
            sys.setrecursionlimit(limit)
        assert digest == "5d27e0d8b07342b893b4d20bb33da8b640b3c11b87b7e72dd6dea9323b84a546"

    # the BUILDS builders as (builder, m, sign of the winding)
    WOUND = {
        "minus1": (build_minus_one_gerbe, 12, 1),
        "monopole": (build_monopole, 12, 1),
        "monopole-winding-1": (build_monopole, 12, -1),
        "gerbopole": (build_gerbopole, 12, 1),  # winding 2 needs m >= 12
    }

    @pytest.mark.parametrize("name", ["minus1", "monopole", "monopole-winding-1", "gerbopole"])
    def test_charge_is_the_integral_of_the_curvature_bit_for_bit(self, name):
        # charge zips the orientation list with the coordinates; the reference
        # pairs the curvature dict with a fresh fundamental_cycle chain
        build, m, sign = self.WOUND[name]
        for winding in (sign, -sign, 2 * sign, -2 * sign):
            datum = build(m, winding)
            rng = Lcg64(sum(map(ord, name)) + winding)
            potential = random_gauge_potential(datum.cover, datum.level + 1, rng, 0.5)
            shifted = higher_gauge_shift(datum, random_total(datum.cover, datum.level + 1, rng, 0.5))
            for d in (datum, gauge_shift(datum, potential), shifted):
                cycle = fundamental_cycle(d.cover.complex)
                expected = integrate(curvature(d), cycle) / TWO_PI
                assert charge(d).hex() == expected.hex()
                assert round(charge(d)) == winding

    def test_zero_datum_shifted_on_a_star_cover_is_equivalent_to_it(self, icosahedron):
        cover = closed_star_cover(icosahedron)
        zero = GerbeDatum.zero(cover, 0)
        assert build_trivial == GerbeDatum.zero
        assert zero == build_trivial(cover, 0) and not zero.data.parts
        potential = random_gauge_potential(cover, 1, Lcg64(97), amplitude=0.5)
        shifted = gauge_shift(zero, potential)
        assert shifted.transition_layer.angle_valued
        assert validate_cocycle(shifted).passed
        result = gauge_equivalent(zero, shifted)
        assert result.equivalent and result.residual < 1e-12

    def test_level_and_total_degree_refusals(self):
        cover = build_monopole(6).cover
        with pytest.raises(InvalidInputError, match="^level must be at least -1$"):
            GerbeDatum(-2, TotalCochain.zero(0), cover)
        with pytest.raises(InvalidInputError, match="^level 0 needs total degree 2, got 3$"):
            GerbeDatum(0, TotalCochain.zero(3), cover)
        # the level is read by the id rule, so a file can always hold it
        for level in (0.0, True, "0"):
            with pytest.raises(InvalidInputError, match=r"^level \(.*,\): ids must be integers$"):
                GerbeDatum(level, TotalCochain.zero(2), cover)
            with pytest.raises(InvalidInputError, match=r"^level \(.*,\): ids must be integers$"):
                GerbeDatum.zero(cover, level)
        assert GerbeDatum.zero(cover, np.int64(0)) == GerbeDatum.zero(cover, 0)

    def test_a_numpy_level_is_kept_as_an_int_and_round_trips(self, tmp_path):
        datum = build_monopole(6)
        numpy_level = GerbeDatum(np.int64(0), datum.data, datum.cover)
        assert type(numpy_level.level) is int and numpy_level == datum
        save_datum(tmp_path / "datum.json", numpy_level)
        save_datum(tmp_path / "plain.json", datum)
        assert (tmp_path / "datum.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert load_datum(tmp_path / "datum.json") == datum

    def test_datum_is_an_immutable_value(self):
        datum = build_monopole(6)
        with pytest.raises(FrozenInstanceError):
            datum.level = 1
        shifted = gauge_shift(datum, GaugePotential(TotalCochain.zero(1)))
        assert shifted == datum and shifted is not datum
        assert datum != GerbeDatum.zero(datum.cover, 0) and datum != datum.data
        assert repr(shifted).startswith("GerbeDatum(level=0, data=TotalCochain(total_degree=2")
        with pytest.raises(TypeError):
            hash(datum)


class TestOneCachedD:
    """D is assembled once per (cover, degree) and kept on the cover."""

    @pytest.fixture
    def assemblies(self, monkeypatch):
        calls = []
        assemble = bicomplex._coboundary_matrix

        def counted(cover, degree, **kwargs):
            calls.append((id(cover), degree))
            return assemble(cover, degree, **kwargs)

        monkeypatch.setattr(bicomplex, "_coboundary_matrix", counted)
        return calls

    def test_shift_validate_and_two_equivalences_assemble_one_d_per_degree(self, assemblies):
        datum = build_monopole(12)
        potential = random_gauge_potential(datum.cover, 1, Lcg64(81), amplitude=0.5)
        shifted = gauge_shift(datum, potential)
        assert validate_cocycle(shifted).passed
        for _ in range(2):
            assert gauge_equivalent(datum, shifted).equivalent
        assert sorted(assemblies) == [(id(datum.cover), 1), (id(datum.cover), 2)]

    def test_an_equal_cover_builds_its_own_d(self, assemblies):
        datum = build_monopole(12)
        cover = datum.cover
        twin = Cover.build(cover.complex, cover.sets)
        assert twin == cover and twin is not cover
        assert validate_cocycle(datum).passed
        assert validate_cocycle(GerbeDatum(0, datum.data, twin)).passed
        assert validate_cocycle(datum).passed
        assert assemblies == [(id(cover), 2), (id(twin), 2)]

    def test_a_dropped_cover_is_freed_without_the_cycle_collector(self):
        # the cover keeps its bases and D; nothing they hold refers back to it
        collecting = gc.isenabled()
        gc.disable()
        try:
            datum = build_monopole(12)
            potential = random_gauge_potential(datum.cover, 1, Lcg64(83), amplitude=0.5)
            shifted = gauge_shift(datum, potential)
            assert validate_cocycle(shifted).passed and charge(shifted) == pytest.approx(1.0)
            assert gauge_equivalent(datum, shifted).equivalent
            assert shifted.data.parts
            dropped = weakref.ref(datum.cover)
            del datum, potential, shifted
            assert dropped() is None
        finally:
            if collecting:
                gc.enable()

    def test_huge_level_trivial_pair_is_equivalent_in_bounded_time(self):
        # blocks of p-cells above the complex's dimension hold no rows, so no
        # loop runs over their p + 1 faces
        cover = build_monopole(6).cover
        level = 10**12
        datum = GerbeDatum(level, TotalCochain(level + 2, {}), cover)
        start = time.perf_counter()
        result = gauge_equivalent(datum, datum)
        assert result.equivalent and result.residual == 0.0
        assert not result.witness.data.parts
        assert time.perf_counter() - start < 5.0


class TestInputRules:
    """Inputs outside a routine's domain raise InvalidInputError, not a bare
    RecursionError or AttributeError."""

    def test_the_walk_refuses_a_negative_degree(self):
        complex = build_monopole(6).cover.complex
        with pytest.raises(InvalidInputError, match="^the walk of d needs a form degree q >= 0, got -1$"):
            complex._order(-1)
        assert complex._order(0)[1] == [0]  # one root: the sphere is connected

    @pytest.mark.parametrize("k", [0, 1])
    def test_the_descent_refuses_a_total_degree_below_two(self, k):
        cover = build_minus_one_gerbe(12).cover
        b = np.zeros(bicomplex._basis(cover, k).size)
        with pytest.raises(InvalidInputError, match=f"^the descent needs a total degree k >= 2, got {k}$"):
            _descent(cover, k, b)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: validate_cocycle("x"), "datum must be a GerbeDatum, got str"),
            (lambda d: charge(None), "datum must be a GerbeDatum, got NoneType"),
            (lambda d: curvature(None), "datum must be a GerbeDatum, got NoneType"),
            (lambda d: gauge_shift(d, "x"), "potential must be a GaugePotential, got str"),
            (lambda d: higher_gauge_shift(d, None), "shift must be a TotalCochain, got NoneType"),
            (lambda d: gauge_equivalent(d, None), "second must be a GerbeDatum, got NoneType"),
            (lambda d: GerbeDatum(0, None, d.cover), "data must be a TotalCochain, got NoneType"),
            (lambda d: GerbeDatum(0, d.data, None), "cover must be a Cover, got NoneType"),
            (lambda d: check_good_cover(None), "cover must be a Cover, got NoneType"),
            (lambda d: betti_numbers(None), "complex must be a SimplicialComplex, got NoneType"),
            (lambda d: Cover.build(None, [{0}]), "complex must be a SimplicialComplex, got NoneType"),
        ],
        ids=[
            "validate", "charge", "curvature", "gauge_shift", "higher_gauge_shift", "gauge_equivalent",
            "datum-data", "datum-cover", "check_good_cover", "betti_numbers", "cover-build",
        ],
    )
    def test_public_entries_refuse_the_wrong_type(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            call(build_monopole(6))
