import math

import numpy as np
import pytest

from gerbecalc import (
    BigradedCochain,
    Cochain,
    GerbeDatum,
    GerbecalcError,
    InvalidInputError,
    NumericError,
    TotalCochain,
    ValidationReport,
    big_d,
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    build_trivial,
    charge,
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
from gerbecalc.builders import join_sphere3, two_cone_sphere
from gerbecalc.cover import Cover
from gerbecalc.deligne import _cgls, _coboundary_matrix, _LayerBasis
from gerbecalc.randomdata import random_gauge_potential, random_total
from gerbecalc.rng import Lcg64

from conftest import closed_star_cover, sparse_transition_monopoles

TWO_PI = 2.0 * math.pi


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
        with pytest.raises(InvalidInputError):
            GerbeDatum(0, TotalCochain(2, parts), datum.cover)

    def test_support_outside_overlap_rejected(self):
        datum = build_monopole(6)
        # north pole (id 12) is not in the band overlap
        bad_phi = BigradedCochain(
            0, 2, {(0, 1): Cochain(0, {(12,): 1.0})}, angle_valued=True
        )
        parts = dict(datum.data.parts)
        parts[(0, 2)] = bad_phi
        with pytest.raises(InvalidInputError):
            GerbeDatum(0, TotalCochain(2, parts), datum.cover)

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
        cover, level = self.DATA[name](icosahedron)
        k = level + 2
        cols = _LayerBasis(cover, k - 1, omit_top_form=omit_top_form)
        rows = _LayerBasis(cover, k, omit_top_form=False)
        matrix = _coboundary_matrix(cover, cols, rows)
        assert matrix.shape == (len(rows.entries), len(cols.entries))
        assert np.all(np.abs(matrix.signs) == 1.0)
        assert len(set(zip(matrix.rows.tolist(), matrix.cols.tolist()))) == len(matrix.signs)
        rng = Lcg64(53 + k)
        for _ in range(3):
            x = np.array([rng.uniform(-1.0, 1.0) for _ in cols.entries])
            expected = rows.vector_of(big_d(cols.total_of(x), cover))
            # each entry sums a few terms of size <= 1 in another order
            np.testing.assert_allclose(matrix.apply(x), expected, rtol=0.0, atol=1e-14)
            y = np.array([rng.uniform(-1.0, 1.0) for _ in rows.entries])
            # D^T y against the dense form of the same triples
            dense = np.zeros(matrix.shape)
            dense[matrix.rows, matrix.cols] = matrix.signs
            np.testing.assert_allclose(matrix.apply_transpose(y), dense.T @ y, rtol=0.0, atol=1e-14)
        # an angle-valued (0, k-1) part spread over several multiples of 2*pi:
        # big_d stays linear on it, as the matrix is
        x = np.array([rng.uniform(-1.0, 1.0) for _ in cols.entries])
        angle = cols.positions.get((0, k - 1), range(0))
        x[angle] += [TWO_PI * rng.randint(-3, 3) for _ in angle]
        parts = dict(cols.total_of(x).parts)
        if angle:
            angles = parts[0, k - 1].components
            parts[0, k - 1] = BigradedCochain(0, k - 1, angles, angle_valued=True)
        expected = rows.vector_of(big_d(TotalCochain(k - 1, parts), cover))
        # terms up to 7*pi in size, summed in another order
        np.testing.assert_allclose(matrix.apply(x), expected, rtol=0.0, atol=1e-13)

    def test_solve_that_hits_the_iteration_cap_raises(self):
        datum = build_monopole(6)
        cover, k = datum.cover, datum.level + 2
        cols = _LayerBasis(cover, k - 1, omit_top_form=True)
        rows = _LayerBasis(cover, k, omit_top_form=False)
        matrix = _coboundary_matrix(cover, cols, rows)
        rng = Lcg64(59)
        b = matrix.apply(np.array([rng.uniform(-1.0, 1.0) for _ in cols.entries]))
        with pytest.raises(NumericError):
            _cgls(matrix, b, max_iterations=2)
        x = _cgls(matrix, b)
        assert np.max(np.abs(matrix.apply(x) - b)) < 1e-13


class TestLayerBasis:
    """Flat coordinates: one block per overlap, cells in ``cells(p)`` order."""

    @pytest.mark.parametrize("omit_top_form", [False, True])
    def test_round_trip(self, icosahedron, omit_top_form):
        cover = closed_star_cover(icosahedron)
        for k in range(1, 5):
            basis = _LayerBasis(cover, k, omit_top_form=omit_top_form)
            if omit_top_form:
                x = random_gauge_potential(cover, k, Lcg64(61 + k)).data
            else:
                x = random_total(cover, k, Lcg64(61 + k))
            vec = basis.vector_of(x)
            assert np.count_nonzero(vec) == len(basis.entries)
            assert basis.total_of(vec) == x

    def test_blocks_follow_the_layers(self, icosahedron):
        cover = closed_star_cover(icosahedron)
        basis = _LayerBasis(cover, 3, omit_top_form=False)
        for j, (p, n, t, cell) in enumerate(basis.entries):
            assert j in basis.positions[p, n]
            assert j == basis.start[t] + cover.layer(n)[t].cells(p).index(cell)

    @pytest.mark.parametrize(
        "part, omit_top_form",
        [
            # stars of opposite vertices 0 and 11 do not meet: (0, 11) is outside the nerve
            (BigradedCochain(0, 2, {(0, 11): Cochain(0, {(0,): 1.0})}), False),
            # vertex 11 lies outside the overlap of the stars of 0 and 1
            (BigradedCochain(0, 2, {(0, 1): Cochain(0, {(11,): 1.0})}), False),
            # the global top-form part is omitted from a potential's basis
            (BigradedCochain(2, 0, {(): Cochain(2, {(0, 1, 2): 1.0})}), True),
        ],
        ids=["tuple-outside-nerve", "cell-outside-overlap", "omitted-top-form"],
    )
    def test_value_outside_the_basis_raises(self, icosahedron, part, omit_top_form):
        cover = closed_star_cover(icosahedron)
        assert (0, 11) not in cover.layer(2)
        basis = _LayerBasis(cover, 2, omit_top_form=omit_top_form)
        key = (part.form_degree, part.cech_degree)
        with pytest.raises(InvalidInputError, match="outside the basis"):
            basis.vector_of(TotalCochain(2, {key: part}))
        t, comp = next(iter(part.components.items()))
        zero = BigradedCochain(*key, {t: Cochain(comp.degree, dict.fromkeys(comp.values, 0.0))})
        assert not basis.vector_of(TotalCochain(2, {key: zero})).any()
