import inspect
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc import (
    Chain,
    Cochain,
    InvalidInputError,
    SimplicialComplex,
    StructuralError,
    chain_boundary,
    exterior_derivative,
    fundamental_cycle,
    integrate,
)
from gerbecalc.bicomplex import _nerve_faces
from gerbecalc.builders import (
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    circle_complex,
    join_sphere3,
    two_cone_sphere,
)
from gerbecalc.randomdata import random_complex_and_cover
from gerbecalc.rng import Lcg64
from gerbecalc.cover import betti_numbers
from gerbecalc.simplicial import _components, _replay, _top_cofaces, _walk

from conftest import induced, torus_grid

# minimal 6-vertex triangulation of the projective plane (euler = 1)
RP2_TRIANGLES = [
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 5),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
]


def naive_boundary_coefficients(chain, dim):
    """Test-local boundary expansion, independent of chain_boundary."""
    out = {}
    for cell, coeff in chain.coefficients.items():
        for i in range(dim + 1):
            face = cell[:i] + cell[i + 1 :]
            out[face] = out.get(face, 0) + coeff * (-1) ** i
    return {f: c for f, c in out.items() if c != 0}


class TestConstruction:
    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InvalidInputError, match="^vertex_count must be non-negative$"):
            SimplicialComplex.build(-1, {})

    @pytest.mark.parametrize("bad", [3.5, True, "3"])
    def test_non_integer_vertex_count_rejected(self, bad):
        # int() would read 3.5 as 3, True as 1 and "3" as 3
        message = f"vertex_count ({bad!r},): ids must be integers"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SimplicialComplex.build(bad, {})

    def test_negative_dimension_rejected(self):
        with pytest.raises(InvalidInputError, match="^cell dimensions must be non-negative$"):
            SimplicialComplex.build(2, {-1: []})

    def test_faces_must_be_listed(self):
        with pytest.raises(InvalidInputError):
            SimplicialComplex.build(3, {1: [(0, 1)], 2: [(0, 1, 2)]})

    def test_duplicate_cells_rejected(self):
        with pytest.raises(InvalidInputError):
            SimplicialComplex.build(2, {0: [(0,), (1,)], 1: [(0, 1), (0, 1)]})

    def test_decreasing_tuple_rejected(self):
        with pytest.raises(InvalidInputError):
            SimplicialComplex.build(2, {0: [(0,), (1,)], 1: [(1, 0)]})

    def test_vertex_out_of_range(self):
        with pytest.raises(InvalidInputError):
            SimplicialComplex.build(2, {0: [(0,), (2,)]})

    @pytest.mark.parametrize("bad", [0.5, "1", True])
    def test_non_integer_vertex_id_rejected(self, bad):
        # int() would truncate 0.5 and take "1" or True as vertex 1
        with pytest.raises(InvalidInputError, match="ids must be integers"):
            SimplicialComplex.build(3, {0: [(0,), (bad,), (2,)]})
        with pytest.raises(InvalidInputError, match="ids must be integers"):
            SimplicialComplex.from_top_cells(3, [(0, bad, 2)])

    @pytest.mark.parametrize(
        "table, message",
        [
            # the first bad cell in input order, by the first rule it breaks
            ({1: [(0, 1), (2, 1), (0, 5)]}, "cell (2, 1): vertex ids must be strictly increasing"),
            ({1: [(0, 1), (0, 5), (2, 1)]}, "cell (0, 5): vertex id out of range"),
            ({0: [(0,), (7,), (0.5,)]}, "cell (7,): vertex id out of range"),
            ({1: [(0, 1), (0.5, 1), (0, 1, 2)]}, "cell (0.5, 1): ids must be integers"),
            ({1: [(0,), (0.5, 1)]}, "(0,) is not a 1-cell"),
            ({1: [(1, 0), (0,)]}, "cell (1, 0): vertex ids must be strictly increasing"),
            ({0: [(0,), (-1,)]}, "cell (-1,): vertex id out of range"),
            ({0: [(0,), (2**70,)]}, f"cell ({2**70},): vertex id out of range"),
            ({1: [(2**70, 1)]}, f"cell ({2**70}, 1): vertex ids must be strictly increasing"),
            ({0: [(np.True_,)]}, "cell (np.True_,): ids must be integers"),
            # a cell or a list of cells that is not iterable, by the same rules
            ({0: [5]}, "cell 5: ids must be integers"),
            ({0: [None]}, "cell None: ids must be integers"),
            ({0: [(0,), (7,), 5]}, "cell (7,): vertex id out of range"),
            ({0: 5}, "0-cells 5: expected a list of cells"),
            # dimension keys by the same rule: int() would read 1.5 as 1 and True as 1
            ({0: [(0,), (1,)], 1.5: [(0, 1)]}, "cell dimension (1.5,): ids must be integers"),
            ({0: [(0,), (1,)], True: [(0, 1)]}, "cell dimension (True,): ids must be integers"),
            ({"a": [(0,)]}, "cell dimension ('a',): ids must be integers"),
            ({0: [(0,), (1,)], 1: [(0, 1), (0, 1)]}, "duplicate 1-cells"),
            # a dimension is checked whole before the next one is read
            ({0: [(0,), (0,)], 1: [(0, 9)]}, "duplicate 0-cells"),
            # the closure check names the face and the first cell that needs it
            ({0: [(0,)], 1: [(0, 1)]}, "face (1,) of (0, 1) is missing"),
            (
                {0: [(0,), (1,), (2,)], 1: [(1, 2), (0, 1)], 2: [(0, 1, 2)]},
                "face (0, 2) of (0, 1, 2) is missing",
            ),
        ],
    )
    def test_build_refusal_messages(self, table, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SimplicialComplex.build(3, table)

    def test_ids_beyond_int64_are_out_of_range_whatever_the_vertex_count(self):
        with pytest.raises(InvalidInputError, match="vertex id out of range"):
            SimplicialComplex.build(2**80, {0: [(0,), (2**70,)]})

    @pytest.mark.parametrize(
        "top_cells, message",
        [
            ([(0, 1, 2), [3, 3, 1], (0.5, 1, 2)], "cell [3, 3, 1] has repeated vertices"),
            ([(0, 1, 2), (0.5, 1, 2), (3, 3, 1)], "cell (0.5, 1, 2): ids must be integers"),
            ([(0, 1, 2), (np.True_, 1, 2)], "cell (np.True_, 1, 2): ids must be integers"),
            ([5], "cell 5: ids must be integers"),
            ([(0, 1, 2), [3, 3, 1], 5], "cell [3, 3, 1] has repeated vertices"),
            (None, "top cells None: expected a list of cells"),
            ([(0, 1, 2), (1, 3)], "top cells must all share one dimension"),
            # a cell with no vertices has no dimension to build
            ([()], "cell () has no vertices"),
            ([(0, 1, 2), []], "cell [] has no vertices"),
            # range refusals come from build, which reads the sorted top cells
            ([(3, 1, 2), (2, 1, -1)], "cell (-1, 1, 2): vertex id out of range"),
            ([(0, 1, 2**70), (0, 1, 2)], f"cell (0, 1, {2**70}): vertex id out of range"),
        ],
    )
    def test_from_top_cells_refusal_messages(self, top_cells, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SimplicialComplex.from_top_cells(4, top_cells)

    def test_numpy_integer_ids_are_taken_as_python_ints(self):
        by_table = SimplicialComplex.build(
            3, {0: [np.array([0]), (np.int64(1),), (np.int32(2),)], 1: [np.array([0, 1])]}
        )
        by_tops = SimplicialComplex.from_top_cells(3, np.array([[2, 0, 1]], np.int64))
        assert by_table.simplices == {0: ((0,), (1,), (2,)), 1: ((0, 1),)}
        assert by_tops.cells(2) == ((0, 1, 2),)
        for complex in (by_table, by_tops):
            assert {type(v) for cells in complex.simplices.values() for c in cells for v in c} == {int}

    def test_no_top_cells_give_the_empty_complex(self):
        for given in ([], iter([]), ()):
            complex = SimplicialComplex.from_top_cells(4, given)
            assert complex == SimplicialComplex(4, {}, -1) == SimplicialComplex.build(4, {})
            assert complex.top_dimension == -1 and complex._rows == {} and complex._faces == {}

    def test_manifold_flag_rejects_open_disk(self, single_triangle):
        with pytest.raises(StructuralError):
            SimplicialComplex.from_top_cells(
                3, [(0, 1, 2)], closed_manifold=True
            )

    def test_induced_subcomplex(self, tetrahedron_boundary):
        sub = induced(tetrahedron_boundary, {0, 1, 2})
        assert sub.cells(2) == ((0, 1, 2),)
        assert sub.cells(1) == ((0, 1), (0, 2), (1, 2))
        assert sub.top_dimension == 2

    @pytest.mark.parametrize("bad", [0.5, "1", True])
    def test_induced_refuses_non_integer_ids(self, bad):
        # int() would read 0.5 or True as vertex 0 or 1 and keep the edge (0, 1)
        with pytest.raises(InvalidInputError, match="ids must be integers"):
            induced(circle_complex(6), {bad, 1})

    def test_has_cell_reads_the_cell_by_the_id_rule(self):
        complex = build_monopole(12).cover.complex
        assert complex.has_cell([0]) and complex.has_cell(np.array([0, 1]))
        assert complex.has_cell((0, 1)) and not complex.has_cell((0, 10**30))
        for bad in [(0.0,), [True], 0, ("0", 1)]:
            with pytest.raises(InvalidInputError, match="ids must be integers"):
                complex.has_cell(bad)


def face_table_reference(tuples, lower):
    """Row j: the position in ``lower`` of ``tuples[j]`` less entry a, by tuple slicing."""
    position = {t: i for i, t in enumerate(lower)}
    return [[position[t[:a] + t[a + 1 :]] for a in range(len(t))] for t in tuples]


class TestCochain:
    def test_refusals(self):
        with pytest.raises(InvalidInputError, match="^cochain degree must be non-negative$"):
            Cochain(-1, {})
        with pytest.raises(InvalidInputError, match=r"^key \(0, 1\) is not a 0-cell$"):
            Cochain(0, {(0, 1): 1.0})
        with pytest.raises(InvalidInputError, match="^cochain degrees differ$"):
            Cochain(0, {}) + Cochain(1, {})

    def test_exact_cancellation_drops_the_key(self):
        left = Cochain(1, {(0, 1): 0.1, (1, 2): 2.0})
        total = left + Cochain(1, {(2, 3): 3.0, (0, 1): -0.1})
        # the left keys keep their order and new keys follow in the right's order
        assert list(total.values.items()) == [((1, 2), 2.0), ((2, 3), 3.0)]
        assert left.values == {(0, 1): 0.1, (1, 2): 2.0}
        assert (left - left).values == {}

    def test_a_sum_of_negative_zero_is_dropped(self):
        lefts = [{}, {(0,): -0.0}, {(0,): 0.0}]
        for left, right in itertools.product(lefts, [-0.0, 0.0]):
            assert (Cochain(0, left) + Cochain(0, {(0,): right})).values == {}
        # a stored -0.0 that meets no value is copied as it is
        kept = (Cochain(0, {(0,): -0.0}) + Cochain(0, {(1,): 1.0})).values
        assert math.copysign(1.0, kept[(0,)]) == -1.0 and kept[(1,)] == 1.0

    def test_scaled_by_zero_is_the_empty_cochain(self):
        cochain = Cochain(1, {(0, 1): 2.0, (1, 2): math.inf, (0, 2): math.nan})
        for zero in (0.0, -0.0, 0):
            assert cochain.scaled(zero) == Cochain.zero(1)
        # any other factor keeps every key, however small the values become
        tiny = cochain.scaled(1e-320)
        assert list(tiny.values) == list(cochain.values) and tiny.values[0, 1] == 2e-320

    def test_nan_is_kept(self):
        for left in [{}, {(0,): 1.0}, {(0,): math.nan}]:
            assert math.isnan((Cochain(0, left) + Cochain(0, {(0,): math.nan})).values[(0,)])
        assert math.isnan((Cochain(0, {(0,): math.nan}) + Cochain(0, {(0,): 1.0})).values[(0,)])
        assert math.isnan((Cochain(0, {(0,): math.inf}) + Cochain(0, {(0,): -math.inf})).values[(0,)])


class TestFaceTable:
    """The array face rule against tuple slicing, on cells and on nerve layers."""

    @staticmethod
    def check(cover):
        complex = cover.complex
        assert sorted(complex._faces) == list(range(1, complex.top_dimension + 1))
        for q, table in complex._faces.items():
            assert table.dtype == np.int32
            assert table.tolist() == face_table_reference(complex.cells(q), complex.cells(q - 1))
        n = 1
        while tuples := cover._layer_arrays(n).tuples:
            expected = face_table_reference(tuples, cover._layer_arrays(n - 1).tuples)
            assert _nerve_faces(cover, n).tolist() == expected
            n += 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_random_complexes_and_covers(self, seed):
        self.check(random_complex_and_cover(Lcg64(seed))[1])

    @pytest.mark.parametrize("build", [build_minus_one_gerbe, build_monopole, build_gerbopole])
    def test_builders(self, build):
        self.check(build(12).cover)


class TestExteriorDerivative:
    def test_zero_cochain(self, single_triangle):
        assert exterior_derivative(Cochain.zero(0), single_triangle).values == {}

    def test_vertex_function_on_triangle(self, single_triangle):
        f = Cochain(0, {(0,): 0.0, (1,): 1.0, (2,): 3.0})
        df = exterior_derivative(f, single_triangle)
        assert df.values == {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0}

    def test_d_squared_is_zero(self, single_triangle):
        f = Cochain(0, {(0,): 0.0, (1,): 1.0, (2,): 3.0})
        ddf = exterior_derivative(exterior_derivative(f, single_triangle), single_triangle)
        assert ddf.values == {}

    def test_unknown_cell_rejected(self, single_triangle):
        with pytest.raises(InvalidInputError):
            exterior_derivative(Cochain(0, {(7,): 1.0}), single_triangle)

    @settings(max_examples=30)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=22, max_size=22))
    def test_d_squared_random_on_sphere(self, values):
        sphere = two_cone_sphere(10)
        f = Cochain(0, {v: x for v, x in zip(sphere.cells(0), values)})
        ddf = exterior_derivative(exterior_derivative(f, sphere), sphere)
        assert ddf.sup_norm() < 1e-12

    @settings(max_examples=20)
    @given(st.data())
    def test_stokes_pairing(self, data):
        sphere = two_cone_sphere(6)
        edges = sphere.cells(1)
        vals = data.draw(
            st.lists(st.floats(-5, 5, allow_nan=False), min_size=len(edges), max_size=len(edges))
        )
        coeffs = data.draw(
            st.lists(st.integers(-3, 3), min_size=len(sphere.cells(2)), max_size=len(sphere.cells(2)))
        )
        c = Cochain(1, dict(zip(edges, vals)))
        z = Chain(2, {t: k for t, k in zip(sphere.cells(2), coeffs) if k})
        lhs = integrate(exterior_derivative(c, sphere), z)
        rhs = integrate(c, chain_boundary(z, sphere))
        assert abs(lhs - rhs) < 1e-10


class TestIntegrate:
    def test_zero_cochain(self):
        assert integrate(Cochain.zero(1), Chain(1, {(0, 1): 5})) == 0.0

    def test_bilinearity_example(self):
        assert integrate(Cochain(1, {(0, 1): 2.0}), Chain(1, {(0, 1): 3})) == 6.0

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            integrate(Cochain.zero(1), Chain(2, {}))


class TestChainBoundary:
    def test_a_0_chain_has_the_empty_boundary(self, single_triangle):
        # the boundary of a 0-chain is a (-1)-chain, even on cells the complex lacks
        for coefficients in ({}, {(0,): 3, (2,): -1}, {(7,): 1}):
            assert chain_boundary(Chain(0, coefficients), single_triangle) == Chain(-1, {})

    def test_unknown_cell_rejected(self, single_triangle):
        with pytest.raises(InvalidInputError, match=r"^chain references unknown cell \(0, 3\)$"):
            chain_boundary(Chain(1, {(0, 1): 1, (0, 3): 1}), single_triangle)


class TestFundamentalCycle:
    def test_tetrahedron_boundary_is_a_cycle(self, tetrahedron_boundary):
        cycle = fundamental_cycle(tetrahedron_boundary)
        assert len(cycle.coefficients) == 4
        assert set(map(abs, cycle.coefficients.values())) == {1}
        assert naive_boundary_coefficients(cycle, 2) == {}

    def test_icosahedron(self, icosahedron):
        cycle = fundamental_cycle(icosahedron)
        assert len(cycle.coefficients) == 20
        assert naive_boundary_coefficients(cycle, 2) == {}

    def test_circle_orientation(self):
        m = 8
        cycle = fundamental_cycle(circle_complex(m))
        # increasing orientation everywhere except the wrap-around edge
        for k in range(m - 1):
            assert cycle.coefficients[(k, k + 1)] == 1
        assert cycle.coefficients[(0, m - 1)] == -1
        assert naive_boundary_coefficients(cycle, 1) == {}

    def test_normalization_is_deterministic(self):
        cycle = fundamental_cycle(two_cone_sphere(6))
        first = min(cycle.coefficients)
        assert cycle.coefficients[first] == 1

    def test_disconnected_rejected(self):
        two_circles = SimplicialComplex.from_top_cells(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        with pytest.raises(StructuralError, match="top cells are not connected"):
            fundamental_cycle(two_circles)

    def test_non_manifold_rejected(self):
        # three triangles sharing one edge
        bad = SimplicialComplex.from_top_cells(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        with pytest.raises(StructuralError, match=r"\(0, 1\) lies in 3 top cells"):
            fundamental_cycle(bad)

    def test_non_orientable_rejected(self):
        rp2 = SimplicialComplex.from_top_cells(6, RP2_TRIANGLES, closed_manifold=True)
        with pytest.raises(StructuralError, match="complex is not orientable"):
            fundamental_cycle(rp2)

    def test_a_second_component_is_refused_before_orientability(self):
        # RP^2 on vertices 0-5 holds the first top cells, the tetrahedron
        # boundary on 6-9 the rest: the components are counted first
        tetrahedron = [(6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9)]
        both = SimplicialComplex.from_top_cells(
            10, RP2_TRIANGLES + tetrahedron, closed_manifold=True
        )
        with pytest.raises(StructuralError, match="top cells are not connected"):
            fundamental_cycle(both)

    @pytest.mark.parametrize("segments", [(6,), (12, 8)])
    def test_three_sphere(self, segments):
        sphere = join_sphere3(*segments)
        cycle = fundamental_cycle(sphere)
        assert len(cycle.coefficients) == len(sphere.cells(3))
        assert set(map(abs, cycle.coefficients.values())) == {1}
        assert naive_boundary_coefficients(cycle, 3) == {}

    def test_a_complex_of_points_has_no_top_cells_to_orient(self):
        points = SimplicialComplex.build(3, {0: [[0], [1], [2]]})
        with pytest.raises(StructuralError, match="^complex has no top-dimensional cells to orient$"):
            fundamental_cycle(points)
        with pytest.raises(StructuralError, match="^a closed manifold needs top dimension >= 1$"):
            SimplicialComplex.build(3, {0: [[0], [1], [2]]}, closed_manifold=True)

    @pytest.mark.parametrize("complex", [two_cone_sphere(6), join_sphere3(6), circle_complex(7)])
    def test_coefficients_are_plain_ints_in_top_cell_order(self, complex):
        cycle = fundamental_cycle(complex)
        assert list(cycle.coefficients) == list(complex.cells(complex.top_dimension))
        assert {type(c) for c in cycle.coefficients.values()} == {int}

    def test_each_call_returns_a_fresh_chain(self):
        sphere = two_cone_sphere(6)
        first = fundamental_cycle(sphere)
        first.coefficients.clear()
        again = fundamental_cycle(sphere)
        assert len(again.coefficients) == 24 and naive_boundary_coefficients(again, 2) == {}

    def test_a_refusal_is_raised_again(self):
        bad = SimplicialComplex.from_top_cells(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        for _ in range(2):
            with pytest.raises(StructuralError, match=r"lies in 3 top cells"):
                fundamental_cycle(bad)

    def test_edge_outside_every_top_cell_rejected(self):
        # a pole-to-pole edge of the two-cone sphere lies in no triangle
        sphere = two_cone_sphere(6)
        table = {q: list(cells) for q, cells in sphere.simplices.items()}
        table[1].append((12, 13))
        with pytest.raises(StructuralError, match=r"\(12, 13\) lies in 0 top cells"):
            SimplicialComplex.build(14, table, closed_manifold=True)
        with pytest.raises(StructuralError, match=r"\(12, 13\) lies in 0 top cells"):
            fundamental_cycle(SimplicialComplex.build(14, table))


class TestWalk:
    def test_one_root_per_component_and_exact_forest_rows(self):
        # a triangle on 0-2 with one row off the forest, and an edge on 3-4
        ends = [(0, 1), (1, 2), (0, 2), (3, 4)]
        signs = [(1, -1), (-1, 1), (1, 1), (1, -1)]
        target = [0.5, 2.0, 7.0, -1.5]
        steps, roots = _walk(5, ends)
        assert roots == [0, 3]
        x = _replay(steps, ends, signs, target, [0.25] * 5)
        assert x[0] == x[3] == 0.25
        rows = [signs[e][0] * x[u] + signs[e][1] * x[v] for e, (u, v) in enumerate(ends)]
        # rows 0 and 2 reach 1 and 2 from 0, and row 3 reaches 4 from 3; row 1
        # closes the triangle, off the forest, and the walk leaves it as it is
        assert steps == [(1, 0), (2, 2), (4, 3)]
        assert [rows[0], rows[2], rows[3]] == [target[0], target[2], target[3]]
        assert rows[1] != target[1]

    def test_a_three_entry_row_solves_its_last_unknown(self):
        # row 0 waits for 1, which row 1 reaches from the root 0; then row 0
        # has one unknown left, 2, and solves it
        rows, signs = [(0, 1, 2), (0, 1)], [(1, -1, 1), (-1, 1)]
        steps, roots = _walk(3, rows)
        assert (steps, roots) == ([(1, 1), (2, 0)], [0])
        x = _replay(steps, rows, signs, [4.0, 1.5], [0.5, None, None])
        assert x == [0.5, 2.0, 4.0 - 0.5 + 2.0]
        assert x[0] - x[1] + x[2] == 4.0 and -x[0] + x[1] == 1.5

    def test_seeds_are_known_from_the_start(self):
        # seeded 1 and 3, the walk starts from them and needs no root: row 1
        # has one unknown once both seeds are passed, row 0 once 2 is
        rows, signs = [(0, 1, 2), (1, 2, 3)], [(1, 1, 1), (1, -1, 1)]
        steps, roots = _walk(4, rows, seeds=[3, 1])
        assert (steps, roots) == ([(2, 1), (0, 0)], [])
        x = _replay(steps, rows, signs, [1.0, 2.0], [None, 0.0, None, 0.0])
        assert x[1] == x[3] == 0.0
        assert [x[0] + x[1] + x[2], x[1] - x[2] + x[3]] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "build, loops",
        [
            (lambda ico: ico, 0),
            (lambda ico: join_sphere3(6, 8), 0),
            (lambda ico: join_sphere3(12, 8), 0),
            (lambda ico: torus_grid(6), 2),
        ],
        ids=["icosahedron", "join_sphere3(6, 8)", "join_sphere3(12, 8)", "torus_grid(6)"],
    )
    def test_roots_at_each_degree_are_the_betti_numbers(self, build, loops, icosahedron):
        # seeded with the cells whose rows solved a step one degree down, the
        # walk of d from the q-forms roots b_q cells: one at degree 0 and at
        # the top, and at degree 1 none on the spheres and two on the torus
        complex = build(icosahedron)
        roots = [len(complex._order(q)[1]) for q in range(complex.top_dimension + 1)]
        assert roots == list(betti_numbers(complex)[: complex.top_dimension + 1])
        assert roots[1] == loops


def walked_orientation(complex):
    """The +-1 orientation by ``_walk`` and ``_replay`` over the rows of partial c = 0,
    the lowest top cell +1: the reference ``_cycle`` is compared with."""
    d, pairs = complex.top_dimension, _top_cofaces(complex)
    rows = (pairs // (d + 1)).tolist()
    signs = [[(-1) ** a for a in row] for row in (pairs % (d + 1)).tolist()]
    steps, roots = _walk(len(complex.cells(d)), rows)
    assert roots == [0]
    c = _replay(steps, rows, signs, [0] * len(rows), [1] * len(complex.cells(d)))
    assert all(sum(s * c[t] for s, t in zip(row_signs, row)) == 0 for row, row_signs in zip(rows, signs))
    return c


def random_permutation(n, rng):
    """A Fisher-Yates shuffle of range(n) by ``rng``."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    return np.array(order)


def traced_rounds(count, u, v, rel):
    """``_components``'s result, and how many times its lines marked hook and
    jump ran."""
    lines, first = inspect.getsourcelines(_components)
    marks = {first + i: mark for i, line in enumerate(lines) for mark in ("hook", "jump") if f"# {mark}" in line}
    seen = dict.fromkeys(("hook", "jump"), 0)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in marks:
            seen[marks[frame.f_lineno]] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is _components.__code__ else None)
    try:
        result = _components(count, u, v, rel)
    finally:
        sys.settrace(previous)
    return result, seen


class TestComponents:
    @staticmethod
    def searched(count, u, v, rel):
        """Labels and parities by a breadth-first search from each lowest unvisited node."""
        around = [[] for _ in range(count)]
        for a, b, r in zip(u, v, rel):
            around[a].append((b, r))
            around[b].append((a, r))
        label, parity = [None] * count, [None] * count
        for start in range(count):
            if label[start] is None:
                label[start], parity[start], queue = start, 1, [start]
                for a in queue:
                    for b, r in around[a]:
                        if label[b] is None:
                            label[b], parity[b] = start, r * parity[a]
                            queue.append(b)
        return label, parity

    @staticmethod
    def random_signed_graph(seed):
        """A consistent signed graph, x = +-1 per node and rel = x[u] x[v], with
        few enough edges that most are disconnected and hold isolated nodes."""
        rng = Lcg64(seed)
        count = rng.randint(1, 60)
        x = [rng.randint(0, 1) * 2 - 1 for _ in range(count)]
        u = [rng.randint(0, count - 1) for _ in range(rng.randint(0, 2 * count))]
        v = [rng.randint(0, count - 1) for _ in u]
        return count, x, u, v, [x[a] * x[b] for a, b in zip(u, v)]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_breadth_first_search(self, seed):
        count, x, u, v, rel = self.random_signed_graph(seed)
        label, parity = _components(count, np.array(u, np.intp), np.array(v, np.intp), np.array(rel))
        assert (label.tolist(), parity.tolist()) == self.searched(count, u, v, rel)
        assert all(parity[b] * x[label[b]] == x[b] for b in range(count))

    def test_the_seeds_reach_the_cases(self):
        cases = []
        for seed in range(40):
            count, _, u, v, rel = self.random_signed_graph(seed)
            label, _ = self.searched(count, u, v, rel)
            cases.append((len(set(label)), len(set(range(count)) - set(u) - set(v))))
        assert any(components > 1 for components, _ in cases)
        assert any(components == 1 for components, _ in cases)
        assert any(isolated > 0 for _, isolated in cases)

    def test_no_edges_and_no_nodes(self):
        empty = np.zeros(0, np.intp)
        for count in (0, 3):
            label, parity = _components(count, empty, empty, 1)
            assert label.tolist() == list(range(count)) and parity.tolist() == [1] * count

    def test_an_odd_signed_cycle_is_left_for_the_row_check(self):
        # x1 = -x0, x2 = -x1 and x0 = -x2 hold for no nonzero x: the routine
        # still labels one component and leaves one edge unsatisfied, which
        # _cycle's row check refuses (the RP^2 test below)
        u, v = np.array([0, 1, 2]), np.array([1, 2, 0])
        label, parity = _components(3, u, v, np.array([-1, -1, -1]))
        assert label.tolist() == [0, 0, 0]
        assert (parity[v] != -parity[u]).sum() == 1

    @pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
    def test_rounds_are_logarithmic_in_the_nodes(self, closed):
        # a path or cycle of 2**14 randomly numbered nodes: a round per step
        # along it would take thousands; pointer jumping takes 9 hooking rounds
        # and 23 jumps (seed 14, Lcg64's Fisher-Yates numbering; seeds 10-19
        # take 8-10 rounds and 20-23 jumps)
        n = 2**14
        numbering = random_permutation(n, Lcg64(14))
        steps = np.arange(n if closed else n - 1)
        (label, parity), seen = traced_rounds(n, numbering[steps], numbering[(steps + 1) % n], 1)
        assert (label == 0).all() and (parity == 1).all()
        assert seen == {"hook": 9, "jump": 23}
        assert seen["hook"] <= 14 and seen["jump"] <= 2 * 14


class TestOrientationByComponents:
    @pytest.mark.parametrize(
        "build",
        [
            *(lambda ico, m=m: build_monopole(m).cover.complex for m in (6, 12, 48, 384)),
            *(lambda ico, m=m: build_gerbopole(m).cover.complex for m in (6, 12, 24)),
            lambda ico: build_gerbopole(12, base_segments=32).cover.complex,
            *(lambda ico, m=m: build_minus_one_gerbe(m).cover.complex for m in (12, 96)),
            lambda ico: torus_grid(3),
            lambda ico: torus_grid(12),
            lambda ico: ico,
            lambda ico: join_sphere3(6),
            lambda ico: join_sphere3(12, 8),
        ],
        ids=[
            *(f"monopole({m})" for m in (6, 12, 48, 384)),
            *(f"gerbopole({m})" for m in (6, 12, 24)),
            "gerbopole(12, base 32)",
            *(f"minus_one({m})" for m in (12, 96)),
            "torus_grid(3)",
            "torus_grid(12)",
            "icosahedron",
            "join_sphere3(6)",
            "join_sphere3(12, 8)",
        ],
    )
    def test_equals_the_walked_orientation(self, build, icosahedron):
        # the orientation of a connected orientable complex is unique once the
        # lowest top cell is +1, so the two lists are equal, not only equivalent
        complex = build(icosahedron)
        assert complex._cycle == walked_orientation(complex)
