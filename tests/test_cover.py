import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc import cover as cover_module
from gerbecalc import (
    BigradedCochain,
    Cover,
    GerbeDatum,
    InvalidInputError,
    SimplicialComplex,
    TotalCochain,
    betti_numbers,
    boundary_matrix,
    check_good_cover,
    gauge_equivalent,
    gauge_shift,
    integer_rank,
    validate_cocycle,
)
from gerbecalc.builders import (
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    circle_complex,
    join_sphere3,
    two_cone_sphere,
)
from gerbecalc.bicomplex import _basis, _contraction
from gerbecalc.randomdata import random_bigraded, random_complex_and_cover, random_gauge_potential
from gerbecalc.rng import Lcg64

from conftest import closed_star_cover, induced, reference_contraction, torus_grid

# the minimal triangulation of the real projective plane: 6 vertices, 15 edges
RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]


def dense_betti(complex):
    """Betti numbers from the dense reference: ``integer_rank`` of every
    ``boundary_matrix`` up to one above max(2, top dimension)."""
    up_to = max(2, complex.top_dimension)
    counts = [len(complex.cells(q)) for q in range(up_to + 2)]
    ranks = [0] + [integer_rank(boundary_matrix(complex, q)) for q in range(1, up_to + 2)]
    return tuple(counts[q] - ranks[q] - ranks[q + 1] for q in range(up_to + 1))


def cube_ball(n):
    """The n x n x n cube grid, each unit cube cut into the 6 tetrahedra along
    its main diagonal: a 3-ball."""
    vid = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    tetrahedra = []
    for corner in itertools.product(range(n), repeat=3):
        for axes in itertools.permutations(range(3)):
            step, path = list(corner), [vid(*corner)]
            for a in axes:
                step[a] += 1
                path.append(vid(*step))
            tetrahedra.append(tuple(path))
    return SimplicialComplex.from_top_cells((n + 1) ** 3, tetrahedra)


def nested_triangles(levels):
    """A disc of nested triangles: triangle k is (3k, 3k + 1, 3k + 2), and 6
    triangles fill the band between triangles k and k + 1.  Only the outer
    band has free edges, so a collapse goes one band per round."""
    triangles = [(0, 1, 2)]
    for k in range(levels - 1):
        for i in range(3):
            a, b, j = 3 * k + i, 3 * k + 3 + i, 3 * k + (i + 1) % 3
            triangles += [tuple(sorted((a, j, b))), tuple(sorted((j, b, j + 3)))]
    return SimplicialComplex.from_top_cells(3 * levels, triangles)


def random_closed_complex(seed):
    """Random cells of dimension up to a random top of 0 to 3 on up to 9
    vertices, closed under faces: often disconnected, often with isolated
    vertices, vertices only when the top is 0."""
    rng = random.Random(seed)
    vertex_count, top = rng.randint(1, 9), rng.randint(0, 3)
    cells = set()
    for _ in range(rng.randint(0, 8)):
        cell = sorted(rng.sample(range(vertex_count), min(rng.randint(1, top + 1), vertex_count)))
        for k in range(1, len(cell) + 1):
            cells.update(itertools.combinations(cell, k))
    table = {}
    for cell in cells:
        table.setdefault(len(cell) - 1, []).append(cell)
    return SimplicialComplex.build(vertex_count, table)


@st.composite
def small_integer_matrices(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    entries = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    m = draw(st.lists(entries, min_size=rows, max_size=rows))
    # zero whole rows and columns, which uniform entries alone rarely give
    for r in draw(st.sets(st.integers(0, rows - 1))):
        m[r] = [0] * cols
    for c in draw(st.sets(st.integers(0, cols - 1))):
        for row in m:
            row[c] = 0
    return m


class TestCoverConstruction:
    def test_at_least_one_set(self):
        with pytest.raises(InvalidInputError, match="^a cover needs at least one set$"):
            Cover.build(circle_complex(6), [])

    def test_must_cover_all_vertices(self):
        K = circle_complex(6)
        with pytest.raises(InvalidInputError):
            Cover.build(K, [{0, 1, 2}])

    def test_every_cell_in_some_set(self):
        K = circle_complex(6)
        # vertices covered, but edge (2, 3) straddles the two sets
        with pytest.raises(InvalidInputError, match=r"^cell \(2, 3\) lies in no cover set$"):
            Cover.build(K, [{0, 1, 2}, {3, 4, 5}, {5, 0}])

    @pytest.mark.parametrize(
        "complex, sets, cell",
        [
            # each edge in a set, the triangle in none: the lowest dimension is read first
            (SimplicialComplex.from_top_cells(3, [(0, 1, 2)]), [{0, 1}, {1, 2}, {0, 2}], (0, 1, 2)),
            # eleven sets fill two bytes of each vertex's row; the edge (9, 10) has none
            (circle_complex(12), [{k, (k + 1) % 12} for k in range(12) if k != 9], (9, 10)),
            (circle_complex(12), [{k, (k + 1) % 12} for k in range(11)], (0, 11)),
        ],
    )
    def test_the_first_cell_in_no_set_is_named(self, complex, sets, cell):
        with pytest.raises(InvalidInputError, match=f"^cell {re.escape(str(cell))} lies in no cover set$"):
            Cover.build(complex, sets)

    @pytest.mark.parametrize(
        "first",
        # a set that is not iterable holds no integers either
        [[0.7, 1, 2, 3], ["1", 1, 2, 3], [True, 1, 2, 3], 5, None],
        ids=["0.7", "1", "True", "5", "None"],
    )
    def test_non_integer_member_rejected(self, first):
        with pytest.raises(InvalidInputError, match=r"^cover set 0 .*ids must be integers$"):
            Cover.build(circle_complex(6), [first, [3, 4, 5, 0]])

    @pytest.mark.parametrize("sets", [5, None])
    def test_sets_that_are_not_iterable_are_refused(self, sets):
        with pytest.raises(InvalidInputError, match=f"^cover sets {sets}: not a list of vertex sets$"):
            Cover.build(circle_complex(6), sets)

    def test_sparse_vertex_ids_far_beyond_the_cells(self):
        # membership rows follow the three 0-cells, not the ids up to 10**13
        K = SimplicialComplex.build(10**13, {0: [[0], [5], [10**12]], 1: [[0, 5], [5, 10**12]]})
        assert Cover.build(K, [{0, 5}, {5, 10**12}]).sets == (frozenset({0, 5}), frozenset({5, 10**12}))
        with pytest.raises(InvalidInputError, match=rf"^cell \(5, {10**12}\) lies in no cover set$"):
            Cover.build(K, [{0, 5}, {10**12}])

    def test_unknown_vertex_rejected(self):
        K = circle_complex(6)
        with pytest.raises(InvalidInputError):
            Cover.build(K, [set(range(6)) | {77}])


class TestOverlap:
    def test_single_index_is_the_set(self):
        K = circle_complex(8)
        cover = Cover.build(K, [set(range(8)), {0, 1, 2}])
        sub = cover.overlap((1,))
        assert sub.cells(0) == ((0,), (1,), (2,))
        assert sub.cells(1) == ((0, 1), (1, 2))

    def test_permutation_invariance(self):
        datum = build_minus_one_gerbe(12)
        assert datum.cover.overlap((2, 0)) == datum.cover.overlap((0, 2))

    def test_disjoint_pair_is_empty(self):
        K = circle_complex(8)
        cover = Cover.build(K, [set(range(8)), {0, 1}, {4, 5}])
        empty = cover.overlap((1, 2))
        assert empty.top_dimension == -1
        assert empty.cells(0) == ()

    def test_out_of_range_index(self):
        K = circle_complex(6)
        cover = Cover.build(K, [set(range(6))])
        with pytest.raises(InvalidInputError):
            cover.overlap((0, 3))

    @pytest.mark.parametrize("bad", [0.5, "0", True])
    def test_non_integer_index_rejected(self, bad):
        cover = Cover.build(circle_complex(6), [set(range(6)), {0, 1}])
        with pytest.raises(InvalidInputError, match="ids must be integers"):
            cover.overlap((bad,))

    def test_repeated_index(self):
        K = circle_complex(6)
        cover = Cover.build(K, [set(range(6))])
        with pytest.raises(InvalidInputError):
            cover.overlap((0, 0))

    def test_empty_index_is_the_complex_itself(self):
        datum = build_minus_one_gerbe(12)
        assert datum.cover.overlap(()) is datum.cover.complex

    def test_builds_only_the_overlap_asked_for(self, monkeypatch):
        # 576 stars of a 24x24 torus grid: layer 2 has 5,184 tuples
        cover = closed_star_cover(torus_grid(24))
        built = []
        counting = lambda *args: built.append(args) or SimplicialComplex(*args)
        monkeypatch.setattr(cover_module, "SimplicialComplex", counting)
        sub = cover.overlap((0, 1))
        assert sub == induced(cover.complex, cover.sets[0] & cover.sets[1])
        assert len(built) <= 1
        assert len(cover._layer_arrays(2).tuples) == 5184


class TestNerve:
    def test_single_set(self):
        K = circle_complex(6)
        cover = Cover.build(K, [set(range(6))])
        assert cover.nerve() == ((0,),)

    def test_three_arc_circle(self):
        # all three pairwise overlaps are nonempty arcs, the triple is empty
        datum = build_minus_one_gerbe(12)
        assert datum.cover.nerve() == (
            (0,),
            (0, 1),
            (0, 2),
            (1,),
            (1, 2),
            (2,),
        )

    def test_closed_under_subtuples(self):
        datum = build_minus_one_gerbe(18)
        nerve = set(datum.cover.nerve())
        for t in nerve:
            for i in range(len(t)):
                if len(t) > 1:
                    assert t[:i] + t[i + 1 :] in nerve

    def test_gerbopole_cover_has_triple(self):
        from gerbecalc.builders import build_gerbopole

        datum = build_gerbopole(6)
        assert (0, 1, 2) in datum.cover.nerve()


# name -> cover, given the icosahedron fixture
COVERS = {
    "minus1": lambda ico: build_minus_one_gerbe(12).cover,
    "monopole": lambda ico: build_monopole(12).cover,
    "gerbopole": lambda ico: build_gerbopole(6).cover,
    "icosahedron stars": closed_star_cover,
    "torus 6x6 stars": lambda ico: closed_star_cover(torus_grid(6)),
}


@pytest.fixture(params=list(COVERS))
def any_cover(request, icosahedron):
    return COVERS[request.param](icosahedron)


class TestLayer:
    def test_layers_are_the_nerve_by_length(self, any_cover):
        cover = any_cover
        nerve = cover.nerve()
        for n in range(1, len(cover.sets) + 2):
            assert tuple(cover._layer_arrays(n).tuples) == tuple(t for t in nerve if len(t) == n)
        assert cover._layer_arrays(0).tuples == [()]
        assert cover.overlap(()) is cover.complex

    def test_nerve_is_every_index_tuple_with_a_common_vertex(self, any_cover):
        # the tuples with vertex v in common are the subsets of the sets holding v;
        # walking all subsets of the sets instead would take 2**36 steps on the torus
        cover = any_cover
        expected = set()
        for v in cover.complex.vertices:
            holding = [i for i, s in enumerate(cover.sets) if v in s]
            for n in range(1, len(holding) + 1):
                expected.update(itertools.combinations(holding, n))
        assert list(cover.nerve()) == sorted(expected)

    def test_overlaps_match_the_whole_complex_induced_on_the_intersection(self, any_cover):
        cover = any_cover
        for n in range(1, len(cover.sets) + 1):
            for t in cover._layer_arrays(n).tuples:
                reference = induced(cover.complex, frozenset.intersection(*(cover.sets[i] for i in t)))
                assert cover.overlap(t) == reference

    def test_incidence_above_the_vertices_is_built_when_first_read(self):
        # a level-0 datum reads layer 3 only at its vertices (block (0, 3)), and
        # the good-cover check reads no layer above them; later readers still
        # find every block
        cover = closed_star_cover(torus_grid(6))
        zero = GerbeDatum.zero(cover, 0)
        shifted = gauge_shift(zero, random_gauge_potential(cover, 1, Lcg64(6), amplitude=0.5))
        assert validate_cocycle(shifted).passed
        check_good_cover(cover)
        layers = [cover._layer_arrays(n) for n in range(3, 8)]
        assert all(layer.tuples for layer in layers) and not cover._layer_arrays(8).tuples
        for layer in layers:
            assert len(layer._blocks) == 1  # the vertex block alone
        triples = cover._layer_arrays(3).tuples
        t = triples[len(triples) // 2]
        assert cover.overlap(t) == induced(cover.complex, frozenset.intersection(*(cover.sets[i] for i in t)))
        for p in (0, 1, 2):
            rng, expected = Lcg64(p), {}
            for t in triples:
                common = frozenset.intersection(*(cover.sets[i] for i in t))
                values = {c: rng.uniform(-1.0, 1.0) for c in induced(cover.complex, common).cells(p)}
                if values:
                    expected[t] = values
            part = random_bigraded(cover, p, 3, Lcg64(p))
            assert {t: c.values for t, c in part.components.items()} == expected
            assert list(part.components) == list(expected)

    def test_a_cover_with_an_empty_set(self):
        # set 1 is empty, so layer 1's tuple ids (0 and 1) differ from its set
        # ids (0 and 2): the caps of a sphere, which overlap in a band
        band = set(range(12))
        cover = Cover.build(two_cone_sphere(6), [band | {12}, [], band | {13}])
        assert cover._layer_arrays(1).tuples == [(0,), (2,)]
        for n in range(4):
            layer = cover._layer_arrays(n)
            for q in range(3):
                expected = [
                    (t, c)
                    for t, sets in enumerate(layer.tuples)
                    for c, cell in enumerate(cover.complex.cells(q))
                    if all(set(cell) <= cover.sets[i] for i in sets)
                ]
                assert list(zip(*(ids.tolist() for ids in layer.block(q)))) == expected
        for k in range(1, 4):
            rows, cols = _basis(cover, k), _basis(cover, k - 1)
            contraction = _contraction(cover, k)
            pairs = sorted(zip(contraction.rows.tolist(), contraction.cols.tolist()))
            assert pairs == sorted(reference_contraction(cover, rows, cols))
        zero = GerbeDatum.zero(cover, 0)
        shifted = gauge_shift(zero, random_gauge_potential(cover, 1, Lcg64(6), amplitude=0.5))
        assert validate_cocycle(shifted).passed
        assert gauge_equivalent(zero, shifted).equivalent
        assert [e.betti for e in check_good_cover(cover).entries] == [(1, 0, 0), (1, 1, 0), (1, 0, 0)]

    def test_star_cover_with_a_vertex_in_25_sets_round_trips_in_bounded_time(self):
        # the full nerve has more than 2**25 entries; a level-0 datum reads only 3 layers
        sphere = two_cone_sphere(24)
        north = 48
        start = time.perf_counter()
        cover = closed_star_cover(sphere)
        assert sum(north in s for s in cover.sets) == 25
        zero = GerbeDatum(
            0, TotalCochain(2, {(0, 2): BigradedCochain.zero(0, 2, angle_valued=True)}), cover
        )
        potential = random_gauge_potential(cover, 1, Lcg64(24), amplitude=0.5)
        shifted = gauge_shift(zero, potential)
        assert validate_cocycle(shifted).passed
        assert gauge_equivalent(zero, shifted).equivalent
        assert time.perf_counter() - start < 10.0


class TestIntegerRank:
    def test_empty(self):
        assert integer_rank([]) == 0

    def test_small(self):
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[1, 0], [0, 1]]) == 2

    def test_matches_float_rank_on_icosahedron(self, icosahedron):
        for q in (1, 2):
            m = boundary_matrix(icosahedron, q)
            assert integer_rank(m) == np.linalg.matrix_rank(np.array(m))

    def test_numpy_integers_and_zero_padding_accepted(self):
        assert integer_rank(np.array([[1, 2], [2, 4]])) == 1
        assert integer_rank([[np.int64(3), 0.0], [0, np.int32(1)]]) == 2

    @pytest.mark.parametrize(
        "matrix,where",
        [
            ([[2.5, 1], [5, 2]], r"\(0, 0\) is 2\.5"),
            ([[0.5], [1]], r"\(0, 0\) is 0\.5"),
            ([[float("nan")]], r"\(0, 0\) is nan"),
            ([[1, 0], [0, 2.0]], r"\(1, 1\) is 2\.0"),
        ],
        ids=["rational", "half", "nan", "integral-float"],
    )
    def test_non_integer_entry_rejected(self, matrix, where):
        with pytest.raises(InvalidInputError, match=where):
            integer_rank(matrix)

    @pytest.mark.parametrize(
        "rows,where",
        [
            ([{0: 2.5, 1: 1}, {0: 5, 1: 2}], r"\(0, 0\) is 2\.5"),
            ([{3: 1}, {0: 1, 7: 0.5}], r"\(1, 7\) is 0\.5"),
            ([{2: 1}, [0, 2.0]], r"\(1, 1\) is 2\.0"),
        ],
        ids=["rational", "half-at-column-key", "dense-after-mapping"],
    )
    def test_non_integer_mapping_entry_rejected(self, rows, where):
        with pytest.raises(InvalidInputError, match=where):
            integer_rank(rows)

    def test_mapping_rows_may_hold_zeros_and_numpy_integers(self):
        assert integer_rank([{0: 1, 1: 0, 5: -1}, {0: np.int64(2), 5: np.int32(-2)}, {}]) == 1
        assert integer_rank([{0: 1}, [0, 1], {1: 1, 2: 1}]) == 3

    @settings(max_examples=200, deadline=None)
    @given(small_integer_matrices())
    def test_mapping_rows_match_dense_rows(self, m):
        rows = [{c: v for c, v in enumerate(row) if v} for row in m]
        assert integer_rank(rows) == integer_rank(m)
        transpose = [dict(enumerate(col)) for col in zip(*m)]  # zeros kept as entries
        assert integer_rank(transpose) == integer_rank(m)

    def test_non_unit_pivots(self):
        assert integer_rank([[2, 3], [4, 6]]) == 1
        assert integer_rank([[2, 1], [1, 2]]) == 2

    def test_projective_plane_is_ranked_over_the_rationals(self):
        # over GF(2) the 2-boundary has rank 9 and the Betti numbers are (1, 1, 1)
        K = SimplicialComplex.from_top_cells(6, RP2_TRIANGLES)
        assert [len(K.cells(q)) for q in range(3)] == [6, 15, 10]
        ranks = tuple(integer_rank(boundary_matrix(K, q)) for q in (1, 2, 3))
        assert ranks == (5, 10, 0)
        assert betti_numbers(K) == (1, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(small_integer_matrices())
    def test_matches_float_rank_and_transpose(self, m):
        transpose = [list(col) for col in zip(*m)]
        assert integer_rank(m) == np.linalg.matrix_rank(np.array(m)) == integer_rank(transpose)


class TestGoodCover:
    def test_arc_overlaps_are_contractible(self):
        datum = build_minus_one_gerbe(12)
        report = check_good_cover(datum.cover)
        assert report.all_contractible
        for entry in report.entries:
            assert entry.betti == (1, 0, 0)
            assert entry.status == "OK"

    def test_monopole_band_warns(self):
        datum = build_monopole(12)
        report = check_good_cover(datum.cover)
        by_indices = {e.indices: e for e in report.entries}
        assert by_indices[(0, 1)].betti == (1, 1, 0)
        assert by_indices[(0, 1)].status == "WARN"
        assert by_indices[(0,)].contractible
        assert by_indices[(1,)].contractible

    def test_whole_sphere_as_one_set_warns(self, icosahedron):
        cover = Cover.build(icosahedron, [set(range(12))])
        report = check_good_cover(cover)
        assert report.entries[0].betti == (1, 0, 1)
        assert not report.all_contractible

    def test_betti_against_numpy_ranks(self, icosahedron):
        # independent rank computation via SVD-based matrix_rank
        counts = [len(icosahedron.cells(q)) for q in range(3)]
        ranks = [0] + [
            np.linalg.matrix_rank(np.array(boundary_matrix(icosahedron, q)))
            for q in (1, 2)
        ] + [0]
        expected = tuple(counts[q] - ranks[q] - ranks[q + 1] for q in range(3))
        assert betti_numbers(icosahedron) == expected == (1, 0, 1)

    def test_entries_match_unshared_overlaps(self, any_cover):
        cover = any_cover
        report = check_good_cover(cover)
        assert [e.indices for e in report.entries] == list(cover.nerve())
        for e in report.entries:
            common = frozenset.intersection(*(cover.sets[i] for i in e.indices))
            betti = dense_betti(induced(cover.complex, common))
            assert e.betti == betti
            assert e.contractible == (betti == (1,) + (0,) * (len(betti) - 1))

    @staticmethod
    def check_grouping_under_collisions(complex, sets, monkeypatch):
        """On seed 0 every word is 0, so the keys of all runs of one width agree
        and only the entry-by-entry comparison tells the runs apart: the entries
        must not change, and no word array may follow the vertex count."""
        expected = check_good_cover(Cover.build(complex, sets)).entries
        seeds, plain = [], cover_module._run_words
        def colliding(count, seed):
            seeds.append(seed)
            assert count <= len(complex.cells(0))
            return np.zeros(count, np.uint64) if seed == 0 else plain(count, seed)
        monkeypatch.setattr(cover_module, "_run_words", colliding)
        cover = Cover.build(complex, sets)
        report = check_good_cover(cover)
        assert report.entries == expected
        assert [e.indices for e in report.entries] == list(cover.nerve())
        runs = set()
        for e in report.entries:
            common = frozenset.intersection(*(cover.sets[i] for i in e.indices))
            assert e.betti == dense_betti(induced(cover.complex, common))
            runs.add(common)
        # a retry exactly when two different runs have one width
        collide = len({len(r) for r in runs}) < len(runs)
        assert seeds == ([0, 1] if collide else [0])

    def test_grouping_stays_exact_when_every_run_sums_alike(self, any_cover, monkeypatch):
        self.check_grouping_under_collisions(any_cover.complex, any_cover.sets, monkeypatch)

    def test_grouping_under_collisions_with_sparse_vertex_ids(self, monkeypatch):
        # six vertices with ids up to 2**40
        ids = [0, 3, 2**20, 2**39, 2**40 - 2, 2**40 - 1]
        triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (1, 2, 5), (2, 3, 5)]
        complex = SimplicialComplex.from_top_cells(2**40, [[ids[v] for v in t] for t in triangles])
        sets = [{ids[v] for v in s} for s in ({0, 1, 2, 5}, {0, 2, 3, 4}, {0, 4, 5, 1}, {2, 3, 5})]
        self.check_grouping_under_collisions(complex, sets, monkeypatch)

    def test_betti_numbers_of_each_overlap_complex_match_its_entry(self, any_cover):
        # an overlap complex comes from the constructor, so its row arrays are
        # made from its cells when betti_numbers first reads them
        cover = any_cover
        for e in check_good_cover(cover).entries:
            overlap = cover.overlap(e.indices)
            assert "_rows" not in vars(overlap)
            assert betti_numbers(overlap) == e.betti

    def test_builds_no_overlap_complex(self, any_cover, monkeypatch):
        cover, built = Cover.build(any_cover.complex, any_cover.sets), []
        plain_init = SimplicialComplex.__init__
        counting = lambda self, *args: built.append(args) or plain_init(self, *args)
        monkeypatch.setattr(SimplicialComplex, "__init__", counting)
        check_good_cover(cover)
        layers = [cover._layer_arrays(n) for n in range(1, len(cover.sets) + 2)]
        assert layers[0].tuples and not layers[-1].tuples
        assert built == []

    def test_ranks_each_distinct_intersection_once(self, monkeypatch):
        # 13,824 nerve entries of the 144-set torus star cover meet in 1,440
        # distinct vertex sets, certified by one call; no triangle survives
        # the collapse, so nothing is ranked exactly
        cover = closed_star_cover(torus_grid(12))
        batches, calls = [], []
        plain_betti, plain_rank = cover_module._betti, cover_module.integer_rank
        monkeypatch.setattr(cover_module, "_betti", lambda *args: batches.append(args) or plain_betti(*args))
        monkeypatch.setattr(cover_module, "integer_rank", lambda rows: calls.append(rows) or plain_rank(rows))
        report = check_good_cover(cover)
        assert len(report.entries) == 13_824
        distinct = {frozenset.intersection(*(cover.sets[i] for i in e.indices)) for e in report.entries}
        [(complex, owners, cells, count)] = batches
        assert count == len(distinct) == 1_440
        named = complex.cells(0)
        vertices = [frozenset(named[c][0] for c in cells[0][owners[0] == o].tolist()) for o in range(count)]
        assert set(vertices) == distinct
        assert calls == []

    def test_projective_plane_as_one_set_is_ranked_exactly(self, monkeypatch):
        # no edge of RP^2_6 bounds only one triangle, so all 10 triangles survive
        # the collapse and go to the exact rank, which works over Q
        calls, plain = [], cover_module.integer_rank
        monkeypatch.setattr(cover_module, "integer_rank", lambda rows: calls.append(rows) or plain(rows))
        K = SimplicialComplex.from_top_cells(6, RP2_TRIANGLES)
        [entry] = check_good_cover(Cover.build(K, [K.vertices])).entries
        assert entry == ((0,), (1, 0, 0), True)
        assert [len(rows) for rows in calls] == [10]

    def test_a_three_ball_collapses_with_no_exact_rank(self, monkeypatch):
        # the tetrahedra collapse into triangles and the triangles into edges
        calls, plain = [], cover_module.integer_rank
        monkeypatch.setattr(cover_module, "integer_rank", lambda rows: calls.append(rows) or plain(rows))
        K = cube_ball(3)
        assert len(K.cells(3)) == 162
        [entry] = check_good_cover(Cover.build(K, [K.vertices])).entries
        assert (entry.betti, calls) == ((1, 0, 0, 0), [])

    def test_a_deep_disc_is_collapsed_in_bounded_time(self):
        # 5,000 rounds of one band each: a round looks only at the faces whose
        # coface count fell to 1, where a scan of every live cell per round
        # would grow with the square of the bands
        K = nested_triangles(5_000)
        start = time.perf_counter()
        [entry] = check_good_cover(Cover.build(K, [K.vertices])).entries
        assert entry.betti == (1, 0, 0) and len(K.cells(2)) == 29_995
        assert time.perf_counter() - start < 2.0

    def test_the_empty_complex_has_no_overlaps(self):
        assert check_good_cover(Cover.build(SimplicialComplex.build(0, {}), [[]])).entries == ()

    def test_torus_as_one_set_warns(self):
        K = torus_grid(6)
        [entry] = check_good_cover(Cover.build(K, [K.vertices])).entries
        assert (entry.betti, entry.status) == ((1, 2, 1), "WARN")

    def test_overlap_of_two_disjoint_discs_has_two_components(self, monkeypatch):
        # hexagonal discs around 0 and 10, joined by the path 1-20-11 in set 0
        # and by 4-21-14 in set 1, so the sets are contractible and meet in both discs
        fans = [tuple(sorted((c, c + k, c + k % 6 + 1))) for c in (0, 10) for k in range(1, 7)]
        cells = {f for t in fans for k in (1, 2, 3) for f in itertools.combinations(t, k)}
        cells |= {(1, 20), (11, 20), (4, 21), (14, 21), (20,), (21,)}
        K = SimplicialComplex.build(22, {q: [c for c in cells if len(c) == q + 1] for q in range(3)})
        discs = set(range(7)) | set(range(10, 17))
        calls, plain = [], cover_module.integer_rank
        monkeypatch.setattr(cover_module, "integer_rank", lambda rows: calls.append(rows) or plain(rows))
        report = check_good_cover(Cover.build(K, [discs | {20}, discs | {21}]))
        assert [(e.indices, e.betti, e.status) for e in report.entries] == [
            ((0,), (1, 0, 0), "OK"),
            ((0, 1), (2, 0, 0), "WARN"),
            ((1,), (1, 0, 0), "OK"),
        ]
        assert calls == []

    def test_overlaps_of_one_size_are_ranked_apart(self):
        # a 4-cycle and a 4-vertex path: as many vertices, different Betti numbers
        edges = [[0, 1], [1, 2], [2, 3], [0, 3], [4, 5], [5, 6], [6, 7]]
        K = SimplicialComplex.build(8, {0: [[v] for v in range(8)], 1: edges})
        report = check_good_cover(Cover.build(K, [{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 3}]))
        assert [(e.indices, e.betti, e.status) for e in report.entries] == [
            ((0,), (1, 1, 0), "WARN"),
            ((0, 2), (1, 0, 0), "OK"),
            ((1,), (1, 0, 0), "OK"),
            ((2,), (1, 0, 0), "OK"),
        ]

    def test_closed_three_manifold_overlap_warns(self):
        sphere3 = join_sphere3(6)
        report = check_good_cover(Cover.build(sphere3, [sphere3.vertices]))
        assert report.entries[0].betti == (1, 0, 0, 1)
        assert not report.entries[0].contractible
        assert not report.all_contractible


class TestSparseBettiNumbers:
    """``betti_numbers`` collapses free faces, ranks 1-boundaries by components
    and what survives above by sparse face rows; the dense reference ranks
    ``boundary_matrix``."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_complexes_match_the_dense_reference(self, seed):
        K = random_closed_complex(seed)
        assert betti_numbers(K) == dense_betti(K)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomdata_complexes_and_overlaps_match_the_dense_reference(self, seed):
        # circles and two-cone spheres with their random covers' overlaps:
        # discs, annuli, arcs and pieces of several components
        complex, cover = random_complex_and_cover(Lcg64(seed))
        assert betti_numbers(complex) == dense_betti(complex)
        for t in cover.nerve():
            overlap = cover.overlap(t)
            assert betti_numbers(overlap) == dense_betti(overlap)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomly_numbered_paths_and_cycles_match_the_dense_reference(self, seed):
        # paths and cycles of up to 60 vertices, numbered at random: the
        # components of the edges take several hooking rounds there
        rng = Lcg64(seed)
        numbering = list(range(60))
        for i in range(59, 0, -1):
            j = rng.randint(0, i)
            numbering[i], numbering[j] = numbering[j], numbering[i]
        cuts = sorted({rng.randint(1, 59) for _ in range(3)})
        edges = []
        for start, end in itertools.pairwise([0, *cuts, 60]):
            run = numbering[start:end]
            edges += list(itertools.pairwise(run)) + ([(run[-1], run[0])] if len(run) > 2 and start else [])
        K = SimplicialComplex.build(60, {0: [[v] for v in range(60)], 1: [sorted(e) for e in edges]})
        assert betti_numbers(K) == dense_betti(K)
        assert betti_numbers(K)[0] == len(cuts) + 1

    def test_random_complexes_cover_the_cases(self):
        # the seeds above reach disconnected complexes, isolated vertices and
        # complexes of vertices only, and cells of every dimension up to 3
        complexes = [random_closed_complex(seed) for seed in range(60)]
        assert any(betti_numbers(K)[0] > 1 for K in complexes)
        assert any(K.top_dimension == 0 and len(K.cells(0)) > 1 for K in complexes)
        assert any(
            K.top_dimension >= 1 and {v for e in K.cells(1) for v in e} != K.vertices for K in complexes
        )
        assert {K.top_dimension for K in complexes} >= {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "complex, betti",
        [
            (SimplicialComplex.build(0, {}), (0, 0, 0)),
            (SimplicialComplex.build(7, {}), (0, 0, 0)),
            (SimplicialComplex.build(4, {0: [[0], [1], [3]]}), (3, 0, 0)),
            # two triangles' boundaries, one filled, an edge and an isolated vertex
            (
                SimplicialComplex.build(
                    9,
                    {
                        0: [[v] for v in range(9)],
                        1: [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5], [6, 7]],
                        2: [[3, 4, 5]],
                    },
                ),
                (4, 1, 0),
            ),
            (SimplicialComplex.from_top_cells(6, RP2_TRIANGLES), (1, 0, 0)),
            (join_sphere3(6), (1, 0, 0, 1)),
        ],
        ids=["empty", "no-cells", "vertices-only", "disconnected", "rp2-rational-pivots", "sphere3"],
    )
    def test_named_complexes_match_the_dense_reference(self, complex, betti):
        assert betti_numbers(complex) == dense_betti(complex) == betti

    def test_no_rank_call_below_dimension_two_or_above_the_top(self, monkeypatch):
        calls, plain = [], cover_module.integer_rank
        monkeypatch.setattr(cover_module, "integer_rank", lambda rows: calls.append(rows) or plain(rows))
        assert betti_numbers(circle_complex(6)) == (1, 1, 0)
        assert calls == []
        assert betti_numbers(join_sphere3(6)) == (1, 0, 0, 1)
        assert len(calls) == 2  # the 2- and 3-boundaries, nothing above
