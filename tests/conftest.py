import itertools

import pytest

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    GaugePotential,
    GerbeDatum,
    SimplicialComplex,
    TotalCochain,
    build_monopole,
    exterior_derivative,
    gauge_shift,
)
from gerbecalc.simplicial import _ids

ICOSAHEDRON_FACES = [
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 5),
    (0, 1, 5),
    (1, 2, 7),
    (2, 3, 8),
    (3, 4, 9),
    (4, 5, 10),
    (1, 5, 6),
    (1, 6, 7),
    (2, 7, 8),
    (3, 8, 9),
    (4, 9, 10),
    (5, 10, 6),
    (6, 7, 11),
    (7, 8, 11),
    (8, 9, 11),
    (9, 10, 11),
    (6, 10, 11),
]


def torus_grid(n):
    """The n-by-n grid on the torus, each square cut along one diagonal: vertex
    i * n + j sits at (i, j), and the square at (i, j) is cut from (i, j) to
    (i + 1, j + 1)."""
    vid = lambda i, j: (i % n) * n + (j % n)
    triangles = []
    for i in range(n):
        for j in range(n):
            triangles.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            triangles.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return SimplicialComplex.from_top_cells(n * n, triangles, closed_manifold=True)


def closed_star_cover(complex):
    """One set per vertex: the vertices of the top cells around it."""
    stars = [{v} for v in range(complex.vertex_count)]
    for cell in complex.cells(complex.top_dimension):
        for v in cell:
            stars[v].update(cell)
    return Cover.build(complex, stars)


def induced(complex, vertex_subset):
    """The subcomplex of all cells whose vertices lie in the subset, with global
    vertex ids: the reference the tests compare a cover's overlaps with."""
    keep = frozenset(_ids(vertex_subset, "vertex subset"))
    table = {}
    for q, cs in complex.simplices.items():
        kept = tuple(s for s in cs if keep.issuperset(s))
        if kept:
            table[q] = kept
    return SimplicialComplex(complex.vertex_count, table, max(table, default=-1))


def reference_delta(layer, cover):
    """The components of delta(layer): at every (n+1)-subset of the sets, the
    alternating sum of the layer at the subset less one index, restricted to
    the overlap.  It shares no code with the matrix of D."""
    p, n = layer.form_degree, layer.cech_degree
    out = {}
    for t in itertools.combinations(range(len(cover.sets)), n + 1):
        overlap = cover.overlap(t)
        total = Cochain.zero(p)
        for a in range(n + 1):
            term = layer.component(t[:a] + t[a + 1 :]).restricted_to(overlap)
            total = total + term if a % 2 == 0 else total - term
        if total.values:
            out[t] = total
    return out


def reference_dbar(layer, cover):
    """The components of dbar(layer): (-1)^n times the exterior derivative of
    each component inside its overlap."""
    out = {}
    for t, comp in layer.components.items():
        der = exterior_derivative(comp, cover.overlap(t))
        if der.values:
            out[t] = der.scaled(-1.0 if layer.cech_degree % 2 else 1.0)
    return out


def reference_contraction(cover, rows, cols):
    """The nonzeros of K from the basis ``rows`` of total degree k to ``cols``
    of degree k - 1, as (target, source) coordinate pairs, each with value 1.

    It follows the definition, (K c)_s(cell) = c_{(j,) + s}(cell) with j the
    lowest set that holds the cell, read from the sets and ``cover.overlap``;
    it shares no code with the arrays of D.
    """

    def coordinates(basis):
        index = {}
        for (p, n), span in basis.positions.items():
            tuples, cells = basis.tuples[n], basis.complex.cells(p)
            for i, t, c in zip(span, basis.tuple_ids[p, n], basis.cell_ids[p, n]):
                index[p, n, tuples[t], cells[c]] = i
        return index

    sources, pairs = coordinates(rows), []
    for (p, n, s, cell), target in coordinates(cols).items():
        j = min(i for i, members in enumerate(cover.sets) if members.issuperset(cell))
        if s and s[0] == j:
            continue  # (j,) + s repeats j
        t = (j,) + s
        assert cell in cover.overlap(t).cells(p)
        pairs.append((target, sources[p, n + 1, t, cell]))
    return pairs


def sparse_transition_monopoles():
    """build_monopole(12), and data equivalent to it whose transition layer
    leaves out band vertices, where the value 0.0 is meant.

    "zeros-left-out" drops the builder's two 0.0 entries.  "shift-to-zero"
    is a gauge shift by phi(1) on set 0 at vertex 1, which brings that
    transition value to exactly 0.0, so the sum drops it.
    """
    datum = build_monopole(12)
    phi = datum.transition_layer.components[(0, 1)].values
    nonzero = Cochain(0, {cell: v for cell, v in phi.items() if v != 0.0})
    transition = BigradedCochain(0, 2, {(0, 1): nonzero}, angle_valued=True)
    parts = {**datum.data.parts, (0, 2): transition}
    potential = BigradedCochain(0, 1, {(0,): Cochain(0, {(1,): phi[(1,)]})})
    shifted = gauge_shift(datum, GaugePotential(TotalCochain(1, {(0, 1): potential})))
    assert (1,) not in shifted.transition_layer.components[(0, 1)].values
    return datum, {
        "zeros-left-out": GerbeDatum(0, TotalCochain(2, parts), datum.cover),
        "shift-to-zero": shifted,
    }


@pytest.fixture(scope="session")
def icosahedron() -> SimplicialComplex:
    return SimplicialComplex.from_top_cells(12, ICOSAHEDRON_FACES, closed_manifold=True)


@pytest.fixture(scope="session")
def tetrahedron_boundary() -> SimplicialComplex:
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return SimplicialComplex.from_top_cells(4, faces, closed_manifold=True)


@pytest.fixture
def single_triangle() -> SimplicialComplex:
    return SimplicialComplex.from_top_cells(3, [(0, 1, 2)])
