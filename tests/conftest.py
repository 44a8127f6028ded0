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
    gauge_shift,
)

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


def closed_star_cover(complex):
    """One set per vertex: the vertices of the top cells around it."""
    stars = [{v} for v in range(complex.vertex_count)]
    for cell in complex.cells(complex.top_dimension):
        for v in cell:
            stars[v].update(cell)
    return Cover.build(complex, stars)


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
