import pytest

from gerbecalc import Cover, SimplicialComplex

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
