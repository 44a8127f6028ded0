"""Oriented simplicial complexes with exact integer incidence arithmetic.

Every simplex is stored as a strictly increasing tuple of vertex ids and
carries the orientation induced by that order, so incidence signs are always
derived from vertex positions and never stored.  Cochain and chain values are
sparse maps keyed by simplex tuple; a missing key means the value is zero.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidInputError, StructuralError

Simplex = tuple[int, ...]

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "Cochain",
    "Chain",
    "exterior_derivative",
    "integrate",
    "fundamental_cycle",
    "chain_boundary",
    "boundary_matrix",
]


def _worst(magnitudes: Iterable[float]) -> float:
    """The largest magnitude, 0.0 for none, NaN if any is NaN (max() can miss one)."""
    return float(np.max(list(magnitudes), initial=0.0))


def _deletion_sign(i: int) -> int:
    """(-1)^i, the sign of the face that deletes position i of a simplex or tuple."""
    return -1 if i % 2 else 1


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex, closed under taking faces.

    ``simplices`` maps each dimension q to the lexicographically sorted tuple
    of its q-cells.  ``top_dimension`` is the largest dimension holding any
    cell, or -1 for the empty complex.  Instances are immutable values; all
    operations on them are pure functions.
    """

    vertex_count: int
    simplices: dict[int, tuple[Simplex, ...]]
    top_dimension: int

    @classmethod
    def build(
        cls,
        vertex_count: int,
        simplices_by_dim: Mapping[int, Iterable[Iterable[int]]],
        *,
        closed_manifold: bool = False,
    ) -> "SimplicialComplex":
        vertex_count = int(vertex_count)
        if vertex_count < 0:
            raise InvalidInputError("vertex_count must be non-negative")
        table: dict[int, tuple[Simplex, ...]] = {}
        for q, cells in simplices_by_dim.items():
            q = int(q)
            if q < 0:
                raise InvalidInputError("cell dimensions must be non-negative")
            norm: list[Simplex] = []
            for cell in cells:
                s = tuple(int(v) for v in cell)
                if len(s) != q + 1:
                    raise InvalidInputError(f"{s} is not a {q}-cell")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise InvalidInputError(
                        f"cell {s}: vertex ids must be strictly increasing"
                    )
                if s[0] < 0 or s[-1] >= vertex_count:
                    raise InvalidInputError(f"cell {s}: vertex id out of range")
                norm.append(s)
            if len(set(norm)) != len(norm):
                raise InvalidInputError(f"duplicate {q}-cells")
            if norm:
                table[q] = tuple(sorted(norm))
        for q in sorted(table):
            if q == 0:
                continue
            lower = set(table.get(q - 1, ()))
            for s in table[q]:
                for i in range(q + 1):
                    face = s[:i] + s[i + 1 :]
                    if face not in lower:
                        raise InvalidInputError(f"face {face} of {s} is missing")
        complex = cls(vertex_count, table, max(table, default=-1))
        if closed_manifold:
            complex._check_closed_manifold()
        return complex

    @classmethod
    def from_top_cells(
        cls,
        vertex_count: int,
        top_cells: Iterable[Iterable[int]],
        *,
        closed_manifold: bool = False,
    ) -> "SimplicialComplex":
        """Build the complex generated by the given cells and all their faces."""
        cells = []
        for cell in top_cells:
            s = tuple(sorted(int(v) for v in cell))
            if len(set(s)) != len(s):
                raise InvalidInputError(f"cell {cell} has repeated vertices")
            cells.append(s)
        if not cells:
            return cls.build(vertex_count, {})
        dims = {len(s) - 1 for s in cells}
        if len(dims) != 1:
            raise InvalidInputError("top cells must all share one dimension")
        top = dims.pop()
        table: dict[int, set[Simplex]] = {top: set(cells)}
        for q in range(top, 0, -1):
            faces = set()
            for s in table[q]:
                for i in range(q + 1):
                    faces.add(s[:i] + s[i + 1 :])
            table[q - 1] = faces
        return cls.build(
            vertex_count,
            {q: sorted(cs) for q, cs in table.items()},
            closed_manifold=closed_manifold,
        )

    def _check_closed_manifold(self) -> None:
        d = self.top_dimension
        if d < 1:
            raise StructuralError("a closed manifold needs top dimension >= 1")
        counts: collections.Counter = collections.Counter()
        for t in self.cells(d):
            for i in range(d + 1):
                counts[t[:i] + t[i + 1 :]] += 1
        for face in self.cells(d - 1):
            if counts[face] != 2:
                raise StructuralError(
                    f"cell {face} lies in {counts[face]} top cells; need exactly 2"
                )

    def cells(self, dim: int) -> tuple[Simplex, ...]:
        return self.simplices.get(dim, ())

    @cached_property
    def _positions(self) -> dict[int, dict[Simplex, int]]:
        return {q: dict(zip(cs, range(len(cs)))) for q, cs in self.simplices.items()}

    def cell_positions(self, dim: int) -> dict[Simplex, int]:
        """Each dim-cell mapped to its position in ``cells(dim)``."""
        return self._positions.get(dim, {})

    def has_cell(self, simplex: Simplex) -> bool:
        return simplex in self._positions.get(len(simplex) - 1, ())

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(s[0] for s in self.cells(0))

    def induced(self, vertex_subset: Iterable[int]) -> "SimplicialComplex":
        """The subcomplex of all cells whose vertices lie in the subset.

        Vertex ids are kept global, so cochains restrict by key filtering.
        """
        keep = frozenset(int(v) for v in vertex_subset)
        table = {}
        for q, cs in self.simplices.items():
            kept = tuple(s for s in cs if keep.issuperset(s))
            if kept:
                table[q] = kept
        return SimplicialComplex(self.vertex_count, table, max(table, default=-1))


@dataclass(frozen=True)
class Cochain:
    """Sparse real-valued p-cochain; keys are p-cells, absent keys mean 0."""

    degree: int
    values: dict[Simplex, float]

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidInputError("cochain degree must be non-negative")
        for s in self.values:
            if len(s) != self.degree + 1:
                raise InvalidInputError(
                    f"key {s} is not a {self.degree}-cell"
                )

    @classmethod
    def zero(cls, degree: int) -> "Cochain":
        return cls(degree, {})

    def get(self, cell: Iterable[int]) -> float:
        return self.values.get(tuple(cell), 0.0)

    def sup_norm(self) -> float:
        return _worst(abs(v) for v in self.values.values())

    def scaled(self, factor: float) -> "Cochain":
        if factor == 0.0:
            return Cochain.zero(self.degree)
        return Cochain(self.degree, {s: factor * v for s, v in self.values.items()})

    def restricted_to(self, complex: SimplicialComplex) -> "Cochain":
        return Cochain(
            self.degree,
            {s: v for s, v in self.values.items() if complex.has_cell(s)},
        )

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise InvalidInputError("cochain degrees differ")
        merged = dict(self.values)
        for s, v in other.values.items():
            total = merged.get(s, 0.0) + v
            if total == 0.0:
                merged.pop(s, None)
            else:
                merged[s] = total
        return Cochain(self.degree, merged)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scaled(-1.0)


@dataclass(frozen=True)
class Chain:
    """Sparse integer chain, the pairing partner of cochains."""

    degree: int
    coefficients: dict[Simplex, int]


def exterior_derivative(cochain: Cochain, complex: SimplicialComplex) -> Cochain:
    """Simplicial coboundary: (dc)(t) = sum_i (-1)^i c(t with vertex i removed)."""
    p = cochain.degree
    for s in cochain.values:
        if not complex.has_cell(s):
            raise InvalidInputError(f"cochain references unknown {p}-cell {s}")
    out: dict[Simplex, float] = {}
    signs = [_deletion_sign(i) for i in range(p + 2)]
    for tau in complex.cells(p + 1):
        total = 0.0
        hit = False
        for i, sign in enumerate(signs):
            v = cochain.values.get(tau[:i] + tau[i + 1 :])
            if v is None:
                continue
            hit = True
            total += sign * v
        if hit and total != 0.0:
            out[tau] = total
    return Cochain(p + 1, out)


def integrate(cochain: Cochain, chain: Chain) -> float:
    """The bilinear pairing sum_cells coefficient * value."""
    if cochain.degree != chain.degree:
        raise InvalidInputError(
            f"degree mismatch: cochain {cochain.degree}, chain {chain.degree}"
        )
    return float(
        sum(
            coeff * cochain.values.get(cell, 0.0)
            for cell, coeff in sorted(chain.coefficients.items())
        )
    )


def chain_boundary(chain: Chain, complex: SimplicialComplex) -> Chain:
    """Boundary of an integer chain, with alternating face signs."""
    if chain.degree < 1:
        return Chain(chain.degree - 1, {})
    out: dict[Simplex, int] = {}
    for cell, coeff in sorted(chain.coefficients.items()):
        if not complex.has_cell(cell):
            raise InvalidInputError(f"chain references unknown cell {cell}")
        for i in range(chain.degree + 1):
            face = cell[:i] + cell[i + 1 :]
            total = out.get(face, 0) + _deletion_sign(i) * coeff
            if total == 0:
                out.pop(face, None)
            else:
                out[face] = total
    return Chain(chain.degree - 1, out)


def fundamental_cycle(complex: SimplicialComplex) -> Chain:
    """A coherent top-degree cycle with coefficients +-1 and zero boundary.

    Requires a connected, closed, orientable complex: every codimension-1
    cell must lie in exactly two top cells and the propagated orientation
    must close up consistently.  The orientation is normalized so that the
    lexicographically smallest top cell carries +1.
    """
    d = complex.top_dimension
    if d < 1:
        raise StructuralError("complex has no top-dimensional cells to orient")
    tops = complex.cells(d)
    cofaces: dict[Simplex, list[tuple[Simplex, int]]] = collections.defaultdict(list)
    signs = [_deletion_sign(i) for i in range(d + 1)]
    for t in tops:
        for i, sign in enumerate(signs):
            cofaces[t[:i] + t[i + 1 :]].append((t, sign))
    for face, pair in cofaces.items():
        if len(pair) != 2:
            raise StructuralError(
                f"cell {face} lies in {len(pair)} top cells; not a closed manifold"
            )
    coefficients = {tops[0]: 1}
    queue = collections.deque([tops[0]])
    while queue:
        t = queue.popleft()
        ct = coefficients[t]
        for i in range(d + 1):
            (a, sa), (b, sb) = cofaces[t[:i] + t[i + 1 :]]
            other, s_other, s_this = (b, sb, sa) if a == t else (a, sa, sb)
            want = -ct * s_this * s_other
            known = coefficients.get(other)
            if known is None:
                coefficients[other] = want
                queue.append(other)
            elif known != want:
                raise StructuralError("complex is not orientable")
    if len(coefficients) != len(tops):
        raise StructuralError("top cells are not connected")
    return Chain(d, coefficients)


def boundary_matrix(complex: SimplicialComplex, dim: int) -> list[list[int]]:
    """Integer matrix of the boundary map from dim-cells to (dim-1)-cells."""
    rows = complex.cells(dim - 1)
    cols = complex.cells(dim)
    row_index = {s: i for i, s in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for i in range(dim + 1):
            matrix[row_index[s[:i] + s[i + 1 :]]][j] = _deletion_sign(i)
    return matrix
