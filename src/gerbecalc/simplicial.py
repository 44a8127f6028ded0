"""Oriented simplicial complexes with exact integer incidence arithmetic.

Every simplex is stored as a strictly increasing tuple of vertex ids and
carries the orientation induced by that order, so incidence signs are always
derived from vertex positions and never stored.  Cochain and chain values are
sparse maps keyed by simplex tuple; a missing key means the value is zero.

The face rule is written once, in ``_face_rows``: face a of a cell or Cech index
tuple drops entry a, with sign ``_deletion_sign(a)``.  It works on arrays:
``build`` checks and sorts each dimension as one (N, q + 1) int64 array, and
the table of a dimension or nerve layer comes from one stable sort of its faces
with the rows below.  Each complex keeps the rule's table, ``_faces``, which
``build`` computes as its closure check.

The walk is written once too: ``_walk`` orders a +-1 system of rows of any width,
breadth-first from the known nodes, a row solving its last unknown entry and the
lowest unknown node a root when it is stuck (a discrete Morse matching: Forman,
1998; Mrozek and Batko, 2009), and ``_replay`` solves along that order.  The
orientation is partial c = 0 over the top cells, kept as the walk's +-1 list; the
complex keeps, per degree q, the walk of d from the q-forms seeded with the q-cells
that solved a step at degree q - 1 (``_order``), which the equivalence solve replays.
The sparse dict sum is ``_merged``.
The good-cover check (``cover._betti``) ranks partial_1 by a union-find over rows
of ``_faces[1]``, not by the walk: 2.1-3.4 ms per check of the 144-set star cover
(1,440 overlaps) against 6.4-8.7 ms for the walk, which also needs local ids.

``boundary_matrix`` is the dense reference for the tests, which rank it with
``cover.integer_rank``; the library ranks sparse face rows instead.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidInputError, StructuralError

Simplex = tuple[int, ...]

_INT64_END = 2**63  # ids from here on do not fit an int64 array

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


def _deletion_sign(i: int | np.ndarray) -> int | np.ndarray:
    """(-1)^i, the sign of the face that deletes position i, also elementwise on arrays."""
    return 1 - 2 * (i % 2)


def _merged(mine: dict, theirs: dict, vanishes) -> dict:
    """The sparse dict sum: ``mine`` plus ``theirs`` by key, less each key whose sum vanishes."""
    merged = dict(mine)
    for key, value in theirs.items():
        total = merged[key] + value if key in merged else value
        if vanishes(total):
            merged.pop(key, None)
        else:
            merged[key] = total
    return merged


def _faces_of(rows: np.ndarray) -> np.ndarray:
    """Row j * k + a is ``rows[j]`` less its entry a, for an (N, k) array."""
    n, k = rows.shape
    drop = np.array([[b for b in range(k) if b != a] for a in range(k)], np.intp)
    return rows[:, drop.reshape(k, k - 1)].reshape(n * k, k - 1)


def _lex_sorted(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows in lexicographic order, and where each equals the row before it."""
    rows = rows[np.lexsort(rows.T[::-1])]
    repeats = np.zeros(len(rows), bool)
    repeats[1:] = (rows[1:] == rows[:-1]).all(axis=1)
    return rows, repeats


def _face_rows(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Row j holds, at index a, the position in ``lower`` of ``upper[j]`` less its entry a.

    ``upper`` is an (N, k) and ``lower`` an (M, k - 1) integer array whose rows are
    distinct and in lexicographic order.  One stable sort of the rows of ``lower``
    followed by the faces puts each face after the lower row equal to it, so the
    last lower row at or before a face is the only one it can equal.  A face that
    is not a row of ``lower`` raises, named with the first row of ``upper`` that
    needs it.
    """
    faces, m = _faces_of(upper), len(lower)
    both = np.concatenate([lower, faces])
    # lexsort needs a key; rows of no entries are all equal, already in order
    order = np.lexsort(both.T[::-1]) if both.shape[1] else np.arange(len(both))
    found = np.empty(len(both), np.intp)
    found[order] = np.maximum.accumulate(np.where(order < m, order, -1))
    found = found[m:]
    equal = found >= 0
    equal[equal] = (lower[found[equal]] == faces[equal]).all(axis=1)
    missing = np.flatnonzero(~equal)
    if missing.size:
        face, cell = faces[missing[0]], upper[missing[0] // upper.shape[1]]
        raise InvalidInputError(f"face {tuple(face.tolist())} of {tuple(cell.tolist())} is missing")
    return found.astype(np.int32).reshape(upper.shape)


def _ids(values: Iterable, owner: str) -> tuple[int, ...]:
    """The values as Python ints; int() would truncate 0.5 and take '1' or True."""
    try:
        values = tuple(values)
    except TypeError:  # not iterable, so not a list of ids
        raise InvalidInputError(f"{owner} {values!r}: ids must be integers") from None
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:  # operator.index takes exactly the types with __index__
            pass
    raise InvalidInputError(f"{owner} {values}: ids must be integers")


def _are_ids(values: Iterable) -> bool:
    """Whether ``_ids`` takes the values."""
    try:
        _ids(values, "")
    except InvalidInputError:
        return False
    return True


def _first_non_ids(cells: list[tuple], flat: list) -> int:
    """The position of the first cell ``_ids`` refuses, or len(cells); ``flat``
    holds the ids of all cells in order.

    The type rule is a rule on types, so one id of each type decides whether
    any cell is refused (plain ints, as files hold, at once); only then are the
    cells walked one by one.
    """
    if {*map(type, flat)} <= {int} or _are_ids(dict(zip(map(type, flat), flat)).values()):
        return len(cells)
    return next(i for i, cell in enumerate(cells) if not _are_ids(cell))


def _id_array(flat: list, count: int, width: int) -> np.ndarray:
    """The first ``count`` cells of ``width`` ids each, from their ids in order,
    as a (count, width) array: int64, or Python ints if an id does not fit."""
    flat = flat[: count * width]
    try:
        return np.array(flat, np.int64).reshape(count, width)
    except OverflowError:
        return np.array(flat, object).reshape(count, width)


def _checked_rows(cells: Iterable[Iterable[int]], q: int, vertex_count: int) -> np.ndarray:
    """The q-cells as one (N, q + 1) int64 array in lexicographic order.

    One pass over the ids applies ``_ids``'s type rule; array checks then cover
    length, strictly increasing ids, range and duplicates.  A refusal names
    the first bad cell in input order, with the first rule it breaks in that
    order; an id too large for int64 is out of range.
    """
    cells = list(map(tuple, cells))
    flat = list(itertools.chain.from_iterable(cells))
    end = _first_non_ids(cells, flat)
    lengths = np.fromiter(map(len, cells[:end]), np.intp, end)
    short = np.flatnonzero(lengths != q + 1)
    end = int(short[0]) if short.size else end
    rows = _id_array(flat, end, q + 1)
    increasing = (rows[:, 1:] > rows[:, :-1]).all(axis=1)
    inside = (rows[:, 0] >= 0) & (rows[:, -1] < min(vertex_count, _INT64_END))
    bad = np.flatnonzero(~(increasing & inside))
    if bad.size:
        s = _ids(cells[bad[0]], "cell")
        if not increasing[bad[0]]:
            raise InvalidInputError(f"cell {s}: vertex ids must be strictly increasing")
        raise InvalidInputError(f"cell {s}: vertex id out of range")
    if end < len(cells):
        s = _ids(cells[end], "cell")  # refuses a cell whose ids are not integers
        raise InvalidInputError(f"{s} is not a {q}-cell")
    rows, repeats = _lex_sorted(rows)
    if repeats.any():
        raise InvalidInputError(f"duplicate {q}-cells")
    return rows


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
        (vertex_count,) = _ids((vertex_count,), "vertex_count")
        if vertex_count < 0:
            raise InvalidInputError("vertex_count must be non-negative")
        rows: dict[int, np.ndarray] = {}
        for q, cells in simplices_by_dim.items():
            (q,) = _ids((q,), "cell dimension")
            if q < 0:
                raise InvalidInputError("cell dimensions must be non-negative")
            found = _checked_rows(cells, q, vertex_count)
            if len(found):
                rows[q] = found
        table = {q: tuple(zip(*r.T.tolist())) for q, r in rows.items()}  # rows of Python ints
        complex = cls(vertex_count, table, max(table, default=-1))
        # the cached property, filled with the arrays just checked
        vars(complex)["_rows"] = {
            q: rows.get(q, np.zeros((0, q + 1), np.int64)) for q in range(complex.top_dimension + 1)
        }
        complex._faces  # the closure check: a face that is not listed raises here
        if closed_manifold and complex.top_dimension < 1:
            raise StructuralError("a closed manifold needs top dimension >= 1")
        if closed_manifold:
            _top_cofaces(complex)  # raises unless each codimension-1 cell lies in two top cells
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
        top_cells = list(top_cells)
        cells = list(map(tuple, top_cells))
        flat = list(itertools.chain.from_iterable(cells))
        end = _first_non_ids(cells, flat)
        lengths = np.fromiter(map(len, cells), np.intp, len(cells))
        distinct = np.fromiter(map(len, map(set, cells[:end])), np.intp, end)
        repeated = np.flatnonzero(distinct != lengths[:end])
        if repeated.size:
            raise InvalidInputError(f"cell {top_cells[repeated[0]]} has repeated vertices")
        if end < len(cells):
            _ids(cells[end], "cell")  # refuses a cell whose ids are not integers
        if not lengths.all():  # np.lexsort would take no keys
            raise InvalidInputError(f"cell {top_cells[lengths.argmin()]} has no vertices")
        if not cells:
            return cls.build(vertex_count, {})
        if (lengths != lengths[0]).any():
            raise InvalidInputError("top cells must all share one dimension")
        top = int(lengths[0]) - 1
        rows, repeats = _lex_sorted(np.sort(_id_array(flat, len(cells), top + 1), axis=1))
        table = {top: rows[~repeats]}
        for q in range(top, 0, -1):
            rows, repeats = _lex_sorted(_faces_of(table[q]))
            table[q - 1] = rows[~repeats]
        return cls.build(
            vertex_count, {q: r.tolist() for q, r in table.items()}, closed_manifold=closed_manifold
        )

    def cells(self, dim: int) -> tuple[Simplex, ...]:
        return self.simplices.get(dim, ())

    @cached_property
    def _positions(self) -> dict[int, dict[Simplex, int]]:
        return {q: dict(zip(cs, range(len(cs)))) for q, cs in self.simplices.items()}

    def cell_positions(self, dim: int) -> dict[Simplex, int]:
        """Each dim-cell mapped to its position in ``cells(dim)``."""
        return self._positions.get(dim, {})

    def _cell_ids(self, dim: int, cells: list) -> np.ndarray:
        """The position of each cell in ``cells(dim)``, or len(cells(dim)) where there is none."""
        lacking = itertools.repeat(len(self.cells(dim)))
        return np.fromiter(map(self.cell_positions(dim).get, cells, lacking), np.intp, len(cells))

    @cached_property
    def _rows(self) -> dict[int, np.ndarray]:
        """For each q up to the top dimension, ``cells(q)`` as an (N, q + 1) int64 array."""
        return {
            q: np.array(self.cells(q), np.int64).reshape(-1, q + 1)
            for q in range(self.top_dimension + 1)
        }

    @cached_property
    def _faces(self) -> dict[int, np.ndarray]:
        """For each q >= 1, ``_face_rows`` of ``cells(q)`` into ``cells(q - 1)``, in int32."""
        return {q: _face_rows(self._rows[q], self._rows[q - 1]) for q in range(1, self.top_dimension + 1)}

    @cached_property
    def _cycle(self) -> list[int]:
        """The walk's +-1 orientation in top-cell order; a StructuralError recurs."""
        d, tops = self.top_dimension, self.cells(self.top_dimension)
        if d < 1:
            raise StructuralError("complex has no top-dimensional cells to orient")
        pairs = _top_cofaces(self)  # row c(t) (-1)^a + c(t') (-1)^a' = 0 per face
        ends, signs = pairs // (d + 1), _deletion_sign(pairs % (d + 1))
        rows = ends.tolist()
        steps, roots = _walk(len(tops), rows)
        if len(roots) > 1:
            raise StructuralError("top cells are not connected")
        c = _replay(steps, rows, signs.tolist(), [0] * len(pairs), [1] * len(tops))  # root 1
        if (signs * np.array(c)[ends]).sum(axis=1).any():
            raise StructuralError("complex is not orientable")
        return c

    @cached_property
    def _orders(self) -> dict[int, tuple[list, list, list, list]]:
        """The walks of ``_order`` found so far, by degree."""
        return {}

    def _order(self, q: int) -> tuple[list, list, list, list]:
        """The walk of d eta = omega from the q-forms, as (steps, roots, rows, signs) for
        ``_replay``: a row per (q + 1)-cell, its faces with signs (-1)^a, seeded with the
        q-cells whose rows solved a step at degree q - 1, where eta = 0 is the gauge."""
        if q not in self._orders:
            seeds = [e for _, e in self._order(q - 1)[0]] if q else []
            faces = self._faces[q + 1].tolist() if q < self.top_dimension else []
            signs = [[_deletion_sign(a) for a in range(q + 2)]] * len(faces)
            self._orders[q] = (*_walk(len(self.cells(q)), faces, seeds), faces, signs)
        return self._orders[q]

    def has_cell(self, simplex: Simplex) -> bool:
        return simplex in self._positions.get(len(simplex) - 1, ())

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(s[0] for s in self.cells(0))


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
        return Cochain(self.degree, _merged(self.values, other.values, lambda v: v == 0.0))

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
    q = chain.degree
    if q < 1:
        return Chain(q - 1, {})
    positions, lower, out = complex.cell_positions(q), complex.cells(q - 1), {}
    for cell, coeff in sorted(chain.coefficients.items()):
        if cell not in positions:
            raise InvalidInputError(f"chain references unknown cell {cell}")
        for i, f in enumerate(complex._faces[q][positions[cell]].tolist()):
            face = lower[f]
            total = out.get(face, 0) + _deletion_sign(i) * coeff
            if total == 0:
                out.pop(face, None)
            else:
                out[face] = total
    return Chain(q - 1, out)


def _top_cofaces(complex: SimplicialComplex) -> np.ndarray:
    """Per codimension-1 cell, its two entries e of ``_faces[d]`` (face e % (d + 1) of top
    cell e // (d + 1)); StructuralError unless each such cell lies in two top cells."""
    d = complex.top_dimension
    entries = complex._faces[d].ravel()
    counts = np.bincount(entries, minlength=len(complex.cells(d - 1)))
    if (counts != 2).any():
        f = np.flatnonzero(counts != 2)[0]
        face, count = complex.cells(d - 1)[f], counts[f]
        raise StructuralError(f"cell {face} lies in {count} top cells; need exactly 2")
    return np.argsort(entries, kind="stable").reshape(-1, 2)


def _walk(count: int, rows: list, seeds: Iterable[int] = ()) -> tuple[list, list]:
    """The order in which a peel solves a system of one equation per row of nodes out of
    ``count``, rows of any width: breadth-first from the known nodes, the ``seeds`` in
    increasing order first, a row whose entries but one the walk has passed solves that
    one if it is unknown; when the walk is stuck, the lowest unknown node is a root.
    Returns the (node, row) steps in order and the roots.  Rows left with no unknown
    entry are not checked."""
    around: list[list[int]] = [[] for _ in range(count)]
    for e, row in enumerate(rows):
        for u in row:
            around[u].append(e)
    left, known, steps, roots = list(map(len, rows)), [False] * count, [], []
    queue, start = sorted(seeds), 0
    for v in queue:
        known[v] = True
    while True:
        for u in queue:
            for e in around[u]:
                left[e] -= 1  # the row's entries not passed yet
                if left[e] == 1:
                    for v in rows[e]:
                        if not known[v]:
                            known[v] = True
                            queue.append(v)
                            steps.append((v, e))
                            break
        while start < count and known[start]:
            start += 1
        if start == count:
            return steps, roots
        known[start], queue = True, [start]
        roots.append(start)


def _replay(steps: list, rows: list, signs: list, target: list, x: list) -> list:
    """x along ``_walk``'s steps, in place: step (v, e) solves
    sum_a signs[e][a] x[rows[e][a]] = target[e] for x[v], taking the other terms in
    row order; x holds the values of the seeds and the roots."""
    for v, e in steps:
        total = target[e]
        for w, s in zip(rows[e], signs[e]):
            if w == v:
                sign = s
            else:
                total -= s * x[w]
        x[v] = sign * total
    return x


def fundamental_cycle(complex: SimplicialComplex) -> Chain:
    """A coherent top-degree cycle with coefficients +-1 and zero boundary.

    Requires a connected, closed, orientable complex: every codimension-1
    cell must lie in exactly two top cells and the propagated orientation
    must close up consistently.  The orientation is normalized so that the
    lexicographically smallest top cell carries +1.  The complex keeps its
    +-1 list once found; each call builds a fresh chain from it.
    """
    d = complex.top_dimension
    return Chain(d, dict(zip(complex.cells(d), complex._cycle)))


def boundary_matrix(complex: SimplicialComplex, dim: int) -> list[list[int]]:
    """Integer matrix of the boundary map from dim-cells to (dim-1)-cells."""
    rows = complex.cells(dim - 1)
    cols = complex.cells(dim)
    # Faces by per-tuple slicing, not complex._faces or _face_rows: this dense
    # matrix is the reference the tests compare the good-cover check's sparse
    # ranks with, so it shares no face lookup with them.
    position = {s: i for i, s in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for a in range(dim + 1):
            matrix[position[s[:a] + s[a + 1 :]]][j] = _deletion_sign(a)
    return matrix
