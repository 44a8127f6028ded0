"""Oriented simplicial complexes with exact integer incidence arithmetic.

Every simplex is stored as a strictly increasing tuple of vertex ids and
carries the orientation induced by that order, so incidence signs are always
derived from vertex positions and never stored.  Cochain and chain values are
sparse maps keyed by simplex tuple; a missing key means the value is zero.

The face rule is written once, in ``_face_rows``: face a of a cell or Cech index
tuple drops entry a, with sign ``_deletion_sign(a)``.  It works on arrays:
``build`` checks and sorts each dimension as one (N, q + 1) int64 array, and
the table of a dimension or nerve layer is one search of its faces' row keys in
those of the rows below.  A row key (``_row_keys``) is one int64 per row, the
ids less their column minimum as digits in a mixed radix, re-ranked where the
radix would pass 2**63: keys sort as their rows do and are equal exactly when
their rows are, so every sort and search of id rows here and in ``cover`` is an
argsort or a searchsorted of keys.  Each complex keeps the rule's table,
``_faces``, which ``build`` computes as its closure check.

The walk is written once too: ``_walk`` orders a +-1 system of rows of any width,
breadth-first from the known nodes, a row solving its last unknown entry and the
lowest unknown node a root when it is stuck (a discrete Morse matching: Forman,
1998; Mrozek and Batko, 2009), and gives each step a round, one more than the
latest of the other entries of its row.  The complex keeps, per degree q, the walk
of d from the q-forms seeded with the q-cells that solved a step at degree q - 1
(``_order``), and for the degree the equivalence solve replays, the steps grouped
into rounds as arrays read from the face table (``_schedule``, a ``_Rounds``),
which ``_Rounds.replay`` solves with one numpy pass per round (level scheduling:
Anderson and Saad, 1989), each value by the float operations of a step-by-step replay.
The sparse dict sum is ``_merged``.
Connected components are ``_components``, by pointer jumping in numpy rounds.  The
orientation is their +-1 parities under partial c = 0 over the top cells, the lowest
top cell +1.  The good-cover check (``cover._betti``) collapses the free faces of
dimension 2 and up of all overlaps at once, in parallel rounds, and ranks partial_1
by the components of the surviving rows of ``_faces[1]``: 1.1 ms against 3.7 ms for
a Python union-find over the 18,432 edges of ``build_monopole(3072)``'s overlaps.

``boundary_matrix`` is the dense reference for the tests, which rank it with
``cover.integer_rank``; the library ranks sparse face rows instead.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sized

import numpy as np

from .errors import InvalidInputError, StructuralError, _expect

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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of an (N, k) integer array: keys compare as their rows
    do in lexicographic order, and two keys are equal exactly when their rows are.

    A column's ids less the column minimum, taken in int64 so that a narrow type
    does not wrap, are its digits in a mixed radix, and its span, max - min + 1,
    is their base.  Where the product of the bases would reach 2**63, a column
    whose span passes N is replaced by its ranks (``np.unique``), and if the
    product still would, so are the keys so far; a base is then at most N.
    Ranks keep order and equality, so the keys are exact for any ids: the
    columns of an object array, whose Python ints may not fit int64, are ranked.
    """
    keys, base = np.zeros(len(rows), np.int64), 1
    for column in rows.T if len(rows) else ():
        low = column.min()
        span = int(column.max()) - int(low) + 1
        if column.dtype == object or (base * span >= _INT64_END and span > len(rows)):
            distinct, column = np.unique(column, return_inverse=True)
            low, span = 0, len(distinct)
        if base * span >= _INT64_END:
            distinct, keys = np.unique(keys, return_inverse=True)
            base = len(distinct)
        keys, base = keys * span + np.subtract(column, low, dtype=np.int64), base * span
    return keys


def _search(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each wanted key is in the increasing ``keys``, and whether it is there:
    one searchsorted, whose positions past the last key are clipped to it."""
    at = np.searchsorted(keys, wanted)
    return at, keys.take(at, mode="clip") == wanted if len(keys) else np.zeros(len(at), bool)


def _lex_sorted(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows in lexicographic order, and where each equals the row before it."""
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")  # timsort, quick on the sorted runs of faces
    keys, repeats = keys[order], np.zeros(len(rows), bool)
    repeats[1:] = keys[1:] == keys[:-1]
    return rows[order], repeats


def _face_rows(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Row j holds, at index a, the position in ``lower`` of ``upper[j]`` less its entry a.

    ``upper`` is an (N, k) and ``lower`` an (M, k - 1) integer array whose rows are
    distinct and in lexicographic order, so the ``_row_keys`` of ``lower`` rise and
    one search of the faces' keys in them finds every face.  A face that is not a
    row of ``lower`` raises, named with the first row of ``upper`` that needs it.
    """
    faces, m = _faces_of(upper), len(lower)
    keys = _row_keys(np.concatenate([lower, faces]))
    found, equal = _search(keys[:m], keys[m:])
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


_REAL_TYPES = {float, int}  # types that ``_real`` takes; bool is not int by type


def _real(value, owner: str) -> float:
    """The value as a float; float() would take '1e-9' and True."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise InvalidInputError(f"{owner} {value!r}: must be a real number")


def _are_ids(values: Iterable) -> bool:
    """Whether ``_ids`` takes the values."""
    try:
        _ids(values, "")
    except InvalidInputError:
        return False
    return True


def _first_non_ids(cells: list[tuple], flat: list, plain: bool) -> int:
    """The position of the first cell ``_ids`` refuses, or len(cells); ``flat``
    holds the ids of all cells in order, and ``plain`` says whether each is of
    type int.

    The type rule is a rule on types, so one id of each type decides whether
    any cell is refused (plain ints, as files hold, at once); only then are the
    cells walked one by one.
    """
    if plain or _are_ids(dict(zip(map(type, flat), flat)).values()):
        return len(cells)
    return next(i for i, cell in enumerate(cells) if not _are_ids(cell))


def _id_keys(mapping: dict, owner: str) -> dict:
    """``mapping`` with each key read by ``_ids``'s rule, as a tuple of Python ints:
    the same dict when every key already is one, else a copy in the same order.

    As in ``_first_non_ids``, the rule is a rule on types, so one pass over the
    keys' and ids' types decides; only then are the keys read one by one, and
    the first that ``_ids`` refuses (True, 1.0, a bare int) is named with ``owner``.
    """
    flat = itertools.chain.from_iterable
    if {*map(type, mapping)} <= {tuple} and {*map(type, flat(mapping))} <= {int}:
        return mapping
    return {_ids(key, owner): value for key, value in mapping.items()}


def _id_array(flat: list, count: int, width: int) -> np.ndarray:
    """The first ``count`` cells of ``width`` ids each, from their ids in order,
    as a (count, width) array: int64, or Python ints if an id does not fit."""
    flat = flat[: count * width]
    try:
        return np.array(flat, np.int64).reshape(count, width)
    except OverflowError:
        return np.array(flat, object).reshape(count, width)


def _cell_tuples(cells: Iterable, owner: str) -> tuple[list, list[tuple]]:
    """The cells as a list and as tuples.  A list that is not iterable is refused,
    named with ``owner``; at the first cell that is not, the tuples end with
    ``(None,)``, a cell ``_ids`` refuses, so the list's first fault is named."""
    try:
        cells = list(cells)
    except TypeError:
        raise InvalidInputError(f"{owner} {cells!r}: expected a list of cells") from None
    try:
        return cells, list(map(tuple, cells))
    except TypeError:  # walk to the first cell that is not iterable
        tuples = []
        for cell in cells:
            try:
                tuples.append(tuple(cell))
            except TypeError:
                break
        return cells, tuples + [(None,)]


def _checked_rows(
    cells: Iterable[Iterable[int]], q: int, vertex_count: int
) -> tuple[np.ndarray, tuple[Simplex, ...]]:
    """The q-cells as one (N, q + 1) int64 array in lexicographic order, and as
    the tuple of their tuples of Python ints in that order.

    One pass over the ids applies ``_ids``'s type rule; array checks then cover
    length, strictly increasing ids, range and duplicates.  A refusal names
    the first bad cell in input order, with the first rule it breaks in that
    order; an id too large for int64 is out of range.  Cells already in order
    (files and ``from_top_cells`` give them so) are not sorted again, and when
    their ids are plain ints their own tuples are the table.
    """
    given, cells = _cell_tuples(cells, f"{q}-cells")
    flat = list(itertools.chain.from_iterable(cells))
    plain = {*map(type, flat)} <= {int}
    end = _first_non_ids(cells, flat, plain)
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
        s = _ids(given[end], "cell")  # refuses a cell whose ids are not integers
        raise InvalidInputError(f"{s} is not a {q}-cell")
    keys = _row_keys(rows)
    if (keys[1:] > keys[:-1]).all():
        return rows, tuple(cells) if plain else tuple(zip(*rows.T.tolist()))
    rows, repeats = _lex_sorted(rows)
    if repeats.any():
        raise InvalidInputError(f"duplicate {q}-cells")
    return rows, tuple(zip(*rows.T.tolist()))  # rows of Python ints


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
        table: dict[int, tuple[Simplex, ...]] = {}
        for q, cells in simplices_by_dim.items():
            (q,) = _ids((q,), "cell dimension")
            if q < 0:
                raise InvalidInputError("cell dimensions must be non-negative")
            found, tuples = _checked_rows(cells, q, vertex_count)
            if len(found):
                rows[q], table[q] = found, tuples
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
        top_cells, cells = _cell_tuples(top_cells, "top cells")
        flat = list(itertools.chain.from_iterable(cells))
        end = _first_non_ids(cells, flat, {*map(type, flat)} <= {int})
        lengths = np.fromiter(map(len, cells), np.intp, len(cells))
        distinct = np.fromiter(map(len, map(set, cells[:end])), np.intp, end)
        repeated = np.flatnonzero(distinct != lengths[:end])
        if repeated.size:
            raise InvalidInputError(f"cell {top_cells[repeated[0]]} has repeated vertices")
        if end < len(cells):
            _ids(top_cells[end], "cell")  # refuses a cell whose ids are not integers
        if not lengths.all():
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
        """The +-1 orientation in top-cell order by ``_components``; a StructuralError recurs."""
        d, tops = self.top_dimension, self.cells(self.top_dimension)
        if d < 1:
            raise StructuralError("complex has no top-dimensional cells to orient")
        pairs = _top_cofaces(self)  # row c(t) (-1)^a + c(t') (-1)^a' = 0 per face
        ends, signs = pairs // (d + 1), _deletion_sign(pairs % (d + 1))
        label, c = _components(len(tops), ends[:, 0], ends[:, 1], -signs[:, 0] * signs[:, 1])
        if label.any():  # a top cell whose lowest connected cell is not cell 0
            raise StructuralError("top cells are not connected")
        if (signs * c[ends]).sum(axis=1).any():
            raise StructuralError("complex is not orientable")
        return c.tolist()

    @cached_property
    def _orders(self) -> dict[int, tuple[list, list, list]]:
        """The walks of ``_order`` found so far, by degree."""
        return {}

    def _order(self, q: int) -> tuple[list, list, list]:
        """The walk of d eta = omega from the q-forms, as ``_walk``'s (steps, roots,
        rounds): a row per (q + 1)-cell, its faces with signs (-1)^a, seeded with the
        q-cells whose rows solved a step at degree q - 1, where eta = 0 is the gauge.
        A degree q < 0 is refused."""
        if q < 0:
            raise InvalidInputError(f"the walk of d needs a form degree q >= 0, got {q}")
        if q not in self._orders:
            seeds = [e for _, e in self._order(q - 1)[0]] if q else []
            faces = self._faces[q + 1].tolist() if q < self.top_dimension else []
            self._orders[q] = _walk(len(self.cells(q)), faces, seeds)
        return self._orders[q]

    @cached_property
    def _schedules(self) -> dict[int, "_Rounds"]:
        """The walks of ``_schedule`` grouped into rounds so far, by degree."""
        return {}

    def _schedule(self, q: int) -> "_Rounds":
        """The steps of ``_order(q)`` as arrays in round order, read from the face
        table, for ``_Rounds.replay``; made only for a degree that is replayed, not
        for the degrees below it, walked only for their seeds."""
        if q not in self._schedules:
            steps, _, rounds = self._order(q)
            faces = self._faces.get(q + 1, np.zeros((0, q + 2), np.int32))
            self._schedules[q] = _Rounds.of(len(self.cells(q)), steps, rounds, faces)
        return self._schedules[q]

    def has_cell(self, simplex: Iterable[int]) -> bool:
        """Whether the cell, read by ``_ids``'s rule, is one of the complex's."""
        simplex = _ids(simplex, "cell")
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
        degree = self.degree
        if type(degree) is not int:  # a plain int already is what _ids gives
            (degree,) = _ids((degree,), "cochain degree")
            object.__setattr__(self, "degree", degree)
        if degree < 0:
            raise InvalidInputError("cochain degree must be non-negative")
        values = self.values if type(self.values) is dict else _expect(self.values, dict, "values")
        # the rules are rules on lengths and types: one pass over each decides,
        # and only a fault walks the items to name its key
        try:
            fine = {*map(len, values)} <= {degree + 1}
        except TypeError:  # a key with no length
            fine = False
        if not (fine and {*map(type, values.values())} <= _REAL_TYPES):
            for s, value in values.items():
                if not (isinstance(s, Sized) and len(s) == degree + 1):
                    raise InvalidInputError(f"key {s} is not a {degree}-cell")
                _real(value, f"value at key {s}")

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


def _components(count: int, u: np.ndarray, v: np.ndarray, rel) -> tuple[np.ndarray, np.ndarray]:
    """Per node below ``count``, under edges (u, v) read as x[v] = rel x[u], rel = +-1:
    its label, the lowest node of its component, and its +-1 parity p, x = p x[label]
    along the edges that joined it; parities that disagree around a cycle are not checked.

    Pointer jumping (Shiloach and Vishkin, 1982): each round hooks every root onto the
    lowest root it shares an edge with, if lower, recording the edge's parity, and each
    node then jumps to its parent's parent, composing parities, until it is at its root.
    """
    root, parity = np.arange(count), np.ones(count, np.int8)
    while True:
        while ((up := root[root]) != root).any():
            parity, root = parity * parity[root], up  # jump
        a, b = root[u], root[v]
        cross = a != b
        if not cross.any():
            return root, parity
        a, b, rel_ab = a[cross], b[cross], (parity[u] * parity[v] * rel)[cross]
        low, high = np.minimum(a, b), np.maximum(a, b)
        np.minimum.at(root, high, low)  # hook
        hooked = root[high] == low
        parity[high[hooked]] = rel_ab[hooked]


def _walk(count: int, rows: list, seeds: Iterable[int] = ()) -> tuple[list, list, list]:
    """The order in which a peel solves a system of one equation per row of nodes out of
    ``count``, rows of any width: breadth-first from the known nodes, the ``seeds`` in
    increasing order first, a row whose entries but one the walk has passed solves that
    one if it is unknown; when the walk is stuck, the lowest unknown node is a root.
    Returns the (node, row) steps in order, the roots, and each step's round: one more
    than the latest round of the other entries of its row, the seeds and the roots
    being round 0, so a step reads only nodes known before its round (Anderson and
    Saad, 1989, level scheduling).  Rows left with no unknown entry are not checked."""
    around: list[list[int]] = [[] for _ in range(count)]
    for e, row in enumerate(rows):
        for u in row:
            around[u].append(e)
    left, known, steps, roots = list(map(len, rows)), [False] * count, [], []
    level, rounds = [0] * count, []
    queue, start, first = sorted(seeds), 0, True
    for v in queue:
        known[v] = True
    while True:
        for u in queue:
            after = level[u] + 1
            for e in around[u]:
                left[e] -= 1  # the row's entries not passed yet
                if left[e] == 1:
                    row = rows[e]
                    for v in row:
                        if not known[v]:
                            known[v] = True
                            queue.append(v)
                            steps.append((v, e))
                            # rounds rise along a breadth-first queue, so in the first
                            # pass that passes a node the others' latest is u's; later,
                            # an earlier pass's node may be later still (v's is 0 yet)
                            level[v] = r = after if first else max(map(level.__getitem__, row)) + 1
                            rounds.append(r)
                            break
        first = first and not queue
        while start < count and known[start]:
            start += 1
        if start == count:
            return steps, roots, rounds
        known[start], queue = True, [start]
        roots.append(start)


@dataclass(frozen=True, eq=False)
class _Rounds:
    """A walk's steps grouped by round, replayed with one numpy pass per round.

    The replay keeps one buffer z: first the value of each node ``nodes[i]``
    over ``signs[i]``, the sign of the row entry that solves it (1 where no step
    does), the steps' nodes first in round order; then each step's target,
    ``target[rows[i]]``.  Round r is z's slots ``bounds[r - 1]:bounds[r]``, and
    ``rounds[r - 1]`` is a (k, steps) array of the slots each step reads, its
    target and then the other entries of its row in row order, with their
    weights: 1 for the target, s over the sign of the entry's own step for an
    entry of sign s.  Sign flips are exact, so the target less each weighted
    term, in order, is bit for bit the step's sum before its own sign.  A step
    reads only slots of earlier rounds.
    """

    nodes: np.ndarray
    signs: np.ndarray
    rows: np.ndarray
    bounds: list[int]
    rounds: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, count: int, steps: list, rounds: list, faces: np.ndarray) -> "_Rounds":
        """The ``_walk`` steps and rounds over ``count`` nodes of the rows ``faces``,
        an (M, k) array whose entry a has sign (-1)^a."""
        n, k = len(steps), faces.shape[1]
        walk = np.fromiter(itertools.chain.from_iterable(steps), np.intp, 2 * n).reshape(n, 2)
        level = np.fromiter(rounds, np.intp, n)
        order = np.argsort(level, kind="stable")
        (nodes, rows), level = walk[order].T, level[order]
        unsolved = np.ones(count, bool)
        unsolved[nodes] = False
        nodes = np.concatenate([nodes, np.flatnonzero(unsolved)])
        slot = np.empty(count, np.intp)
        slot[nodes] = np.arange(count)
        entries, sign = faces[rows], _deletion_sign(np.arange(k)).astype(float)
        own = entries == nodes[:n, None]  # once per row: a row holds distinct nodes
        step, column = np.nonzero(~own)  # the other entries, in row order
        others = slot[entries[step, column]].reshape(n, k - 1).T
        signs = np.ones(count)
        signs[:n] = sign[own.argmax(axis=1)]
        # column i: the slots step i reads, its target's and then its other entries'
        reads, weights = np.empty((k, n), np.intp), np.empty((k, n))
        reads[0], reads[1:] = count + np.arange(n), others
        weights[0], weights[1:] = 1.0, sign[column].reshape(n, k - 1).T * signs[others]
        bounds = [0, *(np.flatnonzero(level[1:] != level[:-1]) + 1).tolist(), n] if n else [0]
        return cls(nodes, signs, rows, bounds, [
            (reads[:, a:b].copy(), weights[:, a:b].copy()) for a, b in itertools.pairwise(bounds)
        ])

    def replay(self, target: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x along the steps, in place: a step of node v and row e sets x[v] to its
        sign times ``target[e]`` less s x[w] for each other entry w, sign s, in row
        order, each element by the operations of a step-by-step replay; x holds the
        values of the nodes that no step solves."""
        z = np.concatenate([x[self.nodes] * self.signs, target[self.rows]])
        for (start, stop), (reads, weights) in zip(itertools.pairwise(self.bounds), self.rounds):
            np.subtract.reduce(weights * z.take(reads), axis=0, out=z[start:stop])
        x[self.nodes] = z[: len(x)] * self.signs
        return x


def fundamental_cycle(complex: SimplicialComplex) -> Chain:
    """A coherent top-degree cycle with coefficients +-1 and zero boundary.

    Requires a connected, closed, orientable complex: every codimension-1
    cell must lie in exactly two top cells, and the parities of ``_components``
    must satisfy every row of partial c = 0.  The orientation is normalized so that the
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
