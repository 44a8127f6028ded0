"""Open covers by vertex subsets: intersections, nerve, contractibility diagnostics.

The open set U_i is the subcomplex induced on a vertex subset; the overlap of
several sets is the subcomplex induced on their intersection.  A p-cochain
"on an overlap" is supported on cells all of whose vertices lie inside it.

One cell -> sets incidence owns the nerve.  A coordinate of a (q, n) cochain
is a pair (t, cell), t an n-subset of the sets that hold the cell, so layer n
is arrays, built on first use: its table of the distinct n-subsets of the
vertices' set lists, each higher cell's tuples as those its faces 0 and 1
share (``_meet``), and block (q, n) of (tuple id, cell id) pairs.  Layer 1 is
the incidence, which ``Cover.build`` checks; ``bicomplex`` reads its bases,
delta's nerve faces and the contraction's lowest set from these arrays.
Tuple i's q-cells are its run in block (q, n): ``Cover.overlap`` builds the
complex of one tuple from its runs on each call and keeps none.

The good-cover check builds no complex.  It ranks each distinct intersection
once, exactly over Q from its runs and the complex's face table (``_betti``):
the 13,824 nerve entries of the 144-set star cover of a 12x12 torus have
1,440 distinct intersections, ranked with 864 ``integer_rank`` calls.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Mapping  # isinstance on typing.Mapping costs about twice as much
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError
from .simplicial import SimplicialComplex, _deletion_sign, _ids


def _meet(faces: np.ndarray, starts: np.ndarray, held: np.ndarray, count: int) -> tuple:
    """Per cell of a face table, the ids its faces 0 and 1 both hold: face f holds
    held[starts[f] : starts[f + 1]], increasing ids below ``count``, and the
    cells' lists come out in that form.  One search of (face, id) keys tests
    each id of face 0 against face 1."""
    widths, first, second = np.diff(starts), faces[:, 0], faces[:, 1].astype(np.intp)
    keys, wide = np.repeat(np.arange(len(widths)), widths) * count + held, widths[first]  # keys sorted
    cells, ends = np.repeat(np.arange(len(faces)), wide), np.cumsum(wide)
    ids = held[np.arange(len(cells)) + np.repeat(starts[first] - ends + wide, wide)]
    wanted = second[cells] * count + ids
    both = keys[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)] == wanted
    return np.searchsorted(cells[both], np.arange(len(faces) + 1)), ids[both]


class _Layer(NamedTuple):
    """Layer n: its ``table``, (L, n) int64 in lexicographic order, as ``tuples`` too;
    per q, ``held[q]`` lists (starts, ids) the tuples that hold each q-cell, and
    ``blocks[q]`` has the pairs as (tuple id, cell id) int32, by tuple then cell."""

    table: np.ndarray
    tuples: list[tuple[int, ...]]
    held: list[tuple[np.ndarray, np.ndarray]]
    blocks: list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Cover:
    """A cover of a complex by vertex subsets.

    Valid covers list every vertex in at least one set and fit every cell of
    the complex inside at least one set, so that cochain data on the sets and
    their intersections can represent any local quantity.
    """

    complex: SimplicialComplex
    sets: tuple[frozenset[int], ...]

    @classmethod
    def build(
        cls, complex: SimplicialComplex, sets: Sequence[Iterable[int]]
    ) -> "Cover":
        fsets = tuple(frozenset(_ids(s, f"cover set {i}")) for i, s in enumerate(sets))
        if not fsets:
            raise InvalidInputError("a cover needs at least one set")
        vertices = complex.vertices
        for i, s in enumerate(fsets):
            unknown = s - vertices
            if unknown:
                raise InvalidInputError(
                    f"cover set {i} names unknown vertices {sorted(unknown)}"
                )
        missing = vertices - frozenset().union(*fsets)
        if missing:
            raise InvalidInputError(f"vertices {sorted(missing)} are not covered")
        cover = cls(complex, fsets)
        for q, (starts, _) in enumerate(cover._layer_arrays(1).held):  # the incidence
            if not (widths := np.diff(starts)).all():  # argmin: the first cell in no set
                raise InvalidInputError(f"cell {complex.cells(q)[widths.argmin()]} lies in no cover set")
        return cover

    @cached_property
    def _nerve(self) -> dict[int, _Layer]:
        """The layers built so far; layer 0 is the one tuple (), held by every cell."""
        cells = map(len, map(self.complex.cells, range(self.complex.top_dimension + 1)))
        blocks = [(np.zeros(c, np.int32), np.arange(c, dtype=np.int32)) for c in cells]
        return {0: _Layer(np.zeros((1, 0), np.int64), [()], [], blocks)}

    @cached_property
    def _vertex_sets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each vertex's sets, in increasing order, once per cover: (sets, widths,
        starts), vertex i's at sets[starts[i] : starts[i] + widths[i]].  The members
        are placed by a search of the 0-cell ids, which may be sparse, so no array
        follows ``vertex_count``."""
        complex = self.complex
        ids = complex._rows[0][:, 0] if complex._rows else np.zeros(0, np.int64)
        vertex = np.searchsorted(ids, np.fromiter(itertools.chain.from_iterable(self.sets), np.int64))
        sets = np.repeat(np.arange(len(self.sets)), list(map(len, self.sets)))
        sets, widths = sets[np.argsort(vertex, kind="stable")], np.bincount(vertex, minlength=len(ids))
        return sets, widths, np.cumsum(widths) - widths

    def _layer_arrays(self, n: int) -> _Layer:
        """Layer n, built on first use: the table is the distinct n-subsets of
        the vertices' set lists (``_vertex_sets``)."""
        if n not in self._nerve:
            complex, (sets, widths, starts) = self.complex, self._vertex_sets
            rows, cells = [np.zeros((0, n), np.int64)], [np.zeros(0, np.intp)]
            for m in (np.flatnonzero(np.bincount(widths)[n:]) + n).tolist():
                owners = np.flatnonzero(widths == m)  # the vertices in m sets, at once
                picks = np.array(list(itertools.combinations(range(m), n)), np.intp).reshape(-1, n)
                rows.append(sets[starts[owners, None, None] + picks].reshape(-1, n))
                cells.append(np.repeat(owners, len(picks)))
            rows, cells = np.concatenate(rows), np.concatenate(cells)
            order = np.lexsort((cells, *rows.T[::-1]))  # by tuple, then by vertex
            rows, cells, new = rows[order], cells[order], np.ones(len(rows), bool)
            new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            table, tuples, by_vertex = rows[new], np.cumsum(new) - 1, np.argsort(cells, kind="stable")
            held = [(np.searchsorted(cells[by_vertex], np.arange(len(widths) + 1)), tuples[by_vertex])]
            for q in range(1, complex.top_dimension + 1):  # the tuples its faces 0 and 1 share
                held.append(_meet(complex._faces[q], *held[-1], len(table)))
            blocks = []
            for starts, tuples in held:
                order = np.argsort(tuples, kind="stable")
                cells = np.repeat(np.arange(len(starts) - 1), np.diff(starts))[order]
                blocks.append((tuples[order].astype(np.int32), cells.astype(np.int32)))
            self._nerve[n] = _Layer(table, list(zip(*table.T.tolist())), held, blocks)
        return self._nerve[n]

    def overlap(self, indices: Iterable[int]) -> SimplicialComplex:
        """The overlap of the sets in any order: the complex itself for (), the empty
        complex for a tuple outside the nerve.  Only this overlap is built, from the
        tuple's runs in the blocks, on each call."""
        t = _ids(indices, "cover indices")
        if len(set(t)) != len(t):
            raise InvalidInputError(f"repeated cover index in {t}")
        for i in t:
            if not 0 <= i < len(self.sets):
                raise InvalidInputError(f"cover index {i} out of range")
        if not t:
            return self.complex
        layer, t = self._layer_arrays(len(t)), tuple(sorted(t))
        i = bisect.bisect_left(layer.tuples, t)
        if layer.tuples[i : i + 1] != [t]:
            return SimplicialComplex(self.complex.vertex_count, {}, -1)
        runs = (cells[slice(*np.searchsorted(ids, (i, i + 1)))] for ids, cells in layer.blocks)
        named = self.complex.cells
        table = {q: tuple(map(named(q).__getitem__, run.tolist())) for q, run in enumerate(runs) if run.size}
        return SimplicialComplex(self.complex.vertex_count, table, max(table))

    @cached_property
    def _operators(self) -> dict[tuple[str, int], object]:
        """``bicomplex``'s flat bases and sparse D per total degree, built on first use."""
        return {}

    def nerve(self) -> tuple[tuple[int, ...], ...]:
        """All increasing index tuples with a nonempty overlap, in lexicographic
        order: every layer's table, exponential in the number of sets sharing a
        vertex, and no overlap; only ``demo`` reads it."""
        layers = (self._layer_arrays(n).tuples for n in itertools.count(1))
        return tuple(sorted(itertools.chain.from_iterable(itertools.takewhile(len, layers))))


def integer_rank(matrix: Iterable[Sequence[int] | Mapping[int, int]]) -> int:
    """Rank over the rationals by sparse Gaussian elimination in exact arithmetic.

    Each row is a dense sequence of values or a {column: value} mapping of
    its nonzeros.  It becomes a dict of its nonzeros and is reduced at its
    first nonzero column against the pivot row stored for that column, until
    it is zero or becomes the pivot row of a column that has none.  Nonzero
    entries must be Python or numpy integers.
    """
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for r, given in enumerate(matrix):
        entries = given.items() if isinstance(given, Mapping) else enumerate(given)
        try:
            row = {c: operator.index(v) for c, v in entries if v}
        except TypeError:  # operator.index takes exactly the types with __index__
            entries = given.items() if isinstance(given, Mapping) else enumerate(given)
            c, v = next((c, v) for c, v in entries if v and not hasattr(v, "__index__"))
            raise InvalidInputError(f"matrix entry ({r}, {c}) is {v!r}, not an integer") from None
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            factor = Fraction(row[col], pivot[col])
            if factor.denominator == 1:  # keeps +-1 incidence rows in plain ints
                factor = factor.numerator
            for c, v in pivot.items():
                left = row.get(c, 0) - factor * v
                if left:
                    row[c] = left
                else:
                    del row[c]
    return len(pivots)


def _spanning_forest_size(edges: Iterable[tuple[int, int]]) -> int:
    """The number of edges in a spanning forest of the graph: #vertices less
    #components, which is the rank over Q of its oriented incidence matrix."""
    root: dict[int, int] = {}  # a vertex absent from it is a root

    def find(v: int) -> int:
        while (up := root.get(v)) is not None:  # path halving
            root[v] = root.get(up, up)
            v = root[v]
        return v

    joined = 0
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            joined += 1
    return joined


def _betti(faces: dict[int, list], runs: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Betti numbers b_0..b_max(2, top) over Q of the subcomplex whose q-cells
    are the ids runs[q], nonempty up to its top dimension, read in ``faces``,
    the complex's ``_faces`` as lists.  Rank partial_1 is the size of a spanning
    forest of the edges; each higher boundary goes to ``integer_rank`` as one
    sparse row per cell, {face id: (-1)^a}; above the top dimension it is 0.
    """
    top = len(runs) - 1
    up_to = max(2, top)
    counts = [len(run) for run in runs] + [0] * (up_to + 1 - top)
    ranks = [0] * (up_to + 2)
    if top >= 1:
        ranks[1] = _spanning_forest_size(map(faces[1].__getitem__, runs[1]))
    for q in range(2, top + 1):
        signs = [_deletion_sign(a) for a in range(q + 1)]
        ranks[q] = integer_rank([dict(zip(faces[q][c], signs)) for c in runs[q]])
    return tuple(counts[q] - ranks[q] - ranks[q + 1] for q in range(up_to + 1))


def betti_numbers(complex: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers b_0..b_max(2, top dimension) over Q from exact sparse
    boundary ranks: ``_betti`` on all the cells."""
    faces = {q: rows.tolist() for q, rows in complex._faces.items()}
    return _betti(faces, [range(len(complex.cells(q))) for q in range(complex.top_dimension + 1)])


@dataclass(frozen=True, slots=True)  # no __dict__ for the collector to track per entry
class OverlapDiagnostic:
    indices: tuple[int, ...]
    betti: tuple[int, ...]
    contractible: bool

    @property
    def status(self) -> str:
        return "OK" if self.contractible else "WARN"


@dataclass(frozen=True)
class GoodCoverReport:
    """Per-overlap acyclicity diagnostics; warnings, never errors."""

    entries: tuple[OverlapDiagnostic, ...]

    @property
    def warnings(self) -> tuple[OverlapDiagnostic, ...]:
        return tuple(e for e in self.entries if not e.contractible)

    @property
    def all_contractible(self) -> bool:
        return not self.warnings


def check_good_cover(cover: Cover) -> GoodCoverReport:
    """Check each nonempty overlap for acyclicity: b0 = 1 and every higher b = 0.

    Betti numbers are computed up to the overlap's top dimension, and at least
    to b2.  Failures are reported with WARN status only: an overlap that is
    not contractible still carries usable data, it just falls outside the
    good-cover setting.  Each layer's arrays are read once, its tuples
    grouped by their vertex runs, and each distinct intersection ranked once
    from its runs (``_betti``); the entries are one per nerve tuple, in
    lexicographic order.
    """
    faces = {q: rows.tolist() for q, rows in cover.complex._faces.items()}
    entries, known, n = [], {}, 1
    while (arrays := cover._layer_arrays(n)).tuples:
        # per q, block (q, n)'s cell ids and where each tuple's run starts in them
        ends = np.arange(len(arrays.tuples) + 1)
        runs = [(cells.tolist(), np.searchsorted(ids, ends).tolist()) for ids, cells in arrays.blocks]
        vertices, at = runs[0]
        for i, t in enumerate(arrays.tuples):
            key = tuple(vertices[at[i] : at[i + 1]])
            found = known.get(key)
            if found is None:  # slice the higher runs only for a new intersection
                b = _betti(faces, [cells[s[i] : s[i + 1]] for cells, s in runs if s[i] < s[i + 1]])
                found = known[key] = (b, b == (1,) + (0,) * (len(b) - 1))
            entries.append(OverlapDiagnostic(t, *found))
        n += 1
    # each layer is in lexicographic order, so the sort merges one run per layer
    entries.sort(key=operator.attrgetter("indices"))
    return GoodCoverReport(tuple(entries))
