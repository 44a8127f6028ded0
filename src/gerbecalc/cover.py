"""Open covers by vertex subsets: intersections, nerve, contractibility diagnostics.

The open set U_i is the subcomplex induced on a vertex subset; the overlap of
several sets is the subcomplex induced on their intersection.  A p-cochain
"on an overlap" is supported on cells all of whose vertices lie inside it.

One cell -> sets incidence owns the nerve.  A coordinate of a (q, n) cochain
is a pair (t, cell), t an n-subset of the sets that hold the cell, so layer n
is arrays, built on first use: its table of the distinct n-subsets of the
vertices' set lists and its vertex block, made by one sort.  The incidence has
one form, block (q, n): the (tuple id, cell id) pairs, by tuple then cell.
Above the vertices a block is made only when first read (``_Layer``), from the
block one dimension lower: each higher cell's tuples are those its faces 0 and
1 share (``_meet``).  Layer 1 is the incidence, whose every cell ``Cover.build``
checks has a set; ``bicomplex`` reads its bases, delta's nerve faces and the
contraction's lowest set from these arrays.  Tuple i's q-cells are its run in
block (q, n): ``Cover.overlap`` builds the complex of one tuple from its runs
on each call and keeps none.

The good-cover check builds no complex and reads no layer above its vertex
block.  One numpy pass groups the tuples of all layers by their vertex runs
(``_group_runs``: a seeded sum per run, then an exact comparison), and the
distinct intersections' own (owner, vertex) pairs give their cells through
``_meet``.  ``_betti`` certifies them all in one batch: parallel collapses
of free faces remove the cells of dimension 2 and up, the connected components
of the edges left (``simplicial._components``) give b0 and b1, and
``integer_rank`` ranks only the cells of dimension 2 and up that no collapse
reaches.  The 13,824 nerve entries of the 144-set star cover of a 12x12 torus
have 1,440 distinct intersections, every one certified with no ``integer_rank``
call, and no Python step is taken per entry beyond making it.
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

from .errors import InvalidInputError, _expect
from .simplicial import SimplicialComplex, _components, _deletion_sign, _ids


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """The stable argsort of nonnegative ids, sorted as the smallest unsigned type
    that holds them: numpy sorts 8- and 16-bit keys by radix."""
    return np.argsort(ids.astype(np.min_scalar_type(int(ids.max(initial=0)))), kind="stable")


def _meet(complex: SimplicialComplex, q: int, owners: np.ndarray, cells: np.ndarray, count: int) -> tuple:
    """The (owner id, cell id) pairs of the q-cells, from those of the (q - 1)-cells:
    a q-cell is held by the owners below ``count`` that its faces 0 and 1 both
    hold.  The pairs are int32, by owner then cell, in and out.  A stable sort by
    cell lists each face's owners in increasing order, at held[starts[f] :
    starts[f] + widths[f]], and one search of (face, owner) keys tests each
    owner of face 0 against face 1."""
    faces, order = complex._faces[q], _stable_order(cells)
    held, widths = owners[order], np.bincount(cells, minlength=len(complex.cells(q - 1)))
    starts, first, second = np.cumsum(widths) - widths, faces[:, 0], faces[:, 1].astype(np.intp)
    keys, wide = np.repeat(np.arange(len(widths)), widths) * count + held, widths[first]  # keys sorted
    tops, ends = np.repeat(np.arange(len(faces)), wide), np.cumsum(wide)
    ids = held[np.arange(len(tops)) + np.repeat(starts[first] - ends + wide, wide)]
    wanted = second[tops] * count + ids
    both = keys[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)] == wanted
    ids, tops = ids[both], tops[both]  # by cell, then owner
    order = _stable_order(ids)
    return ids[order].astype(np.int32), tops[order].astype(np.int32)


class _Layer:
    """Layer n: its ``table``, (L, n) int64 in lexicographic order, as ``tuples`` too,
    and its incidence: ``block(q)`` has the (tuple id, cell id) pairs of the
    q-cells, int32, by tuple then cell.  A layer is made with its vertex block;
    block q is made from block q - 1 (``_meet``) when first read, so a layer
    that nothing reads above the vertices keeps its vertex block alone."""

    def __init__(self, complex: SimplicialComplex, table: np.ndarray, tuples: list, blocks: list):
        self.complex, self.table, self.tuples, self._blocks = complex, table, tuples, blocks

    def block(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        for made in range(len(self._blocks), q + 1):
            self._blocks.append(_meet(self.complex, made, *self._blocks[-1], len(self.tuples)))
        return self._blocks[q]


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
        _expect(complex, SimplicialComplex, "complex")
        try:
            sets = tuple(sets)
        except TypeError:  # not iterable, so not a list of sets
            raise InvalidInputError(f"cover sets {sets!r}: not a list of vertex sets") from None
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
        incidence = cover._layer_arrays(1)  # each cell's sets
        for q in range(complex.top_dimension + 1):
            counts = np.bincount(incidence.block(q)[1], minlength=len(complex.cells(q)))
            if not counts.all():  # argmin: the first cell in no set
                raise InvalidInputError(f"cell {complex.cells(q)[counts.argmin()]} lies in no cover set")
        return cover

    @cached_property
    def _nerve(self) -> dict[int, _Layer]:
        """The layers built so far; layer 0 is the one tuple (), held by every cell."""
        complex = self.complex
        cells = map(len, map(complex.cells, range(complex.top_dimension + 1)))
        blocks = [(np.zeros(c, np.int32), np.arange(c, dtype=np.int32)) for c in cells]
        return {0: _Layer(complex, np.zeros((1, 0), np.int64), [()], blocks)}

    @cached_property
    def _vertex_sets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each vertex's sets, in increasing order, once per cover: (sets, widths,
        starts), vertex i's at sets[starts[i] : starts[i] + widths[i]].  The members
        are placed by a search of the 0-cell ids, which may be sparse, so no array
        follows ``vertex_count``.  The set ids have the smallest unsigned type that
        holds them, so the layers' sorts on them go by radix."""
        complex = self.complex
        ids = complex._rows[0][:, 0] if complex._rows else np.zeros(0, np.int64)
        vertex = np.searchsorted(ids, np.fromiter(itertools.chain.from_iterable(self.sets), np.int64))
        small = np.arange(len(self.sets), dtype=np.min_scalar_type(len(self.sets)))
        sets = np.repeat(small, list(map(len, self.sets)))
        sets, widths = sets[np.argsort(vertex, kind="stable")], np.bincount(vertex, minlength=len(ids))
        return sets, widths, np.cumsum(widths) - widths

    def _layer_arrays(self, n: int) -> _Layer:
        """Layer n, built on first use: the table is the distinct n-subsets of
        the vertices' set lists (``_vertex_sets``), and the vertex block comes
        out of the same sort, whose keys have the smallest types that hold them."""
        if n not in self._nerve:
            sets, widths, starts = self._vertex_sets
            small = np.min_scalar_type(len(widths))
            rows, cells = [np.zeros((0, n), sets.dtype)], [np.zeros(0, small)]
            for m in (np.flatnonzero(np.bincount(widths)[n:]) + n).tolist():
                owners = np.flatnonzero(widths == m)  # the vertices in m sets, at once
                picks = np.array(list(itertools.combinations(range(m), n)), np.intp).reshape(-1, n)
                rows.append(sets[starts[owners, None, None] + picks].reshape(-1, n))
                cells.append(np.repeat(owners.astype(small), len(picks)))
            rows, cells = np.concatenate(rows), np.concatenate(cells)
            order = np.lexsort((cells, *rows.T[::-1]))  # by tuple, then by vertex
            rows, cells, new = rows[order], cells[order], np.ones(len(rows), bool)
            new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            table, tuples = rows[new].astype(np.int64), np.cumsum(new, dtype=np.int32) - 1
            block = [(tuples, cells.astype(np.int32))]  # by tuple, then vertex
            self._nerve[n] = _Layer(self.complex, table, list(zip(*table.T.tolist())), block)
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
        blocks = map(layer.block, range(self.complex.top_dimension + 1))
        runs = (cells[slice(*np.searchsorted(ids, (i, i + 1)))] for ids, cells in blocks)
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


def _betti(
    complex: SimplicialComplex, owners: list[np.ndarray], cells: list[np.ndarray], count: int
) -> list[tuple[int, ...]]:
    """Betti numbers b_0..b_max(2, top) over Q of ``count`` subcomplexes at once:
    owner o's q-cells are the ids cells[q] paired with o in owners[q], the pairs
    sorted by owner, then cell, and each owner's top is its own.

    A face's pair is found one dimension lower by a search of owner * #cells +
    face keys.  Rounds of parallel elementary collapses (a discrete Morse
    matching: Forman, 1998; Mrozek and Batko, 2009) then remove pairs of
    dimension q >= 2: for q from the top down to 2, a live (q - 1)-pair with
    exactly one live q-coface is free, and each q-coface of a free face goes
    with one of them.  A free face has one coface, so the removals of a round
    never clash; a round looks only at the faces whose coface count fell to 1,
    and the rounds stop when there are none.  A collapse keeps the homotopy
    type.  Vertices are not collapsed into edges, which would take a round per
    step along a path: rank partial_1 is an owner's vertices less its
    components under the surviving edges (``simplicial._components``, pointer
    jumping in a logarithmic number of rounds), and ``integer_rank`` ranks the
    higher boundaries only of the subcomplexes where a cell of dimension >= 2
    survives (closed surfaces, RP^2).
    """
    sizes = [len(complex.cells(q)) for q in range(len(cells))]
    keys = [o.astype(np.int64) * s + c for o, c, s in zip(owners, cells, sizes)]
    where = [None]  # vertices have no faces
    for q in range(1, len(cells)):
        faces = complex._faces[q][cells[q]] + owners[q][:, None].astype(np.int64) * sizes[q - 1]
        where.append(np.searchsorted(keys[q - 1], faces))
    # per q >= 2 and (q - 1)-pair: the count and the position sum of its live
    # q-cofaces, so a free face names its coface; todo[q] holds the faces whose
    # count fell to 1, and a round looks at nothing else
    live, cofaces, sums, todo = [np.ones(len(c), bool) for c in cells], {}, {}, {}
    for q in range(2, len(cells)):
        flat, lower = where[q].ravel(), len(cells[q - 1])
        cofaces[q], sums[q] = np.bincount(flat, minlength=lower), np.zeros(lower, np.int64)
        np.add.at(sums[q], flat, np.repeat(np.arange(len(cells[q])), q + 1))
        todo[q] = np.flatnonzero(cofaces[q] == 1)
    while any(map(len, todo.values())):
        for q in range(len(cells) - 1, 1, -1):
            free = todo[q][cofaces[q][todo[q]] == 1]
            uppers, first = np.unique(sums[q][free], return_index=True)
            todo[q] = np.zeros(0, np.intp)
            for p, gone in ((q, uppers), (q - 1, free[first])):
                live[p][gone] = False
                if p >= 2:  # their faces lose a coface
                    faces = where[p][gone].ravel()
                    np.subtract.at(cofaces[p], faces, 1)
                    np.subtract.at(sums[p], faces, np.repeat(gone, p + 1))
                    todo[p] = np.concatenate((todo[p], faces[cofaces[p][faces] == 1]))
    width = max(2, len(cells) - 1) + 1
    counts, ranks = np.zeros((count, width + 1), np.int64), np.zeros((count, width + 1), np.int64)
    tops = np.full(count, -1)
    for q, (o, l) in enumerate(zip(owners, live)):
        counts[:, q], tops[o] = np.bincount(o[l], minlength=count), q
    if len(cells) > 1:
        ends = where[1][live[1]]
        label, _ = _components(len(cells[0]), ends[:, 0], ends[:, 1], 1)
        roots = owners[0][label == np.arange(len(cells[0]))]
        ranks[:, 1] = counts[:, 0] - np.bincount(roots, minlength=count)
    for q in range(2, len(cells)):
        o, at = owners[q][live[q]], where[q][live[q]].tolist()
        signs = [_deletion_sign(a) for a in range(q + 1)]
        runs = np.flatnonzero(np.diff(o, prepend=-1, append=-2)).tolist()  # where each owner's rows start
        for start, end in itertools.pairwise(runs):
            ranks[o[start], q] = integer_rank([dict(zip(row, signs)) for row in at[start:end]])
    betti = counts[:, :width] - ranks[:, :width] - ranks[:, 1:]
    return [tuple(b[: max(2, top) + 1]) for b, top in zip(betti.tolist(), tops.tolist())]


def betti_numbers(complex: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers b_0..b_max(2, top dimension) over Q: ``_betti`` with one owner."""
    _expect(complex, SimplicialComplex, "complex")
    cells = [np.arange(len(complex.cells(q))) for q in range(complex.top_dimension + 1)]
    return _betti(complex, [np.zeros(len(c), np.intp) for c in cells], cells, 1)[0]


class OverlapDiagnostic(NamedTuple):
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


def _run_words(count: int, seed: int) -> np.ndarray:
    """``count`` seeded 64-bit words, one per vertex position."""
    return np.random.default_rng(seed).bit_generator.random_raw(count)


def _group_runs(ids: np.ndarray, vertices: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Owners of the runs: tuple t's vertex run is ``vertices`` where ``ids`` == t,
    ids sorted and every run nonempty.  Returns each tuple's owner, equal owners
    for equal runs and numbered by first appearance, and each owner's first tuple.

    A run's key is its width plus the sum, modulo 2**64, of seeded words
    (``_run_words``) indexed by its vertices.  Tuples are grouped by key, and
    then each run is compared, entry by entry, with its group's first run; on a
    mismatch the grouping is redone with the next seed.
    """
    widths = np.bincount(ids, minlength=count)
    starts = np.cumsum(widths) - widths
    lead_at = np.arange(len(vertices)) - np.repeat(starts, widths)  # offset in its run
    for seed in itertools.count():
        words = _run_words(int(vertices.max(initial=-1)) + 1, seed)
        keys = np.add.reduceat(words[vertices], starts) + widths.astype(np.uint64)
        _, first, owner = np.unique(keys, return_index=True, return_inverse=True)
        by_appearance = np.argsort(first)
        rank = np.empty(len(first), np.intp)
        rank[by_appearance] = np.arange(len(first))
        owner, first = rank[owner], first[by_appearance]
        lead = first[owner]  # each tuple's group's first tuple
        if (widths == widths[lead]).all():
            if (vertices[np.repeat(starts[lead], widths) + lead_at] == vertices).all():
                return owner, first


def check_good_cover(cover: Cover) -> GoodCoverReport:
    """Check each nonempty overlap for acyclicity: b0 = 1 and every higher b = 0.

    Betti numbers are computed up to the overlap's top dimension, and at least
    to b2.  Failures are reported with WARN status only: an overlap that is
    not contractible still carries usable data, it just falls outside the
    good-cover setting.  The tuples of all layers are grouped by their vertex
    runs in one pass (``_group_runs``); the first run of each distinct
    intersection gives its vertex pairs, ``_meet`` its cells, and ``_betti``
    certifies them all in one batch.  No layer's incidence above the vertices
    is read.  The entries are one per nerve tuple, in lexicographic order: one
    lexsort of the layer tables, padded with -1.
    """
    _expect(cover, Cover, "cover")
    layers = []
    while (layer := cover._layer_arrays(len(layers) + 1)).tuples:
        layers.append(layer)
    if not layers:
        return GoodCoverReport(())
    blocks, sizes = [layer.block(0) for layer in layers], [len(layer.tuples) for layer in layers]
    offsets = np.cumsum([0, *sizes[:-1]]).tolist()  # the tuples of all layers, layer by layer
    ids = np.concatenate([ids + offset for (ids, _), offset in zip(blocks, offsets)])
    vertices = np.concatenate([vertices for _, vertices in blocks])
    owner, first = _group_runs(ids, vertices, sum(sizes))
    # the vertex lists of the distinct intersections, from their first runs
    leads = np.zeros(sum(sizes), bool)
    leads[first] = True
    kept = leads[ids]
    complex, count = cover.complex, len(first)
    pairs = [(owner[ids[kept]].astype(np.int32), vertices[kept])]  # by owner, then vertex
    for q in range(1, complex.top_dimension + 1):
        pairs.append(_meet(complex, q, *pairs[-1], count))
    owners, cells = zip(*pairs)
    betti = _betti(complex, list(owners), list(cells), count)
    contractible = [b == (1,) + (0,) * (len(b) - 1) for b in betti]
    # the smallest integer type that holds -1 and every set id: lexsort then sorts by radix
    table, row = np.full((len(owner), len(layers)), -1, np.min_scalar_type(-len(cover.sets))), 0
    for n, layer in enumerate(layers, 1):
        table[row : row + len(layer.tuples), :n], row = layer.table, row + len(layer.tuples)
    order = np.lexsort(table.T[::-1]).tolist()
    tuples = list(itertools.chain.from_iterable(layer.tuples for layer in layers))
    owner = owner[order].tolist()
    indices = map(tuples.__getitem__, order)
    fields = zip(indices, map(betti.__getitem__, owner), map(contractible.__getitem__, owner))
    return GoodCoverReport(tuple(map(tuple.__new__, itertools.repeat(OverlapDiagnostic), fields)))
