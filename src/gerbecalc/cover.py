"""Open covers by vertex subsets: overlaps, nerve, contractibility diagnostics.

The open set U_i is the subcomplex induced on a vertex subset; the overlap of
several sets is the subcomplex induced on their intersection.  A p-cochain
"on an overlap" is supported on cells all of whose vertices lie inside it.
``Cover.layer(n)`` owns the nerve: the nonempty overlaps of n sets, built only
as deep as a caller reads.  A tuple grows only by its siblings, the tuples of
its layer that differ from it in the last index alone, since a larger tuple
whose faces are not all in the nerve cannot be in it either.  An overlap
depends only on its vertex set, so the cover keeps one complex per distinct
set, induced inside the parent overlap of the tuple that first meets it, and
the good-cover check ranks each once: the 13,824 nerve entries of the 144-set
star cover of a 12x12 torus share 1,440 overlaps.

The good-cover check walks the layers once and takes each distinct overlap's
Betti numbers over Q from exact ranks, with no threshold and no dense matrix:
the rank of the 1-boundary is #vertices - #components, from a union-find over
the edges, and each higher boundary goes to ``integer_rank``, sparse Gaussian
elimination in exact rational arithmetic, as one {face position: (-1)^a} row
per cell.  On the star cover above that is 864 rank calls per check, one per
overlap that holds a triangle.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping  # isinstance on typing.Mapping costs about twice as much
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .simplicial import SimplicialComplex, _deletion_sign, _ids


@dataclass(frozen=True)
class Cover:
    """A cover of a complex by vertex subsets.

    Valid covers list every vertex in at least one set and fit every cell of
    the complex inside at least one set, so that cochain data on overlaps can
    represent any local quantity.
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
        # bit i of the packed row common[k] says whether set i holds every vertex
        # of the k-th q-cell.  For q = 0 the rows follow the 0-cells, not the
        # ids, which may be sparse; above, faces 0 and 1 of a cell hold all its
        # vertices between them, so its row is the AND of theirs.
        ids = complex._rows[0][:, 0] if complex._rows else np.zeros(0, np.int64)
        common = np.zeros((len(ids), (len(fsets) + 7) // 8), np.uint8)
        held = np.repeat(np.arange(len(fsets)), [len(s) for s in fsets])
        vertex = np.fromiter(itertools.chain.from_iterable(fsets), np.int64, len(held))
        np.bitwise_or.at(common, (np.searchsorted(ids, vertex), held // 8), (128 >> held % 8).astype(np.uint8))
        for q in range(1, complex.top_dimension + 1):
            faces = complex._faces[q]
            common = common[faces[:, 0]] & common[faces[:, 1]]
            outside = np.flatnonzero(~common.any(axis=1))
            if outside.size:
                raise InvalidInputError(f"cell {complex.cells(q)[outside[0]]} lies in no cover set")
        return cls(complex, fsets)

    def _canonical(self, indices: Iterable[int]) -> tuple[int, ...]:
        t = _ids(indices, "cover indices")
        if len(set(t)) != len(t):
            raise InvalidInputError(f"repeated cover index in {t}")
        for i in t:
            if not 0 <= i < len(self.sets):
                raise InvalidInputError(f"cover index {i} out of range")
        return tuple(sorted(t))

    def overlap(self, indices: Iterable[int]) -> SimplicialComplex:
        """The overlap of the sets in any order, looked up in ``layer``: the
        complex itself for (), the empty complex for a tuple outside the nerve."""
        key = self._canonical(indices)
        got = self.layer(len(key)).get(key)
        return SimplicialComplex(self.complex.vertex_count, {}, -1) if got is None else got

    @cached_property
    def _layers(self) -> list[dict[tuple[int, ...], SimplicialComplex]]:
        return [{(): self.complex}]

    @cached_property
    def _overlaps(self) -> dict[frozenset[int], SimplicialComplex]:
        """Each overlap built so far, the complex included, keyed by its vertex
        set: the nerve tuples whose sets meet in the same vertices share one
        complex, and a tuple whose sibling leaves its vertices as they are
        shares its own."""
        return {self.complex.vertices: self.complex}

    def layer(self, n: int) -> dict[tuple[int, ...], SimplicialComplex]:
        """The increasing n-tuples of cover indices with a nonempty overlap,
        each mapped to its overlap, in lexicographic order; {(): complex} for 0.

        Layers are built on first use, each from the one below, so an operation
        that reads tuples of up to n sets never builds a deeper layer.  A tuple
        t + (j,) can be in the nerve only if its face t[:-1] + (j,) is, so t
        grows only by its later siblings: the tuples after t in its layer that
        share t[:-1], a run in lexicographic order (() grows by every set).
        The overlap of t + (j,) lies on the intersection of the vertex sets of
        t and its sibling, and tuples with one intersection share one overlap:
        t's own when the intersection is all of t's vertices, else one induced
        inside t's overlap.
        """
        layers = self._layers
        while len(layers) <= n and layers[-1]:
            grown: dict[tuple[int, ...], SimplicialComplex] = {}
            if len(layers) == 1:
                self._grow(grown, (), self.complex, list(enumerate(self.sets)))
            else:
                for _, run in itertools.groupby(layers[-1].items(), lambda item: item[0][:-1]):
                    run = list(run)
                    later = [(t[-1], sub.vertices) for t, sub in run]
                    for i, (t, sub) in enumerate(run):
                        self._grow(grown, t, sub, later[i + 1 :])
            layers.append(grown)
        return layers[n] if 0 <= n < len(layers) else {}

    def _grow(
        self,
        grown: dict[tuple[int, ...], SimplicialComplex],
        t: tuple[int, ...],
        parent: SimplicialComplex,
        siblings: list[tuple[int, frozenset[int]]],
    ) -> None:
        """Map t + (j,) in ``grown`` to its overlap, for each (j, vertex set) of
        the siblings that meets the parent overlap of t: the parent itself when
        the sibling holds all its vertices, else the shared overlap of the
        intersection, induced inside the parent if not built yet."""
        shared, vertices = self._overlaps, parent.vertices
        whole = len(vertices)
        for j, other in siblings:
            common = vertices & other
            if not common:
                continue
            sub = parent if len(common) == whole else shared.get(common)
            if sub is None:
                sub = shared[common] = parent.induced(common)
                # the cached property, filled with the key: common lies in the parent
                vars(sub)["vertices"] = common
            grown[t + (j,)] = sub

    @cached_property
    def _operators(self) -> dict[tuple[str, int], object]:
        """``bicomplex``'s flat bases and sparse D per total degree, built on first use."""
        return {}

    def nerve(self) -> tuple[tuple[int, ...], ...]:
        """All increasing index tuples with a nonempty overlap, in lexicographic order.

        It builds every layer, exponential in the number of sets sharing a
        vertex; only ``demo`` and ``check_good_cover`` read it whole.  The
        work grows with the nerve, not with the number of sets: each tuple
        is tried against its later siblings only, and each distinct overlap
        is induced once.
        """
        return tuple(sorted(t for n in range(1, len(self.sets) + 1) for t in self.layer(n)))


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


def betti_numbers(complex: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers b_0..b_max(2, top dimension) over Q from exact boundary ranks.

    The rank of the 1-boundary is the size of a spanning forest of the edges.
    Each higher boundary goes to ``integer_rank`` as one sparse row per cell,
    {position of face a: (-1)^a}; above the top dimension the rank is 0.
    """
    up_to = max(2, complex.top_dimension)
    counts = [len(complex.cells(q)) for q in range(up_to + 2)]
    ranks = [0] * (up_to + 2)
    ranks[1] = _spanning_forest_size(complex.cells(1))
    for q in range(2, complex.top_dimension + 1):
        position = {s: i for i, s in enumerate(complex.cells(q - 1))}
        signs = [_deletion_sign(a) for a in range(q + 1)]
        ranks[q] = integer_rank(
            [{position[s[:a] + s[a + 1 :]]: sign for a, sign in enumerate(signs)} for s in complex.cells(q)]
        )
    return tuple(counts[q] - ranks[q] - ranks[q + 1] for q in range(up_to + 1))


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
    to b2.  Failures are reported with WARN status only: non-contractible
    overlaps still carry usable data, they just fall outside the good-cover
    setting.  Each layer of the nerve is read once and each distinct overlap
    ranked once; the entries are one per nerve tuple, in lexicographic order.
    """
    entries, known, n = [], {}, 1
    while layer := cover.layer(n):
        for t, overlap in layer.items():
            found = known.get(overlap.vertices)
            if found is None:
                b = betti_numbers(overlap)
                found = known[overlap.vertices] = (b, b == (1,) + (0,) * (len(b) - 1))
            entries.append(OverlapDiagnostic(t, *found))
        n += 1
    # each layer is in lexicographic order, so the sort merges one run per layer
    entries.sort(key=operator.attrgetter("indices"))
    return GoodCoverReport(tuple(entries))
