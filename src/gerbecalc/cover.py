"""Open covers by vertex subsets: overlaps, nerve, contractibility diagnostics.

The open set U_i is the subcomplex induced on a vertex subset; the overlap of
several sets is the subcomplex induced on their intersection.  A p-cochain
"on an overlap" is supported on cells all of whose vertices lie inside it.
``Cover.layer(n)`` owns the nerve: the nonempty overlaps of n sets, each built
inside its parent overlap of n - 1 sets, and only as deep as a caller reads.

The good-cover check ranks boundary matrices by sparse Gaussian elimination in
exact rational arithmetic, so its Betti numbers are over Q with no threshold.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .simplicial import SimplicialComplex, _ids, boundary_matrix


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
        # bit i of the packed row member[v] says whether set i holds vertex v, so
        # a cell lies in a set iff the AND of its vertices' rows is nonzero
        member = np.zeros((complex.vertex_count, (len(fsets) + 7) // 8), np.uint8)
        held = np.repeat(np.arange(len(fsets)), [len(s) for s in fsets])
        vertex = np.fromiter(itertools.chain.from_iterable(fsets), np.intp, len(held))
        np.bitwise_or.at(member, (vertex, held // 8), (128 >> held % 8).astype(np.uint8))
        for q, rows in complex._rows.items():
            common = member[rows[:, 0]]
            for c in range(1, q + 1):
                common &= member[rows[:, c]]
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

    def layer(self, n: int) -> dict[tuple[int, ...], SimplicialComplex]:
        """The increasing n-tuples of cover indices with a nonempty overlap,
        each mapped to its overlap, in lexicographic order; {(): complex} for 0.

        Layers are built on first use, each from the one below: the overlap of
        t + (j,) is induced inside the overlap of t, so an operation that reads
        tuples of up to n sets never builds a deeper layer.
        """
        layers = self._layers
        while len(layers) <= n and layers[-1]:
            grown = {}
            for t, parent in layers[-1].items():
                inter = {v for (v,) in parent.cells(0)}
                for j in range(t[-1] + 1 if t else 0, len(self.sets)):
                    common = inter & self.sets[j]
                    if common:
                        grown[t + (j,)] = parent.induced(common)
            layers.append(grown)
        return layers[n] if 0 <= n < len(layers) else {}

    @cached_property
    def _operators(self) -> dict[tuple[str, int], object]:
        """``bicomplex``'s flat bases and sparse D per total degree, built on first use."""
        return {}

    def nerve(self) -> tuple[tuple[int, ...], ...]:
        """All increasing index tuples with a nonempty overlap, in lexicographic order.

        It builds every layer, exponential in the number of sets sharing a
        vertex; only ``demo`` and ``check_good_cover`` read it whole.
        """
        return tuple(sorted(t for n in range(1, len(self.sets) + 1) for t in self.layer(n)))


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by sparse Gaussian elimination in exact arithmetic.

    Each row becomes a {column: value} dict of its nonzeros and is reduced at
    its first nonzero column against the pivot row stored for that column,
    until it is zero or becomes the pivot row of a column that has none.
    Nonzero entries must be Python or numpy integers.
    """
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for r, dense in enumerate(matrix):
        try:
            row = {c: operator.index(v) for c, v in enumerate(dense) if v}
        except TypeError:  # operator.index takes exactly the types with __index__
            c, v = next((c, v) for c, v in enumerate(dense) if v and not hasattr(v, "__index__"))
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


def betti_numbers(complex: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers b_0..b_max(2, top dimension) over Q from exact boundary ranks."""
    up_to = max(2, complex.top_dimension)
    counts = [len(complex.cells(q)) for q in range(up_to + 2)]
    ranks = [0] + [integer_rank(boundary_matrix(complex, q)) for q in range(1, up_to + 2)]
    return tuple(counts[q] - ranks[q] - ranks[q + 1] for q in range(up_to + 1))


@dataclass(frozen=True)
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
    setting.
    """
    entries = []
    for t in cover.nerve():
        b = betti_numbers(cover.layer(len(t))[t])
        entries.append(OverlapDiagnostic(t, b, b == (1,) + (0,) * (len(b) - 1)))
    return GoodCoverReport(tuple(entries))
