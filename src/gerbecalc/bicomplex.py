"""Bigraded cochains over a cover and the combined coboundary operator D.

A (p, n) cochain assigns a p-cochain to every strictly increasing n-tuple of
cover indices, supported on that overlap; n = 0 means one global cochain.
Evaluation at a permuted tuple multiplies the canonically stored component by
the permutation sign, which encodes full antisymmetry in the cover indices.

Sign conventions.  The index-deletion coboundary acts as

    (delta C)_{i1..i(n+1)} = sum_{a=1..n+1} (-1)^(a+1) C_{i1..^i_a..i(n+1)}

with each summand restricted to the deeper overlap.  The cellwise coboundary
is twisted to dbar = (-1)^n d so that delta and dbar anticommute, and the
total operator is D = delta - dbar, which squares to zero.

One cached matrix.  ``_coboundary_matrix`` assembles D from numpy index
arrays over flat bases (``_LayerBasis``: the cover's blocks) and alone
applies the sign (-1)^a of ``simplicial._deletion_sign``, the twist (-1)^n
and the minus of D = delta - dbar in ``_DBAR_IN_D`` (which ``dbar`` undoes);
its faces follow the one rule of ``simplicial._face_rows``.  Each cover keeps
one basis and one D per total degree; the equivalence solve's global d is the
complex's walk (``SimplicialComplex._order``), with the plain sign (-1)^a.

The contraction.  K lowers the Cech degree cell by cell: (K c)_s(cell) =
c_{(j,) + s}(cell), with j the lowest set that holds the cell, and
delta K + K delta = 1 on Cech degree n >= 1, K delta = 1 on n = 0 (Bott and
Tu, Ch. II).  Its nonzeros are D's a = 0 delta run, transposed, on the rows
whose tuple starts at j, with sign +1, so it adds no sign; each cover keeps
one K per total degree beside D.  ``_exact_defects`` checks D^2 = 0 and
delta K + K delta = 1 on the cached D and K; ``break_sign`` negates a copy of D.

Coordinates.  Cochains meet D as vectors on those bases, and parts reach them
one way: ``_LayerBasis.vector`` puts each part, given flat (``_flat``), at the
coordinates ``place`` finds with one search of (tuple, cell) keys, the search
the assembler runs.  ``place`` is the one support check: a value it cannot
place lies outside its overlap.  A ``deligne.GerbeDatum`` keeps its vector, so
validation, gauge shifts and the equivalence descent work on vectors alone.
``cech_delta``, ``dbar`` and ``big_d`` apply D to the ``vector`` of a dict
cochain and decode the image; a shifted datum's ``data`` adds such images to
its dicts with ``+``.

Angle-valued layers.  A (0, n) layer may be flagged angle-valued, meaning its
values are defined only modulo 2*pi.  The flag declares a type; no operator
here reads it, since D is linear on every layer.  Only the equations hold
modulo 2*pi, so ``deligne`` wraps the rows it compares with zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from .cover import Cover
from .errors import InvalidInputError
from .simplicial import Cochain, Simplex, _deletion_sign, _face_rows, _id_keys, _ids, _merged, _real, _worst

TWO_PI = 2.0 * math.pi

# D = delta + _DBAR_IN_D * dbar
_DBAR_IN_D = -1

__all__ = [
    "TWO_PI",
    "wrap",
    "permutation_sign",
    "BigradedCochain",
    "TotalCochain",
    "GaugePotential",
    "cech_delta",
    "dbar",
    "big_d",
]


def wrap(x: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    x = _real(x, "angle")
    if not math.isfinite(x):
        raise InvalidInputError(f"cannot wrap non-finite value {x!r}")
    r = math.remainder(x, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def _wrapped(values: np.ndarray) -> np.ndarray:
    """``wrap`` of each finite value in one array pass, bit for bit: fmod by 2 pi
    is exact, and so is the one step of 2 pi into (-pi, pi] (Sterbenz's lemma).
    A value that is not finite stays as it is, so an overflow still shows."""
    with np.errstate(invalid="ignore"):
        r = np.fmod(values, TWO_PI)
    r[r > math.pi] -= TWO_PI
    r[r <= -math.pi] += TWO_PI
    return np.where(np.isfinite(values), r, values)


def permutation_sign(indices: Iterable[int]) -> int:
    """Sign of the permutation sorting the tuple; 0 if an index repeats."""
    t = _ids(indices, "permutation indices")
    if len(set(t)) != len(t):
        return 0
    sign = 1
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if t[i] > t[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class BigradedCochain:
    """One element of the (form_degree, cech_degree) layer.

    Components are stored on sorted index tuples only; ``component`` applies
    the antisymmetry sign for any other index order.
    """

    form_degree: int
    cech_degree: int
    components: dict[tuple[int, ...], Cochain]
    angle_valued: bool = False

    def __post_init__(self):
        p, n = _ids((self.form_degree, self.cech_degree), "bidegree")
        object.__setattr__(self, "form_degree", p)
        object.__setattr__(self, "cech_degree", n)
        if self.form_degree < 0 or self.cech_degree < 0:
            raise InvalidInputError("bidegrees must be non-negative")
        if self.angle_valued and self.form_degree != 0:
            raise InvalidInputError("only 0-form layers can be angle-valued")
        object.__setattr__(self, "components", _id_keys(self.components, "component key"))
        for t, comp in self.components.items():
            if len(t) != self.cech_degree:
                raise InvalidInputError(
                    f"component key {t} has wrong length for cech degree {self.cech_degree}"
                )
            if any(a >= b for a, b in zip(t, t[1:])) or any(i < 0 for i in t):
                raise InvalidInputError(f"component key {t} is not strictly increasing")
            if comp.degree != self.form_degree:
                raise InvalidInputError(
                    f"component at {t} has degree {comp.degree}, expected {self.form_degree}"
                )

    @classmethod
    def zero(cls, form_degree: int, cech_degree: int, angle_valued: bool = False):
        return cls(form_degree, cech_degree, {}, angle_valued)

    def component(self, indices: Iterable[int]) -> Cochain:
        """Evaluate at any index tuple, applying the antisymmetry sign."""
        t = _ids(indices, "component indices")
        if len(t) != self.cech_degree:
            raise InvalidInputError(f"expected {self.cech_degree} indices, got {len(t)}")
        sign = permutation_sign(t)
        comp = self.components.get(tuple(sorted(t))) if sign else None
        if comp is None:
            return Cochain.zero(self.form_degree)
        return comp if sign > 0 else comp.scaled(-1.0)

    def sup_norm(self) -> float:
        return _worst(c.sup_norm() for c in self.components.values())

    def scaled(self, factor: float) -> "BigradedCochain":
        scaled = ((t, c.scaled(factor)) for t, c in self.components.items())
        comps = {t: sc for t, sc in scaled if sc.values}
        return BigradedCochain(self.form_degree, self.cech_degree, comps, self.angle_valued)

    def __add__(self, other: "BigradedCochain") -> "BigradedCochain":
        if (self.form_degree, self.cech_degree) != (other.form_degree, other.cech_degree):
            raise InvalidInputError("bidegrees differ")
        comps = _merged(self.components, other.components, lambda c: not c.values)
        angle = self.angle_valued or other.angle_valued
        return BigradedCochain(self.form_degree, self.cech_degree, comps, angle)


@dataclass(frozen=True)
class TotalCochain:
    """Element of the direct sum of all (p, n) layers with p + n fixed.

    At most one part may be angle-valued and it must sit at (0, total_degree):
    the transition layer of a cocycle datum.  Only a 0-form layer can be
    angle-valued, so the degree check alone keeps it there.
    """

    total_degree: int
    parts: dict[tuple[int, int], BigradedCochain]

    def __post_init__(self):
        (degree,) = _ids((self.total_degree,), "total degree")
        object.__setattr__(self, "total_degree", degree)
        if degree < 0:
            raise InvalidInputError("total degree must be non-negative")
        object.__setattr__(self, "parts", _id_keys(self.parts, "part key"))
        for key, part in self.parts.items():
            if len(key) != 2:
                raise InvalidInputError(f"part key {key} is not a bidegree (p, n)")
            p, n = key
            if p + n != self.total_degree:
                raise InvalidInputError(
                    f"part at ({p},{n}) does not match total degree {self.total_degree}"
                )
            if (part.form_degree, part.cech_degree) != (p, n):
                raise InvalidInputError(f"part stored under wrong bidegree ({p},{n})")

    @classmethod
    def zero(cls, total_degree: int) -> "TotalCochain":
        return cls(total_degree, {})

    def part(self, p: int, n: int) -> BigradedCochain | None:
        return self.parts.get((p, n))

    def sup_norm(self) -> float:
        return _worst(part.sup_norm() for part in self.parts.values())

    def scaled(self, factor: float) -> "TotalCochain":
        scaled = ((key, part.scaled(factor)) for key, part in self.parts.items())
        parts = {key: sp for key, sp in scaled if sp.components}
        return TotalCochain(self.total_degree, parts)

    def __add__(self, other: "TotalCochain") -> "TotalCochain":
        if self.total_degree != other.total_degree:
            raise InvalidInputError("total degrees differ")
        parts = _merged(self.parts, other.parts, lambda part: not part.components)
        return TotalCochain(self.total_degree, parts)

    def __sub__(self, other: "TotalCochain") -> "TotalCochain":
        return self + other.scaled(-1.0)


@dataclass(frozen=True)
class GaugePotential:
    """Shift datum for equivalence tests: a total cochain whose global
    top-degree form part is structurally absent."""

    data: TotalCochain

    def __post_init__(self):
        for (p, n) in self.data.parts:
            if n == 0:
                raise InvalidInputError("gauge potentials carry no global form part")


def _image(total: TotalCochain, cover: Cover) -> np.ndarray:
    """D(total) in coordinates: the cached D applied to the ``vector`` of its nonempty parts."""
    k, complex = total.total_degree, cover.complex
    parts = [(*key, *_flat(part, complex)) for key, part in total.parts.items() if part.components]
    return _coboundary(cover, k).apply(_basis(cover, k).vector(parts))


def _flat(part: BigradedCochain, complex) -> tuple:
    """The part as ``_LayerBasis.place`` reads it, then its values in that order:
    its tuples, each component's count of values, and their cells, cell ids and values."""
    comps, counts = part.components.values(), [len(c.values) for c in part.components.values()]
    cells = list(chain.from_iterable(c.values for c in comps))
    values = np.fromiter(chain.from_iterable(c.values.values() for c in comps), float, len(cells))
    return list(part.components), counts, cells, complex._cell_ids(part.form_degree, cells), values


def cech_delta(cochain: BigradedCochain, cover: Cover) -> BigradedCochain:
    """Index-deletion coboundary, the (p, n + 1) block of D.  The angle-valued
    flag propagates since sums of angles are still angles."""
    p, n = cochain.form_degree, cochain.cech_degree
    image = _image(TotalCochain(p + n, {(p, n): cochain}), cover)
    comps = _basis(cover, p + n + 1).components_of(image, p, n + 1)
    return BigradedCochain(p, n + 1, comps, cochain.angle_valued)


def dbar(cochain: BigradedCochain, cover: Cover) -> BigradedCochain:
    """Sign-twisted cellwise coboundary (-1)^n d inside each overlap: the
    (p + 1, n) block of D times ``_DBAR_IN_D``, which undoes its minus.
    Linear on angle-valued layers too; the output is real-valued."""
    p, n = cochain.form_degree, cochain.cech_degree
    image = _image(TotalCochain(p + n, {(p, n): cochain}), cover)
    comps = _basis(cover, p + n + 1).components_of(image, p + 1, n)
    return BigradedCochain(p + 1, n, comps).scaled(_DBAR_IN_D)


def big_d(total: TotalCochain, cover: Cover) -> TotalCochain:
    """Total coboundary D = delta - dbar, applied through the cover's cached
    matrix to the coordinates ``_LayerBasis.vector`` places; D(D(x)) = 0 for real-valued x."""
    return _basis(cover, total.total_degree + 1).total_of(_image(total, cover))


class _LayerBasis:
    """Flat real coordinates for one total-cochain space over a cover.

    Bidegree (p, n) fills ``positions[p, n]`` with the cover's block (p, n),
    read from its cell -> sets incidence with no overlap complex built: entry
    i is the cell ``cell_ids[p, n][i]`` of the complex in the overlap of
    ``tuples[n][tuple_ids[p, n][i]]``, the tuple at ``index[t]`` of layer n, so a
    block is sorted by those two ids and by its ``keys``, which join them.  A
    block of p-cells above the complex's dimension is empty and reads no layer.

    The basis keeps the complex, the set count and the tuples it reads, not
    the cover: the cover keeps the basis, and a reference back would leave
    every dropped cover to the cycle collector.
    """

    def __init__(self, cover: Cover, degree: int):
        self.complex, self.set_count = cover.complex, len(cover.sets)
        self.degree, self.size = degree, 0
        self.tuples: dict[int, list[tuple[int, ...]]] = {}
        self.positions: dict[tuple[int, int], range] = {}
        self.index: dict[tuple[int, ...], int] = {}
        self.tuple_ids, self.cell_ids, self.keys = {}, {}, {}
        empty = [], (np.zeros(0, np.int32),) * 2
        for n in range(min(degree, self.set_count) + 1):
            p = degree - n
            arrays = cover._layer_arrays(n) if p <= self.complex.top_dimension else None
            tuples, (tuple_ids, cell_ids) = (arrays.tuples, arrays.block(p)) if arrays else empty
            self.tuples[n] = tuples
            first, self.size = self.size, self.size + len(cell_ids)
            self.positions[p, n] = range(first, self.size)
            self.index.update(zip(tuples, range(len(tuples))))
            self.tuple_ids[p, n], self.cell_ids[p, n] = tuple_ids, cell_ids
            self.keys[p, n] = self._key(p, tuple_ids, cell_ids)

    def _key(self, p: int, tuple_ids: np.ndarray, cell_ids: np.ndarray) -> np.ndarray:
        """(tuple index, cell id) pairs as one integer each, in the pairs' order;
        a cell id of ``len(cells(p))`` stands for a cell the complex lacks."""
        return tuple_ids.astype(np.intp) * (len(self.complex.cells(p)) + 1) + cell_ids

    def find(self, p: int, n: int, tuple_ids: np.ndarray, cell_ids: np.ndarray) -> np.ndarray:
        """The coordinate of each (layer tuple index, cell id) pair in block
        (p, n), or -1 where the block has no such pair: one searchsorted of the
        pairs' keys in the block's sorted ``keys``."""
        keys, wanted = self.keys[p, n], self._key(p, tuple_ids, cell_ids)
        at = np.searchsorted(keys, wanted)
        # a search past the last key, clipped to it, finds a smaller key
        hit = keys.take(at, mode="clip") == wanted if len(keys) else np.zeros(len(at), bool)
        return np.where(hit, self.positions[p, n].start + at, -1)

    def vector(self, parts: Iterable[tuple]) -> np.ndarray:
        """The zero vector with each flat part's values placed by ``place``, in input
        order; a flat part is (p, n) followed by ``_flat`` of the part."""
        vec = np.zeros(self.size)
        for p, n, *flat, values in parts:
            vec[self.place(p, n, *flat)] = values
        return vec

    def place(self, p: int, n: int, tuples: list, counts: list, cells: list, cell_ids) -> np.ndarray:
        """The coordinates of a (p, n) part's cells in input order: the component
        on ``tuples[i]`` holds the next ``counts[i]`` of ``cells``, of ids ``cell_ids``.

        ``find`` places them all at once.  A part that needs more sets than the
        cover has is refused, and so is a component whose tuple does not index
        the cover or a cell that ``find`` does not place, outside its overlap:
        the refusal names the first such component or cell in input order.
        """
        nsets = self.set_count
        if n > nsets:
            raise InvalidInputError(f"part at ({p},{n}) needs {n} cover sets, cover has {nsets}")
        index = np.fromiter(map(self.index.get, tuples, repeat(-1)), np.intp, len(tuples))
        at = self.find(p, n, np.repeat(index, counts), cell_ids)
        if (index < 0).any() or (at < 0).any():  # walk to the first fault, if any
            end = 0
            for t, count in zip(tuples, counts):
                if t and t[-1] >= nsets:
                    raise InvalidInputError(
                        f"part ({p},{n}) component {t} does not fit {nsets} sets"
                    )
                spilled = np.flatnonzero(at[end : end + count] < 0)
                if spilled.size:
                    raise InvalidInputError(
                        f"part ({p},{n}) component {t} spills outside its overlap at "
                        f"{cells[end + spilled[0]]}"
                    )
                end += count
        return at

    def entry(self, j: int) -> tuple[int, int, tuple[int, ...], Simplex]:
        """(p, n, t, cell) of coordinate j."""
        (p, n), span = next(item for item in self.positions.items() if j in item[1])
        t, c = self.tuple_ids[p, n][j - span.start], self.cell_ids[p, n][j - span.start]
        return p, n, self.tuples[n][t], self.complex.cells(p)[c]

    def components_of(self, vec: np.ndarray, p: int, n: int) -> dict[tuple[int, ...], Cochain]:
        """Block (p, n) as components of its nonzero coordinates."""
        span = self.positions.get((p, n), range(0))
        at = np.flatnonzero(vec[span.start : span.stop])
        if not at.size:
            return {}
        tuples, cells, grouped = self.tuples[n], self.complex.cells(p), {}
        found = zip(self.tuple_ids[p, n][at].tolist(), self.cell_ids[p, n][at].tolist())
        for (t, c), v in zip(found, vec[span.start + at].tolist()):
            grouped.setdefault(tuples[t], {})[cells[c]] = v
        return {t: Cochain(p, v) for t, v in grouped.items()}

    def total_of(self, vec: np.ndarray) -> TotalCochain:
        """The total cochain of the nonzero coordinates, block by block."""
        blocks = ((p, n, self.components_of(vec, p, n)) for p, n in self.positions)
        parts = {(p, n): BigradedCochain(p, n, comps) for p, n, comps in blocks if comps}
        return TotalCochain(self.degree, parts)


@dataclass(frozen=True)
class _SparseD:
    """D, K or a block of D in coordinate form: M[rows[e], cols[e]] = signs[e].

    Each (row, column) pair occurs once and every sign is +1 or -1, in one
    byte; M x is a weighted bincount over the nonzeros.  D keeps
    the a = 0 delta run into each block (p, n), n >= 1, in ``leading``.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    leading: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.signs * x[self.cols], minlength=self.shape[0])


def _coboundary_matrix(cover: Cover, degree: int) -> _SparseD:
    """Sparse D = delta - dbar from total degree ``degree`` to ``degree + 1``.

    Row block (p, n) reads its sources in runs over all of its rows, one per
    index a: dbar reads face a of the cell at the same tuple (``_faces``), with
    (-1)^a (-1)^n times the minus of D; then delta reads the cell at the tuple
    less index a (``_face_rows`` of layer n), with (-1)^a.  Each run is one
    ``_LayerBasis.find`` of (tuple index, cell id) pairs in the source block.
    ``apply`` sums a row in run order, so a gauge shift's large dbar terms
    cancel before its delta terms join.
    """
    cols, rows = _basis(cover, degree), _basis(cover, degree + 1)
    faces = cover.complex._faces
    row_ids, col_ids = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
    signs, leading = [np.zeros(0, np.int8)], {}
    for (p, n), span in rows.positions.items():
        if not span:  # before any loop over faces: p may exceed every cell dimension
            continue
        tids, cids, runs = rows.tuple_ids[p, n], rows.cell_ids[p, n], []
        dsign = _DBAR_IN_D * (-1) ** n
        for a in range(p + 1 if p else 0):
            runs.append(((p - 1, n), tids, faces[p][cids, a], dsign * _deletion_sign(a)))
        if n:
            less = _nerve_faces(cover, n)
            runs += [((p, n - 1), less[tids, a], cids, _deletion_sign(a)) for a in range(n)]
        for source, t_read, c_read, sign in runs:
            col_ids.append(cols.find(*source, t_read, c_read).astype(np.int32))
            row_ids.append(np.arange(span.start, span.stop, dtype=np.int32))
            signs.append(np.full(len(span), sign, dtype=np.int8))
        if n:  # the delta runs came last, a = 0 first
            leading[p, n] = col_ids[-n]
    arrays = (np.concatenate(row_ids), np.concatenate(col_ids), np.concatenate(signs))
    return _SparseD((rows.size, cols.size), *arrays, leading)


def _contraction(cover: Cover, degree: int) -> _SparseD:
    """K from total degree ``degree`` to ``degree - 1``, built once per cover from
    D's a = 0 delta run: a block's rows whose tuple starts at j(cell), the first
    of the cell's sets: its lowest tuple id in layer 1's block, whose tuples are the
    sets in increasing order and where every cell has one (``Cover.build``)."""
    if ("K", degree) not in cover._operators:
        rows, k_rows, k_cols = _basis(cover, degree), [np.zeros(0, np.int32)], [np.zeros(0, int)]
        table = cover._layer_arrays(1).table
        for (p, n), targets in _coboundary(cover, degree - 1).leading.items():
            sets, cells = cover._layer_arrays(1).block(p)
            lowest = np.full(len(cover.complex.cells(p)), len(table), sets.dtype)
            np.minimum.at(lowest, cells, sets)
            first = cover._layer_arrays(n).table[rows.tuple_ids[p, n], 0]
            keep = np.flatnonzero(first == table[lowest[rows.cell_ids[p, n]], 0])
            k_rows.append(targets[keep])
            k_cols.append(rows.positions[p, n].start + keep)
        shape, k_rows = (_basis(cover, degree - 1).size, rows.size), np.concatenate(k_rows)
        signs = np.ones(len(k_rows), np.int8)
        cover._operators["K", degree] = _SparseD(shape, k_rows, np.concatenate(k_cols), signs)
    return cover._operators["K", degree]


def _nerve_faces(cover: Cover, n: int) -> np.ndarray:
    """``_face_rows`` of the cover's layer table n into table n - 1, for n >= 1."""
    return _face_rows(cover._layer_arrays(n).table, cover._layer_arrays(n - 1).table)


def _basis(cover: Cover, degree: int) -> _LayerBasis:
    """The flat coordinates of total degree ``degree``, built once per cover."""
    if ("basis", degree) not in cover._operators:
        cover._operators["basis", degree] = _LayerBasis(cover, degree)
    return cover._operators["basis", degree]


def _coboundary(cover: Cover, degree: int) -> _SparseD:
    """D leaving total degree ``degree``, assembled once per cover."""
    if ("D", degree) not in cover._operators:
        cover._operators["D", degree] = _coboundary_matrix(cover, degree)
    return cover._operators["D", degree]


def _integer_product(first: _SparseD, second: _SparseD) -> dict[tuple[int, int], int]:
    """The entries of second @ first in Python integers, by (row, column)."""
    by_col: dict[int, list[tuple[int, int]]] = {}  # column of second -> [(row, sign)]
    for i, j, s in zip(second.rows.tolist(), second.cols.tolist(), second.signs.tolist()):
        by_col.setdefault(j, []).append((i, s))
    product: dict[tuple[int, int], int] = {}
    for i, j, s in zip(first.rows.tolist(), first.cols.tolist(), first.signs.tolist()):
        for row, s2 in by_col.get(i, ()):
            product[row, j] = product.get((row, j), 0) + s2 * s
    return product


def _cech_degrees(cover: Cover, degree: int) -> np.ndarray:
    """The Cech degree n of each coordinate of total degree ``degree``."""
    positions = _basis(cover, degree).positions
    return np.repeat([n for _, n in positions], [len(span) for span in positions.values()])


def _exact_defects(
    cover: Cover, degrees: Iterable[int], *, break_sign: bool = False
) -> dict[str, int]:
    """Largest |entry| of D_{k+1} D_k by row block, and of delta K + K delta - 1,
    on total degree k over the degrees k, in Python integers from the cover's
    cached D_k and K_k; both identities hold iff every value returned is 0.

    D^2 takes (p, n) to three disjoint blocks: delta^2 to (p, n + 2), dbar^2 to
    (p + 2, n) and delta dbar + dbar delta to (p + 1, n + 1).  In D K + K D the
    delta terms keep the Cech degree and the dbar terms lower it.
    ``break_sign`` negates, in a copy of D, the entries whose row and column
    share an odd Cech degree: the dbar entries of odd n, undoing their twist.
    """
    names = {2: "delta2", 0: "d2", 1: "anticommute"}  # by how far n rises
    worst = dict.fromkeys([*names.values(), "D2", "homotopy"], 0)

    def d(k: int) -> _SparseD:
        matrix = _coboundary(cover, k)
        if break_sign:
            row_n = _cech_degrees(cover, k + 1)[matrix.rows]
            odd_dbar = (row_n == _cech_degrees(cover, k)[matrix.cols]) & (row_n % 2 == 1)
            matrix = replace(matrix, signs=np.where(odd_dbar, -matrix.signs, matrix.signs))
        return matrix

    for k in degrees:
        n, n_above = (_cech_degrees(cover, j).tolist() for j in (k, k + 2))
        for (row, col), value in _integer_product(d(k), d(k + 1)).items():
            name = names[n_above[row] - n[col]]
            worst[name] = max(worst[name], abs(value))
        total = {(i, i): -1 for i in range(len(n))}
        for pair in ((_contraction(cover, k), d(k - 1)), (d(k), _contraction(cover, k + 1))):
            for (row, col), value in _integer_product(*pair).items():
                if n[row] == n[col]:
                    total[row, col] = total.get((row, col), 0) + value
        worst["homotopy"] = max(worst["homotopy"], max(map(abs, total.values()), default=0))
    worst["D2"] = max(worst[name] for name in names.values())
    return worst
