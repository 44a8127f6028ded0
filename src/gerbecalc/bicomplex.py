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

Two representations, one walk.  ``_incidences`` lists the nonzeros of D
block by block: a p-cell in the overlap of t reads its own faces (dbar) and
the same cell at each parent tuple (delta), with the sign (-1)^a of
``simplicial._deletion_sign``, the twist (-1)^n and the minus of
D = delta - dbar in ``_DBAR_IN_D``.  ``cech_delta``, ``dbar`` and ``big_d``
sum its runs over the stored values of dict cochains, for validation and
gauge shifts; ``_coboundary_matrix`` turns them into a sparse integer matrix
over flat bases (``_LayerBasis``: a block per overlap), for the equivalence
solve and the exact check that D^2 = 0.  Both sum in one order, so they
agree bit for bit.

Angle-valued layers.  A (0, n) layer may be flagged angle-valued, meaning its
values are defined only modulo 2*pi.  The flag declares a type; no operator
here reads it, since D is linear on every layer.  Only the equations hold
modulo 2*pi, so ``deligne`` wraps the rows it compares with zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cover import Cover
from .errors import InvalidInputError
from .simplicial import Cochain, Simplex, _deletion_sign, _worst

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
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError(f"cannot wrap non-finite value {x!r}")
    r = math.remainder(x, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def _wrap_finite(x: float) -> float:
    """wrap(x) for finite x; anything else stays as it is, so an overflow still shows."""
    return wrap(x) if math.isfinite(x) else x


def permutation_sign(indices: Iterable[int]) -> int:
    """Sign of the permutation sorting the tuple; 0 if an index repeats."""
    t = tuple(indices)
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
        if self.form_degree < 0 or self.cech_degree < 0:
            raise InvalidInputError("bidegrees must be non-negative")
        if self.angle_valued and self.form_degree != 0:
            raise InvalidInputError("only 0-form layers can be angle-valued")
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
        t = tuple(int(i) for i in indices)
        if len(t) != self.cech_degree:
            raise InvalidInputError(
                f"expected {self.cech_degree} indices, got {len(t)}"
            )
        sign = permutation_sign(t)
        if sign == 0:
            return Cochain.zero(self.form_degree)
        comp = self.components.get(tuple(sorted(t)))
        if comp is None:
            return Cochain.zero(self.form_degree)
        return comp if sign > 0 else comp.scaled(-1.0)

    def sup_norm(self) -> float:
        return _worst(c.sup_norm() for c in self.components.values())

    def scaled(self, factor: float) -> "BigradedCochain":
        comps = {}
        for t, c in self.components.items():
            sc = c.scaled(factor)
            if sc.values:
                comps[t] = sc
        return BigradedCochain(self.form_degree, self.cech_degree, comps, self.angle_valued)

    def __add__(self, other: "BigradedCochain") -> "BigradedCochain":
        if (self.form_degree, self.cech_degree) != (other.form_degree, other.cech_degree):
            raise InvalidInputError("bidegrees differ")
        comps = dict(self.components)
        for t, c in other.components.items():
            merged = comps[t] + c if t in comps else c
            if merged.values:
                comps[t] = merged
            else:
                comps.pop(t, None)
        return BigradedCochain(
            self.form_degree,
            self.cech_degree,
            comps,
            self.angle_valued or other.angle_valued,
        )


@dataclass(frozen=True)
class TotalCochain:
    """Element of the direct sum of all (p, n) layers with p + n fixed.

    At most one part may be angle-valued and it must sit at (0, total_degree):
    the transition layer of a cocycle datum.
    """

    total_degree: int
    parts: dict[tuple[int, int], BigradedCochain]

    def __post_init__(self):
        for (p, n), part in self.parts.items():
            if p + n != self.total_degree:
                raise InvalidInputError(
                    f"part at ({p},{n}) does not match total degree {self.total_degree}"
                )
            if (part.form_degree, part.cech_degree) != (p, n):
                raise InvalidInputError(f"part stored under wrong bidegree ({p},{n})")
            if part.angle_valued and (p, n) != (0, self.total_degree):
                raise InvalidInputError(
                    "only the (0, k) part of a degree-k total cochain may be angle-valued"
                )

    @classmethod
    def zero(cls, total_degree: int) -> "TotalCochain":
        return cls(total_degree, {})

    def part(self, p: int, n: int) -> BigradedCochain | None:
        return self.parts.get((p, n))

    def sup_norm(self) -> float:
        return _worst(part.sup_norm() for part in self.parts.values())

    def scaled(self, factor: float) -> "TotalCochain":
        parts = {}
        for key, part in self.parts.items():
            sp = part.scaled(factor)
            if sp.components:
                parts[key] = sp
        return TotalCochain(self.total_degree, parts)

    def __add__(self, other: "TotalCochain") -> "TotalCochain":
        if self.total_degree != other.total_degree:
            raise InvalidInputError("total degrees differ")
        parts = dict(self.parts)
        for key, part in other.parts.items():
            merged = parts[key] + part if key in parts else part
            if merged.components:
                parts[key] = merged
            else:
                parts.pop(key, None)
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
                raise InvalidInputError(
                    "gauge potentials carry no global form part"
                )


def _check_support(part: BigradedCochain, cover: Cover) -> None:
    """Refuse a part that needs more sets than the cover has, a component
    whose tuple does not index the cover, or a value outside its overlap."""
    p, n, nsets = part.form_degree, part.cech_degree, len(cover.sets)
    if n > nsets:
        raise InvalidInputError(f"part at ({p},{n}) needs {n} cover sets, cover has {nsets}")
    for t, comp in part.components.items():
        if t and t[-1] >= nsets:
            raise InvalidInputError(f"part ({p},{n}) component {t} does not fit {nsets} sets")
        inside = cover.overlap(t).cell_positions(p)
        for cell in comp.values:
            if cell not in inside:
                raise InvalidInputError(
                    f"part ({p},{n}) component {t} spills outside its overlap at {cell}"
                )


def _incidences(cover: Cover, p: int, n: int, sources, *, _drop_twist: bool = False):
    """The nonzeros of D into row block (p, n), in runs (t, cells, source, s,
    read, sign): the row of ``cells[i]``, a p-cell of the overlap of t, holds
    ``sign`` at ``read[i]`` in component s of the ``source`` bidegree.

    dbar reads face a of each cell at t, with (-1)^a (-1)^n times the minus of
    D; then delta reads the cell at t less index a, with (-1)^a.  dbar comes
    first so that a gauge shift's large dbar terms cancel before the small
    delta terms join.  A block reading nothing in ``sources`` builds no layer.
    ``_drop_twist`` drops (-1)^n, which breaks D^2 = 0; it exists only to show
    that the self-check detects a wrong sign.
    """
    from_dbar, from_delta = (p - 1, n) in sources, (p, n - 1) in sources
    if not (from_dbar or from_delta):
        return
    dsign = _DBAR_IN_D * (-1 if n % 2 and not _drop_twist else 1)
    for t, sub in cover.layer(n).items():
        cells = sub.cells(p)
        for a in range(p + 1 if from_dbar else 0):
            faces = [cell[:a] + cell[a + 1 :] for cell in cells]
            yield t, cells, (p - 1, n), t, faces, dsign * _deletion_sign(a)
        for a in range(n if from_delta else 0):
            yield t, cells, (p, n - 1), t[:a] + t[a + 1 :], cells, _deletion_sign(a)


def _d_blocks(parts, cover: Cover, blocks) -> dict[tuple[int, int], dict[tuple, Cochain]]:
    """The components of D(parts) in the given row blocks.  Each cell sums its
    runs from 0.0 in the order of ``_incidences``, as ``_SparseD.apply`` does,
    so the two representations agree bit for bit; absent values are zeros."""
    parts = {key: part for key, part in parts.items() if part.components}
    for part in parts.values():
        _check_support(part, cover)
    out = {}
    for p, n in blocks:
        acc: dict[tuple[int, ...], dict[Simplex, float]] = {}
        for t, cells, source, s, read, sign in _incidences(cover, p, n, parts):
            comp = parts[source].components.get(s)
            if comp is None:
                continue
            row = acc.setdefault(t, {})
            for cell, face in zip(cells, read):
                v = comp.values.get(face)
                if v is not None:
                    row[cell] = row.get(cell, 0.0) + sign * v
        rows = {t: {c: v for c, v in row.items() if v != 0.0} for t, row in acc.items()}
        out[p, n] = {t: Cochain(p, values) for t, values in rows.items() if values}
    return out


def cech_delta(cochain: BigradedCochain, cover: Cover) -> BigradedCochain:
    """Index-deletion coboundary, the (p, n + 1) block of D.  The angle-valued
    flag propagates since sums of angles are still angles."""
    p, n = cochain.form_degree, cochain.cech_degree
    comps = _d_blocks({(p, n): cochain}, cover, [(p, n + 1)])[p, n + 1]
    return BigradedCochain(p, n + 1, comps, cochain.angle_valued)


def dbar(cochain: BigradedCochain, cover: Cover) -> BigradedCochain:
    """Sign-twisted cellwise coboundary (-1)^n d inside each overlap: the
    (p + 1, n) block of D times ``_DBAR_IN_D``, which undoes its minus.
    Linear on angle-valued layers too; the output is real-valued."""
    p, n = cochain.form_degree, cochain.cech_degree
    comps = _d_blocks({(p, n): cochain}, cover, [(p + 1, n)])[p + 1, n]
    return BigradedCochain(p + 1, n, comps).scaled(_DBAR_IN_D)


def big_d(total: TotalCochain, cover: Cover) -> TotalCochain:
    """Total coboundary D = delta - dbar; D(D(x)) = 0 for real-valued x."""
    rows = {(p + dp, n + 1 - dp) for p, n in total.parts for dp in (0, 1)}
    blocks = _d_blocks(total.parts, cover, sorted(rows)).items()
    parts = {key: BigradedCochain(*key, comps) for key, comps in blocks if comps}
    return TotalCochain(total.total_degree + 1, parts)


class _LayerBasis:
    """Flat real coordinates for one total-cochain space over a cover.

    Bidegree (p, n) fills ``positions[p, n]``, one block per overlap t of
    ``cover.layer(n)``: cell i of its ``cells(p)`` is entry ``start[t] + i``.
    """

    def __init__(self, cover: Cover, degree: int, *, omit_top_form: bool):
        self.cover = cover
        self.degree = degree
        self.entries: list[tuple[int, int, tuple[int, ...], Simplex]] = []
        self.start: dict[tuple[int, ...], int] = {}
        self.positions: dict[tuple[int, int], range] = {}
        n_min = 1 if omit_top_form else 0
        for n in range(n_min, min(degree, len(cover.sets)) + 1):
            p = degree - n
            first = len(self.entries)
            for t, sub in cover.layer(n).items():
                self.start[t] = len(self.entries)
                self.entries.extend((p, n, t, cell) for cell in sub.cells(p))
            self.positions[(p, n)] = range(first, len(self.entries))

    def vector_of(self, total: TotalCochain) -> np.ndarray:
        vec = np.zeros(len(self.entries))
        for (p, n), part in total.parts.items():
            for t, comp in part.components.items():
                at = self.start.get(t) if (p, n) in self.positions else None
                inside = {} if at is None else self.cover.layer(n)[t].cell_positions(p)
                for cell, value in comp.values.items():
                    if cell in inside:
                        vec[at + inside[cell]] = value
                    elif value != 0.0:
                        raise InvalidInputError(
                            f"value at ({p},{n},{t},{cell}) lies outside the basis"
                        )
        return vec

    def total_of(self, vec: np.ndarray) -> TotalCochain:
        grouped: dict[tuple[int, int], dict[tuple[int, ...], dict[Simplex, float]]] = {}
        for value, (p, n, t, cell) in zip(vec, self.entries):
            v = float(value)
            if v == 0.0:
                continue
            grouped.setdefault((p, n), {}).setdefault(t, {})[cell] = v
        parts = {
            (p, n): BigradedCochain(
                p, n, {t: Cochain(p, vals) for t, vals in comps.items()}
            )
            for (p, n), comps in grouped.items()
        }
        return TotalCochain(self.degree, parts)


@dataclass(frozen=True)
class _SparseD:
    """D = delta - dbar in coordinate form: D[rows[e], cols[e]] = signs[e].

    Each (row, column) pair occurs once and every sign is +1 or -1, held as
    a float so that the two products D x and D^T y, weighted bincounts over
    the nonzeros, need no cast.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.signs * x[self.cols], minlength=self.shape[0])

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.signs * y[self.rows], minlength=self.shape[1])

    def triples(self) -> Iterable[tuple[int, int, int]]:
        """(row, column, integer sign) of every nonzero."""
        return zip(self.rows.tolist(), self.cols.tolist(), self.signs.astype(int).tolist())


def _coboundary_matrix(
    cover: Cover, cols: _LayerBasis, rows: _LayerBasis, *, _drop_twist: bool = False
) -> _SparseD:
    """Sparse D = delta - dbar from the column basis to the row basis: each run
    of ``_incidences`` fills the rows of its target's block in ``rows`` and the
    columns of the cells it reads in its source's block in ``cols``."""
    row_ids, col_ids, signs = [], [], []
    for p, n in rows.positions:
        runs = _incidences(cover, p, n, cols.positions, _drop_twist=_drop_twist)
        for t, cells, (sp, sn), s, read, sign in runs:
            at, inside = cols.start[s], cover.layer(sn)[s].cell_positions(sp)
            row_ids.extend(range(rows.start[t], rows.start[t] + len(cells)))
            col_ids.extend([at + inside[cell] for cell in read])
            signs.extend([sign] * len(cells))
    return _SparseD(
        (len(rows.entries), len(cols.entries)),
        np.array(row_ids, dtype=np.intp),
        np.array(col_ids, dtype=np.intp),
        np.array(signs, dtype=float),
    )


def _square_blocks(
    cover: Cover, degrees: Iterable[int], *, _drop_twist: bool = False
) -> dict[str, int]:
    """Largest |entry| of the integer product D_{k+1} D_k over the degrees k.

    D_k leaves total degree k.  The product takes (p, n) to three disjoint
    row blocks: delta^2 lands in (p, n + 2), dbar^2 in (p + 2, n) and the
    anticommutator delta dbar + dbar delta in (p + 1, n + 1).  Python
    integers keep every entry exact, so D^2 = 0 holds iff every value
    returned is 0.
    """
    # the block of an entry is fixed by how far it raises the cech degree
    names = {2: "delta2", 0: "d2", 1: "anticommute"}
    blocks = dict.fromkeys(names.values(), 0)
    for degree in degrees:
        bases = [_LayerBasis(cover, k, omit_top_form=False) for k in range(degree, degree + 3)]
        first, second = (
            _coboundary_matrix(cover, a, b, _drop_twist=_drop_twist)
            for a, b in zip(bases, bases[1:])
        )
        # column of the second factor -> [(its row, sign)]
        by_col: dict[int, list[tuple[int, int]]] = {}
        for i, j, s in second.triples():
            by_col.setdefault(j, []).append((i, s))
        product: dict[tuple[int, int], int] = {}
        for i, j, s in first.triples():
            for row, s2 in by_col.get(i, ()):
                product[row, j] = product.get((row, j), 0) + s2 * s
        for (row, col), value in product.items():
            name = names[bases[2].entries[row][1] - bases[0].entries[col][1]]
            blocks[name] = max(blocks[name], abs(value))
    blocks["D2"] = max(blocks.values())
    return blocks
