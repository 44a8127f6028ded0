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

Two representations, one module.  ``cech_delta``, ``dbar`` and ``big_d`` act
on the dict cochains and touch only stored values, which suits validation
and gauge shifts of sparse data.  ``_coboundary_matrix`` assembles D as a
sparse integer matrix over flat bases (``_LayerBasis``: a block per overlap),
for the equivalence solve and the exact check that D^2 = 0.  Both walk the
targets in ``Cover.layer``: a cell reads the same cell at each parent tuple
and its own faces, with the sign (-1)^a of ``simplicial._deletion_sign``, the
twist (-1)^n of ``_twist`` and the minus of D = delta - dbar in ``_DBAR_IN_D``.

Angle-valued layers.  A (0, n) layer may be flagged angle-valued, meaning its
values are defined only modulo 2*pi.  Its derivative is taken with per-edge
wrapping into (-pi, pi], and residuals of equations fed by such a layer must
be wrapped before comparison with zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cover import Cover
from .errors import InvalidInputError
from .simplicial import Cochain, Simplex, SimplicialComplex, _deletion_sign, exterior_derivative

TWO_PI = 2.0 * math.pi

# D = delta + _DBAR_IN_D * dbar
_DBAR_IN_D = -1

__all__ = [
    "TWO_PI",
    "wrap",
    "wrap_d",
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


def wrap_d(f: Cochain, complex: SimplicialComplex) -> Cochain:
    """Wrapped edge differences of an angle-valued vertex function.

    The result is invariant under shifting any single vertex value by a
    multiple of 2*pi, which makes winding counts exact telescoping sums.  A
    difference that overflows stays infinite.
    """
    if f.degree != 0:
        raise InvalidInputError("wrap_d expects a 0-cochain")
    for v in complex.cells(0):
        if v not in f.values:
            raise InvalidInputError(f"no angle value at vertex {v[0]}")
    out = {}
    for a, b in complex.cells(1):
        val = _wrap_finite(f.values[(b,)] - f.values[(a,)])
        if val != 0.0:
            out[(a, b)] = val
    return Cochain(1, out)


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
        return max((c.sup_norm() for c in self.components.values()), default=0.0)

    def scaled(self, factor: float) -> "BigradedCochain":
        comps = {}
        for t, c in self.components.items():
            sc = c.scaled(factor)
            if sc.values:
                comps[t] = sc
        return BigradedCochain(self.form_degree, self.cech_degree, comps, self.angle_valued)

    def wrapped(self) -> "BigradedCochain":
        """Wrap every finite stored value, keep the others; multiples of 2*pi drop out."""
        comps = {}
        for t, c in self.components.items():
            values = {s: w for s, v in c.values.items() if (w := _wrap_finite(v)) != 0.0}
            if values:
                comps[t] = Cochain(self.form_degree, values)
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

    def __sub__(self, other: "BigradedCochain") -> "BigradedCochain":
        return self + other.scaled(-1.0)


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
        return max((part.sup_norm() for part in self.parts.values()), default=0.0)

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


def _twist(n: int) -> int:
    """(-1)^n, the factor of d in dbar at cech degree n."""
    return -1 if n % 2 else 1


def _check_indices(cochain: BigradedCochain, cover: Cover) -> None:
    for t in cochain.components:
        for i in t:
            if i >= len(cover.sets):
                raise InvalidInputError(
                    f"component {t} does not fit a cover with {len(cover.sets)} sets"
                )


def cech_delta(cochain: BigradedCochain, cover: Cover) -> BigradedCochain:
    """Index-deletion coboundary, raising the cover degree by one.

    Each target sums its parents' components restricted to its overlap; the
    angle-valued flag propagates since sums of angles are still angles.
    """
    _check_indices(cochain, cover)
    p, n = cochain.form_degree, cochain.cech_degree
    out: dict[tuple[int, ...], Cochain] = {}
    signs = [_deletion_sign(a) for a in range(n + 1)]
    absent = Cochain.zero(p)
    for target, overlap in cover.layer(n + 1).items():
        inside = overlap.cell_positions(p)
        acc: dict[Simplex, float] = {}
        for a, sign in enumerate(signs):
            comp = cochain.components.get(target[:a] + target[a + 1 :], absent)
            for cell, value in comp.values.items():
                if cell in inside:
                    acc[cell] = acc.get(cell, 0.0) + sign * value
        values = {cell: v for cell, v in acc.items() if v != 0.0}
        if values:
            out[target] = Cochain(p, values)
    return BigradedCochain(p, n + 1, out, cochain.angle_valued)


def dbar(cochain: BigradedCochain, cover: Cover) -> BigradedCochain:
    """Sign-twisted cellwise coboundary (-1)^n d, taken inside each overlap.

    Angle-valued input uses wrapped edge differences; the output is an
    ordinary real-valued layer either way.
    """
    _check_indices(cochain, cover)
    p, n = cochain.form_degree, cochain.cech_degree
    out: dict[tuple[int, ...], Cochain] = {}
    for key in sorted(cochain.components):
        comp = cochain.components[key]
        sub = cover.overlap(key)
        der = wrap_d(comp, sub) if cochain.angle_valued else exterior_derivative(comp, sub)
        if _twist(n) < 0:
            der = der.scaled(-1.0)
        if der.values:
            out[key] = der
    return BigradedCochain(p + 1, n, out, False)


def big_d(total: TotalCochain, cover: Cover) -> TotalCochain:
    """Total coboundary D = delta - dbar; D(D(x)) = 0 for real-valued x."""
    acc: dict[tuple[int, int], BigradedCochain] = {}

    def put(key: tuple[int, int], piece: BigradedCochain) -> None:
        if not piece.components:
            return
        cur = acc.get(key)
        acc[key] = piece if cur is None else cur + piece

    for key in sorted(total.parts):
        part = total.parts[key]
        p, n = key
        put((p, n + 1), cech_delta(part, cover))
        put((p + 1, n), dbar(part, cover).scaled(_DBAR_IN_D))
    return TotalCochain(
        total.total_degree + 1, {k: v for k, v in acc.items() if v.components}
    )


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
    """Sparse D = delta - dbar from the column basis to the row basis.

    Rows are walked as ``cech_delta`` and ``exterior_derivative`` walk them:
    the row of p-cell c in the overlap of t reads, with sign (-1)^a, c in the
    overlap of t less index a (delta) and face a of c (dbar).  Every lookup
    hits, since overlaps are induced in their parents and closed under faces.
    ``_drop_twist`` replaces dbar by the untwisted d, which breaks D^2 = 0; it
    exists only to show that the self-check detects a wrong sign.
    """
    row_ids, col_ids, signs = [], [], []
    for p, n in rows.positions:
        layer = cover.layer(n)
        if (p, n - 1) in cols.positions:
            parents = cover.layer(n - 1)
            for t, sub in layer.items():
                for i, cell in enumerate(sub.cells(p), rows.start[t]):
                    for a in range(n):
                        face = t[:a] + t[a + 1 :]
                        row_ids.append(i)
                        col_ids.append(cols.start[face] + parents[face].cell_positions(p)[cell])
                        signs.append(_deletion_sign(a))
        if (p - 1, n) in cols.positions:
            dsign = _DBAR_IN_D * (1 if _drop_twist else _twist(n))
            for t, sub in layer.items():
                at, faces = cols.start[t], sub.cell_positions(p - 1)
                for i, tau in enumerate(sub.cells(p), rows.start[t]):
                    for a in range(p + 1):
                        row_ids.append(i)
                        col_ids.append(at + faces[tau[:a] + tau[a + 1 :]])
                        signs.append(dsign * _deletion_sign(a))
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
