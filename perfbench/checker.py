"""An independent check of gauge-equivalence witnesses.

The checker reads complexes, covers and cochains as plain data (cell tuples,
vertex sets and value maps) and assembles the total coboundary D itself, as a
``scipy.sparse`` matrix, from the convention stated in the docstring of
``gerbecalc.bicomplex``:

    (delta C)_{i0..in} = sum_a (-1)^a C_{i0..^i_a..in}, restricted to the deeper overlap
    (d c)(tau)         = sum_i (-1)^i c(tau without its i-th vertex)
    dbar               = (-1)^n d on the (p, n) layer
    D                  = delta - dbar

It shares no code with the library: the nerve, the overlap cells and the
bases are enumerated here from the cover's vertex sets.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

TWO_PI = 2.0 * math.pi

# parts of a total cochain: (p, n) -> {index tuple: {cell: value}}
Parts = dict


class Geometry:
    """A complex and a cover, given as cells by dimension and vertex sets."""

    def __init__(self, cells_by_dim, sets):
        self.cells = {int(q): [tuple(c) for c in cs] for q, cs in cells_by_dim.items() if cs}
        self.top = max(self.cells, default=-1)
        self.sets = [frozenset(s) for s in sets]
        self._member = defaultdict(list)
        for i, s in enumerate(self.sets):
            for v in s:
                self._member[v].append(i)
        self._incident = {
            q: self._index_by_vertex(cs) for q, cs in self.cells.items()
        }
        self._cofaces = {}
        self._nerve = {}
        self._overlap = {}
        self._matrices = {}

    @staticmethod
    def _index_by_vertex(cells):
        out = defaultdict(list)
        for c in cells:
            for v in c:
                out[v].append(c)
        return out

    @classmethod
    def of_cover(cls, cover):
        """Read the cells and sets of a ``gerbecalc`` cover."""
        return cls(cover.complex.simplices, cover.sets)

    @classmethod
    def of_document(cls, doc):
        """Read the cells and sets of a datum or witness file's JSON."""
        cells = {int(q): cs for q, cs in doc["complex"]["simplices"].items()}
        return cls(cells, doc["cover"]["sets"])

    def nerve(self, length):
        """Increasing index tuples of the given length whose sets share a vertex."""
        got = self._nerve.get(length)
        if got is None:
            found = set()
            for members in self._member.values():
                found.update(itertools.combinations(sorted(members), length))
            got = sorted(found)
            self._nerve[length] = got
        return got

    def full_nerve(self):
        """Every nerve tuple, in lexicographic order."""
        return sorted(t for n in range(1, len(self.sets) + 1) for t in self.nerve(n))

    def overlap_cells(self, t, q):
        """q-cells of the subcomplex induced on the intersection of the sets in t."""
        key = (t, q)
        got = self._overlap.get(key)
        if got is None:
            if not t:
                got = list(self.cells.get(q, ()))
            else:
                verts = frozenset.intersection(*(self.sets[i] for i in t))
                seen = set()
                for v in verts:
                    for c in self._incident.get(q, {}).get(v, ()):
                        if c not in seen and verts.issuperset(c):
                            seen.add(c)
                got = sorted(seen)
            self._overlap[key] = got
        return got

    def euler_characteristic(self, t):
        return sum((-1) ** q * len(self.overlap_cells(t, q)) for q in range(self.top + 1))

    def _coface_list(self, q):
        """For each q-cell, its (q+1)-cofaces with the position of the added vertex."""
        got = self._cofaces.get(q)
        if got is None:
            got = defaultdict(list)
            for tau in self.cells.get(q + 1, ()):
                for i in range(q + 2):
                    got[tau[:i] + tau[i + 1 :]].append((tau, i, tau[i]))
            self._cofaces[q] = got
        return got

    def basis(self, degree, with_global):
        """Flat coordinates (p, n, t, cell) of the degree-`degree` total cochains."""
        entries = []
        for n in range(0 if with_global else 1, min(degree, len(self.sets)) + 1):
            p = degree - n
            if p > self.top:
                continue
            for t in ([()] if n == 0 else self.nerve(n)):
                entries.extend((p, n, t, c) for c in self.overlap_cells(t, p))
        return entries, {e: i for i, e in enumerate(entries)}

    def big_d(self, degree, with_global=False):
        """D from degree `degree` to degree + 1, with the row and column bases."""
        key = (degree, with_global)
        got = self._matrices.get(key)
        if got is not None:
            return got
        cols, _ = self.basis(degree, with_global)
        rows, row_index = self.basis(degree + 1, True)
        ri, ci, vals = [], [], []
        for j, (p, n, t, cell) in enumerate(cols):
            # delta: add one more set index, keeping the cell
            holders = set(self._member[cell[0]])
            for v in cell[1:]:
                holders.intersection_update(self._member[v])
            for extra in holders:
                if extra in t:
                    continue
                target = tuple(sorted(t + (extra,)))
                i = row_index.get((p, n + 1, target, cell))
                if i is not None:
                    ri.append(i)
                    ci.append(j)
                    vals.append(1 if target.index(extra) % 2 == 0 else -1)
            # -dbar = -(-1)^n d inside the overlap of t
            verts = (
                frozenset.intersection(*(self.sets[i] for i in t)) if t else None
            )
            sign = -1 if n % 2 == 0 else 1
            for tau, pos, added in self._coface_list(p).get(cell, ()):
                if verts is not None and added not in verts:
                    continue
                i = row_index.get((p + 1, n, t, tau))
                if i is not None:
                    ri.append(i)
                    ci.append(j)
                    vals.append(sign * (1 if pos % 2 == 0 else -1))
        matrix = sp.csr_matrix(
            (np.array(vals, dtype=float), (ri, ci)), shape=(len(rows), len(cols))
        )
        got = (matrix, cols, rows, row_index)
        self._matrices[key] = got
        return got


def vector(parts: Parts, index: dict, size: int, what: str) -> np.ndarray:
    out = np.zeros(size)
    for (p, n), comps in parts.items():
        for t, values in comps.items():
            for cell, value in values.items():
                pos = index.get((p, n, tuple(t), tuple(cell)))
                if pos is None:
                    if value != 0.0:
                        raise ValueError(f"{what} has a value outside the basis at {(p, n, t, cell)}")
                    continue
                out[pos] += value
    return out


def parts_of_total(total) -> Parts:
    """Plain-data copy of a ``gerbecalc`` total cochain."""
    return {
        key: {t: dict(c.values) for t, c in part.components.items()}
        for key, part in total.parts.items()
    }


def parts_of_document(raw_parts) -> Parts:
    """Plain-data copy of the ``parts`` list of a datum or witness file."""
    out = {}
    for part in raw_parts:
        comps = {}
        for comp in part["components"]:
            comps[tuple(comp["indices"])] = {
                tuple(e["simplex"]): float(e["value"]) for e in comp["entries"]
            }
        out[(part["p"], part["n"])] = comps
    return out


def read_document(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class DSizes:
    """Rows, columns and nonzeros of the D matrices the checker applied."""

    def __init__(self):
        self.rows = self.cols = self.nnz = 0

    def add(self, matrix):
        self.rows += matrix.shape[0]
        self.cols += matrix.shape[1]
        self.nnz += matrix.nnz


def witness_residual(
    geometry: Geometry, level: int, first: Parts, second: Parts, witness: Parts, sizes: DSizes
) -> float:
    """max |D(W) - (B - A)|, with the (0, level + 2) rows taken modulo 2*pi."""
    k = level + 2
    matrix, cols, rows, row_index = geometry.big_d(k - 1)
    sizes.add(matrix)
    col_index = {e: i for i, e in enumerate(cols)}
    w = vector(witness, col_index, len(cols), "witness")
    diff = vector(second, row_index, len(rows), "second datum") - vector(
        first, row_index, len(rows), "first datum"
    )
    r = matrix @ w - diff
    angle = np.array([(p, n) == (0, k) for p, n, _, _ in rows], dtype=bool)
    r[angle] = np.remainder(r[angle] + math.pi, TWO_PI) - math.pi
    return float(np.max(np.abs(r))) if r.size else 0.0


def compare_with_library(geometry: Geometry, degree: int, parts: Parts, library_image: Parts) -> float:
    """max |D x - big_d(x)| for a real total cochain x of the given degree."""
    matrix, cols, rows, row_index = geometry.big_d(degree, with_global=True)
    col_index = {e: i for i, e in enumerate(cols)}
    x = vector(parts, col_index, len(cols), "cochain")
    y = vector(library_image, row_index, len(rows), "library image")
    return float(np.max(np.abs(matrix @ x - y))) if len(rows) else 0.0
