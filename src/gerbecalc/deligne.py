"""Cocycle data: validation, curvature, integer charges, gauge equivalence.

A level-n datum is a total cochain of degree n + 2 over a cover: the (0, n+2)
part is the angle-valued transition layer, intermediate parts are connection
layers, and the global (n+2, 0) part stores minus the curvature.  A bundle is
the level-0 case and a gerbe the level-1 case; level -1 is allowed.

Gauge equivalence is decided by a sparse minimum-norm solve: D is assembled
as a sparse matrix over flat bases of the potential and datum spaces, and
conjugate gradients on the normal equations (CGLS) run without forming D^T D.
Two valid cocycles are accepted as equivalent when the difference is matched
by the total coboundary of a potential without global top form part, with
angle-layer rows compared modulo 2*pi.  Rejection means no such witness was
found at tolerance; it is numeric evidence, not a certificate.  The charge is
the reliable separator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bicomplex import (
    TWO_PI,
    BigradedCochain,
    GaugePotential,
    TotalCochain,
    big_d,
    wrap,
)
from .cover import Cover
from .errors import InvalidInputError, NumericError
from .simplicial import (
    Cochain,
    Simplex,
    SimplicialComplex,
    fundamental_cycle,
    integrate,
)

DEFAULT_VALIDATION_TOL = 1e-9
DEFAULT_EQUIVALENCE_TOL = 1e-8

__all__ = [
    "DEFAULT_VALIDATION_TOL",
    "DEFAULT_EQUIVALENCE_TOL",
    "GerbeDatum",
    "ResidualPeak",
    "ValidationReport",
    "EquivalenceResult",
    "validate_cocycle",
    "curvature",
    "charge",
    "gauge_equivalent",
    "gauge_shift",
    "higher_gauge_shift",
]


@dataclass(frozen=True)
class GerbeDatum:
    """Local data of a level-n object over a fixed cover.

    Parts may be absent (absent means zero).  The (0, n+2) part, when
    present, must be flagged angle-valued and every component must be
    supported inside its overlap.
    """

    level: int
    data: TotalCochain
    cover: Cover

    def __post_init__(self):
        if self.level < -1:
            raise InvalidInputError("level must be at least -1")
        k = self.level + 2
        if self.data.total_degree != k:
            raise InvalidInputError(
                f"level {self.level} needs total degree {k}, got {self.data.total_degree}"
            )
        for (p, n), part in self.data.parts.items():
            if n > len(self.cover.sets):
                raise InvalidInputError(
                    f"part at ({p},{n}) needs {n} cover sets, cover has {len(self.cover.sets)}"
                )
            if (p, n) == (0, k) and not part.angle_valued:
                raise InvalidInputError("the transition layer must be angle-valued")
            for t, comp in part.components.items():
                sub = self.cover.complex if n == 0 else self.cover.overlap(t)
                for cell in comp.values:
                    if not sub.has_cell(cell):
                        raise InvalidInputError(
                            f"part ({p},{n}) component {t} spills outside its overlap at {cell}"
                        )

    @property
    def complex(self) -> SimplicialComplex:
        return self.cover.complex

    @property
    def transition_layer(self) -> BigradedCochain | None:
        return self.data.part(0, self.level + 2)


@dataclass(frozen=True)
class ResidualPeak:
    bidegree: tuple[int, int]
    indices: tuple[int, ...]
    cell: Simplex
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    """Per-bidegree cocycle residuals; pass iff all are within tolerance."""

    tolerance: float
    residuals: dict[tuple[int, int], float]
    worst: tuple[ResidualPeak, ...]
    passed: bool

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def validate_cocycle(datum: GerbeDatum, tol: float | None = None) -> ValidationReport:
    """Check that the total coboundary of the datum vanishes.

    Residuals at the two bidegrees fed by the angle layer, (0, k+1) and
    (1, k), are wrapped into (-pi, pi] before the tolerance test, since those
    equations only hold modulo 2*pi.
    """
    tol = DEFAULT_VALIDATION_TOL if tol is None else float(tol)
    k = datum.level + 2
    residual = big_d(datum.data, datum.cover)
    wrap_rows = {(0, k + 1), (1, k)}
    bidegrees = {
        (p, k + 1 - p) for p in range(k + 2) if k + 1 - p <= len(datum.cover.sets)
    }
    bidegrees.update(residual.parts)
    residuals: dict[tuple[int, int], float] = {}
    peaks: list[ResidualPeak] = []
    for key in sorted(bidegrees):
        part = residual.part(*key)
        if part is None:
            residuals[key] = 0.0
            continue
        if key in wrap_rows:
            part = part.wrapped()
        residuals[key] = part.sup_norm()
        for t, comp in part.components.items():
            for cell, value in comp.values.items():
                peaks.append(ResidualPeak(key, t, cell, abs(value)))
    peaks.sort(key=lambda pk: (-pk.magnitude, pk.bidegree, pk.indices, pk.cell))
    passed = max(residuals.values(), default=0.0) <= tol
    return ValidationReport(tol, residuals, tuple(peaks[:8]), passed)


def curvature(datum: GerbeDatum) -> Cochain:
    """The globally defined top form: minus the stored (k, 0) part."""
    k = datum.level + 2
    part = datum.data.part(k, 0)
    if part is None:
        return Cochain.zero(k)
    comp = part.components.get(())
    return Cochain.zero(k) if comp is None else comp.scaled(-1.0)


def charge(datum: GerbeDatum) -> float:
    """Integral of curvature / 2*pi over the fundamental cycle.

    An integer, up to round-off, for any valid cocycle on a closed oriented
    manifold of dimension level + 2.
    """
    complex = datum.cover.complex
    if complex.top_dimension != datum.level + 2:
        raise InvalidInputError(
            f"charge needs a closed ({datum.level + 2})-manifold; "
            f"top dimension is {complex.top_dimension}"
        )
    cycle = fundamental_cycle(complex)
    return integrate(curvature(datum), cycle) / TWO_PI


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    residual: float
    witness: GaugePotential | None


class _LayerBasis:
    """Flat real coordinates for one total-cochain space over a cover."""

    def __init__(self, cover: Cover, degree: int, *, omit_top_form: bool):
        self.cover = cover
        self.degree = degree
        self.entries: list[tuple[int, int, tuple[int, ...], Simplex]] = []
        self.index: dict[tuple[int, int, tuple[int, ...], Simplex], int] = {}
        # each bidegree's entries are contiguous, so its positions are a range
        self.positions: dict[tuple[int, int], range] = {}
        n_min = 1 if omit_top_form else 0
        for n in range(n_min, min(degree, len(cover.sets)) + 1):
            p = degree - n
            start = len(self.entries)
            tuples = [()] if n == 0 else [t for t in cover.nerve() if len(t) == n]
            for t in tuples:
                sub = cover.complex if n == 0 else cover.overlap(t)
                for cell in sub.cells(p):
                    self.index[(p, n, t, cell)] = len(self.entries)
                    self.entries.append((p, n, t, cell))
            self.positions[(p, n)] = range(start, len(self.entries))

    def vector_of(self, total: TotalCochain) -> np.ndarray:
        vec = np.zeros(len(self.entries))
        for (p, n), part in total.parts.items():
            for t, comp in part.components.items():
                for cell, value in comp.values.items():
                    pos = self.index.get((p, n, t, cell))
                    if pos is None:
                        if value != 0.0:
                            raise InvalidInputError(
                                f"value at ({p},{n},{t},{cell}) lies outside the basis"
                            )
                        continue
                    vec[pos] = value
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

    def rows_at(self, p: int, n: int) -> range:
        return self.positions.get((p, n), range(0))


@dataclass(frozen=True)
class _SparseD:
    """D = delta - dbar in coordinate form: D[rows[e], cols[e]] = signs[e].

    Each (row, column) pair occurs once and every sign is +1 or -1; the two
    products D x and D^T y are weighted bincounts over the nonzeros.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.signs * x[self.cols], minlength=self.shape[0])

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.signs * y[self.rows], minlength=self.shape[1])


def _coboundary_matrix(cover: Cover, cols: _LayerBasis, rows: _LayerBasis) -> _SparseD:
    """Sparse D = delta - dbar from the column basis to the row basis.

    Every entry is +1 or -1: a column (p, n, t, cell) meets the delta rows
    (p, n + 1, t + extra index, cell) and the dbar rows (p + 1, n, t, tau)
    for the cofaces tau of cell inside the overlap of t.
    """
    # nerve tuple -> [(one index deeper tuple, delta sign)]
    deeper: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for target in cover.nerve():
        for a in range(len(target)):
            face = target[:a] + target[a + 1 :]
            deeper.setdefault(face, []).append((target, 1 if a % 2 == 0 else -1))
    # (p, t) -> {p-cell of the overlap of t: [(its (p+1)-coface there, incidence)]}
    cofaces: dict[tuple[int, tuple[int, ...]], dict[Simplex, list[tuple[Simplex, int]]]] = {}
    row_ids: list[int] = []
    col_ids: list[int] = []
    signs: list[int] = []
    for j, (p, n, t, cell) in enumerate(cols.entries):
        for target, sign in deeper.get(t, ()):
            i = rows.index.get((p, n + 1, target, cell))
            if i is not None:
                row_ids.append(i)
                col_ids.append(j)
                signs.append(sign)
        by_face = cofaces.get((p, t))
        if by_face is None:
            sub = cover.complex if n == 0 else cover.overlap(t)
            by_face = {}
            for tau in sub.cells(p + 1):
                for a in range(p + 2):
                    face = tau[:a] + tau[a + 1 :]
                    by_face.setdefault(face, []).append((tau, 1 if a % 2 == 0 else -1))
            cofaces[(p, t)] = by_face
        dsign = -1 if n % 2 == 0 else 1  # the -dbar contribution of D
        for tau, inc in by_face.get(cell, ()):
            i = rows.index.get((p + 1, n, t, tau))
            if i is not None:
                row_ids.append(i)
                col_ids.append(j)
                signs.append(dsign * inc)
    return _SparseD(
        (len(rows.entries), len(cols.entries)),
        np.array(row_ids, dtype=np.intp),
        np.array(col_ids, dtype=np.intp),
        np.array(signs, dtype=float),
    )


def _cgls(matrix: _SparseD, b: np.ndarray, max_iterations: int | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of matrix x = b by CGLS.

    Conjugate gradients on the normal equations (Hestenes-Stiefel), never
    forming matrix^T matrix.  Starting from x = 0 keeps every iterate in the
    row space, so the limit is the minimum-norm solution.  Stops when
    |matrix^T r| <= 1e-15 max(1, |b|); raises NumericError if that takes
    more than max_iterations (4 * columns by default).
    """
    limit = 4 * matrix.shape[1] if max_iterations is None else max_iterations
    x = np.zeros(matrix.shape[1])
    r = b.copy()
    s = matrix.apply_transpose(r)
    direction = s.copy()
    gamma = float(s @ s)
    stop = 1e-30 * max(1.0, float(b @ b))  # (1e-15 max(1, |b|))^2
    for _ in range(limit):
        if gamma <= stop:
            break
        q = matrix.apply(direction)
        alpha = gamma / float(q @ q)
        x += alpha * direction
        r -= alpha * q
        s = matrix.apply_transpose(r)
        gamma, previous = float(s @ s), gamma
        direction = s + (gamma / previous) * direction
    if gamma > stop:
        raise NumericError(f"CGLS did not converge in {limit} iterations")
    return x


def gauge_equivalent(
    first: GerbeDatum, second: GerbeDatum, tol: float | None = None
) -> EquivalenceResult:
    """Search for a potential with D(potential) matching the difference.

    D is assembled sparsely and the minimum-norm potential is found by CGLS,
    whose cost grows with the nonzeros of D times the iterations; it never
    forms D^T D, so the conditioning is that of D and not its square.
    The difference's angle layer is wrapped componentwise before solving and
    angle-layer residual rows are wrapped before the tolerance test, which
    absorbs the 2*pi ambiguity for small winding differences.  Large relative
    windings can defeat the wrapping; charges then separate the data anyway.
    """
    tol = DEFAULT_EQUIVALENCE_TOL if tol is None else float(tol)
    if first.level != second.level:
        raise InvalidInputError("data have different levels")
    if first.cover != second.cover:
        raise InvalidInputError("data live on different covers")
    for name, datum in (("first", first), ("second", second)):
        if not validate_cocycle(datum, tol).passed:
            raise InvalidInputError(f"{name} datum is not a cocycle at tolerance {tol:g}")
    k = first.level + 2
    delta = second.data - first.data
    angle_key = (0, k)
    if angle_key in delta.parts:
        parts = dict(delta.parts)
        wrapped = parts[angle_key].wrapped()
        if wrapped.components:
            parts[angle_key] = wrapped
        else:
            del parts[angle_key]
        delta = TotalCochain(k, parts)
    rows = _LayerBasis(first.cover, k, omit_top_form=False)
    cols = _LayerBasis(first.cover, k - 1, omit_top_form=True)
    b = rows.vector_of(delta)
    if not np.all(np.isfinite(b)):
        raise NumericError("the difference of the data is not finite")
    matrix = _coboundary_matrix(first.cover, cols, rows)
    x = _cgls(matrix, b)
    residual_vec = matrix.apply(x) - b
    for i in rows.rows_at(0, k):
        residual_vec[i] = wrap(float(residual_vec[i]))
    residual = float(np.max(np.abs(residual_vec))) if residual_vec.size else 0.0
    if residual <= tol:
        return EquivalenceResult(True, residual, GaugePotential(cols.total_of(x)))
    return EquivalenceResult(False, residual, None)


def higher_gauge_shift(datum: GerbeDatum, shift: TotalCochain) -> GerbeDatum:
    """Shift by the coboundary of a full degree-(n+1) total cochain.

    Unlike a plain gauge transformation the shift may carry a global form
    part B, which moves the curvature by its derivative while preserving the
    charge on closed manifolds.
    """
    if shift.total_degree != datum.level + 1:
        raise InvalidInputError(
            f"shift must have total degree {datum.level + 1}, got {shift.total_degree}"
        )
    k = datum.level + 2
    shifted = datum.data + big_d(shift, datum.cover)
    top = shifted.part(0, k)
    if top is not None and not top.angle_valued:
        # the datum had no transition layer: its shift becomes one
        parts = dict(shifted.parts)
        parts[(0, k)] = BigradedCochain(0, k, top.components, angle_valued=True)
        shifted = TotalCochain(k, parts)
    return GerbeDatum(datum.level, shifted, datum.cover)


def gauge_shift(datum: GerbeDatum, potential: GaugePotential) -> GerbeDatum:
    """Shift by the coboundary of a gauge potential (no global form part)."""
    return higher_gauge_shift(datum, potential.data)
