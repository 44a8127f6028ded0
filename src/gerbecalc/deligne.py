"""Cocycle data: validation, curvature, integer charges, gauge equivalence.

A level-n datum is a total cochain of degree n + 2 over a cover: the (0, n+2)
part is the angle-valued transition layer, intermediate parts are connection
layers, and the global (n+2, 0) part stores minus the curvature.  A bundle is
the level-0 case and a gerbe the level-1 case; level -1 is allowed.

Gauge equivalence is decided by a sparse minimum-norm solve: D is assembled
by ``bicomplex._coboundary_matrix`` as a sparse integer matrix over flat
bases of the potential and datum spaces, and conjugate gradients on the
normal equations (CGLS) run without forming D^T D.
Two valid cocycles are accepted as equivalent when the difference is matched
by the total coboundary of a potential without global top form part, with
angle-layer rows compared modulo 2*pi.  Rejection means no such witness was
found at tolerance; it is numeric evidence, not a certificate.  The charge is
the reliable separator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bicomplex import (
    TWO_PI,
    BigradedCochain,
    GaugePotential,
    TotalCochain,
    _coboundary_matrix,
    _LayerBasis,
    _SparseD,
    _wrap_finite,
    big_d,
    wrap,
)
from .cover import Cover
from .errors import InvalidInputError, NumericError
from .simplicial import (
    Cochain,
    Simplex,
    SimplicialComplex,
    _worst,
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
                sub = self.cover.overlap(t)
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


def _checked_tol(tol: float, name: str = "tol") -> float:
    """The tolerance as a float; NaN, infinite and negative values are refused."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError(f"{name} must be finite and non-negative, got {tol!r}")
    return tol


def _peak_order(peak: ResidualPeak) -> tuple:
    """NaN magnitudes first, since NaN compares false with everything; then the largest."""
    nan = math.isnan(peak.magnitude)
    return (not nan, 0.0 if nan else -peak.magnitude, peak.bidegree, peak.indices, peak.cell)


@dataclass(frozen=True)
class ValidationReport:
    """Per-bidegree cocycle residuals; pass iff all are finite and within tol."""

    tolerance: float
    residuals: dict[tuple[int, int], float]
    worst: tuple[ResidualPeak, ...]
    passed: bool

    def max_residual(self) -> float:
        return _worst(self.residuals.values())


def validate_cocycle(datum: GerbeDatum, tol: float | None = None) -> ValidationReport:
    """Check that the total coboundary of the datum vanishes.

    D is linear, so the residual rows fed by the angle layer, (0, k+1) and
    (1, k), hold only modulo 2*pi: each of their values is wrapped into
    (-pi, pi] before the tolerance test, and one that wraps to 0 is dropped.
    A non-finite residual fails at any tolerance; a NaN, infinite or negative
    tolerance raises InvalidInputError.
    """
    tol = _checked_tol(DEFAULT_VALIDATION_TOL if tol is None else tol)
    k = datum.level + 2
    residual = big_d(datum.data, datum.cover)
    wrap_rows = {(0, k + 1), (1, k)}
    first_p = max(0, k + 1 - len(datum.cover.sets))
    bidegrees = {(p, k + 1 - p) for p in range(first_p, k + 2)}
    bidegrees.update(residual.parts)
    residuals: dict[tuple[int, int], float] = {}
    peaks: list[ResidualPeak] = []
    for key in sorted(bidegrees):
        part = residual.part(*key)
        if part is None:
            residuals[key] = 0.0
            continue
        start, wrapped = len(peaks), key in wrap_rows
        for t, comp in part.components.items():
            for cell, value in comp.values.items():
                if wrapped:
                    value = _wrap_finite(value)
                if value != 0.0:
                    peaks.append(ResidualPeak(key, t, cell, abs(value)))
        residuals[key] = _worst(pk.magnitude for pk in peaks[start:])
    peaks.sort(key=_peak_order)
    worst = _worst(residuals.values())
    passed = math.isfinite(worst) and worst <= tol
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
    D is linear; only the (0, k) rows, which compare the transition layers,
    hold modulo 2*pi.  They are wrapped cell by cell in the difference before
    solving and in the residual before the tolerance test, which absorbs the
    2*pi ambiguity for small winding differences.  Large relative windings
    can defeat the wrapping; charges then separate the data anyway.
    A NaN, infinite or negative tolerance raises InvalidInputError.
    """
    tol = _checked_tol(DEFAULT_EQUIVALENCE_TOL if tol is None else tol)
    if first.level != second.level:
        raise InvalidInputError("data have different levels")
    if first.cover != second.cover:
        raise InvalidInputError("data live on different covers")
    for name, datum in (("first", first), ("second", second)):
        if not validate_cocycle(datum, tol).passed:
            raise InvalidInputError(f"{name} datum is not a cocycle at tolerance {tol:g}")
    k = first.level + 2
    rows = _LayerBasis(first.cover, k, omit_top_form=False)
    cols = _LayerBasis(first.cover, k - 1, omit_top_form=True)
    with np.errstate(over="ignore"):
        b = rows.vector_of(second.data) - rows.vector_of(first.data)
    if not np.all(np.isfinite(b)):
        raise NumericError("the difference of the data is not finite")
    angle_rows = rows.positions.get((0, k), ())
    for i in angle_rows:
        b[i] = wrap(float(b[i]))
    matrix = _coboundary_matrix(first.cover, cols, rows)
    x = _cgls(matrix, b)
    residual_vec = matrix.apply(x) - b
    for i in angle_rows:
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
