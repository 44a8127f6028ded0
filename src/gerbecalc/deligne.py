"""Cocycle data: validation, curvature, integer charges, gauge equivalence.

A level-n datum is a total cochain of degree n + 2 over a cover: the (0, n+2)
part is the angle-valued transition layer, intermediate parts are connection
layers, and the global (n+2, 0) part stores minus the curvature.  A bundle is
the level-0 case and a gerbe the level-1 case; level -1 is allowed.

Validation, shifts and equivalence all apply the cover's cached sparse D
(``bicomplex._coboundary``).  Equivalence is a minimum-norm solve by
conjugate gradients on the normal equations (CGLS), without forming D^T D.
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
    _basis,
    _check_support,
    _coboundary,
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
            _check_support(part, self.cover)
            if (p, n) == (0, k) and not part.angle_valued:
                raise InvalidInputError("the transition layer must be angle-valued")

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
    return _residual_report(datum.data, datum.cover, tol)


def _residual_report(data: TotalCochain, cover: Cover, tol: float) -> ValidationReport:
    """The report of ``validate_cocycle`` for data that fit the cover: D(data)
    through the cover's cached matrix, one maximum per bidegree, and peaks
    built only for the 8 worst nonzero entries."""
    k = data.total_degree
    rows = _basis(cover, k + 1)
    residual = _coboundary(cover, k).apply(_basis(cover, k).vector_of(data))
    residuals: dict[tuple[int, int], float] = {}
    nonzero = []
    for key, span in sorted(rows.positions.items()):
        at = span.start + np.flatnonzero(residual[span.start : span.stop])
        if key in ((0, k + 1), (1, k)):
            residual[at] = [_wrap_finite(v) for v in residual[at].tolist()]
            at = at[residual[at] != 0.0]
        residuals[key] = float(np.max(np.abs(residual[at]), initial=0.0))
        nonzero.append(at)
    at = np.concatenate(nonzero)
    magnitudes = np.abs(residual[at])
    nan = np.isnan(magnitudes)
    # NaN first, since NaN compares false with everything; then the largest.  The
    # sort is stable and ``at`` runs by bidegree, then by (indices, cell).
    peaks = []
    for i in np.lexsort((-np.where(nan, 0.0, magnitudes), ~nan))[:8]:
        p, n, t, cell = rows.entry(int(at[i]))
        peaks.append(ResidualPeak((p, n), t, cell, float(magnitudes[i])))
    worst = _worst(residuals.values())
    passed = math.isfinite(worst) and worst <= tol
    return ValidationReport(tol, residuals, tuple(peaks), passed)


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
    more than max_iterations (4 * columns by default), or if a norm overflows.
    """
    limit = 4 * matrix.shape[1] if max_iterations is None else max_iterations
    x = np.zeros(matrix.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        r = b.copy()
        s = matrix.apply_transpose(r)
        direction = s.copy()
        gamma = float(s @ s)
        stop = 1e-30 * max(1.0, float(b @ b))  # (1e-15 max(1, |b|))^2
        if not math.isfinite(stop):
            raise NumericError("the right-hand side is too large for CGLS")
        for _ in range(limit):
            if not gamma > stop:  # converged, or NaN after an overflow
                break
            q = matrix.apply(direction)
            alpha = gamma / float(q @ q)
            x += alpha * direction
            r -= alpha * q
            s = matrix.apply_transpose(r)
            gamma, previous = float(s @ s), gamma
            direction = s + (gamma / previous) * direction
    if math.isnan(gamma):
        raise NumericError("CGLS overflowed")
    if gamma > stop:
        raise NumericError(f"CGLS did not converge in {limit} iterations")
    return x


def gauge_equivalent(
    first: GerbeDatum, second: GerbeDatum, tol: float | None = None
) -> EquivalenceResult:
    """Search for a potential with D(potential) matching the difference.

    CGLS finds the minimum-norm potential on the cached D, at a cost of the
    nonzeros of D times the iterations, with the conditioning of D and not
    of D^T D.  Only the (0, k) rows, which compare the transition layers,
    hold modulo 2*pi; they are wrapped in the difference before solving and
    in the residual before the tolerance test, which absorbs small winding
    differences.  Large relative windings can defeat the wrapping; charges
    then separate the data anyway.  A NaN, infinite or negative tolerance
    raises InvalidInputError.
    """
    tol = _checked_tol(DEFAULT_EQUIVALENCE_TOL if tol is None else tol)
    if first.level != second.level:
        raise InvalidInputError("data have different levels")
    if first.cover != second.cover:
        raise InvalidInputError("data live on different covers")
    cover, k = first.cover, first.level + 2
    # the covers are equal by value, so both data are checked on one cached D
    for name, datum in (("first", first), ("second", second)):
        if not _residual_report(datum.data, cover, tol).passed:
            raise InvalidInputError(f"{name} datum is not a cocycle at tolerance {tol:g}")
    rows, cols = _basis(cover, k), _basis(cover, k - 1)
    with np.errstate(over="ignore"):
        b = rows.vector_of(second.data) - rows.vector_of(first.data)
    if not np.all(np.isfinite(b)):
        raise NumericError("the difference of the data is not finite")
    angle = rows.positions.get((0, k), range(0))
    b[angle] = [wrap(v) for v in b[angle].tolist()]
    # a potential has no global (k - 1, 0) part, the leading column block
    omitted = len(cols.positions[k - 1, 0])
    matrix = _coboundary(cover, k - 1).without_leading_columns(omitted)
    x = _cgls(matrix, b)
    residual_vec = matrix.apply(x) - b
    residual_vec[angle] = [wrap(v) for v in residual_vec[angle].tolist()]
    residual = float(np.max(np.abs(residual_vec))) if residual_vec.size else 0.0
    if residual <= tol:
        witness = cols.total_of(np.concatenate([np.zeros(omitted), x]))
        return EquivalenceResult(True, residual, GaugePotential(witness))
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
    # an empty angle-valued (0, k) part flags the shift's transition layer,
    # also where the datum has none
    image = TotalCochain(k, {(0, k): BigradedCochain.zero(0, k, True)}) + big_d(shift, datum.cover)
    return GerbeDatum(datum.level, datum.data + image, datum.cover)


def gauge_shift(datum: GerbeDatum, potential: GaugePotential) -> GerbeDatum:
    """Shift by the coboundary of a gauge potential (no global form part)."""
    return higher_gauge_shift(datum, potential.data)
