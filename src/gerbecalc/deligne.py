"""Cocycle data: validation, curvature, integer charges, gauge equivalence.

A level-n datum is a total cochain of degree n + 2 over a cover: the (0, n+2)
part is the angle-valued transition layer, intermediate parts are connection
layers, and the global (n+2, 0) part stores minus the curvature.  A bundle is
the level-0 case and a gerbe the level-1 case; level -1 is allowed.

A datum keeps its coordinates on the cover's basis, and validation, the
charge, shifts and equivalence read them; all but the charge apply the cover's
cached sparse D (``bicomplex._coboundary``) to vectors, and the charge zips
them with the complex's +-1 orientation list.  A shift adds D of the potential
to the datum's vector and builds no dicts; ``data`` adds the images to its
dicts on first read.  A datum keeps the largest value of its residual per
bidegree from the first validation or equivalence that reads it, and its worst
peaks from the first validation; each call compares the maxima with its own
tolerance.  Equivalence descends the difference by the Cech contraction K of
``bicomplex``, one sparse apply of K and one of D per Cech degree, and solves
d eta = omega for the global form omega left on the manifold alone in one
peel, at every level: the complex's walk of that degree
(``SimplicialComplex._order``), which puts eta = 0 on the cells whose rows
solved a step one degree down and on its roots, replayed on omega in rounds,
one numpy pass per round (``SimplicialComplex._schedule``, level scheduling:
Anderson and Saad, 1989); the residual checks the rows off the walk.  Two
valid cocycles are equivalent when the difference is matched by the total
coboundary of a potential without global top form part,
with angle-layer rows compared modulo 2*pi.  Rejection means no such witness
was found at tolerance; it is numeric evidence, not a certificate, and equal
charges do not settle it: the rejected amplitude-3 shifts of
``random_gauge_potential`` all have charge 1.0
(ROADMAP.md, "Lost integers I").
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from itertools import islice

import numpy as np

from .bicomplex import (
    TWO_PI,
    BigradedCochain,
    GaugePotential,
    TotalCochain,
    _basis,
    _coboundary,
    _contraction,
    _flat,
    _image,
    _wrapped,
)
from .cover import Cover
from .errors import InvalidInputError, NumericError, _expect
from .simplicial import Cochain, Simplex, _ids, _real, _worst

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


class GerbeDatum:
    """Local data of a level-n object over a fixed cover.

    Parts may be absent (absent means zero).  The level is an integer by
    ``_ids``'s rule; the (0, n+2) part, when present, must be flagged
    angle-valued; and every component must be supported inside its overlap.

    A datum keeps its coordinates on the cover's basis of total degree n + 2,
    placed by ``_LayerBasis.vector``; validation, equivalence, the charge and
    the shifts read them.  A datum loaded from a file keeps the file's flat
    parts for its dict form, decoded when ``data`` is first read.  A shift adds
    the image of D to the coordinates and records it in ``_shifts``; ``data``
    adds the recorded images to the dict form when it is first read, one dict
    sum per shift, so a chain of k shifts costs k dict sums there.  The
    residual's maxima (``_residual_maxima``) and peaks (``validate_cocycle``)
    are kept from their first use; a shift starts without them.  Instances are
    immutable values, equal when level, data and cover are.
    """

    def __init__(self, level: int, data: TotalCochain, cover: Cover):
        data, cover = _expect(data, TotalCochain, "data"), _expect(cover, Cover, "cover")
        parts = [(key, part.angle_valued, *_flat(part, cover.complex)) for key, part in data.parts.items()]
        self._place(level, data.total_degree, cover, parts, data)

    def _place(self, level: int, degree: int, cover: Cover, parts: list, data) -> None:
        """Set the fields from ``parts``, each ((p, n), angle_valued, ``_flat`` of it),
        checked for the angle rule before ``vector`` places them, and ``data``, their
        dict form or ``parts``."""
        (level,) = _ids((level,), "level")
        if level < -1:
            raise InvalidInputError("level must be at least -1")
        if degree != (k := level + 2):
            raise InvalidInputError(f"level {level} needs total degree {k}, got {degree}")
        if any(key == (0, k) and not angle for key, angle, *_ in parts):
            raise InvalidInputError("the transition layer must be angle-valued")
        vector = _basis(cover, k).vector((*key, *flat) for key, _, *flat in parts)
        vars(self).update(
            level=level, cover=cover, _data=data, _vector=vector, _shifts=(), _maxima=None, _peaks=None
        )

    @classmethod
    def zero(cls, cover: Cover, level: int) -> "GerbeDatum":
        """The zero datum at the given level: all parts absent."""
        (level,) = _ids((level,), "level")
        return cls(level, TotalCochain.zero(level + 2), cover)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def data(self) -> TotalCochain:
        if isinstance(self._data, list):  # flat parts from a file, decoded in their order
            parts = {}
            for (p, n), angle, tuples, counts, cells, _, values in self._data:
                pairs = zip(cells, values.tolist())
                comps = {t: Cochain(p, dict(islice(pairs, c))) for t, c in zip(tuples, counts)}
                parts[p, n] = BigradedCochain(p, n, comps, angle)
            vars(self).update(_data=TotalCochain(self.level + 2, parts))
        if self._shifts:
            # the empty angle-valued (0, k) part flags the image's transition
            # layer; joined to the data first, it would fall away with an empty part
            k, data = self.level + 2, self._data
            flag = TotalCochain(k, {(0, k): BigradedCochain.zero(0, k, True)})
            basis = _basis(self.cover, k)
            for image in self._shifts:
                data = data + (flag + basis.total_of(image))
            vars(self).update(_data=data, _shifts=())
        return self._data

    @property
    def transition_layer(self) -> BigradedCochain | None:
        return self.data.part(0, self.level + 2)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.data, self.cover) == (other.level, other.data, other.cover)

    __hash__ = None  # the data are dicts

    def __repr__(self) -> str:
        return f"GerbeDatum(level={self.level!r}, data={self.data!r}, cover={self.cover!r})"

    def _plus(self, image: np.ndarray) -> "GerbeDatum":
        """This datum plus an image of D: the image joins the coordinates, and
        ``data`` adds it to the dict form when it is first read."""
        vector = self._vector.copy()
        at = np.flatnonzero(image)
        vector[at] += image[at]
        datum = object.__new__(GerbeDatum)
        # the shifted vector has its own residual, computed when first asked for
        vars(datum).update(
            vars(self), _vector=vector, _shifts=self._shifts + (image,), _maxima=None, _peaks=None
        )
        return datum


@dataclass(frozen=True)
class ResidualPeak:
    bidegree: tuple[int, int]
    indices: tuple[int, ...]
    cell: Simplex
    magnitude: float


def _checked_tol(tol: float, name: str = "tol") -> float:
    """The tolerance as a float (``_real``); NaN, infinite and negative values are refused."""
    tol = _real(tol, name)
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
    tolerance raises InvalidInputError.  The datum keeps its maxima and peaks
    from the first call; ``passed`` is decided per call from tol.
    """
    tol = _checked_tol(DEFAULT_VALIDATION_TOL if tol is None else tol)
    if _expect(datum, GerbeDatum, "datum")._peaks is None:
        residual, at, maxima = _residual(datum)
        magnitudes = np.abs(residual[at])
        nan = np.isnan(magnitudes)
        # NaN first, since NaN compares false with everything; then the largest.  The
        # sort is stable and ``at`` runs by bidegree, then by (indices, cell).
        peaks, rows = [], _basis(datum.cover, datum.level + 3)
        for i in np.lexsort((-np.where(nan, 0.0, magnitudes), ~nan))[:8]:
            p, n, t, cell = rows.entry(int(at[i]))
            peaks.append(ResidualPeak((p, n), t, cell, float(magnitudes[i])))
        vars(datum).update(_maxima=maxima, _peaks=tuple(peaks))
    return ValidationReport(tol, dict(datum._maxima), datum._peaks, _within(datum._maxima, tol))


def _residual(datum: GerbeDatum):
    """The residual of the datum's coordinates: D of them through the cover's
    cached matrix, with the (0, k+1) and (1, k) rows wrapped; the positions of
    its nonzero values, by bidegree; and the largest |value| per bidegree."""
    cover, k = datum.cover, datum.level + 2
    residual = _coboundary(cover, k).apply(datum._vector)
    maxima: dict[tuple[int, int], float] = {}
    nonzero = []
    for key, span in sorted(_basis(cover, k + 1).positions.items()):
        at = span.start + np.flatnonzero(residual[span.start : span.stop])
        if key in ((0, k + 1), (1, k)):
            residual[at] = _wrapped(residual[at])
            at = at[residual[at] != 0.0]
        maxima[key] = float(np.max(np.abs(residual[at]), initial=0.0))
        nonzero.append(at)
    return residual, np.concatenate(nonzero), maxima


def _residual_maxima(datum: GerbeDatum) -> dict[tuple[int, int], float]:
    """The datum's largest |residual| per bidegree, computed on first use and kept."""
    if datum._maxima is None:
        vars(datum).update(_maxima=_residual(datum)[2])
    return datum._maxima


def _within(residuals: dict[tuple[int, int], float], tol: float) -> bool:
    """Whether every per-bidegree maximum is finite and within tol."""
    worst = _worst(residuals.values())
    return math.isfinite(worst) and worst <= tol


def curvature(datum: GerbeDatum) -> Cochain:
    """The globally defined top form: minus the stored (k, 0) part."""
    k = _expect(datum, GerbeDatum, "datum").level + 2
    part = datum.data.part(k, 0)
    if part is None:
        return Cochain.zero(k)
    comp = part.components.get(())
    return Cochain.zero(k) if comp is None else comp.scaled(-1.0)


def charge(datum: GerbeDatum) -> float:
    """Integral of curvature / 2*pi over the fundamental cycle.

    An integer, up to round-off, for any valid cocycle on a closed oriented
    manifold of dimension level + 2.  It zips the complex's +-1 orientation with
    the global (k, 0) coordinates, both in ``cells(k)`` order, ``integrate``'s
    sorted order, so the float is ``integrate(curvature(datum), cycle)``'s.
    """
    complex, k = _expect(datum, GerbeDatum, "datum").cover.complex, datum.level + 2
    if complex.top_dimension != k:
        raise InvalidInputError(
            f"charge needs a closed ({k})-manifold; top dimension is {complex.top_dimension}"
        )
    span = _basis(datum.cover, k).positions[k, 0]
    # curvature() holds minus the values; where none is stored, the term -0.0 or
    # 0.0 leaves the running sum as integrate's 0.0 for an absent cell does
    values = (-datum._vector[span.start : span.stop]).tolist()
    return float(sum(map(operator.mul, complex._cycle, values))) / TWO_PI


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    residual: float
    witness: GaugePotential | None


def _descent(cover: Cover, k: int, b: np.ndarray) -> np.ndarray:
    """The zig-zag of K: a potential x of degree k - 1 without global part, a
    fixed linear map of b, with D x = b when b is D of one.

    From the top Cech degree down to n = 2, y = K r on block (k - n, n) of r
    joins x and D y leaves r.  By delta K + K delta = 1 the (k - 1, 1) block
    left is delta omega, omega = K r global; and delta eta, the (k - 2, 1)
    block of D eta, has D of it equal to delta omega when d eta = omega (D's
    global block is -d): the replay of the complex's walk of degree k - 2 by
    rounds, one numpy pass per round (``SimplicialComplex._schedule``), with
    eta = 0 on the walk's seeds and roots.
    A total degree k < 2, whose potential has no global form to descend, is refused.
    """
    if k < 2:
        raise InvalidInputError(f"the descent needs a total degree k >= 2, got {k}")
    rows, cols = _basis(cover, k), _basis(cover, k - 1)
    d, contraction = _coboundary(cover, k - 1), _contraction(cover, k)
    x, r = np.zeros(cols.size), b.copy()
    for (p, n), span in reversed(rows.positions.items()):  # n falls to 0
        if not (n and span):
            continue
        part = np.zeros(rows.size)
        part[span.start : span.stop] = r[span.start : span.stop]
        y = contraction.apply(part)
        if n > 1:
            x, r = x + y, r - d.apply(y)
            continue
        forms, complex = cols.positions[k - 1, 0], cover.complex
        omega = y[forms.start : forms.stop]
        eta = complex._schedule(k - 2).replay(omega, np.zeros(len(complex.cells(k - 2))))
        # delta restricts eta to each set: (t, cell) takes eta(cell)
        at = cols.positions[k - 2, 1]
        x[at.start : at.stop] += eta[cols.cell_ids[k - 2, 1]]
    return x


def gauge_equivalent(
    first: GerbeDatum, second: GerbeDatum, tol: float | None = None
) -> EquivalenceResult:
    """Search for a potential with D(potential) matching the difference: its
    ``_descent``.  Only the (0, k) rows, which compare the transition layers,
    hold modulo 2*pi; they are wrapped in the difference before the descent
    and in the residual before the tolerance test, which absorbs small
    winding differences.  The wrapping misses the integers of larger shifts,
    and equal charges do not settle those: ``random_gauge_potential`` shifts
    of ``build_monopole(12)`` or ``build_gerbopole(12)``, seeds 0-9, are
    accepted 10/10 at amplitude 1, 1/10 at 2 and 0/10 at 3, every charge 1.0
    (ROADMAP.md, "Lost integers I").  A NaN, infinite or negative tolerance
    raises InvalidInputError.

    Both data are checked against tol through their kept residual maxima, so
    the residual of a datum already validated is not computed again.
    """
    tol = _checked_tol(DEFAULT_EQUIVALENCE_TOL if tol is None else tol)
    _expect(first, GerbeDatum, "first")
    _expect(second, GerbeDatum, "second")
    if first.level != second.level:
        raise InvalidInputError("data have different levels")
    if first.cover != second.cover:
        raise InvalidInputError("data live on different covers")
    cover, k = first.cover, first.level + 2
    # the covers are equal by value, so both data are checked on one cached D,
    # and their coordinates lie on bases of one layout
    for name, datum in (("first", first), ("second", second)):
        if not _within(_residual_maxima(datum), tol):
            raise InvalidInputError(f"{name} datum is not a cocycle at tolerance {tol:g}")
    rows, cols = _basis(cover, k), _basis(cover, k - 1)
    with np.errstate(over="ignore"):
        b = second._vector - first._vector
    if not np.all(np.isfinite(b)):
        raise NumericError("the difference of the data is not finite")
    span = rows.positions.get((0, k), range(0))
    angle = slice(span.start, span.stop)
    b[angle] = _wrapped(b[angle])
    # at level -1 a potential, having no global part, is empty
    x = _descent(cover, k, b) if k > 1 else np.zeros(cols.size)
    residual_vec = _coboundary(cover, k - 1).apply(x) - b
    residual_vec[angle] = _wrapped(residual_vec[angle])
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
    _expect(datum, GerbeDatum, "datum")
    _expect(shift, TotalCochain, "shift")
    if shift.total_degree != datum.level + 1:
        raise InvalidInputError(
            f"shift must have total degree {datum.level + 1}, got {shift.total_degree}"
        )
    return datum._plus(_image(shift, datum.cover))


def gauge_shift(datum: GerbeDatum, potential: GaugePotential) -> GerbeDatum:
    """Shift by the coboundary of a gauge potential (no global form part)."""
    return higher_gauge_shift(datum, _expect(potential, GaugePotential, "potential").data)
