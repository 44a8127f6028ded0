"""Concrete charge-1 example data on small triangulated spheres.

The paper's ladder of equations is the descent (tic-tac-toe) of the
Cech-de Rham double complex.  ``_descend`` writes it once: from a winding
transition on the deepest overlap of k sets, each row of D = delta - dbar
fixes the next form one overlap shallower, down to the global curvature.
Every form below the transition is ``bicomplex.dbar`` of the one above, the
cover's cached D with its minus undone, so no sign is written here.

* level -1 on a circle: a family of functions equal to the vertex angle on
  each arc of a three-arc cover, with the winding 1-form as curvature; its
  transition sits on three single sets, so it is written out directly;
* level 0 on a 2-sphere (the monopole): two caps over an equatorial band,
  descended from the longitude on the band, curvature concentrated on the
  polar cells of the second cap;
* level 1 on a 3-sphere (the gerbopole): three patches built over a base
  polygon joined to the fiber circle, descended from the fiber angle on the
  triple overlap, curvature concentrated in the third patch.

Meshes are chosen as the smallest complexes on which the required cover
combinatorics (which overlaps are nonempty, which are bands or shells) are
realized by vertex-induced subcomplexes.  The first form is the wrapped
dbar of the angle, so every charge is an exact telescoping sum.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .bicomplex import TWO_PI, BigradedCochain, TotalCochain, _wrapped, dbar
from .cover import Cover
from .deligne import GerbeDatum
from .errors import InvalidInputError
from .simplicial import Cochain, SimplicialComplex, _are_ids

__all__ = [
    "circle_complex",
    "two_cone_sphere",
    "join_sphere3",
    "build_minus_one_gerbe",
    "build_monopole",
    "build_gerbopole",
    "build_trivial",
    "gerbopole_equator_pair",
]


def _integer(value, name: str) -> int:
    """The value as a Python int by ``_ids``'s rule: 5.5, True and "a" are refused."""
    if not _are_ids((value,)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def circle_complex(segments: int) -> SimplicialComplex:
    """An m-gon circle; vertex k sits at angle 2*pi*k/m."""
    segments = _integer(segments, "segments")
    if segments < 3:
        raise InvalidInputError("a circle needs at least 3 segments")
    edges = [(k, k + 1) for k in range(segments - 1)] + [(0, segments - 1)]
    return SimplicialComplex.from_top_cells(segments, edges, closed_manifold=True)


def two_cone_sphere(segments: int) -> SimplicialComplex:
    """A 2-sphere: two cones over an equatorial band of two m-gon rings.

    Vertices 0..m-1 are the upper ring, m..2m-1 the lower ring (same
    longitudes), 2m the north pole and 2m+1 the south pole.
    """
    m = _integer(segments, "segments")
    if m < 3:
        raise InvalidInputError("a sphere band needs at least 3 segments")
    north, south = 2 * m, 2 * m + 1
    triangles = []
    for k in range(m):
        k1 = (k + 1) % m
        triangles.append((k, k1, north))
        triangles.append((k, k1, m + k1))
        triangles.append((k, m + k, m + k1))
        triangles.append((m + k, m + k1, south))
    return SimplicialComplex.from_top_cells(2 * m + 2, triangles, closed_manifold=True)


def join_sphere3(segments: int, base_segments: int = 8) -> SimplicialComplex:
    """A 3-sphere as the join of a fiber m-gon with a base polygon.

    Vertices 0..m-1 are the fiber circle carrying the winding coordinate;
    m..m+l-1 are the base polygon giving the suspension direction.
    """
    m, l = _integer(segments, "segments"), _integer(base_segments, "base_segments")
    if m < 3 or l < 3:
        raise InvalidInputError("both polygons need at least 3 segments")
    tetrahedra = []
    for k in range(m):
        k1 = (k + 1) % m
        for j in range(l):
            j1 = (j + 1) % l
            tetrahedra.append((k, k1, m + j, m + j1))
    return SimplicialComplex.from_top_cells(m + l, tetrahedra, closed_manifold=True)


def _check_resolution(m: int, winding: int, minimum: int) -> tuple[int, int]:
    """m and winding as Python ints, read by ``_ids``'s rule: True and 12.0 are refused."""
    if not _are_ids((m,)) or m < minimum:
        raise InvalidInputError(f"resolution must be an integer >= {minimum}, got {m!r}")
    if not _are_ids((winding,)) or winding == 0:
        raise InvalidInputError(f"winding must be a nonzero integer, got {winding!r}")
    m, winding = operator.index(m), operator.index(winding)
    # every wrapped increment must stay below pi/2 to rule out branch ambiguity
    if abs(winding) * TWO_PI / m >= 0.5 * math.pi:
        raise InvalidInputError(f"resolution {m} is too coarse for winding {winding}")
    return m, winding


def _winding_form(cover: Cover, angle: BigradedCochain, winding: int) -> Cochain:
    """wrap(winding * dbar angle) on the angle's one overlap, by ``_wrapped``;
    zero values are left out."""
    (form,) = dbar(angle, cover).components.values()
    values = _wrapped(winding * np.fromiter(form.values.values(), float, len(form.values)))
    return Cochain(1, {c: v for c, v in zip(form.values, values.tolist()) if v != 0.0})


def build_minus_one_gerbe(m: int, winding: int = 1) -> GerbeDatum:
    """Level -1 datum on an m-gon circle with three overlapping arcs.

    The function layer equals winding * angle on every arc, so differences on
    overlaps vanish identically, and the global 1-form layer is its wrapped
    derivative; the charge is the winding number.  m must be a multiple of 6
    and at least 12, so every arc endpoint separates the same pair of
    vertices as in the continuum picture and each edge fits inside an arc.
    """
    if not _are_ids((m,)) or m < 12 or m % 6 != 0:
        raise InvalidInputError(
            f"the three-arc cover needs m >= 12 with 6 | m, got {m!r}"
        )
    m, winding = _check_resolution(m, winding, 12)
    complex = circle_complex(m)
    # arcs (0, pi), (2pi/3, 5pi/3), (4pi/3, 7pi/3) in vertex indices
    arc0 = {v for v in range(m) if 0 < v < m // 2}
    arc1 = {v for v in range(m) if m // 3 < v < 5 * m // 6}
    arc2 = {v for v in range(m) if 2 * m // 3 < v or v < m // 6}
    cover = Cover.build(complex, [arc0, arc1, arc2])
    theta = Cochain(0, {(v,): TWO_PI * v / m for v in range(m)})
    functions = {
        (i,): Cochain(0, {(v,): winding * theta.get((v,)) for v in sorted(arc)})
        for i, arc in enumerate(cover.sets)
    }
    one_form = _winding_form(cover, BigradedCochain(0, 0, {(): theta}), winding)
    data = TotalCochain(
        1,
        {
            (0, 1): BigradedCochain(0, 1, functions, angle_valued=True),
            (1, 0): BigradedCochain(1, 0, {(): one_form.scaled(-1.0)}),
        },
    )
    return GerbeDatum(-1, data, cover)


def _descend(cover: Cover, angle: dict[int, float], winding: int) -> TotalCochain:
    """The ladder of a transition on the deepest overlap, down to a curvature.

    With k cover sets and T = (0, ..., k-1), c_0 = winding * angle on the
    overlap of T is the angle-valued (0, k) part at T; c_1 = wrap(winding *
    dbar angle) on that overlap is stored at T[1:]; and each c_{j+1} = dbar c_j,
    taken at T[j:], is stored at T[j+1:], so row (j+1, k-j) of D = delta - dbar
    vanishes at T[j:].  The last is the global (k, 0) curvature.
    """
    k = len(cover.sets)
    t = tuple(range(k))
    theta = Cochain(0, {(v,): angle[v] for (v,) in cover.overlap(t).cells(0)})
    parts = {(0, k): BigradedCochain(0, k, {t: theta.scaled(winding)}, angle_valued=True)}
    layer = _winding_form(cover, BigradedCochain(0, k, {t: theta}), winding)
    for j in range(1, k + 1):
        parts[j, k - j] = BigradedCochain(j, k - j, {t[j:]: layer})
        if j < k:
            (layer,) = dbar(parts[j, k - j], cover).components.values()
    return TotalCochain(k, parts)


def build_monopole(m: int, winding: int = 1) -> GerbeDatum:
    """Level-0 charge-`winding` datum on the two-cone sphere.

    Cover: north cap plus band, south cap plus band; the band overlap is an
    annulus (flagged WARN by the good-cover check, as expected).  Curvature
    lives on the m south polar triangles, roughly 2*pi*winding/m each.
    """
    m, winding = _check_resolution(m, winding, 6)
    complex = two_cone_sphere(m)
    band = set(range(2 * m))
    cover = Cover.build(complex, [band | {2 * m}, band | {2 * m + 1}])
    longitude = {v: TWO_PI * (v % m) / m for v in band}
    return GerbeDatum(0, _descend(cover, longitude, winding), cover)


def build_gerbopole(m: int, winding: int = 1, base_segments: int = 8) -> GerbeDatum:
    """Level-1 charge-`winding` datum on the joined 3-sphere.

    Three patches over base-polygon arcs, each joined with the full fiber
    circle: two thickened caps covering one half and a third patch covering
    the other half plus a collar.  The triple overlap is the bare fiber
    circle and carries the winding transition function; the curvature sits on
    the tetrahedra where the third patch's 2-form layer tapers off.
    """
    m, winding = _check_resolution(m, winding, 6)
    l = _integer(base_segments, "base_segments")
    if l % 2 != 0 or l < 8:
        raise InvalidInputError("the base polygon needs an even count >= 8")
    complex = join_sphere3(m, l)
    fiber = set(range(m))
    base = lambda j: m + (j % l)
    quarter, half = l // 4, l // 2
    arc0 = {base(j) for j in range(-1, quarter + 1)}
    arc1 = {base(j) for j in range(quarter, half + 2)}
    arc2 = {base(j) for j in range(half - 1, l + 2)}
    cover = Cover.build(complex, [fiber | arc0, fiber | arc1, fiber | arc2])

    alpha = {k: TWO_PI * k / m for k in range(m)}
    return GerbeDatum(1, _descend(cover, alpha, winding), cover)


# the zero datum at a level, under its older name
build_trivial = GerbeDatum.zero


def gerbopole_equator_pair(
    m: int, winding: int = 1, base_segments: int = 8
) -> tuple[GerbeDatum, GerbeDatum]:
    """Restrict a gerbopole to its equatorial 2-sphere, plus a direct build.

    The equator is the suspension of the fiber circle by the two base poles.
    Restriction takes: transition = triple-overlap transition read in the
    (first, third, second) index order, connection = the (second, third)
    1-form layer, curvature = the third patch's 2-form layer.  The returned
    pair lives on one shared complex and cover, so it can be fed straight to
    the gauge-equivalence solver; both have the same charge.
    """
    gerbopole = build_gerbopole(m, winding, base_segments)
    l = base_segments
    north_old, south_old = m, m + l // 2
    relabel = {k: k for k in range(m)}
    relabel[north_old] = m
    relabel[south_old] = m + 1
    triangles = []
    for k in range(m):
        k1 = (k + 1) % m
        triangles.append((k, k1, m))
        triangles.append((k, k1, m + 1))
    sphere = SimplicialComplex.from_top_cells(m + 2, triangles, closed_manifold=True)
    ring = set(range(m))
    cover = Cover.build(sphere, [ring | {m}, ring | {m + 1}])

    def restrict(cochain: Cochain, old_support: set[int]) -> Cochain:
        out = {}
        for cell, value in cochain.values.items():
            if all(v in old_support for v in cell):
                out[tuple(sorted(relabel[v] for v in cell))] = value
        return Cochain(cochain.degree, out)

    old_sphere = ring | {north_old, south_old}
    transition = restrict(
        gerbopole.data.part(0, 3).component((0, 2, 1)), old_sphere
    )
    connection = restrict(
        gerbopole.data.part(1, 2).component((1, 2)), old_sphere
    )
    field = restrict(gerbopole.data.part(2, 1).component((2,)), old_sphere)
    restricted = GerbeDatum(
        0,
        TotalCochain(
            2,
            {
                (0, 2): BigradedCochain(0, 2, {(0, 1): transition}, angle_valued=True),
                (1, 1): BigradedCochain(1, 1, {(1,): connection}),
                (2, 0): BigradedCochain(2, 0, {(): field.scaled(-1.0)}),
            },
        ),
        cover,
    )
    # reading the transition at (0, 2, 1) negates it, hence -winding
    longitude = {k: TWO_PI * k / m for k in range(m)}
    direct = GerbeDatum(0, _descend(cover, longitude, -winding), cover)
    return restricted, direct
