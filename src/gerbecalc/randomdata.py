"""Seeded random complexes, covers, and cochains for self-checks and tests.

Everything here draws from the pinned 64-bit generator, so a seed fully
determines the produced objects across runs and platforms.
"""

from __future__ import annotations

import math

from .bicomplex import BigradedCochain, GaugePotential, TotalCochain
from .builders import circle_complex, two_cone_sphere
from .cover import Cover
from .errors import InvalidInputError
from .rng import Lcg64
from .simplicial import Cochain, SimplicialComplex, _real


def random_complex(rng: Lcg64) -> SimplicialComplex:
    if rng.uniform() < 0.4:
        return circle_complex(rng.randint(6, 13))
    return two_cone_sphere(rng.randint(4, 9))


def random_cover(complex: SimplicialComplex, rng: Lcg64) -> Cover:
    """Random cover built by assigning top cells to sets, plus thickening.

    Every cell of the complex is a face of some top cell, so the assignment
    guarantees the cover refines the complex.
    """
    nsets = rng.randint(2, 3)
    sets: list[set[int]] = [set() for _ in range(nsets)]
    tops = complex.cells(complex.top_dimension)
    for cell in tops:
        sets[rng.randint(0, nsets - 1)].update(cell)
        if rng.uniform() < 0.4:
            sets[rng.randint(0, nsets - 1)].update(cell)
    for i, s in enumerate(sets):
        if not s:
            s.update(tops[i % len(tops)])
    return Cover.build(complex, sets)


def random_complex_and_cover(rng: Lcg64) -> tuple[SimplicialComplex, Cover]:
    complex = random_complex(rng)
    return complex, random_cover(complex, rng)


def random_bigraded(
    cover: Cover, p: int, n: int, rng: Lcg64, amplitude: float = 1.0
) -> BigradedCochain:
    """Dense random values on every p-cell of every n-fold overlap, drawn in the
    order of the cover's block (p, n): by tuple, then by cell."""
    amplitude = _amplitude(amplitude)
    components: dict[tuple[int, ...], dict] = {}
    if 0 <= p <= cover.complex.top_dimension and n >= 0:
        layer, cells = cover._layer_arrays(n), cover.complex.cells(p)
        for t, c in zip(*(ids.tolist() for ids in layer.block(p))):
            components.setdefault(layer.tuples[t], {})[cells[c]] = rng.uniform(-amplitude, amplitude)
    return BigradedCochain(p, n, {t: Cochain(p, values) for t, values in components.items()})


def _amplitude(amplitude: float) -> float:
    """The amplitude as a float (``_real``); NaN and infinite values are refused."""
    amplitude = _real(amplitude, "amplitude")
    if not math.isfinite(amplitude):
        raise InvalidInputError(f"amplitude must be finite, got {amplitude!r}")
    return amplitude


def _random_total(
    cover: Cover, degree: int, rng: Lcg64, amplitude: float, first_cech_degree: int
) -> TotalCochain:
    amplitude = _amplitude(amplitude)
    parts = {}
    for n in range(first_cech_degree, min(degree, len(cover.sets)) + 1):
        p = degree - n
        if p > cover.complex.top_dimension:
            continue
        part = random_bigraded(cover, p, n, rng, amplitude)
        if part.components:
            parts[(p, n)] = part
    return TotalCochain(degree, parts)


def random_total(
    cover: Cover, degree: int, rng: Lcg64, amplitude: float = 1.0
) -> TotalCochain:
    return _random_total(cover, degree, rng, amplitude, 0)


def random_gauge_potential(
    cover: Cover, degree: int, rng: Lcg64, amplitude: float = 1.0
) -> GaugePotential:
    """Random potential without global form part.  ``gauge_equivalent``
    finds the shifts it makes only at small amplitudes, even below pi: 1/10
    at amplitude 2 on the m = 12 monopole and gerbopole, seeds 0-9 (ROADMAP.md,
    "Lost integers I").  At degree 0 (level -1 data) the only part would be
    the global one, so the potential is empty and ``demo minus1
    --perturb-gauge`` writes the unperturbed file."""
    return GaugePotential(_random_total(cover, degree, rng, amplitude, 1))
