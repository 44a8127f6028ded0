import math
from fractions import Fraction

import numpy as np
import pytest

from gerbecalc import InvalidInputError, build_monopole
from gerbecalc.randomdata import random_bigraded, random_gauge_potential, random_total
from gerbecalc.rng import Lcg64


@pytest.fixture(scope="module")
def cover():
    return build_monopole(6).cover


def draws(cover, amplitude):
    """One draw of each generator at the amplitude, from seed 5."""
    return (
        random_bigraded(cover, 1, 1, Lcg64(5), amplitude),
        random_total(cover, 2, Lcg64(5), amplitude),
        random_gauge_potential(cover, 1, Lcg64(5), amplitude),
    )


class TestAmplitude:
    @pytest.mark.parametrize("bad", ["1", True, None, [1], np.bool_(True)])
    def test_refuses_what_is_not_a_real_number(self, cover, bad):
        # arithmetic on "1" raised a bare TypeError, and True drew as 1.0
        for draw in (random_bigraded, random_total, random_gauge_potential):
            args = (cover, 1, 1, Lcg64(5)) if draw is random_bigraded else (cover, 1, Lcg64(5))
            with pytest.raises(InvalidInputError, match="^amplitude .*: must be a real number$"):
                draw(*args, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_values(self, cover, bad):
        # a NaN amplitude drew a cochain of NaNs
        for draw in (random_bigraded, random_total, random_gauge_potential):
            args = (cover, 1, 1, Lcg64(5)) if draw is random_bigraded else (cover, 1, Lcg64(5))
            with pytest.raises(InvalidInputError, match="^amplitude must be finite, got"):
                draw(*args, bad)

    @pytest.mark.parametrize("amplitude", [2, np.float32(2.0), np.int64(2), Fraction(2)])
    def test_any_real_number_draws_as_its_float(self, cover, amplitude):
        assert draws(cover, amplitude) == draws(cover, 2.0)
