import numpy as np
import pytest

from gerbecalc import InvalidInputError
from gerbecalc.rng import Lcg64


class TestSeed:
    @pytest.mark.parametrize("bad", [1.5, True, "a", "1", None, [1]])
    def test_refuses_what_is_not_an_id(self, bad):
        # int() would seed 1.5 and True as 1, and raise a bare ValueError on "a"
        with pytest.raises(InvalidInputError, match="^seed .*: ids must be integers$"):
            Lcg64(bad)

    def test_numpy_and_large_seeds_are_read_as_ints(self):
        assert Lcg64(np.int64(7)).next_u64() == Lcg64(7).next_u64()
        assert type(Lcg64(np.uint8(7)).state) is int
        assert Lcg64(2**64 + 5).state == Lcg64(5).state == 5
        assert Lcg64(-1).state == 2**64 - 1


class TestRandint:
    def test_stays_in_range(self):
        rng = Lcg64(3)
        assert {rng.randint(2, 4) for _ in range(200)} == {2, 3, 4}
        assert rng.randint(5, 5) == 5

    def test_refuses_an_empty_range(self):
        with pytest.raises(InvalidInputError, match=r"^empty range \[3, 2\]$"):
            Lcg64(1).randint(3, 2)

    @pytest.mark.parametrize("bounds", [(0.5, 2), (0, 2.0), (True, 2), ("0", 2), (0, None)])
    def test_refuses_bounds_that_are_not_ids(self, bounds):
        # 0.5 + an int would return the float 1.0
        with pytest.raises(InvalidInputError, match="^randint bounds .*: ids must be integers$"):
            Lcg64(1).randint(*bounds)

    def test_numpy_bounds_are_read_as_ints(self):
        value = Lcg64(1).randint(np.int64(2), np.uint8(9))
        assert type(value) is int and value == Lcg64(1).randint(2, 9)
