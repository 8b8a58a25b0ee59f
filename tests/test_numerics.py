"""Value parsing, comparison tolerances, and the shared sum/power helpers."""

import math
from fractions import Fraction

import pytest

from riskpool.numerics import (
    argmax_ties,
    close,
    format_value,
    geq,
    is_exact,
    parse_value,
    power,
    slack,
    stable_sum,
)


def test_is_exact_accepts_int_and_fraction_only():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert not is_exact(True)  # bool is not a number here


def test_parse_value_forms():
    assert parse_value(7) == 7
    assert parse_value("3/4") == Fraction(3, 4)
    assert parse_value("-2/6") == Fraction(-1, 3)
    assert parse_value("5") == 5
    assert parse_value(0.25) == 0.25
    with pytest.raises(ValueError):
        parse_value("a/b")
    with pytest.raises(ValueError):
        parse_value(True)
    with pytest.raises(ValueError):
        parse_value(None)


def test_format_value_round_trips():
    assert format_value(Fraction(3, 4)) == "3/4"
    assert format_value(Fraction(8, 4)) == 2
    assert format_value(5) == 5
    assert format_value(0.5) == 0.5
    assert parse_value(format_value(Fraction(-7, 3))) == Fraction(-7, 3)


def test_exact_comparisons_have_no_slack():
    assert geq(Fraction(1, 3), Fraction(1, 3))
    assert not geq(Fraction(1, 3) - Fraction(1, 10 ** 30), Fraction(1, 3))
    assert close(2, Fraction(2))
    assert not close(2, Fraction(2) + Fraction(1, 10 ** 30))


def test_float_comparisons_use_relative_and_absolute_floor():
    assert slack(1.0, 1.0) == 1e-9
    assert slack(0.0) == 1e-12
    assert close(1.0, 1.0 + 1e-12)
    assert close(1e9, 1e9 * (1 + 1e-10))
    assert not close(1.0, 1.0 + 1e-6)
    assert geq(1.0 - 1e-13, 1.0)
    assert not geq(1.0 - 1e-6, 1.0)
    # the absolute floor keeps tiny magnitudes comparable
    assert close(0.0, 1e-13)
    assert not close(0.0, 1e-9)


def test_argmax_ties_exact_and_float():
    assert argmax_ties([1, 3, 3, 2]) == [1, 2]
    assert argmax_ties([Fraction(1, 2), Fraction(2, 4)]) == [0, 1]
    vals = [1.0, 1.0 + 1e-13, 0.5]
    assert argmax_ties(vals) == [0, 1]
    with pytest.raises(ValueError):
        argmax_ties([])


def test_stable_sum_dispatch():
    assert stable_sum([Fraction(1, 3)] * 3) == 1
    assert isinstance(stable_sum([1, 2, 3]), int)
    floats = [1e16, 1.0, -1e16]
    assert stable_sum(floats) == math.fsum(floats) == 1.0
    assert stable_sum([]) == 0


def test_power_conventions():
    assert power(0, Fraction(1, 2)) == 0
    assert power(0.0, 0.5) == 0
    assert power(4, 2) == 16
    assert power(Fraction(2, 3), 2) == Fraction(4, 9)
    assert power(4, Fraction(2, 1)) == 16
    assert math.isclose(power(4, 0.5), 2.0)
    assert math.isclose(power(Fraction(9, 1), Fraction(1, 2)), 3.0)


def test_exact_power_size_is_checked_before_computing():
    # 2 has bit length 2, so 2**7142 sits exactly on the bound
    assert power(2, 7142) == 2**7142
    assert power(Fraction(1, 2), Fraction(-7142)) == 2**7142
    for base, expo in ((2, 7143), (Fraction(3, 2), -7143), (7, 10**400), (10**5000, 1)):
        with pytest.raises(ValueError, match="4300 digits"):
            power(base, expo)
    assert power(2, 1000.0) == 2.0**1000  # a float exponent is not bounded here
