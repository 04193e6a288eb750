from fractions import Fraction

import pytest

from qhyp.rationals import (
    ContinuedFraction,
    ExactRational,
    INFINITY,
    RationalError,
    RejectedSequenceError,
    alternating_cfe,
    cfe_eval,
    evaluate_minus_cfe,
    minus_cfe,
    reciprocal,
)
from qhyp.surgery import is_exceptional_fig8_slope, shared_surgery_moves


def test_reduction_and_sign():
    assert ExactRational(4, 6) == ExactRational(2, 3)
    assert ExactRational(3, -6) == ExactRational(-1, 2)
    assert str(ExactRational(-7, 2)) == "-7/2"
    assert str(ExactRational(5, 1)) == "5"
    assert str(INFINITY) == "1/0"


def test_infinity_rules():
    assert -INFINITY == INFINITY
    assert reciprocal(INFINITY) == ExactRational(0)
    assert reciprocal(ExactRational(0)) == INFINITY
    with pytest.raises(RationalError):
        INFINITY + 1
    with pytest.raises(RationalError):
        ExactRational(0, 0)


def test_parse_round_trip():
    for text in ("3/4", "-7/2", "5", "0", "1/0"):
        assert str(ExactRational.parse(text)) == text


def test_negate_slope():
    assert -ExactRational(-7, 2) == ExactRational(7, 2)
    assert -INFINITY == INFINITY
    assert -ExactRational(0) == ExactRational(0)


def test_computed_slopes_match_constructed_ones():
    # arithmetic returns plain Fractions; the exceptional-slope set and
    # every slope comparison rely on them equalling and hashing like
    # the constructed slopes of the same value
    computed = evaluate_minus_cfe(minus_cfe(ExactRational(-4)))
    assert not isinstance(computed, ExactRational)
    assert computed == ExactRational(-4) and hash(computed) == hash(ExactRational(-4))
    assert is_exceptional_fig8_slope(computed)
    moved = shared_surgery_moves("D", 2)[0]
    assert not isinstance(moved, ExactRational)
    assert len({ExactRational(9), moved}) == 1
    assert reciprocal(ExactRational(-2, 7)) + Fraction(7, 2) == ExactRational(0)
    for s in (ExactRational(0), ExactRational(1), ExactRational(-1), Fraction(5, 3)):
        assert INFINITY != s and s != INFINITY
    assert ExactRational(1, 0) is INFINITY and ExactRational(-3, 0) is INFINITY


def test_cfe_values():
    assert cfe_eval(ContinuedFraction([3, -2])) == ExactRational(2, 5)
    assert cfe_eval(ContinuedFraction([7])) == ExactRational(1, 7)
    assert cfe_eval(ContinuedFraction([2, 2])) == ExactRational(2, 5)


def test_cfe_rejects_bad_sequences():
    with pytest.raises(ValueError):
        ContinuedFraction([2, 0, 2])
    with pytest.raises(RejectedSequenceError):
        ContinuedFraction([1, -1])
    with pytest.raises(ValueError):
        ContinuedFraction([])


def test_alternating_cfe():
    assert list(alternating_cfe(1)) == [2, 2]
    assert list(alternating_cfe(2)) == [2, 2, -2, 2]
    assert cfe_eval(alternating_cfe(3)) == ExactRational(6, 17)
    for g in range(1, 201):
        assert cfe_eval(alternating_cfe(g)) == ExactRational(2 * g, 6 * g - 1)
    with pytest.raises(ValueError):
        alternating_cfe(0)


def test_minus_cfe_round_trip():
    for p, q in [(5, 1), (1, 1), (0, 1), (-7, 2), (-9, 2), (15, 4), (7, 13)]:
        s = ExactRational(p, q)
        assert evaluate_minus_cfe(minus_cfe(s)) == s
    with pytest.raises(RationalError):
        minus_cfe(INFINITY)


def test_exact_arithmetic_random():
    import random

    rng = random.Random(7)
    for _ in range(200):
        a = ExactRational(rng.randint(-500, 500), rng.randint(1, 500))
        b = ExactRational(rng.randint(-500, 500), rng.randint(1, 500))
        assert (a + b) - b == a
        assert a * b == b * a
