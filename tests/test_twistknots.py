import random

import pytest

from qhyp.rationals import ContinuedFraction, ExactRational, alternating_cfe
from qhyp.twistknots import (
    DoubleTwistKnot,
    LaurentPolynomial,
    NotTwoBridgeKnotError,
    TwoBridgeFraction,
    alexander,
    alexander_genus1_seifert,
    fiber_genus,
    fibered_cfe,
    fraction_of,
    is_monic,
    mirror,
    twist_knot_alexander,
)


def test_knot_symmetry_and_mirror():
    assert DoubleTwistKnot(3, 2) == DoubleTwistKnot(2, 3)
    assert mirror(DoubleTwistKnot(2, -3)) == DoubleTwistKnot(-2, 3)
    assert mirror(DoubleTwistKnot(0, 5)) == DoubleTwistKnot(0, -5)
    k = DoubleTwistKnot(4, -2)
    assert mirror(mirror(k)) == k


def test_fractions():
    assert str(fraction_of(DoubleTwistKnot(3, 2))) == "2/5"
    assert str(fraction_of(DoubleTwistKnot(2, -2))) == "2/5"
    assert str(fraction_of(DoubleTwistKnot(2, 2))) == "2/3"
    # figure-eight from either sign convention describes the same knot
    assert set(fraction_of(DoubleTwistKnot(2, -2)).representatives()) == set(
        fraction_of(DoubleTwistKnot(-2, 2)).representatives()
    )


def test_rejected_parameters():
    for m, n in [(0, 5), (5, 0), (1, 1), (-1, -1), (1, 2), (-1, -2)]:
        with pytest.raises(NotTwoBridgeKnotError):
            fraction_of(DoubleTwistKnot(m, n))
    for m, n in [(3, 3), (1, -1), (-3, 5)]:
        with pytest.raises(NotTwoBridgeKnotError):
            fraction_of(DoubleTwistKnot(m, n))


def test_two_bridge_normalization():
    frac = TwoBridgeFraction(ExactRational(4, 3))
    assert str(frac) == "1/3"
    with pytest.raises(NotTwoBridgeKnotError):
        TwoBridgeFraction(ExactRational(1, 2))  # even denominator: a link
    with pytest.raises(NotTwoBridgeKnotError):
        TwoBridgeFraction(ExactRational(3, 1))  # denominator one: unknot


def test_fibered_cfe():
    assert list(fibered_cfe(fraction_of(DoubleTwistKnot(2, -2)))) == [2, 2]
    for g in range(1, 11):
        cfe = fibered_cfe(fraction_of(DoubleTwistKnot(3, 2 * g)))
        assert cfe == alternating_cfe(g)
        assert fiber_genus(cfe) == g
    assert fibered_cfe(fraction_of(DoubleTwistKnot(4, -2))) is None


def test_fiber_genus_validation():
    assert fiber_genus(ContinuedFraction([2, -2])) == 1
    assert fiber_genus(alternating_cfe(4)) == 4
    with pytest.raises(ValueError):
        fiber_genus(ContinuedFraction([2, 3]))
    with pytest.raises(ValueError):
        fiber_genus(ContinuedFraction([2, 2, -2]))


def test_alexander_examples():
    assert alexander(fraction_of(DoubleTwistKnot(2, -2))) == LaurentPolynomial(
        {1: 1, 0: -3, -1: 1}
    )
    assert alexander(fraction_of(DoubleTwistKnot(-2, -2))) == LaurentPolynomial(
        {1: 1, 0: -1, -1: 1}
    )
    assert alexander(fraction_of(DoubleTwistKnot(4, -2))) == LaurentPolynomial(
        {1: 2, 0: -5, -1: 2}
    )
    # the five-crossing twist knot has 2t - 3 + 2/t
    assert alexander(fraction_of(DoubleTwistKnot(2, -3))) == LaurentPolynomial(
        {1: 2, 0: -3, -1: 2}
    )


def test_twist_knot_family_formula():
    for n in range(-6, 7):
        if n == 0:
            continue
        delta = alexander(fraction_of(DoubleTwistKnot(2 * n, -2)))
        assert delta.equals_up_to_units(twist_knot_alexander(n))
        assert is_monic(delta) == (abs(n) == 1)


def test_monic():
    assert is_monic(LaurentPolynomial({1: 1, 0: -3, -1: 1}))
    assert not is_monic(LaurentPolynomial({1: 2, 0: -5, -1: 2}))
    with pytest.raises(ValueError):
        is_monic(LaurentPolynomial({}))


def test_seifert_oracle():
    for a in range(-3, 4):
        for b in range(-3, 4):
            knot = DoubleTwistKnot(2 * a, 2 * b)
            if a * b == 0 or knot.is_unknot:
                continue
            assert alexander(fraction_of(knot)).equals_up_to_units(
                alexander_genus1_seifert(a, b)
            )


def test_alexander_properties_random():
    rng = random.Random(3)
    count = 0
    while count < 60:
        knot = DoubleTwistKnot(rng.randint(-9, 9), rng.randint(-9, 9))
        if knot.is_link or knot.is_unknot:
            continue
        count += 1
        delta = alexander(fraction_of(knot))
        assert delta.equals_up_to_units(alexander(fraction_of(mirror(knot))))
        assert abs(delta.evaluate_int(1)) == 1
        norm = delta.normalized()
        assert all(norm[e] == norm[-e] for e in range(norm.max_exp() + 1))


def test_laurent_serialization():
    poly = LaurentPolynomial({2: 1, 0: -3, -2: 1})
    assert poly.terms() == [(-2, 1), (0, -3), (2, 1)]
    assert str(poly) == "t^2 - 3 + t^-2"
