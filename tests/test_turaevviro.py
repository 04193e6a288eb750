import math
import random

import mpmath as mp
import pytest

from qhyp.rationals import ExactRational, evaluate_minus_cfe, minus_cfe
from qhyp.twistknots import DoubleTwistKnot, mirror
from qhyp.quantum import growth, jones, turaevviro
from qhyp.quantum.recoupling import recoupling_level
from qhyp.quantum.turaevviro import (
    CONDITION_LIMIT,
    TVSample,
    _surgery_double,
    _tv_surgery_mp,
    eta_squared,
    tv_knot_complement,
    tv_surgery,
)

FIG8 = DoubleTwistKnot(2, -2)


def test_three_sphere_normalization():
    for r in (5, 7, 11, 21):
        sample = tv_surgery(DoubleTwistKnot(0, 5), ExactRational(1), r)
        assert sample.tv == pytest.approx(eta_squared(r), rel=1e-10)


def test_complement_basics():
    sample = tv_knot_complement(FIG8, 5)
    assert sample.tv > 0 and math.isfinite(sample.logslope)
    with pytest.raises(ValueError):
        tv_knot_complement(FIG8, 6)
    with pytest.raises(ValueError):
        tv_surgery(FIG8, ExactRational(1, 0), 7)


def test_complement_reports_its_worst_color():
    # 5_2 escalates colors at r = 61; the figure-eight sum at r = 21 does not
    sample = tv_knot_complement(DoubleTwistKnot(2, -3), 61)
    assert sample.precision == "mp35"
    assert sample.condition > jones.CONDITION_LIMIT
    sample = tv_knot_complement(FIG8, 21)
    assert "mp" not in sample.precision
    assert sample.condition <= jones.CONDITION_LIMIT


def test_normalized_gauss_sum_has_modulus_one_over_root_two():
    # eta |sum over even c of [c+1]^2 theta_c|, summed explicitly, against
    # the constant the state sum divides by once per unit of rank
    for r in (3, 5, 7, 51, 151, 501):
        level = recoupling_level(r)
        colors = range(0, r - 2, 2)
        total = sum(level.qint[c + 1] ** 2 * level.framing(c) for c in colors)
        assert math.sqrt(eta_squared(r)) * abs(total) == pytest.approx(
            math.sqrt(0.5), abs=1e-11
        ), r
    r, dps = 101, 50
    level = jones._mp_level(r, dps)
    with mp.workdps(dps):
        colors = range(0, r - 2, 2)
        total = mp.fsum(level.qint[c + 1] ** 2 * level.framing(c) for c in colors)
        eta = mp.sqrt(mp.mpf(2) / r) * mp.sin(2 * mp.pi / r)
        assert abs(eta * abs(total) - 1 / mp.sqrt(2)) <= mp.mpf("1e-45")


def test_complement_mirror_invariance():
    for r in (7, 11):
        for knot in (DoubleTwistKnot(2, -3), DoubleTwistKnot(4, -2)):
            a = tv_knot_complement(knot, r)
            b = tv_knot_complement(mirror(knot), r)
            assert a.tv == pytest.approx(b.tv, rel=1e-9)


def test_trefoil_complement_growth_is_small():
    # zero Gromov norm: the growth stays near zero while a hyperbolic
    # complement of similar size is already well above one
    trefoil = [tv_knot_complement(DoubleTwistKnot(2, 2), r) for r in (51, 101, 151)]
    assert all(abs(s.logslope) < 0.5 for s in trefoil)
    hyp = tv_knot_complement(FIG8, 101)
    assert hyp.logslope > 1.5


def test_shared_surgery_homeomorphisms():
    # fillings described on the twist-knot side and on the figure-eight
    # side are the same manifold, so the invariants agree identically
    for n, r in [(1, 11), (2, 11), (-2, 11), (3, 9)]:
        a = tv_surgery(DoubleTwistKnot(2 * n, -3), ExactRational(4 * n + 1), r)
        b = tv_surgery(FIG8, ExactRational(-(4 * n + 1), n), r)
        assert a.tv == pytest.approx(b.tv, rel=1e-9), (n, r)
    for n, r in [(2, 11), (3, 11), (-3, 9), (-2, 13)]:
        a = tv_surgery(DoubleTwistKnot(2 * n, -2), ExactRational(1), r)
        b = tv_surgery(FIG8, ExactRational(-1, n), r)
        assert a.tv == pytest.approx(b.tv, rel=1e-9), (n, r)


def test_amphichiral_slope_symmetry():
    rng = random.Random(2)
    for _ in range(30):
        p, q = rng.randint(1, 9), rng.randint(1, 6)
        r = rng.choice((7, 9, 11, 13))
        a = tv_surgery(FIG8, ExactRational(p, q), r)
        b = tv_surgery(FIG8, ExactRational(-p, q), r)
        assert a.tv == pytest.approx(b.tv, rel=1e-9, abs=1e-30)


def test_chain_invariance():
    rng = random.Random(9)
    for _ in range(25):
        s = ExactRational(rng.randint(1, 15) * rng.choice((1, -1)), rng.randint(1, 6))
        chain = minus_cfe(s)
        variant = chain[:-1] + [chain[-1] + 1, 1]
        assert evaluate_minus_cfe(variant) == s
        r = rng.choice((7, 9, 11))
        a = _surgery_double(FIG8, s, chain, r)[0]
        b = _surgery_double(FIG8, s, variant, r)[0]
        assert a.tv == pytest.approx(b.tv, rel=1e-8, abs=1e-30)


def test_precision_modes_agree():
    # both Jones routes (figure-eight expansion and fusion) against the
    # mpmath level's loop, twist and S data
    for knot, slope, r in (
        (FIG8, ExactRational(5), 31),
        (FIG8, ExactRational(-7, 2), 31),
        (DoubleTwistKnot(2, -3), ExactRational(9), 21),
    ):
        chain = minus_cfe(slope)
        sample_d, scale = _surgery_double(knot, slope, chain, r)
        sample_x = _tv_surgery_mp(knot, slope, chain, r, scale)
        assert sample_d.tv == pytest.approx(sample_x.tv, rel=1e-11), (knot, slope, r)
        assert sample_x.precision.startswith("mp")


def test_flagged_exceptional_filling_escalates(monkeypatch):
    calls = []
    original = turaevviro.jones_log_all_colors

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(turaevviro, "jones_log_all_colors", counted)
    jones._mp_level.cache_clear()
    turaevviro._jones_level.cache_clear()
    sample = tv_surgery(FIG8, ExactRational(1), 151)
    assert sample.condition > 1e6
    assert sample.precision == "mp47"
    assert abs(sample.logslope) < 0.3
    # the mpmath pass sizes its digits from the double pass's Jones values
    assert len(calls) == 1
    # the double pass's figure-eight escalations read no mpmath level; one
    # at dps 47 serves the whole surgery sum
    assert jones._mp_level.cache_info().misses == 1


def test_report_evaluates_each_level_once(monkeypatch):
    # the filling reads the Jones vector the complement cached at its level
    calls = []
    original = turaevviro.jones_log_all_colors

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(turaevviro, "jones_log_all_colors", counted)
    for knot in (FIG8, DoubleTwistKnot(2, -3)):
        calls.clear()
        turaevviro._jones_level.cache_clear()
        growth.q_hyperbolicity_report(knot, ExactRational(5), levels=(11, 21, 31, 41))
        assert len(calls) == 4, knot


def test_level_cache_keeps_presentations_apart():
    # D(2,-3) and D(-3,2) are one knot and hash alike, but their fusion
    # values differ in the last bits
    tv_knot_complement(DoubleTwistKnot(2, -3), 61)
    warm = tv_knot_complement(DoubleTwistKnot(-3, 2), 61)
    turaevviro._jones_level.cache_clear()
    assert warm == tv_knot_complement(DoubleTwistKnot(-3, 2), 61)


def test_surgery_colors_fold_onto_the_half_level_vector():
    # the even colors 0 .. r-3 read the same values, condition and
    # precision included, as a direct request for them
    for knot, r in (
        (FIG8, 101),
        (FIG8, 151),
        (DoubleTwistKnot(2, -3), 61),
        (DoubleTwistKnot(-4, -3), 41),
    ):
        half = turaevviro._jones_level(knot.m, knot.n, r)
        gathered = turaevviro._on_even_colors(half, r)
        assert gathered == jones.jones_log_all_colors(knot, r, range(0, r - 2, 2))


def test_escalated_condition_is_measured_in_mpmath():
    # the double pass's ratio is rounding noise at this depth; the mpmath
    # pass measures its own, so forcing the mpmath pass gives the same condition
    slope = ExactRational(1)
    chain = minus_cfe(slope)
    auto = tv_surgery(FIG8, slope, 151)
    scale = _surgery_double(FIG8, slope, chain, 151)[1]
    extended = _tv_surgery_mp(FIG8, slope, chain, 151, scale)
    assert auto.precision == extended.precision == "mp47"
    assert auto.tv == extended.tv
    assert extended.condition == pytest.approx(auto.condition, rel=1e-9)
    assert auto.condition > CONDITION_LIMIT


def test_sample_dataclass():
    s = TVSample(r=7, tv=1.0, logslope=0.0)
    assert s.condition == 1.0
    assert s.precision == "double"
