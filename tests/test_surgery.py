import random

import pytest

from qhyp.rationals import ExactRational, INFINITY
from qhyp.surgery import (
    ExceptionalFillingError,
    NotBlowdownableError,
    SurgeryComponent,
    SurgeryPresentation,
    UnknownComponentError,
    blow_down,
    is_exceptional_fig8_slope,
    rolfsen_twist,
    shared_surgery,
    shared_surgery_moves,
)


def _pair(c1, c2, lk, flag1=True, flag2=True):
    return SurgeryPresentation(
        [
            SurgeryComponent("a", c1, {"b": lk}, unknotted=flag1),
            SurgeryComponent("b", c2, {"a": lk}, unknotted=flag2),
        ]
    )


def test_rolfsen_twist_blowup_step():
    # inserting a meridian-like unknot of linking two and twisting once:
    # -(4n+1)/n + 4 = -1/n at n = 2, the inserted component lands on 1
    pres = _pair(ExactRational(-9, 2), INFINITY, 2)
    out = rolfsen_twist(pres, "b", 1)
    assert out["a"].coefficient == ExactRational(-1, 2)
    assert out["b"].coefficient == ExactRational(1)


def test_rolfsen_twist_zero_linking():
    pres = _pair(ExactRational(-1, 5), INFINITY, 0)
    out = rolfsen_twist(pres, "b", 1)
    assert out["a"].coefficient == ExactRational(-1, 5)
    out2 = rolfsen_twist(pres, "b", -4)
    assert out2["a"].coefficient == ExactRational(-1, 5)


def test_rolfsen_twist_errors():
    pres = _pair(ExactRational(1), INFINITY, 1)
    with pytest.raises(ValueError):
        rolfsen_twist(pres, "b", 0)
    with pytest.raises(UnknownComponentError):
        rolfsen_twist(pres, "zzz", 1)
    knotted = _pair(ExactRational(1), INFINITY, 1, flag2=False)
    with pytest.raises(ValueError):
        rolfsen_twist(knotted, "b", 1)


def test_blow_down_examples():
    # -1/n framed unknot with linking two against a 1-framed component
    pres = _pair(ExactRational(1), ExactRational(-1, 2), 2)
    out = blow_down(pres, "b")
    assert out["a"].coefficient == ExactRational(9)
    # unlinked blow-down changes nothing else
    pres = _pair(ExactRational(5, 3), ExactRational(-1), 0)
    out = blow_down(pres, "b")
    assert out["a"].coefficient == ExactRational(5, 3)
    # -1/3 framed with linking one against a 0-framed component gives 3
    pres = _pair(ExactRational(0), ExactRational(-1, 3), 1)
    assert blow_down(pres, "b")["a"].coefficient == ExactRational(3)
    with pytest.raises(NotBlowdownableError):
        blow_down(_pair(ExactRational(0), ExactRational(2, 3), 1), "b")


def test_move_pipelines():
    assert shared_surgery_moves("D", 2)[0] == ExactRational(9)
    assert shared_surgery_moves("D", -3)[0] == ExactRational(-11)
    assert shared_surgery_moves("D", 1)[0] == ExactRational(5)
    for n in range(-10, 11):
        if n == 0:
            continue
        assert shared_surgery_moves("D", n)[0] == ExactRational(4 * n + 1)
        assert shared_surgery_moves("D'", n)[0] == ExactRational(1)


def test_move_trace_is_reported():
    slope, trace = shared_surgery_moves("D", 2)
    assert slope == ExactRational(9)
    assert len(trace) == 3
    assert trace[0][1]["fig8"].coefficient == ExactRational(-9, 2)


def test_exceptional_set():
    assert is_exceptional_fig8_slope(ExactRational(4))
    assert is_exceptional_fig8_slope(INFINITY)
    assert not is_exceptional_fig8_slope(ExactRational(-7, 2))
    hits = set()
    for p in range(-12, 13):
        for q in range(13):
            if p == 0 and q == 0:
                continue
            if is_exceptional_fig8_slope(ExactRational(p, q)):
                hits.add(str(ExactRational(p, q)))
    assert hits == {"0", "1/0", "1", "-1", "2", "-2", "3", "-3", "4", "-4"}


def test_shared_surgery():
    assert shared_surgery("D", -4) == (ExactRational(-15), ExactRational(-15, 4))
    assert shared_surgery("D'", 3) == (ExactRational(1), ExactRational(-1, 3))
    # the move replay reproduces the paper's pairs wherever they are hyperbolic
    literal = {
        "D": lambda n: (ExactRational(4 * n + 1), ExactRational(-(4 * n + 1), n)),
        "D'": lambda n: (ExactRational(1), ExactRational(-1, n)),
    }
    exceptional = {("D", -1), ("D'", 1), ("D'", -1)}
    for family, pair in literal.items():
        for n in [k for k in range(-10, 11) if k]:
            if (family, n) in exceptional:
                with pytest.raises(ExceptionalFillingError):
                    shared_surgery(family, n)
                continue
            got = shared_surgery(family, n)
            assert got == pair(n)
            assert all(isinstance(s, ExactRational) for s in got)
        with pytest.raises(ValueError):
            shared_surgery(family, 0)


def test_twists_invert_random():
    rng = random.Random(11)
    for _ in range(150):
        ids = ["a", "b", "c"]
        lk = {(i, j): rng.randint(-3, 3) for i in ids for j in ids if i < j}

        def linkmap(x):
            return {y: lk[tuple(sorted((x, y)))] for y in ids if y != x}

        pres = SurgeryPresentation(
            [
                SurgeryComponent(
                    i,
                    ExactRational(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))),
                    linkmap(i),
                    unknotted=True,
                )
                for i in ids
            ]
        )
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        u = rng.choice(ids)
        assert rolfsen_twist(rolfsen_twist(pres, u, t), u, -t) == pres


def test_presentation_serialization():
    pres = _pair(ExactRational(-9, 2), INFINITY, 2)
    blob = pres.to_json()
    assert blob[0]["coefficient"] == "-9/2"
    assert blob[1]["coefficient"] == "1/0"
    assert blob[0]["linking"] == {"b": 2}
