import cmath
import math
import random

import mpmath as mp
from mpmath.libmp import mpf_mul, mpf_sum, round_nearest
import pytest

from qhyp.quantum.diagram import plat_diagram, region_twists, trace_components, writhe
from qhyp.quantum.jones import (
    CONDITION_LIMIT,
    _figure_eight_sum,
    _fold_color,
    _fusion_log,
    _fusion_log_double,
    _mp_level,
    colored_jones,
    figure_eight_cross_sum_mp,
    figure_eight_log,
    fusion_value_mp,
    jones_log_all_colors,
    jones_value_mp,
)
from qhyp.quantum.oracles import (
    OracleTooExpensiveError,
    colored_jones_kauffman_oracle,
    colored_jones_rmatrix_oracle,
)
from qhyp.quantum.recoupling import recoupling_level
from qhyp.quantum.roots import RootOfUnityContext
from qhyp.twistknots import DoubleTwistKnot, mirror

FIG8 = DoubleTwistKnot(2, -2)


def test_context_validation():
    with pytest.raises(ValueError):
        RootOfUnityContext(6)
    with pytest.raises(ValueError):
        RootOfUnityContext(1)
    ctx = RootOfUnityContext(9)
    assert ctx.t == pytest.approx(ctx.q**2)


def test_template_components():
    for m in range(-4, 5):
        for n in range(-4, 5):
            expected = 2 if (m % 2 and n % 2) else 1
            assert len(trace_components(plat_diagram(m, n))) == expected


def test_unknots_give_one():
    for r in (5, 9, 15):
        ctx = RootOfUnityContext(r)
        for N in range(1, min(6, r - 1) + 1):
            for m, n in [(0, 5), (0, -4), (1, 2)]:
                assert colored_jones(DoubleTwistKnot(m, n), N, ctx) == pytest.approx(
                    1.0, abs=1e-9
                )


def test_jones_polynomial_values():
    # the dimension-two value is the Jones polynomial at t = q^2
    def poly(coeffs, t):
        return sum(c * t**e for e, c in coeffs.items())

    fig8_poly = {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    left_trefoil = {4: -1, 3: 1, 1: 1}
    for r in (7, 9, 13):
        ctx = RootOfUnityContext(r)
        assert colored_jones(FIG8, 2, ctx) == pytest.approx(
            poly(fig8_poly, ctx.t), abs=1e-10
        )
        assert colored_jones(DoubleTwistKnot(2, 2), 2, ctx) == pytest.approx(
            poly(left_trefoil, ctx.t), abs=1e-10
        )


def test_fusion_vs_kauffman():
    for r in (5, 7, 9, 11):
        ctx = RootOfUnityContext(r)
        for m in range(-4, 5):
            for n in range(-4, 5):
                knot = DoubleTwistKnot(m, n)
                if knot.is_link or abs(m) + abs(n) > 8:
                    continue
                f = colored_jones(knot, 2, ctx)
                kb = colored_jones_kauffman_oracle(knot, ctx)
                assert abs(f - kb) <= 1e-9 * max(1.0, abs(kb)), (m, n, r)


def test_fusion_vs_rmatrix_grid():
    for r in (5, 7, 9, 11):
        ctx = RootOfUnityContext(r)
        for m in (-3, -2, 2, 4):
            for n in (-3, -2, 2, 4):
                knot = DoubleTwistKnot(m, n)
                if knot.is_link:
                    continue
                for N in range(1, min(6, r - 1) + 1):
                    f = colored_jones(knot, N, ctx)
                    o = colored_jones_rmatrix_oracle(knot, N, ctx)
                    assert abs(f - o) <= 1e-9 * max(1.0, abs(o)), (m, n, N, r)


def test_rmatrix_examples():
    ctx5 = RootOfUnityContext(5)
    v = colored_jones_rmatrix_oracle(DoubleTwistKnot(2, 2), 2, ctx5)
    assert v == pytest.approx(colored_jones(DoubleTwistKnot(2, 2), 2, ctx5), abs=1e-9)
    assert colored_jones_rmatrix_oracle(FIG8, 1, ctx5) == pytest.approx(1.0)
    ctx11 = RootOfUnityContext(11)
    v = colored_jones_rmatrix_oracle(DoubleTwistKnot(4, -2), 3, ctx11)
    assert v == pytest.approx(colored_jones(DoubleTwistKnot(4, -2), 3, ctx11), abs=1e-9)
    with pytest.raises(OracleTooExpensiveError):
        colored_jones_rmatrix_oracle(DoubleTwistKnot(8, -6), 2, ctx11)
    with pytest.raises(OracleTooExpensiveError):
        colored_jones_rmatrix_oracle(FIG8, 9, ctx11)


def test_figure_eight_sum():
    # dimension two reduces to the Jones polynomial of the figure-eight
    for r in (7, 11, 51):
        ctx = RootOfUnityContext(r)
        t = ctx.t
        expected = t**2 - t + 1 - 1 / t + 1 / t**2
        assert figure_eight_log(2, r).to_complex() == pytest.approx(expected, abs=1e-12)
    # fusion agrees across a level sample at every color
    for r in (5, 9, 21, 41):
        ctx = RootOfUnityContext(r)
        for N in range(1, (r - 1) // 2 + 1):
            f = colored_jones(FIG8, N, ctx)
            s = figure_eight_log(N, r).to_complex()
            assert abs(f - s) <= 1e-9 * max(1.0, abs(s)), (N, r)


def test_mp_twins_match_double():
    for N in (1, 3, 7, 10):
        a = complex(figure_eight_cross_sum_mp(N, 21, 40))
        b = figure_eight_log(N, 21).to_complex()
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
    # every color whose double sum is trusted, past the half level too
    for knot in (DoubleTwistKnot(2, -3), DoubleTwistKnot(-4, -3)):
        for color in range(40):
            double = _fusion_log_double(knot, color, 41)
            if double.condition > CONDITION_LIMIT:
                continue
            a = complex(fusion_value_mp(knot, color, 41, 40))
            b = double.to_complex()
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (knot, color)
    # every complement color at r = 101, escalated spots (N = 23..30) included
    for N in range(1, 51):
        a = complex(figure_eight_cross_sum_mp(N, 101, 40))
        b = figure_eight_log(N, 101).to_complex()
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), N


def _fusion_formula_mp(knot, a, r, dps):
    """The fusion double sum term by term: loop(c) loop(d) / (theta theta)
    times half-twist powers and the tetrahedral network, over every ordered
    channel pair (c, d)."""
    level = _mp_level(r, dps)
    fac = level.fac
    with mp.workdps(dps):

        def theta(c):
            h = c // 2
            num = (-1) ** (a + h) * fac[a + h + 1] * fac[a - h] * fac[h] ** 2
            return num / (fac[a] ** 2 * fac[c])

        def tet(c, d):
            a1, a3, b12 = a + c // 2, a + d // 2, a + c // 2 + d // 2
            pref = fac[c // 2] ** 4 * fac[d // 2] ** 4 * fac[a - c // 2] ** 2
            pref *= fac[a - d // 2] ** 2 / (fac[a] ** 4 * fac[c] * fac[d])
            return pref * mp.fsum(
                (-1) ** s
                * fac[s + 1]
                / (
                    fac[s - a1] ** 2
                    * fac[s - a3] ** 2
                    * fac[b12 - s] ** 2
                    * fac[2 * a - s]
                )
                for s in range(max(a1, a3), min(b12, 2 * a, r - 2) + 1)
            )

        x, y = region_twists(knot.m, knot.n)
        cs = range(0, min(2 * a, 2 * (r - 2) - 2 * a) + 1, 2)
        total = mp.fsum(
            level.loop(c) / theta(c) * level.half_twist(a, c) ** x
            * level.loop(d) / theta(d) * level.half_twist(a, d) ** y
            * tet(c, d)
            for c in cs
            for d in cs
        )
        return total * level.framing(a) ** (-writhe(knot.m, knot.n)) / level.loop(a)


def test_fusion_twin_matches_the_formula():
    # every color, cancelling ones included, against the sum as written;
    # the double engine sums the twin's decomposition, so every color it
    # keeps in doubles is held to the same formula
    for knot in (DoubleTwistKnot(2, -3), DoubleTwistKnot(2, 2)):
        kept = 0
        for color in range(1, 30):
            a = fusion_value_mp(knot, color, 31, 40)
            b = _fusion_formula_mp(knot, color, 31, 40)
            assert abs(complex((a - b) / b)) <= 1e-25, (knot, color)
            double = _fusion_log_double(knot, color, 31)
            if double.condition <= CONDITION_LIMIT:
                kept += 1
                d = double.to_complex()
                assert abs(complex(b) - d) <= 1e-9 * max(1.0, abs(d)), (knot, color)
        assert kept >= 15, knot


def test_tet_grid_matches_the_s_form():
    # T_ij as Kauffman-Lins write it, summed over s in mpmath, against the
    # double grid's u-form row sums: every color and channel pair
    for r in (21, 41, 61):
        level, fac = recoupling_level(r), _mp_level(r, 50).fac
        with mp.workdps(50):
            for a in range((r - 1) // 2):
                log, sign = level.tet_grid(a)
                assert (log == log.T).all() and (sign == sign.T).all(), (r, a)
                for i in range(a + 1):
                    for j in range(a + 1):
                        t = mp.fsum(
                            (-1) ** s * fac[s + 1] / fac[2 * a - s]
                            / (fac[s - a - i] * fac[s - a - j] * fac[a + i + j - s]) ** 2
                            for s in range(a + max(i, j), min(a + i + j, 2 * a) + 1)
                        )
                        assert sign[i, j] == mp.sign(t), (r, a, i, j)
                        assert abs(log[i, j] - float(mp.log(abs(t)))) <= 1e-11, (r, a, i, j)


def _fusion_term_loop_mp(knot, color, r, dps):
    """fusion_value_mp's decomposition with the tetrahedral coefficient
    summed term by term: two exact mpf_mul per s-term and one mpf_sum per
    channel pair, then mp.fdot over each row of channel pairs."""
    a = _fold_color(color, r)
    level = _mp_level(r, dps)
    with mp.workdps(dps):
        if a == 0:
            return mp.mpc(1)
        fac, prec = level.fac, mp.mp.prec
        x, y = region_twists(knot.m, knot.n)
        U, V = [], []
        for i in range(a + 1):
            weight = (-1) ** (a + i) * level.qint[2 * i + 1] * fac[i] ** 2
            weight *= fac[a - i] / fac[a + i + 1]
            h = level.half_twist(a, 2 * i)
            U.append(weight * h**x)
            V.append(weight * h**y)
        F = level.inv_fac_sq
        G = {
            s: ((-1) ** s * fac[s + 1] / fac[2 * a - s])._mpf_
            for s in range(a, 2 * a + 1)
        }
        total = mp.mpc(0)
        n = len(U)
        for i in range(n):
            H = {s: mpf_mul(G[s], F[s - a - i]) for s in range(a + i, 2 * a + 1)}
            row = [
                mp.make_mpf(
                    mpf_sum(
                        [
                            mpf_mul(mpf_mul(H[s], F[s - a - j]), F[a + i + j - s])
                            for s in range(a + j, min(a + i + j, 2 * a) + 1)
                        ],
                        prec,
                        round_nearest,
                    )
                )
                for j in range(i, n)
            ]
            total += U[i] * (row[0] * V[i] + mp.fdot(row[1:], V[i + 1 :]))
            total += V[i] * mp.fdot(row[1:], U[i + 1 :])
        w = writhe(knot.m, knot.n)
        return total * level.framing(a) ** (-w) / level.loop(a)


def test_fusion_twin_kernel_matches_the_term_loop_bit_for_bit():
    # the integer dot products round each sum once, as mpf_sum does; mpf_sum
    # drops terms 2 * prec bits below its running sum, so this holds as far
    # as it is checked: every color at two levels and two precisions ...
    for knot in (DoubleTwistKnot(2, -3), DoubleTwistKnot(2, 2), DoubleTwistKnot(-4, -3)):
        for r in (41, 61):
            for dps in (35, 50):
                for color in range(r - 1):
                    a = fusion_value_mp(knot, color, r, dps)
                    b = _fusion_term_loop_mp(knot, color, r, dps)
                    assert a == b, (knot, r, dps, color)
    # ... and the benchmark's top-color probes, cancelling at dps 39
    for knot in (DoubleTwistKnot(2, 2), DoubleTwistKnot(2, -3)):
        for r, color in ((151, 74), (251, 124)):
            a = fusion_value_mp(knot, color, r, 39)
            assert a == _fusion_term_loop_mp(knot, color, r, 39), (knot, r)


def test_every_entry_rejects_links():
    link, ctx = DoubleTwistKnot(3, 3), RootOfUnityContext(21)
    for color in (0, 3):  # the trivial color returns before any sum
        with pytest.raises(ValueError, match="two-component link"):
            colored_jones(link, color + 1, ctx)
        with pytest.raises(ValueError, match="two-component link"):
            jones_log_all_colors(link, 21, [color])
        with pytest.raises(ValueError, match="two-component link"):
            jones_value_mp(link, color, 21, 30)
        with pytest.raises(ValueError, match="two-component link"):
            fusion_value_mp(link, color, 21, 30)


def test_fusion_twin_keeps_its_digits():
    # top-half colors at dps 40 against dps 90
    for knot, r, color in (
        (DoubleTwistKnot(2, -3), 151, 74),
        (DoubleTwistKnot(-4, -3), 91, 44),
    ):
        a = fusion_value_mp(knot, color, r, 40)
        b = fusion_value_mp(knot, color, r, 90)
        assert abs(complex((a - b) / b)) <= 1e-15, (knot, r, color)


def _figure_eight_unfolded_mp(N, r, dps):
    """The figure-eight expansion at N as written, without folding N onto
    the half level: from N = (r+1)/2 on it meets the factor {r}, taken as an
    exact 0 here, since its rounding error would be amplified by the later
    factors."""
    with mp.workdps(dps):

        def brace(x):  # {x} = t^(x/2) - t^(-x/2) at t = e^(4 pi i / r)
            return mp.mpc(0) if x % r == 0 else 2j * mp.sin(2 * mp.pi * x / r)

        total = product = mp.mpc(1)
        for j in range(1, N):
            product *= brace(N - j) * brace(N + j)
            total += product
        return total


def _figure_eight_forward_mp(N, r, dps):
    """The figure-eight expansion at N, folded, summed forward under mpmath
    as prod_{j<=k} {1}^2 [N-j][N+j] over the level's [k]."""
    n = _fold_color(N - 1, r) + 1
    qint = _mp_level(r, dps).qint
    with mp.workdps(dps):
        brace_sq = -4 * mp.sin(2 * mp.pi / r) ** 2
        total = product = mp.mpf(1)
        for j in range(1, n):
            product *= brace_sq * qint[n - j] * qint[n + j]
            total += product
        return total


def test_figure_eight_kernel_matches_the_forward_sum():
    # every escalated color, at the digits it escalates to, against the
    # forward sum with 60 digits more; at r = 501 the forward sum at the
    # escalated digits itself misses by up to 5.7e-6 (N = 125)
    for r in (101, 191, 301, 501):
        escalated = 0
        for N in range(1, (r - 1) // 2 + 1):
            label = figure_eight_log(N, r).precision
            if not label.startswith("fig8-mp"):
                continue
            escalated += 1
            dps = int(label[len("fig8-mp"):])
            a = figure_eight_cross_sum_mp(N, r, dps)
            b = _figure_eight_forward_mp(N, r, dps + 60)
            with mp.workdps(dps + 60):
                assert abs((a - b) / b) <= 1e-20, (N, r, dps)
        assert escalated > 0, r


def test_figure_eight_escalation_reads_no_mp_level():
    _mp_level.cache_clear()
    value = figure_eight_log(26, 101)
    assert value.precision.startswith("fig8-mp")
    assert _mp_level.cache_info().misses == 0


def test_figure_eight_log_past_half_level():
    # the surgery state sum uses these colors (N up to r - 2), which the
    # engines fold to r - N; the reference sums them unfolded
    for r in (101, 151):
        for N in range((r + 1) // 2, r):
            a = complex(_figure_eight_unfolded_mp(N, r, 80))
            b = figure_eight_log(N, r).to_complex()
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (N, r)


def test_colors_fold_onto_the_half_level():
    # J'_{r-N} = J'_N: both colors run the same sums, so the values agree
    # bit for bit, and the top color r - 1 is the trivial color's 1
    for knot in (DoubleTwistKnot(2, -3), DoubleTwistKnot(2, 2), FIG8):
        for r in (21, 31):
            ctx = RootOfUnityContext(r)
            for N in range(1, r):
                assert colored_jones(knot, r - N, ctx) == colored_jones(knot, N, ctx)
            assert colored_jones(knot, r - 1, ctx) == 1
    for r in (21, 57):
        assert jones_log_all_colors(FIG8, r, range(r - 1)) == jones_log_all_colors(
            FIG8, r, range(r - 2, -1, -1)
        )
    # the channel weights exist only up to the half level
    level = recoupling_level(21)
    level.weights(9)
    with pytest.raises(ValueError):
        level.weights(10)


def test_level_tables_match_the_mp_level():
    # [k] for k < r in both arithmetics, [0] exactly 0, and the figure-eight
    # factor {1}^2 = (t^(1/2) - t^(-1/2))^2 against the root itself
    for r in (5, 57, 201):
        double = recoupling_level(r)
        extended = _mp_level(r, 40)
        assert len(double.qint) == len(extended.qint) == r
        assert double.qint[0] == 0 and extended.qint[0] == 0
        for k, (d, x) in enumerate(zip(double.qint, extended.qint)):
            assert abs(d - float(x)) <= 1e-13 * max(1.0, abs(d)), (r, k)
        root = cmath.exp(2j * cmath.pi / r)  # t^(1/2)
        brace_sq = (root - 1 / root) ** 2
        assert abs(double.brace_sq - brace_sq) <= 1e-15, r


def test_figure_eight_escalation_set():
    # the double sums alone, without escalating: the count and first pair
    # that figure_eight_log's docstring states
    flagged = []
    for r in range(3, 202, 2):
        level = recoupling_level(r)
        for N in range(1, (r - 1) // 2 + 1):
            total, peak = _figure_eight_sum(N, level)
            condition = peak / abs(total) if total != 0 else math.inf
            if condition > CONDITION_LIMIT:
                flagged.append((N, r))
    assert len(flagged) == 1707
    assert flagged[0] == (13, 57)


def test_fusion_escalation_set():
    # the double fusion sums alone, without escalating: the count and first
    # (color, level) pair of the complement colors that escalate
    expected = {(2, -3): (140, (11, 33)), (2, 2): (159, (9, 21))}
    for pair, (count, first) in expected.items():
        knot = DoubleTwistKnot(*pair)
        flagged = [
            (a, r)
            for r in range(5, 62, 2)
            for a in range((r - 1) // 2)
            if _fusion_log_double(knot, a, r).condition > CONDITION_LIMIT
        ]
        assert len(flagged) == count, pair
        assert flagged[0] == first, pair


def test_escalation_dps_rule():
    # both evaluators escalate through one rule: max(35, int(log10(cond)) + 25)
    fig8 = figure_eight_log(18, 63)  # condition 4.4e4
    fusion = _fusion_log(DoubleTwistKnot(2, 2), 22, 61)  # condition 2.8e11
    for value, label in ((fig8, "fig8-mp"), (fusion, "mp")):
        assert value.condition > CONDITION_LIMIT
        dps = max(35, int(math.log10(value.condition)) + 25)
        assert value.precision == f"{label}{dps}"
    assert (fig8.precision, fusion.precision) == ("fig8-mp35", "mp36")


def test_mirror_conjugation():
    rng = random.Random(5)
    done = 0
    while done < 40:
        knot = DoubleTwistKnot(rng.randint(-4, 4), rng.randint(-4, 4))
        if knot.is_link:
            continue
        done += 1
        r = rng.choice((5, 7, 9))
        N = rng.randint(1, min(4, r - 1))
        ctx = RootOfUnityContext(r)
        v = colored_jones(knot, N, ctx)
        w = colored_jones(mirror(knot), N, ctx)
        assert abs(w - v.conjugate()) <= 1e-9 * max(1.0, abs(v))


def test_color_bounds():
    ctx = RootOfUnityContext(5)
    with pytest.raises(ValueError):
        colored_jones(FIG8, 5, ctx)  # color 4 > r - 2
    with pytest.raises(ValueError):
        colored_jones(FIG8, 0, ctx)
    # the figure-eight route checks its colors too, before folding them
    for color in (-1, 20):
        with pytest.raises(ValueError):
            jones_log_all_colors(FIG8, 21, [color])
        with pytest.raises(ValueError):
            jones_value_mp(FIG8, color, 21, 30)
