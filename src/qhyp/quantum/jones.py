"""Colored Jones values of double twist knots.

The production evaluator expands the two twist regions of the plat template
over fusion channels, so the invariant is a double sum over channel pairs
of one weight per channel, powers of the half-twist eigenvalues, and the
bare tetrahedral coefficient coupling the two trees (the loop, theta and
tetrahedral prefactors folded into the weights); after a writhe correction
the unknot-normalized value at t = q^2 emerges.  The double engine
(_fusion_log_double, over recoupling_level(r)) and its mpmath twin
(fusion_value_mp) sum this one decomposition, the twin in exact integer
dot products of mpmath mantissas, each rounded once.

At t = e^(4 pi i / r), J'_{r-N} = J'_N (Kirby and Melvin, Invent. Math.
105, 1991), so every engine folds its color onto N <= (r-1)/2 (_fold_color).

The channel coefficients are mildly exponential in the color while the
value itself can be exponentially smaller, so the double sum cancels.  Each
evaluation tracks its cancellation ratio (sum of term magnitudes over the
result magnitude); colors whose ratio crosses CONDITION_LIMIT are recomputed
under mpmath with digits to spare.  Values move around as (log-magnitude,
phase) pairs so large levels neither overflow nor lose growth information.

The figure-eight knot has a classical expansion whose terms are real
products of quantized integers, summed in doubles (_figure_eight_sum) and
by Horner's rule in fixed-point integers under escalation; it doubles as an
independent cross-check of the fusion engine and as the fast path for the
figure-eight level sweeps.  Both evaluators escalate through one helper
(_escalate).  The double paths read [k] for k < r from recoupling_level(r),
the fusion twin and the surgery state sum from _mp_level(r, dps).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_mul, round_nearest
import numpy as np

from ..twistknots import DoubleTwistKnot
from .diagram import region_twists, writhe
from .recoupling import recoupling_level
from .roots import RootOfUnityContext

#: cancellation ratio beyond which a double-precision fusion sum is redone
#: under mpmath; chosen so surviving double results keep >= 11 digits
CONDITION_LIMIT = 1.0e4

_FIG8_PAIR = (-2, 2)  # canonical parameter pair of the figure-eight knot


@dataclass(frozen=True)
class LogComplex:
    """A complex number as log-magnitude plus unit phase."""

    log_abs: float
    phase: complex
    condition: float = 1.0
    precision: str = "double"

    def to_complex(self) -> complex:
        if self.log_abs == -math.inf:
            return 0j
        return self.phase * float(np.exp(min(self.log_abs, 700.0)))


@lru_cache(maxsize=64)
def _writhe_cached(m: int, n: int) -> int:
    """The template's writhe, read first by both fusion engines: every entry
    rejects links here, whose writhe depends on how their parts are oriented."""
    if DoubleTwistKnot(m, n).is_link:
        raise ValueError(f"{DoubleTwistKnot(m, n)} is a two-component link, not a knot")
    return writhe(m, n)


def _fold_color(color: int, r: int) -> int:
    """The strand color a <= (r-3)/2 with the same value, r - 2 - a past
    the half level; checked first, since folded N = r would give J'_0 = 1."""
    if color < 0:
        raise ValueError("strand color must be non-negative")
    if color > r - 2:
        raise ValueError(
            f"strand color {color} (dimension {color + 1}) exceeds the "
            f"level-{r} range; colors run up to r - 2 = {r - 2}"
        )
    return r - 2 - color if 2 * color > r - 3 else color


def _fusion_log_double(knot: DoubleTwistKnot, color: int, r: int) -> LogComplex:
    """One fusion evaluation in doubles, carrying its cancellation ratio.

    The sum of w_i h_i^x T_ij w_j h_j^y over channel pairs, with weights w
    and bare tetrahedral coefficients T from the level table and half-twist
    eigenvalues h, times the framing and over loop(a) = (-1)^a [a+1]: the
    decomposition fusion_value_mp sums under mpmath, at the folded color.
    """
    w = _writhe_cached(knot.m, knot.n)
    level = recoupling_level(r)
    a = _fold_color(color, r)
    if a == 0:
        return LogComplex(0.0, 1.0 + 0j)
    log_w, sign_w = level.weights(a)
    log_tet, sign_tet = level.tet_grid(a)
    x, y = region_twists(knot.m, knot.n)
    twist = level.half_twist_phase(a, 2 * np.arange(len(log_w)))
    phase_c, phase_d = twist**x, twist**y
    log_grid = log_w[:, None] + log_w[None, :] + log_tet
    sign_grid = sign_w[:, None] * sign_w[None, :] * sign_tet
    peak = float(np.max(log_grid))
    scaled = sign_grid * np.exp(log_grid - peak)
    total = complex(np.sum(scaled * phase_c[:, None] * phase_d[None, :]))
    magnitude_sum = float(np.sum(np.abs(scaled)))
    condition = magnitude_sum / abs(total) if total != 0 else math.inf
    if total == 0:
        return LogComplex(-math.inf, 1.0 + 0j, condition)
    frame = level.framing(a) ** (-w)
    log_abs = peak + math.log(abs(total)) - float(level.log_int[a + 1])
    phase = total / abs(total) * frame * (-1) ** a  # [a+1] > 0 below the half level
    return LogComplex(log_abs, complex(phase), condition)


def _fusion_log(knot: DoubleTwistKnot, color: int, r: int) -> LogComplex:
    """Fusion evaluation with automatic escalation to extended precision."""
    fast = _fusion_log_double(knot, color, r)
    if fast.condition <= CONDITION_LIMIT:
        return fast
    return _escalate(
        fast.condition, lambda dps: fusion_value_mp(knot, color, r, dps), "mp"
    )


def _escalate(condition: float, evaluate, label: str) -> LogComplex:
    """Recompute a cancelling value under mpmath with digits to spare.

    The dps is max(35, int(log10(condition)) + 25); evaluate(dps) returns
    the mpmath value, and the result is labeled f"{label}{dps}".
    """
    dps = 35 if condition == math.inf else max(35, int(math.log10(condition)) + 25)
    value = evaluate(dps)
    with mp.workdps(dps):
        if value == 0:
            return LogComplex(-math.inf, 1.0 + 0j, condition, f"{label}{dps}")
        log_abs = float(mp.log(abs(value)))
        phase = complex(value / abs(value))
    return LogComplex(log_abs, phase, condition, f"{label}{dps}")


def _figure_eight_sum(N: int, level):
    """The figure-eight expansion in doubles and its largest partial product.

    Sums prod_{j<=k} {N-j}{N+j} over k = 0 .. N-1, with {x} = t^(x/2) -
    t^(-x/2) = {1} [x]: each factor is the real {1}^2 [N-j][N+j], read from
    the level table's qint and brace_sq.
    """
    qint = level.qint
    total = product = peak = 1.0
    for j in range(1, N):
        product *= level.brace_sq * qint[N - j] * qint[N + j]
        peak = max(peak, abs(product))
        total += product
    return total, peak


def figure_eight_log(N: int, r: int) -> LogComplex:
    """Figure-eight evaluation at any color dimension N <= r - 1.

    N past (r - 1)/2 is folded to r - N.  The expansion's terms are real
    products of quantized integers, but the value can dip far below the
    largest partial product.  This is common:
    1707 of the (N, r) pairs with N <= (r - 1)/2 and odd r <= 201 escalate,
    the first at N = 13, r = 57.  Such spots are detected through the same
    cancellation ratio used by the fusion engine and recomputed under mpmath.
    """
    n = _fold_color(N - 1, r) + 1
    total, peak = _figure_eight_sum(n, recoupling_level(r))
    condition = peak / abs(total) if total != 0 else math.inf
    if condition <= CONDITION_LIMIT:
        phase = complex(math.copysign(1.0, total))
        return LogComplex(math.log(abs(total)), phase, condition, "fig8-sum")
    return _escalate(
        condition, lambda dps: figure_eight_cross_sum_mp(N, r, dps), "fig8-mp"
    )


def colored_jones(knot: DoubleTwistKnot, N: int, ctx: RootOfUnityContext) -> complex:
    """Normalized N-colored Jones value J'_N at t = q^2, J'_N(unknot) = 1.

    N is the dimension of the strand color (N = 2 is the Jones polynomial);
    colors exist for N - 1 <= r - 2.  The fusion engine evaluates it at
    r - N past N = (r - 1)/2, in doubles or, past CONDITION_LIMIT, under
    mpmath.  Two-component links are rejected.
    """
    if N < 1:
        raise ValueError("the color dimension N must be a positive integer")
    return _fusion_log(knot, N - 1, ctx.r).to_complex()


def jones_log_all_colors(knot: DoubleTwistKnot, r: int, colors) -> list[LogComplex]:
    """Values for a sequence of strand colors at level r.

    The figure-eight knot is routed through its expansion; other
    knots run the fusion engine with per-color precision escalation.
    """
    if knot.canonical_pair() == _FIG8_PAIR:
        return [figure_eight_log(int(a) + 1, r) for a in colors]
    return [_fusion_log(knot, int(a), r) for a in colors]


def figure_eight_cross_sum_mp(N: int, r: int, dps: int):
    """The real figure-eight expansion at N, folded to n, as an mpf at dps.

    Each factor {1}^2 [n-j][n+j] is d_n - d_j, d_k = 2 cos(4 pi k / r)
    (Habiro's cyclotomic form), so the sum 1 + f_1 (1 + f_2 (1 + ...)),
    f_j = d_n - d_j, is run by Horner's rule on integers D_k ~ d_k 2^P:
    D_{k+1} = (D_1 D_k >> P) - D_{k-1} from one mpmath cosine, then
    h <- 2^P + ((D_n - D_j) h >> P), rounded once.  The error is about
    2^-P n max|D_k - d_k 2^P| sum|partial products| (Higham, Accuracy and
    Stability, 5.1).  The recurrence errs by ~2^11 units at r = 501, so P,
    64 bits past the working precision, covers the cancellation the double
    ratio saturates on (up to 6e35 at r = 501) to about 1e-20 relative.
    """
    n = _fold_color(N - 1, r) + 1
    prec = dps_to_prec(dps)
    P = prec + 64
    with mp.workprec(P + 16):  # spare bits, so that D_1 is rounded correctly
        d = [2 << P, int(mp.nint(mp.ldexp(mp.cos(4 * mp.pi / r), P + 1)))]
    for _ in range(n - 1):
        d.append((d[1] * d[-1] >> P) - d[-2])
    h = one = 1 << P
    for j in range(n - 1, 0, -1):
        h = one + ((d[n] - d[j]) * h >> P)
    return mp.make_mpf(from_man_exp(h, -P, prec, round_nearest))


def jones_value_mp(knot: DoubleTwistKnot, color: int, r: int, dps: int):
    """Extended-precision colored Jones value at strand color a.

    The figure-eight knot goes through its stable expansion (linear cost
    per color); other knots run the fusion double sum in mpmath.
    """
    if knot.canonical_pair() == _FIG8_PAIR:
        return figure_eight_cross_sum_mp(color + 1, r, dps)
    return fusion_value_mp(knot, color, r, dps)


# ---------------------------------------------------------------------------
# mpmath twin of the fusion evaluator
# ---------------------------------------------------------------------------


class _MpLevel:
    """Quantized integers and factorials [k], [k]! for k < r under mpmath.

    The fusion twin and the surgery state sum read their roots of unity
    from the level cached by _mp_level(r, dps); the figure-eight expansion
    needs only one cosine and reads none.
    """

    def __init__(self, r: int, dps: int):
        self.r = r
        self.dps = dps
        with mp.workdps(dps):
            unit = mp.sin(2 * mp.pi / r)
            self.qint = [mp.sin(2 * mp.pi * k / r) / unit for k in range(r)]
            self.fac = [mp.mpf(1)] * r
            for k in range(1, r):
                self.fac[k] = self.fac[k - 1] * self.qint[k]

    @cached_property
    def inv_fac_sq(self) -> list:
        """1/[k]!^2 for k < r as raw mpmath tuples, for the fusion twin.

        Built on first use: levels that serve only the surgery state sum
        never read it.
        """
        with mp.workdps(self.dps):
            return [(1 / f**2)._mpf_ for f in self.fac]

    def loop(self, c: int):
        return (-1 if c % 2 else 1) * self.qint[c + 1]

    def half_twist(self, a: int, c: int):
        num = 2 * (a - c // 2) * self.r - (c * (c + 2) - 2 * a * (a + 2))
        return mp.e ** (1j * mp.pi * mp.mpf(num) / (2 * self.r))

    def framing(self, a: int):
        return mp.e ** (1j * mp.pi * mp.mpf(a * self.r - a * (a + 2)) / self.r)


@lru_cache(maxsize=4)
def _mp_level(r: int, dps: int) -> _MpLevel:
    return _MpLevel(r, dps)


def _fixed(values):
    """Signed mantissas of raw mpmath tuples at their least exponent e, and e."""
    e = min((x[2] for x in values), default=0)
    return [(-x[1] if x[0] else x[1]) << (x[2] - e) for x in values], e


def _dot(xs, ys, exp: int, prec: int):
    """The exact sum of x * y over integer mantissas at exponent exp, rounded once."""
    return from_man_exp(sum(map(operator.mul, xs, ys)), exp, prec, round_nearest)


def fusion_value_mp(knot: DoubleTwistKnot, color: int, r: int, dps: int):
    """mpmath evaluation of the fusion formula at strand color a, folded
    to a <= (r-3)/2 first.

    The double sum runs over channel pairs c = 2i, d = 2j with weights
    U_i = w_i h_i^x and V_j = w_j h_j^y, where h is the half-twist
    eigenvalue and w_i = (-1)^(a+i) [2i+1] [i]!^2 [a-i]! / [a+i+1]! is
    loop(c) / theta(a, c) times the channel's share of the tetrahedral
    prefactor, as RecouplingLevel.weights has it in doubles.  The
    tetrahedral network is symmetric in c and d, so each unordered pair is
    summed once, weighted by U_i V_j + U_j V_i.  With u = s - a - j its
    coefficient is T_ij = sum over u <= min(i, a-j) of H_i[a+j+u] c_i[u],
    where H_i[s] = G[s] F[s-a-i], c_i[u] = F[u] F[i-u], G[s] = (-1)^s
    [s+1]! / [2a-s]! and F = 1/[k]!^2.  With each row's H_i and c_i
    mantissas at one exponent, T_ij is one exact Python-integer dot product,
    rounded once to the working precision; so are the row sums of T_ij V_j
    and T_ij U_j, over the mantissas of U and V at one exponent per part.
    """
    w = _writhe_cached(knot.m, knot.n)
    a = _fold_color(color, r)
    level = _mp_level(r, dps)
    with mp.workdps(dps):
        if a == 0:
            return mp.mpc(1)
        fac, prec = level.fac, mp.mp.prec
        x, y = region_twists(knot.m, knot.n)
        U, V = [], []
        for i in range(a + 1):
            # loop(2i) / theta(a, 2i) * [i]!^4 [a-i]!^2 / ([2i]! [a]!^2)
            weight = (-1) ** (a + i) * level.qint[2 * i + 1] * fac[i] ** 2
            weight *= fac[a - i] / fac[a + i + 1]
            h = level.half_twist(a, 2 * i)
            U.append(weight * h**x)
            V.append(weight * h**y)
        parts = [_fixed([z._mpc_[k] for z in W]) for W in (V, U) for k in (0, 1)]
        F = level.inv_fac_sq
        G = {
            s: ((-1) ** s * fac[s + 1] / fac[2 * a - s])._mpf_
            for s in range(a, 2 * a + 1)
        }
        total = mp.mpc(0)
        for i in range(a + 1):
            H, e_h = _fixed([mpf_mul(G[s], F[s - a - i]) for s in range(a + i, 2 * a + 1)])
            c, e_c = _fixed([mpf_mul(F[u], F[i - u]) for u in range(i + 1)])
            # row[j - i] = T_ij, and its sums against V_j and U_j over j > i
            row = [_dot(H[k:], c, e_h + e_c, prec) for k in range(a + 1 - i)]
            rest, e = _fixed(row[1:])
            vx, vy, ux, uy = (_dot(rest, m[i + 1 :], e + e_m, prec) for m, e_m in parts)
            # sum over j > i of T_ij (U_i V_j + U_j V_i), plus the diagonal
            total += U[i] * (mp.make_mpf(row[0]) * V[i] + mp.make_mpc((vx, vy)))
            total += V[i] * mp.make_mpc((ux, uy))
        return total * level.framing(a) ** (-w) / level.loop(a)


__all__ = [
    "LogComplex",
    "CONDITION_LIMIT",
    "colored_jones",
    "jones_log_all_colors",
    "figure_eight_cross_sum_mp",
    "figure_eight_log",
    "fusion_value_mp",
    "jones_value_mp",
]
