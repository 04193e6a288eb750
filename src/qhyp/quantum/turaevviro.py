"""Turaev-Viro invariants of knot complements and of rational surgeries.

For a knot complement the invariant at level r is a positive sum over the
color dimensions N = 1 .. (r-1)/2 of squared moduli of normalized colored
Jones values, scaled by eta^2 = (2/r) sin^2(2 pi / r).  The outer sum cannot
cancel, but the Jones values themselves can: colors whose sums cancel are
escalated to mpmath by the Jones evaluators, so doubles alone do not suffice.
The complement and the double surgery pass read one cached Jones vector per
level, J'_N for N <= (r-1)/2 (_jones_level); the even colors fold onto it.

For a closed surgery M_K(p/q) the invariant is the squared modulus of the
surgery state sum: the slope is expanded as an integer chain
p/q = a_1 - 1/(a_2 - ...), each chain component is summed over the level's
even colors with loop-value weights, consecutive components are paired
through the modular S matrix, framings enter as ribbon twist powers, and the
knot component contributes its unreduced colored Jones values.  The result
is divided once per unit of linking-matrix rank by the normalized Gauss sum,
whose modulus is exactly 1/sqrt(2), so the three-sphere gets eta^2, making
the complement and surgery scales directly comparable.

This alternating sum does cancel, catastrophically so for non-hyperbolic
fillings, where the true value is polynomially small against exponentially
large terms.  Each evaluation therefore tracks the cancellation ratio
sum |terms| / |sum|; when it exceeds CONDITION_LIMIT the level/slope pair is
recomputed under mpmath with enough digits to cover the cancellation plus a
safety margin.  Both passes run one state sum (_state_sum) over a level
table: recoupling_level(r) in doubles, and under mpmath the cached
jones._mp_level, shared with the fusion twin (the figure-eight reads none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from ..rationals import INFINITY, Slope, minus_cfe
from ..twistknots import DoubleTwistKnot
from .jones import _fold_color, _mp_level, jones_log_all_colors, jones_value_mp
from .recoupling import recoupling_level

#: cancellation ratio beyond which doubles are not trusted
CONDITION_LIMIT = 1.0e6


@dataclass(frozen=True)
class TVSample:
    """One Turaev-Viro evaluation: level, value, and (2 pi / r) log value."""

    r: int
    tv: float
    logslope: float
    condition: float = 1.0
    precision: str = "double"


def eta_squared(r: int) -> float:
    return (2.0 / r) * math.sin(2 * math.pi / r) ** 2


@lru_cache(maxsize=1)
def _jones_level(m: int, n: int, r: int) -> tuple:
    """J'_N for N = 1 .. (r-1)/2 of D(m, n) at level r, odd and at least 5.
    Keyed on the stored twists, not the knot: D(m, n) and D(n, m) hash alike
    but their values agree only to rounding."""
    if r < 5 or r % 2 == 0:
        raise ValueError("the level r must be odd and at least 5")
    return tuple(jones_log_all_colors(DoubleTwistKnot(m, n), r, range((r - 1) // 2)))


def tv_knot_complement(knot: DoubleTwistKnot, r: int) -> TVSample:
    """TV of the knot complement at level r (odd, at least 5).

    eta^2 times the sum of |J'_N|^2 over N = 1 .. (r-1)/2, assembled in log
    space; the sum has only non-negative terms.  The sample carries the
    condition and precision of its color with the largest cancellation ratio.
    """
    logs = _jones_level(knot.m, knot.n, r)
    log_sq = np.array([2 * v.log_abs for v in logs])
    peak = float(np.max(log_sq))
    if peak == -np.inf:
        raise ArithmeticError("all colored Jones values vanished")
    total = float(np.sum(np.exp(log_sq - peak)))
    log_tv = math.log(eta_squared(r)) + peak + math.log(total)
    worst = max(logs, key=lambda v: v.condition)
    return TVSample(
        r, _safe_exp(log_tv), (2 * math.pi / r) * log_tv, worst.condition, worst.precision
    )


def _safe_exp(x: float) -> float:
    return math.inf if x > 700 else math.exp(x)


def _chain_rank(chain: list[int], slope: Slope) -> int:
    """Rank of the chain's linking matrix: full unless the slope is 0.

    The tridiagonal linking matrix of the chain has determinant +-p, and its
    off-diagonal ones make a kernel of dimension at most one.
    """
    return len(chain) - (1 if slope.numerator == 0 else 0)


def tv_surgery(knot: DoubleTwistKnot, slope: Slope, r: int) -> TVSample:
    """TV of the surgered manifold M_K(p/q) at level r, as |RT|^2.

    The sum runs in doubles first and is redone under mpmath when its
    measured cancellation ratio crosses CONDITION_LIMIT; the double pass's
    Jones magnitudes size the mpmath digits.  The sample's precision field
    says which arithmetic produced it.
    """
    if slope is INFINITY:
        raise ValueError("the infinite slope gives back the three-sphere")
    chain = minus_cfe(slope)
    sample, scale = _surgery_double(knot, slope, chain, r)
    if sample.condition <= CONDITION_LIMIT:
        return sample
    return _tv_surgery_mp(knot, slope, chain, r, scale)


def _state_sum(level, jones, chain: list[int]):
    """The chain contraction and its absolute-value bound, in the level's
    arithmetic (recoupling_level(r) in doubles, _mp_level(r, dps) in mpmath).

    jones holds J'(b) on the even colors b.  S pairs b and c through
    [(b+1)(c+1)], with [k] of period r; the sign (-1)^(b+c) of the general
    pairing is 1 on even colors, and column 0 of S holds the loop values.
    w starts as S e_0; each inner chain component a maps w to S (T^a w), and
    the outermost one pairs T^a w with the unreduced values loop(b) J'(b).
    """
    r = level.r
    dims = np.arange(1, r - 1, 2)
    qint = np.asarray(level.qint)
    entries = np.outer(dims, dims) % r
    loops = qint[dims]
    twists = np.array([level.framing(b) for b in range(0, r - 2, 2)])

    def contract(smat, twists, w, vec):
        for a in reversed(chain[1:]):
            w = smat @ (twists**a * w)
        return np.sum(vec * twists ** chain[0] * w)

    vec = loops * jones
    z = contract(qint[entries], twists, loops, vec)
    z_abs = contract(
        np.abs(qint)[entries], np.ones(len(dims)), np.abs(loops), np.abs(vec)
    )
    return z, z_abs


def _on_even_colors(half, r: int) -> list:
    """J'(b) at the even colors b = 0 .. r - 3, read from the half-level vector."""
    return [half[_fold_color(b, r)] for b in range(0, r - 2, 2)]


def _surgery_double(
    knot: DoubleTwistKnot, slope: Slope, chain: list[int], r: int
) -> tuple[TVSample, float]:
    """The double-precision sample, and the log of the largest unreduced
    Jones magnitude, which sets the digits of the mpmath pass."""
    jlogs = _on_even_colors(_jones_level(knot.m, knot.n, r), r)
    level = recoupling_level(r)
    log_abs = np.array([v.log_abs for v in jlogs])
    # the Jones vector scaled by the largest |loop(b) J'(b)|
    scale = float(np.max(log_abs + level.log_int[1 : r - 1 : 2]))
    jones = np.array([v.phase for v in jlogs]) * np.exp(log_abs - scale)
    z, z_abs = _state_sum(level, jones, chain)
    return _assemble_sample(slope, chain, r, scale, z, z_abs, "double"), scale


def _assemble_sample(
    slope: Slope, chain: list[int], r: int, log_scale: float, z, z_abs, mode: str
) -> TVSample:
    """The sample from the state sum z = e^(-log_scale) RT and its bound.

    The normalized Gauss sum dividing RT once per unit of linking-matrix
    rank has modulus exactly 1/sqrt(2) at every odd level.
    """
    condition = float(z_abs / abs(z)) if z != 0 else math.inf
    log_z = log_scale + float(mp.log(abs(z))) if z != 0 else -math.inf
    log_tv = (
        (len(chain) + 1) * math.log(eta_squared(r))
        + 2 * log_z
        + _chain_rank(chain, slope) * math.log(2.0)
    )
    return TVSample(
        r=r,
        tv=_safe_exp(log_tv),
        logslope=(2 * math.pi / r) * log_tv,
        condition=condition,
        precision=mode,
    )


def _tv_surgery_mp(
    knot: DoubleTwistKnot,
    slope: Slope,
    chain: list[int],
    r: int,
    scale: float,
) -> TVSample:
    """Extended-precision surgery sum; digits scale with the cancellation.

    scale is the double pass's log of the largest unreduced Jones magnitude.
    The state sum reads the shared level table _mp_level(r, dps), which the
    fusion twin's Jones values read too.  The condition is the cancellation
    ratio of this sum, as in doubles.
    """
    chain_growth = (len(chain) + 1) * math.log10(max(r, 2))
    dps = int(max(30, scale / math.log(10.0) + chain_growth + 30))
    level = _mp_level(r, dps)
    with mp.workdps(dps):
        half = [jones_value_mp(knot, a, r, dps) for a in range((r - 1) // 2)]
        jones = np.array(_on_even_colors(half, r))
        z, z_abs = _state_sum(level, jones, chain)
        return _assemble_sample(slope, chain, r, 0.0, z, z_abs, f"mp{dps}")


__all__ = [
    "TVSample",
    "CONDITION_LIMIT",
    "eta_squared",
    "tv_knot_complement",
    "tv_surgery",
]
