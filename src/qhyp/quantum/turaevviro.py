"""Turaev-Viro invariants of knot complements and of rational surgeries.

For a knot complement the invariant at level r is a positive sum over the
color dimensions N = 1 .. (r-1)/2 of squared moduli of normalized colored
Jones values, scaled by eta^2 = (2/r) sin^2(2 pi / r).  The outer sum cannot
cancel, but the Jones values themselves can: colors whose sums cancel are
escalated to mpmath by the Jones evaluators, so doubles alone do not suffice.

For a closed surgery M_K(p/q) the invariant is the squared modulus of the
surgery state sum: the slope is expanded as an integer chain
p/q = a_1 - 1/(a_2 - ...), each chain component is summed over the level's
even colors with loop-value weights, consecutive components are paired
through the modular S matrix, framings enter as ribbon twist powers, and the
knot component contributes its unreduced colored Jones values.  The result
is normalized by Gauss sums so the three-sphere gets eta^2, making the
complement and surgery scales directly comparable.

This alternating sum does cancel, catastrophically so for non-hyperbolic
fillings, where the true value is polynomially small against exponentially
large terms.  Each evaluation therefore tracks the cancellation ratio
sum |terms| / |sum|; when it exceeds CONDITION_LIMIT the level/slope pair is
flagged and recomputed under mpmath with enough digits to cover the
cancellation plus a safety margin, from the same cached level table
(jones._mp_level) that the Jones evaluators use at those digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from ..rationals import INFINITY, Slope, minus_cfe
from ..twistknots import DoubleTwistKnot
from .jones import _mp_level, jones_log_all_colors, jones_value_mp
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

    @property
    def flagged(self) -> bool:
        return self.condition > CONDITION_LIMIT


def eta_squared(r: int) -> float:
    return (2.0 / r) * math.sin(2 * math.pi / r) ** 2


def tv_knot_complement(knot: DoubleTwistKnot, r: int) -> TVSample:
    """TV of the knot complement at level r (odd, at least 5).

    eta^2 times the sum of |J'_N|^2 over N = 1 .. (r-1)/2, assembled in log
    space; the sum has only non-negative terms.
    """
    if r < 5 or r % 2 == 0:
        raise ValueError("the level r must be odd and at least 5")
    colors = range((r - 1) // 2)  # strand colors a = N - 1
    logs = jones_log_all_colors(knot, r, colors)
    log_sq = np.array([2 * v.log_abs for v in logs])
    peak = float(np.max(log_sq))
    if peak == -np.inf:
        raise ArithmeticError("all colored Jones values vanished")
    total = float(np.sum(np.exp(log_sq - peak)))
    log_tv = math.log(eta_squared(r)) + peak + math.log(total)
    return TVSample(r=r, tv=_safe_exp(log_tv), logslope=(2 * math.pi / r) * log_tv)


def _safe_exp(x: float) -> float:
    return math.inf if x > 700 else math.exp(x)


def _chain_rank(chain: list[int], slope: Slope) -> int:
    """Rank of the chain's linking matrix: full unless the slope is 0.

    The tridiagonal linking matrix of the chain has determinant +-p, and its
    off-diagonal ones make a kernel of dimension at most one.
    """
    return len(chain) - (1 if slope.numerator == 0 else 0)


def _modular_s(r: int) -> np.ndarray:
    """Unnormalized S pairing on the even colors: [(b+1)(c+1)].

    The sign (-1)^(b+c) of the general pairing is 1 on even colors.
    """
    colors = np.arange(0, r - 2, 2)
    prod = np.outer(colors + 1, colors + 1)
    return np.sin(2 * np.pi * prod / r) / np.sin(2 * np.pi / r)


def _gauss_magnitude(r: int) -> float:
    """|eta * sum_c loop(c)^2 twist(c)| over the even colors.

    This is the magnitude of the normalized Gauss sum dividing the state
    sum once per unit of linking-matrix rank; both signs of framing give
    the same magnitude (conjugate sums).
    """
    level = recoupling_level(r)
    colors = np.arange(0, r - 2, 2)
    log_loop, sign_loop = level.loop_value(colors)
    twists = np.array([level.framing_twist(int(c)) for c in colors])
    vals = (sign_loop * np.exp(log_loop)) ** 2 * twists
    return float(math.sqrt(eta_squared(r)) * abs(np.sum(vals)))


def tv_surgery(knot: DoubleTwistKnot, slope: Slope, r: int) -> TVSample:
    """TV of the surgered manifold M_K(p/q) at level r, as |RT|^2.

    The sum runs in doubles first and is redone under mpmath when its
    measured cancellation ratio crosses CONDITION_LIMIT; the double pass's
    Jones magnitudes size the mpmath digits.  The sample's precision field
    says which arithmetic produced it.
    """
    if r < 5 or r % 2 == 0:
        raise ValueError("the level r must be odd and at least 5")
    if slope is INFINITY:
        raise ValueError("the infinite slope gives back the three-sphere")
    chain = minus_cfe(slope)
    sample, scale = _surgery_double(knot, slope, chain, r)
    if not sample.flagged:
        return sample
    return _tv_surgery_mp(knot, slope, chain, r, scale)


def _contract(smat, twists, w, vec, chain):
    """Pair the knot vector with the chain, in the arrays' own arithmetic.

    w starts as S e_0; each inner chain component a maps w to S (T^a w), and
    the outermost one pairs T^a w with vec.
    """
    for a in reversed(chain[1:]):
        w = smat @ (twists**a * w)
    return np.sum(vec * twists ** chain[0] * w)


def _surgery_double(
    knot: DoubleTwistKnot, slope: Slope, chain: list[int], r: int
) -> tuple[TVSample, float]:
    """The double-precision sample, and the log of the largest unreduced
    Jones magnitude, which sets the digits of the mpmath pass."""
    level = recoupling_level(r)
    colors = np.arange(0, r - 2, 2)
    jlogs = jones_log_all_colors(knot, r, colors)
    log_loop, sign_loop = level.loop_value(colors)
    # unreduced values loop(b) * J'(b), scaled by the largest magnitude
    log_unred = np.array([v.log_abs for v in jlogs]) + log_loop
    scale = float(np.max(log_unred))
    vec = np.array(
        [
            v.phase * s * np.exp(lu - scale)
            for v, s, lu in zip(jlogs, sign_loop, log_unred)
        ]
    )
    twists = np.array([level.framing_twist(int(c)) for c in colors])
    smat = _modular_s(r)
    w = sign_loop * np.exp(log_loop)  # S e_0
    z = complex(_contract(smat, twists, w, vec, chain))
    ones = np.ones(len(colors))
    z_abs = float(_contract(np.abs(smat), ones, np.abs(w), np.abs(vec), chain))
    condition = z_abs / abs(z) if z != 0 else math.inf
    log_z = scale + (math.log(abs(z)) if z != 0 else -math.inf)
    return _assemble_sample(slope, chain, r, log_z, condition, "double"), scale


def _assemble_sample(
    slope: Slope, chain: list[int], r: int, log_z: float, condition: float, mode: str
) -> TVSample:
    components = len(chain)
    rank = _chain_rank(chain, slope)
    log_tv = (
        (components + 1) * math.log(eta_squared(r))
        + 2 * log_z
        - 2 * rank * math.log(_gauss_magnitude(r))
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
    Loop values, twists and S entries come from the shared level table
    _mp_level(r, dps), which the figure-eight Jones values read too.  The
    condition is the cancellation ratio of this sum, as in doubles.
    """
    colors = range(0, r - 2, 2)
    chain_growth = (len(chain) + 1) * math.log10(max(r, 2))
    dps = int(max(30, scale / math.log(10.0) + chain_growth + 30))
    level = _mp_level(r, dps)
    with mp.workdps(dps):
        jones = np.array([jones_value_mp(knot, a, r, dps) for a in colors])
        loops = np.array([level.loop(a) for a in colors])
        twists = np.array([level.framing(a) for a in colors])
        # S entries are [(b+1)(c+1)], and [k] has period r
        dims = np.array(colors) + 1
        qint = np.array(level.qint, dtype=object)
        entries = np.outer(dims, dims) % r
        vec = loops * jones
        z = _contract(qint[entries], twists, loops, vec, chain)
        ones = np.ones(len(colors))
        z_abs = _contract(
            np.abs(qint)[entries], ones, np.abs(loops), np.abs(vec), chain
        )
        condition = float(z_abs / abs(z)) if z != 0 else math.inf
        log_z = float(mp.log(abs(z))) if z != 0 else -math.inf
    return _assemble_sample(slope, chain, r, log_z, condition, f"mp{dps}")


__all__ = [
    "TVSample",
    "CONDITION_LIMIT",
    "eta_squared",
    "tv_knot_complement",
    "tv_surgery",
]
