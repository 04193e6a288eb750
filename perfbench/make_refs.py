"""Regenerate perfbench/refs.json, the benchmark's reference values.

Every (knot, slope, level, color) that a workload's pool can draw gets a
reference computed in mpmath at two fixed precisions, dps(r) and
dps(r) + EXTRA_DPS, chosen here from the level alone and not by the
program's own precision rule. The two results must agree on at least
SELF_AGREE_DIGITS digits; the higher-precision one is stored.

Jones values come from qhyp's jones_value_mp, the mpmath fusion sum (the
figure-eight expansion for 4_1), at the precisions chosen here; TV
complements and surgeries are assembled here in mpmath from those values;
growth fits are least-squares solutions in mpmath of the reference
logslopes.

    python3 perfbench/make_refs.py          # about 5 minutes on one core
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath as mp  # noqa: E402

import workloads as W  # noqa: E402
from qhyp.quantum import jones  # noqa: E402
from qhyp.rationals import ExactRational, minus_cfe  # noqa: E402
from qhyp.twistknots import DoubleTwistKnot  # noqa: E402

EXTRA_DPS = 30
SELF_AGREE_DIGITS = 20


def dps_for(r: int) -> int:
    return 40 + r // 2


def eta_squared(r):
    return 2 * mp.sin(2 * mp.pi / r) ** 2 / r


def complement_log_tv(knot, r: int, dps: int):
    with mp.workdps(dps):
        k = DoubleTwistKnot(*knot)
        total = mp.fsum(
            abs(jones.jones_value_mp(k, a, r, dps)) ** 2 for a in range((r - 1) // 2)
        )
        return mp.log(eta_squared(r) * total)


def surgery_log_tv(knot, slope, r: int, dps: int):
    """log TV of the filling, by the chain state sum normalized by Gauss sums."""
    slope = ExactRational(*slope)
    chain = minus_cfe(slope)
    with mp.workdps(dps):
        colors = list(range(0, r - 2, 2))
        unit = mp.sin(2 * mp.pi / r)
        loops = [(-1) ** a * mp.sin(2 * mp.pi * (a + 1) / r) / unit for a in colors]
        twists = [mp.expjpi(a - mp.mpf(a * (a + 2)) / r) for a in colors]
        smat = [
            [(-1) ** (b + c) * mp.sin(2 * mp.pi * (b + 1) * (c + 1) / r) / unit for c in colors]
            for b in colors
        ]
        k = DoubleTwistKnot(*knot)
        js = [jones.jones_value_mp(k, a, r, dps) for a in colors]
        w = list(loops)
        for a in reversed(chain[1:]):
            tw = [t**a * x for t, x in zip(twists, w)]
            w = [mp.fsum(s * x for s, x in zip(row, tw)) for row in smat]
        terms = [l * j * t ** chain[0] * x for l, j, t, x in zip(loops, js, twists, w)]
        z = mp.fsum(terms)
        if abs(z) < mp.mpf(10) ** (-dps // 2) * mp.fsum(abs(t) for t in terms):
            return mp.ninf  # the state sum vanishes: TV = 0 at this level
        gauss = mp.sqrt(eta_squared(r)) * abs(mp.fsum(l**2 * t for l, t in zip(loops, twists)))
        rank = len(chain) - (1 if slope.numerator == 0 else 0)
        return (
            (len(chain) + 1) * mp.log(eta_squared(r))
            + 2 * mp.log(abs(z))
            - 2 * rank * mp.log(gauss)
        )


def twice(fn, r: int, what: str):
    """fn(dps) at two precisions; the values must agree to SELF_AGREE_DIGITS."""
    lo = dps_for(r)
    a = fn(lo)
    b = fn(lo + EXTRA_DPS)
    with mp.workdps(lo + EXTRA_DPS):
        if a != b and abs(a - b) > mp.mpf(10) ** -SELF_AGREE_DIGITS * (1 + abs(b)):
            raise ArithmeticError(f"{what}: dps {lo} and {lo + EXTRA_DPS} disagree")
    return b


def tv_entry(log_tv, r):
    if log_tv == mp.ninf:
        return {"logslope": None, "tv": 0.0}, None
    with mp.workdps(60):
        logslope = 2 * mp.pi / r * log_tv
        return {"logslope": float(logslope), "tv": float(mp.exp(log_tv))}, logslope


def jones_entry(knot, color, r):
    k = DoubleTwistKnot(*knot)
    v = twice(
        lambda dps: jones.jones_value_mp(k, color, r, dps), r, f"jones {knot} r={r} a={color}"
    )
    with mp.workdps(60):
        return [float(mp.log(abs(v))), float(mp.arg(v))]


def fit(levels, logslopes):
    """Extrapolated growth a of a + b log(r)/r + c/r, least squares in mpmath."""
    with mp.workdps(60):
        rows = [[1, mp.log(r) / r, mp.mpf(1) / r] for r in levels]
        A = mp.matrix(rows)
        y = mp.matrix(list(logslopes))
        x = mp.lu_solve(A.T * A, A.T * y)
        return float(x[0])


def build(log=print):
    values = {}

    def add_tv(knot, slope, r):
        if slope is None:
            log_tv = twice(lambda d: complement_log_tv(knot, r, d), r, f"tv {knot} r={r}")
        else:
            log_tv = twice(
                lambda d: surgery_log_tv(knot, slope, r, d), r, f"tv {knot} {slope} r={r}"
            )
        entry, logslope = tv_entry(log_tv, r)
        values[W.tv_key(knot, slope, r)] = entry
        return logslope

    start = time.perf_counter()
    fig8 = (W.FIG8.m, W.FIG8.n)
    # crosscheck_small: Jones values of the small pool, figure-eight colors,
    # and the figure-eight fillings of the amphichirality ops
    for r in W.SMALL_LEVELS:
        for knot in W.SMALL_KNOTS:
            for N in W.small_colors(r):
                values[W.jones_key(knot, r, N - 1)] = jones_entry(knot, N - 1, r)
        for N in W.fig8_small_colors(r):
            values[W.jones_key(fig8, r, N - 1)] = jones_entry(fig8, N - 1, r)
    log(f"small jones done {time.perf_counter() - start:.1f}s")
    for r in W.AMPHI_LEVELS:
        for slope in W.amphi_slopes():
            add_tv(fig8, slope, r)
    log(f"amphichirality fillings done {time.perf_counter() - start:.1f}s")
    # fig8_fillings: identity pairs, then the report sweeps and their fits
    for n in W.PAIR_NS:
        knot_slope, fig8_slope = W.surgery.shared_surgery(W.surgery.FAMILY_D, n)
        for r in W.PAIR_LEVELS:
            add_tv((2 * n, -3), (knot_slope.numerator, knot_slope.denominator), r)
            add_tv(fig8, (fig8_slope.numerator, fig8_slope.denominator), r)
    log(f"identity pairs done {time.perf_counter() - start:.1f}s")
    for slope in (None,) + W.FIG8_SLOPES:
        ys = [add_tv(fig8, slope, r) for r in W.FIG8_LEVELS]
        values[W.fit_key(fig8, slope, W.FIG8_LEVELS)] = fit(W.FIG8_LEVELS, ys)
        log(f"fig8 {W.slope_key(slope)} done {time.perf_counter() - start:.1f}s")
    # complement_fusion: probes, then the sweeps and their fits
    for knot, r in W.PROBES:
        color = (r - 3) // 2
        values[W.jones_key(knot, r, color)] = jones_entry(knot, color, r)
        log(f"probe {knot} r={r} done {time.perf_counter() - start:.1f}s")
    for knot in W.SWEEP_KNOTS:
        ys = [add_tv(knot, None, r) for r in W.SWEEP_LEVELS]
        values[W.fit_key(knot, None, W.SWEEP_LEVELS)] = fit(W.SWEEP_LEVELS, ys)
        log(f"sweep {knot} done {time.perf_counter() - start:.1f}s")
    return values


def main():
    values = build(log=lambda msg: print(msg, flush=True))
    doc = {
        "about": (
            "Reference values of the qhyp benchmark, written by make_refs.py. "
            "tv entries hold logslope = (2 pi / r) log TV and TV; jones entries "
            "hold [log|J|, arg J] at strand color a = N - 1; fit entries hold the "
            "extrapolated growth rate."
        ),
        "dps": f"dps(r) = 40 + r // 2 and dps(r) + {EXTRA_DPS}, agreeing on "
        f">= {SELF_AGREE_DIGITS} digits",
        "values": dict(sorted(values.items())),
    }
    with open(W.REFS_PATH, "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(values)} values to {W.REFS_PATH}")


if __name__ == "__main__":
    main()
