"""Seeded workloads of the qhyp benchmark and the checks on their outputs.

A workload is a list of steps drawn from a fixed pool by the seed. Every
step calls the public API of qhyp and turns each result into one or more
ops: one TV sample, one Jones value or comparison, one growth fit or one
exact check. An op carries its duration, the digits on which it agrees with
its reference or independent route (None for exact checks) and whether it
passed. An op fails on an exception, a non-finite value or agreement below
its floor; the run goes on either way.

Agreement is measured as -log10(|x - y| / (1 + |x| + |y|)), capped at
MAX_DIGITS. For the log-scale quantities the program reports (log|J|,
logslopes) this is the relative agreement of the reported number, and it
stays positive even when a value is off by orders of magnitude.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import time

import qhyp.census as census
import qhyp.monodromy as monodromy
import qhyp.rationals as rationals
import qhyp.surgery as surgery
import qhyp.twistknots as twistknots
from qhyp.quantum import growth, jones, oracles, turaevviro
from qhyp.quantum.roots import RootOfUnityContext
from qhyp.rationals import ExactRational
from qhyp.twistknots import DoubleTwistKnot

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")
SPEC_PATH = os.path.join(HERE, "spec.json")

MAX_DIGITS = 12.0

with open(SPEC_PATH) as _fh:
    #: least digits each kind of check must agree on, with reasons in spec.json
    FLOORS = {kind: entry["digits"] for kind, entry in json.load(_fh)["floors"].items()}

FIG8 = DoubleTwistKnot(2, -2)

# -- pools -----------------------------------------------------------------

#: complement_fusion: sweep knots 5_2, 6_2 and their mirrors, levels, probes
SWEEP_KNOTS = ((2, -3), (-2, 3), (-4, -3), (4, 3))
SWEEP_LEVELS = (51, 61, 71, 81, 91)
PROBES = (((2, 2), 151), ((2, -3), 151), ((2, 2), 251), ((2, -3), 251))

#: fig8_fillings: the ltv report levels and slopes, and the identity pairs
FIG8_LEVELS = (101, 131, 161, 191)
FIG8_SLOPES = ((5, 1), (-7, 2), (1, 1))
PAIR_NS = (-3, -2, 1, 2, 3)
PAIR_LEVELS = tuple(range(7, 26, 2))
#: with 3 pairs and 6 fits under 50 ms each, op_ms_p50 falls in the middle
#: of the cluster of r=131 complements and r=101 fillings (about 0.2 s each)
#: and op_ms_p90 in the middle of the r=191 fillings 5 and -7/2, not near a
#: gap between clusters, where the percentile would jump with per-op jitter
PAIRS_PER_RUN = 3

#: crosscheck_small: knots with twist counts in +-2..+-4, levels 5..41
SMALL_KNOTS = tuple(
    (m, n)
    for m in (-4, -3, -2, 2, 3, 4)
    for n in (-4, -3, -2, 2, 3, 4)
    if not DoubleTwistKnot(m, n).is_link
)
SMALL_LEVELS = tuple(range(5, 42, 2))
SMALL_MAX_N = 6
AMPHI_LEVELS = (7, 9, 11, 13)
CROSSCHECK_OPS = 2400

#: op kinds of crosscheck_small and their shares of CROSSCHECK_OPS
CROSSCHECK_MIX = (
    ("rmatrix", 20),
    ("bracket", 6),
    ("fig8", 20),
    ("mirror", 20),
    ("amphi", 10),
    ("cfe", 8),
    ("alexander", 8),
    ("seifert", 4),
    ("twist", 8),
    ("monodromy", 2),
    ("census", 8),
)


def small_colors(r: int) -> range:
    """Color dimensions N of crosscheck_small's fusion ops at level r."""
    return range(1, min(SMALL_MAX_N, r - 1) + 1)


def fig8_small_colors(r: int) -> range:
    return range(1, (r - 1) // 2 + 1)


def amphi_slopes():
    return sorted({(p, q) for p in range(1, 10) for q in range(1, 7)})


# -- reference keys --------------------------------------------------------


def slope_key(slope) -> str:
    if slope is None:
        return "comp"
    s = slope if isinstance(slope, ExactRational) else ExactRational(*slope)
    return str(s)


def tv_key(knot, slope, r) -> str:
    return f"tv|{knot[0]},{knot[1]}|{slope_key(slope)}|{r}"


def fit_key(knot, slope, levels) -> str:
    return f"fit|{knot[0]},{knot[1]}|{slope_key(slope)}|{','.join(map(str, levels))}"


def jones_key(knot, r, color) -> str:
    """Key of the Jones value at strand color a = N - 1."""
    return f"jones|{knot[0]},{knot[1]}|{r}|{color}"


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["values"]


# -- agreement -------------------------------------------------------------


def agree_digits(x, y) -> float:
    """Digits on which x and y agree, relative to 1 + |x| + |y|."""
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        return 0.0
    diff = abs(x - y)
    if diff == 0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(diff / (1.0 + abs(x) + abs(y))))


def ref_complex(ref) -> complex:
    log_abs, arg = ref
    return cmath.rect(math.exp(log_abs), arg)


class Op:
    """One op: its kind, the id of what it computed, and its outcome."""

    __slots__ = ("kind", "ident", "seconds", "digits", "ok", "error")

    def __init__(self, kind, ident, seconds, digits=None, ok=True, error=None):
        self.kind = kind
        self.ident = ident
        self.seconds = seconds
        self.digits = digits
        self.ok = ok
        self.error = error

    def to_json(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """Times ops and applies their checks; never stops on a failure."""

    def __init__(self, refs: dict, tracer=None):
        self.refs = refs
        self.tracer = tracer
        self.ops: list[Op] = []

    def _begin_op(self):
        if self.tracer is not None:
            self.tracer.next_op()

    def run(self, kind: str, ident: str, floor_kind, call, check):
        """Run call() as one op and check(result) -> digits or bool."""
        self._begin_op()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing op is counted, not raised
            self.fail(kind, ident, time.perf_counter() - start, repr(exc))
            return None
        seconds = time.perf_counter() - start
        self.add(kind, ident, floor_kind, seconds, lambda: check(result))
        return result

    def add(self, kind, ident, floor_kind, seconds, check):
        try:
            verdict = check()
        except Exception as exc:
            self.fail(kind, ident, seconds, repr(exc))
            return
        if isinstance(verdict, bool):
            self.ops.append(Op(kind, ident, seconds, None, verdict))
        else:
            ok = verdict >= FLOORS[floor_kind]
            self.ops.append(Op(kind, ident, seconds, verdict, ok))

    def fail(self, kind, ident, seconds, error):
        self.ops.append(Op(kind, ident, seconds, None, False, error))


def _finite(x):
    if not cmath.isfinite(x):
        raise ArithmeticError(f"non-finite value {x!r}")
    return x


def _check_tv(refs, knot, slope, r):
    ref = refs[tv_key(knot, slope, r)]["logslope"]

    def check(sample):
        return agree_digits(_finite(sample.logslope), ref)

    return check


def _check_fit(refs, knot, slope, levels):
    ref = refs[fit_key(knot, slope, levels)]

    def check(estimate):
        return agree_digits(_finite(estimate.extrapolated), ref)

    return check


def _check_log(ref, value: "jones.LogComplex") -> float:
    log_abs, arg = ref
    _finite(value.log_abs)
    return min(
        agree_digits(value.log_abs, log_abs),
        agree_digits(value.phase, cmath.rect(1.0, arg)),
    )


# -- complement_fusion ------------------------------------------------------


def complement_fusion_steps(seed: int):
    rng = random.Random(seed)
    knot = rng.choice(SWEEP_KNOTS)

    def sweep(rec: Recorder):
        k = DoubleTwistKnot(*knot)
        samples = []
        for r in SWEEP_LEVELS:
            s = rec.run(
                "tv_complement",
                tv_key(knot, None, r),
                "tv",
                lambda: turaevviro.tv_knot_complement(k, r),
                _check_tv(rec.refs, knot, None, r),
            )
            samples.append(s)
        rec.run(
            "growth_fit",
            fit_key(knot, None, SWEEP_LEVELS),
            "fit",
            lambda: growth.ltv_estimate(samples),
            _check_fit(rec.refs, knot, None, SWEEP_LEVELS),
        )

    def probe(rec: Recorder, probes):
        for pknot, r in probes:
            color = (r - 3) // 2
            ref = rec.refs[jones_key(pknot, r, color)]
            rec.run(
                "probe_top_color",
                jones_key(pknot, r, color),
                "jones",
                lambda: jones.jones_log_all_colors(
                    DoubleTwistKnot(*pknot), r, [color]
                )[0],
                lambda v: _check_log(ref, v),
            )

    # One probe of each level runs before the sweep and one after: the probe
    # pairs at r=151 and r=251 set op_ms_p50 and op_ms_p90, and timing each
    # pair's ops ~30 s apart halves the effect of drift in machine speed.
    steps = [
        lambda rec: probe(rec, PROBES[0::2]),
        sweep,
        lambda rec: probe(rec, PROBES[1::2][::-1]),
    ]
    return {"sweep_knot": list(knot)}, steps, len(SWEEP_LEVELS) + 1 + len(PROBES)


# -- fig8_fillings ----------------------------------------------------------

#: names the ltv report looks up in the growth module, timed as ops
_REPORT_CALLS = ("tv_knot_complement", "tv_surgery", "ltv_estimate")


class _ReportHooks:
    """Time each TV sample and fit a report makes, where growth looks it up."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.calls: list[tuple[str, float, object]] = []
        self.saved = {}

    def __enter__(self):
        for name in _REPORT_CALLS:
            original = getattr(growth, name)
            self.saved[name] = original
            setattr(growth, name, self._timed(name, original))
        return self

    def __exit__(self, *exc):
        for name, original in self.saved.items():
            setattr(growth, name, original)

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            self.rec._begin_op()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.calls.append((name, time.perf_counter() - start, exc))
                raise
            self.calls.append((name, time.perf_counter() - start, result))
            return result

        return timed


def _report_step(slope):
    ops_per_report = 2 * len(FIG8_LEVELS) + 2

    def step(rec: Recorder):
        fig8 = (FIG8.m, FIG8.n)
        with _ReportHooks(rec) as hooks:
            start = time.perf_counter()
            try:
                growth.q_hyperbolicity_report(
                    FIG8, ExactRational(*slope), levels=list(FIG8_LEVELS)
                )
                error = None
            except Exception as exc:
                error = repr(exc)
            elapsed = time.perf_counter() - start
        if error is not None:
            # every op the report owed counts as failed
            for _ in range(ops_per_report):
                rec.fail("ltv_report", f"report|{slope_key(slope)}",
                         elapsed / ops_per_report, error)
            return
        for name, sec, result in hooks.calls:
            if name == "ltv_estimate":
                continue
            which = None if name == "tv_knot_complement" else slope
            kind = "tv_complement" if which is None else "tv_surgery"
            rec.add(kind, tv_key(fig8, which, result.r), "tv", sec,
                    lambda: _check_tv(rec.refs, fig8, which, result.r)(result))
        fits = [c for c in hooks.calls if c[0] == "ltv_estimate"]
        for (_, sec, est), which in zip(fits, (None, slope)):
            rec.add("growth_fit", fit_key(fig8, which, FIG8_LEVELS), "fit", sec,
                    lambda: _check_fit(rec.refs, fig8, which, FIG8_LEVELS)(est))

    return step


def _pair_step(n, r):
    def step(rec: Recorder):
        knot = (2 * n, -3)
        knot_slope, fig8_slope = surgery.shared_surgery(surgery.FAMILY_D, n)
        a = rec.run(
            "tv_surgery",
            tv_key(knot, knot_slope, r),
            "tv",
            lambda: turaevviro.tv_surgery(DoubleTwistKnot(*knot), knot_slope, r),
            _check_tv(rec.refs, knot, knot_slope, r),
        )
        ref_check = _check_tv(rec.refs, (FIG8.m, FIG8.n), fig8_slope, r)

        def check(b):
            if a is None:
                raise ArithmeticError("partner sample failed")
            return min(ref_check(b), agree_digits(a.logslope, b.logslope))

        rec.run(
            "identity_pair",
            tv_key((FIG8.m, FIG8.n), fig8_slope, r),
            "pair",
            lambda: turaevviro.tv_surgery(FIG8, fig8_slope, r),
            check,
        )

    return step


def fig8_fillings_steps(seed: int):
    rng = random.Random(seed)
    slopes = list(FIG8_SLOPES)
    rng.shuffle(slopes)
    pairs = rng.sample([(n, r) for n in PAIR_NS for r in PAIR_LEVELS], PAIRS_PER_RUN)
    steps = [_report_step(s) for s in slopes] + [_pair_step(n, r) for n, r in pairs]
    ops = len(slopes) * (2 * len(FIG8_LEVELS) + 2) + 2 * len(pairs)
    inputs = {"slopes": [slope_key(s) for s in slopes], "pairs": pairs}
    return inputs, steps, ops


# -- crosscheck_small -------------------------------------------------------


def _jones_ref(refs, knot, N, r):
    return ref_complex(refs[jones_key(knot, r, N - 1)])


def _vs_routes(refs, knot, N, r):
    """Check a fusion value against its reference and another route."""
    ref = _jones_ref(refs, knot, N, r)

    def check(pair):
        value, other = pair
        _finite(value)
        return min(agree_digits(value, ref), agree_digits(value, other))

    return check


def _cross_op(kind, rng, even):
    """One crosscheck_small op as (id, floor kind, call, check factory).

    even maps the kinds whose cost depends most on their input (fig8,
    monodromy) to iterators over that input, drawn by _even_draws.
    """
    if kind in ("rmatrix", "bracket", "mirror"):
        knot = rng.choice(SMALL_KNOTS)
        r = rng.choice(SMALL_LEVELS)
        N = 2 if kind == "bracket" else rng.choice(small_colors(r))

        def call():
            k = DoubleTwistKnot(*knot)
            ctx = RootOfUnityContext(r)
            value = jones.colored_jones(k, N, ctx)
            if kind == "rmatrix":
                other = oracles.colored_jones_rmatrix_oracle(k, N, ctx)
            elif kind == "bracket":
                other = oracles.colored_jones_kauffman_oracle(k, ctx)
            else:
                other = jones.colored_jones(twistknots.mirror(k), N, ctx).conjugate()
            return value, other

        ident = f"{kind}|{jones_key(knot, r, N - 1)}"
        return ident, "jones", call, lambda refs: _vs_routes(refs, knot, N, r)
    if kind == "fig8":
        r, N = next(even["fig8"])

        def call():
            value = jones.colored_jones(FIG8, N, RootOfUnityContext(r))
            return value, jones.figure_eight_log(N, r).to_complex()

        fig8 = (FIG8.m, FIG8.n)
        ident = f"fig8|{jones_key(fig8, r, N - 1)}"
        return ident, "jones", call, lambda refs: _vs_routes(refs, fig8, N, r)
    if kind == "amphi":
        p, q = rng.choice(amphi_slopes())
        r = rng.choice(AMPHI_LEVELS)

        def call():
            a = turaevviro.tv_surgery(FIG8, ExactRational(p, q), r)
            b = turaevviro.tv_surgery(FIG8, ExactRational(-p, q), r)
            return a, b

        def check_factory(refs):
            ref = refs[tv_key((FIG8.m, FIG8.n), (p, q), r)]["tv"]

            def check(pair):
                a, b = pair
                return min(
                    agree_digits(_finite(a.tv), ref), agree_digits(b.tv, a.tv)
                )

            return check

        return f"amphi|{tv_key((FIG8.m, FIG8.n), (p, q), r)}", "pair", call, check_factory
    if kind == "cfe":
        g = rng.randint(1, 200)
        return f"cfe|{g}", None, lambda: rationals.cfe_eval(rationals.alternating_cfe(g)), (
            lambda refs: lambda v: v == ExactRational(2 * g, 6 * g - 1)
        )
    if kind == "alexander":
        n = rng.choice([k for k in range(-6, 7) if k])

        def call():
            delta = twistknots.alexander(
                twistknots.fraction_of(DoubleTwistKnot(2 * n, -2))
            )
            return delta, twistknots.twist_knot_alexander(n)

        return f"alexander|{n}", None, call, lambda refs: lambda v: (
            v[0].equals_up_to_units(v[1]) and twistknots.is_monic(v[0]) == (abs(n) == 1)
        )
    if kind == "seifert":
        a, b = rng.choice(
            [(a, b) for a in range(-5, 6) for b in range(-5, 6)
             if a * b and not DoubleTwistKnot(2 * a, 2 * b).is_unknot]
        )

        def call():
            return (
                twistknots.alexander(twistknots.fraction_of(DoubleTwistKnot(2 * a, 2 * b))),
                twistknots.alexander_genus1_seifert(a, b),
            )

        return f"seifert|{a},{b}", None, call, lambda refs: lambda v: v[0].equals_up_to_units(v[1])
    if kind == "twist":
        ids = ("a", "b", "c")
        lk = {(i, j): rng.randint(-3, 3) for i in ids for j in ids if i < j}
        coeffs = {i: (rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for i in ids}
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        u = rng.choice(ids)

        def call():
            pres = surgery.SurgeryPresentation(
                [
                    surgery.SurgeryComponent(
                        i,
                        ExactRational(*coeffs[i]),
                        {y: lk[tuple(sorted((i, y)))] for y in ids if y != i},
                        unknotted=True,
                    )
                    for i in ids
                ]
            )
            back = surgery.rolfsen_twist(surgery.rolfsen_twist(pres, u, t), u, -t)
            return back, pres

        return f"twist|{u},{t}", None, call, lambda refs: lambda v: v[0] == v[1]
    if kind == "monodromy":
        g = next(even["monodromy"])
        return f"monodromy|{g}", None, lambda: monodromy.fibered_monodromy_check(g), (
            lambda refs: lambda v: bool(v[0])
        )
    if kind == "census":
        index = rng.randrange(62)

        def call():
            row = census.census_rows()[index]
            return census.check_volume_bounds(row), census.slope_pair_matches(row)

        return f"census|{index}", None, call, (
            lambda refs: lambda v: v[0].passed and v[1] is not False
        )
    raise ValueError(f"unknown op kind {kind!r}")


def kind_counts() -> dict:
    """Ops per kind: CROSSCHECK_OPS split by the weights, largest remainders first."""
    total = sum(w for _, w in CROSSCHECK_MIX)
    exact = {k: CROSSCHECK_OPS * w / total for k, w in CROSSCHECK_MIX}
    counts = {k: int(x) for k, x in exact.items()}
    short = CROSSCHECK_OPS - sum(counts.values())
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[:short]:
        counts[k] += 1
    return counts


def _even_draws(rng, pool, k):
    """k inputs that cover pool evenly: shuffled copies of it, end to end."""
    out = []
    while len(out) < k:
        copy = list(pool)
        rng.shuffle(copy)
        out.extend(copy)
    return iter(out[:k])


def crosscheck_small_steps(seed: int):
    """Fixed op counts per kind, in seeded order, with seeded inputs.

    The fig8 and monodromy ops take most of the time and their cost grows
    with the color and the genus, so their inputs cover the pool evenly
    rather than independently: every seed then does nearly the same work.
    """
    rng = random.Random(seed)
    counts = kind_counts()
    drawn = [k for k, n in counts.items() for _ in range(n)]
    rng.shuffle(drawn)
    even = {
        "fig8": _even_draws(
            rng, [(r, N) for r in SMALL_LEVELS for N in fig8_small_colors(r)], counts["fig8"]
        ),
        "monodromy": _even_draws(rng, range(1, 9), counts["monodromy"]),
    }
    plan = [(kind,) + _cross_op(kind, rng, even) for kind in drawn]

    def step(rec: Recorder):
        for kind, ident, floor_kind, call, check_factory in plan:
            rec.run(kind, ident, floor_kind, call, check_factory(rec.refs))

    return {"op_counts": counts}, [step], len(plan)


WORKLOADS = {
    "complement_fusion": complement_fusion_steps,
    "fig8_fillings": fig8_fillings_steps,
    "crosscheck_small": crosscheck_small_steps,
}
