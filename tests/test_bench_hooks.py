"""The names the benchmark looks up in qhyp must keep resolving.

perfbench/worker.py checks that the CLI caches start empty, and
perfbench/tracing.py wraps each layer's functions by name; a rename or a
dropped cache would otherwise fail only inside a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_cold_caches_are_caches():
    caches = _load("worker")._cold_caches()
    assert caches
    for name, fn in caches.items():
        assert hasattr(fn, "cache_info"), name


def test_tracer_installs_and_uninstalls():
    from qhyp.quantum import jones, recoupling

    tet_grid = recoupling.RecouplingLevel.tet_grid
    fig8 = jones.figure_eight_log
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert jones.figure_eight_log is not fig8
    finally:
        tracer.uninstall()
    assert jones.figure_eight_log is fig8
    assert recoupling.RecouplingLevel.tet_grid is tet_grid


def test_tracer_sees_tet_grid_inside_the_double_fusion_sum():
    # the per-layer recoupling.tet_grid metrics count the grid the double
    # fusion sum reads through level.tet_grid(a)
    from qhyp.quantum import jones
    from qhyp.twistknots import DoubleTwistKnot

    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        jones._fusion_log_double(DoubleTwistKnot(2, -3), 5, 21)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("jones.fusion_double") == 1
    assert names.count("recoupling.tet_grid") == 1
    (grid,) = (span for span in tracer.spans if span[0] == "recoupling.tet_grid")
    assert tracer.spans[grid[3]][0] == "jones.fusion_double"


def test_tracer_sees_the_surgery_level_lookups():
    # the surgery sum reads the shared mpmath level through its own import,
    # so jones.mp_level spans and build counts must cover that name too
    from qhyp.quantum import jones, turaevviro

    level = jones._mp_level
    assert turaevviro._mp_level is level
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert jones._mp_level is not level
        assert turaevviro._mp_level is jones._mp_level
        assert jones._mp_level.__wrapped__ is level
    finally:
        tracer.uninstall()
    assert jones._mp_level is level
    assert turaevviro._mp_level is level


def test_benchmark_slope_and_cfe_contract():
    # perfbench/workloads.py keys slopes with isinstance(s, ExactRational)
    # and checks exact ops with == ExactRational(2g, 6g - 1)
    from qhyp import rationals, surgery

    workloads = _load("workloads")
    ExactRational = rationals.ExactRational
    assert isinstance(ExactRational, type)
    for n in workloads.PAIR_NS:
        for slope in surgery.shared_surgery("D", n):
            assert isinstance(slope, ExactRational), (n, slope)
            assert workloads.slope_key(slope) == str(slope)
    for p, q in workloads.FIG8_SLOPES:
        assert workloads.slope_key((p, q)) == str(ExactRational(p, q))
    for g in (1, 2, 7, 200):
        value = rationals.cfe_eval(rationals.alternating_cfe(g))
        assert value == ExactRational(2 * g, 6 * g - 1)


def test_report_looks_up_its_sweeps_in_growth(monkeypatch):
    # perfbench/workloads.py times each sample and fit of an ltv report by
    # patching these three names on the growth module
    from collections import Counter

    from qhyp.quantum import growth
    from qhyp.rationals import ExactRational
    from qhyp.twistknots import DoubleTwistKnot

    calls = Counter()
    for name in ("tv_knot_complement", "tv_surgery", "ltv_estimate"):
        original = getattr(growth, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(growth, name, counted)
    growth.q_hyperbolicity_report(
        DoubleTwistKnot(2, -2), ExactRational(5), levels=(11, 21, 31, 41)
    )
    assert calls == {"tv_knot_complement": 4, "tv_surgery": 4, "ltv_estimate": 2}
