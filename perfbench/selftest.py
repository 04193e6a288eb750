"""Self-test of the qhyp benchmark.

    python3 perfbench/selftest.py   # about 3 minutes on a 2-core x86 machine

Checks that a seed always draws the same inputs, that a run prints every
metric BENCHMARK.json names, with its unit, at --trace 0 and --trace 1 on
every workload, and that perturbing one reference value turns the op
checked against it into a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    return bench


def check_seeded_inputs():
    for name, build in W.WORKLOADS.items():
        a_inputs, a_steps, a_ops = build(7)
        b_inputs, b_steps, b_ops = build(7)
        assert a_inputs == b_inputs and a_ops == b_ops, name


def run_json(workload: str, trace: int, seconds: float = 1) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
        )
    assert code == 0, code
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_printed_metrics(bench: dict, workload: str):
    expected = {
        trace: {m["name"]: m["unit"] for m in bench[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    for trace, units in expected.items():
        result = run_json(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert set(metrics) == set(units), (workload, trace, set(metrics) ^ set(units))
        for name, unit in units.items():
            assert metrics[name]["unit"] == unit, name
            assert isinstance(metrics[name]["value"], (int, float)), name
        if trace == 0:
            assert result["correct"], result
            for name in ("setup_s", "wall_s", "op_ms_p50", "pass_ratio", "min_agree_digits"):
                assert metrics[name]["value"] > 0, name
        print(f"ok: {workload} --trace {trace} prints all {len(units)} metrics")


def check_perturbed_reference():
    """A reference nudged by 1e-6 must make its op fail; the true one passes."""
    refs = W.load_refs()
    n, r = 2, 11
    step = W._pair_step(n, r)
    knot_slope, fig8_slope = W.surgery.shared_surgery(W.surgery.FAMILY_D, n)
    key = W.tv_key((W.FIG8.m, W.FIG8.n), fig8_slope, r)

    rec = W.Recorder(refs)
    step(rec)
    assert all(op.ok for op in rec.ops), [op.to_json() for op in rec.ops]

    bad = dict(refs)
    bad[key] = dict(refs[key], logslope=refs[key]["logslope"] * (1 + 1e-6))
    rec = W.Recorder(bad)
    step(rec)
    assert [op.ok for op in rec.ops] == [True, False], [op.to_json() for op in rec.ops]

    knot, N = (3, -2), 4
    jkey = W.jones_key(knot, r, N - 1)
    _, _, call, factory = W._cross_op("rmatrix", _FixedChoice(knot, r, N), {})
    assert factory(refs)(call()) >= W.FLOORS["jones"]
    bad = dict(refs)
    bad[jkey] = [refs[jkey][0] + 1e-6, refs[jkey][1]]
    assert factory(bad)(call()) < W.FLOORS["jones"]
    print("ok: perturbed references turn their ops into failures")


class _FixedChoice:
    """Stands in for the seeded generator to draw one given fusion op."""

    def __init__(self, knot, r, N):
        self.values = iter([knot, r, N])

    def choice(self, _):
        return next(self.values)


def main() -> int:
    bench = load_benchmark_json()
    check_seeded_inputs()
    print("ok: a seed draws the same inputs every time")
    check_perturbed_reference()
    for name in run.WORKLOAD_NAMES:
        check_printed_metrics(bench, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
