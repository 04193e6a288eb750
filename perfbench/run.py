"""The qhyp benchmark: seeded workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload complement_fusion --seed 1 --seconds 20 --trace 0

Each round runs the whole seeded workload once in a fresh interpreter
(perfbench/worker.py), cold as a CLI invocation is. A run makes
ROUNDS_PER_30S rounds per 30 s of --seconds, and at least one.
With --trace 0 the result holds the end-to-end metrics of those rounds.
With --trace 1 half as many untraced and traced rounds alternate, and the
result holds the per-layer metrics of the traced rounds plus
trace.overhead_s, the traced wall time less the untraced one (both
medians).

setup_s is the median, over the rounds and SETUP_SPAWNS set-up-only
interpreters, of the time from starting the interpreter to the first timed
call. The environment is pinned: QHYP_THREADS unset, BLAS threads 1,
bytecode cached.

The last line of standard output is the JSON result; the lines before it
list the inputs and every failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(HERE, "spec.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: rounds per 30 s of --seconds; one round takes about 26-40, 15-25 and 4-6 s
#: on a 2-core x86 machine, and a run at --seconds 30 about 40, 45 and 20 s
ROUNDS_PER_30S = {"complement_fusion": 1, "fig8_fillings": 2, "crosscheck_small": 3}
WORKLOAD_NAMES = tuple(ROUNDS_PER_30S)
SETUP_SPAWNS = 4
ROUND_TIMEOUT_S = 150

_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("QHYP_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode, as an installed CLI does
    for var in _BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str]) -> tuple[float, dict]:
    """Run the worker; return its spawn time and its JSON result."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        env=pinned_env(),
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(rounds: list[dict], setups: list[float], known_defects) -> tuple[dict, int, int, bool]:
    ops = [op for r in rounds for op in r["ops"]]
    per_round = {len(r["ops"]) for r in rounds}
    if len(per_round) != 1:
        raise RuntimeError(f"rounds attempted different op counts: {per_round}")
    failed = [op for op in ops if not op["ok"]]
    digits = [op["digits"] for op in ops if op["digits"] is not None]
    times_ms = [op["seconds"] * 1e3 for op in ops]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_p90": percentile(times_ms, 90),
        "ops": per_round.pop(),
        "pass_ratio": (len(ops) - len(failed)) / len(ops),
        "min_agree_digits": min(digits),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    correct = all(op["ident"] in known_defects for op in failed)
    return values, len(ops), len(failed), correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qhyp", "__init__.py")):
        print(f"qhyp sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        known_defects = json.load(fh)["known_defects"]
    with open(BENCHMARK) as fh:
        bench = json.load(fh)

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def setup_only():
        # half before the rounds and half after, to sample two time windows
        for _ in range(SETUP_SPAWNS // 2):
            t_spawn, res = spawn(base + ["--setup-only"])
            setups.append(res["t_ready"] - t_spawn)

    # the round count depends only on --seconds, so every run does the same work
    count = max(1, round(ROUNDS_PER_30S[args.workload] * args.seconds / 30))
    modes = (False,)
    if args.trace:
        count, modes = max(1, count // 2), (False, True)
    rounds = {False: [], True: []}
    setup_only()
    for _ in range(count):
        for traced in modes:
            t_spawn, res = spawn(base + (["--trace"] if traced else []))
            setups.append(res["t_ready"] - t_spawn)
            rounds[traced].append(res)
    setup_only()

    plain = rounds[False]
    values, attempted, failed, correct = end_to_end(plain, setups, known_defects)
    listed = bench["end_to_end"]
    if args.trace:
        layers = [r["layers"] for r in rounds[True]]
        values = {k: statistics.median(x[k] for x in layers) for k in layers[0]}
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in rounds[True]
        ) - statistics.median(r["wall_s"] for r in plain)
        listed = bench["per_layer"]
        for r in rounds[True]:
            print(f"trace written to {r['trace_file']}")
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(values)}")

    print(f"{args.workload} seed={args.seed} rounds={len(plain)} inputs={json.dumps(plain[0]['inputs'])}")
    for op in plain[0]["ops"]:
        if not op["ok"]:
            tag = "known defect" if op["ident"] in known_defects else "FAILED"
            print(f"{tag}: {op['kind']} {op['ident']} digits={op['digits']} error={op['error']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
