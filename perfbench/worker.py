"""One cold round of a benchmark workload, in a fresh interpreter.

run.py starts this script once per round, as a CLI invocation would start:
qhyp is imported from the checkout's src/, its caches are empty, the inputs
are drawn from the seed and the references loaded; then every op of the
workload runs once in a closed loop. The last line of standard output is a
JSON object with the op records, the timed section's wall time, peak memory
and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload crosscheck_small --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _cold_caches():
    """The caches a CLI invocation starts with empty."""
    from qhyp.quantum import jones, oracles, recoupling

    return {
        "recoupling_level": recoupling.recoupling_level,
        "_mp_level": jones._mp_level,
        "_writhe_cached": jones._writhe_cached,
        "_rep_matrices": oracles._rep_matrices,
        "_braiding": oracles._braiding,
        "_cup_cap": oracles._cup_cap,
        "_calibration": oracles._calibration,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    warm = [name for name, fn in _cold_caches().items() if fn.cache_info().currsize]
    if warm:
        raise RuntimeError(f"caches not cold at start: {warm}")
    refs = workloads.load_refs()
    inputs, steps, n_ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rec = workloads.Recorder(refs, tracer)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    start = time.perf_counter()
    for step in steps:
        step(rec)
    wall = time.perf_counter() - start

    if len(rec.ops) != n_ops:
        raise RuntimeError(f"expected {n_ops} ops, recorded {len(rec.ops)}")
    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "inputs": inputs,
        "ops": [op.to_json() for op in rec.ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
