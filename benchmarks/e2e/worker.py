"""Child process: set up, run and check ONE workload; print one JSON line.

``run.py`` starts this file in a fresh interpreter per workload (BLAS
threads pinned in the environment before numpy loads) and reads the
last line of its standard output.  Not meant to be run by hand, though
nothing stops you::

    PYTHONPATH=src python benchmarks/e2e/worker.py --workload sql_analytic
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import wl_casjobs_zipf
import wl_dml_readwrite
import wl_sql_analytic
import wl_table1_numpy
from harness import PassLog, StageClock, Tracer, p50, p95, share
from sizes import SCALES, SETUP_REPEATS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

WORKLOADS = {
    module.NAME: module
    for module in (
        wl_table1_numpy, wl_sql_analytic, wl_casjobs_zipf, wl_dml_readwrite,
    )
}

#: A p95 is reported only with at least this many samples behind it
#: (ten beyond the percentile); below that the metric reads 0.
P95_MIN_SAMPLES = 200


def end_to_end(log: PassLog, setup_s: float) -> dict[str, float]:
    """The metrics every workload reports, taken with tracing off."""
    ops = len(log.op_s)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / log.wall_s,
        "op_ms_p50": 1e3 * p50(log.op_s),
        "cpu_ms_per_op": 1e3 * log.cpu_s / ops,
        "logical_reads_per_op": log.logical_reads / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR)
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args(argv)

    declared = json.loads(BENCHMARK_JSON.read_text())
    module = WORKLOADS[args.workload]
    size = getattr(SCALES[args.scale], args.workload)
    ops = module.n_ops(size, args.seconds)
    # a traced run needs three identically set-up states: one to burn
    # in on, one for the untraced pass, one for the traced replay
    passes = 3 if args.trace else 1
    if args.trace:
        # the budget is split between the untraced pass the overhead is
        # measured against and the traced replay of the same ops
        ops = max(2, ops // 2)

    # set up several times; the first states feed the passes, the rest
    # only steady the median
    states, setup_seconds, clocks = [], [], []
    for repeat in range(max(SETUP_REPEATS, passes)):
        clock = StageClock()
        started = time.perf_counter()
        state = module.setup(args.seed, size, clock)
        setup_seconds.append(time.perf_counter() - started)
        clocks.append(clock.seconds)
        if repeat < passes:
            states.append(state)
        else:
            module.teardown(state)
        del state
    gc.collect()

    if args.trace:
        # the process keeps getting faster for its first few dozen ops
        # (the allocator stops returning big temporaries to the kernel);
        # without a burn-in the pass that runs second looks cheaper and
        # the tracing overhead comes out negative
        module.run(states[2], ops)
        module.teardown(states.pop())
    untraced = module.run(states[0], ops)
    if args.corrupt_oracle:
        module.corrupt(untraced)
    attempted, failed = module.verify(states[0], untraced)
    sample_counts = {"op": len(untraced.op_s)}
    sample_counts.update(
        {name: len(values) for name, values in untraced.samples.items()}
    )

    if not args.trace:
        metrics = end_to_end(untraced, p50(setup_seconds))
        wanted = declared["end_to_end"]
    else:
        tracer = Tracer(counters=module.counters(states[1]))
        traced = module.run(states[1], ops, tracer)
        more_attempted, more_failed = module.verify(states[1], traced)
        attempted += more_attempted
        failed += more_failed
        metrics = {
            stage: p50([clock.get(stage, 0.0) for clock in clocks])
            for stage in {name for clock in clocks for name in clock}
        }
        metrics.update(module.workload_metrics(states[0], untraced))
        metrics.update(
            module.layer_metrics(states[1], untraced, traced, tracer)
        )
        metrics["e2e.physical_reads_per_op"] = untraced.physical_reads / ops
        if len(untraced.op_s) >= P95_MIN_SAMPLES:
            metrics["e2e.op_ms_p95"] = 1e3 * p95(untraced.op_s)
        metrics["e2e.failed_ops_share"] = share(failed, attempted)
        metrics["bench.tracing_overhead_share"] = (
            p50(traced.op_s) / p50(untraced.op_s) - 1.0
        )
        tracer.flush(args.out_dir / f"trace_{args.workload}.jsonl")
        wanted = declared["per_layer"]
    for state in states:
        module.teardown(state)

    undeclared = sorted(set(metrics) - {m["name"] for m in wanted})
    if undeclared:
        raise SystemExit(
            f"{args.workload} produced metrics BENCHMARK.json does not "
            f"declare: {undeclared}"
        )
    result = {
        "workload": args.workload,
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        # a per-layer metric that does not apply to this workload reads 0
        "metrics": {
            m["name"]: {
                "value": float(metrics.get(m["name"], 0.0)),
                "unit": m["unit"],
            }
            for m in wanted
        },
        "header": {
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "ops": ops,
            "sample_counts": sample_counts,
            "setup_repeats": SETUP_REPEATS,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
