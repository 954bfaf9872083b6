"""The repo's benchmark: four workloads, end to end and layer by layer.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload W] [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat K] [--out-dir DIR]
    python benchmarks/e2e/run.py --compare A.json B.json

Every workload runs in a fresh child interpreter (``worker.py``) with
BLAS pinned to one thread; each metric is printed as
``workload metric value unit``; answers are checked inside the child.

With ``--workload`` exactly one child runs, in the mode ``--trace``
names, and the last line of standard output is the one JSON object the
driver's contract asks for (``--trace 0``: the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1``: its per-layer metrics).  Without it
every workload runs untraced — and traced as well when ``--trace`` is
set — ``--repeat`` times, and one result set is written to
``result_<seed>.json`` under ``--out-dir`` (default
``benchmarks/e2e/out/``, where the traced runs also leave
``trace_<workload>.jsonl``).

``--compare`` reads two result sets and gives, per workload and
end-to-end metric, a verdict against the bounds of ``BENCHMARK.json``:
within bound, worse, or unresolved (run-to-run spread wider than the
bound).  It exits non-zero on any worse metric or any rise in failed
ops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: End-to-end metrics that exist on some workloads only.  The driver's
#: contract wants every ``end_to_end`` metric from every workload, so
#: ``BENCHMARK.json`` lists these under ``per_layer`` (prefix ``e2e.``,
#: taken from the untraced pass of the ``--trace 1`` run); their bounds
#: live here and ``--compare`` applies them.
WORKLOAD_BOUNDS = {
    "e2e.op_ms_p95": ("lower", 0.10),
    "e2e.physical_reads_per_op": ("lower", 0.10),
    "e2e.write_ms_p50": ("lower", 0.25),
    "e2e.partition_elapsed_ratio": ("lower", 0.15),
    "e2e.partition_cpu_ratio": ("lower", 0.10),
    "e2e.partition_io_ratio": ("lower", 0.02),
    "e2e.sql_over_numpy_ratio": ("lower", 0.20),
    "e2e.stored_bytes_per_user_byte": ("lower", 0.02),
}


def child_env() -> dict[str, str]:
    """The children's environment: ``src`` importable, one BLAS thread."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; return its result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
        "--out-dir", str(args.out_dir),
    ]
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: worker exited with code {done.returncode}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for name, metric in result["metrics"].items():
        print(workload, name, repr(metric["value"]), metric["unit"])
    print(
        workload, "failed_ops_share",
        repr(result["failed"] / result["attempted"]), "ratio",
    )
    return result


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args, declared: dict) -> int:
    """Every workload, ``--repeat`` times; write one result set."""
    modes = (0, 1) if args.trace else (0,)
    workloads: dict[str, dict] = {}
    header: dict = {}
    for name in [w["name"] for w in declared["workloads"]]:
        entry = workloads[name] = {
            "attempted": 0, "failed": 0, "ops": {}, "sample_counts": {},
            "metrics": {},
        }
        for _ in range(args.repeat):
            for trace in modes:
                result = run_child(name, args, trace)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["ops"][str(trace)] = result["header"]["ops"]
                entry["sample_counts"][str(trace)] = (
                    result["header"]["sample_counts"]
                )
                for metric, cell in result["metrics"].items():
                    slot = entry["metrics"].setdefault(
                        metric, {"unit": cell["unit"], "values": []}
                    )
                    slot["values"].append(cell["value"])
                header = result["header"]
    result_set = {
        "header": {
            "git_sha": git_sha(),
            "nproc": header["nproc"],
            "python": header["python"],
            "numpy": header["numpy"],
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "repeat": args.repeat,
            "traced": bool(args.trace),
            "blas_threads": 1,
        },
        "workloads": workloads,
    }
    out = args.out_dir / f"result_{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result_set, indent=1) + "\n")
    print(f"result set written to {out}")
    return 1 if any(w["failed"] for w in workloads.values()) else 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if unknown)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``within bound`` / ``worse`` / ``unresolved`` for B against A."""
    if not a or not b or not statistics.median(a):
        return "unresolved"
    base, change = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change - base) / abs(base)
    if max(_spread(a), _spread(b)) > bound:
        every_run_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "within bound" if every_run_better else "unresolved"
    return "worse" if worsening > bound else "within bound"


def compare(path_a: str, path_b: str, declared: dict) -> int:
    set_a = json.loads(Path(path_a).read_text())
    set_b = json.loads(Path(path_b).read_text())
    bounds = {
        m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]
    }
    bounds.update(WORKLOAD_BOUNDS)
    bad = 0
    for name, entry_a in set_a["workloads"].items():
        entry_b = set_b["workloads"].get(name)
        if entry_b is None:
            print(name, "missing from", path_b)
            bad += 1
            continue
        for metric, (better, bound) in bounds.items():
            a = entry_a["metrics"].get(metric, {}).get("values", [])
            b = entry_b["metrics"].get(metric, {}).get("values", [])
            if not any(a) and not any(b):
                continue  # does not apply to this workload
            result = verdict(a, b, better, bound)
            print(
                name, metric, result,
                f"A={statistics.median(a)!r}" if a else "A=none",
                f"B={statistics.median(b)!r}" if b else "B=none",
                f"bound={bound}",
            )
            bad += result == "worse"
        share_a = entry_a["failed"] / entry_a["attempted"]
        share_b = entry_b["failed"] / entry_b["attempted"]
        risen = share_b > share_a
        print(
            name, "failed_ops_share", "worse" if risen else "within bound",
            f"A={share_a!r}", f"B={share_b!r}",
        )
        bad += risen
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="damage one recorded answer per workload (smoke test only)",
    )
    args = parser.parse_args(argv)

    declared = json.loads(BENCHMARK_JSON.read_text())
    if args.compare:
        return compare(*args.compare, declared)
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is None:
        return run_all(args, declared)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    result = run_child(args.workload, args, args.trace)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
