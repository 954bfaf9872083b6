"""Smoke test of the benchmark itself, at ``--scale smoke``.

Run by path, outside tier-1::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Three result sets are produced: two traced runs of one seed (every
declared metric printed with its unit; every count identical between
them) and one run with a deliberately damaged answer per workload
(``failed_ops_share`` must rise and the command must fail).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
ALL_METRICS = DECLARED["end_to_end"] + DECLARED["per_layer"]
SECONDS = "2"
SEED = "7"

#: Ratios that are quotients of exact counts, so they must repeat too.
COUNT_RATIOS = {
    "engine.cache.hit_rate", "engine.memo.hit_rate",
    "engine.pages.pool_hit_rate", "engine.index.index_plan_share",
    "core.likelihood.pass_share", "cluster.partitioning.skirt_share",
    "e2e.partition_io_ratio", "e2e.failed_ops_share",
    "engine.operators.rows_examined_per_row_returned",
}


def _start(out_dir: Path, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--scale", "smoke",
            "--seconds", SECONDS, "--seed", SEED, "--out-dir", str(out_dir),
            *extra,
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    started = {
        "a": _start(tmp / "a", "--trace"),
        "b": _start(tmp / "b", "--trace"),
        "c": _start(tmp / "c", "--corrupt-oracle"),
    }
    stdout = {
        name: process.communicate(timeout=120)[0]
        for name, process in started.items()
    }
    out = {
        name: json.loads((tmp / name / f"result_{SEED}.json").read_text())
        for name in started
    }
    out["stdout"] = stdout["a"]
    out["codes"] = tuple(started[name].returncode for name in "abc")
    out["trace_dir"] = tmp / "a"
    return out


def test_names_are_well_formed():
    for metric in ALL_METRICS:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"]), metric


def test_every_declared_metric_is_printed_with_its_unit(runs):
    assert runs["codes"][:2] == (0, 0)
    printed = {
        tuple(line.split()[:2]): line.split()[3]
        for line in runs["stdout"].splitlines()
        if len(line.split()) == 4 and line.split()[0] in WORKLOADS
    }
    for workload in WORKLOADS:
        for metric in ALL_METRICS:
            assert printed[(workload, metric["name"])] == metric["unit"]
        assert printed[(workload, "failed_ops_share")] == "ratio"


def test_answers_pass_and_every_workload_was_measured(runs):
    for workload in WORKLOADS:
        entry = runs["a"]["workloads"][workload]
        assert entry["failed"] == 0 and entry["attempted"] > 0
        for name in ("ops_per_s", "op_ms_p50", "setup_s", "peak_rss_mb"):
            assert entry["metrics"][name]["values"][0] > 0
    header = runs["a"]["header"]
    for key in ("git_sha", "nproc", "python", "numpy", "seed", "seconds"):
        assert key in header


def test_trace_files_hold_parented_spans(runs):
    for workload in WORKLOADS:
        lines = (
            runs["trace_dir"] / f"trace_{workload}.jsonl"
        ).read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        assert {"id", "parent", "op", "name", "start_us", "end_us"} <= set(
            spans[0]
        )
        assert any(span["parent"] is not None for span in spans)
        assert all(span["end_us"] >= span["start_us"] for span in spans)


def test_counts_repeat_exactly_for_one_seed(runs):
    for workload in WORKLOADS:
        a = runs["a"]["workloads"][workload]
        b = runs["b"]["workloads"][workload]
        assert (a["attempted"], a["ops"], a["sample_counts"]) == (
            b["attempted"], b["ops"], b["sample_counts"]
        )
        for name, cell in a["metrics"].items():
            if cell["unit"] == "count" or name in COUNT_RATIOS:
                assert cell["values"] == b["metrics"][name]["values"], name


def test_a_damaged_answer_raises_failed_ops_share(runs):
    assert runs["codes"][2] != 0
    for workload in WORKLOADS:
        entry = runs["c"]["workloads"][workload]
        assert entry["failed"] >= 1
        assert entry["failed"] / entry["attempted"] > 0


def test_compare_accepts_a_set_against_itself(runs, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(runs["a"]))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", path, path],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0
    assert "worse" not in done.stdout
