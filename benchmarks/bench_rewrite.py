"""Extension: the logical rewrite pass, measured.

Four rewrite-sensitive queries run twice on the same catalog — logical
rewrites on and off — under EXPLAIN ANALYZE.  The claims:

* answers are **byte-identical** in both modes (same columns, dtypes,
  values, order): rewrites change plans, never results;
* on at least two of the queries the rewritten plan touches **2x or
  fewer** rows (summed over all operators) — predicate pushdown turns a
  full scan + late filter into a clustered-index range scan, and
  LEFT-join elimination never reads the joined table at all;
* every rewritten plan's EXPLAIN names the rule(s) that fired.

Results are written to ``BENCH_rewrite.json`` at the repo root.  Run
standalone (``python benchmarks/bench_rewrite.py``) — the CI rewrite
smoke step does exactly that — or under pytest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.bench.reporting import ShapeCheck, print_report
from repro.engine.config import EngineConfig
from repro.engine.database import Database

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_rewrite.json"

#: Queries eligible for the >=2x rows-scanned claim must clear this.
REDUCTION_FLOOR = 2.0
#: ... on at least this many of the benchmarked queries.
MIN_QUERIES_REDUCED = 2

N_FACT = 50_000
N_DIM = 50_000


def build_database() -> Database:
    """A fact table with a clustered PK and a large joinable dimension."""
    db = Database("bench_rewrite", config=EngineConfig(rewrites=True))
    rng = np.random.default_rng(2005)
    db.create_table("fact", {
        "id": np.arange(N_FACT, dtype=np.int64),
        "k": rng.integers(0, N_DIM, N_FACT).astype(np.int64),
        "grp": rng.integers(0, 200, N_FACT).astype(np.int64),
        "v": rng.uniform(-10.0, 10.0, N_FACT),
    }, primary_key="id")
    db.create_table("dim", {
        "k": np.arange(N_DIM, dtype=np.int64),
        "w": rng.uniform(1.0, 5.0, N_DIM),
    }, primary_key="k")
    db.create_table("tags", {
        "k": rng.integers(0, 200, 400).astype(np.int64),
        "c": rng.uniform(0.0, 100.0, 400),
    })
    db.sql("ANALYZE")
    return db


#: name -> (sql, rules expected in the rewritten EXPLAIN)
QUERIES = {
    "derived_pushdown_index": (
        "SELECT * FROM (SELECT id, grp, v FROM fact) d "
        "WHERE d.id BETWEEN 1000 AND 1999 ORDER BY id",
        ("predicate_pushdown",),
    ),
    "cte_pushdown_index": (
        "WITH f AS (SELECT id, v FROM fact) "
        "SELECT id, v FROM f WHERE id BETWEEN 2000 AND 2499 ORDER BY id",
        ("cte_inline", "derived_table_merge"),
    ),
    "left_join_elimination": (
        "SELECT fact.id, fact.v FROM fact LEFT JOIN dim ON dim.k = fact.k "
        "WHERE fact.grp < 20 ORDER BY fact.id",
        ("redundant_join_elimination",),
    ),
    "in_decorrelation": (
        "SELECT id, grp FROM fact "
        "WHERE grp IN (SELECT k FROM tags WHERE c > 90) ORDER BY id",
        ("decorrelate_subquery",),
    ),
}


def byte_identical(left, right) -> bool:
    if list(left) != list(right):
        return False
    for name in left:
        lhs, rhs = np.asarray(left[name]), np.asarray(right[name])
        if lhs.dtype != rhs.dtype or not np.array_equal(lhs, rhs):
            return False
    return True


def run_workload(db: Database, sql: str) -> dict:
    """The query under both rewrite modes; rows summed over operators."""
    out: dict = {}
    for mode, enabled in (("rewritten", True), ("baseline", False)):
        db.config = db.config.replace(rewrites=enabled)
        report = db.explain_analyze(sql)
        out[mode] = {
            "elapsed_s": round(report.total_s, 6),
            "rows_scanned": int(sum(node.rows for node in report.nodes)),
            "result_rows": report.row_count,
            "rewrite_trace": list(report.rewrite_trace),
            "plan": [node.description for node in report.nodes],
            "_result": report.result,
        }
    db.config = db.config.replace(rewrites=True)
    rewritten, baseline = out["rewritten"], out["baseline"]
    out["reduction_x"] = round(
        baseline["rows_scanned"] / max(rewritten["rows_scanned"], 1), 2
    )
    out["byte_identical"] = byte_identical(
        rewritten["_result"], baseline["_result"]
    )
    return out


def run_and_check():
    db = build_database()
    results = {name: run_workload(db, sql)
               for name, (sql, _) in QUERIES.items()}

    reduced = [name for name, r in results.items()
               if r["reduction_x"] >= REDUCTION_FLOOR]
    checks = [
        ShapeCheck(
            claim="answers byte-identical with rewrites on and off",
            paper="rewrites change plans, never results",
            measured=", ".join(
                f"{name}={r['byte_identical']}"
                for name, r in results.items()
            ),
            holds=all(r["byte_identical"] for r in results.values()),
        ),
        ShapeCheck(
            claim=(f">={REDUCTION_FLOOR:.0f}x fewer rows touched on "
                   f">={MIN_QUERIES_REDUCED} queries"),
            paper="pushdown reaches the clustered index; elimination "
                  "never reads the joined table",
            measured=", ".join(
                f"{name}={r['reduction_x']}x" for name, r in results.items()
            ),
            holds=len(reduced) >= MIN_QUERIES_REDUCED,
        ),
        ShapeCheck(
            claim="every rewritten plan names its fired rules",
            paper="EXPLAIN carries the rewrite audit trail",
            measured=", ".join(
                f"{name}:{len(r['rewritten']['rewrite_trace'])}"
                for name, r in results.items()
            ),
            holds=all(
                all(any(rule in line for line in r["rewritten"]["rewrite_trace"])
                    for rule in QUERIES[name][1])
                and not r["baseline"]["rewrite_trace"]
                for name, r in results.items()
            ),
        ),
    ]

    payload = {
        "reduction_floor": REDUCTION_FLOOR,
        "min_queries_reduced": MIN_QUERIES_REDUCED,
        "queries": {
            name: {
                "sql": QUERIES[name][0],
                "reduction_x": r["reduction_x"],
                "byte_identical": r["byte_identical"],
                **{mode: {k: v for k, v in r[mode].items()
                          if not k.startswith("_")}
                   for mode in ("rewritten", "baseline")},
            }
            for name, r in results.items()
        },
        "checks": [
            {"claim": c.claim, "holds": bool(c.holds)} for c in checks
        ],
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, checks


def _report(payload, checks) -> None:
    lines = [
        f"{name}: {q['baseline']['rows_scanned']:,} -> "
        f"{q['rewritten']['rows_scanned']:,} rows "
        f"({q['reduction_x']}x), byte-identical={q['byte_identical']}"
        for name, q in payload["queries"].items()
    ]
    print_report("Logical rewrites: rows touched, answers unchanged",
                 lines, checks)


def test_rewrite_bench():
    payload, checks = run_and_check()
    _report(payload, checks)
    assert all(c.holds for c in checks), \
        [c.claim for c in checks if not c.holds]


def main() -> int:
    payload, checks = run_and_check()
    _report(payload, checks)
    print(f"wrote {OUTPUT_PATH}")
    return 0 if all(c.holds for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
