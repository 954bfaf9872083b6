"""Ablation: the engine mechanics behind the paper's Section 2.6 claims.

"Database management systems are designed to do fast searches" — this
bench opens the hood on *our* engine the way the paper's analysis opens
SQL Server's:

* **index vs scan** — a clustered-index range read vs a full scan with
  a residual filter, in logical page reads and wall-clock;
* **hash vs nested-loop join** — the redshift-keyed Kcorr join that
  Section 2.6 credits ("uses the redshift index as the JOIN attribute");
* **buffer pool size** — the paper's nodes had 2 GB; shrink the pool
  below the working set and physical reads explode (why "the required
  data is usually in memory" matters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import ShapeCheck, format_table, print_report
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.expressions import col
from repro.engine.join import HashJoin, NestedLoopJoin
from repro.engine.operators import SeqScan
from repro.engine.stats import TaskTimer

N_ROWS = 120_000
RANGE_QUERIES = 50


@pytest.mark.benchmark(group="ablation-engine")
def test_engine_mechanics(benchmark):
    rng = np.random.default_rng(8)
    db = Database("mech", config=EngineConfig(pool_pages=200_000))
    db.create_table(
        "galaxy",
        {
            "objid": np.arange(N_ROWS, dtype=np.int64),
            "zoneid": rng.integers(0, 2000, N_ROWS),
            "ra": rng.uniform(0, 360, N_ROWS),
            "zid": rng.integers(0, 300, N_ROWS),
        },
        primary_key="objid",
    )
    db.create_table(
        "kcorr",
        {"zid": np.arange(300, dtype=np.int64),
         "radius": rng.uniform(0.05, 0.3, 300)},
        primary_key="zid",
    )

    # ------------------------------------------------ index vs scan
    def timed_queries():
        with TaskTimer("q", db.pool.counters) as timer:
            for k in range(RANGE_QUERIES):
                lo = (k * 37) % 1900
                db.sql(
                    f"SELECT objid FROM galaxy WHERE zoneid BETWEEN {lo} "
                    f"AND {lo + 20}"
                )
        return timer.stats

    scan_stats = timed_queries()
    db.create_clustered_index("galaxy", "zoneid", "ra")
    index_stats = benchmark.pedantic(timed_queries, rounds=1, iterations=1)
    io_gain = scan_stats.io.logical_reads / max(index_stats.io.logical_reads, 1)
    time_gain = scan_stats.elapsed_s / max(index_stats.elapsed_s, 1e-9)

    # ------------------------------------------------ hash vs nested loop
    galaxy_scan = SeqScan(db.table("galaxy"), "g")
    kcorr_scan = SeqScan(db.table("kcorr"), "k")
    subset = Database("sub")
    subset.create_table(
        "g2",
        {name: arr[:4000] for name, arr in
         db.table("galaxy").columns_dict().items()},
    )
    sub_scan = SeqScan(subset.table("g2"), "g")
    with TaskTimer("hash") as hash_timer:
        hash_rows = len(HashJoin(
            sub_scan, kcorr_scan, col("zid", "g"), col("zid", "k")
        ).execute()["k.radius"])
    from repro.engine.expressions import BinaryOp
    with TaskTimer("loop") as loop_timer:
        loop_rows = len(NestedLoopJoin(
            sub_scan, kcorr_scan,
            BinaryOp("=", col("zid", "g"), col("zid", "k")),
        ).execute()["k.radius"])
    join_gain = loop_timer.stats.elapsed_s / max(hash_timer.stats.elapsed_s, 1e-9)

    # ------------------------------------------------ buffer pool size
    def pool_run(pool_pages):
        small = Database("pool", config=EngineConfig(pool_pages=pool_pages))
        small.create_table(
            "galaxy",
            {name: arr for name, arr in
             db.table("galaxy").columns_dict().items()},
        )
        before = small.pool.counters.snapshot()
        for _ in range(3):
            small.table("galaxy").scan()
        return small.pool.counters.since(before)

    table_pages = db.table("galaxy").page_count
    big_pool = pool_run(table_pages * 4)
    tiny_pool = pool_run(max(2, table_pages // 4))
    thrash = tiny_pool.physical_reads / max(big_pool.physical_reads, 1)

    rows = [
        ["range query, full scan", round(scan_stats.elapsed_s * 1e3, 1),
         scan_stats.io.logical_reads],
        ["range query, clustered index", round(index_stats.elapsed_s * 1e3, 1),
         index_stats.io.logical_reads],
        ["kcorr join, hash", round(hash_timer.stats.elapsed_s * 1e3, 1),
         hash_rows],
        ["kcorr join, nested loop", round(loop_timer.stats.elapsed_s * 1e3, 1),
         loop_rows],
        ["3 scans, ample pool (phys reads)", "", big_pool.physical_reads],
        ["3 scans, tiny pool (phys reads)", "", tiny_pool.physical_reads],
    ]
    checks = [
        ShapeCheck("clustered index cuts page reads",
                   "'indexing is a big part of the answer'",
                   f"{io_gain:.0f}x fewer logical reads", io_gain > 5.0),
        ShapeCheck("index range scans are faster",
                   "seek vs scan", f"{time_gain:.1f}x", time_gain > 1.0),
        ShapeCheck("hash join beats nested loop on the zid key",
                   "'redshift index as the JOIN attribute'",
                   f"{join_gain:.0f}x", join_gain > 3.0),
        ShapeCheck("join strategies agree", "same rows",
                   str(hash_rows == loop_rows), hash_rows == loop_rows),
        ShapeCheck("undersized buffer pool thrashes",
                   "2 GB nodes keep the working set hot",
                   f"{thrash:.1f}x more physical reads", thrash > 2.0),
    ]
    print_report(
        f"Ablation — engine mechanics ({N_ROWS:,} rows)",
        [format_table("micro-measurements",
                      ["operation", "ms", "I/O or rows"], rows)],
        checks,
    )
    assert all(c.holds for c in checks)
