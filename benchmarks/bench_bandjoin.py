"""Extension: band-join extraction on the hot MaxBCG likelihood join.

Table 1 is dominated by ``fBCGCandidate`` — per candidate, the chi²
likelihood test joins each galaxy against every row of the k-correction
grid.  The chi² filter's i-band term bounds ``|g.i - k.i|`` by
``0.57 * sqrt(7) ≈ 1.508``, so stating that band explicitly
(``ABS(g.i - k.i) < 1.509``) is answer-preserving and lets the planner
replace the nested loop with a :class:`BandJoin`: sort the k-correction
grid on ``i`` once, then per galaxy visit only the grid rows inside the
band and apply the full chi² as a vectorized residual.

Three configurations drive the same SQL:

* ``nested_loop`` — band extraction disabled (the pre-PR plan shape);
* ``band`` — cost mode extracts the band, one worker;
* ``band_morsels`` — same plan, blocks dispatched to 4 morsel workers.

plus a 3-table join chain written big-x-big first where *every* join
predicate is an ``ABS(.) < c`` band — hostile to nested-loop planning,
ideal for extraction.  All configurations must return byte-identical
rows; the band plan must beat the nested loop by >= 3x on the kernel.

Results are written to ``BENCH_bandjoin.json`` at the repo root.  Run
standalone (``python benchmarks/bench_bandjoin.py``) — the CI bench
smoke step does exactly that — or under pytest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.bench.reporting import ShapeCheck, print_report
from repro.core.config import fast_config
from repro.core.kcorrection import build_kcorrection_table
from repro.core.procedures import install_maxbcg
from repro.engine.database import Database
from repro.skyserver.generator import SkyConfig, SkySimulator
from repro.skyserver.regions import RegionBox

#: Required speedup of the band plan over the nested loop on the kernel.
KERNEL_SPEEDUP_FLOOR = 3.0

#: Morsel workers for the parallel configuration.
MORSEL_WORKERS = 4

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_bandjoin.json"

#: The chi^2 acceptance test, with its implied i-band stated explicitly:
#: chi^2 < 7 forces (g.i - k.i)^2 / 0.57^2 < 7, i.e. |g.i - k.i| <
#: 0.57 * sqrt(7) = 1.50808...; adding ABS(..) < 1.509 changes nothing.
KERNEL_QUERY = """
SELECT g.objid AS objid, COUNT(*) AS nz
FROM Zone z
JOIN Galaxy g ON z.objid = g.objid
CROSS JOIN Kcorr k
WHERE z.zoneid BETWEEN 10860 AND 10920
  AND ABS(g.i - k.i) < 1.509
  AND (POWER(g.i - k.i, 2) / POWER(0.57, 2)
       + POWER(g.gr - k.gr, 2) / (POWER(sigmagr, 2) + POWER(0.05, 2))
       + POWER(g.ri - k.ri, 2) / (POWER(sigmari, 2) + POWER(0.06, 2))) < 7
GROUP BY g.objid
"""

#: Every join predicate is a band; written big-x-big first so a planner
#: without extraction pays two full nested-loop cross products.
CHAIN_QUERY = """
SELECT COUNT(*) AS n, SUM(b.v) AS total
FROM pts_a a
JOIN pts_b b ON ABS(a.x - b.x) < 0.05
JOIN pts_c c ON ABS(b.y - c.y) < 0.05
"""


def build_database() -> Database:
    """The demo catalog (MaxBCG installed + zoned) plus band-chain tables."""
    config = fast_config()
    kcorr = build_kcorrection_table(config)
    target = RegionBox(180.0, 182.0, 0.0, 2.0)
    sky = SkySimulator(
        kcorr, config,
        SkyConfig(field_density=700.0, cluster_density=9.0, seed=42),
    ).generate(target.expand(1.0))

    db = Database("bench_bandjoin")
    db.create_table("galaxy_source", sky.catalog.as_columns(),
                    primary_key="objid")
    install_maxbcg(db, kcorr, config)
    box = target.expand(1.0)
    db.sql(f"EXEC spImportGalaxy {box.ra_min}, {box.ra_max}, "
           f"{box.dec_min}, {box.dec_max}")
    db.sql("EXEC spZone")

    rng = np.random.default_rng(42)
    n = 2_000
    for name in ("pts_a", "pts_b", "pts_c"):
        db.create_table(name, {
            "id": np.arange(n, dtype=np.int64),
            "x": rng.uniform(0.0, 100.0, n),
            "y": rng.uniform(0.0, 100.0, n),
            "v": rng.normal(size=n),
        }, primary_key="id")
    db.sql("ANALYZE")
    return db


def _canonical_rows(result) -> list[tuple]:
    names = sorted(result)
    columns = [np.asarray(result[name]) for name in names]
    rows = [
        tuple(round(float(c[i]), 6) for c in columns)
        for i in range(len(columns[0]) if columns else 0)
    ]
    return sorted(rows)


#: name -> (band_joins enabled, intra-query workers)
CONFIGS = {
    "nested_loop": (False, 1),
    "band": (True, 1),
    "band_morsels": (True, MORSEL_WORKERS),
}


#: Timed repetitions per configuration; the fastest run is reported
#: (damps scheduler noise on shared CI runners).
REPEATS = 3


def run_workload(db: Database, sql: str) -> dict:
    """One query under every configuration; metrics + plans per config."""
    out: dict = {}
    for name, (band_joins, workers) in CONFIGS.items():
        db.config = db.config.replace(
            band_joins=band_joins, intra_query_workers=workers
        )
        try:
            report = min(
                (db.explain_analyze(sql) for _ in range(REPEATS)),
                key=lambda r: r.total_s,
            )
        finally:
            db.config = db.config.replace(
                band_joins=True, intra_query_workers=1
            )
        out[name] = {
            "elapsed_s": round(report.total_s, 6),
            "result_rows": report.row_count,
            "plan": [node.description for node in report.nodes],
            "_rows": _canonical_rows(report.result),
        }
    return out


def _speedup(workload: dict, fast: str) -> float:
    return workload["nested_loop"]["elapsed_s"] / max(
        workload[fast]["elapsed_s"], 1e-9
    )


def run_and_check():
    db = build_database()
    kernel = run_workload(db, KERNEL_QUERY)
    chain = run_workload(db, CHAIN_QUERY)

    def has_band(workload, name):
        return any("BandJoin" in d for d in workload[name]["plan"])

    def rows_match(workload):
        return (workload["band"]["_rows"] == workload["nested_loop"]["_rows"]
                and workload["band_morsels"]["_rows"]
                == workload["nested_loop"]["_rows"])

    kernel_speedup = _speedup(kernel, "band")
    kernel_morsel_speedup = _speedup(kernel, "band_morsels")
    chain_speedup = _speedup(chain, "band")

    checks = [
        ShapeCheck(
            claim="band plan replaces the kernel's nested loop",
            paper="likelihood test visits only the k-correction band",
            measured=next((d for d in kernel["band"]["plan"]
                           if "BandJoin" in d), "no BandJoin"),
            holds=(has_band(kernel, "band")
                   and not has_band(kernel, "nested_loop")),
        ),
        ShapeCheck(
            claim="kernel answers byte-identical across all configs",
            paper="the access path changes cost, never answers",
            measured=f"{kernel['band']['result_rows']} rows each",
            holds=rows_match(kernel),
        ),
        ShapeCheck(
            claim=f"kernel band speedup >= {KERNEL_SPEEDUP_FLOOR}x",
            paper="the chi^2 join dominates Table 1; pruning it pays",
            measured=f"{kernel_speedup:.1f}x (morsels: "
                     f"{kernel_morsel_speedup:.1f}x)",
            holds=kernel_speedup >= KERNEL_SPEEDUP_FLOOR,
        ),
        ShapeCheck(
            claim="chain extracts a band on every join step",
            paper="ABS(delta) < c predicates are bands, not theta joins",
            measured=f"{sum(1 for d in chain['band']['plan'] if 'BandJoin' in d)} band joins",
            holds=(sum(1 for d in chain["band"]["plan"]
                       if "BandJoin" in d) == 2
                   and not has_band(chain, "nested_loop")),
        ),
        ShapeCheck(
            claim="chain answers byte-identical, band faster",
            paper="hostile FROM order costs nothing once bands extract",
            measured=f"{chain_speedup:.1f}x",
            holds=rows_match(chain) and chain_speedup > 1.0,
        ),
    ]

    payload = {
        "kernel_speedup_floor": KERNEL_SPEEDUP_FLOOR,
        "morsel_workers": MORSEL_WORKERS,
        "speedups": {
            "kernel_band": round(kernel_speedup, 2),
            "kernel_band_morsels": round(kernel_morsel_speedup, 2),
            "chain_band": round(chain_speedup, 2),
        },
        "workloads": {
            "maxbcg_kernel": {
                name: {k: v for k, v in kernel[name].items()
                       if not k.startswith("_")}
                for name in CONFIGS
            },
            "band_chain": {
                name: {k: v for k, v in chain[name].items()
                       if not k.startswith("_")}
                for name in CONFIGS
            },
        },
        "checks": [
            {"claim": c.claim, "holds": bool(c.holds)} for c in checks
        ],
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, checks


def _report(payload, checks):
    lines = [
        f"{name} [{config}]: {m['elapsed_s'] * 1e3:.1f} ms, "
        f"{m['result_rows']} rows"
        for name, configs in payload["workloads"].items()
        for config, m in configs.items()
    ]
    lines.append("speedups: " + ", ".join(
        f"{k}={v}x" for k, v in payload["speedups"].items()
    ))
    print_report("Band-join extraction on the MaxBCG kernel", lines, checks)


def test_bandjoin_bench():
    payload, checks = run_and_check()
    _report(payload, checks)
    assert all(c.holds for c in checks), [c.claim for c in checks if not c.holds]


def main() -> int:
    payload, checks = run_and_check()
    _report(payload, checks)
    print(f"wrote {OUTPUT_PATH}")
    return 0 if all(c.holds for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
