"""Golden-plan regression tests for the rewrite pass.

Each named query's EXPLAIN output — rewrite trace lines plus the
physical operator tree with row estimates — is snapshotted under
``tests/golden/``.  A failing test prints a readable unified diff so CI
logs show exactly which operator or trace line moved.

To regenerate after an intentional planner/rewrite change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_plans.py

The dataset is fully deterministic (fixed seed, fixed sizes, ANALYZE),
so the estimates embedded in the snapshots are stable across runs and
platforms.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))


def build_db(rewrites: bool = True) -> Database:
    db = Database("golden", config=EngineConfig(rewrites=rewrites))
    rng = np.random.default_rng(2005)
    n = 400
    db.create_table("t1", {
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 10, n).astype(np.int64),
        "a": rng.integers(-50, 50, n).astype(np.int64),
        "b": rng.uniform(-10.0, 10.0, n),
    }, primary_key="id")
    db.create_table("t2", {
        "k": rng.integers(0, 10, 120).astype(np.int64),
        "c": rng.uniform(0.0, 100.0, 120),
    })
    db.create_table("t3", {
        "k": np.arange(10, dtype=np.int64),
        "w": rng.uniform(1.0, 5.0, 10),
    }, primary_key="k")
    db.sql("ANALYZE")
    return db


#: name -> SQL; each snapshot exists twice, `<name>.txt` (rewrites on)
#: and `<name>.off.txt` (rewrites off, pinning the pre-rewrite plans).
GOLDEN_QUERIES = {
    "constant_fold": "SELECT id, a FROM t1 WHERE 1 = 1 AND a > 5 ORDER BY id",
    "double_negation": "SELECT id FROM t1 WHERE NOT (NOT (a > 5)) ORDER BY id",
    "cte_inline":
        "WITH f AS (SELECT id, a, b FROM t1 WHERE a > 0) "
        "SELECT id, b FROM f WHERE b > 1 ORDER BY id",
    "predicate_pushdown":
        "SELECT * FROM (SELECT id, k, a FROM t1) d WHERE d.a > 10 ORDER BY id",
    "derived_merge":
        "SELECT d.id, d.s FROM (SELECT id, a + k AS s FROM t1 WHERE a > 0) d "
        "WHERE d.s > 5 ORDER BY d.id",
    "in_decorrelate":
        "SELECT id, k FROM t1 WHERE k IN (SELECT k FROM t2 WHERE c > 60) "
        "ORDER BY id",
    "exists_decorrelate":
        "SELECT id FROM t1 WHERE EXISTS "
        "(SELECT 1 FROM t2 WHERE t2.k = t1.k AND t2.c > 60) ORDER BY id",
    "left_join_elim":
        "SELECT t1.id, t1.a FROM t1 LEFT JOIN t3 ON t3.k = t1.k "
        "WHERE t1.a > 0 ORDER BY t1.id",
    "aggregate_pushdown":
        "SELECT t3.k, SUM(t1.a) AS sa, MAX(t1.b) AS hi FROM t3 "
        "INNER JOIN t1 ON t1.k = t3.k GROUP BY t3.k ORDER BY t3.k",
    "having_pushdown":
        "SELECT k, COUNT(*) AS n FROM t1 GROUP BY k "
        "HAVING k > 4 AND COUNT(*) > 2 ORDER BY k",
}


#: name -> SQL planned after writes on a clustered, primary-keyed t1:
#: the range scan that survives them (its cost charges the append tail)
#: and the primary-key seek.  One snapshot each, `<name>.txt`.
POST_DML_QUERIES = {
    "post_dml_range": "SELECT id, a FROM t1 WHERE k BETWEEN 2 AND 3",
    "pk_seek": "SELECT id, a, b FROM t1 WHERE id = 17",
}


def build_post_dml_db() -> Database:
    db = build_db(rewrites=True)
    db.create_clustered_index("t1", "k", "id")
    db.sql("INSERT INTO t1 SELECT id + 1000, k, a, b FROM t1 WHERE id < 40")
    db.sql("DELETE FROM t1 WHERE id BETWEEN 100 AND 109")
    db.sql("UPDATE t1 SET a = a + 1 WHERE id < 20")
    return db


#: name -> SQL over a zone table clustered on (zoneid, ra): the
#: appendix's neighbour self-join, a band on zoneid probed by the
#: filtered side with the ra window and the chord test as residual.
#: One snapshot each, `<name>.txt`.
ZONE_QUERIES = {
    "neighbour_band":
        "SELECT a.objid AS objid, COUNT(*) AS n "
        "FROM zone a JOIN zone b "
        "ON b.zoneid BETWEEN a.zoneid - 1 AND a.zoneid + 1 "
        "AND b.ra BETWEEN a.ra - 0.02 AND a.ra + 0.02 "
        "WHERE a.i < 15.0 "
        "AND POWER(a.cx - b.cx, 2) + POWER(a.cy - b.cy, 2) "
        "+ POWER(a.cz - b.cz, 2) < 1e-7 "
        "GROUP BY a.objid",
}


def build_zone_db() -> Database:
    db = build_db(rewrites=True)
    rng = np.random.default_rng(2005)
    n = 600
    ra = rng.uniform(180.0, 181.0, n)
    dec = rng.uniform(0.0, 0.5, n)
    cos_dec = np.cos(np.deg2rad(dec))
    db.create_table("zone", {
        "objid": np.arange(n, dtype=np.int64),
        "zoneid": np.floor((dec + 90.0) / 0.05).astype(np.int64),
        "ra": ra,
        "cx": cos_dec * np.cos(np.deg2rad(ra)),
        "cy": cos_dec * np.sin(np.deg2rad(ra)),
        "cz": np.sin(np.deg2rad(dec)),
        "i": rng.uniform(14.0, 22.0, n),
    }, primary_key="objid")
    db.create_clustered_index("zone", "zoneid", "ra")
    db.sql("ANALYZE")
    return db


def _check(path: Path, actual: str, context: str) -> None:
    if UPDATE:
        path.write_text(actual + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name} — regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )
    expected = path.read_text().rstrip("\n")
    if actual != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            fromfile=f"golden/{path.name}", tofile="actual", lineterm="",
        ))
        pytest.fail(
            f"plan for {context} changed:\n{diff}\n"
            f"(regenerate with REPRO_UPDATE_GOLDEN=1 if intentional)"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_golden_plan_rewrites_on(name):
    db = build_db(rewrites=True)
    actual = db.explain(GOLDEN_QUERIES[name])
    _check(GOLDEN_DIR / f"{name}.txt", actual, f"{name} (rewrites on)")


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_golden_plan_rewrites_off(name):
    """EngineConfig(rewrites=False) must reproduce the unrewritten plans
    exactly — these snapshots are the pre-rewrite baseline."""
    db = build_db(rewrites=False)
    actual = db.explain(GOLDEN_QUERIES[name])
    assert "Rewrite " not in actual
    _check(GOLDEN_DIR / f"{name}.off.txt", actual, f"{name} (rewrites off)")


@pytest.mark.parametrize("name", sorted(POST_DML_QUERIES))
def test_golden_plan_after_dml(name):
    db = build_post_dml_db()
    actual = db.explain(POST_DML_QUERIES[name])
    assert "IndexRangeScan" in actual
    _check(GOLDEN_DIR / f"{name}.txt", actual, f"{name} (after DML)")


@pytest.mark.parametrize("name", sorted(ZONE_QUERIES))
def test_golden_plan_zone_band(name):
    db = build_zone_db()
    actual = db.explain(ZONE_QUERIES[name])
    assert "BandJoin(b.zoneid" in actual and "NestedLoopJoin" not in actual
    _check(GOLDEN_DIR / f"{name}.txt", actual, f"{name} (zone band)")
