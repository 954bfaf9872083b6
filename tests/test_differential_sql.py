"""Differential testing: the SQL engine vs a straight-numpy oracle.

Three-hundred-odd seeded random queries — SELECTs with arithmetic and
predicates, whole-table and grouped aggregates, inner joins, DISTINCT,
ORDER BY/LIMIT, and the rewrite-triggering shapes (derived tables,
IN/EXISTS subqueries, CTEs, constant-foldable predicates, HAVING on
group keys, aggregates over PK joins, unreferenced LEFT joins) — run
twice: once through the full lexer → parser → planner → executor
stack, once through an independent numpy reference implementation that
never touches the SQL layer.  The answers must match row for row.  The
whole corpus runs under both planner modes (``optimizer="cost"`` with
ANALYZEd statistics, and ``"syntactic"``), so the cost-based
optimizer's reorderings are differentially checked against the oracle
too; a slow-marked leg re-runs everything with the logical rewrite
pass disabled and demands row identity with the rewritten answers.

The point is breadth the hand-written dialect tests can't reach: each
template draws its literals, columns and thresholds from a seeded RNG,
so every seed explores a different corner of the
predicate/projection/aggregation space while staying deterministic and
replayable (a failure names the exact query text).

Numeric comparisons use ``np.isclose(rtol=1e-9)``: both sides do the
same float arithmetic, but the engine may sum in a different order.
Templates deliberately avoid division (divide-by-zero), LEFT JOIN
(NULL-padding semantics live in test_engine_sql_dialect) and empty
aggregate inputs (thresholds are drawn from the data's own range).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.optimizer.rewrite import REWRITE_RULES
from repro.obs.metrics import get_metrics

#: dataset seeds x queries-per-template: 4 * 81 = 324 queries total.
DATASET_SEEDS = (11, 23, 47, 91)
QUERIES_PER_TEMPLATE = 5  # 16 templates x 5 draws = 80, +1 fixed = 81/seed

#: Every query runs under both planner modes: the cost-based optimizer
#: may reorder joins and pick different access paths, but the answers
#: must stay row-for-row identical to the syntactic plan's (and to the
#: numpy oracle's).
OPTIMIZER_MODES = ("cost", "syntactic")


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def make_tables(seed: int) -> tuple[dict, dict, dict]:
    """Three related tables: fact ``t1``, bag ``t2``, dimension ``t3``.

    ``t3`` is keyed on ``k`` (primary key, one row per key value) so the
    PK-dependent rewrites — LEFT-join elimination and aggregate pushdown
    below a keyed join — have a legal target.
    """
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(60, 120))
    n2 = int(rng.integers(40, 90))
    t1 = {
        "id": np.arange(n1, dtype=np.int64),
        "k": rng.integers(0, 8, n1).astype(np.int64),
        "a": rng.integers(-50, 50, n1).astype(np.int64),
        "b": rng.uniform(-10.0, 10.0, n1),
    }
    t2 = {
        "k": rng.integers(0, 8, n2).astype(np.int64),
        "c": rng.uniform(0.0, 100.0, n2),
    }
    t3 = {
        "k": np.arange(8, dtype=np.int64),
        "w": rng.uniform(1.0, 5.0, 8),
    }
    return t1, t2, t3


def make_database(t1: dict, t2: dict, t3: dict, optimizer: str = "cost",
                  result_cache: bool = False,
                  rewrites: bool = True,
                  compiled: bool = True,
                  feedback: bool = False) -> Database:
    config = EngineConfig(optimizer=optimizer, result_cache=result_cache,
                          rewrites=rewrites,
                          compiled_expressions=compiled,
                          feedback=feedback)
    db = Database("diff", config=config)
    db.create_table("t1", dict(t1), primary_key="id")
    db.create_table("t2", dict(t2))
    db.create_table("t3", dict(t3), primary_key="k")
    if optimizer == "cost":
        db.sql("ANALYZE")  # give the estimator real statistics to chew on
    return db


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _canonical(rows: list[dict]) -> list[tuple]:
    """Rows as tuples sorted by a total order usable across floats/ints."""
    if not rows:
        return []
    keys = sorted(rows[0].keys())
    out = [tuple(row[k] for k in keys) for row in rows]
    return sorted(out, key=lambda t: tuple(
        (float(v) if isinstance(v, (int, float, np.number)) else str(v))
        for v in t
    ))


def assert_rows_equal(engine_rows: list[dict], oracle_rows: list[dict],
                      query: str, ordered: bool = False) -> None:
    assert len(engine_rows) == len(oracle_rows), (
        f"row count {len(engine_rows)} != oracle {len(oracle_rows)}\n{query}"
    )
    if not engine_rows:
        return
    assert sorted(engine_rows[0].keys()) == sorted(oracle_rows[0].keys()), (
        f"columns differ\n{query}"
    )
    left = ([tuple(r[k] for k in sorted(r)) for r in engine_rows]
            if ordered else _canonical(engine_rows))
    right = ([tuple(r[k] for k in sorted(r)) for r in oracle_rows]
             if ordered else _canonical(oracle_rows))
    for i, (er, orr) in enumerate(zip(left, right)):
        for ev, ov in zip(er, orr):
            if isinstance(ev, float) or isinstance(ov, float):
                assert np.isclose(float(ev), float(ov), rtol=1e-9, atol=1e-12), (
                    f"row {i}: {ev!r} != {ov!r}\n{query}"
                )
            else:
                assert ev == ov, f"row {i}: {ev!r} != {ov!r}\n{query}"


# ---------------------------------------------------------------------------
# query templates: each returns (sql, oracle_rows, ordered)
# ---------------------------------------------------------------------------


def q_filter_project(rng, t1, t2, t3):
    """Projection with arithmetic over a random conjunctive predicate."""
    a_cut = int(rng.integers(-40, 40))
    b_cut = float(np.round(rng.uniform(-8.0, 8.0), 3))
    scale = int(rng.integers(2, 5))
    sql = (
        f"SELECT id, a * {scale} + k AS s, b FROM t1 "
        f"WHERE a > {a_cut} AND b < {b_cut}"
    )
    mask = (t1["a"] > a_cut) & (t1["b"] < b_cut)
    rows = [
        {"id": int(i), "s": int(a) * scale + int(k), "b": float(b)}
        for i, a, k, b in zip(t1["id"][mask], t1["a"][mask],
                              t1["k"][mask], t1["b"][mask])
    ]
    return sql, rows, False


def q_whole_table_aggregate(rng, t1, t2, t3):
    """Scalar aggregates; threshold drawn from the data so input is non-empty."""
    cut = float(np.round(np.quantile(t1["b"], rng.uniform(0.1, 0.7)), 3))
    sql = (
        "SELECT COUNT(*) AS n, SUM(a) AS sa, MIN(b) AS lo, MAX(b) AS hi, "
        f"AVG(b) AS mean_b FROM t1 WHERE b >= {cut}"
    )
    mask = t1["b"] >= cut
    b = t1["b"][mask]
    rows = [{
        "n": int(mask.sum()),
        "sa": int(t1["a"][mask].sum()),
        "lo": float(b.min()),
        "hi": float(b.max()),
        "mean_b": float(b.mean()),
    }]
    return sql, rows, False


def q_group_by_having(rng, t1, t2, t3):
    """GROUP BY the key with a HAVING floor, ordered by the key."""
    h = int(rng.integers(1, 6))
    sql = (
        "SELECT k, COUNT(*) AS n, SUM(a) AS sa, MAX(b) AS hi FROM t1 "
        f"GROUP BY k HAVING COUNT(*) > {h} ORDER BY k"
    )
    rows = []
    for key in sorted(set(t1["k"].tolist())):
        mask = t1["k"] == key
        n = int(mask.sum())
        if n > h:
            rows.append({
                "k": int(key),
                "n": n,
                "sa": int(t1["a"][mask].sum()),
                "hi": float(t1["b"][mask].max()),
            })
    return sql, rows, True


def q_inner_join(rng, t1, t2, t3):
    """Equality join on the shared key under a filter on each side."""
    a_cut = int(rng.integers(-30, 30))
    c_cut = float(np.round(rng.uniform(20.0, 80.0), 3))
    sql = (
        "SELECT t1.id AS id, t1.k AS k, t2.c AS c "
        "FROM t1 INNER JOIN t2 ON t1.k = t2.k "
        f"WHERE t1.a > {a_cut} AND t2.c < {c_cut}"
    )
    rows = []
    for i, k, a in zip(t1["id"], t1["k"], t1["a"]):
        if a <= a_cut:
            continue
        for k2, c in zip(t2["k"], t2["c"]):
            if k2 == k and c < c_cut:
                rows.append({"id": int(i), "k": int(k), "c": float(c)})
    return sql, rows, False


def q_join_aggregate(rng, t1, t2, t3):
    """The join feeding a grouped aggregate — the paper's spatial-join shape."""
    a_cut = int(rng.integers(-30, 20))
    sql = (
        "SELECT t1.k AS k, COUNT(*) AS n, SUM(t2.c) AS sc "
        "FROM t1 INNER JOIN t2 ON t1.k = t2.k "
        f"WHERE t1.a > {a_cut} GROUP BY t1.k ORDER BY k"
    )
    rows = []
    for key in sorted(set(t1["k"].tolist())):
        left = int(((t1["k"] == key) & (t1["a"] > a_cut)).sum())
        right = t2["c"][t2["k"] == key]
        if left and len(right):
            rows.append({
                "k": int(key),
                "n": left * len(right),
                "sc": float(left * right.sum()),
            })
    return sql, rows, True


def q_distinct(rng, t1, t2, t3):
    """DISTINCT over the group key under a random predicate."""
    b_cut = float(np.round(rng.uniform(-6.0, 6.0), 3))
    sql = f"SELECT DISTINCT k FROM t1 WHERE b > {b_cut}"
    keys = sorted(set(t1["k"][t1["b"] > b_cut].tolist()))
    return sql, [{"k": int(k)} for k in keys], False


def q_order_limit(rng, t1, t2, t3):
    """ORDER BY the unique primary key (deterministic) with a LIMIT."""
    limit = int(rng.integers(3, 15))
    a_cut = int(rng.integers(-40, 30))
    direction = "DESC" if rng.random() < 0.5 else "ASC"
    sql = (
        f"SELECT id, a FROM t1 WHERE a > {a_cut} "
        f"ORDER BY id {direction} LIMIT {limit}"
    )
    mask = t1["a"] > a_cut
    ids = t1["id"][mask]
    order = np.argsort(ids)
    if direction == "DESC":
        order = order[::-1]
    order = order[:limit]
    rows = [
        {"id": int(i), "a": int(a)}
        for i, a in zip(ids[order], t1["a"][mask][order])
    ]
    return sql, rows, True


# ---------------------------------------------------------------------------
# rewrite-triggering templates: every shape below makes one of the
# logical rewrite rules fire, so the corpus differentially proves the
# rewritten plans against an oracle that never saw the rewrite.
# ---------------------------------------------------------------------------


def q_derived_pushdown(rng, t1, t2, t3):
    """Outer filter over a bare derived table (predicate pushdown)."""
    a_cut = int(rng.integers(-40, 40))
    sql = (
        "SELECT * FROM (SELECT id, k, a FROM t1) d "
        f"WHERE d.a > {a_cut} ORDER BY id"
    )
    mask = t1["a"] > a_cut
    rows = [
        {"id": int(i), "k": int(k), "a": int(a)}
        for i, k, a in zip(t1["id"][mask], t1["k"][mask], t1["a"][mask])
    ]
    return sql, rows, True


def q_derived_merge(rng, t1, t2, t3):
    """Computed column in a derived table, filtered outside (merge)."""
    a_cut = int(rng.integers(-30, 30))
    s_cut = int(rng.integers(-20, 20))
    sql = (
        f"SELECT d.id, d.s FROM "
        f"(SELECT id, a + k AS s FROM t1 WHERE a > {a_cut}) d "
        f"WHERE d.s > {s_cut} ORDER BY d.id"
    )
    mask = (t1["a"] > a_cut) & (t1["a"] + t1["k"] > s_cut)
    rows = [
        {"id": int(i), "s": int(a) + int(k)}
        for i, a, k in zip(t1["id"][mask], t1["a"][mask], t1["k"][mask])
    ]
    return sql, rows, True


def q_in_subquery(rng, t1, t2, t3):
    """Uncorrelated IN over the shared key (semi-join decorrelation)."""
    c_cut = float(np.round(rng.uniform(10.0, 90.0), 3))
    sql = (
        "SELECT id, k FROM t1 "
        f"WHERE k IN (SELECT k FROM t2 WHERE c > {c_cut}) ORDER BY id"
    )
    inner = set(t2["k"][t2["c"] > c_cut].tolist())
    rows = [
        {"id": int(i), "k": int(k)}
        for i, k in zip(t1["id"], t1["k"]) if int(k) in inner
    ]
    return sql, rows, True


def q_exists_subquery(rng, t1, t2, t3):
    """Correlated EXISTS over the shared key (decorrelation)."""
    c_cut = float(np.round(rng.uniform(10.0, 90.0), 3))
    sql = (
        "SELECT id, a FROM t1 WHERE EXISTS "
        f"(SELECT 1 FROM t2 WHERE t2.k = t1.k AND t2.c > {c_cut}) "
        "ORDER BY id"
    )
    inner = set(t2["k"][t2["c"] > c_cut].tolist())
    rows = [
        {"id": int(i), "a": int(a)}
        for i, k, a in zip(t1["id"], t1["k"], t1["a"]) if int(k) in inner
    ]
    return sql, rows, True


def q_cte(rng, t1, t2, t3):
    """WITH-bound subset filtered again outside (CTE inline + merge)."""
    a_cut = int(rng.integers(-40, 30))
    b_cut = float(np.round(rng.uniform(-6.0, 6.0), 3))
    sql = (
        f"WITH f AS (SELECT id, a, b FROM t1 WHERE a > {a_cut}) "
        f"SELECT id, b FROM f WHERE b < {b_cut} ORDER BY id"
    )
    mask = (t1["a"] > a_cut) & (t1["b"] < b_cut)
    rows = [
        {"id": int(i), "b": float(b)}
        for i, b in zip(t1["id"][mask], t1["b"][mask])
    ]
    return sql, rows, True


def q_constant_fold(rng, t1, t2, t3):
    """Tautologies and literal arithmetic around a real predicate."""
    a_cut = int(rng.integers(-40, 40))
    scale = int(rng.integers(2, 5))
    sql = (
        f"SELECT id, a * {scale} + 1 - 1 AS s FROM t1 "
        f"WHERE 1 = 1 AND a > {a_cut} AND 2 + 2 = 4 ORDER BY id"
    )
    mask = t1["a"] > a_cut
    rows = [
        {"id": int(i), "s": int(a) * scale}
        for i, a in zip(t1["id"][mask], t1["a"][mask])
    ]
    return sql, rows, True


def q_having_on_group_key(rng, t1, t2, t3):
    """HAVING conjunct on the group key (filter-before-aggregate)."""
    k_cut = int(rng.integers(1, 7))
    h = int(rng.integers(1, 5))
    sql = (
        "SELECT k, COUNT(*) AS n, SUM(a) AS sa FROM t1 GROUP BY k "
        f"HAVING k >= {k_cut} AND COUNT(*) > {h} ORDER BY k"
    )
    rows = []
    for key in sorted(set(t1["k"].tolist())):
        if key < k_cut:
            continue
        mask = t1["k"] == key
        n = int(mask.sum())
        if n > h:
            rows.append({"k": int(key), "n": n,
                         "sa": int(t1["a"][mask].sum())})
    return sql, rows, True


def q_aggregate_pushdown(rng, t1, t2, t3):
    """Grouped SUM/MIN/MAX over a PK-keyed join (eager aggregation).

    COUNT is deliberately absent: the rewrite rule refuses it (grouped
    COUNT is int64 but re-aggregated partials would be float64), so a
    COUNT here would just disarm the template.
    """
    a_cut = int(rng.integers(-40, 20))
    sql = (
        "SELECT t3.k, SUM(t1.a) AS sa, MIN(t1.b) AS lo, MAX(t1.b) AS hi "
        "FROM t3 INNER JOIN t1 ON t1.k = t3.k "
        f"WHERE t1.a > {a_cut} GROUP BY t3.k ORDER BY t3.k"
    )
    rows = []
    for key in t3["k"].tolist():
        mask = (t1["k"] == key) & (t1["a"] > a_cut)
        if mask.any():
            rows.append({
                "k": int(key),
                "sa": int(t1["a"][mask].sum()),
                "lo": float(t1["b"][mask].min()),
                "hi": float(t1["b"][mask].max()),
            })
    return sql, rows, True


def q_left_join_elimination(rng, t1, t2, t3):
    """LEFT JOIN to an unreferenced PK-keyed table (join elimination)."""
    a_cut = int(rng.integers(-40, 30))
    sql = (
        "SELECT t1.id, t1.a FROM t1 LEFT JOIN t3 ON t3.k = t1.k "
        f"WHERE t1.a > {a_cut} ORDER BY t1.id"
    )
    mask = t1["a"] > a_cut
    rows = [
        {"id": int(i), "a": int(a)}
        for i, a in zip(t1["id"][mask], t1["a"][mask])
    ]
    return sql, rows, True


TEMPLATES = (
    q_filter_project,
    q_whole_table_aggregate,
    q_group_by_having,
    q_inner_join,
    q_join_aggregate,
    q_distinct,
    q_order_limit,
    q_derived_pushdown,
    q_derived_merge,
    q_in_subquery,
    q_exists_subquery,
    q_cte,
    q_constant_fold,
    q_having_on_group_key,
    q_aggregate_pushdown,
    q_left_join_elimination,
)


def q_count_distinct(t1):
    """The one fixed (non-random) query per dataset: COUNT(DISTINCT k)."""
    sql = "SELECT COUNT(DISTINCT k) AS nk, COUNT(*) AS n FROM t1"
    rows = [{"nk": len(set(t1["k"].tolist())), "n": len(t1["id"])}]
    return sql, rows, False


# ---------------------------------------------------------------------------
# the differential run
# ---------------------------------------------------------------------------


def iter_corpus(seed: int):
    """Yield every (sql, oracle_rows, ordered) triple of one dataset."""
    t1, t2, t3 = make_tables(seed)
    rng = np.random.default_rng(seed * 1000 + 7)
    for template in TEMPLATES:
        for _ in range(QUERIES_PER_TEMPLATE):
            yield template(rng, t1, t2, t3)
    yield q_count_distinct(t1)


@pytest.mark.parametrize("optimizer", OPTIMIZER_MODES)
@pytest.mark.parametrize("seed", DATASET_SEEDS)
def test_differential_queries(seed, optimizer):
    t1, t2, t3 = make_tables(seed)
    db = make_database(t1, t2, t3, optimizer=optimizer)

    ran = 0
    for sql, oracle_rows, ordered in iter_corpus(seed):
        engine_rows = db.sql(sql).rows()
        assert_rows_equal(engine_rows, oracle_rows, sql, ordered=ordered)
        ran += 1
    assert ran == 81  # 4 seeds x 81 = 324 differential queries overall


def test_corpus_size():
    """The suite really is 324 queries: 4 datasets x 81 queries each."""
    per_seed = len(TEMPLATES) * QUERIES_PER_TEMPLATE + 1
    assert per_seed == 81
    assert per_seed * len(DATASET_SEEDS) == 324


@pytest.mark.slow
@pytest.mark.parametrize("seed", DATASET_SEEDS)
def test_differential_rewrites_off_row_identity(seed):
    """The whole corpus, logical rewrites disabled.

    Every query must match both the numpy oracle and the rewrites-on
    engine's answer row for row — the rewrite pass may change plans,
    never results.
    """
    t1, t2, t3 = make_tables(seed)
    db_on = make_database(t1, t2, t3, rewrites=True)
    db_off = make_database(t1, t2, t3, rewrites=False)

    for sql, oracle_rows, ordered in iter_corpus(seed):
        rows_off = db_off.sql(sql).rows()
        assert_rows_equal(rows_off, oracle_rows, sql, ordered=ordered)
        assert_rows_equal(db_on.sql(sql).rows(), rows_off, sql,
                          ordered=ordered)


def test_rewrite_differential_smoke():
    """CI smoke subset: one draw per template, both rewrite modes.

    Fast enough to run on every push; the slow-marked test above covers
    the full corpus.  It is also the rule census: every registered
    rewrite rule must fire somewhere in it, so a rule no corpus shape
    reaches fails here instead of lingering.
    """
    seed = DATASET_SEEDS[0]
    t1, t2, t3 = make_tables(seed)
    db_on = make_database(t1, t2, t3, rewrites=True)
    db_off = make_database(t1, t2, t3, rewrites=False)
    rng = np.random.default_rng(seed * 1000 + 7)
    metrics = get_metrics()
    swallowed = metrics.counter("engine.swallowed_errors")
    swallowed_before = swallowed.value
    fired_before = {
        rule: metrics.counter(f"engine.rewrite.{rule}").value
        for rule, _ in REWRITE_RULES
    }

    ran = 0
    for template in TEMPLATES:
        for draw in range(2):
            sql, oracle_rows, ordered = template(rng, t1, t2, t3)
            rows_on = db_on.sql(sql).rows()
            assert_rows_equal(rows_on, oracle_rows, sql, ordered=ordered)
            assert_rows_equal(db_off.sql(sql).rows(), rows_on, sql,
                              ordered=ordered)
            ran += 1
    assert ran == 2 * len(TEMPLATES)
    # a clean corpus degrades nowhere: no query-path ``except`` caught
    # an exception it did not name
    assert swallowed.value == swallowed_before
    idle = [
        rule for rule, before in fired_before.items()
        if metrics.counter(f"engine.rewrite.{rule}").value == before
    ]
    assert not idle, f"rules no smoke query fires: {idle}"


@pytest.mark.parametrize("seed", DATASET_SEEDS[:2])
def test_differential_queries_with_result_cache(seed):
    """The semantic result cache must never change an answer.

    Every query runs twice against a cache-enabled database — the
    second execution is answered from the cache — and both answers are
    checked against the numpy oracle.  A third run against a cache-off
    database closes the loop: cached rows equal uncached rows.
    """
    t1, t2, t3 = make_tables(seed)
    cached_db = make_database(t1, t2, t3, result_cache=True)
    plain_db = make_database(t1, t2, t3, result_cache=False)
    rng = np.random.default_rng(seed * 1000 + 7)
    swallowed = get_metrics().counter("engine.swallowed_errors")
    swallowed_before = swallowed.value

    cache_hits = 0
    for template in TEMPLATES:
        for _ in range(QUERIES_PER_TEMPLATE):
            sql, oracle_rows, ordered = template(rng, t1, t2, t3)
            warm = cached_db.sql(sql)
            hit = cached_db.sql(sql)
            if hit.plan.startswith("[answered from cache]"):
                cache_hits += 1
            for rows in (warm.rows(), hit.rows(), plain_db.sql(sql).rows()):
                assert_rows_equal(rows, oracle_rows, sql, ordered=ordered)
    # the corpus avoids TVFs, so essentially everything is cacheable
    assert cache_hits == len(TEMPLATES) * QUERIES_PER_TEMPLATE
    # fingerprinting named every exception it caught (see the smoke)
    assert swallowed.value == swallowed_before


def dml_round(rng, round_no: int) -> list[str]:
    """One seeded round of writes that leaves every template's input
    non-empty: copies of a slice of ``t1`` (ids kept unique by a
    per-round power-of-ten offset), a nudge to ``t1.b`` on one key, a
    sliver of ``t2`` deleted and a ``t3`` weight changed."""
    return [
        f"INSERT INTO t1 SELECT id + {1000 * 10 ** round_no}, k, a, b "
        f"FROM t1 WHERE id % 7 = {int(rng.integers(0, 7))}",
        f"UPDATE t1 SET b = b + 0.5 WHERE k = {int(rng.integers(0, 8))}",
        f"DELETE FROM t2 WHERE c > {float(rng.uniform(93.0, 97.0))!r}",
        f"UPDATE t3 SET w = w * 1.5 WHERE k = {int(rng.integers(0, 8))}",
    ]


@pytest.mark.parametrize("seed", DATASET_SEEDS[:2])
def test_differential_queries_interleaved_with_dml(seed):
    """Memoized plans stay right across writes.

    A feedback-on database keeps its memoized plans through INSERT,
    UPDATE and DELETE (they change neither the catalog nor the
    statistics); a plain twin plans every statement afresh.  Both get
    the same seeded writes between passes over the corpus, and must
    answer alike on every pass.
    """
    t1, t2, t3 = make_tables(seed)
    fed = make_database(t1, t2, t3, feedback=True)
    plain = make_database(t1, t2, t3)
    rng = np.random.default_rng(seed * 1000 + 7)
    corpus = [
        template(rng, t1, t2, t3)
        for template in TEMPLATES
        for _ in range(QUERIES_PER_TEMPLATE)
    ]
    writes = np.random.default_rng(seed * 1000 + 11)
    swallowed = get_metrics().counter("engine.swallowed_errors")
    swallowed_before = swallowed.value

    for sql, oracle_rows, ordered in corpus:
        assert_rows_equal(fed.sql(sql).rows(), oracle_rows, sql,
                          ordered=ordered)
    memo = fed.feedback.memo.stats
    hits_before, misses_before = memo.hits, memo.misses
    for round_no in range(3):
        for statement in dml_round(writes, round_no):
            assert (fed.sql(statement).rows_affected
                    == plain.sql(statement).rows_affected)
        for sql, _, ordered in corpus:
            assert_rows_equal(fed.sql(sql).rows(), plain.sql(sql).rows(),
                              sql, ordered=ordered)
    # the memo served most plans across the writes (a q-error breach
    # may still retire one), and they answered right
    assert memo.hits - hits_before > memo.misses - misses_before
    assert swallowed.value == swallowed_before


def assert_rows_byte_identical(a: list[dict], b: list[dict],
                               query: str) -> None:
    """Exact equality, row order included — no isclose tolerance.

    The compiled-kernel path promises *byte* identity with the
    interpreted path: same float arithmetic in the same order, so even
    the last ulp must agree.
    """
    assert len(a) == len(b), f"row count {len(a)} != {len(b)}\n{query}"
    for row_a, row_b in zip(a, b):
        assert row_a.keys() == row_b.keys(), query
        for key in row_a:
            va, vb = row_a[key], row_b[key]
            if isinstance(va, float) and isinstance(vb, float) \
                    and np.isnan(va) and np.isnan(vb):
                continue
            assert va == vb, f"{key}: {va!r} != {vb!r}\n{query}"


#: compiled_expressions — the fused kernels and their interpreted oracle.
KERNEL_MODES = (True, False)


@pytest.mark.slow
@pytest.mark.parametrize("seed", DATASET_SEEDS)
def test_differential_compiled_modes_byte_identity(seed):
    """The whole corpus with compiled kernels on and off.

    Both corners must match the numpy oracle row for row, and the
    compiled corner must be *byte-identical* (exact equality, ordering
    included) to the interpreted baseline — fused kernels change cost,
    never answers.
    """
    t1, t2, t3 = make_tables(seed)
    compiled, interpreted = (make_database(t1, t2, t3, compiled=mode)
                             for mode in KERNEL_MODES)

    for sql, oracle_rows, ordered in iter_corpus(seed):
        baseline = interpreted.sql(sql).rows()
        assert_rows_equal(baseline, oracle_rows, sql, ordered=ordered)
        assert_rows_byte_identical(compiled.sql(sql).rows(), baseline, sql)


def test_compiled_differential_smoke():
    """CI smoke subset: two draws per template, compiled kernels on and
    off — byte identity throughout."""
    seed = DATASET_SEEDS[0]
    t1, t2, t3 = make_tables(seed)
    compiled, interpreted = (make_database(t1, t2, t3, compiled=mode)
                             for mode in KERNEL_MODES)
    rng = np.random.default_rng(seed * 1000 + 7)

    ran = 0
    for template in TEMPLATES:
        for _ in range(2):
            sql, oracle_rows, ordered = template(rng, t1, t2, t3)
            baseline = interpreted.sql(sql).rows()
            assert_rows_equal(baseline, oracle_rows, sql, ordered=ordered)
            assert_rows_byte_identical(compiled.sql(sql).rows(), baseline,
                                       sql)
            ran += 1
    assert ran == 2 * len(TEMPLATES)


def test_engine_matches_oracle_on_empty_result():
    """A predicate no row satisfies: both sides must agree on emptiness."""
    t1, t2, t3 = make_tables(5)
    db = make_database(t1, t2, t3)
    rows = db.sql("SELECT id, b FROM t1 WHERE a > 1000").rows()
    assert rows == []
