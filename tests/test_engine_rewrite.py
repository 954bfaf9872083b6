"""Metamorphic and integration tests for the logical rewrite pass.

The metamorphic idea: wrap a query in a transformation that *provably*
changes nothing — a tautological conjunct, a no-op view or CTE shell, a
double negation — and demand the answer stays **byte-identical** (same
dtypes, same values, same order) while EXPLAIN names the rule that
unwrapped it.  Unlike the differential suite (engine vs numpy oracle),
these tests compare the engine against itself, so they catch rewrite
bugs that an approximate row comparison would forgive.

Also covered here: the result-cache interaction (a statement and its
rewrite-equivalent share one entry; rewrites-off never cross-serves a
rewrites-on entry), the ``engine.rewrite.*`` metrics, fixpoint
idempotence (the property the cache fingerprint relies on), and the
``--rewrites`` CLI plumbing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.expressions import Between, BinaryOp, InList, Literal, UnaryOp
from repro.engine.optimizer.rewrite import REWRITE_RULES, rewrite_statement
from repro.engine.sql.ast import SelectItem
from repro.engine.sql.parser import parse
from repro.obs.metrics import get_metrics


def build_db(rewrites: bool = True, result_cache: bool = False) -> Database:
    db = Database(
        "rw" if rewrites else "rw_off",
        config=EngineConfig(rewrites=rewrites, result_cache=result_cache),
    )
    rng = np.random.default_rng(404)
    n = 300
    db.create_table("t1", {
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 12, n).astype(np.int64),
        "a": rng.integers(-50, 50, n).astype(np.int64),
        "b": rng.uniform(-10.0, 10.0, n),
    }, primary_key="id")
    db.create_table("t2", {
        "k": rng.integers(0, 12, 80).astype(np.int64),
        "c": rng.uniform(0.0, 100.0, 80),
    })
    db.create_table("t3", {
        "k": np.arange(12, dtype=np.int64),
        "w": rng.uniform(1.0, 5.0, 12),
    }, primary_key="k")
    db.sql("CREATE VIEW v1 AS SELECT id, k, a, b FROM t1")
    db.sql("ANALYZE")
    return db


def assert_byte_identical(left, right, context: str) -> None:
    """Same column names, dtypes, values and row order — no tolerance."""
    assert list(left.columns) == list(right.columns), context
    for name in left.columns:
        lhs, rhs = np.asarray(left.columns[name]), np.asarray(right.columns[name])
        assert lhs.dtype == rhs.dtype, f"{context}: dtype of '{name}'"
        assert np.array_equal(lhs, rhs), f"{context}: values of '{name}'"


def fired_rules(plan_text: str) -> list[str]:
    return [
        line.split(":", 1)[0].removeprefix("Rewrite ").strip()
        for line in plan_text.splitlines()
        if line.startswith("Rewrite ")
    ]


# ---------------------------------------------------------------------------
# metamorphic: no-op transformations must not change a byte
# ---------------------------------------------------------------------------

BASE = "SELECT id, a, b FROM t1 WHERE a > 5 ORDER BY id"

#: wrap -> (no-op variant, rule expected to unwrap it)
METAMORPHS = {
    "constant_folding": (
        "SELECT id, a, b FROM t1 WHERE a > 5 AND 1 = 1 ORDER BY id",
        "simplify_expressions"),
    "double_negation_elimination": (
        "SELECT id, a, b FROM t1 WHERE NOT (NOT (a > 5)) ORDER BY id",
        "simplify_expressions"),
    "cte_inline": (
        "WITH w AS (SELECT id, a, b FROM t1) "
        "SELECT id, a, b FROM w WHERE a > 5 ORDER BY id",
        "inline_ctes_and_views"),
    "predicate_pushdown": (
        "SELECT * FROM (SELECT id, a, b FROM t1) d WHERE d.a > 5 ORDER BY id",
        "predicate_pushdown"),
}


@pytest.mark.parametrize("variant,rule", METAMORPHS.values(),
                         ids=METAMORPHS)
def test_metamorphic_noop_wrap_is_byte_identical(variant, rule):
    # each spelling on its own database: rewrite-equivalent spellings
    # share one fingerprint, so on one database the variant would hit
    # the base's memoized plan, whose text carries the base's trace
    base, wrapped = build_db().sql(BASE), build_db().sql(variant)
    assert_byte_identical(wrapped, base, variant)
    assert rule in fired_rules(wrapped.plan), (
        f"expected {rule} in\n{wrapped.plan}"
    )


def test_metamorphic_noop_view_wrap():
    """A view that just re-selects the table is planned away."""
    db = build_db()  # v1 is the no-op re-select view from build_db
    base = db.sql(BASE)
    wrapped = db.sql("SELECT id, a, b FROM v1 WHERE a > 5 ORDER BY id")
    assert_byte_identical(wrapped, base, "view wrap")
    assert "inline_ctes_and_views" in fired_rules(wrapped.plan)


def test_metamorphic_rewritten_results_match_rewrites_off():
    """Every metamorphic variant, both engines: identical bytes."""
    db_on, db_off = build_db(True), build_db(False)
    for variant, _ in METAMORPHS.values():
        assert_byte_identical(db_on.sql(variant), db_off.sql(variant),
                              variant)
        assert not fired_rules(db_off.sql(variant).plan)


# ---------------------------------------------------------------------------
# every rule observable through EXPLAIN, results checked against off-mode
# ---------------------------------------------------------------------------

#: Queries that make each rule fire (keys are the registered names),
#: each named for the shape it unwraps.
RULE_QUERIES = {
    "simplify_expressions": {
        "constant_folding":
            "SELECT id FROM t1 WHERE 2 + 2 = 4 AND a > 0 ORDER BY id",
        "tautology_elimination":
            "SELECT id FROM t1 WHERE 1 = 1 ORDER BY id",
        "double_negation_elimination":
            "SELECT id FROM t1 WHERE NOT (NOT (a > 0)) ORDER BY id",
    },
    "inline_ctes_and_views": {
        "cte_inline":
            "WITH f AS (SELECT id, a FROM t1 WHERE a > 0) "
            "SELECT id FROM f ORDER BY id",
        "view_inline":
            "SELECT id, a FROM v1 WHERE a > 0 ORDER BY id",
    },
    "filter_before_aggregate": {
        "filter_before_aggregate":
            "SELECT k, COUNT(*) AS n FROM t1 GROUP BY k "
            "HAVING k > 3 AND COUNT(*) > 1 ORDER BY k",
        "empty_after_filter":
            "SELECT k, COUNT(*) AS n FROM t1 GROUP BY k HAVING k > 100",
    },
    "redundant_join_elimination": {
        "redundant_join_elimination":
            "SELECT t1.id FROM t1 LEFT JOIN t3 ON t3.k = t1.k "
            "ORDER BY t1.id",
    },
    "derived_table_merge": {
        "derived_table_merge":
            "SELECT d.id, d.s FROM (SELECT id, a + k AS s FROM t1 "
            "WHERE a > 0) d WHERE d.s > 3 ORDER BY d.id",
    },
    "predicate_pushdown": {
        "predicate_pushdown":
            "SELECT * FROM (SELECT id, a FROM t1) d WHERE d.a > 7 "
            "ORDER BY id",
    },
    "aggregate_pushdown": {
        "aggregate_pushdown":
            "SELECT t3.k, SUM(t1.a) AS sa, MAX(t1.b) AS hi FROM t3 "
            "INNER JOIN t1 ON t1.k = t3.k GROUP BY t3.k ORDER BY t3.k",
    },
}

#: (rule, sql) per query shape, with the shape as the test id
RULE_CASES = [
    pytest.param(rule, sql, id=shape)
    for rule, shapes in RULE_QUERIES.items()
    for shape, sql in sorted(shapes.items())
]
RULE_SQL = [sql for shapes in RULE_QUERIES.values() for sql in shapes.values()]


def test_rule_query_map_is_exhaustive():
    """Every registered rule has a query pinning it (and vice versa)."""
    registered = {name for name, _ in REWRITE_RULES}
    assert registered == set(RULE_QUERIES)
    assert len(REWRITE_RULES) == 7


@pytest.mark.parametrize("rule,sql", RULE_CASES)
def test_each_rule_fires_and_preserves_results(rule, sql):
    db_on, db_off = build_db(True), build_db(False)
    on, off = db_on.sql(sql), db_off.sql(sql)
    assert rule in fired_rules(on.plan), f"{rule} absent from\n{on.plan}"
    assert not fired_rules(off.plan)
    assert_byte_identical(on, off, sql)


def test_explain_lists_every_fired_rule_with_estimates():
    """EXPLAIN leads with one 'Rewrite <rule>: ...' line per firing."""
    db = build_db()
    sql = ("WITH f AS (SELECT id, a, b FROM t1 WHERE a > 0) "
           "SELECT id FROM f WHERE b > 1 AND 1 = 1 ORDER BY id")
    plan = db.explain(sql)
    rules = fired_rules(plan)
    assert rules == ["simplify_expressions", "inline_ctes_and_views",
                     "derived_table_merge"]
    # trace lines come first, carry the cost-model estimates, and the
    # physical plan follows
    lines = plan.splitlines()
    assert lines[0].startswith("Rewrite ")
    assert any("est_rows" in line and "cost" in line for line in lines
               if line.startswith("Rewrite "))
    assert any(not line.startswith("Rewrite ") for line in lines)


def test_explain_analyze_reports_rewrite_trace():
    db = build_db()
    report = db.explain_analyze(
        "SELECT id FROM t1 WHERE 1 = 1 AND a > 0 ORDER BY id"
    )
    assert any(line.startswith("Rewrite simplify_expressions")
               for line in report.render().splitlines())
    assert report.rewrite_trace


@pytest.mark.parametrize("sql", (
    "SELECT * FROM (SELECT id, a, b FROM t1) d "
    "WHERE d.id BETWEEN 100 AND 109 ORDER BY id",
    "WITH f AS (SELECT id, b FROM t1) "
    "SELECT id, b FROM f WHERE id BETWEEN 200 AND 204 ORDER BY id",
), ids=("derived_table", "cte"))
def test_pushdown_touches_at_least_2x_fewer_rows(sql):
    """Rows summed over every operator: the selective range filters
    below the derived-table shell instead of after it."""
    on = build_db(True).explain_analyze(sql)
    off = build_db(False).explain_analyze(sql)
    assert 2 * sum(n.rows for n in on.nodes) <= sum(n.rows for n in off.nodes)
    assert on.row_count == off.row_count > 0


def test_rewrites_off_plans_carry_no_trace():
    db = build_db(False)
    for sql in RULE_SQL:
        assert not fired_rules(db.explain(sql))


# ---------------------------------------------------------------------------
# fixpoint idempotence: the property the cache fingerprint stands on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule,sql", RULE_CASES)
def test_rewrite_is_idempotent(rule, sql):
    """Rewriting a rewritten statement fires nothing further."""
    db = build_db()
    stmt = parse(sql)
    once, firings = rewrite_statement(stmt, db, price=False)
    assert firings, f"{rule} query should fire at least one rule"
    twice, again = rewrite_statement(once, db, price=False)
    assert not again, f"not a fixpoint: {[f.rule for f in again]}"
    assert twice is once


#: The SELECT shapes of the end-to-end benchmark's CasJobs workload
#: (cone, colour count, histogram, colour cut) and its DML workload's
#: point lookup and join: statements no rule applies to.
E2E_SHAPES = {
    "cone": "SELECT objid, ra, dec FROM galaxy "
            "WHERE zoneid BETWEEN 5 AND 29 AND ra BETWEEN 180.1 AND 180.4",
    "count": "SELECT COUNT(*) AS c FROM galaxy WHERE i < 19.5 AND gr > 0.8",
    "histogram": "SELECT FLOOR(i) AS ibin, COUNT(*) AS n, AVG(gr) AS mean_gr "
                 "FROM galaxy WHERE ri > 0.3 GROUP BY FLOOR(i) ORDER BY ibin",
    "colour_cut": "SELECT objid, ra, dec, i FROM galaxy "
                  "WHERE gr BETWEEN 1.1 AND 1.12 AND ri BETWEEN 0.4 AND 0.6 "
                  "ORDER BY i",
    "point": "SELECT objid, ra, dec, i FROM galaxy WHERE objid = 17",
    "join": "SELECT g.objid AS objid, g.i AS i, c.ngal AS ngal "
            "FROM galaxy g JOIN candidates c ON g.objid = c.objid "
            "WHERE c.ngal > 5 AND g.i < 18.0",
}


@pytest.mark.parametrize("sql", E2E_SHAPES.values(), ids=E2E_SHAPES)
def test_a_statement_no_rule_applies_to_comes_back_as_itself(sql):
    db = Database("e2e_shapes")
    n = 50
    db.create_table("galaxy", {
        name: np.linspace(0.0, 25.0, n)
        for name in ("ra", "dec", "i", "gr", "ri")
    } | {
        "objid": np.arange(n, dtype=np.int64),
        "zoneid": np.arange(n, dtype=np.int64) // 5,
    }, primary_key="objid")
    db.create_table("candidates", {
        "objid": np.arange(0, n, 2, dtype=np.int64),
        "ngal": np.arange(0, n, 2, dtype=np.int64),
    }, primary_key="objid")
    stmt = parse(sql)
    rewritten, firings = rewrite_statement(stmt, db, price=False)
    assert rewritten is stmt
    assert firings == ()


def test_priced_and_unpriced_paths_agree():
    """price=True (planner) and price=False (cache key) must produce the
    byte-identical statement, or the cache would fragment."""
    db = build_db()
    for sql in RULE_SQL:
        stmt = parse(sql)
        priced, _ = rewrite_statement(stmt, db, price=True)
        unpriced, _ = rewrite_statement(stmt, db, price=False)
        assert priced == unpriced, sql


# ---------------------------------------------------------------------------
# result-cache interaction
# ---------------------------------------------------------------------------


def test_statement_and_rewritten_form_share_cache_entry():
    """A query and its rewrite-equivalent spelling hit the same entry."""
    db = build_db(result_cache=True)
    plain = "SELECT id, a FROM t1 WHERE a > 5 ORDER BY id"
    spelled = "SELECT id, a FROM t1 WHERE a > 5 AND 1 = 1 ORDER BY id"
    first = db.sql(plain)
    assert len(db.result_cache) == 1
    second = db.sql(spelled)
    assert second.plan.startswith("[answered from cache]"), second.plan
    assert len(db.result_cache) == 1  # no second entry
    assert_byte_identical(second, first, spelled)


def test_rewrites_off_never_cross_serves_cached_entry():
    """The +rewrite mode tag keeps on/off cache populations disjoint."""
    db = build_db(result_cache=True)
    sql = "SELECT id, a FROM t1 WHERE a > 5 ORDER BY id"
    db.sql(sql)
    assert len(db.result_cache) == 1
    db.config = db.config.replace(rewrites=False)
    miss = db.sql(sql)
    assert not miss.plan.startswith("[answered from cache]")
    assert len(db.result_cache) == 2  # distinct entry per mode
    db.config = db.config.replace(rewrites=True)
    hit = db.sql(sql)
    assert hit.plan.startswith("[answered from cache]")


def test_cache_invalidation_covers_subquery_tables():
    """DML on a table read only inside IN (SELECT ...) must invalidate."""
    db = build_db(result_cache=True)
    sql = ("SELECT id FROM t1 WHERE k IN (SELECT k FROM t2 WHERE c > 101) "
           "ORDER BY id")
    assert db.sql(sql).row_count == 0
    db.sql("INSERT INTO t2 (k, c) VALUES (3, 102.0)")
    after = db.sql(sql)
    assert not after.plan.startswith("[answered from cache]")
    assert after.row_count > 0


# ---------------------------------------------------------------------------
# constant folding computes with the engine, so it answers as the engine
# ---------------------------------------------------------------------------

#: 2**53 + 1 has no float64: numpy compares it with 2**53 as equal,
#: exact Python integer arithmetic does not
BIG = 9007199254740993
#: bigint's minimum parses as -(2**63), and 2**63 is past int64
INT64_MIN_SQL = "-9223372036854775808"

FOLD_PROBES = (
    f"{BIG} = 9007199254740992.0",
    f"{BIG} > 9007199254740992.0",
    f"{BIG} IN (9007199254740992.0)",
    f"{BIG} BETWEEN 9007199254740992.0 AND 9007199254740992.0",
    f"{INT64_MIN_SQL} < -9223372036854775807",
)

#: every ordered pair of these meets an int that float64 cannot hold
EDGE_VALUES = (
    BIG, 9007199254740992.0, -BIG, -9007199254740992.0,
    2 ** 62 - 1, 4611686018427387904.0, -(2 ** 62 - 1), -4611686018427387904.0,
)
FOLD_VALUES = EDGE_VALUES + (
    2 ** 53, 2 ** 62, 2 ** 63, -(2 ** 63), 3, 0, 2.5, -0.0, 0.0, float("nan"),
    True, False, "a", "b",
)
FOLD_BINARY_OPS = ("+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=")


def one_row_dbs() -> tuple[Database, Database]:
    """The same one-row table with rewrites on and off."""
    dbs = []
    for rewrites in (True, False):
        db = Database("fold", config=EngineConfig(rewrites=rewrites))
        db.create_table("one", {"x": np.array([7], dtype=np.int64)})
        dbs.append(db)
    return dbs[0], dbs[1]


def answer_bytes(db: Database, stmt) -> object:
    """Column names, dtypes and raw bytes of a statement's answer, or the
    error type it raised — both modes must fail alike, too."""
    try:
        result = db._run_statement(stmt, str(stmt))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__
    return [(name, np.asarray(arr).dtype.str, np.asarray(arr).tobytes())
            for name, arr in result.columns.items()]


def fold_sweep(seed: int, per_op: int):
    """Every foldable operator over every ordered pair of edge values,
    then over ``per_op`` seeded draws from the whole value pool."""
    rng = np.random.default_rng(seed)

    def pick() -> Literal:
        return Literal(FOLD_VALUES[int(rng.integers(len(FOLD_VALUES)))])

    edges = [(Literal(a), Literal(b)) for a in EDGE_VALUES for b in EDGE_VALUES]
    for op in FOLD_BINARY_OPS:
        for left, right in edges + [(pick(), pick()) for _ in range(per_op)]:
            yield BinaryOp(op, left, right)
    for value, bound in edges:
        yield Between(value, bound, bound)
        yield InList(value, (bound,))
    for _ in range(per_op):
        yield UnaryOp("-", pick())
        yield UnaryOp("NOT", pick())
        yield Between(pick(), pick(), pick())
        yield InList(pick(), (pick(), pick()))


@pytest.mark.parametrize("predicate", FOLD_PROBES)
def test_folded_probe_answers_as_the_evaluator(predicate):
    on, off = one_row_dbs()
    where = f"SELECT x FROM one WHERE {predicate}"
    assert "Rewrite simplify_expressions" in on.explain(where)
    for sql in (where, f"SELECT {predicate} AS p",
                f"SELECT {predicate} AS p FROM one"):
        stmt = parse(sql)
        assert answer_bytes(on, stmt) == answer_bytes(off, stmt), sql


def test_folder_sweep_answers_as_the_evaluator():
    on, off = one_row_dbs()
    constant = parse("SELECT 0 AS v")
    scan = parse("SELECT x FROM one")
    folded = 0
    for expr in fold_sweep(seed=2005, per_op=20):
        for stmt in (
            dataclasses.replace(constant, items=(SelectItem(expr, "v"),)),
            dataclasses.replace(scan, where=expr),
        ):
            assert answer_bytes(on, stmt) == answer_bytes(off, stmt), expr
        rewritten, _ = rewrite_statement(
            dataclasses.replace(constant, items=(SelectItem(expr, "v"),)), on
        )
        folded += isinstance(rewritten.items[0].expr, Literal)
    assert folded > 900  # the sweep exercises folding, not just refusals


def test_int64_min_literal_is_int64_min_in_every_mode():
    on, off = one_row_dbs()
    seek = f"SELECT x FROM edge WHERE x = {INT64_MIN_SQL}"
    for db in (on, off):
        db.create_table("edge", {"x": np.array([-2 ** 63, 7], dtype=np.int64)})
        db.create_clustered_index("edge", "x")
        assert "IndexRangeScan" in db.explain(seek)
    checks = {
        f"SELECT {INT64_MIN_SQL} AS v": [-2 ** 63],
        f"SELECT x FROM edge WHERE x > {INT64_MIN_SQL}": [7],
        seek: [-2 ** 63],
        f"SELECT x FROM edge WHERE x BETWEEN {INT64_MIN_SQL} AND 0": [-2 ** 63],
        f"SELECT -({INT64_MIN_SQL}) AS v": [-2 ** 63],  # int64 wraps, alike
    }
    for db in (on, off):
        for sql, expected in checks.items():
            (column,) = db.sql(sql).columns.values()
            assert column.dtype == np.int64 and column.tolist() == expected, sql


# ---------------------------------------------------------------------------
# metrics and config plumbing
# ---------------------------------------------------------------------------


def test_rewrite_metrics_count_firings():
    db = build_db()
    counter = get_metrics().counter("engine.rewrite.derived_table_merge")
    before = counter.value
    db.sql(RULE_QUERIES["derived_table_merge"]["derived_table_merge"])
    assert counter.value == before + 1


def test_engine_config_controls_rewrites():
    assert EngineConfig().rewrites is True
    assert Database("a", config=EngineConfig()).config.rewrites
    assert not Database(
        "b", config=EngineConfig(rewrites=False)).config.rewrites


def test_cli_rewrites_flag():
    from repro.cli import _build_parser, _engine_config

    parser = _build_parser()
    on = parser.parse_args(["sql", "-e", "SELECT 1"])
    off = parser.parse_args(["sql", "-e", "SELECT 1", "--no-rewrites"])
    assert _engine_config(on).rewrites is True
    assert _engine_config(off).rewrites is False
