"""IN / EXISTS subqueries as plan operators: the semi-, anti- and mark
joins of :class:`~repro.engine.join.SemiJoin`.

The operator is checked on hand-made batches (NULL and mixed-type keys,
composite keys, the zero-key EXISTS), the planner's placement through
EXPLAIN and EXPLAIN ANALYZE, the answers against stdlib ``sqlite3`` on
NULL-free data and against explicit sets where NaN or a type mismatch
is involved — each with the logical rewrites on and off, which plan a
subquery the same way.  Plan identity is checked too: a subquery's body
is an ordinary child, so ``plan_structure`` names its tables and a pin
re-establishes after a restore.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.expressions import ColumnRef
from repro.engine.join import SemiJoin
from repro.engine.operators import Filter, Materialized, plan_nodes
from repro.engine.optimizer.planforce import plan_structure
from repro.engine.storage import load_database, save_database

PROBE = ("SELECT COUNT(*) AS n FROM a "
         "WHERE v = 3 OR k IN (SELECT k FROM b WHERE w = 1)")


def tables(seed: int = 7) -> dict[str, dict[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return {
        "a": {
            "id": np.arange(300, dtype=np.int64),
            "k": rng.integers(0, 40, 300).astype(np.int64),
            "j": rng.integers(0, 4, 300).astype(np.int64),
            "v": rng.integers(0, 10, 300).astype(np.int64),
        },
        "b": {
            "k": rng.integers(0, 40, 60).astype(np.int64),
            "j": rng.integers(0, 4, 60).astype(np.int64),
            "w": rng.integers(0, 3, 60).astype(np.int64),
        },
    }


def build_db(rewrites: bool = True, **knobs) -> Database:
    db = Database("semi", config=EngineConfig(rewrites=rewrites, **knobs))
    data = tables()
    db.create_table("a", data["a"], primary_key="id")
    db.create_table("b", data["b"])
    db.sql("ANALYZE")
    return db


def sqlite_rows(sql: str) -> list[tuple]:
    con = sqlite3.connect(":memory:")
    for name, columns in tables().items():
        names = list(columns)
        con.execute(f"CREATE TABLE {name} ({', '.join(names)})")
        con.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(names))})",
            zip(*[columns[c].tolist() for c in names]),
        )
    return sorted(con.execute(sql).fetchall())


def engine_rows(db: Database, sql: str) -> list[tuple]:
    result = db.sql(sql)
    return sorted(zip(*[result.columns[c].tolist() for c in result.columns]))


def semi(outer: dict, inner: dict, keys: tuple[str, ...], kind="semi"):
    return SemiJoin(
        Materialized(outer), Materialized(inner),
        tuple(ColumnRef(k, "o") for k in keys),
        tuple(ColumnRef(k, "i") for k in keys),
        kind, "__mark0" if kind == "mark" else None,
    )


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------


class TestOperator:
    def test_semi_anti_and_mark_split_the_outer_rows(self):
        outer = {"o.k": np.array([3, 1, 4, 1, 5], dtype=np.int64)}
        inner = {"i.k": np.array([1, 5, 9, 1], dtype=np.int64)}
        kept = semi(outer, inner, ("k",)).execute()
        dropped = semi(outer, inner, ("k",), "anti").execute()
        marked = semi(outer, inner, ("k",), "mark").execute()
        assert kept["o.k"].tolist() == [1, 1, 5]
        assert dropped["o.k"].tolist() == [3, 4]
        assert marked["o.k"].tolist() == outer["o.k"].tolist()
        assert marked["__mark0"].tolist() == [False, True, False, True, True]

    def test_nan_and_none_keys_never_match(self):
        outer = {"o.k": np.array([1.0, np.nan, 2.0])}
        inner = {"i.k": np.array([np.nan, 2.0])}
        assert semi(outer, inner, ("k",), "mark").execute()["__mark0"] \
            .tolist() == [False, False, True]
        names = {"o.k": np.array(["x", None, "y"], dtype=object)}
        found = {"i.k": np.array([None, "y", "z"], dtype=object)}
        assert semi(names, found, ("k",), "mark").execute()["__mark0"] \
            .tolist() == [False, False, True]

    def test_a_string_never_equals_a_number(self):
        outer = {"o.k": np.array([1, 2], dtype=np.int64)}
        inner = {"i.k": np.array(["1", "2"], dtype=object)}
        assert semi(outer, inner, ("k",)).execute()["o.k"].size == 0
        assert semi(inner | {"o.k": inner["i.k"]}, outer | {"i.k": outer["o.k"]},
                    ("k",)).execute()["o.k"].size == 0

    def test_composite_keys_match_whole_tuples(self):
        outer = {"o.k": np.array([1, 1, 2, 2], dtype=np.int64),
                 "o.s": np.array(["p", "q", "p", None], dtype=object)}
        inner = {"i.k": np.array([1, 2, 2], dtype=np.int64),
                 "i.s": np.array(["q", "p", None], dtype=object)}
        marked = semi(outer, inner, ("k", "s"), "mark").execute()
        assert marked["__mark0"].tolist() == [False, True, True, False]
        nulls = {"o.k": np.full(2, np.nan), "o.s": np.array(["p", "q"])}
        none = {"i.k": np.zeros(0), "i.s": np.array([], dtype=object)}
        assert semi(nulls, none, ("k", "s"), "anti").execute()["o.k"].size == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_marks_equal_the_row_by_row_loop(self, seed):
        """The reference: a Python set of the inner key tuples, probed
        row by row, a NULL anywhere in a tuple matching nothing."""
        rng = np.random.default_rng(seed)

        def keys(prefix: str, n: int) -> dict:
            number = rng.integers(0, 6, n).astype(np.float64)
            number[rng.random(n) < 0.1] = np.nan
            text = np.array(rng.choice(["p", "q", "r", None], n), dtype=object)
            return {f"{prefix}.k": number, f"{prefix}.s": text}

        def null(value) -> bool:
            return value is None or (isinstance(value, float) and np.isnan(value))

        outer, inner = keys("o", 300), keys("i", 40)
        for names in (("k",), ("s",), ("k", "s")):
            rows = {
                key for key in zip(*[inner[f"i.{n}"].tolist() for n in names])
                if not any(map(null, key))
            }
            expected = [
                not any(map(null, key)) and key in rows
                for key in zip(*[outer[f"o.{n}"].tolist() for n in names])
            ]
            marked = semi(outer, inner, names, "mark").execute()
            assert marked["__mark0"].tolist() == expected, names

    def test_zero_keys_test_whether_the_inner_is_non_empty(self):
        outer = {"o.k": np.arange(3)}
        empty = {"i.k": np.zeros(0)}
        assert semi(outer, {"i.k": np.ones(1)}, ()).execute()["o.k"].size == 3
        assert semi(outer, empty, ()).execute()["o.k"].size == 0
        assert semi(outer, empty, (), "anti").execute()["o.k"].size == 3

    def test_an_empty_outer_leaves_the_inner_unexecuted(self):
        class Exploding(Materialized):
            def _execute(self):
                raise AssertionError("inner executed")

        join = SemiJoin(Materialized({"o.k": np.zeros(0)}),
                        Exploding({}), (ColumnRef("k", "o"),),
                        (ColumnRef("k", "i"),), "mark", "__mark0")
        assert join.execute()["__mark0"].dtype == bool


# ---------------------------------------------------------------------------
# planning: where the operator goes, and what EXPLAIN shows of the body
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_in_subquery_is_one_semi_join_in_both_rewrite_modes(self):
        """The former decorrelation rule's query: one plan, one answer."""
        from tests.test_engine_rewrite import assert_byte_identical
        from tests.test_engine_rewrite import build_db as build_rewrite_db

        sql = ("SELECT id FROM t1 WHERE k IN (SELECT k FROM t2 WHERE c > 50) "
               "ORDER BY id")
        on, off = build_rewrite_db(True), build_rewrite_db(False)
        assert on.explain(sql) == off.explain(sql)
        plan = on.explain(sql)
        assert "SemiJoin(semi, k = k)" in plan and "Rewrite " not in plan
        semi_line = next(l for l in plan.splitlines() if "SemiJoin" in l)
        indent = len(semi_line) - len(semi_line.lstrip())
        children = [l.strip() for l in plan.splitlines()
                    if len(l) - len(l.lstrip()) == indent + 2]
        assert children[0].startswith("SeqScan(t1")
        assert children[1].startswith("Project(k)")
        assert_byte_identical(on.sql(sql), off.sql(sql), sql)

    def test_or_takes_a_mark_join_under_a_filter(self):
        plan = build_db().sql(PROBE).plan_node
        (join,) = [n for n in plan_nodes(plan) if isinstance(n, SemiJoin)]
        assert join.kind == "mark" and join.mark == "__mark0"
        (parent,) = [n for n in plan_nodes(plan)
                     if isinstance(n, Filter) and n.child is join]
        assert str(parent.predicate) == "((v = 3) OR __mark0)"

    @pytest.mark.parametrize("sql,kind", [
        ("SELECT id FROM a WHERE k NOT IN (SELECT k FROM b)", "anti"),
        ("SELECT id FROM a WHERE NOT EXISTS "
         "(SELECT 1 FROM b WHERE b.k = a.k)", "anti"),
        ("SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE w = 2)",
         "semi"),
        ("SELECT id FROM a WHERE CASE WHEN k IN (SELECT k FROM b) "
         "THEN 1 ELSE 0 END = 1", "mark"),
    ])
    def test_kind_follows_the_conjunct(self, sql, kind):
        plan = build_db().sql(sql).plan_node
        assert [n.kind for n in plan_nodes(plan)
                if isinstance(n, SemiJoin)] == [kind]

    def test_explain_analyze_shows_the_body_with_actual_rows(self):
        db = build_db()
        report = db.explain_analyze(PROBE)
        text = report.render()
        data = tables()
        expected_inner = int((data["b"]["w"] == 1).sum())
        assert report.node("SemiJoin(mark").rows == 300
        assert report.node("Filter((w = 1))").rows == expected_inner
        assert report.node("SeqScan(b AS b)").rows == 60
        assert "Project(k)" in text
        assert report.max_q_error < 8.0

    @pytest.mark.parametrize("sql", [
        "SELECT id FROM a WHERE EXISTS "
        "(SELECT 1 FROM b WHERE b.k = a.k AND b.w = 1)",
        # both keys spell ``k``: each resolves on its own side
        "SELECT id FROM a WHERE k IN (SELECT k FROM b WHERE w = 1)",
    ], ids=["correlated", "bare_keys"])
    def test_semi_join_estimate_reads_both_sides_statistics(self, sql):
        node = build_db().explain_analyze(sql).node("SemiJoin(semi")
        assert node.q_error is not None and node.q_error < 2.0


# ---------------------------------------------------------------------------
# answers: sqlite3 on NULL-free data, explicit sets elsewhere
# ---------------------------------------------------------------------------

SQLITE_CASES = {
    # HAVING subqueries failed at the parent in both rewrite modes:
    # the HAVING mapping never reached the subquery's outer keys
    "having_in_group_key":
        "SELECT k, COUNT(*) AS n FROM a GROUP BY k "
        "HAVING k IN (SELECT k FROM b WHERE w = 1)",
    "having_in_aggregate":
        "SELECT k, COUNT(*) AS n FROM a GROUP BY k "
        "HAVING COUNT(*) IN (SELECT k FROM b)",
    "having_correlated_exists_under_or":
        "SELECT a.k, COUNT(*) AS n FROM a GROUP BY a.k HAVING COUNT(*) > 12 "
        "OR EXISTS (SELECT 1 FROM b WHERE b.w = 2 AND b.k = a.k)",
    "probe": PROBE,
    "not_in": "SELECT id, k FROM a WHERE k NOT IN "
              "(SELECT k FROM b WHERE w = 1)",
    "composite_exists": "SELECT id FROM a WHERE EXISTS "
                        "(SELECT 1 FROM b WHERE b.k = a.k AND b.j = a.j)",
    "composite_exists_under_or":
        "SELECT id FROM a WHERE v = 3 OR EXISTS "
        "(SELECT 1 FROM b WHERE b.k = a.k AND b.j = a.j)",
    "composite_not_exists": "SELECT id FROM a WHERE NOT EXISTS "
                            "(SELECT 1 FROM b WHERE b.k = a.k AND b.j = a.j)",
    "correlated_in": "SELECT id FROM a WHERE k IN "
                     "(SELECT b.k FROM b WHERE b.j = a.j)",
    "uncorrelated_exists_join":
        "SELECT a.id, b.w FROM a JOIN b ON a.k = b.k "
        "WHERE EXISTS (SELECT 1 FROM b WHERE w = 2)",
}


@pytest.mark.parametrize("rewrites", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", sorted(SQLITE_CASES))
def test_answers_match_sqlite(name, rewrites):
    sql = SQLITE_CASES[name]
    expected = sqlite_rows(sql)
    assert expected, "a case must select something"
    assert engine_rows(build_db(rewrites), sql) == expected


def nan_db(rewrites: bool) -> Database:
    db = Database("nan", config=EngineConfig(rewrites=rewrites))
    db.create_table("a", {
        "id": np.arange(5, dtype=np.int64),
        "x": np.array([1.0, np.nan, 2.0, 3.0, 2.0]),
        "n": np.array([1, 2, 3, 4, 5], dtype=np.int64),
        "t": np.array(["x", None, "y", "z", None], dtype=object),
    }, primary_key="id")
    db.create_table("b", {
        "x": np.array([np.nan, 2.0, 5.0]),
        "s": np.array(["1", "2", "3"], dtype=object),
        "t": np.array([None, "y", "w"], dtype=object),
    })
    return db


@pytest.mark.parametrize("rewrites", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("sql,ids", [
    # a NaN key matches nothing, on either side: IN keeps only real
    # matches, NOT IN keeps the NaN row (NULL-aware NOT IN waits for
    # three-valued logic)
    ("SELECT id FROM a WHERE x IN (SELECT x FROM b)", [2, 4]),
    ("SELECT id FROM a WHERE x NOT IN (SELECT x FROM b)", [0, 1, 3]),
    ("SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.x = a.x)",
     [2, 4]),
    # a string never equals an integer, whatever it spells
    ("SELECT id FROM a WHERE n IN (SELECT s FROM b)", []),
    ("SELECT id FROM a WHERE n NOT IN (SELECT s FROM b)", [0, 1, 2, 3, 4]),
    # a None string is NULL too (the parent raised TypeError sorting it
    # among strings)
    ("SELECT id FROM a WHERE t IN (SELECT t FROM b)", [2]),
    ("SELECT id FROM a WHERE t NOT IN (SELECT t FROM b)", [0, 1, 3, 4]),
    ("SELECT id FROM a WHERE EXISTS "
     "(SELECT 1 FROM b WHERE b.t = a.t AND b.x = a.x)", [2]),
], ids=["nan_in", "nan_not_in", "nan_exists", "mismatch_in",
        "mismatch_not_in", "none_in", "none_not_in", "none_composite"])
def test_null_and_mismatched_keys(sql, ids, rewrites):
    result = nan_db(rewrites).sql(sql + " ORDER BY id")
    assert result.columns["id"].tolist() == ids


# ---------------------------------------------------------------------------
# plan identity: the body is a child, so tables tokenize by name
# ---------------------------------------------------------------------------


def _has_subquery(sql: str) -> bool:
    return sql.upper().count("SELECT") > 1 and (
        "IN (SELECT" in sql.upper() or "EXISTS" in sql.upper()
    )


@pytest.mark.parametrize("rewrites", [True, False], ids=["on", "off"])
def test_subquery_plans_have_one_structure_across_databases(rewrites):
    from tests.test_differential_sql import (
        DATASET_SEEDS,
        iter_corpus,
        make_database,
        make_tables,
    )
    from tests.test_golden_plans import GOLDEN_QUERIES
    from tests.test_golden_plans import build_db as build_golden_db

    seed = DATASET_SEEDS[0]
    twins = [
        make_database(*make_tables(seed), rewrites=rewrites) for _ in range(2)
    ]
    queries = [
        (twins, sql) for sql, _, _ in iter_corpus(seed) if _has_subquery(sql)
    ]
    golden = [build_golden_db(rewrites) for _ in range(2)]
    queries += [
        (golden, sql) for sql in GOLDEN_QUERIES.values() if _has_subquery(sql)
    ]
    assert len(queries) >= 12
    for (first, second), sql in queries:
        assert plan_structure(first.sql(sql).plan_node) == \
            plan_structure(second.sql(sql).plan_node), sql


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) AS n FROM a WHERE EXISTS (SELECT k FROM b WHERE w = 1)",
    "SELECT COUNT(*) AS n FROM a WHERE v = 3 OR EXISTS "
    "(SELECT 1 FROM b WHERE b.k = a.k AND b.j = a.j)",
], ids=["uncorrelated", "correlated_under_or"])
def test_pinned_exists_plan_reestablishes_after_restore(sql, tmp_path):
    db = build_db(query_store=True, feedback=True)
    baseline = db.sql(sql).scalar()
    fp = db.statement_key(sql)
    db.force_plan(fp, db.query_store.query(fp).current_plan_id)
    save_database(db, tmp_path)
    restored = load_database(
        tmp_path, config=EngineConfig(query_store=True, feedback=True)
    )
    result = restored.sql(sql)
    assert result.memo_decision == "forced-reestablished"
    assert result.scalar() == baseline


@pytest.mark.parametrize("rewrites", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", ["in_decorrelate", "exists_decorrelate"])
def test_golden_subquery_estimates_within_8x(name, rewrites):
    from tests.test_golden_plans import GOLDEN_QUERIES
    from tests.test_golden_plans import build_db as build_golden_db

    report = build_golden_db(rewrites).explain_analyze(GOLDEN_QUERIES[name])
    assert "SemiJoin(semi" in report.render()
    assert report.max_q_error < 8.0
