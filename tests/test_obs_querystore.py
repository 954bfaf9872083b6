"""Query Store: recording, verdicts, system views, persistence."""

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.storage import load_database, save_database
from repro.errors import SqlPlanError
from repro.obs.querystore import (
    QUERY_STORE_VIEWS,
    VIEW_PLANS,
    VIEW_QUERIES,
    VIEW_RUNTIME,
    QueryStore,
    attribution,
    current_user,
)

JOIN_SQL = "SELECT COUNT(*) AS n FROM t JOIN u ON t.grp = u.grp"


def make_db(**config_kwargs) -> Database:
    db = Database(
        "qs_test", config=EngineConfig(query_store=True, **config_kwargs)
    )
    db.create_table(
        "t",
        {"id": np.arange(60, dtype=np.int64),
         "grp": (np.arange(60) % 5).astype(np.int64)},
        primary_key="id",
    )
    db.create_table(
        "u",
        {"id": np.arange(40, dtype=np.int64),
         "grp": (np.arange(40) % 5).astype(np.int64)},
    )
    db.sql("ANALYZE")
    return db


# ----------------------------------------------------------------------
# direct store API
# ----------------------------------------------------------------------
class TestRecording:
    def test_aggregates_per_query_and_plan(self):
        store = QueryStore()
        for elapsed in (0.1, 0.2, 0.3):
            store.record(fingerprint="fp", sql="SELECT 1",
                         elapsed_s=elapsed, rows=10, cpu_s=0.05,
                         logical_reads=7, plan_text="planA",
                         decision="cost", now=1000.0)
        query = store.query("fp")
        assert query.executions == 3
        assert query.sql == "SELECT 1"
        (plan,) = store.plans("fp")
        assert plan.executions == 3
        assert plan.mean_wall_s == pytest.approx(0.2)
        assert plan.decision == "cost"
        (stats,) = store.runtime_stats()
        assert stats.executions == 3
        assert stats.rows == 30
        assert stats.cpu_sum_s == pytest.approx(0.15)
        assert stats.logical_reads == 21
        assert stats.wall_mean_s == pytest.approx(0.2)
        assert stats.wall_quantile(0.5) == pytest.approx(0.2)
        assert stats.wall_quantile(1.0) == pytest.approx(0.3)

    def test_intervals_split_by_time_and_user(self):
        store = QueryStore(interval_s=60.0)
        store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                     plan_text="p", now=10.0, user="alice")
        store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                     plan_text="p", now=20.0, user="bob")
        store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                     plan_text="p", now=70.0, user="alice")
        stats = store.runtime_stats()
        assert len(stats) == 3
        assert {(s.interval_start, s.user) for s in stats} == {
            (0.0, "alice"), (0.0, "bob"), (60.0, "alice"),
        }

    def test_attribution_context(self):
        assert current_user() == ""
        with attribution("alice"):
            assert current_user() == "alice"
            store = QueryStore()
            store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                         plan_text="p", now=0.0)
        assert current_user() == ""
        (stats,) = store.runtime_stats()
        assert stats.user == "alice"

    def test_eviction_cascades(self):
        store = QueryStore(max_queries=2)
        for i, fp in enumerate(("fp1", "fp2", "fp3")):
            store.record(fingerprint=fp, sql=fp, elapsed_s=0.1,
                         plan_text=f"plan-{fp}", now=float(i))
        assert store.query("fp1") is None
        assert store.plans("fp1") == []
        assert all(s.fingerprint != "fp1" for s in store.runtime_stats())
        assert store.query("fp2") is not None
        assert store.query("fp3") is not None


class TestPlanChangeVerdicts:
    def test_improvement_then_regression(self):
        store = QueryStore()
        for _ in range(2):
            store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                         plan_text="planA", decision="miss", now=0.0)
        # plan changes: the new plan is 10x faster
        for _ in range(3):
            store.record(fingerprint="fp", sql="q", elapsed_s=0.01,
                         plan_text="planB", decision="replan", now=0.0)
        (change,) = store.plan_changes()
        assert change.decision == "replan"
        assert change.verdict == "improvement"
        assert change.ratio == pytest.approx(0.1)
        assert store.improvements() == [change]
        # forcing the old plan back at its old speed is a regression
        for _ in range(2):
            store.record(fingerprint="fp", sql="q", elapsed_s=0.2,
                         plan_text="planA", decision="forced", now=0.0)
        regs = store.regressions()
        assert len(regs) == 1
        assert regs[0].decision == "forced"
        assert regs[0].new_plan_id == change.old_plan_id
        assert regs[0].ratio > 1.25

    def test_verdict_waits_for_min_executions(self):
        store = QueryStore()
        store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                     plan_text="planA", now=0.0)
        store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                     plan_text="planB", decision="replan", now=0.0)
        (change,) = store.plan_changes()
        assert change.verdict is None  # one post-change execution
        store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                     plan_text="planB", now=0.0)
        (change,) = store.plan_changes()
        assert change.verdict == "neutral"  # same speed, same plan

    def test_refork_uses_post_change_executions_only(self):
        store = QueryStore()
        # plan A: 2 slow executions, plan B: 2 fast, back to A: 2 slow
        for _ in range(2):
            store.record(fingerprint="fp", sql="q", elapsed_s=1.0,
                         plan_text="planA", now=0.0)
        for _ in range(2):
            store.record(fingerprint="fp", sql="q", elapsed_s=0.1,
                         plan_text="planB", decision="replan", now=0.0)
        for _ in range(2):
            store.record(fingerprint="fp", sql="q", elapsed_s=1.0,
                         plan_text="planA", decision="forced", now=0.0)
        back = store.plan_changes()[-1]
        # baseline excludes plan A's pre-change history: the mean is
        # over the two *post-change* 1.0 s runs, not diluted
        assert back.new_mean_s == pytest.approx(1.0)
        assert back.verdict == "regression"


# ----------------------------------------------------------------------
# end-to-end through Database.sql
# ----------------------------------------------------------------------
class TestSqlIntegration:
    def test_executions_recorded_with_decision(self):
        db = make_db()
        # recording never changes an answer: 5 groups x 12 t x 8 u rows
        assert db.sql(JOIN_SQL).scalar() == db.sql(JOIN_SQL).scalar() == 480
        fp = db.statement_key(JOIN_SQL)
        query = db.query_store.query(fp)
        assert query.executions == 2
        (plan,) = db.query_store.plans(fp)
        assert plan.executions == 2
        assert plan.decision == "cost"
        assert plan.plan_signature == db.config.plan_signature()
        assert plan.plan_text  # EXPLAIN text captured

    def test_cache_hit_attaches_to_current_plan(self):
        db = make_db(result_cache=True)
        db.sql(JOIN_SQL)
        db.sql(JOIN_SQL)  # served from the result cache
        fp = db.statement_key(JOIN_SQL)
        assert db.query_store.query(fp).executions == 2
        stats = [s for s in db.query_store.runtime_stats()
                 if s.fingerprint == fp]
        assert sum(s.cache_hits for s in stats) == 1
        assert all(s.plan_id >= 0 for s in stats)

    def test_disabled_store_records_nothing(self):
        db = Database("off", config=EngineConfig())
        assert db.query_store is None
        assert db.plan_forcer is None
        db.create_table("t", {"id": np.arange(3, dtype=np.int64)})
        db.sql("SELECT COUNT(*) AS n FROM t")
        assert not db.has_table(VIEW_QUERIES)

    def test_user_attribution_end_to_end(self):
        db = make_db()
        with attribution("alice"):
            db.sql(JOIN_SQL)
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        users = {s.user for s in db.query_store.runtime_stats()
                 if s.fingerprint == fp}
        assert users == {"alice", ""}

    @pytest.mark.parametrize("rewrites", [True, False])
    def test_forced_plan_reads_subquery_tables_as_they_are_now(self, rewrites):
        """A pinned plan object runs for as long as the pin lasts; the
        rows of an EXISTS subquery inside it must not."""
        db = make_db(rewrites=rewrites)
        sql = "SELECT id FROM t WHERE EXISTS (SELECT id FROM u WHERE id > 39)"
        assert db.sql(sql).row_count == 0
        fp = db.statement_key(sql)
        (plan,) = db.query_store.plans(fp)
        db.force_plan(fp, plan.plan_id)
        db.sql("INSERT INTO u VALUES (40, 0)")
        forced = db.sql(sql)
        assert forced.memo_decision == "forced"
        assert forced.row_count == 60
        assert db.unforce_plan(fp)
        assert db.sql(sql).row_count == 60


class TestSystemViews:
    def test_views_queryable_and_match_store(self):
        db = make_db()
        db.sql(JOIN_SQL)
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        result = db.sql(
            f"SELECT fingerprint, sql, executions, plan_count, "
            f"forced_plan_id FROM {VIEW_QUERIES}"
        )
        row = next(r for r in result.rows() if r["fingerprint"] == fp)
        assert row["executions"] == 2
        assert row["plan_count"] == 1
        assert row["forced_plan_id"] == -1
        assert "JOIN" in row["sql"]

        plans = db.sql(
            f"SELECT plan_id, fingerprint, decision, executions, "
            f"is_forced FROM {VIEW_PLANS}"
        )
        prow = next(r for r in plans.rows() if r["fingerprint"] == fp)
        assert prow["decision"] == "cost"
        assert not prow["is_forced"]

        runtime = db.sql(
            f"SELECT fingerprint, executions, rows, wall_ms_mean, "
            f"wall_ms_p50, wall_ms_p95, logical_reads FROM {VIEW_RUNTIME}"
        )
        srow = next(r for r in runtime.rows() if r["fingerprint"] == fp)
        assert srow["executions"] == 2
        assert srow["rows"] == 2  # COUNT(*) returns one row per run
        assert srow["wall_ms_mean"] > 0
        assert srow["wall_ms_p95"] >= srow["wall_ms_p50"] >= 0
        assert srow["logical_reads"] > 0

    def test_views_refresh_lazily(self):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)

        def executions():
            result = db.sql(
                f"SELECT fingerprint, executions FROM {VIEW_QUERIES}"
            )
            return next(r["executions"] for r in result.rows()
                        if r["fingerprint"] == fp)

        first = executions()
        assert first == 1
        db.sql(JOIN_SQL)
        assert executions() == 2

    def test_views_join_against_store_facts(self):
        db = make_db()
        db.sql(JOIN_SQL)
        db.sql(JOIN_SQL)
        result = db.sql(
            f"SELECT q.fingerprint AS fp, p.decision AS decision "
            f"FROM {VIEW_QUERIES} q JOIN {VIEW_PLANS} p "
            f"ON q.current_plan_id = p.plan_id"
        )
        fp = db.statement_key(JOIN_SQL)
        assert any(r["fp"] == fp and r["decision"] == "cost"
                   for r in result.rows())

    def test_dml_on_system_views_rejected(self):
        db = make_db()
        db.sql(JOIN_SQL)
        db.sql(f"SELECT fingerprint FROM {VIEW_QUERIES}")  # materialize
        for statement in (
            f"INSERT INTO {VIEW_QUERIES} SELECT * FROM {VIEW_QUERIES}",
            f"UPDATE {VIEW_PLANS} SET plan_id = 0",
            f"DELETE FROM {VIEW_RUNTIME}",
            f"TRUNCATE TABLE {VIEW_QUERIES}",
        ):
            with pytest.raises(SqlPlanError, match="system table"):
                db.sql(statement)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
class TestPersistence:
    CONFIG = dict(query_store=True, feedback=True)

    def test_round_trip_identical_view_contents(self, tmp_path):
        db = make_db(feedback=True)
        db.sql(JOIN_SQL)
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        pid = db.query_store.query(fp).current_plan_id
        db.force_plan(fp, pid)
        paths = save_database(db, tmp_path)
        assert any(p.name == "querystore.json" for p in paths)
        assert not any(p.stem in QUERY_STORE_VIEWS for p in paths)

        restored = load_database(
            tmp_path, config=EngineConfig(**self.CONFIG)
        )
        original = db.query_store.view_batches(db.plan_forcer)
        copied = restored.query_store.view_batches(restored.plan_forcer)
        for view in QUERY_STORE_VIEWS:
            assert list(original[view]) == list(copied[view])
            for column in original[view]:
                np.testing.assert_array_equal(
                    original[view][column], copied[view][column],
                    err_msg=f"{view}.{column}",
                )

        # and the restored views answer the same facts over SQL
        result = restored.sql(
            f"SELECT fingerprint, executions, forced_plan_id "
            f"FROM {VIEW_QUERIES}"
        )
        row = next(r for r in result.rows() if r["fingerprint"] == fp)
        assert row["executions"] == 2
        assert row["forced_plan_id"] == pid

    def test_plain_restore_skips_store(self, tmp_path):
        db = make_db()
        db.sql(JOIN_SQL)
        save_database(db, tmp_path)
        restored = load_database(tmp_path)  # default config: store off
        assert restored.query_store is None
        assert not restored.has_table(VIEW_QUERIES)
