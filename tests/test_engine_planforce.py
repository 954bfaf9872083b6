"""Plan forcing: structural signatures, pins, restarts, failures."""

import json

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.optimizer.planforce import PlanForcer, plan_structure
from repro.engine.storage import (
    QUERY_STORE_FILE,
    load_database,
    save_database,
)
from repro.errors import EngineError

JOIN_SQL = "SELECT COUNT(*) AS n FROM t JOIN u ON t.grp = u.grp"
OTHER_SQL = "SELECT COUNT(*) AS n FROM t WHERE grp = 2"

CONFIG_KW = dict(query_store=True, feedback=True)


def make_db(**extra) -> Database:
    db = Database(
        "pf_test", config=EngineConfig(**{**CONFIG_KW, **extra})
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


class TestPlanStructure:
    def test_deterministic_and_shape_sensitive(self):
        db = make_db()
        first = db.sql(JOIN_SQL).plan_node
        second = db.sql(JOIN_SQL).plan_node
        other = db.sql(OTHER_SQL).plan_node
        assert plan_structure(first) == plan_structure(second)
        assert plan_structure(first) != plan_structure(other)

    def test_ignores_row_estimates(self):
        db = make_db()
        node = db.sql(JOIN_SQL).plan_node
        before = plan_structure(node)
        node.est_rows = 123456.0  # estimate churn must not flip the pin
        assert plan_structure(node) == before


class TestForceApi:
    def test_force_requires_known_plan(self):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        with pytest.raises(EngineError, match="no plan 99"):
            db.force_plan(fp, 99)

    def test_force_rejects_fingerprint_mismatch(self):
        db = make_db()
        db.sql(JOIN_SQL)
        db.sql(OTHER_SQL)
        other_fp = db.statement_key(OTHER_SQL)
        join_plan = db.query_store.query(
            db.statement_key(JOIN_SQL)
        ).current_plan_id
        with pytest.raises(EngineError, match="belongs to fingerprint"):
            db.force_plan(other_fp, join_plan)

    def test_forcing_without_store_rejected(self):
        db = Database("plain", config=EngineConfig())
        with pytest.raises(EngineError, match="query_store"):
            db.force_plan("fp", 1)

    def test_unforce_reports_absence(self):
        db = make_db()
        assert db.unforce_plan("nope") is False

    def test_forcer_requires_structure(self):
        with pytest.raises(EngineError, match="structural signature"):
            PlanForcer().force(fingerprint="fp", plan_id=1, structure="",
                               plan_text="p")


class TestForcedExecution:
    def test_forced_plan_runs_and_bypasses_memo(self):
        db = make_db()
        baseline = db.sql(JOIN_SQL)
        db.sql(JOIN_SQL)  # memoize
        fp = db.statement_key(JOIN_SQL)
        pid = db.query_store.query(fp).current_plan_id
        db.force_plan(fp, pid)
        hits_before = db.feedback.memo.summary()["hits"]
        for _ in range(3):
            result = db.sql(JOIN_SQL)
            assert result.memo_decision == "forced"
            assert result.plan_origin == "forced"
            assert result.scalar() == baseline.scalar()
        # forced executions never consult the memo
        assert db.feedback.memo.summary()["hits"] == hits_before
        assert db.plan_forcer.get(fp).executions == 3

    def test_pin_survives_dml_memo_invalidation(self):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        pid = db.query_store.query(fp).current_plan_id
        structure = db.query_store.plan(pid).structure
        db.force_plan(fp, pid)
        db.sql(JOIN_SQL)
        # DML moves neither the catalog generation nor a pin
        db.sql("INSERT INTO t VALUES (1000, 0)")
        result = db.sql(JOIN_SQL)
        assert result.memo_decision == "forced"
        assert plan_structure(result.plan_node) == structure
        # the forced plan still sees the new row: 5 grps x 12 x 8, plus
        # one extra t row in grp 0 matching its 8 u rows
        assert result.scalar() == 5 * 12 * 8 + 8

    def test_unforce_restores_planning(self):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        assert db.sql(JOIN_SQL).memo_decision == "forced"
        assert db.unforce_plan(fp) is True
        assert db.sql(JOIN_SQL).memo_decision in ("miss", "hit")

    def test_forced_fingerprint_skips_feedback_react(self):
        db = make_db(qerror_ceiling=1.01)  # nearly everything breaches
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        overrides_before = len(db.feedback.overrides)
        for _ in range(3):
            assert db.sql(JOIN_SQL).memo_decision == "forced"
        # a pinned statement must not install overrides or demand
        # re-plans however bad its q-error looks
        assert len(db.feedback.overrides) == overrides_before


class TestCatalogChange:
    """A pinned live plan is reused while it is bound to the catalog
    generation, or re-bound because no table or view it reads was
    replaced: after a drop and a create of its table it re-establishes
    by structure or fails visibly, and never reads the dropped table."""

    SQL = "SELECT COUNT(*) AS n FROM t WHERE a < 50"
    RANGE_SQL = "SELECT COUNT(*) AS n FROM t WHERE a BETWEEN 0 AND 49"

    @staticmethod
    def pinned(sql: str, rows: int, clustered: bool = False) -> Database:
        db = Database("pf_catalog", config=EngineConfig(**CONFIG_KW))
        db.create_table("t", {"a": np.arange(rows, dtype=np.int64)})
        if clustered:
            db.create_clustered_index("t", "a")
        db.sql("ANALYZE")
        db.sql(sql)
        fp = db.statement_key(sql)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        assert db.sql(sql).memo_decision == "forced"
        db.sql("DROP TABLE t")
        db.create_table("t", {"a": np.arange(100, dtype=np.int64)})
        return db

    def test_pinned_seq_scan_reads_the_new_table(self):
        db = self.pinned(self.SQL, rows=10)
        result = db.sql(self.SQL)
        assert "SeqScan(t" in result.plan
        assert result.memo_decision == "forced-reestablished"
        assert result.scalar() == 50
        again = db.sql(self.SQL)
        assert (again.memo_decision, again.scalar()) == ("forced", 50)

    def test_pinned_index_scan_fails_visibly_on_a_heap(self):
        db = self.pinned(self.RANGE_SQL, rows=1000, clustered=True)
        fp = db.statement_key(self.RANGE_SQL)
        assert "IndexRangeScan(t.a" in db.plan_forcer.get(fp).plan_text
        result = db.sql(self.RANGE_SQL)
        assert result.memo_decision == "force-failed"
        assert result.scalar() == 50
        entry = db.plan_forcer.get(fp)
        assert entry.last_failure is not None
        assert entry.node is None  # the dropped table's plan is let go
        assert db.sql(self.RANGE_SQL).scalar() == 50

    def test_pin_survives_an_unrelated_catalog_change(self):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        pid = db.query_store.query(fp).current_plan_id
        node = db.query_store.plan(pid).node
        # a structure the planner would not produce: only the live node
        # serves this pin, so any re-plan would fail it
        db.plan_forcer.force(
            fingerprint=fp, plan_id=pid, structure="0" * 32,
            plan_text="pinned", node=node,
        )
        assert db.sql(JOIN_SQL).memo_decision == "forced"
        db.create_table("scratch", {"x": np.arange(3, dtype=np.int64)})
        db.sql("DROP TABLE scratch")
        result = db.sql(JOIN_SQL)
        assert (result.memo_decision, result.scalar()) == ("forced", 480)
        assert result.plan_node is node
        assert db.plan_forcer.get(fp).failures == 0

    def test_redefined_view_replaces_the_pinned_plan(self):
        # with rewrites off the view is not merged into the fingerprinted
        # statement, so its redefinition keeps the fingerprint and pin
        db = make_db(rewrites=False)
        db.sql("CREATE VIEW v AS SELECT grp FROM t WHERE id < 30")
        sql = "SELECT COUNT(*) AS n FROM v WHERE grp = 2"
        assert db.sql(sql).scalar() == 6
        fp = db.statement_key(sql)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        assert db.sql(sql).memo_decision == "forced"
        db.sql("DROP VIEW v")
        db.sql("CREATE VIEW v AS SELECT grp FROM t WHERE id < 60")
        assert db.statement_key(sql) == fp
        result = db.sql(sql)
        # the pinned node holds the old body: it must not run
        assert result.memo_decision != "forced"
        assert result.scalar() == 12


class TestRestart:
    def test_reestablished_by_structure_after_restore(self, tmp_path):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        baseline = db.sql(JOIN_SQL).scalar()
        save_database(db, tmp_path)

        restored = load_database(tmp_path, config=EngineConfig(**CONFIG_KW))
        entry = restored.plan_forcer.get(fp)
        assert entry is not None
        assert entry.node is None  # live trees do not survive restarts
        result = restored.sql(JOIN_SQL)
        assert result.memo_decision == "forced-reestablished"
        assert result.scalar() == baseline
        entry = restored.plan_forcer.get(fp)
        assert entry.re_established
        assert entry.node is not None
        # subsequent executions run the adopted live node directly
        assert restored.sql(JOIN_SQL).memo_decision == "forced"

    def test_pin_saved_with_a_config_signature_still_loads(self, tmp_path):
        """Pins once carried the config signature they were forced
        under.  Such a file loads, and its pin re-establishes: with band
        joins on, fingerprints hash the same text as before."""
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        save_database(db, tmp_path)
        path = tmp_path / QUERY_STORE_FILE
        payload = json.loads(path.read_text())
        (pin,) = payload["forced"]
        assert "plan_signature" not in pin
        pin["plan_signature"] = (
            "optimizer=cost,band_joins=1,rewrites=1,compiled=1"
        )
        path.write_text(json.dumps(payload))

        restored = load_database(tmp_path, config=EngineConfig(**CONFIG_KW))
        assert restored.statement_key(JOIN_SQL) == fp
        assert restored.plan_forcer.get(fp).node is None
        assert restored.sql(JOIN_SQL).memo_decision == "forced-reestablished"
        assert restored.sql(JOIN_SQL).memo_decision == "forced"

    def test_force_failure_is_visible(self):
        db = make_db()
        db.sql(JOIN_SQL)
        fp = db.statement_key(JOIN_SQL)
        # a pin whose structure the planner can never produce (models a
        # catalog that drifted since the plan was forced)
        db.plan_forcer.force(
            fingerprint=fp, plan_id=77, structure="0" * 32,
            plan_text="unreachable plan", node=None,
        )
        result = db.sql(JOIN_SQL)
        assert result.memo_decision == "force-failed"
        entry = db.plan_forcer.get(fp)
        assert entry.failures == 1
        assert "structure" in entry.last_failure
        assert "force-failed" in db.plan_forcer.render() or \
            "failures=1" in db.plan_forcer.render()
