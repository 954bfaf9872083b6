"""The slow-query log, including its wiring into the engine."""

import pytest

from repro.obs.slowlog import SlowQueryLog, get_slow_log


@pytest.fixture
def log():
    return SlowQueryLog(threshold_s=0.1, capacity=3)


class TestSlowQueryLog:
    def test_under_threshold_not_recorded(self, log):
        assert log.record("SELECT 1", 0.05) is None
        assert len(log) == 0

    def test_over_threshold_recorded_with_details(self, log):
        entry = log.record("SELECT * FROM galaxy", 0.5,
                           plan="Scan(galaxy)", max_q_error=3.0,
                           database="maxbcg")
        assert entry is not None
        assert entry.sql == "SELECT * FROM galaxy"
        assert entry.max_q_error == 3.0
        assert log.entries() == [entry]

    def test_threshold_boundary_is_inclusive(self, log):
        assert log.is_slow(0.1)
        assert not log.is_slow(0.0999)

    def test_capacity_is_a_ring(self, log):
        for n in range(5):
            log.record(f"Q{n}", 0.2 + n)
        kept = [e.sql for e in log.entries()]
        assert kept == ["Q2", "Q3", "Q4"]  # oldest evicted

    def test_render_slowest_first_with_plan(self, log):
        log.record("FAST-ISH", 0.2)
        log.record("SLOWEST", 0.9, plan="Scan(x)\n  Filter(y)")
        text = log.render()
        assert text.index("SLOWEST") < text.index("FAST-ISH")
        assert "| Scan(x)" in text
        assert "|   Filter(y)" in text

    def test_render_empty(self):
        assert "empty" in SlowQueryLog().render()

    def test_set_threshold(self, log):
        log.set_threshold(1.0)
        assert log.record("SELECT 1", 0.5) is None

    def test_recording_bumps_metric(self, log):
        from repro.obs.metrics import get_metrics

        before = get_metrics().counter("engine.slow_queries").value
        log.record("SELECT pg_sleep(1)", 5.0)
        assert get_metrics().counter("engine.slow_queries").value == before + 1

    def test_plan_signature_and_decision_fields(self, log):
        entry = log.record(
            "SELECT 1", 0.5, fingerprint="abc123", memo="hit",
            plan_signature="optimizer=cost,band_joins=1",
            decision="learned-override",
        )
        assert entry.plan_signature == "optimizer=cost,band_joins=1"
        assert entry.decision == "learned-override"
        # the line joins the entry against the Query Store plan history
        assert "sig=[optimizer=cost,band_joins=1]" in entry.line
        assert "plan=learned-override" in entry.line
        assert "memo=hit" in entry.line

    def test_decision_suppressed_when_same_as_memo(self, log):
        entry = log.record("SELECT 1", 0.5, memo="miss", decision="miss")
        assert "plan=" not in entry.line


class TestEngineWiring:
    def test_global_log_singleton(self):
        assert get_slow_log() is get_slow_log()

    def test_slow_select_logged_with_sql_and_plan(self):
        """A statement over budget lands in the log with its plan."""
        import numpy as np

        from repro.engine.database import Database

        db = Database("slowtest")
        db.create_table(
            "t", {"a": np.arange(50, dtype=np.int64)}, primary_key="a"
        )
        log = get_slow_log()
        old_threshold = log.threshold_s
        log.clear()
        log.set_threshold(0.0)  # everything is slow now
        try:
            db.sql("SELECT COUNT(*) AS n FROM t WHERE a > 10")
        finally:
            log.set_threshold(old_threshold)
        entries = log.entries()
        assert entries, "over-threshold SELECT was not logged"
        latest = entries[-1]
        assert "SELECT" in latest.sql.upper()
        assert latest.database == "slowtest"
        assert latest.plan  # SELECTs capture the chosen plan
        log.clear()

    def test_fingerprinted_select_logs_signature_and_decision(self):
        import numpy as np

        from repro.engine.config import EngineConfig
        from repro.engine.database import Database

        db = Database(
            "sigtest", config=EngineConfig(query_store=True)
        )
        db.create_table(
            "t", {"a": np.arange(50, dtype=np.int64)}, primary_key="a"
        )
        log = get_slow_log()
        old_threshold = log.threshold_s
        log.clear()
        log.set_threshold(0.0)
        try:
            db.sql("SELECT COUNT(*) AS n FROM t WHERE a > 10")
        finally:
            log.set_threshold(old_threshold)
        latest = log.entries()[-1]
        assert latest.fingerprint is not None
        assert latest.plan_signature == db.config.plan_signature()
        assert latest.decision == "cost"
        log.clear()

    def test_explain_analyze_logs_q_error(self):
        import numpy as np

        from repro.engine.database import Database

        db = Database("qetest")
        db.create_table(
            "t", {"a": np.arange(40, dtype=np.int64)}, primary_key="a"
        )
        log = get_slow_log()
        old_threshold = log.threshold_s
        log.clear()
        log.set_threshold(0.0)
        try:
            db.explain_analyze("SELECT a FROM t WHERE a >= 0")
        finally:
            log.set_threshold(old_threshold)
        entries = log.entries()
        assert entries
        assert entries[-1].max_q_error is not None
        assert entries[-1].max_q_error >= 1.0
        log.clear()
