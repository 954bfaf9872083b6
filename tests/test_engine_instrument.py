"""EXPLAIN ANALYZE: the plan that runs, measured by its own nodes."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.instrument import measure
from repro.errors import EngineError


@pytest.fixture()
def db() -> Database:
    d = Database("ea")
    rng = np.random.default_rng(3)
    n = 5000
    d.create_table(
        "g",
        {"objid": np.arange(n), "zoneid": rng.integers(0, 100, n),
         "v": rng.uniform(0, 1, n)},
        primary_key="objid",
    )
    return d


class TestExplainAnalyze:
    def test_rows_recorded_per_node(self, db):
        report = db.explain_analyze("SELECT objid FROM g WHERE v > 0.5")
        scan = report.node("SeqScan")
        filtered = report.node("Filter")
        assert scan.rows == 5000
        assert filtered.rows < scan.rows
        assert report.row_count == filtered.rows

    def test_same_answer_as_plain_execution(self, db):
        text = "SELECT zoneid, COUNT(*) AS c FROM g GROUP BY zoneid"
        report = db.explain_analyze(text)
        plain = db.sql(text)
        assert report.row_count == plain.row_count
        assert sorted(report.result["c"].tolist()) == sorted(
            plain.column("c").tolist()
        )

    def test_io_attributed_to_scan(self, db):
        report = db.explain_analyze("SELECT objid FROM g")
        scan = report.node("SeqScan")
        assert scan.io_total >= db.table("g").page_count

    def test_render_shows_tree(self, db):
        report = db.explain_analyze(
            "SELECT objid FROM g WHERE v > 0.9 ORDER BY objid LIMIT 3"
        )
        text = report.render()
        assert "Limit" in text and "Sort" in text and "rows=" in text
        assert text.splitlines()[-1].startswith("total:")

    def test_join_nodes_instrumented(self, db):
        db.create_table("k", {"zoneid": np.arange(100),
                              "w": np.linspace(0, 1, 100)})
        report = db.explain_analyze(
            "SELECT g.objid FROM g JOIN k ON g.zoneid = k.zoneid "
            "WHERE k.w > 0.5",
        )
        join = report.node("HashJoin")
        assert join.rows > 0

    def test_timings_nested(self, db):
        report = db.explain_analyze("SELECT objid FROM g WHERE v > 0.5")
        outer = report.nodes[0]
        inner = report.nodes[-1]
        assert outer.inclusive_s >= inner.inclusive_s

    def test_rejects_non_select(self, db):
        with pytest.raises(EngineError):
            db.explain_analyze("DELETE FROM g")

    def test_missing_node_lookup(self, db):
        report = db.explain_analyze("SELECT objid FROM g")
        with pytest.raises(EngineError):
            report.node("CrossJoin")


class TestDatabaseConvenience:
    def test_explain_analyze_method(self, db):
        report = db.explain_analyze("SELECT objid FROM g WHERE v > 0.5")
        assert report.row_count > 0
        assert "SeqScan" in report.render()


class TestInstrumentPlan:
    def test_wrapping_preserves_results(self, db):
        from repro.engine.sql.parser import parse
        from repro.engine.sql.planner import Planner

        stmt = parse("SELECT objid FROM g WHERE v BETWEEN 0.2 AND 0.4")
        plan = Planner(db).plan_select(stmt)
        expected = plan.execute()
        run = measure(plan)
        got = run.run(plan)
        assert np.array_equal(got["objid"], expected["objid"])
        assert all(r.calls == 1 for r in run.records.values())


class TestRowAccumulation:
    """A node executed more than once must report every batch it produced
    (the old behaviour overwrote ``rows`` with the last call's count)."""

    def test_rows_accumulate_across_calls(self, db):
        from repro.engine.sql.parser import parse
        from repro.engine.sql.planner import Planner

        stmt = parse("SELECT objid FROM g WHERE v > 0.5")
        plan = Planner(db).plan_select(stmt)
        run = measure(plan)
        first = run.run(plan)
        second = run.run(plan)
        n = len(first["objid"])
        assert len(second["objid"]) == n
        root = run.records[id(plan)]
        assert root.calls == 2
        assert root.rows == 2 * n
        assert root.rows_per_call == pytest.approx(n)

    def test_q_error_uses_rows_per_call(self):
        from repro.engine.instrument import NodeStats

        stats = NodeStats(description="x", depth=0, est_rows=100.0)
        stats.rows = 300
        stats.calls = 3  # 100 rows per execution: the estimate was perfect
        assert stats.q_error == pytest.approx(1.0)

    def test_line_shows_per_call_breakdown(self):
        from repro.engine.instrument import NodeStats

        stats = NodeStats(description="Scan", depth=0)
        stats.rows, stats.calls = 200, 2
        assert "(100/call x 2)" in stats.line
        stats.calls = 1
        stats.rows = 100
        assert "/call" not in stats.line

    def test_rows_per_call_zero_calls(self):
        from repro.engine.instrument import NodeStats

        stats = NodeStats(description="x", depth=0)
        assert stats.rows_per_call == 0.0
        assert stats.q_error is None


class TestFusedFilter:
    """A Filter absorbed by its Project is measured as the program that
    runs: one call, the survivors as rows, its work inside the Project."""

    SQL = "SELECT objid, v * 2 AS d FROM g WHERE v > 0.5 AND zoneid < 50"

    def test_absorbed_filter_reports_the_projects_rows(self, db):
        report = db.explain_analyze(self.SQL)
        project, filtered, scan = report.nodes
        assert "[fused:" in project.description
        assert project.calls == filtered.calls == scan.calls == 1
        assert filtered.rows == project.rows == report.row_count
        assert 0 < filtered.rows < scan.rows == 5000
        # the filter's time is its input's; the predicate runs in the
        # Project's kernel
        assert project.inclusive_s >= filtered.inclusive_s >= scan.inclusive_s
        assert filtered.io_total == scan.io_total

    def test_measuring_does_not_turn_fusion_off(self, db, monkeypatch):
        from repro.engine.compile import CompiledKernel

        ran = []
        real_fused = CompiledKernel.fused
        monkeypatch.setattr(
            CompiledKernel, "fused",
            lambda self, *args: ran.append(self) or real_fused(self, *args),
        )
        plain = db.sql(self.SQL)
        report = db.explain_analyze(self.SQL)
        assert len(ran) == 2
        assert report.result["d"].tobytes() == plain.columns["d"].tobytes()
