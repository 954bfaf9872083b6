"""Database catalog, indexes, planner integration, stats."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.errors import EngineError, TableNotFoundError


@pytest.fixture()
def db() -> Database:
    d = Database("cat")
    rng = np.random.default_rng(2)
    n = 2000
    d.create_table(
        "galaxy",
        {
            "objid": np.arange(n),
            "zoneid": rng.integers(0, 50, n),
            "ra": rng.uniform(0, 360, n),
        },
        primary_key="objid",
    )
    return d


class TestCatalog:
    def test_create_and_lookup(self, db):
        assert db.has_table("galaxy")
        assert db.table("GALAXY").row_count == 2000

    def test_table_names(self, db):
        assert db.table_names() == ["galaxy"]

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(EngineError):
            db.create_table("galaxy", {"a": np.array([1])})

    def test_drop(self, db):
        db.drop_table("galaxy")
        assert not db.has_table("galaxy")
        with pytest.raises(TableNotFoundError):
            db.drop_table("galaxy")
        db.drop_table("galaxy", if_exists=True)  # no raise

    def test_create_empty_table(self, db):
        db.create_table("empty", {"a": np.empty(0, dtype=np.int64)})
        assert db.table("empty").row_count == 0


class TestIndexes:
    def test_clustered_index_used_by_planner(self, db):
        db.create_clustered_index("galaxy", "zoneid", "ra")
        plan = db.explain("SELECT objid FROM galaxy WHERE zoneid BETWEEN 3 AND 5")
        assert "IndexRangeScan" in plan

    def test_no_index_means_seqscan(self, db):
        plan = db.explain("SELECT objid FROM galaxy WHERE zoneid BETWEEN 3 AND 5")
        assert "SeqScan" in plan and "IndexRangeScan" not in plan

    def test_index_range_results_match_scan(self, db):
        want = db.sql(
            "SELECT COUNT(*) AS c FROM galaxy WHERE zoneid BETWEEN 3 AND 5"
        ).scalar()
        db.create_clustered_index("galaxy", "zoneid", "ra")
        got = db.sql(
            "SELECT COUNT(*) AS c FROM galaxy WHERE zoneid BETWEEN 3 AND 5"
        ).scalar()
        assert got == want

    def test_index_invalidated_by_dml(self, db):
        db.create_clustered_index("galaxy", "zoneid")
        db.sql("INSERT INTO galaxy VALUES (99999, 0, 1.0)")
        assert db.clustered_index("galaxy") is None

    def test_index_range_cheaper_than_scan(self, db):
        db.create_clustered_index("galaxy", "zoneid", "ra")
        before = db.pool.counters.logical_reads
        db.sql("SELECT objid FROM galaxy WHERE zoneid BETWEEN 3 AND 4")
        ranged = db.pool.counters.logical_reads - before
        before = db.pool.counters.logical_reads
        db.sql("SELECT objid FROM galaxy")
        full = db.pool.counters.logical_reads - before
        assert ranged < full


class TestStats:
    def test_stats_summary(self, db):
        stats = db.stats_summary()
        assert stats["tables"] == 1
        assert stats["rows"] == 2000
        assert stats["pages"] == db.table("galaxy").page_count
        assert stats["writes"] > 0

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(EngineError):
            db.explain("DELETE FROM galaxy")
