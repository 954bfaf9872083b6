"""Database catalog, indexes, planner integration, stats."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine.config import EngineConfig
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

    def test_index_survives_dml(self, db):
        index = db.create_clustered_index("galaxy", "zoneid")
        db.sql("INSERT INTO galaxy VALUES (99999, 0, 1.0)")
        db.sql("DELETE FROM galaxy WHERE objid < 10")
        db.sql("UPDATE galaxy SET ra = ra + 1 WHERE objid < 100")
        assert db.clustered_index("galaxy") is index
        query = "SELECT objid, ra FROM galaxy WHERE zoneid BETWEEN 0 AND 2"
        result = db.sql(query)
        assert "IndexRangeScan(galaxy.zoneid" in result.plan
        assert result.column("objid")[-1] == 99999  # from the tail
        table = db.table("galaxy")
        zones = table.column("zoneid")
        hit = (zones >= 0) & (zones <= 2)
        assert np.array_equal(result.column("objid"), table.column("objid")[hit])
        assert np.array_equal(result.column("ra"), table.column("ra")[hit])

    @pytest.mark.parametrize("write", [
        "UPDATE galaxy SET zoneid = zoneid + 1 WHERE objid < 5",
        "TRUNCATE TABLE galaxy",
    ])
    def test_key_update_or_truncate_ends_the_order(self, db, write):
        db.create_clustered_index("galaxy", "zoneid", "ra")
        db.sql(write)
        assert db.clustered_index("galaxy") is None
        query = "SELECT objid FROM galaxy WHERE zoneid BETWEEN 3 AND 5"
        assert "IndexRangeScan" not in db.explain(query)
        db.create_clustered_index("galaxy", "zoneid", "ra")
        table = db.table("galaxy")
        assert table.base_rows == table.row_count
        assert "IndexRangeScan" in db.explain(query)

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


class TestPrimaryKeySeek:
    QUERY = "SELECT objid, zoneid, ra FROM galaxy WHERE objid = {}"

    def test_point_select_seeks(self, db):
        result = db.sql(self.QUERY.format(17))
        assert "[primary key]" in result.plan
        assert result.column("objid").tolist() == [17]
        assert result.column("zoneid")[0] == db.table("galaxy").column("zoneid")[17]

    def test_seek_reads_one_page(self, db):
        before = db.pool.counters.logical_reads
        db.sql(self.QUERY.format(1500))
        assert db.pool.counters.logical_reads - before == 1

    def test_estimate_is_one_row_or_none(self, db):
        assert "[primary key]  [est=1 rows]" in db.explain(self.QUERY.format(3))
        db.sql("TRUNCATE TABLE galaxy")
        assert "[primary key]  [est=0 rows]" in db.explain(self.QUERY.format(3))

    def test_missing_key(self, db):
        assert db.sql(self.QUERY.format(-4)).row_count == 0

    def test_after_delete(self, db):
        db.sql("DELETE FROM galaxy WHERE objid BETWEEN 10 AND 20")
        assert db.sql(self.QUERY.format(15)).row_count == 0
        assert db.sql(self.QUERY.format(21)).column("objid").tolist() == [21]
        assert db.sql(self.QUERY.format(1999)).column("objid").tolist() == [1999]

    def test_after_primary_key_update(self, db):
        db.sql("UPDATE galaxy SET objid = objid + 5000 WHERE objid < 3")
        assert db.sql(self.QUERY.format(1)).row_count == 0
        moved = db.sql(self.QUERY.format(5001))
        assert moved.column("objid").tolist() == [5001]
        assert moved.column("ra")[0] == db.table("galaxy").column("ra")[1]

    def test_non_key_equality_and_mistyped_literal_scan(self, db):
        assert "SeqScan" in db.explain(
            "SELECT objid FROM galaxy WHERE zoneid = 3")
        assert "SeqScan" in db.explain(
            "SELECT objid FROM galaxy WHERE objid = 'x'")

    def test_table_function_never_seeks(self, db):
        # a function named like the keyed table binds to the function
        db.create_table_function(
            "galaxy", ("objid", "ra"),
            lambda n: {"objid": np.arange(int(n)), "ra": np.zeros(int(n))},
        )
        result = db.sql("SELECT objid FROM galaxy(5) g WHERE objid = 3")
        assert "IndexRangeScan" not in result.plan
        assert "TableFunctionScan" in result.plan
        assert result.column("objid").tolist() == [3]

    def test_view_and_cte_never_seek(self):
        from repro.engine.config import EngineConfig

        db = Database("views", config=EngineConfig(rewrites=False))
        db.create_table("g", {"objid": np.arange(50), "v": np.arange(50) * 2.0},
                        primary_key="objid")
        db.sql("CREATE VIEW gv AS SELECT objid, v FROM g")
        for query in (
            "SELECT objid, v FROM gv WHERE objid = 7",
            "WITH g AS (SELECT objid, v FROM g WHERE v < 40) "
            "SELECT objid, v FROM g WHERE objid = 7",
        ):
            result = db.sql(query)
            assert "SubqueryScan" in result.plan
            assert "IndexRangeScan" not in result.plan
            assert result.rows() == [{"objid": 7, "v": 14.0}]


class TestResultsOwnTheirRows:
    """A returned result never changes under a later write."""

    def test_update_leaves_earlier_results_alone(self, db):
        db.create_clustered_index("galaxy", "zoneid", "ra")
        queries = {
            "SeqScan": "SELECT objid, ra FROM galaxy",
            "IndexRangeScan(galaxy.zoneid": (
                "SELECT objid, ra FROM galaxy WHERE zoneid BETWEEN 0 AND 3"),
            "[primary key]": "SELECT objid, ra FROM galaxy WHERE objid = 2",
        }
        results = {}
        for marker, query in queries.items():
            result = db.sql(query)
            assert marker in result.plan
            results[marker] = (result, result.column("ra").copy())
        db.sql("UPDATE galaxy SET ra = 7 WHERE objid < 5")
        for result, ra in results.values():
            assert np.array_equal(result.column("ra"), ra)


class TestDroppedDatabaseIsFreed:
    """A dropped Database is reclaimed by reference counting alone: no
    engine object it owns points back at it strongly."""

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(result_cache=True, feedback=True, query_store=True),
        ],
        ids=["default", "cache+feedback+store"],
    )
    def test_del_frees_database_without_gc(self, config):
        gc.disable()
        try:
            db = Database("dropped", config=config)
            db.create_table(
                "galaxy",
                {"objid": np.arange(100), "i": np.linspace(15.0, 22.0, 100)},
            )
            db.sql("SELECT objid FROM galaxy WHERE i < 18")
            # a memoized plan then holds a subquery predicate
            db.sql("SELECT objid FROM galaxy WHERE objid IN "
                   "(SELECT objid FROM galaxy WHERE i > 20)")
            ref = weakref.ref(db)
            del db
            assert ref() is None
        finally:
            gc.enable()
