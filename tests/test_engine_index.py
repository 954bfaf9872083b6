"""The clustered index (sorted base plus append tail) and primary-key
seeks."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.index import ClusteredIndex, PrimaryKeyIndex
from repro.engine.pages import BufferPool
from repro.engine.schema import schema
from repro.engine.table import Table
from repro.engine.types import ColumnType
from repro.errors import EngineError


@pytest.fixture()
def table() -> Table:
    s = schema(
        "zonetab",
        {"objid": ColumnType.INT64, "zoneid": ColumnType.INT64,
         "ra": ColumnType.FLOAT64},
        primary_key="objid",
    )
    t = Table(s, BufferPool(1000))
    rng = np.random.default_rng(5)
    n = 500
    t.insert({
        "objid": np.arange(n),
        "zoneid": rng.integers(0, 20, n),
        "ra": rng.uniform(0, 360, n),
    })
    return t


class TestClusteredIndex:
    def test_build_sorts_table(self, table):
        index = ClusteredIndex(table, ("zoneid", "ra"))
        index.build()
        zones = table.column("zoneid")
        assert np.all(np.diff(zones) >= 0)
        ra = table.column("ra")
        same = zones[1:] == zones[:-1]
        assert np.all(ra[1:][same] >= ra[:-1][same])

    def test_range_rows(self, table):
        index = ClusteredIndex(table, ("zoneid",))
        index.build()
        start, stop = index.range_rows(5, 7)
        zones = table.column("zoneid")
        assert np.all((zones[start:stop] >= 5) & (zones[start:stop] <= 7))
        # maximal
        if start > 0:
            assert zones[start - 1] < 5
        if stop < len(table):
            assert zones[stop] > 7

    def test_range_scan_accounting(self, table):
        index = ClusteredIndex(table, ("zoneid",))
        index.build()
        pool = table.file.pool
        before = pool.counters.logical_reads
        result = index.range_scan(0, 3)
        assert result["zoneid"].size > 0
        assert pool.counters.logical_reads > before

    def test_build_counts_rewrite(self, table):
        pool = table.file.pool
        before = pool.counters.writes
        ClusteredIndex(table, ("zoneid",)).build()
        assert pool.counters.writes - before == table.page_count

    def test_use_before_build(self, table):
        index = ClusteredIndex(table, ("zoneid",))
        with pytest.raises(EngineError):
            index.range_rows(0, 1)

    def test_unknown_key(self, table):
        with pytest.raises(EngineError):
            ClusteredIndex(table, ("nope",))

    def test_empty_keys(self, table):
        with pytest.raises(EngineError):
            ClusteredIndex(table, ())



class TestFootprint:
    def test_a_dropped_clustered_table_is_freed_without_the_collector(self):
        """The index's back-reference is weak: a table and its clustered
        index form no cycle, so dropping the table frees it at once."""
        db = Database("footprint")
        db.create_table("t", {
            "id": np.arange(200, dtype=np.int64),
            "zoneid": np.arange(200, dtype=np.int64) % 7,
        })
        index = db.create_clustered_index("t", "zoneid")
        db.analyze()
        ran = db.sql("SELECT COUNT(*) AS n FROM t WHERE zoneid = 3")
        assert "IndexRangeScan" in ran.plan and ran.scalar() == 29
        dropped = weakref.ref(db.table("t"))
        gc.disable()
        try:
            db.drop_table("t")
            assert dropped() is None
        finally:
            gc.enable()
        with pytest.raises(EngineError, match="dropped table"):
            index.range_scan(3, 3)


class TestBaseAndTail:
    def test_insert_lands_in_tail(self, table):
        index = ClusteredIndex(table, ("zoneid", "ra"))
        index.build()
        table.insert({"objid": [900, 901], "zoneid": [3, 30], "ra": [1.0, 2.0]})
        assert table.clustered is index
        assert table.base_rows == 500 and table.row_count == 502
        rows = index.range_scan(3, 3)
        assert rows["objid"][-1] == 900
        assert np.all(rows["zoneid"] == 3)

    def test_delete_shrinks_base_by_base_rows_removed(self, table):
        ClusteredIndex(table, ("zoneid",)).build()
        table.insert({"objid": [900], "zoneid": [3], "ra": [1.0]})
        table.delete_rows(np.array([0, 10, 500]))
        assert table.base_rows == 498 and table.row_count == 498

    def test_key_update_ends_order_other_update_keeps_it(self, table):
        index = ClusteredIndex(table, ("zoneid", "ra"))
        index.build()
        table.update_rows(np.array([0]), {"objid": np.array([7777])})
        assert table.clustered is index
        table.update_rows(np.array([0]), {"ra": np.array([1.0])})
        assert table.clustered is None and table.base_rows == 0
        # a plan still holding the index reads everything as tail
        zones = table.column("zoneid")
        assert index.range_scan(4, 6)["objid"].tolist() == (
            table.column("objid")[(zones >= 4) & (zones <= 6)].tolist()
        )

    def test_scan_reads_tail_pages_but_never_more_than_the_table(self, table):
        index = ClusteredIndex(table, ("zoneid",))
        index.build()
        pool = table.file.pool
        table.insert({"objid": np.arange(1000, 1400),
                      "zoneid": np.full(400, 19),
                      "ra": np.zeros(400)})
        assert index.tail_pages > 0
        for lo, hi in ((0, 0), (0, 19), (5, 7)):
            before = pool.counters.logical_reads
            index.range_scan(lo, hi)
            assert pool.counters.logical_reads - before <= table.page_count

    def test_results_own_their_rows(self, table):
        index = ClusteredIndex(table, ("zoneid",))
        index.build()
        table.insert({"objid": [900], "zoneid": [3], "ra": [1.0]})
        for batch in (index.range_scan(0, 5),
                      PrimaryKeyIndex(table).range_scan(900, 900)):
            for name, arr in batch.items():
                assert not np.shares_memory(arr, table.column(name))


class TestOneSidedRange:
    """``key < <= > >= literal`` on a clustered key is an index range
    open at one end; a strict bound keeps its conjunct as a Filter."""

    @staticmethod
    def clustered_db(a: np.ndarray) -> Database:
        db = Database("onesided")
        db.create_table("t", {
            "a": a, "b": np.arange(a.size, dtype=np.int64),
        })
        db.create_clustered_index("t", "a")
        db.analyze()
        return db

    @staticmethod
    def run(db: Database, where: str):
        before = db.pool.counters.logical_reads
        result = db.sql(f"SELECT COUNT(*) AS n FROM t WHERE {where}")
        return result, db.pool.counters.logical_reads - before

    @pytest.fixture(scope="class")
    def db(self) -> Database:
        rng = np.random.default_rng(3)
        return self.clustered_db(
            (rng.permutation(20_000) // 10).astype(np.int64)
        )

    @pytest.mark.parametrize("where, count, strict", [
        ("a < 50", 500, True),
        ("a <= 49", 500, False),
        ("50 > a", 500, True),
        ("a >= 1990", 100, False),
        ("1990 <= a", 100, False),
        ("a > 1989", 100, True),
        ("a > 1989.5", 100, True),
        ("a < -3", 0, True),
    ])
    def test_reads_like_between(self, db, where, count, strict):
        between, between_reads = self.run(db, "a BETWEEN 0 AND 49")
        result, reads = self.run(db, where)
        assert result.scalar() == count
        assert "IndexRangeScan(t.a in " in result.plan
        assert ("Filter(" in result.plan) is strict
        assert reads <= between_reads + 1
        # the strict bound's Filter is estimated over the scan's rows,
        # not shrunk by its own selectivity a second time
        if strict and count:
            report = db.explain_analyze(
                f"SELECT COUNT(*) AS n FROM t WHERE {where}"
            )
            scan, = [s for s in report.nodes if "IndexRangeScan" in s.description]
            filt, = [s for s in report.nodes if s.description.startswith("Filter")]
            assert filt.est_rows == scan.est_rows

    def test_nan_keys_and_tail_rows(self):
        a = np.array([5.0, np.nan, 1.0, 3.0, np.nan, 4.0])
        db = self.clustered_db(a)
        db.sql("INSERT INTO t VALUES (2.5, 90), (CAST(NULL AS float), 91)")
        for where in ("a >= 3", "a > 3", "a < 4", "a <= 4", "a > -1"):
            result, _ = self.run(db, where)
            assert "IndexRangeScan" in result.plan
            op, value = where.split()[1:]
            keys = np.concatenate([a, [2.5, np.nan]])
            with np.errstate(invalid="ignore"):
                want = {"<": keys < float(value), "<=": keys <= float(value),
                        ">": keys > float(value),
                        ">=": keys >= float(value)}[op].sum()
            assert result.scalar() == want, where

    def test_string_literal_answers_as_a_scan(self, db):
        sql = "SELECT COUNT(*) AS n FROM t WHERE a < 'x'"
        assert "SeqScan" in db.explain(sql)
        with pytest.raises(TypeError):  # numpy has no int < str loop
            db.sql(sql)


class TestPrimaryKeyIndex:
    def test_seek(self, table):
        seek = PrimaryKeyIndex(table)
        assert seek.leading_key == "objid" and seek.tail_pages == 0
        row = seek.range_scan(42, 42)
        assert row["objid"].tolist() == [42]
        assert seek.range_scan(10_000, 10_000)["objid"].size == 0

    def test_seek_touches_one_page(self, table):
        pool = table.file.pool
        before = pool.counters.logical_reads
        PrimaryKeyIndex(table).range_scan(42, 42)
        assert pool.counters.logical_reads - before == 1

    def test_needs_a_primary_key(self):
        t = Table(schema("t", {"a": ColumnType.INT64}), BufferPool(10))
        with pytest.raises(EngineError):
            PrimaryKeyIndex(t)


# ----------------------------------------------------------------------
# interleaved writes and reads against a re-sorted numpy oracle
# ----------------------------------------------------------------------
def _oracle_db(seed: int, config: EngineConfig):
    rng = np.random.default_rng(seed)
    n = 600
    data = {
        "objid": rng.permutation(n).astype(np.int64) * 3,
        "zoneid": rng.integers(0, 30, n).astype(np.int64),
        "ra": np.round(rng.uniform(0.0, 10.0, n), 3),
        "v": rng.normal(size=n),
    }
    db = Database("oracle", config=config)
    db.create_table("g", data, primary_key="objid")
    db.create_clustered_index("g", "zoneid", "ra")
    db.analyze()
    order = np.lexsort((data["ra"], data["zoneid"]))
    return db, {k: v[order] for k, v in data.items()}


def _assert_sorted_base(db, oracle):
    table = db.table("g")
    base = table.base_rows
    zones, ra = oracle["zoneid"][:base], oracle["ra"][:base]
    resorted = np.lexsort((ra, zones))
    assert np.array_equal(resorted, np.arange(base))
    for name, want in oracle.items():
        assert np.array_equal(table.column(name), want)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("config", [
    EngineConfig(),
    EngineConfig(result_cache=True, feedback=True, query_store=True),
], ids=["default", "cache+feedback+store"])
def test_interleaved_writes_keep_the_order(seed, config):
    db, oracle = _oracle_db(seed, config)
    rng = np.random.default_rng([seed, 9])
    next_id = 100_000
    for _ in range(60):
        op = rng.choice(["insert", "delete", "update", "range", "point"])
        ids = oracle["objid"]
        if op == "insert":
            count = int(rng.integers(1, 6))
            new = {
                "objid": np.arange(next_id, next_id + count, dtype=np.int64),
                "zoneid": rng.integers(0, 30, count).astype(np.int64),
                "ra": np.round(rng.uniform(0.0, 10.0, count), 3),
                "v": rng.normal(size=count),
            }
            next_id += count
            values = ", ".join(
                f"({i}, {z}, {r!r}, {v!r})" for i, z, r, v in zip(
                    *(new[k].tolist() for k in ("objid", "zoneid", "ra", "v"))
                )
            )
            db.sql(f"INSERT INTO g VALUES {values}")
            oracle = {k: np.concatenate([oracle[k], new[k]]) for k in oracle}
        elif op == "delete":
            lo = int(rng.integers(0, 30))
            hit = (oracle["zoneid"] >= lo) & (oracle["zoneid"] <= lo)
            hit &= oracle["v"] > 0.5
            got = db.sql(
                f"DELETE FROM g WHERE zoneid BETWEEN {lo} AND {lo} AND v > 0.5"
            ).rows_affected
            assert got == hit.sum()
            oracle = {k: v[~hit] for k, v in oracle.items()}
        elif op == "update":
            cut = float(rng.normal())
            db.sql(f"UPDATE g SET v = v * 2 WHERE v < {cut!r}")
            oracle["v"] = np.where(oracle["v"] < cut, oracle["v"] * 2,
                                   oracle["v"])
        elif op == "range":
            lo = int(rng.integers(0, 28))
            hi = lo + int(rng.integers(0, 3))
            result = db.sql(
                f"SELECT objid, ra, v FROM g WHERE zoneid BETWEEN {lo} AND {hi}"
            )
            assert "IndexRangeScan(g.zoneid" in result.plan
            hit = (oracle["zoneid"] >= lo) & (oracle["zoneid"] <= hi)
            for name in ("objid", "ra", "v"):
                assert np.array_equal(result.column(name), oracle[name][hit])
        else:
            key = int(rng.choice(ids)) if rng.random() < 0.8 else 1
            result = db.sql(f"SELECT objid, zoneid, v FROM g WHERE objid = {key}")
            assert "[primary key]" in result.plan
            hit = oracle["objid"] == key
            for name in ("objid", "zoneid", "v"):
                assert np.array_equal(result.column(name), oracle[name][hit])
        _assert_sorted_base(db, oracle)
    # the rebuild folds the tail back in: the whole table is the oracle,
    # re-sorted
    db.create_clustered_index("g", "zoneid", "ra")
    order = np.lexsort((oracle["ra"], oracle["zoneid"]))
    oracle = {k: v[order] for k, v in oracle.items()}
    assert db.table("g").base_rows == db.table("g").row_count
    _assert_sorted_base(db, oracle)


def test_cost_charges_the_tail_but_never_more_than_a_scan():
    from repro.engine.optimizer.cost import CostModel
    from repro.engine.optimizer.rewrite import plan_cost
    from repro.engine.sql.parser import parse

    model = CostModel()
    fresh = model.index_range_scan(10, 1000, 50)
    assert model.index_range_scan(10, 1000, 50, 4) == fresh + 4 * model.page_io
    assert model.index_range_scan(1000, 1000, 50, 4) == model.seq_scan(1000, 50)

    db, _ = _oracle_db(5, EngineConfig())
    query = parse("SELECT objid FROM g WHERE zoneid BETWEEN 3 AND 4")
    before = plan_cost(db._executor.plan(query)[1])
    db.sql("INSERT INTO g SELECT objid + 1000000, zoneid, ra, v FROM g")
    assert db.table("g").clustered.tail_pages > 0
    assert plan_cost(db._executor.plan(query)[1]) > before
