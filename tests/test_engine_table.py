"""Column-store tables: mutation, accounting, primary keys."""

import numpy as np
import pytest

from repro.engine.pages import BufferPool
from repro.engine.schema import schema
from repro.engine.table import Table
from repro.engine.types import ColumnType
from repro.errors import ColumnNotFoundError, SchemaError


@pytest.fixture()
def table() -> Table:
    s = schema(
        "galaxy",
        {"objid": ColumnType.INT64, "ra": ColumnType.FLOAT64},
        primary_key="objid",
    )
    t = Table(s, BufferPool(1000))
    t.insert({"objid": [1, 2, 3], "ra": [10.0, 20.0, 30.0]})
    return t


class TestInsert:
    def test_row_count(self, table):
        assert table.row_count == 3
        assert len(table) == 3

    def test_insert_appends(self, table):
        table.insert({"objid": [4], "ra": [40.0]})
        assert table.row_count == 4
        assert table.column("ra")[-1] == 40.0

    def test_missing_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"objid": [9]})

    def test_ragged_insert_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"objid": [4, 5], "ra": [1.0]})

    def test_duplicate_pk_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"objid": [1], "ra": [99.0]})

    def test_insert_counts_writes(self):
        s = schema("t", {"a": ColumnType.INT64})
        pool = BufferPool(1000)
        t = Table(s, pool)
        t.insert({"a": np.arange(5000)})
        assert pool.counters.writes == t.page_count


class TestAccess:
    def test_scan_touches_all_pages(self, table):
        pool = table.file.pool
        before = pool.counters.logical_reads
        result = table.scan()
        assert set(result) == {"objid", "ra"}
        assert pool.counters.logical_reads - before == table.page_count

    def test_column_without_accounting(self, table):
        before = table.file.pool.counters.logical_reads
        table.column("ra")
        assert table.file.pool.counters.logical_reads == before

    def test_unknown_column(self, table):
        with pytest.raises(ColumnNotFoundError):
            table.column("nope")

    def test_fetch_charges_each_page_once(self):
        t = Table(schema("t", {"a": ColumnType.INT64}), BufferPool(1000))
        t.insert({"a": np.arange(5000)})
        per_page = t.file.rows_per_page
        pool = t.file.pool
        before = pool.counters.logical_reads
        rows = np.array([0, 1, per_page, 3 * per_page])
        spans = [(0, 2), (2, per_page + 1), (3 * per_page, 3 * per_page + 1)]
        got = t.fetch(rows, *spans)
        assert pool.counters.logical_reads - before == 3  # pages 0, 1, 3
        assert got["a"].tolist() == rows.tolist()
        assert not np.shares_memory(got["a"], t.column("a"))

    def test_pk_lookup(self, table):
        assert table.pk_lookup(2) == 1
        assert table.pk_lookup(99) is None

    def test_pk_lookup_without_pk(self):
        t = Table(schema("t", {"a": ColumnType.INT64}), BufferPool(10))
        with pytest.raises(SchemaError):
            t.pk_lookup(1)

    def test_touch_rows_accounting(self, table):
        pool = table.file.pool
        before = pool.counters.logical_reads
        table.touch_rows(np.array([0, 1, 2]))
        assert pool.counters.logical_reads - before == table.page_count


class TestMutation:
    def test_truncate(self, table):
        table.truncate()
        assert table.row_count == 0
        table.insert({"objid": [1], "ra": [5.0]})  # pk index was reset
        assert table.row_count == 1

    def test_delete_rows(self, table):
        assert table.delete_rows(np.array([1])) == 1
        assert table.column("objid").tolist() == [1, 3]
        assert table.pk_lookup(2) is None
        assert table.pk_lookup(3) == 1

    def test_delete_nothing(self, table):
        assert table.delete_rows(np.array([], dtype=np.int64)) == 0

    def test_update_rows(self, table):
        table.update_rows(np.array([0]), {"ra": np.array([99.0])})
        assert table.column("ra")[0] == 99.0

    def test_update_pk_rebuilds_index(self, table):
        table.update_rows(np.array([0]), {"objid": np.array([77])})
        assert table.pk_lookup(77) == 0
        assert table.pk_lookup(1) is None

    def test_reorder(self, table):
        table.reorder(np.array([2, 1, 0]))
        assert table.column("objid").tolist() == [3, 2, 1]
        assert table.pk_lookup(3) == 0

    def test_reorder_bad_length(self, table):
        with pytest.raises(SchemaError):
            table.reorder(np.array([0, 1]))

    def test_duplicate_pk_within_one_insert_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"objid": [8, 9, 8], "ra": [1.0, 2.0, 3.0]})
        assert table.row_count == 3 and table.pk_lookup(9) is None

    def test_update_is_copy_on_write(self, table):
        held = table.column("ra")
        table.update_rows(np.array([0]), {"ra": np.array([99.0])})
        assert held[0] == 10.0 and table.column("ra")[0] == 99.0

    def test_modified_rows_counts_every_write(self, table):
        table.insert({"objid": [4, 5], "ra": [1.0, 2.0]})
        table.update_rows(np.array([0, 1]), {"ra": np.array([0.0, 0.0])})
        table.delete_rows(np.array([4]))
        assert table.modified_rows == 3 + 2 + 2 + 1  # load + writes
        table.truncate()
        assert table.modified_rows == 8 + 4


class TestReorderKeepsPrimaryKeyIndex:
    """``reorder`` maps the primary-key index through the permutation
    instead of re-sorting it; the result must equal a fresh build."""

    @staticmethod
    def assert_fresh(table):
        rows, keys = table._pk_rows.copy(), table._pk_keys.copy()
        table._rebuild_pk()
        assert rows.dtype == table._pk_rows.dtype
        assert np.array_equal(rows, table._pk_rows)
        assert keys.dtype == table._pk_keys.dtype
        assert np.array_equal(keys, table._pk_keys, equal_nan=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_permutations(self, seed):
        rng = np.random.default_rng(seed)
        s = schema(
            "t", {"k": ColumnType.INT64, "v": ColumnType.FLOAT64},
            primary_key="k",
        )
        t = Table(s, BufferPool(1000))
        n = int(rng.integers(1, 300))
        t.insert({"k": rng.permutation(10 * n)[:n], "v": rng.normal(size=n)})
        for _ in range(3):
            t.reorder(rng.permutation(n))
            self.assert_fresh(t)

    @pytest.mark.parametrize("keys", [
        [3.0, np.nan, 1.0, np.nan, 2.0],  # NaN keys tie
        [5.0, 1.0, 4.0, 2.0],
    ])
    def test_float_keys_with_and_without_ties(self, keys):
        s = schema("f", {"k": ColumnType.FLOAT64}, primary_key="k")
        t = Table(s, BufferPool(1000))
        t.insert({"k": keys})
        t.reorder(np.arange(len(keys))[::-1])
        self.assert_fresh(t)

    def test_duplicates_made_by_update(self, table):
        table.update_rows(np.array([0, 2]), {"objid": np.array([7, 7])})
        table.reorder(np.array([2, 1, 0]))
        self.assert_fresh(table)

    def test_truncate_insert_then_clustered_build(self):
        from repro.engine.index import ClusteredIndex

        rng = np.random.default_rng(11)
        s = schema(
            "zone", {"objid": ColumnType.INT64, "zoneid": ColumnType.INT64},
            primary_key="objid",
        )
        t = Table(s, BufferPool(1000))
        for n in (50, 80, 0, 120):
            t.truncate()
            t.insert({"objid": rng.permutation(1000)[:n],
                      "zoneid": rng.integers(0, 9, n)})
            ClusteredIndex(t, ("zoneid",)).build()
            self.assert_fresh(t)
            assert np.all(np.diff(t.column("zoneid")) >= 0)
