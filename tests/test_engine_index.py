"""The clustered index."""

import numpy as np
import pytest

from repro.engine.index import ClusteredIndex
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

