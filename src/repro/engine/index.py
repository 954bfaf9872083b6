"""The secondary access paths: the clustered (sorted) index and
primary-key seeks.

The paper's ``spZone`` task "assigns a ZoneID and creates a
clustered-index on the data" — that is exactly
:meth:`ClusteredIndex.build`: compute the sort key, physically reorder
the table (a full read + write, which is why spZone is I/O-heavy in
Table 1), and afterwards serve range predicates as contiguous page
scans instead of full-table scans.  Writes keep that order (see
:mod:`repro.engine.table`): a range scan reads the matching slice of
the sorted base plus a filtered pass over the unsorted append tail.

Both indexes share one range interface — ``table``, ``keys``,
``leading_key``, ``tail_pages`` and ``range_scan(lo, hi)`` — so one
plan node, :class:`~repro.engine.operators.IndexRangeScan`, serves
both.  Scans return owned arrays in physical order: the same rows, in
the same order, that a sequential scan plus filter returns.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.engine.table import Table
from repro.errors import EngineError


class ClusteredIndex:
    """Physical sort order of a table over one or more key columns.

    Keys are listed most-significant first, e.g. ``("zoneid", "ra")``.
    Building the index rewrites the table.
    """

    def __init__(self, table: Table, keys: tuple[str, ...]):
        if not keys:
            raise EngineError("clustered index needs at least one key column")
        for key in keys:
            if not table.schema.has_column(key):
                raise EngineError(
                    f"table '{table.name}' has no column '{key}' to index"
                )
        # weak: the table holds its clustered index, and a cycle would
        # keep a dropped table's columns alive until the collector ran
        self._table = weakref.ref(table)
        self.keys = tuple(k.lower() for k in keys)
        self._built = False

    @property
    def table(self) -> Table:
        table = self._table()
        if table is None:
            raise EngineError("clustered index of a dropped table")
        return table

    def build(self) -> None:
        """Sort the table by the key columns (stable, last key least
        significant); the whole table becomes the sorted base."""
        arrays = [self.table.column(k) for k in reversed(self.keys)]
        order = np.lexsort(arrays)
        self.table.reorder(order, clustered=self)
        self._built = True

    @property
    def leading_key(self) -> str:
        return self.keys[0]

    def _base_rows(self) -> int:
        """Rows at the front of the table in this index's key order.

        0 once a key-column UPDATE, a TRUNCATE or a rebuild on other
        keys ended it: a plan still holding the index then reads the
        whole table as tail and stays correct.
        """
        if not self._built:
            raise EngineError("clustered index used before build()")
        current = self.table.clustered
        if current is None or current.keys != self.keys:
            return 0
        return self.table.base_rows

    def range_rows(self, lo, hi) -> tuple[int, int]:
        """Row range [start, stop) of the sorted base with
        ``lo <= leading_key <= hi``."""
        key = self.table.column(self.leading_key)[: self._base_rows()]
        start = int(np.searchsorted(key, lo, side="left"))
        stop = int(np.searchsorted(key, hi, side="right"))
        return start, stop

    @property
    def tail_pages(self) -> int:
        """Pages of the unsorted tail, which every range scan reads."""
        table = self.table
        base, n = self._base_rows(), table.row_count
        if base >= n:
            return 0
        return table.page_count - table.file.page_of_row(base)

    def range_scan(self, lo, hi) -> dict[str, np.ndarray]:
        """Read (with page accounting) all rows in the leading-key range:
        the base slice, then the tail rows that match."""
        start, stop = self.range_rows(lo, hi)
        base, n = self._base_rows(), self.table.row_count
        rows = np.arange(start, stop, dtype=np.int64)
        if base < n:
            tail = self.table.column(self.leading_key)[base:]
            hits = np.flatnonzero((tail >= lo) & (tail <= hi)) + base
            rows = np.concatenate([rows, hits])
        return self.table.fetch(rows, (start, stop), (base, n))


class PrimaryKeyIndex:
    """Seeks on a table's primary key, through the clustered range
    interface.

    The index itself is the one :class:`~repro.engine.table.Table`
    maintains on every write; this class only reads it.  A seek
    touches just the pages of the rows it returns.
    """

    #: A primary-key seek never reads an append tail.
    tail_pages = 0

    def __init__(self, table: Table):
        if table.schema.primary_key is None:
            raise EngineError(f"table '{table.name}' has no primary key")
        self.table = table
        self.keys = (table.schema.primary_key.lower(),)

    @property
    def leading_key(self) -> str:
        return self.keys[0]

    def range_scan(self, lo, hi) -> dict[str, np.ndarray]:
        rows = self.table.pk_rows(lo, hi)
        return self.table.fetch(
            rows, *((row, row + 1) for row in rows.tolist())
        )
