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
both; :func:`range_bounds` says which conjuncts such a range serves.
Scans return owned arrays in physical order: the same rows, in the
same order, that a sequential scan plus filter returns.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.engine.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    literal_value,
)
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
        ``lo <= leading_key <= hi``; a None end is open.  NaN keys sort
        last, and an open upper end stops before them."""
        key = self.table.column(self.leading_key)[: self._base_rows()]
        start = 0 if lo is None else int(np.searchsorted(key, lo, side="left"))
        if hi is not None:
            stop = int(np.searchsorted(key, hi, side="right"))
        elif key.dtype.kind == "f":
            stop = int(np.searchsorted(key, np.nan, side="left"))
        else:
            stop = key.size
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
        """Read (with page accounting) all rows in the leading-key range
        (a None end is open): the base slice, then the tail rows that
        match."""
        start, stop = self.range_rows(lo, hi)
        base, n = self._base_rows(), self.table.row_count
        rows = np.arange(start, stop, dtype=np.int64)
        if base < n:
            tail = self.table.column(self.leading_key)[base:]
            inside = np.ones(tail.size, dtype=bool)
            if lo is not None:
                inside &= tail >= lo
            if hi is not None:
                inside &= tail <= hi
            rows = np.concatenate([rows, np.flatnonzero(inside) + base])
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


#: A comparison read with its operands swapped.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _is_column(expr: Expr, key: str) -> bool:
    return isinstance(expr, ColumnRef) and expr.name.lower() == key.lower()


def range_bounds(
    conjunct: Expr, key: str, open_ended: bool = False
) -> tuple[object, object, bool] | None:
    """Match a conjunct an index range scan on ``key`` can serve.

    ``key BETWEEN lit AND lit`` and ``key = lit`` are closed ranges.
    With ``open_ended`` (a numeric key), ``key < <= > >= lit`` against
    a number, in either operand order, is a range with one end None.
    Returns ``(lo, hi, exact)``: ``exact`` is False for a strict bound,
    whose scan reads the rows equal to the literal too, so its conjunct
    stays as a Filter above the scan.
    """
    if isinstance(conjunct, Between) and _is_column(conjunct.value, key):
        lo = literal_value(conjunct.low)
        hi = literal_value(conjunct.high)
        if lo is not None and hi is not None:
            return lo, hi, True
    if not isinstance(conjunct, BinaryOp):
        return None
    if conjunct.op == "=" and _is_column(conjunct.left, key):
        value = literal_value(conjunct.right)
        if value is not None:
            return value, value, True
    if not open_ended or conjunct.op not in _FLIPPED:
        return None
    op, value = conjunct.op, literal_value(conjunct.right)
    if not _is_column(conjunct.left, key):
        if not _is_column(conjunct.right, key):
            return None
        op, value = _FLIPPED[op], literal_value(conjunct.left)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value != value:
        return None  # not a number, or NaN, which no row compares to
    if op in ("<", "<="):
        return None, value, op == "<="
    return value, None, op == ">="
