"""The secondary access path: the clustered (sorted) index.

The paper's ``spZone`` task "assigns a ZoneID and creates a
clustered-index on the data" — that is exactly
:meth:`ClusteredIndex.build`: compute the sort key, physically reorder
the table (a full read + write, which is why spZone is I/O-heavy in
Table 1), and afterwards serve range predicates as contiguous page
scans instead of full-table scans.
"""

from __future__ import annotations

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
        self.table = table
        self.keys = tuple(k.lower() for k in keys)
        self._built = False

    def build(self) -> None:
        """Sort the table by the key columns (stable, last key least
        significant) and remember the sorted leading-key array."""
        arrays = [self.table.column(k) for k in reversed(self.keys)]
        order = np.lexsort(arrays)
        self.table.reorder(order)
        self._built = True

    @property
    def leading_key(self) -> str:
        return self.keys[0]

    def _require_built(self) -> None:
        if not self._built:
            raise EngineError("clustered index used before build()")

    def range_rows(self, lo, hi) -> tuple[int, int]:
        """Row range [start, stop) with ``lo <= leading_key <= hi``."""
        self._require_built()
        key = self.table.column(self.leading_key)
        start = int(np.searchsorted(key, lo, side="left"))
        stop = int(np.searchsorted(key, hi, side="right"))
        return start, stop

    def range_scan(self, lo, hi) -> dict[str, np.ndarray]:
        """Read (with page accounting) all rows in the leading-key range."""
        start, stop = self.range_rows(lo, hi)
        return self.table.read_rows(start, stop)
