"""Column-store tables with paged-storage accounting.

A :class:`Table` owns one numpy array per column plus a
:class:`~repro.engine.pages.PagedFile` describing how those rows would
lay out on 8 KiB pages.  Reads that go through :meth:`scan` /
:meth:`read_rows` touch the buffer pool and therefore show up in the
I/O statistics; internal array access (index construction, planners)
uses :meth:`column` and is free, mirroring how a real engine's memory
structures do not count as page I/O.
"""

from __future__ import annotations

import numpy as np

from repro.engine.pages import BufferPool, PagedFile, PageId
from repro.engine.schema import TableSchema
from repro.engine.types import ColumnType
from repro.errors import ColumnNotFoundError, SchemaError


class Table:
    """One relational table: schema + column arrays + page accounting."""

    def __init__(self, schema: TableSchema, pool: BufferPool):
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {
            c.name.lower(): np.empty(0, dtype=c.type.numpy_dtype)
            for c in schema.columns
        }
        self.file = PagedFile(pool, schema.row_byte_width)
        #: Optimizer statistics (a TableStats), set by ANALYZE; stay as
        #: of their collection time until the next ANALYZE, like a real
        #: engine's.
        self.stats = None
        #: Monotonic mutation counter: every insert/update/delete/
        #: truncate/reorder bumps it.  The result cache and materialized
        #: views key their freshness on this, so DML and loads
        #: invalidate structurally.
        self.version = 0
        #: Monotonic statistics generation: bumped each time ANALYZE
        #: rebuilds ``stats``.  The plan memo snapshots it so a plan
        #: chosen under old statistics is replanned after re-ANALYZE
        #: even when the data itself (``version``) has not moved.
        self.stats_version = 0
        #: Active page-compression plan (a
        #: :class:`~repro.engine.pages.CompressionPlan`), set by ANALYZE
        #: when ``EngineConfig.page_compression`` is on and at least one
        #: column beats raw storage; None means raw pages.
        self.compression = None
        self._pk_index: dict | None = None
        if schema.primary_key is not None:
            self._pk_index = {}

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        first = next(iter(self._columns.values()))
        return int(first.size)

    @property
    def page_count(self) -> int:
        return self.file.page_count(self.row_count)

    def __len__(self) -> int:
        return self.row_count

    def apply_compression(self, plan) -> None:
        """Adopt (or drop, with ``None``) a page-compression plan.

        Rows pack denser on compressed pages, so the paged file is
        repacked at the plan's effective row width; subsequent scans
        touch proportionally fewer pages, which is where the
        logical-read drop in ``engine.pool.*`` comes from.
        """
        self.compression = plan
        if plan is None:
            self.file.set_row_bytes(float(self.schema.row_byte_width))
        else:
            self.file.set_row_bytes(plan.row_bytes)

    # ------------------------------------------------------------------
    # raw column access (no I/O accounting; engine-internal)
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name.lower()]
        except KeyError:
            raise ColumnNotFoundError(
                f"table '{self.name}' has no column '{name}'"
            ) from None

    def columns_dict(self) -> dict[str, np.ndarray]:
        return dict(self._columns)

    # ------------------------------------------------------------------
    # accounted access paths
    # ------------------------------------------------------------------
    def scan(self) -> dict[str, np.ndarray]:
        """Full sequential scan: touches every page, returns all columns."""
        self.file.read_range(0, self.row_count)
        return dict(self._columns)

    def read_rows(self, row_start: int, row_stop: int) -> dict[str, np.ndarray]:
        """Read a contiguous row range (clustered-index range scan)."""
        row_start = max(0, row_start)
        row_stop = min(self.row_count, row_stop)
        self.file.read_range(row_start, row_stop)
        return {n: a[row_start:row_stop] for n, a in self._columns.items()}

    def touch_rows(self, rows: np.ndarray) -> None:
        """Account page reads for the given rows without fetching them."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            for page_no in np.unique(rows // self.file.rows_per_page):
                self.file.read_page(int(page_no))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, columns: dict[str, np.ndarray]) -> int:
        """Append rows; returns the number inserted.

        All schema columns must be present.  The primary key (if any) is
        checked for uniqueness against existing and incoming rows.
        """
        lowered = {k.lower(): v for k, v in columns.items()}
        missing = [
            c.name for c in self.schema.columns if c.name.lower() not in lowered
        ]
        if missing:
            raise SchemaError(f"insert into '{self.name}' missing columns {missing}")

        coerced: dict[str, np.ndarray] = {}
        n_new: int | None = None
        for col in self.schema.columns:
            arr = col.type.coerce(np.atleast_1d(lowered[col.name.lower()]))
            if n_new is None:
                n_new = arr.size
            elif arr.size != n_new:
                raise SchemaError(
                    f"insert into '{self.name}': ragged column lengths"
                )
            coerced[col.name.lower()] = arr
        assert n_new is not None

        if self._pk_index is not None and n_new:
            pk = self.schema.primary_key.lower()  # type: ignore[union-attr]
            new_keys = coerced[pk]
            seen = self._pk_index
            for key in new_keys.tolist():
                if key in seen:
                    raise SchemaError(
                        f"duplicate primary key {key!r} in table '{self.name}'"
                    )
            base = self.row_count
            for offset, key in enumerate(new_keys.tolist()):
                seen[key] = base + offset

        start = self.row_count
        for name, arr in coerced.items():
            self._columns[name] = np.concatenate([self._columns[name], arr])
        self.file.write_range(start, start + n_new)
        if n_new:
            self.version += 1
        return n_new

    def truncate(self) -> None:
        """Remove all rows (the paper's ``TRUNCATE TABLE`` steps)."""
        for col in self.schema.columns:
            self._columns[col.name.lower()] = np.empty(
                0, dtype=col.type.numpy_dtype
            )
        if self._pk_index is not None:
            self._pk_index = {}
        self.file.invalidate()
        self.version += 1

    def delete_rows(self, rows: np.ndarray) -> int:
        """Delete rows by position; rewrites the table (counted as writes)."""
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return 0
        keep = np.ones(self.row_count, dtype=bool)
        keep[rows] = False
        for name, arr in self._columns.items():
            self._columns[name] = arr[keep]
        self._rebuild_pk()
        self.file.write_range(0, self.row_count)
        self.version += 1
        return int(rows.size)

    def update_rows(self, rows: np.ndarray, values: dict[str, np.ndarray]) -> int:
        """Overwrite columns at the given row positions (UPDATE path)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        for name, new_values in values.items():
            column = self.schema.column(name)
            arr = self._columns[column.name.lower()]
            arr[rows] = column.type.coerce(np.asarray(new_values))
        pk = self.schema.primary_key
        if pk is not None and pk.lower() in {n.lower() for n in values}:
            self._rebuild_pk()
        for page_no in np.unique(rows // self.file.rows_per_page):
            self.file.pool.write(PageId(self.file.file_id, int(page_no)))
        self.version += 1
        return int(rows.size)

    def reorder(self, order: np.ndarray) -> None:
        """Physically re-sort rows (clustered-index build); counted as a
        full rewrite, which is what ``spZone``'s cost is made of."""
        order = np.asarray(order, dtype=np.int64)
        if order.size != self.row_count:
            raise SchemaError("reorder permutation length mismatch")
        for name, arr in self._columns.items():
            self._columns[name] = arr[order]
        self._rebuild_pk()
        self.file.read_range(0, self.row_count)
        self.file.write_range(0, self.row_count)
        # physical order changed: uncorrelated cached results may rely
        # on scan order, so a reorder is a version event too
        self.version += 1

    def _rebuild_pk(self) -> None:
        if self._pk_index is None:
            return
        pk = self.schema.primary_key.lower()  # type: ignore[union-attr]
        self._pk_index = {
            key: row for row, key in enumerate(self._columns[pk].tolist())
        }

    # ------------------------------------------------------------------
    def pk_lookup(self, key) -> int | None:
        """Primary-key point lookup; touches the row's page on a hit."""
        if self._pk_index is None:
            raise SchemaError(f"table '{self.name}' has no primary key")
        row = self._pk_index.get(key)
        if row is not None:
            self.file.read_page(self.file.page_of_row(row))
        return row
