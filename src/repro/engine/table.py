"""Column-store tables with paged-storage accounting.

A :class:`Table` owns one numpy array per column plus a
:class:`~repro.engine.pages.PagedFile` describing how those rows would
lay out on 8 KiB pages.  Reads that go through :meth:`scan` /
:meth:`fetch` touch the buffer pool and therefore show up in the
I/O statistics; internal array access (index construction, planners)
uses :meth:`column` and is free, mirroring how a real engine's memory
structures do not count as page I/O.

A clustered table is a sorted base ``[0, base_rows)`` plus an unsorted
append tail: INSERT appends, DELETE shrinks the base by the base rows it
removes, an UPDATE of a non-key column keeps the order, and only a
key-column UPDATE, a TRUNCATE or a reorder ends it.  Every mutation
path keeps that order, the primary-key index and the modification
count itself, so no caller has to remember a hook.  Column arrays are
never written in place (UPDATE replaces the array), so a batch handed
out earlier never changes under its holder.
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
        #: rebuilds ``stats`` and each time the physical order the
        #: planner reads (``clustered``) changes.  The plan memo
        #: snapshots it, so a plan chosen under old statistics or an old
        #: order re-plans; plain DML leaves it alone.
        self.stats_version = 0
        #: Active page compression plan (a
        #: :class:`~repro.engine.pages.CompressionPlan`), set by ANALYZE
        #: when at least one column beats raw storage; None means raw
        #: pages.
        self.compression = None
        #: The :class:`~repro.engine.index.ClusteredIndex` whose key
        #: order rows ``[0, base_rows)`` follow, or None; rows from
        #: ``base_rows`` on are the unsorted append tail.
        self.clustered = None
        self.base_rows = 0
        #: Rows inserted, updated or deleted since the last ANALYZE (the
        #: staleness count of the feedback loop's re-ANALYZE rule).
        self.modified_rows = 0
        # primary-key index: the keys in sorted order and the row each
        # one lives on (None without a primary key)
        self._pk_keys: np.ndarray | None = None
        self._pk_rows: np.ndarray | None = None
        if schema.primary_key is not None:
            self._rebuild_pk()

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
        """Adopt (or drop, with ``None``) a page compression plan.

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

    def fetch(self, rows: np.ndarray, *spans: tuple[int, int]) -> dict[str, np.ndarray]:
        """The given row positions as owned arrays (index access paths).

        Charges every page overlapping the row ``spans`` — ascending,
        non-overlapping ``[start, stop)`` ranges the caller read to find
        ``rows`` — each page once.  The arrays are copies, so a result
        never pins, or shares memory with, the table's storage.
        """
        touched = -1
        for start, stop in spans:
            if stop <= start:
                continue
            last = self.file.page_of_row(stop - 1)
            for page_no in range(
                max(self.file.page_of_row(start), touched + 1), last + 1
            ):
                self.file.read_page(page_no)
            touched = max(touched, last)
        return {n: a[rows] for n, a in self._columns.items()}

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

        start = self.row_count
        if self._pk_keys is not None and n_new:
            self._add_pk(coerced[self.schema.primary_key.lower()], start)
        for name, arr in coerced.items():
            self._columns[name] = np.concatenate([self._columns[name], arr])
        self.file.write_range(start, start + n_new)
        if n_new:
            self.version += 1
            self.modified_rows += n_new
        return n_new

    def truncate(self) -> None:
        """Remove all rows (the paper's ``TRUNCATE TABLE`` steps); ends
        the clustered order."""
        self.modified_rows += self.row_count
        for col in self.schema.columns:
            self._columns[col.name.lower()] = np.empty(
                0, dtype=col.type.numpy_dtype
            )
        self._rebuild_pk()
        self._end_order()
        self.file.invalidate()
        self.version += 1

    def delete_rows(self, rows: np.ndarray) -> int:
        """Delete rows by position; rewrites the table (counted as writes).

        The survivors keep their relative order, so the sorted base only
        shrinks by the base rows deleted.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return 0
        keep = np.ones(self.row_count, dtype=bool)
        keep[rows] = False
        for name, arr in self._columns.items():
            self._columns[name] = arr[keep]
        self.base_rows -= int(np.searchsorted(rows, self.base_rows))
        if self._pk_keys is not None:
            # drop the deleted rows and shift the survivors down by the
            # number of deleted rows in front of them
            kept = keep[self._pk_rows]
            survivors = self._pk_rows[kept]
            self._pk_keys = self._pk_keys[kept]
            self._pk_rows = survivors - np.searchsorted(rows, survivors)
        self.file.write_range(0, self.row_count)
        self.version += 1
        self.modified_rows += int(rows.size)
        return int(rows.size)

    def update_rows(self, rows: np.ndarray, values: dict[str, np.ndarray]) -> int:
        """Overwrite columns at the given row positions (UPDATE path).

        Copy-on-write: each updated column gets a new array, so batches
        returned earlier keep the values they were read with.  Updating
        a clustered key column ends the clustered order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        updated = set()
        for name, new_values in values.items():
            column = self.schema.column(name)
            key = column.name.lower()
            arr = self._columns[key].copy()
            arr[rows] = column.type.coerce(np.asarray(new_values))
            self._columns[key] = arr
            updated.add(key)
        pk = self.schema.primary_key
        if pk is not None and pk.lower() in updated:
            self._rebuild_pk()
        if self.clustered is not None and updated & set(self.clustered.keys):
            self._end_order()
        for page_no in np.unique(rows // self.file.rows_per_page):
            self.file.pool.write(PageId(self.file.file_id, int(page_no)))
        self.version += 1
        self.modified_rows += int(rows.size)
        return int(rows.size)

    def reorder(self, order: np.ndarray, clustered=None) -> None:
        """Physically re-sort rows; counted as a full rewrite, which is
        what ``spZone``'s cost is made of.

        ``clustered`` is the index whose key order ``order`` produces
        (its build); any other permutation leaves the table unclustered.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.size != self.row_count:
            raise SchemaError("reorder permutation length mismatch")
        for name, arr in self._columns.items():
            self._columns[name] = arr[order]
        self._reorder_pk(order)
        self.clustered = clustered
        self.base_rows = self.row_count if clustered is not None else 0
        self.file.read_range(0, self.row_count)
        self.file.write_range(0, self.row_count)
        # physical order changed: uncorrelated cached results may rely
        # on scan order, so a reorder is a version event too, and plans
        # chosen for the old order are no longer fresh
        self.version += 1
        self.stats_version += 1

    def _end_order(self) -> None:
        self.clustered = None
        self.base_rows = 0
        self.stats_version += 1

    # ------------------------------------------------------------------
    # primary-key index
    # ------------------------------------------------------------------
    def _rebuild_pk(self) -> None:
        if self.schema.primary_key is None:
            return
        keys = self._columns[self.schema.primary_key.lower()]
        self._pk_rows = np.argsort(keys, kind="stable").astype(np.int64)
        self._pk_keys = keys[self._pk_rows]

    def _reorder_pk(self, order: np.ndarray) -> None:
        """Follow a row permutation: the sorted keys stay, and each one's
        row moves to its new position, in O(n) instead of a re-sort.
        Tied keys (duplicates an UPDATE made, or NaNs) must list their
        rows ascending, so they re-sort."""
        keys = self._pk_keys
        if keys is None:
            return
        tied = keys.size > 1 and (
            bool(np.any(keys[1:] == keys[:-1]))
            or (keys.dtype.kind == "f" and bool(np.isnan(keys[-2])))
        )
        if tied:
            self._rebuild_pk()
            return
        moved = np.empty_like(order)
        moved[order] = np.arange(order.size, dtype=order.dtype)
        self._pk_rows = moved[self._pk_rows]

    def _add_pk(self, new_keys: np.ndarray, first_row: int) -> None:
        """Merge appended keys into the index; rejects duplicates
        against existing and incoming keys."""
        order = np.argsort(new_keys, kind="stable")
        incoming = new_keys[order]
        at = np.searchsorted(self._pk_keys, incoming)
        clash = np.zeros(incoming.size, dtype=bool)
        clash[1:] = incoming[1:] == incoming[:-1]
        if self._pk_keys.size:
            found = self._pk_keys[np.minimum(at, self._pk_keys.size - 1)]
            clash |= found == incoming
        if clash.any():
            key = incoming[clash].tolist()[0]
            raise SchemaError(
                f"duplicate primary key {key!r} in table '{self.name}'"
            )
        self._pk_keys = np.insert(self._pk_keys, at, incoming)
        self._pk_rows = np.insert(self._pk_rows, at, first_row + order)

    def pk_rows(self, lo, hi) -> np.ndarray:
        """Positions of the rows with ``lo <= primary key <= hi``, in
        physical order; no I/O accounting."""
        if self._pk_keys is None:
            raise SchemaError(f"table '{self.name}' has no primary key")
        start = np.searchsorted(self._pk_keys, lo, side="left")
        stop = np.searchsorted(self._pk_keys, hi, side="right")
        return np.sort(self._pk_rows[start:stop])

    def pk_lookup(self, key) -> int | None:
        """Primary-key point lookup; touches the row's page on a hit."""
        rows = self.pk_rows(key, key)
        if rows.size == 0:
            return None
        row = int(rows[0])
        self.file.read_page(self.file.page_of_row(row))
        return row
