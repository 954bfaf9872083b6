"""MyDB: the per-user server-side database of CasJobs.

"The query output can be stored on the server-side in the user's
personal relational database (MyDB).  Users may upload and download
data to and from their MyDB.  They can correlate data inside MyDB or
with the main database ...  CasJobs allows creating new tables,
indexes, and stored procedures."

A :class:`MyDB` wraps one engine :class:`~repro.engine.database.Database`
with a row quota, upload/download helpers, and cross-database query
support (queries see the user's tables plus read-only views of the
site's shared catalog tables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.database import Database
from repro.engine.sql.executor import QueryResult
from repro.errors import CasJobsError, QuotaExceededError

#: Default MyDB quota, in rows (the real service used ~500 MB).
DEFAULT_QUOTA_ROWS = 5_000_000


@dataclass
class MyDBInfo:
    owner: str
    tables: list[str]
    rows_used: int
    quota_rows: int


class MyDB:
    """One user's personal database."""

    def __init__(
        self,
        owner: str,
        quota_rows: int = DEFAULT_QUOTA_ROWS,
        engine_config=None,
    ):
        if not owner:
            raise CasJobsError("MyDB owner must be non-empty")
        if quota_rows <= 0:
            raise CasJobsError("quota must be positive")
        self.owner = owner
        self.quota_rows = quota_rows
        self.database = (
            Database(f"mydb_{owner}")
            if engine_config is None
            else Database(f"mydb_{owner}", config=engine_config)
        )

    # ------------------------------------------------------------------
    def rows_used(self) -> int:
        return sum(
            self.database.table(name).row_count
            for name in self.database.table_names()
        )

    def at_quota(self) -> bool:
        return self.rows_used() >= self.quota_rows

    def _check_quota(self, incoming_rows: int, replacing: str | None = None) -> None:
        used = self.rows_used()
        if replacing is not None and self.database.has_table(replacing):
            # replacing a table frees its rows first — a re-spool into
            # the same output table must not be billed twice
            used -= self.database.table(replacing).row_count
        if used + incoming_rows > self.quota_rows:
            raise QuotaExceededError(
                f"MyDB quota exceeded for '{self.owner}': "
                f"{used} + {incoming_rows} > {self.quota_rows}"
            )

    # ------------------------------------------------------------------
    def upload(self, name: str, columns: dict[str, np.ndarray],
               primary_key: str | None = None) -> None:
        """Upload a table into MyDB (quota enforced)."""
        n_rows = int(next(iter(columns.values())).__len__()) if columns else 0
        self._check_quota(n_rows)
        self.database.create_table(name, columns, primary_key=primary_key)

    def download(self, name: str) -> dict[str, np.ndarray]:
        """Download a MyDB table as column arrays."""
        table = self.database.table(name)
        return table.scan()

    def store_result(self, name: str, result: QueryResult) -> None:
        """Persist a query result as a MyDB table (the INTO MyDB path)."""
        self._check_quota(result.row_count, replacing=name)
        if self.database.has_table(name):
            self.database.drop_table(name)
        self.database.create_table(name, dict(result.columns))

    def drop(self, name: str) -> None:
        self.database.drop_table(name)

    def info(self) -> MyDBInfo:
        return MyDBInfo(
            owner=self.owner,
            tables=self.database.table_names(),
            rows_used=self.rows_used(),
            quota_rows=self.quota_rows,
        )
