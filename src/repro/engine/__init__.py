"""A small column-store relational engine with a SQL front end.

The substrate standing in for Microsoft SQL Server 2000: typed tables
over 8 KiB pages with an LRU buffer pool (I/O accounting), clustered
indexes, hash/nested-loop/cross joins, grouped aggregation,
and a SQL subset (SELECT/INSERT/UPDATE/DELETE/CREATE/DROP/TRUNCATE).
"""

from repro.engine.database import Database, TableFunction
from repro.engine.instrument import AnalyzeReport
from repro.engine.pages import BufferPool, PAGE_BYTES
from repro.engine.schema import Column, TableSchema, schema
from repro.engine.stats import IOCounters, TaskStats, TaskTimer
from repro.engine.table import Table
from repro.engine.types import ColumnType

__all__ = [
    "BufferPool",
    "Column",
    "ColumnType",
    "AnalyzeReport",
    "Database",
    "IOCounters",
    "PAGE_BYTES",
    "Table",
    "TableSchema",
    "TaskStats",
    "TableFunction",
    "TaskTimer",
    "schema",
]
