"""The semantic result cache: repeated statements skip the engine.

"Batch is back: CasJobs" exists because millions of SkyServer users
re-run near-identical cone searches and cutouts; the server-side answer
is to cache.  A :class:`ResultCache` stores finished SELECT results
keyed on ``(fingerprint, table versions)``:

* the **fingerprint** hashes the *normalized* statement (re-rendered
  through the one true printer, so formatting and alias spelling don't
  fragment the cache) together with the planner mode;
* the **versions** tuple snapshots the version counter of every base
  table the statement touches (views and materialized views are
  resolved down to their sources), so any DML or load since the entry
  was stored makes the key miss — invalidation is structural, not
  best-effort.

Entries carry byte-size accounting and are evicted LRU
when the cache exceeds its byte or entry budget.  Hits return deep
copies, so callers can mutate results without poisoning the cache.
Hit/miss/eviction/invalidation counters feed the process-wide obs
metrics registry.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from repro.engine.expressions import Expr
from repro.engine.sql.ast import (
    Exists,
    InSubquery,
    SelectStatement,
    TableRef,
    UnionStatement,
)
from repro.engine.sql.printer import statement_to_sql
from repro.errors import ReproError
from repro.obs.metrics import count_swallowed_error, get_metrics

#: Fully-qualified cache key: (statement fingerprint, table versions).
CacheKey = tuple[str, tuple[tuple[str, int], ...]]


def normalize_statement(stmt: SelectStatement | UnionStatement) -> str:
    """Canonical SQL text of a statement (whitespace/case-insensitive)."""
    return statement_to_sql(stmt)


@dataclass(frozen=True)
class PlanKey:
    """What :func:`plan_fingerprint` learned about one statement.

    Unpacks as ``(fingerprint, sql, tables)``.  ``rewritten`` is the
    ``(statement, firings)`` of the unpriced rewrite pass the
    fingerprint was taken over (None with rewrites off): the SELECT
    path hands it to ``Planner.plan_select`` so a statement is
    rewritten once.
    """

    fingerprint: str
    sql: str
    tables: set[str]
    rewritten: tuple | None = None

    def __iter__(self):
        return iter((self.fingerprint, self.sql, self.tables))

    def cache_key(self, database) -> CacheKey:
        """The result-cache key: fingerprint plus the live version of
        every table read, so DML or a load makes the next lookup miss."""
        return (
            self.fingerprint,
            tuple(sorted(database.table_versions(self.tables).items())),
        )


def plan_fingerprint(stmt, database) -> PlanKey | None:
    """The :class:`PlanKey` of a trackable SELECT (or UNION), else None.

    The one keying rule shared by the result cache, the plan memo and
    the Query Store: the fingerprint hashes the printer-normalized,
    *post-rewrite* statement under a mode tag (``cost+rewrite`` etc.),
    so rewrite-equivalent spellings share one identity while
    rewrites-on and rewrites-off instances never cross-match (a cached
    entry carries the plan text that produced it; two modes give
    identical rows but different EXPLAIN output).  Tables come from the
    statement as written — rewrites only ever drop relations, never add
    them.  Returns None for statements that must not be tracked:
    non-queries, TVF or unknown-name readers, anything planned while a
    matview is (re)materializing, and unrewritable shapes.
    """
    if not isinstance(stmt, (SelectStatement, UnionStatement)):
        return None
    if database._matview_plan_depth:
        return None
    tables = referenced_tables(stmt, database)
    if tables is None:
        return None
    config = database.config
    mode = config.optimizer
    fingerprint_stmt = stmt
    rewritten = None
    if config.rewrites:
        from repro.engine.optimizer.rewrite import rewrite_statement

        try:
            rewritten = rewrite_statement(stmt, database, price=False)
        except ReproError:
            return None  # unrewritable shape: plan it fresh every time
        except Exception:
            count_swallowed_error("cache.plan_fingerprint")
            return None
        fingerprint_stmt = rewritten[0]
        mode = f"{mode}+rewrite"
    if config.compiled_expressions:
        mode = f"{mode}+compiled"
    sql = normalize_statement(fingerprint_stmt)
    digest = hashlib.sha256(f"{mode}\x00{sql}".encode()).hexdigest()
    return PlanKey(digest[:32], sql, tables, rewritten)


def referenced_tables(
    stmt: SelectStatement | UnionStatement, database
) -> set[str] | None:
    """Lowercased base tables a statement reads, views resolved.

    Returns ``None`` when the statement is not safely cacheable: it
    references a table-valued function (whose callable may close over
    state the version counters can't see) or a name the catalog doesn't
    know (the statement would error anyway — don't cache the attempt).
    """
    tables: set[str] = set()
    if _collect_tables(stmt, database, tables, depth=0):
        return tables
    return None


def _expr_subselects(expr):
    """Yield SELECT bodies of subquery predicates nested in an expression.

    ``EXISTS (SELECT ...)`` and ``x IN (SELECT ...)`` read tables that
    never appear in the outer FROM/JOIN clauses; invalidation must still
    cover them or a cached result would survive DML on the inner table.
    """
    if not isinstance(expr, Expr):
        return
    if isinstance(expr, Exists):
        yield expr.select
        return
    if isinstance(expr, InSubquery):
        yield expr.select
        yield from _expr_subselects(expr.value)
        return
    if not is_dataclass(expr):
        return
    for f in fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            yield from _expr_subselects(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Expr):
                    yield from _expr_subselects(item)
                elif isinstance(item, tuple):  # Case whens pairs
                    for leaf in item:
                        yield from _expr_subselects(leaf)


def _statement_exprs(stmt: SelectStatement):
    for item in stmt.items:
        if item.expr is not None:
            yield item.expr
    for join in stmt.joins:
        if join.condition is not None:
            yield join.condition
    if stmt.where is not None:
        yield stmt.where
    yield from stmt.group_by
    if stmt.having is not None:
        yield stmt.having
    for order in stmt.order_by:
        yield order.expr


def _collect_tables(
    stmt, database, out: set[str], depth: int, ctes: frozenset = frozenset()
) -> bool:
    if depth > 16:  # pathological view nesting: refuse to cache
        return False
    if isinstance(stmt, UnionStatement):
        return all(
            _collect_tables(s, database, out, depth, ctes)
            for s in stmt.selects
        )
    local = set(ctes)
    for cte_name, body in stmt.ctes:
        if not _collect_tables(
            body, database, out, depth + 1, frozenset(local)
        ):
            return False
        local.add(cte_name.lower())
    scope = frozenset(local)
    refs: list[TableRef] = []
    if stmt.source is not None:
        refs.append(stmt.source)
    refs.extend(join.table for join in stmt.joins)
    for ref in refs:
        if ref.is_function:
            return False
        if ref.is_subquery:
            if not _collect_tables(
                ref.subquery, database, out, depth + 1, scope
            ):
                return False
            continue
        name = ref.table.lower()
        if name in scope:
            continue  # CTE body tables were collected above
        if database.has_view(name):
            if not _collect_tables(
                database.view(name), database, out, depth + 1
            ):
                return False
            continue
        if database.has_matview(name):
            # a matview reads like a base table; its data table version
            # bumps on every REFRESH, which is exactly the dependency
            out.add(name)
            continue
        if not database.has_table(name):
            return False
        out.add(name)
    for expr in _statement_exprs(stmt):
        for sub in _expr_subselects(expr):
            if not _collect_tables(sub, database, out, depth + 1, scope):
                return False
    return True


def batch_nbytes(columns: dict[str, np.ndarray]) -> int:
    """Byte size of a result batch (object columns priced per element)."""
    total = 0
    for arr in columns.values():
        arr = np.asarray(arr)
        if arr.dtype == object:
            total += sum(len(str(v)) for v in arr.tolist()) + 8 * arr.size
        else:
            total += int(arr.nbytes)
    return total


def _copy_batch(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.asarray(v).copy() for k, v in columns.items()}


@dataclass
class CacheEntry:
    """One stored result."""

    key: CacheKey
    columns: dict[str, np.ndarray]
    plan: str
    tables: frozenset[str]
    nbytes: int
    stored_at: float = field(default_factory=time.monotonic)
    hits: int = 0


@dataclass
class CacheStats:
    """Monotonic counters, mirrored into the obs metrics registry."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Bounded, thread-safe LRU of query results shared across users.

    One instance hangs off each cache-enabled
    :class:`~repro.engine.database.Database`; CasJobs contexts are
    shared Database objects, so every user querying a context shares
    its cache — the multi-user win the paper's MyDB design is after.
    """

    def __init__(self, max_bytes: int = 64 << 20, max_entries: int = 512):
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        metrics = get_metrics()
        self._m_hits = metrics.counter("engine.cache.hits")
        self._m_misses = metrics.counter("engine.cache.misses")
        self._m_evictions = metrics.counter("engine.cache.evictions")
        self._m_inserts = metrics.counter("engine.cache.inserts")
        self._m_invalidations = metrics.counter("engine.cache.invalidations")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def get(self, key: CacheKey) -> CacheEntry | None:
        """Look up a key; counts a hit or miss and refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.stats.hits += 1
            self._m_hits.inc()
            return CacheEntry(
                key=entry.key,
                columns=_copy_batch(entry.columns),
                plan=entry.plan,
                tables=entry.tables,
                nbytes=entry.nbytes,
                stored_at=entry.stored_at,
                hits=entry.hits,
            )

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Would this key hit?  No counters, no LRU touch, no copy."""
        with self._lock:
            return self._entries.get(key)

    def put(
        self,
        key: CacheKey,
        columns: dict[str, np.ndarray],
        plan: str,
        tables: set[str],
    ) -> bool:
        """Store a result; returns False when it can never fit."""
        nbytes = batch_nbytes(columns)
        if nbytes > self.max_bytes:
            return False
        entry = CacheEntry(
            key=key,
            columns=_copy_batch(columns),
            plan=plan,
            tables=frozenset(t.lower() for t in tables),
            nbytes=nbytes,
        )
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = entry
            self._bytes += nbytes
            self.stats.inserts += 1
            self._m_inserts.inc()
            while (
                self._bytes > self.max_bytes
                or len(self._entries) > self.max_entries
            ):
                oldest = next(iter(self._entries))
                self._drop(oldest)
                self.stats.evictions += 1
                self._m_evictions.inc()
        return True

    def invalidate_table(self, table_name: str) -> int:
        """Eagerly drop every entry that read the given table.

        Version-keyed lookups would miss stale entries anyway; eager
        invalidation reclaims their memory immediately and makes the
        invalidation observable in the metrics.
        """
        lowered = table_name.lower()
        with self._lock:
            doomed = [
                key for key, entry in self._entries.items()
                if lowered in entry.tables
            ]
            for key in doomed:
                self._drop(key)
            self.stats.invalidations += len(doomed)
            if doomed:
                self._m_invalidations.inc(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    def _drop(self, key: CacheKey) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes

    def summary(self) -> dict[str, float]:
        """Counters + occupancy, for reports and ``stats_summary``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "hit_rate": self.stats.hit_rate,
                "inserts": self.stats.inserts,
                "evictions": self.stats.evictions,
                "invalidations": self.stats.invalidations,
            }
