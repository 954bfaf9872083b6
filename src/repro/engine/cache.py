"""The semantic result cache: repeated statements skip the engine.

"Batch is back: CasJobs" exists because millions of SkyServer users
re-run near-identical cone searches and cutouts; the server-side answer
is to cache.  A :class:`ResultCache` stores finished SELECT results
keyed on ``(fingerprint, table versions)``:

* the **fingerprint** hashes the *normalized* statement (re-rendered
  through the one true printer, so formatting and alias spelling don't
  fragment the cache) together with the config's
  :meth:`~repro.engine.config.EngineConfig.plan_signature`;
* the **versions** tuple snapshots the version counter of every base
  table the statement touches (views and materialized views are
  resolved down to their sources), so any DML or load since the entry
  was stored makes the key miss — invalidation is structural, not
  best-effort.

Entries carry byte-size accounting and are evicted LRU
when the cache exceeds its byte or entry budget.  Hits return deep
copies, so callers can mutate results without poisoning the cache.
Hit/miss/eviction/invalidation counters feed the process-wide obs
metrics registry under ``engine.cache.*``.

The LRU itself is :class:`BoundedLRU`, the one bounded, thread-safe
recency store every piece of statement-keyed state sits on: this
cache, the plan memo (:mod:`repro.engine.memo`) and the feedback store
(:mod:`repro.engine.optimizer.feedback`).  It owns the lock, the
recency order, the entry and byte bounds, the counters and their
registry mirror, and predicate invalidation; its owners keep only
their entry types and rules.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.engine.sql.ast import (
    InSubquery,
    SelectStatement,
    TableRef,
    UnionStatement,
    find_subquery_exprs,
    statement_exprs,
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
    rewritten once.  The database's statement cache hands one key to
    every execution of its text, across threads, so every field is
    immutable.
    """

    fingerprint: str
    sql: str
    tables: frozenset[str]
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

    The one keying rule shared by the result cache, the plan memo, the
    feedback store and the Query Store: the fingerprint hashes the
    printer-normalized, *post-rewrite* statement under
    ``config.plan_signature()``, so rewrite-equivalent spellings share
    one identity while two planning configs never cross-match (a cached
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
    sql = normalize_statement(fingerprint_stmt)
    signature = config.plan_signature()
    digest = hashlib.sha256(f"{signature}\x00{sql}".encode()).hexdigest()
    return PlanKey(digest[:32], sql, frozenset(tables), rewritten)


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


def _subquery_selects(expr):
    """SELECT bodies of the subquery predicates nested in an expression.

    ``EXISTS (SELECT ...)`` and ``x IN (SELECT ...)`` read tables that
    never appear in the outer FROM/JOIN clauses; invalidation must still
    cover them or a cached result would survive DML on the inner table.
    An IN's left operand is outer scope and may hold predicates too.
    """
    for node in find_subquery_exprs(expr):
        yield node.select
        if isinstance(node, InSubquery):
            yield from _subquery_selects(node.value)


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
    for expr in statement_exprs(stmt):
        for sub in _subquery_selects(expr):
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
class LRUStats:
    """Monotonic counters of one :class:`BoundedLRU`."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BoundedLRU:
    """The bounded, thread-safe LRU behind every statement-keyed store.

    Values sit in recency order, most recently used last, under an
    entry bound and (when ``max_bytes`` is given) a byte bound over the
    weights passed to :meth:`put`; inserts evict from the cold end until
    both hold.  Every counter in :attr:`stats` is mirrored into the obs
    metrics registry as ``<prefix>.<counter>``.  :attr:`lock` is
    re-entrant, so an owner can hold it around a lookup and the entry
    mutation that follows.
    """

    def __init__(
        self, prefix: str, max_entries: int, max_bytes: int | None = None
    ):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = LRUStats()
        self.lock = threading.RLock()
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        metrics = get_metrics()
        self._mirror = {
            name: metrics.counter(f"{prefix}.{name}")
            for name in ("hits", "misses", "inserts", "evictions",
                         "invalidations")
        }

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def _count(self, name: str, n: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + n)
        self._mirror[name].inc(n)

    def _drop(self, key) -> None:
        self._bytes -= self._entries.pop(key)[1]

    def get(self, key, valid=None):
        """The value under ``key``, refreshed to most recent, else None.

        Counts a hit or a miss.  A value ``valid`` rejects is dropped
        and counted as an invalidation, and the lookup as a miss.
        """
        with self.lock:
            slot = self._entries.get(key)
            if slot is not None and valid is not None and not valid(slot[0]):
                self._drop(key)
                self._count("invalidations")
                slot = None
            if slot is None:
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._count("hits")
            return slot[0]

    def peek(self, key):
        """The value under ``key``; no counters, no recency touch."""
        with self.lock:
            slot = self._entries.get(key)
            return None if slot is None else slot[0]

    def put(self, key, value, nbytes: int = 0) -> None:
        """Store ``value`` as most recent, then evict to the bounds."""
        with self.lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            self._count("inserts")
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                self._drop(next(iter(self._entries)))
                self._count("evictions")

    def invalidate(self, doomed) -> int:
        """Drop every entry ``doomed(key, value)`` selects, counted as
        invalidations; returns how many."""
        with self.lock:
            keys = [
                key for key, (value, _) in self._entries.items()
                if doomed(key, value)
            ]
            for key in keys:
                self._drop(key)
            if keys:
                self._count("invalidations", len(keys))
        return len(keys)

    def entries(self) -> list:
        """A snapshot of the live values, most recently used last."""
        with self.lock:
            return [value for value, _ in self._entries.values()]

    def summary(self) -> dict[str, float]:
        """Counters + occupancy, for reports and ``stats_summary``."""
        with self.lock:
            out: dict[str, float] = {"entries": len(self._entries)}
            if self.max_bytes is not None:
                out["bytes"] = self._bytes
            stats = self.stats
            out.update(
                hits=stats.hits, misses=stats.misses,
                hit_rate=stats.hit_rate, inserts=stats.inserts,
                evictions=stats.evictions,
                invalidations=stats.invalidations,
            )
            return out


@dataclass
class CacheEntry:
    """One stored result."""

    key: CacheKey
    columns: dict[str, np.ndarray]
    plan: str
    tables: frozenset[str]
    nbytes: int
    hits: int = 0


class ResultCache:
    """Query results shared across users, on a :class:`BoundedLRU`.

    One instance hangs off each cache-enabled
    :class:`~repro.engine.database.Database`; CasJobs contexts are
    shared Database objects, so every user querying a context shares
    its cache — the multi-user win the paper's MyDB design is after.
    Results are copied on the way in and on the way out, weigh their
    :func:`batch_nbytes`, and one larger than the whole budget is
    refused.
    """

    def __init__(self, max_bytes: int = 64 << 20, max_entries: int = 512):
        self.max_bytes = int(max_bytes)
        self._lru = BoundedLRU(
            "engine.cache", int(max_entries), self.max_bytes
        )
        self.stats = self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def bytes_used(self) -> int:
        return self._lru.bytes_used

    def get(self, key: CacheKey) -> CacheEntry | None:
        """Look up a key; counts a hit or miss and refreshes LRU order."""
        with self._lru.lock:
            entry = self._lru.get(key)
            if entry is None:
                return None
            entry.hits += 1
            return replace(entry, columns=_copy_batch(entry.columns))

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Would this key hit?  No counters, no LRU touch, no copy."""
        return self._lru.peek(key)

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
        self._lru.put(key, entry, nbytes)
        return True

    def invalidate_table(self, table_name: str) -> int:
        """Eagerly drop every entry that read the given table.

        Version-keyed lookups would miss stale entries anyway; eager
        invalidation reclaims their memory immediately and makes the
        invalidation observable in the metrics.
        """
        lowered = table_name.lower()
        return self._lru.invalidate(lambda _key, e: lowered in e.tables)

    def summary(self) -> dict[str, float]:
        """Counters + occupancy, for reports and ``stats_summary``."""
        return self._lru.summary()
