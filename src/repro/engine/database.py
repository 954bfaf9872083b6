"""The Database: named tables, indexes, one buffer pool, SQL entry point.

This is the reproduction's "SQL Server instance".  A
:class:`Database` owns a buffer pool (default sized to the paper's 2 GB
nodes), a catalog of tables, optional clustered indexes, and a
``sql()`` method that parses, plans and executes statements.  All I/O
accounting funnels through ``db.pool.counters`` so a
:class:`~repro.engine.stats.TaskTimer` wrapped around any workload
yields the (elapsed, cpu, io) triples of Table 1.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine.cache import (
    BoundedLRU,
    PlanKey,
    ResultCache,
    normalize_statement,
    plan_fingerprint,
    referenced_tables,
)
from repro.engine.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.engine.expressions import batch_length
from repro.engine.index import ClusteredIndex
from repro.engine.instrument import AnalyzeReport, max_q_error
from repro.engine.matview import MaterializedView
from repro.engine.memo import MAX_FINGERPRINTS
from repro.engine.operators import IndexRangeScan, PlanNode, SeqScan, plan_nodes
from repro.engine.pages import BufferPool, DEFAULT_POOL_PAGES, choose_codecs
from repro.engine.schema import Column, TableSchema
from repro.engine.sql.executor import Executor, QueryResult
from repro.engine.sql.ast import SelectStatement, UnionStatement
from repro.engine.sql.parser import parse, split_statements
from repro.engine.stats import IOCounters
from repro.engine.table import Table
from repro.engine.types import ColumnType, infer_type
from repro.errors import EngineError, TableNotFoundError


@dataclass(frozen=True)
class TableFunction:
    """A registered table-valued function.

    ``fn(*scalar_args)`` must return a column batch
    (``dict[str, np.ndarray]``) whose keys match ``columns``.
    """

    name: str
    columns: tuple[str, ...]
    fn: Callable


def _cached_plan_text(entry) -> str:
    """``QueryResult.plan`` of a statement answered by this cache entry."""
    if entry.plan:
        return "[answered from cache]\n" + entry.plan
    return "[answered from cache]"


class Database:
    """A single-node database instance."""

    def __init__(
        self, name: str = "db", *, config: EngineConfig | None = None
    ):
        if config is None:
            config = DEFAULT_ENGINE_CONFIG
        self.name = name
        self._config = config
        self.pool = BufferPool(config.pool_pages)
        #: Shared semantic result cache, or None when disabled.
        self.result_cache: ResultCache | None = (
            ResultCache(max_entries=config.cache_max_entries)
            if config.result_cache
            else None
        )
        #: Adaptive feedback optimizer (plan memo + q-error loop), or
        #: None when disabled.
        self.feedback = None
        if config.feedback:
            from repro.engine.optimizer.feedback import FeedbackController

            self.feedback = FeedbackController(self, config)
        #: Query Store (workload history + plan forcing), or None when
        #: disabled.  The forcer exists iff the store does.
        self.query_store = None
        self.plan_forcer = None
        if config.query_store:
            from repro.engine.optimizer.planforce import PlanForcer
            from repro.obs.querystore import QueryStore

            self.query_store = QueryStore()
            self.plan_forcer = PlanForcer()
        self._tables: dict[str, Table] = {}
        self._views: dict[str, object] = {}  # name -> SelectStatement
        self._matviews: dict[str, MaterializedView] = {}
        #: >0 while (re)materializing a view's defining SELECT, so the
        #: planner does not answer the refresh from the view itself.
        self._matview_plan_depth = 0
        self._table_functions: dict[str, TableFunction] = {}
        self._procedures: dict[str, Callable] = {}
        #: Bumped by every catalog change a statement's parse or
        #: ``PlanKey`` may depend on: create / drop of tables, views and
        #: matviews, and table-function registration.
        self._catalog_generation = 0
        self._catalog_lock = threading.Lock()
        #: Stage 0 of the SELECT path: ``(text, plan signature)`` ->
        #: ``(statement, PlanKey | None, catalog generation)``.
        self._statements = BoundedLRU("engine.statements", MAX_FINGERPRINTS)
        #: Does a stage read statement keys (result cache, plan memo,
        #: Query Store)?
        self._keys_statements = (
            config.result_cache or config.feedback or config.query_store
        )
        self._executor = Executor(self)

    @property
    def config(self) -> EngineConfig:
        """The knob set in force; planner, cache keying, feedback and
        ``analyze()`` read it live."""
        return self._config

    @config.setter
    def config(self, config: EngineConfig) -> None:
        """Flip planning knobs: ``db.config = db.config.replace(...)``.

        Only :data:`~repro.engine.config.PLANNING_KNOBS` may differ from
        the current config — the other fields sized the pool, cache,
        memo and Query Store at construction.  Every fingerprint hashes
        ``plan_signature()``, so a flip starts new fingerprints: cached
        results, memoized plans, feedback history, Query Store entries
        and plan pins of the old config no longer match.
        """
        self._config.check_live_change(config)
        self._config = config

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def _catalog_changed(self) -> None:
        """Retire every statement-cache entry keyed and every memoized
        plan bound before this change.

        Locked: a racing increment could write back an older value and
        make an entry keyed before a later change look current again.
        The memo drops its unbound plans now, not on their next lookup:
        they can never hit again, and they hold the tables they read.
        """
        with self._catalog_lock:
            self._catalog_generation += 1
            generation = self._catalog_generation
        if self.feedback is not None:
            self.feedback.memo.retire_unbound(generation)

    def rebind(self, plan: PlanNode) -> bool:
        """Whether a plan may run against the current catalog.

        True while it is bound (stamped with the current generation).
        Plan pins, which outrank re-planning, also survive a catalog
        change that replaced none of the tables and views the plan
        reads: the plan is re-stamped and stays bound.
        """
        generation = self._catalog_generation
        if plan.generation == generation:
            return True
        tables = list(self._tables.values())
        live = {id(obj) for obj in (*tables, *self._views.values())}
        live.update(id(table.clustered) for table in tables)
        for node in plan_nodes(plan):
            if isinstance(node, SeqScan):
                read = node.table
            elif isinstance(node, IndexRangeScan):
                # a clustered index holds its table weakly: check the
                # index itself
                index = node.index
                read = index if isinstance(index, ClusteredIndex) else (
                    index.table
                )
            else:
                read = getattr(node, "view", None)  # a view's SubqueryScan
            if read is not None and id(read) not in live:
                return False
        plan.generation = generation
        return True

    def _maybe_sync_system_views(self, key: str) -> None:
        """Lazily (re)materialize a Query Store system view on lookup.

        The single ``query_store is None`` check keeps the disabled
        path inside the observer-effect budget.
        """
        if self.query_store is None:
            return
        from repro.obs.querystore import QUERY_STORE_VIEWS

        if key in QUERY_STORE_VIEWS:
            self.query_store.sync_views(self)

    def is_system_table(self, name: str) -> bool:
        """Is this a store-maintained catalog table (DML-guarded)?"""
        if self.query_store is None:
            return False
        from repro.obs.querystore import QUERY_STORE_VIEWS

        return name.lower() in QUERY_STORE_VIEWS

    def has_table(self, name: str) -> bool:
        key = name.lower()
        if key not in self._tables:
            self._maybe_sync_system_views(key)
        return key in self._tables

    def table(self, name: str) -> Table:
        key = name.lower()
        self._maybe_sync_system_views(key)
        try:
            return self._tables[key]
        except KeyError:
            raise TableNotFoundError(
                f"no table '{name}' in database '{self.name}'"
            ) from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def create_table_from_schema(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables or key in self._views:
            raise EngineError(f"table '{schema.name}' already exists")
        table = Table(schema, self.pool)
        self._tables[key] = table
        self._catalog_changed()
        return table

    def create_table(
        self,
        name: str,
        columns: dict[str, np.ndarray],
        primary_key: str | None = None,
    ) -> Table:
        """Create a table from column arrays, inferring types."""
        schema = TableSchema(
            name=name,
            columns=tuple(
                Column(col, infer_type(arr)) for col, arr in columns.items()
            ),
            primary_key=primary_key,
        )
        table = self.create_table_from_schema(schema)
        if next(iter(columns.values()), np.empty(0)).__len__():
            table.insert(columns)
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key in self._matviews:
            raise EngineError(
                f"'{name}' is a materialized view; "
                "use DROP MATERIALIZED VIEW"
            )
        self._drop_table_storage(key, name, if_exists)

    def _drop_table_storage(self, key: str, name: str, if_exists: bool) -> None:
        if key not in self._tables:
            if if_exists:
                return
            raise TableNotFoundError(f"no table '{name}' to drop")
        self._tables[key].file.invalidate()
        del self._tables[key]
        self._catalog_changed()
        self.invalidate_caches(key)

    # ------------------------------------------------------------------
    # views, table functions, procedures
    # ------------------------------------------------------------------
    def create_view(self, name: str, select_statement) -> None:
        """Register a view over a SELECT (the paper's ``Zone`` view)."""
        key = name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            raise EngineError(f"name '{name}' already exists")
        # validate eagerly: the view must plan against the current catalog
        from repro.engine.sql.planner import Planner

        Planner(self).plan_select(select_statement)
        self._views[key] = select_statement
        self._catalog_changed()

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view(self, name: str):
        try:
            return self._views[name.lower()]
        except KeyError:
            raise TableNotFoundError(f"no view '{name}'") from None

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        if name.lower() not in self._views:
            if if_exists:
                return
            raise TableNotFoundError(f"no view '{name}' to drop")
        del self._views[name.lower()]
        self._catalog_changed()

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    def matview(self, name: str) -> MaterializedView:
        try:
            return self._matviews[name.lower()]
        except KeyError:
            raise TableNotFoundError(
                f"no materialized view '{name}'"
            ) from None

    @contextmanager
    def _materializing(self):
        """Suspend matview substitution while a defining SELECT runs."""
        self._matview_plan_depth += 1
        try:
            yield
        finally:
            self._matview_plan_depth -= 1

    def create_materialized_view(self, name: str, select_statement):
        """``CREATE MATERIALIZED VIEW name AS SELECT ...``.

        Runs the SELECT once, stores its rows in a regular catalog table
        named after the view (so it counts against MyDB quotas and is
        queryable with plain ``FROM name``), and records the version of
        every source table for staleness tracking.
        """
        key = name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            raise EngineError(f"name '{name}' already exists")
        sources = referenced_tables(select_statement, self)
        if sources is None:
            raise EngineError(
                f"materialized view '{name}' must read base tables or "
                "views only (no table-valued functions)"
            )
        with self._materializing():
            result = self._executor.execute(select_statement)
        self.create_table(key, {k: np.asarray(v)
                                for k, v in result.columns.items()})
        view = MaterializedView(
            name=key,
            select=select_statement,
            normalized_sql=normalize_statement(select_statement),
            source_tables=frozenset(sources),
            source_versions={
                t: self._tables[t].version for t in sources
            },
        )
        self._matviews[key] = view
        self._catalog_changed()
        return view

    def refresh_materialized_view(self, name: str) -> int:
        """Re-run a matview's SELECT; returns the new row count."""
        view = self.matview(name)
        with self._materializing():
            result = self._executor.execute(view.select)
        table = self.table(view.name)
        table.truncate()
        if result.row_count:
            table.insert({k: np.asarray(v)
                          for k, v in result.columns.items()})
        self.invalidate_caches(view.name)
        view.source_versions = {
            t: self._tables[t].version for t in view.source_tables
        }
        view.refresh_count += 1
        return result.row_count

    def drop_materialized_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._matviews:
            if if_exists:
                return
            raise TableNotFoundError(
                f"no materialized view '{name}' to drop"
            )
        del self._matviews[key]
        self._drop_table_storage(key, name, if_exists=False)

    def matview_stale(self, name: str) -> bool:
        """Has any source table changed since the last (re)materialize?"""
        view = self.matview(name)
        return view.stale_against(self.table_versions(view.source_tables))

    def matching_matview(self, stmt) -> MaterializedView | None:
        """A *fresh* matview whose definition equals this SELECT, if any.

        Returns None while a matview is being (re)materialized so a
        REFRESH never answers itself from the rows it is rebuilding.
        """
        from repro.obs.metrics import get_metrics

        if not self._matviews or self._matview_plan_depth:
            return None
        if not isinstance(stmt, SelectStatement):
            return None
        normalized = normalize_statement(stmt)
        for view in self._matviews.values():
            if view.normalized_sql != normalized:
                continue
            if view.stale_against(self.table_versions(view.source_tables)):
                get_metrics().counter("engine.matview.stale_skips").inc()
                continue
            get_metrics().counter("engine.matview.substitutions").inc()
            return view
        return None

    def create_table_function(
        self, name: str, columns: tuple[str, ...], fn: Callable
    ) -> TableFunction:
        """Register a table-valued function callable from SQL FROM clauses."""
        key = name.lower()
        if key in self._table_functions:
            raise EngineError(f"table function '{name}' already exists")
        tvf = TableFunction(name=key, columns=tuple(c.lower() for c in columns),
                            fn=fn)
        self._table_functions[key] = tvf
        self._catalog_changed()
        return tvf

    def table_function(self, name: str) -> TableFunction:
        try:
            return self._table_functions[name.lower()]
        except KeyError:
            raise TableNotFoundError(
                f"no table-valued function '{name}'"
            ) from None

    def create_procedure(self, name: str, fn: Callable) -> None:
        """Register a stored procedure: ``fn(db, *args)``.

        Invoked from SQL with ``EXEC name arg, arg`` — the deployment
        unit of the paper's MaxBCG ("the SQL code ... is deployed on the
        available Data-Grid nodes").
        """
        key = name.lower()
        if key in self._procedures:
            raise EngineError(f"procedure '{name}' already exists")
        self._procedures[key] = fn

    def call_procedure(self, name: str, *args):
        try:
            procedure = self._procedures[name.lower()]
        except KeyError:
            raise TableNotFoundError(f"no procedure '{name}'") from None
        return procedure(self, *args)

    def procedure_names(self) -> list[str]:
        return sorted(self._procedures)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def create_clustered_index(self, table_name: str, *keys: str) -> ClusteredIndex:
        """Build (or rebuild) the table's clustered index — ``spZone``'s
        job, and the only rebuild: writes keep the order afterwards."""
        index = ClusteredIndex(self.table(table_name), tuple(keys))
        index.build()
        return index

    def clustered_index(self, table_name: str) -> ClusteredIndex | None:
        """The index whose order the table's base follows, or None."""
        table = self._tables.get(table_name.lower())
        return table.clustered if table is not None else None

    def invalidate_caches(self, table_name: str) -> None:
        """Drop result-cache entries that read the table, after a write.

        They are keyed on table versions, so lookups would miss them
        regardless; dropping now reclaims the memory and makes the
        invalidation observable.  Memoized plans and indexes need
        nothing here: a plan reads its tables as they are when it runs,
        and the table keeps its indexes through every write.
        """
        if self.result_cache is not None:
            self.result_cache.invalidate_table(table_name)

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    def table_versions(self, names) -> dict[str, int | None]:
        """Live version counters for the named tables (None = missing).

        A Query Store system view is brought up to date first, so its
        version moves whenever the store has.
        """
        out: dict[str, int | None] = {}
        for name in names:
            key = name.lower()
            self._maybe_sync_system_views(key)
            table = self._tables.get(key)
            out[key] = table.version if table is not None else None
        return out

    # ------------------------------------------------------------------
    # SQL entry points
    # ------------------------------------------------------------------
    def sql(self, text: str) -> QueryResult:
        """Parse and execute one SQL statement."""
        stmt, keyed = self._statement(text)
        return self._run_statement(stmt, text, keyed)

    def run_script(self, text: str) -> list[QueryResult]:
        """Execute a ';'-separated script, returning per-statement results.

        The whole script parses before any statement runs; each one then
        takes the same path as :meth:`sql`.
        """
        chunks = split_statements(text)
        statements = [parse(chunk) for chunk in chunks]
        results = []
        for stmt, chunk in zip(statements, chunks):
            stmt, keyed = self._statement(chunk, stmt)
            results.append(self._run_statement(stmt, chunk, keyed))
        return results

    def _statement(
        self, text: str, stmt=None
    ) -> tuple[object, PlanKey | None]:
        """Stage 0 of the SELECT path: ``(statement, PlanKey | None)``.

        A SELECT or UNION text seen before under the same
        ``config.plan_signature()`` and catalog generation comes back
        from the statement cache, so it runs no parse, no rewrite and
        no fingerprint; anything else is parsed (unless ``stmt`` is
        given) and keyed now.  The key is taken when a stage will read
        it — result cache, feedback or Query Store on — and never while
        a matview is being (re)materialized.
        """
        if self._matview_plan_depth:
            return (parse(text) if stmt is None else stmt), None
        key = (text, self._config.plan_signature())
        generation = self._catalog_generation
        entry = self._statements.get(
            key, lambda cached: cached[2] == generation
        )
        if entry is not None:
            return entry[0], entry[1]
        if stmt is None:
            stmt = parse(text)
        keyed = plan_fingerprint(stmt, self) if self._keys_statements else None
        if isinstance(stmt, (SelectStatement, UnionStatement)):
            # DML text carries fresh literals: only queries repeat
            self._statements.put(key, (stmt, keyed, generation))
        return stmt, keyed

    def _run_statement(
        self, stmt, text: str, keyed: PlanKey | None, analyze: bool = False
    ) -> QueryResult:
        """One user statement: the statement-level half of the SELECT path.

        result-cache lookup on ``keyed`` (from :meth:`_statement`) ->
        execute (``Executor``, inside an ``engine.sql`` trace span) ->
        Query Store record -> cache put -> slow log.  Cache and store
        are stages that cost one ``is None`` test when off; non-queries
        and unkeyable queries have no key and pass straight to the
        executor, which does not try to key them again.  ``analyze``
        (EXPLAIN ANALYZE) skips the cache lookup and has the plan's
        nodes record what they do; every other stage runs as for
        ``sql()``.  See DESIGN.md, "Life of a SELECT".
        """
        from repro.obs.slowlog import get_slow_log
        from repro.obs.trace import span

        cache, store = self.result_cache, self.query_store
        cache_key = None
        started = time.perf_counter()
        if keyed is not None and cache is not None:
            cache_key = keyed.cache_key(self)
            entry = None if analyze else cache.get(cache_key)
            if entry is not None:
                if store is not None:
                    # a cache hit ran no plan: attach it to the
                    # fingerprint's current plan in the store
                    store.record(
                        fingerprint=keyed.fingerprint,
                        sql="",
                        elapsed_s=time.perf_counter() - started,
                        rows=batch_length(entry.columns),
                        decision="cache-hit",
                        cache_hit=True,
                    )
                return QueryResult(
                    columns=entry.columns, plan=_cached_plan_text(entry)
                )
        cpu_started = time.thread_time() if store is not None else 0.0
        reads_before = self.pool.counters.logical_reads
        with span("engine.sql", layer="engine", counters=self.pool.counters,
                  attrs={"db": self.name, "sql": text.strip()[:200]}):
            result = self._executor.execute(stmt, keyed, analyze)
        elapsed = time.perf_counter() - started
        signature = (
            self._config.plan_signature()
            if result.fingerprint is not None else None
        )
        if store is not None and result.fingerprint is not None:
            store.record(
                fingerprint=result.fingerprint,
                sql=text.strip(),
                elapsed_s=elapsed,
                cpu_s=time.thread_time() - cpu_started,
                rows=result.row_count,
                logical_reads=(
                    self.pool.counters.logical_reads - reads_before
                ),
                plan_text=result.plan,
                plan_signature=signature,
                decision=result.memo_decision,
                plan_origin=result.plan_origin,
                plan_node=result.plan_node,
                memo_hit=result.memo_decision == "hit",
            )
        if cache_key is not None:
            cache.put(cache_key, result.columns, result.plan, keyed.tables)
        slow_log = get_slow_log()
        if slow_log.is_slow(elapsed):
            slow_log.record(
                normalize_statement(stmt)
                if isinstance(stmt, SelectStatement) else text.strip(),
                elapsed,
                plan=result.plan or None,
                max_q_error=(
                    max_q_error(result.node_stats)
                    if result.node_stats is not None else None
                ),
                database=self.name,
                fingerprint=result.fingerprint,
                memo=result.memo_decision,
                plan_signature=signature,
                decision=result.plan_origin,
            )
        return result

    def explain_analyze(self, text: str) -> AnalyzeReport:
        """Run a SELECT down the statement path, measured per operator.

        Every stage of :meth:`sql` runs except the result-cache lookup,
        so the plan measured is the plan ``sql()`` runs.  The report's
        ``render()`` shows rows / inclusive time / I/O and
        estimated-vs-actual q-error per plan node.
        """
        from repro.obs.metrics import get_metrics

        stmt, keyed = self._statement(text)
        if not isinstance(stmt, SelectStatement):
            raise EngineError("explain_analyze supports SELECT statements only")
        result = self._run_statement(stmt, text, keyed, analyze=True)
        nodes, plan = result.node_stats or [], result.plan_node
        report = AnalyzeReport(
            nodes=nodes,
            result=result.columns,
            total_s=nodes[0].inclusive_s if nodes else 0.0,
            rewrite_trace=plan.rewrite_trace if plan is not None else (),
            plan=plan,
        )
        metrics = get_metrics()
        metrics.counter("engine.queries.analyzed").inc()
        metrics.histogram("engine.query.elapsed_s").observe(report.total_s)
        metrics.histogram(
            "engine.query.max_q_error", buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
        ).observe(report.max_q_error)
        return report

    def explain(self, text: str) -> str:
        """The plan :meth:`sql` would report for a SELECT, without
        executing it: the statement path up to planning — a cached
        answer's plan under ``[answered from cache]``, else the forced,
        memoized or freshly planned (and then memoized) tree."""
        stmt, keyed = self._statement(text)
        if not isinstance(stmt, SelectStatement):
            raise EngineError("EXPLAIN supports SELECT statements only")
        if keyed is not None and self.result_cache is not None:
            entry = self.result_cache.peek(keyed.cache_key(self))
            if entry is not None:
                return _cached_plan_text(entry)
        return self._executor.plan(stmt, keyed)[1].explain()

    # ------------------------------------------------------------------
    # query store and plan forcing
    # ------------------------------------------------------------------
    def statement_key(self, text: str) -> str | None:
        """The fingerprint one SELECT text is tracked under, or None.

        The join key across the Query Store, the plan memo, the
        feedback store and the slow-query log.
        """
        stmt, keyed = self._statement(text)
        if not self._keys_statements:
            keyed = plan_fingerprint(stmt, self)
        return keyed.fingerprint if keyed is not None else None

    def force_plan(self, fingerprint: str, plan_id: int):
        """Pin a fingerprint to a plan from its Query Store history.

        Every execution of the fingerprint runs the pinned plan,
        bypassing the plan memo and the feedback loop, until
        :meth:`unforce_plan`.  Survives restarts via ``save_database``
        and catalog changes: a restored pin, or one whose plan is no
        longer bound to the catalog generation, is re-established by
        structural signature on the fingerprint's next execution.
        """
        if self.query_store is None:
            raise EngineError(
                "plan forcing requires EngineConfig(query_store=True)"
            )
        plan = self.query_store.plan(plan_id)
        if plan is None:
            raise EngineError(f"query store has no plan {plan_id}")
        if plan.fingerprint != fingerprint:
            raise EngineError(
                f"plan {plan_id} belongs to fingerprint "
                f"'{plan.fingerprint[:12]}', not '{fingerprint[:12]}'"
            )
        return self.plan_forcer.force(
            fingerprint=fingerprint,
            plan_id=plan_id,
            structure=plan.structure,
            plan_text=plan.plan_text,
            node=plan.node,
        )

    def unforce_plan(self, fingerprint: str) -> bool:
        """Remove a pin; returns whether one existed."""
        if self.plan_forcer is None:
            raise EngineError(
                "plan forcing requires EngineConfig(query_store=True)"
            )
        return self.plan_forcer.unforce(fingerprint) is not None

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def analyze(self, table_name: str | None = None) -> list[str]:
        """Collect optimizer statistics (``ANALYZE [table]`` in SQL).

        Builds row counts, per-column NDV/min/max/null-fraction and
        equi-depth histograms for one table — or, with no argument, for
        every table in the catalog — attaches them as ``table.stats``
        and picks each column's page codec from them.  Returns the
        names of the analyzed tables.
        """
        from repro.engine.optimizer.statistics import build_table_stats

        if table_name is not None:
            names = [self.table(table_name).name]
        else:
            names = self.table_names()
        for name in names:
            table = self.table(name)
            table.stats = build_table_stats(table)
            table.modified_rows = 0
            # statistics generation moved: any plan chosen under the old
            # stats is no longer fresh and re-plans
            table.stats_version += 1
            table.apply_compression(choose_codecs(table.stats, table.schema))
        return [n.lower() for n in names]

    # ------------------------------------------------------------------
    @property
    def io_counters(self) -> IOCounters:
        return self.pool.counters

    def stats_summary(self) -> dict[str, int]:
        """Totals for reports: tables, rows, pages, I/O counters."""
        summary = {
            "tables": len(self._tables),
            "rows": sum(t.row_count for t in self._tables.values()),
            "pages": sum(t.page_count for t in self._tables.values()),
            "logical_reads": self.pool.counters.logical_reads,
            "physical_reads": self.pool.counters.physical_reads,
            "writes": self.pool.counters.writes,
            "matviews": len(self._matviews),
        }
        if self.result_cache is not None:
            for key, value in self.result_cache.summary().items():
                summary[f"cache_{key}"] = value
        if self.query_store is not None:
            for key, value in self.query_store.summary().items():
                summary[f"querystore_{key}"] = value
        return summary
