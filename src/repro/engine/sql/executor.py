"""Statement execution: DDL, DML and queries against a Database."""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.engine.expressions import ONE_ROW, Batch, batch_length, scalar_value
from repro.engine.instrument import measure
from repro.engine.sql.ast import (
    AnalyzeStatement,
    CreateMaterializedViewStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    DropMaterializedViewStatement,
    DropTableStatement,
    DropViewStatement,
    ExecStatement,
    InsertStatement,
    RefreshMaterializedViewStatement,
    SelectStatement,
    Statement,
    TruncateStatement,
    UnionStatement,
    UpdateStatement,
)
from repro.engine.sql.planner import Planner
from repro.engine.types import sql_type
from repro.engine.schema import Column, TableSchema
from repro.errors import SqlPlanError


@dataclass
class QueryResult:
    """Result of one statement.

    ``columns`` is the output batch for SELECTs (empty for DDL/DML);
    ``rows_affected`` counts DML effects; ``plan`` is the EXPLAIN text
    for SELECTs.  ``fingerprint`` carries the normalized-statement hash
    (None for an untrackable statement) and ``memo_decision`` records
    how the plan was obtained (``hit`` / ``miss`` / ``replan`` /
    ``learned-override`` / ``forced`` / ...)
    so results join cleanly against the FeedbackStore, the Query Store
    and the slow-query log.  ``plan_origin`` is the decision that first
    *produced* the plan (differs from ``memo_decision`` on memo hits);
    ``plan_node`` is the live operator tree for SELECTs, which the
    Query Store hashes into a structural plan identity; ``node_stats``
    are its per-node :class:`~repro.engine.instrument.NodeStats` in
    preorder when the execution was measured (feedback on, or EXPLAIN
    ANALYZE), else None.
    """

    columns: Batch = field(default_factory=dict)
    rows_affected: int = 0
    plan: str = ""
    fingerprint: str | None = None
    memo_decision: str | None = None
    plan_origin: str | None = None
    plan_node: object | None = None
    node_stats: list | None = None

    @property
    def row_count(self) -> int:
        return batch_length(self.columns)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise SqlPlanError(
                f"result has no column '{name}' (have {self.column_names})"
            ) from None

    def rows(self) -> list[dict]:
        """Materialize as a list of row dicts (tests and small results)."""
        names = self.column_names
        arrays = [np.asarray(self.columns[n]) for n in names]
        return [
            {name: arr[i].item() if hasattr(arr[i], "item") else arr[i]
             for name, arr in zip(names, arrays)}
            for i in range(self.row_count)
        ]

    def scalar(self):
        """The single value of a 1x1 result."""
        if self.row_count != 1 or len(self.columns) != 1:
            raise SqlPlanError(
                f"scalar() needs a 1x1 result, got {self.row_count} rows x "
                f"{len(self.columns)} columns"
            )
        return next(iter(self.columns.values()))[0].item()


#: The ``keyed`` of a SELECT no one has tried to key yet: one nested in
#: another statement (INSERT..SELECT, UNION branches, matview
#: refreshes).  The database's statement lookup passes the statement's
#: ``PlanKey``, or None when it found nothing to key.
UNKEYED = object()


class Executor:
    """Executes parsed statements against a database.

    The database owns its executor, so the executor (and its planner)
    refer back to it weakly: dropping the last reference frees the
    database at once, without waiting for a cycle collection.
    """

    def __init__(self, database):
        self.database = weakref.proxy(database)
        self.planner = Planner(self.database)

    def execute(
        self, stmt: Statement, keyed=UNKEYED, analyze: bool = False
    ) -> QueryResult:
        if isinstance(stmt, SelectStatement):
            return self._select(stmt, keyed, analyze)
        if isinstance(stmt, CreateTableStatement):
            return self._create_table(stmt)
        if isinstance(stmt, InsertStatement):
            return self._insert(stmt)
        if isinstance(stmt, UpdateStatement):
            return self._update(stmt)
        if isinstance(stmt, DeleteStatement):
            return self._delete(stmt)
        if isinstance(stmt, TruncateStatement):
            self._guard_matview(stmt.table, "TRUNCATE")
            self.database.table(stmt.table).truncate()
            self.database.invalidate_caches(stmt.table)
            return QueryResult()
        if isinstance(stmt, DropTableStatement):
            self.database.drop_table(stmt.table, if_exists=stmt.if_exists)
            return QueryResult()
        if isinstance(stmt, CreateViewStatement):
            self.database.create_view(stmt.name, stmt.select)
            return QueryResult()
        if isinstance(stmt, DropViewStatement):
            self.database.drop_view(stmt.name, if_exists=stmt.if_exists)
            return QueryResult()
        if isinstance(stmt, CreateMaterializedViewStatement):
            view = self.database.create_materialized_view(stmt.name, stmt.select)
            return QueryResult(
                rows_affected=self.database.table(view.name).row_count
            )
        if isinstance(stmt, RefreshMaterializedViewStatement):
            rows = self.database.refresh_materialized_view(stmt.name)
            return QueryResult(rows_affected=rows)
        if isinstance(stmt, DropMaterializedViewStatement):
            self.database.drop_materialized_view(
                stmt.name, if_exists=stmt.if_exists
            )
            return QueryResult()
        if isinstance(stmt, ExecStatement):
            return self._exec(stmt)
        if isinstance(stmt, AnalyzeStatement):
            return self._analyze(stmt)
        if isinstance(stmt, UnionStatement):
            return self._union(stmt)
        raise SqlPlanError(f"unsupported statement {type(stmt).__name__}")

    def _analyze(self, stmt: AnalyzeStatement) -> QueryResult:
        """ANALYZE [table]: collect statistics, report what was analyzed."""
        names = self.database.analyze(stmt.table)
        tables = [self.database.table(name) for name in names]
        return QueryResult(columns={
            "table_name": np.asarray(names, dtype=object),
            "n_rows": np.asarray([t.row_count for t in tables], dtype=np.int64),
            "n_columns": np.asarray(
                [len(t.schema.columns) for t in tables], dtype=np.int64
            ),
        })

    def _union(self, stmt: UnionStatement) -> QueryResult:
        """UNION ALL: concatenate branch results, aligned by position."""
        parts = [self._select(select) for select in stmt.selects]
        first_names = parts[0].column_names
        for part in parts[1:]:
            if len(part.column_names) != len(first_names):
                raise SqlPlanError(
                    "UNION ALL branches must have the same column count"
                )
        columns: Batch = {}
        for position, name in enumerate(first_names):
            columns[name] = np.concatenate([
                np.asarray(part.columns[part.column_names[position]])
                for part in parts
            ])
        return QueryResult(columns=columns)

    def _exec(self, stmt: ExecStatement) -> QueryResult:
        result = self.database.call_procedure(
            stmt.procedure, *[scalar_value(arg) for arg in stmt.arguments]
        )
        if isinstance(result, QueryResult):
            return result
        if isinstance(result, dict):
            return QueryResult(columns={k.lower(): np.asarray(v)
                                        for k, v in result.items()})
        if isinstance(result, int):
            return QueryResult(rows_affected=result)
        return QueryResult()

    # ------------------------------------------------------------------
    def plan(self, stmt: SelectStatement, keyed=UNKEYED):
        """Stages 5-7 of the SELECT path: forced plan, memo, planner.

        Returns ``(keyed, plan, decision, plan_origin, planning_s)`` —
        the plan the statement runs now.  ``Database.explain`` stops
        here.  ``keyed`` is the statement's
        :class:`~repro.engine.cache.PlanKey` from the database's
        statement lookup (stage 0), or None when that lookup found
        nothing to key; SELECTs nested in another statement arrive
        :data:`UNKEYED` and are fingerprinted here.
        """
        database = self.database
        if keyed is UNKEYED:
            from repro.engine.cache import plan_fingerprint

            keyed = plan_fingerprint(stmt, database)

        def replan():
            # the one place plans for reuse are made: bind to the
            # catalog generation planning starts under
            generation = database._catalog_generation
            plan = self.planner.plan_select(
                stmt, rewritten=keyed.rewritten if keyed is not None else None
            )
            plan.generation = generation
            return plan

        forcer = database.plan_forcer
        if keyed is not None and forcer is not None:
            # a forced fingerprint bypasses memo and feedback: the
            # operator pinned the plan, the loop must not fight it
            started = time.perf_counter()
            resolved = forcer.resolve(
                keyed.fingerprint, replan, database.rebind
            )
            if resolved is not None:
                plan, decision = resolved
                planning_s = time.perf_counter() - started
                return keyed, plan, decision, decision, planning_s
        return (keyed, *database.memo.recall_or_plan(database, keyed, replan))

    def _select(
        self, stmt: SelectStatement, keyed=UNKEYED, analyze: bool = False
    ) -> QueryResult:
        """Plan -> execute -> feedback: every SELECT.

        The plan-level half of the one SELECT path (DESIGN.md, "Life of
        a SELECT").  The plan :meth:`plan` returns is the plan that
        runs; under feedback or EXPLAIN ANALYZE its nodes also record
        what they did (``QueryResult.node_stats``).
        """
        if stmt.source is None:
            # constant SELECT: evaluate items over a one-row batch
            out: Batch = {}
            for pos, item in enumerate(stmt.items):
                if item.expr is None:
                    raise SqlPlanError("SELECT * requires a FROM clause")
                name = item.alias or f"col{pos}"
                value = np.asarray(item.expr.eval(ONE_ROW))
                out[name.lower()] = np.broadcast_to(value, (1,)).copy()
            return QueryResult(columns=out)
        keyed, plan, decision, plan_origin, planning_s = self.plan(stmt, keyed)
        feedback = self.database.feedback
        node_stats = None
        if feedback is None and not analyze:
            batch = plan.execute()
        else:
            run = measure(plan, self.database.pool.counters)
            batch = run.run(plan)
            node_stats = list(run.records.values())
            if feedback is not None:
                feedback.observe(
                    keyed, plan, run.records, planning_s, decision
                )
        return QueryResult(
            columns=batch,
            plan=plan.explain(),
            fingerprint=keyed.fingerprint if keyed is not None else None,
            memo_decision=decision,
            plan_origin=plan_origin,
            plan_node=plan,
            node_stats=node_stats,
        )

    def _create_table(self, stmt: CreateTableStatement) -> QueryResult:
        if stmt.if_not_exists and self.database.has_table(stmt.table):
            return QueryResult()
        primary = [c.name for c in stmt.columns if c.primary_key]
        if len(primary) > 1:
            raise SqlPlanError("multiple PRIMARY KEY columns are not supported")
        schema = TableSchema(
            name=stmt.table,
            columns=tuple(Column(c.name, sql_type(c.type_name)) for c in stmt.columns),
            primary_key=primary[0] if primary else None,
        )
        self.database.create_table_from_schema(schema)
        return QueryResult()

    def _guard_matview(self, name: str, verb: str) -> None:
        """Matview rows are derived data: only REFRESH may rewrite them."""
        if self.database.has_matview(name):
            raise SqlPlanError(
                f"cannot {verb} materialized view '{name}'; its rows are "
                "maintained by REFRESH MATERIALIZED VIEW"
            )
        if self.database.is_system_table(name):
            raise SqlPlanError(
                f"cannot {verb} system table '{name}'; sys_query_store_* "
                "tables are maintained by the Query Store"
            )

    def _insert(self, stmt: InsertStatement) -> QueryResult:
        self._guard_matview(stmt.table, "INSERT into")
        table = self.database.table(stmt.table)
        target_columns = (
            [c.lower() for c in stmt.columns]
            if stmt.columns is not None
            else [c.lower() for c in table.schema.column_names]
        )
        if stmt.select is not None:
            result = self._select(stmt.select)
            names = result.column_names
            if len(names) != len(target_columns):
                raise SqlPlanError(
                    f"INSERT..SELECT column count mismatch: "
                    f"{len(target_columns)} vs {len(names)}"
                )
            data = {
                target: np.asarray(result.columns[source])
                for target, source in zip(target_columns, names)
            }
        else:
            width = len(target_columns)
            columns: list[list] = [[] for _ in range(width)]
            for row in stmt.rows:
                if len(row) != width:
                    raise SqlPlanError(
                        f"INSERT row has {len(row)} values, expected {width}"
                    )
                for slot, expr in enumerate(row):
                    value = np.asarray(expr.eval(ONE_ROW))
                    columns[slot].append(value.reshape(-1)[0])
            data = {
                name: np.asarray(values)
                for name, values in zip(target_columns, columns)
            }
        if set(data) != {c.lower() for c in table.schema.column_names}:
            raise SqlPlanError(
                "INSERT must supply every column (engine has no defaults); "
                f"missing {sorted({c.lower() for c in table.schema.column_names} - set(data))}"
            )
        inserted = table.insert(data)
        self.database.invalidate_caches(stmt.table)
        return QueryResult(rows_affected=inserted)

    def _matching_rows(self, table, where) -> np.ndarray:
        batch = {k: v for k, v in table.scan().items()}
        if where is None:
            return np.arange(table.row_count, dtype=np.int64)
        mask = np.asarray(where.eval(batch), dtype=bool)
        return np.flatnonzero(mask)

    def _update(self, stmt: UpdateStatement) -> QueryResult:
        self._guard_matview(stmt.table, "UPDATE")
        table = self.database.table(stmt.table)
        rows = self._matching_rows(table, stmt.where)
        if rows.size == 0:
            return QueryResult(rows_affected=0)
        batch = table.columns_dict()
        row_batch = {k: v[rows] for k, v in batch.items()}
        values = {
            column: np.broadcast_to(
                np.asarray(expr.eval(row_batch)), (rows.size,)
            ).copy()
            for column, expr in stmt.assignments
        }
        affected = table.update_rows(rows, values)
        self.database.invalidate_caches(stmt.table)
        return QueryResult(rows_affected=affected)

    def _delete(self, stmt: DeleteStatement) -> QueryResult:
        self._guard_matview(stmt.table, "DELETE from")
        table = self.database.table(stmt.table)
        rows = self._matching_rows(table, stmt.where)
        affected = table.delete_rows(rows)
        self.database.invalidate_caches(stmt.table)
        return QueryResult(rows_affected=affected)
