"""Abstract syntax tree for the SQL subset.

Statement nodes are thin dataclasses; expressions reuse the engine's
:mod:`repro.engine.expressions` nodes directly, so no second expression
representation exists — the parser builds evaluatable trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expressions import Expr


@dataclass(frozen=True)
class TableRef:
    """A relation in FROM/JOIN with its binding alias.

    ``table`` names either a base table, a view, or — when
    ``function_args`` is not None — a table-valued function invocation
    (the paper's ``FROM fGetNearbyObjEqZd(@ra, @dec, @r) n`` shape).
    When ``subquery`` is set this is a derived table
    (``FROM (SELECT ...) alias``) and ``table`` is empty.
    """

    table: str
    alias: str
    function_args: tuple[Expr, ...] | None = None
    subquery: "SelectStatement | None" = None

    @property
    def is_function(self) -> bool:
        return self.function_args is not None

    @property
    def is_subquery(self) -> bool:
        return self.subquery is not None


@dataclass(frozen=True)
class JoinClause:
    """One JOIN step: kind is 'inner', 'left' or 'cross'.

    Cross joins have no ON condition; left joins keep unmatched left
    rows with NULL (NaN) right columns.
    """

    kind: str
    table: TableRef
    condition: Expr | None


@dataclass(frozen=True)
class SelectItem:
    """One output column: expression plus optional alias.

    ``star`` marks ``*`` or ``alias.*`` items (expr is None for those).
    """

    expr: Expr | None
    alias: str | None
    star: bool = False
    star_qualifier: str | None = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool


@dataclass(frozen=True)
class SelectStatement:
    """One SELECT.  ``ctes`` holds ``WITH name AS (SELECT ...)`` bodies
    in declaration order; CTE names are resolvable only in this
    statement's own FROM/JOIN clauses (no nested or recursive CTEs)."""

    items: tuple[SelectItem, ...]
    source: TableRef | None
    joins: tuple[JoinClause, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    ctes: tuple[tuple[str, "SelectStatement"], ...] = ()


@dataclass(frozen=True)
class Exists(Expr):
    """``EXISTS (SELECT ...)`` predicate.

    Not directly evaluatable: the planner plans it as a
    :class:`~repro.engine.join.SemiJoin` of the outer rows against the
    subquery's rows.
    """

    select: "SelectStatement"

    def eval(self, batch):  # pragma: no cover - always planned away
        raise NotImplementedError(
            "EXISTS must be planned by the SQL planner before evaluation"
        )


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr IN (SELECT ...)`` predicate (see :class:`Exists`)."""

    value: Expr
    select: "SelectStatement"

    def children(self) -> tuple[Expr, ...]:
        return (self.value,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return InSubquery(children[0], self.select)

    def eval(self, batch):  # pragma: no cover - always planned away
        raise NotImplementedError(
            "IN (SELECT ...) must be planned by the SQL planner "
            "before evaluation"
        )


def find_subquery_exprs(expr: Expr) -> list[Expr]:
    """All Exists/InSubquery nodes in a tree (outermost only)."""
    found: list[Expr] = []

    def visit(node: Expr) -> None:
        if isinstance(node, (Exists, InSubquery)):
            found.append(node)
            return
        for child in node.children():
            visit(child)

    visit(expr)
    return found


def statement_exprs(stmt: SelectStatement) -> list[Expr]:
    """Every top-scope expression of a statement (no subquery bodies)."""
    exprs: list[Expr] = [
        item.expr for item in stmt.items if item.expr is not None
    ]
    if stmt.where is not None:
        exprs.append(stmt.where)
    exprs.extend(stmt.group_by)
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs.extend(o.expr for o in stmt.order_by)
    exprs.extend(
        j.condition for j in stmt.joins if j.condition is not None
    )
    return exprs


@dataclass(frozen=True)
class UnionStatement:
    """``SELECT ... UNION ALL SELECT ...`` (bag semantics only)."""

    selects: tuple[SelectStatement, ...]


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTableStatement:
    table: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class InsertStatement:
    table: str
    columns: tuple[str, ...] | None  # None = schema order
    rows: tuple[tuple[Expr, ...], ...] = ()
    select: SelectStatement | None = None


@dataclass(frozen=True)
class UpdateStatement:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None


@dataclass(frozen=True)
class DeleteStatement:
    table: str
    where: Expr | None


@dataclass(frozen=True)
class TruncateStatement:
    table: str


@dataclass(frozen=True)
class DropTableStatement:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateViewStatement:
    """``CREATE VIEW name AS SELECT ...`` — the paper's Zone view."""

    name: str
    select: "SelectStatement"


@dataclass(frozen=True)
class DropViewStatement:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateMaterializedViewStatement:
    """``CREATE MATERIALIZED VIEW name AS SELECT ...`` — the defining
    SELECT runs once and its rows are stored; see
    :mod:`repro.engine.matview`."""

    name: str
    select: "SelectStatement"


@dataclass(frozen=True)
class RefreshMaterializedViewStatement:
    """``REFRESH MATERIALIZED VIEW name`` — re-run the stored SELECT
    and re-snapshot the source-table versions."""

    name: str


@dataclass(frozen=True)
class DropMaterializedViewStatement:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class ExecStatement:
    """``EXEC procname arg, arg, ...`` — the paper's spMakeCandidates
    invocations.  Arguments must be constant expressions."""

    procedure: str
    arguments: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class AnalyzeStatement:
    """``ANALYZE [table]`` — collect optimizer statistics.

    With no table, analyzes every table in the catalog.
    """

    table: str | None = None


Statement = (
    SelectStatement
    | CreateTableStatement
    | InsertStatement
    | UpdateStatement
    | DeleteStatement
    | TruncateStatement
    | DropTableStatement
    | CreateViewStatement
    | DropViewStatement
    | CreateMaterializedViewStatement
    | RefreshMaterializedViewStatement
    | DropMaterializedViewStatement
    | ExecStatement
    | AnalyzeStatement
    | UnionStatement
)
