"""Rule-driven logical query rewrites, applied between parse and plan.

The pass transforms the *statement* (the frozen AST), never the physical
plan: each rule is a pure function ``stmt -> (stmt, detail) | None``
that returns a new statement only when it changed something.  The
driver applies rules to a fixpoint (one firing per iteration, bounded
by :data:`MAX_PASSES`) and records a :class:`RuleFiring` per applied
rule — EXPLAIN renders the firings ahead of the operator tree, and the
``engine.rewrite.*`` counters aggregate them process-wide.  A statement
no rule applies to comes back as the same object.

Two properties are load-bearing:

* **Determinism.**  ``rewrite_statement`` is a pure function of the
  statement and the catalog.  The SELECT path rewrites once, unpriced
  (``price=False``), fingerprints the *rewritten* statement and hands
  that same statement to the planner, which prices the recorded
  firings for the EXPLAIN trace.  Rules therefore fire purely on
  structural applicability; the cost model is consulted only to
  *report* the estimated effect of a firing, never to gate it.

* **Semantics preservation.**  Every rule keeps the result multiset
  identical under the engine's NaN-as-NULL arithmetic (``NaN == NaN``
  is false, aggregates skip NaN).  The differential suite in
  ``tests/test_differential_sql.py`` checks row identity with rewrites
  on and off across hundreds of generated queries; the metamorphic
  tests in ``tests/test_engine_rewrite.py`` pin each rule's firing.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.engine.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    literal_value,
    scalar_value,
    split_conjuncts,
    transform,
)
from repro.engine.join import (
    BandJoin,
    CrossJoin,
    HashJoin,
    NestedLoopJoin,
    SemiJoin,
)
from repro.engine.operators import (
    Filter,
    IndexRangeScan,
    PlanNode,
    SeqScan,
    Sort,
    plan_nodes,
)
from repro.engine.optimizer.cost import DEFAULT_COST_MODEL, CostModel
from repro.engine.sql.ast import (
    Exists,
    InSubquery,
    JoinClause,
    SelectItem,
    SelectStatement,
    TableRef,
    UnionStatement,
    find_subquery_exprs,
    statement_exprs,
)
from repro.engine.sql.planner import (
    Planner,
    and_all,
    find_aggregates,
    rewrite as substitute_exprs,
)
from repro.errors import ReproError, SqlPlanError, TableNotFoundError
from repro.obs.metrics import count_swallowed_error, get_metrics

#: Upper bound on rule firings per statement scope.  Purely a runaway
#: backstop — real statements reach their fixpoint in a handful of
#: firings, and hitting the cap is deterministic.
MAX_PASSES = 32


# ----------------------------------------------------------------------
# firing records and pricing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleFiring:
    """One applied rewrite rule, with its cost-model-estimated effect.

    The estimates compare the *unrewritten* plans of the statement
    before and after the firing: ``est_rows`` sums the optimizer's row
    estimate over every plan node (a proxy for rows the plan touches),
    ``cost`` is the cost model's total work number.  ``None`` when the
    firing has not been priced (:func:`price_firings`) or the
    intermediate statement was not priceable.  ``before`` / ``after``
    are the statement around the firing, kept so an unpriced pass can
    be priced later without rewriting again.
    """

    rule: str
    detail: str
    est_rows_before: float | None = None
    est_rows_after: float | None = None
    cost_before: float | None = None
    cost_after: float | None = None
    before: SelectStatement | None = dataclasses.field(
        default=None, compare=False, repr=False
    )
    after: SelectStatement | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def describe(self) -> str:
        text = f"Rewrite {self.rule}: {self.detail}"
        if self.est_rows_before is not None and self.est_rows_after is not None:
            text += (
                f"  [est_rows {self.est_rows_before:.0f}"
                f"->{self.est_rows_after:.0f}"
            )
            if self.cost_before is not None and self.cost_after is not None:
                text += f", cost {self.cost_before:.0f}->{self.cost_after:.0f}"
            text += "]"
        return text


def plan_cost(plan: PlanNode, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Total cost-model work for an annotated plan tree."""
    total = sum(plan_cost(child, model) for child in plan._children())
    est = plan.est_rows or 0.0
    if isinstance(plan, SeqScan):
        table = plan.table
        return model.seq_scan(float(table.row_count), float(table.page_count))
    if isinstance(plan, IndexRangeScan):
        table = plan.index.table
        return total + model.index_range_scan(
            est, float(table.row_count), float(table.page_count),
            plan.index.tail_pages,
        )
    if isinstance(plan, Filter):
        return total + model.filter(plan.child.est_rows or 0.0)
    if isinstance(plan, HashJoin):
        return total + model.hash_join(
            plan.left.est_rows or 0.0, plan.right.est_rows or 0.0, est
        )
    if isinstance(plan, SemiJoin):
        return total + model.hash_join(
            plan.outer.est_rows or 0.0, plan.inner.est_rows or 0.0, est
        )
    if isinstance(plan, BandJoin):
        return total + model.band_join(
            plan.left.est_rows or 0.0, plan.right.est_rows or 0.0, est
        )
    if isinstance(plan, (NestedLoopJoin, CrossJoin)):
        return total + model.nested_loop_join(
            plan.left.est_rows or 0.0, plan.right.est_rows or 0.0, est
        )
    if isinstance(plan, Sort):
        rows = plan.child.est_rows or 0.0
        return total + rows * math.log2(max(rows, 2.0)) * model.sort_row
    return total + model.cpu_row * est


def _plan_metrics(
    stmt: SelectStatement, database, optimizer: str | None
) -> tuple[float | None, float | None]:
    """Price a statement by planning it with rewrites off."""
    try:
        plan = Planner(database, optimizer=optimizer, rewrites=False) \
            .plan_select(stmt)
    except ReproError:
        return None, None
    except Exception:
        count_swallowed_error("rewrite.plan_metrics")
        return None, None
    total = sum(node.est_rows or 0.0 for node in plan_nodes(plan))
    return total, plan_cost(plan)


def price_firings(
    firings, database, optimizer: str | None = None
) -> tuple[RuleFiring, ...]:
    """Price an unpriced pass's firings and count them in the metrics.

    Consecutive firings share a statement (one's ``after`` is the
    next's ``before``), so a chain of N firings costs N + 1 plannings.
    """
    priced = []
    last_stmt, last = None, (None, None)
    for firing in firings:
        est_before, cost_before = (
            last if firing.before is last_stmt
            else _plan_metrics(firing.before, database, optimizer)
        )
        last_stmt = firing.after
        last = _plan_metrics(last_stmt, database, optimizer)
        get_metrics().counter(f"engine.rewrite.{firing.rule}").inc()
        priced.append(dataclasses.replace(
            firing,
            est_rows_before=est_before, est_rows_after=last[0],
            cost_before=cost_before, cost_after=last[1],
        ))
    return tuple(priced)


# ----------------------------------------------------------------------
# expression utilities
# ----------------------------------------------------------------------
def _with(node, **fields):
    """``node`` with ``fields`` replaced, or ``node`` itself when every
    field already holds that very object."""
    for name, value in fields.items():
        if getattr(node, name) is not value:
            return dataclasses.replace(node, **fields)
    return node


def _same(new: tuple, old: tuple) -> tuple:
    """``old`` when ``new`` holds the same objects, else ``new``."""
    return old if all(map(operator.is_, new, old)) else new


def _map_statement_exprs(
    stmt: SelectStatement, map_expr, map_predicate=None
) -> SelectStatement:
    """Apply an expression map to every clause of a statement.

    ``map_predicate``, when given, maps the predicate positions (WHERE,
    HAVING, ON) instead, and a None ``map_expr`` leaves the other
    clauses as they are.  Returns ``stmt`` itself when every clause
    comes back as the same object.
    """
    map_predicate = map_predicate or map_expr

    def predicate(expr: Expr | None) -> Expr | None:
        return None if expr is None else map_predicate(expr)

    fields = {
        "joins": _same(tuple([
            _with(join, condition=predicate(join.condition))
            for join in stmt.joins
        ]), stmt.joins),
        "where": predicate(stmt.where),
        "having": predicate(stmt.having),
    }
    if map_expr is not None:
        fields["items"] = _same(tuple([
            item if item.star else _with(item, expr=map_expr(item.expr))
            for item in stmt.items
        ]), stmt.items)
        fields["group_by"] = _same(
            tuple([map_expr(e) for e in stmt.group_by]), stmt.group_by
        )
        fields["order_by"] = _same(tuple([
            _with(o, expr=map_expr(o.expr)) for o in stmt.order_by
        ]), stmt.order_by)
    return _with(stmt, **fields)


def _select_mentions(
    select: SelectStatement, alias: str, bare_names=None
) -> bool:
    """Does a subquery body reference ``alias`` (or, when ``bare_names``
    is given, an unqualified name from that set)?  Used to detect
    correlation into a relation a rule is about to restructure."""
    for expr in statement_exprs(select):
        for ref in expr.column_refs():
            qualifier = ref.qualifier.lower() if ref.qualifier else None
            if qualifier == alias:
                return True
            if (bare_names is not None and qualifier is None
                    and ref.name.lower() in bare_names):
                return True
        for node in find_subquery_exprs(expr):
            if _select_mentions(node.select, alias, bare_names):
                return True
    return False


def _is_bool_literal(expr: Expr, value: bool) -> bool:
    return isinstance(expr, Literal) and expr.value is value


_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_BOOL_OPS = _COMPARISONS | {"AND", "OR"}


def _boolish(expr: Expr) -> bool:
    """Is the expression already boolean-valued under engine eval?

    AND/OR absorption (``TRUE AND x -> x``) may only keep the raw
    operand when it evaluates to booleans; for a numeric ``x`` the
    conjunction coerces (``bool(x)``) while the bare operand does not,
    which would change dtype/values in a SELECT-item position.
    """
    if isinstance(expr, Literal):
        return isinstance(expr.value, bool)
    if isinstance(expr, BinaryOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        return op in _BOOL_OPS
    if isinstance(expr, UnaryOp):
        return expr.op.upper() == "NOT"
    if isinstance(expr, (Between, InList, Exists, InSubquery)):
        return True
    if isinstance(expr, FuncCall):
        return expr.name.lower() == "isnull"
    return False


# ----------------------------------------------------------------------
# rule: expression simplification
# ----------------------------------------------------------------------
_INT64 = np.iinfo(np.int64)


def _fits(value) -> bool:
    """A number (not a bool) numpy holds as float64 or int64."""
    return isinstance(value, float) or (
        type(value) is int and _INT64.min <= value <= _INT64.max
    )


def _number(expr: Expr) -> bool:
    """A numeric (non-bool) literal numpy holds as float64 or int64."""
    return isinstance(expr, Literal) and _fits(expr.value)


def _int64_may_wrap(op: str, left: Literal, right: Literal) -> bool:
    """Could numpy's int64 ``+``, ``-`` or ``*`` wrap, which it does
    silently?  An a-bit by b-bit product has at most a + b bits, a sum
    or difference one more than its wider operand."""
    lv, rv = left.value, right.value
    if not (isinstance(lv, int) and isinstance(rv, int)):
        return False
    bits = (lv.bit_length(), rv.bit_length())
    return (sum(bits) if op == "*" else max(bits) + 1) > 63


def _same_kind(left: Expr, right: Expr) -> bool:
    """Two literals numpy compares without a mixed-type question: both
    strings, or both numbers or bools."""
    if not (isinstance(left, Literal) and isinstance(right, Literal)):
        return False
    if isinstance(left.value, str) and isinstance(right.value, str):
        return True
    return all(
        isinstance(side.value, bool) or _number(side) for side in (left, right)
    )


def _fold_safe(expr: Expr) -> bool:
    """May ``expr``, whose children are literals, be replaced by the
    value the engine computes for it?  Only when the operands are of
    one kind, integers stay in int64 and no divisor is zero: the bit
    bound keeps ``+ - *`` from wrapping, and a negation is exact, so
    ``-9223372036854775808`` folds and ``-(INT64.min)`` does not."""
    if isinstance(expr, BinaryOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        left, right = expr.left, expr.right
        if op in _COMPARISONS:
            return _same_kind(left, right)
        if op not in ("+", "-", "*", "/", "%") \
                or not (_number(left) and _number(right)):
            return False
        if op in ("/", "%"):
            return right.value != 0  # type: ignore[union-attr]
        return not _int64_may_wrap(op, left, right)  # type: ignore[arg-type]
    if isinstance(expr, UnaryOp):
        operand = expr.operand
        if expr.op == "-":
            return isinstance(operand, Literal) \
                and not isinstance(operand.value, bool) \
                and _fits(literal_value(expr))
        return expr.op.upper() == "NOT" and isinstance(operand, Literal) \
            and isinstance(operand.value, bool)
    if isinstance(expr, Between):
        return all(map(_number, expr.children()))
    if isinstance(expr, InList):
        return isinstance(expr.value, Literal) \
            and all(_same_kind(expr.value, o) for o in expr.options)
    return False


def _fold_node(expr: Expr) -> Expr:
    if isinstance(expr, BinaryOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        left, right = expr.left, expr.right
        if op == "AND":
            if _is_bool_literal(left, False) or _is_bool_literal(right, False):
                return Literal(False)
            if _is_bool_literal(left, True) and _boolish(right):
                return right
            if _is_bool_literal(right, True) and _boolish(left):
                return left
            return expr
        if op == "OR":
            if _is_bool_literal(left, True) or _is_bool_literal(right, True):
                return Literal(True)
            if _is_bool_literal(left, False) and _boolish(right):
                return right
            if _is_bool_literal(right, False) and _boolish(left):
                return left
            return expr
    if not _fold_safe(expr):
        return expr
    # the value comes from the engine itself, so folding cannot change
    # an answer: 2**53 + 1 = 2**53.0 folds to TRUE, as numpy compares it
    return Literal(scalar_value(expr))


def _denot_node(expr: Expr) -> Expr:
    if (
        isinstance(expr, UnaryOp) and expr.op.upper() == "NOT"
        and isinstance(expr.operand, UnaryOp)
        and expr.operand.op.upper() == "NOT"
    ):
        return expr.operand.operand
    return expr


def _drop_true_conjuncts(predicate: Expr | None) -> Expr | None:
    conjuncts = split_conjuncts(predicate)
    kept = [c for c in conjuncts if not _is_bool_literal(c, True)]
    return predicate if len(kept) == len(conjuncts) else and_all(kept)


def _rule_simplify(stmt: SelectStatement, database):
    """Fold constants in every clause, drop TRUE conjuncts from WHERE
    and HAVING, then collapse ``NOT NOT x`` in predicate positions —
    there the result feeds a boolean coercion, so ``NOT NOT x == x``
    even for non-boolean ``x``.  (Folding has already collapsed any
    conjunct chain holding a FALSE into a bare FALSE.)"""
    folded = _map_statement_exprs(stmt, lambda e: transform(e, _fold_node))
    tautless = _with(
        folded,
        where=_drop_true_conjuncts(folded.where),
        having=_drop_true_conjuncts(folded.having),
    )
    simplified = _map_statement_exprs(
        tautless, None, lambda e: transform(e, _denot_node)
    )
    details = [
        detail for before, after, detail in (
            (stmt, folded, "folded constant subexpressions"),
            (folded, tautless, "dropped tautological conjunct(s)"),
            (tautless, simplified, "collapsed double negation"),
        )
        if after is not before
    ]
    if not details:
        return None
    return simplified, "; ".join(details)


# ----------------------------------------------------------------------
# rule: CTE and view inlining
# ----------------------------------------------------------------------
def _convert_refs(stmt: SelectStatement, convert) -> SelectStatement:
    """Rebuild FROM/JOIN refs through ``convert`` (``stmt`` itself when
    every ref comes back as the same object)."""
    return _with(
        stmt,
        source=None if stmt.source is None else convert(stmt.source),
        joins=_same(tuple(
            _with(join, table=convert(join.table)) for join in stmt.joins
        ), stmt.joins),
    )


def _rule_inline(stmt: SelectStatement, database):
    """Replace CTE and view references by derived tables over their
    bodies (a CTE name shadows a view), then drop the CTEs."""
    bodies = {name.lower(): body for name, body in stmt.ctes}
    hits: dict[str, list[str]] = {"CTE(s)": [], "view(s)": []}

    def convert(ref: TableRef) -> TableRef:
        if ref.is_subquery or ref.is_function:
            return ref
        name = ref.table.lower()
        if name in bodies:
            hits["CTE(s)"].append(name)
            return TableRef("", ref.alias, subquery=bodies[name])
        if database.has_view(name):
            hits["view(s)"].append(name)
            return TableRef("", ref.alias, subquery=database.view(name))
        return ref

    converted = _convert_refs(stmt, convert)
    if converted is stmt and not stmt.ctes:
        return None
    inlined = [
        kind + " " + ", ".join(f"'{n}'" for n in dict.fromkeys(names))
        for kind, names in hits.items() if names
    ]
    detail = (
        f"inlined {' and '.join(inlined)} as derived tables" if inlined
        else "dropped unreferenced CTE(s)"
    )
    return _with(converted, ctes=()), detail


# ----------------------------------------------------------------------
# rule: HAVING -> WHERE (filter before aggregate)
# ----------------------------------------------------------------------
def _rule_having_pushdown(stmt: SelectStatement, database):
    if stmt.having is None or not stmt.group_by:
        return None
    group_exprs = set(stmt.group_by)
    movable: list[Expr] = []
    kept: list[Expr] = []
    for conjunct in split_conjuncts(stmt.having):
        if find_aggregates(conjunct) or find_subquery_exprs(conjunct):
            kept.append(conjunct)
            continue
        refs = list(conjunct.column_refs())
        # Sound when the conjunct only touches grouping expressions:
        # those are constant within each group, so filtering rows before
        # aggregation removes exactly the groups HAVING would.
        if all(ref in group_exprs for ref in refs):
            movable.append(conjunct)
        else:
            kept.append(conjunct)
    if not movable:
        return None
    new_where = and_all(split_conjuncts(stmt.where) + movable)
    new_stmt = dataclasses.replace(
        stmt, where=new_where, having=and_all(kept)
    )
    return new_stmt, (
        f"moved {len(movable)} HAVING conjunct(s) on group keys into WHERE"
    )


# ----------------------------------------------------------------------
# rule: redundant LEFT JOIN elimination
# ----------------------------------------------------------------------
def _rule_join_elimination(stmt: SelectStatement, database):
    if stmt.source is None or not stmt.joins:
        return None
    if any(item.star and item.star_qualifier is None for item in stmt.items):
        return None
    for idx, join in enumerate(stmt.joins):
        if join.kind != "left" or join.condition is None:
            continue
        ref = join.table
        if ref.is_subquery or ref.is_function:
            continue
        if database.has_view(ref.table):
            continue
        if any(name.lower() == ref.table.lower() for name, _ in stmt.ctes):
            continue
        try:
            table = database.table(ref.table)
        except TableNotFoundError:
            continue
        primary_key = getattr(table.schema, "primary_key", None)
        if primary_key is None:
            continue
        conditions = split_conjuncts(join.condition)
        if len(conditions) != 1:
            continue
        condition = conditions[0]
        if not (isinstance(condition, BinaryOp) and condition.op == "="):
            continue
        alias = ref.alias.lower()
        columns = {c.lower() for c in table.schema.column_names}

        def is_right_pk(expr: Expr) -> bool:
            return (
                isinstance(expr, ColumnRef)
                and expr.qualifier is not None
                and expr.qualifier.lower() == alias
                and expr.name.lower() == primary_key.lower()
            )

        def mentions(expr: Expr) -> bool:
            for column in expr.column_refs():
                qualifier = (
                    column.qualifier.lower() if column.qualifier else None
                )
                if qualifier == alias:
                    return True
                if qualifier is None and column.name.lower() in columns:
                    return True  # could resolve here: be conservative
            for node in find_subquery_exprs(expr):
                if _select_mentions(node.select, alias, columns):
                    return True
            return False

        if is_right_pk(condition.left):
            other = condition.right
        elif is_right_pk(condition.right):
            other = condition.left
        else:
            continue
        if mentions(other):
            continue
        used = False
        for item in stmt.items:
            if item.star:
                if (item.star_qualifier is not None
                        and item.star_qualifier.lower() == alias):
                    used = True
                continue
            if item.expr is not None and mentions(item.expr):
                used = True
        for pos, other_join in enumerate(stmt.joins):
            if pos != idx and other_join.condition is not None \
                    and mentions(other_join.condition):
                used = True
        for expr in (
            [stmt.where, stmt.having]
            + list(stmt.group_by)
            + [o.expr for o in stmt.order_by]
        ):
            if expr is not None and mentions(expr):
                used = True
        if used:
            continue
        new_joins = stmt.joins[:idx] + stmt.joins[idx + 1:]
        new_stmt = dataclasses.replace(stmt, joins=new_joins)
        return new_stmt, (
            f"eliminated LEFT JOIN '{ref.alias}' "
            "(keyed on its primary key, never referenced)"
        )
    return None


# ----------------------------------------------------------------------
# derived tables: output resolution, merge, predicate pushdown
# ----------------------------------------------------------------------
def _derived_outputs(body: SelectStatement, database) -> dict[str, Expr] | None:
    """Output name -> defining expression of a star-free derived body.

    None when its output names do not resolve or repeat.  Outputs that
    aggregate or hold a subquery are left out: an outer reference to
    one cannot be replaced by its definition.
    """
    try:
        names = Planner(database, rewrites=False).select_output_names(body)
    except ReproError:
        return None
    if len(set(names)) != len(names):
        return None
    outputs: dict[str, Expr] = {}
    for name, item in zip(names, body.items):
        try:
            if find_aggregates(item.expr) or find_subquery_exprs(item.expr):
                continue
        except SqlPlanError:
            continue  # nested aggregates
        outputs[name] = item.expr
    return outputs


def _mergeable_inner(inner: SelectStatement) -> bool:
    return (
        inner.source is not None
        and not inner.joins
        and not inner.group_by
        and inner.having is None
        and not inner.distinct
        and inner.limit is None
        and inner.offset is None
        and not inner.order_by
        and not inner.ctes
    )


def _rule_derived_merge(stmt: SelectStatement, database):
    if stmt.ctes or stmt.source is None:
        return None
    slots: list[tuple[int | None, TableRef]] = [(None, stmt.source)]
    slots += [(i, join.table) for i, join in enumerate(stmt.joins)]
    single_outer = len(slots) == 1
    for slot, ref in slots:
        if not ref.is_subquery:
            continue
        if slot is not None and stmt.joins[slot].kind == "left":
            continue  # inner WHERE must not leak past NULL padding
        inner = ref.subquery
        assert inner is not None
        if not _mergeable_inner(inner):
            continue
        inner_where = split_conjuncts(inner.where)
        if any(find_subquery_exprs(c) for c in inner_where):
            continue  # requalification can't reach into subquery bodies
        star_items = [item for item in inner.items if item.star]
        if star_items and not (
            len(inner.items) == 1 and star_items[0].star_qualifier is None
        ):
            continue
        alias = ref.alias.lower()
        assert inner.source is not None
        inner_alias = inner.source.alias.lower()

        def requal(node: Expr) -> Expr:
            if isinstance(node, ColumnRef):
                qualifier = node.qualifier.lower() if node.qualifier else None
                if qualifier is None or qualifier == inner_alias:
                    return ColumnRef(node.name, ref.alias)
            return node

        mapping: dict[Expr, Expr] = {}
        if not star_items:
            outputs = _derived_outputs(inner, database)
            if outputs is None or len(outputs) != len(inner.items):
                continue
            for name, expr in outputs.items():
                target = transform(expr, requal)
                mapping[ColumnRef(name, ref.alias)] = target
                if single_outer:
                    mapping[ColumnRef(name)] = target
            names = set(outputs)
            exprs = statement_exprs(stmt)
            # Star items expanding the derived table would change from
            # the derived output list to the inner table's columns.
            if any(
                item.star and (item.star_qualifier is None
                               or item.star_qualifier.lower() == alias)
                for item in stmt.items
            ):
                continue
            # Bare outer refs that match a derived output are ambiguous
            # to re-map when other relations are in scope.
            if not single_outer and any(
                column.qualifier is None and column.name.lower() in names
                for expr in exprs for column in expr.column_refs()
            ):
                continue
            # Correlated subquery expressions referencing the derived
            # table can't be requalified (their bodies are not walked).
            if any(
                _select_mentions(node.select, alias, names)
                for expr in exprs for node in find_subquery_exprs(expr)
            ):
                continue

        def map_expr(expr: Expr) -> Expr:
            return substitute_exprs(expr, mapping)

        mapped = _map_statement_exprs(stmt, map_expr)
        items = tuple(
            # keep the output column name the derived table gave it
            _with(new, alias=Planner._output_name(old, pos))
            if not old.star and old.alias is None and new.expr != old.expr
            else new
            for pos, (old, new) in enumerate(zip(stmt.items, mapped.items))
        )
        where = and_all(
            [map_expr(c) for c in split_conjuncts(stmt.where)]
            + [transform(c, requal) for c in inner_where]
        )
        merged_ref = dataclasses.replace(inner.source, alias=ref.alias)
        new_stmt = _convert_refs(
            dataclasses.replace(mapped, items=items, where=where),
            lambda r: merged_ref if r is ref else r,
        )
        return new_stmt, (
            f"merged derived table '{ref.alias}' into the outer query"
        )
    return None


def _rule_predicate_pushdown(stmt: SelectStatement, database):
    if stmt.source is None or stmt.where is None:
        return None
    refs = [stmt.source] + [j.table for j in stmt.joins]
    single_outer = len(refs) == 1
    nullable = {
        join.table.alias.lower()
        for join in stmt.joins
        if join.kind == "left"
    }
    derived = {
        ref.alias.lower(): ref.subquery
        for ref in refs
        if ref.is_subquery and ref.alias.lower() not in nullable
    }
    if not derived:
        return None

    def translate(conjunct: Expr):
        """(alias, outer column -> inner expression) when ``conjunct``
        reads exactly one derived table and can be evaluated inside it,
        else None."""
        try:
            if find_aggregates(conjunct) or find_subquery_exprs(conjunct):
                return None
        except SqlPlanError:
            return None
        columns = conjunct.column_refs()
        aliases: set[str] = set()
        for column in columns:
            if column.qualifier is not None:
                aliases.add(column.qualifier.lower())
            elif single_outer:
                aliases.add(refs[0].alias.lower())
            else:
                return None
        if len(aliases) != 1:
            return None
        alias = aliases.pop()
        sub = derived.get(alias)
        if sub is None or sub.limit is not None or sub.offset is not None:
            return None
        stars = [item for item in sub.items if item.star]
        if stars:
            # only the plain pass-through star is translatable
            if not (
                len(sub.items) == 1 and stars[0].star_qualifier is None
                and not sub.joins and sub.source is not None
                and not sub.group_by
            ):
                return None
            return alias, {
                column: ColumnRef(column.name, sub.source.alias)
                for column in columns
            }
        outputs = _derived_outputs(sub, database) or {}
        targets = [outputs.get(column.name.lower()) for column in columns]
        if any(target is None for target in targets):
            return None
        # below a GROUP BY the filter must bind to group keys: those are
        # constant per group, so pre-filtering rows removes exactly the
        # groups the outer filter would.
        if sub.group_by and not set(targets) <= set(sub.group_by):
            return None
        return alias, dict(zip(columns, targets))

    moved: dict[str, list[Expr]] = {}
    kept: list[Expr] = []
    for conjunct in split_conjuncts(stmt.where):
        translated = translate(conjunct)
        if translated is None:
            kept.append(conjunct)
            continue
        alias, mapping = translated
        moved.setdefault(alias, []).append(
            substitute_exprs(conjunct, mapping)
        )
    if not moved:
        return None

    def convert(ref: TableRef) -> TableRef:
        pushed = moved.get(ref.alias.lower())
        if pushed is None or not ref.is_subquery:
            return ref
        sub = ref.subquery
        assert sub is not None
        new_where = and_all(split_conjuncts(sub.where) + pushed)
        return dataclasses.replace(
            ref, subquery=dataclasses.replace(sub, where=new_where)
        )

    converted = _with(_convert_refs(stmt, convert), where=and_all(kept))
    total = sum(len(v) for v in moved.values())
    aliases_text = ", ".join(f"'{a}'" for a in sorted(moved))
    return converted, (
        f"pushed {total} predicate(s) into derived table(s) {aliases_text}"
    )


# ----------------------------------------------------------------------
# rule: eager aggregation below a PK-keyed join
# ----------------------------------------------------------------------
def _refs_outside_aggregates(expr: Expr) -> list[ColumnRef]:
    found: list[ColumnRef] = []

    def visit(node: Expr) -> None:
        if isinstance(node, FuncCall) and node.name.lower() in (
            "count", "count_distinct", "sum", "min", "max", "avg"
        ):
            return
        if isinstance(node, ColumnRef):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(expr)
    return found


def _rule_aggregate_pushdown(stmt: SelectStatement, database):
    if (
        stmt.source is None or len(stmt.joins) != 1 or stmt.ctes
        or stmt.distinct or stmt.having is not None
        or len(stmt.group_by) != 1
    ):
        return None
    join = stmt.joins[0]
    if join.kind != "inner" or join.condition is None:
        return None
    conditions = split_conjuncts(join.condition)
    if len(conditions) != 1:
        return None
    condition = conditions[0]
    if not (
        isinstance(condition, BinaryOp) and condition.op == "="
        and isinstance(condition.left, ColumnRef)
        and isinstance(condition.right, ColumnRef)
    ):
        return None
    keep_ref, agg_ref = stmt.source, join.table
    for ref in (keep_ref, agg_ref):
        if ref.is_subquery or ref.is_function:
            return None
        if database.has_view(ref.table):
            return None
    try:
        keep_table = database.table(keep_ref.table)
        agg_table = database.table(agg_ref.table)
    except TableNotFoundError:
        return None
    keep_alias = keep_ref.alias.lower()
    agg_alias = agg_ref.alias.lower()
    keep_cols = {c.lower() for c in keep_table.schema.column_names}
    agg_cols = {c.lower() for c in agg_table.schema.column_names}

    def side_of(column: ColumnRef) -> str | None:
        qualifier = column.qualifier.lower() if column.qualifier else None
        if qualifier == keep_alias:
            return "keep"
        if qualifier == agg_alias:
            return "agg"
        if qualifier is None:
            in_keep = column.name.lower() in keep_cols
            in_agg = column.name.lower() in agg_cols
            if in_keep and not in_agg:
                return "keep"
            if in_agg and not in_keep:
                return "agg"
        return None

    sides = (side_of(condition.left), side_of(condition.right))
    if sides == ("keep", "agg"):
        keep_key, agg_key = condition.left, condition.right
    elif sides == ("agg", "keep"):
        keep_key, agg_key = condition.right, condition.left
    else:
        return None
    # grouping on the preserved side's join key, which must be its
    # primary key: then each group holds exactly one preserved row and
    # the outer re-aggregation over partials is exact
    if stmt.group_by[0] != keep_key:
        return None
    primary_key = getattr(keep_table.schema, "primary_key", None)
    if primary_key is None or primary_key.lower() != keep_key.name.lower():
        return None
    if agg_key.name.lower() not in agg_cols:
        return None

    aggregate_calls: list[FuncCall] = []
    try:
        for item in stmt.items:
            if item.star:
                return None
            assert item.expr is not None
            aggregate_calls += find_aggregates(item.expr)
        for order in stmt.order_by:
            aggregate_calls += find_aggregates(order.expr)
    except SqlPlanError:
        return None
    deduped: list[FuncCall] = []
    for call in aggregate_calls:
        if call not in deduped:
            deduped.append(call)
    if not deduped:
        return None
    for call in deduped:
        func = call.name.lower()
        # COUNT is excluded on purpose: grouped COUNT yields int64 while
        # the re-aggregating SUM over partial counts would yield float64,
        # changing the observable output dtype.  SUM/MIN/MAX are float64
        # either way, so the rewrite is invisible.
        if func not in ("sum", "min", "max") or len(call.args) != 1:
            return None
        if find_subquery_exprs(call.args[0]):
            return None
        for column in call.args[0].column_refs():
            if side_of(column) != "agg":
                return None
    # no naked references to the aggregated side may survive the merge
    for expr in (
        [item.expr for item in stmt.items if item.expr is not None]
        + [o.expr for o in stmt.order_by]
        + list(stmt.group_by)
    ):
        if find_subquery_exprs(expr):
            return None
        for column in _refs_outside_aggregates(expr):
            if side_of(column) != "keep":
                return None
    keep_where: list[Expr] = []
    agg_where: list[Expr] = []
    for conjunct in split_conjuncts(stmt.where):
        if find_subquery_exprs(conjunct):
            return None
        conjunct_sides = {
            side_of(column) for column in conjunct.column_refs()
        }
        if None in conjunct_sides:
            return None
        if conjunct_sides <= {"keep"}:
            keep_where.append(conjunct)
        elif conjunct_sides == {"agg"}:
            agg_where.append(conjunct)
        else:
            return None

    alias = "__pre0"
    while alias in (keep_alias, agg_alias):
        alias += "_"
    partial_items = [SelectItem(agg_key, "__pk")]
    mapping: dict[Expr, Expr] = {}
    for pos, call in enumerate(deduped):
        partial_items.append(SelectItem(call, f"__pa{pos}"))
        # each outer group joins exactly one partial row (keep-side PK),
        # so re-applying the same function reproduces the value exactly
        mapping[call] = FuncCall(
            call.name.lower(), (ColumnRef(f"__pa{pos}", alias),)
        )
    body = SelectStatement(
        items=tuple(partial_items),
        source=agg_ref,
        where=and_all(agg_where),
        group_by=(agg_key,),
    )
    new_join = JoinClause(
        "inner",
        TableRef("", alias, subquery=body),
        BinaryOp("=", keep_key, ColumnRef("__pk", alias)),
    )

    new_stmt = dataclasses.replace(
        _map_statement_exprs(stmt, lambda e: substitute_exprs(e, mapping)),
        joins=(new_join,),
        where=and_all(keep_where),
    )
    return new_stmt, (
        f"pushed {len(deduped)} aggregate(s) below the join, "
        f"pre-grouped '{agg_ref.alias}' by {agg_key.name} as '{alias}'"
    )


# ----------------------------------------------------------------------
# the rule table and the driver
# ----------------------------------------------------------------------
#: (name, rule) in priority order; the driver applies the first rule
#: that fires, re-prices, and iterates to a fixpoint.
REWRITE_RULES: tuple[tuple[str, object], ...] = (
    ("simplify_expressions", _rule_simplify),
    ("inline_ctes_and_views", _rule_inline),
    ("filter_before_aggregate", _rule_having_pushdown),
    ("redundant_join_elimination", _rule_join_elimination),
    ("derived_table_merge", _rule_derived_merge),
    ("predicate_pushdown", _rule_predicate_pushdown),
    ("aggregate_pushdown", _rule_aggregate_pushdown),
)


def _fire_once(stmt: SelectStatement, database):
    """First applicable rule anywhere in the statement, or None.

    Top-level rules take priority; afterwards the driver recurses into
    derived-table bodies (their own scopes) so e.g. a view inlined into
    a derived table is itself flattened.
    """
    for rule, apply in REWRITE_RULES:
        outcome = apply(stmt, database)  # type: ignore[operator]
        if outcome is not None:
            new_stmt, detail = outcome
            return new_stmt, rule, detail
    for ref in [stmt.source] + [join.table for join in stmt.joins]:
        if ref is None or not ref.is_subquery:
            continue
        nested = _fire_once(ref.subquery, database)
        if nested is None:
            continue
        body, rule, detail = nested
        new_ref = dataclasses.replace(ref, subquery=body)
        return (
            _convert_refs(stmt, lambda r: new_ref if r is ref else r),
            rule,
            f"[in derived '{ref.alias}'] {detail}",
        )
    return None


def rewrite_statement(
    stmt,
    database,
    price: bool = True,
    optimizer: str | None = None,
):
    """Rewrite a SELECT (or UNION) statement to its fixpoint.

    Returns ``(statement, firings)``.  The rewritten AST depends only
    on the statement and the catalog — ``price`` controls whether the
    firings are priced through the cost model and counted in the
    metrics registry (:func:`price_firings`), never which rules fire,
    so the unpriced pass the SELECT path fingerprints
    (``price=False``) is the very statement the planner then plans.
    """
    if isinstance(stmt, UnionStatement):
        members = []
        firings: list[RuleFiring] = []
        for member in stmt.selects:
            rewritten, fired = rewrite_statement(
                member, database, price=price, optimizer=optimizer
            )
            members.append(rewritten)
            firings.extend(fired)
        if firings:
            stmt = UnionStatement(tuple(members))
        return stmt, tuple(firings)

    firings = []
    for _ in range(MAX_PASSES):
        fired = _fire_once(stmt, database)
        if fired is None:
            break
        new_stmt, rule, detail = fired
        firings.append(RuleFiring(rule, detail, before=stmt, after=new_stmt))
        stmt = new_stmt
    if price:
        return stmt, price_firings(firings, database, optimizer)
    return stmt, tuple(firings)
