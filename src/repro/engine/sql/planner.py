"""Logical planning: SELECT ASTs to executable operator trees.

Two optimizer modes:

* ``"cost"`` (the default) — statistics-driven planning via
  :mod:`repro.engine.optimizer`: per-relation cardinality estimates
  pick access paths, and inner-join blocks are reordered by the
  cost-based join-order search (DP up to ~6 relations, greedy beyond)
  instead of being joined in FROM-clause order;
* ``"syntactic"`` — the historical planner: joins in written order.

Both modes share the two moves the paper credits for the SQL win
(Section 2.6):

* **early filtering** — WHERE conjuncts that mention a single relation
  are pushed below the joins onto that relation's scan;
* **index-aware access paths** — a pushed ``pk = literal`` on a base
  table becomes a primary-key seek and a pushed range predicate on its
  clustered-index leading key a range scan (both an
  :class:`~repro.engine.operators.IndexRangeScan`) instead of a full
  scan, and equi-join conjuncts select a hash join over a nested loop.

Every finished plan — under either mode — gets an ``est_rows``
annotation pass so EXPLAIN ANALYZE can report per-operator q-error.

Aggregation rewrites aggregate calls found in the select list / HAVING
into references to columns computed by one
:class:`~repro.engine.aggregate.Aggregate` node.  ``IN`` / ``EXISTS``
subqueries become :class:`~repro.engine.join.SemiJoin` operators whose
inner child is the subquery's body.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.aggregate import Aggregate, AggregateSpec
from repro.engine.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    UnaryOp,
    split_conjuncts,
    transform,
)
from repro.engine.index import PrimaryKeyIndex, range_bounds
from repro.engine.join import (
    BandJoin,
    CrossJoin,
    HashJoin,
    NestedLoopJoin,
    SemiJoin,
)
from repro.engine.operators import (
    Distinct,
    Filter,
    IndexRangeScan,
    Limit,
    PlanNode,
    Project,
    ProjectPassthrough,
    SeqScan,
    Sort,
    SubqueryScan,
    TableFunctionScan,
    plan_nodes,
)
from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    RelationProfile,
    annotate_plan,
    profile_for_table,
)
from repro.engine.optimizer.cost import DEFAULT_COST_MODEL
from repro.engine.optimizer.joinorder import JoinPred, JoinRel, order_relations
from repro.engine.sql.ast import (
    Exists,
    InSubquery,
    SelectItem,
    SelectStatement,
    TableRef,
    find_subquery_exprs,
)
from repro.engine.sql.parser import AGGREGATE_FUNCS
from repro.engine.types import ColumnType
from repro.errors import SqlPlanError

#: Recognized planner modes.
OPTIMIZER_MODES = ("cost", "syntactic")


# ----------------------------------------------------------------------
# expression utilities
# ----------------------------------------------------------------------
def and_all(conjuncts: list[Expr]) -> Expr | None:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for part in conjuncts[1:]:
        result = BinaryOp("AND", result, part)
    return result


def rewrite(expr: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Structurally replace subtrees (used to slot in aggregate outputs).

    Matching is by node equality (the nodes are frozen dataclasses, so
    identical shapes compare equal); a replaced subtree is not searched
    further, and subquery bodies are never rewritten through an outer
    mapping.
    """
    return transform(expr, pre=mapping.get)


def find_aggregates(expr: Expr) -> list[FuncCall]:
    """All aggregate FuncCall nodes in a tree (no nesting allowed)."""
    found: list[FuncCall] = []

    def visit(node: Expr, inside_aggregate: bool) -> None:
        if isinstance(node, FuncCall) and node.name.lower() in AGGREGATE_FUNCS:
            if inside_aggregate:
                raise SqlPlanError("nested aggregate functions are not allowed")
            found.append(node)
            for child in node.children():
                visit(child, True)
            return
        for child in node.children():
            visit(child, inside_aggregate)

    visit(expr, False)
    return found


# ----------------------------------------------------------------------
# planning context
# ----------------------------------------------------------------------
@dataclass
class _Relation:
    """One FROM/JOIN entry during planning."""

    ref: TableRef
    scan: PlanNode
    columns: set[str]  # lowercased column names of the underlying table
    derived: bool = False  # subquery / view / CTE binding (no base table)


class Planner:
    """Plans SELECT statements against a :class:`Database`'s catalog.

    ``optimizer`` / ``rewrites`` override the database's config for
    this planner; left None, every planning reads ``database.config``
    live, so one long-lived planner follows ``db.config = ...``.
    """

    def __init__(
        self,
        database,
        optimizer: str | None = None,
        rewrites: bool | None = None,
    ):
        self.database = database
        if optimizer is not None and optimizer not in OPTIMIZER_MODES:
            raise SqlPlanError(
                f"unknown optimizer mode '{optimizer}'; "
                f"expected one of {OPTIMIZER_MODES}"
            )
        self.optimizer = optimizer
        self._rewrites = rewrites

    @property
    def mode(self) -> str:
        """Effective optimizer mode: explicit override, else the database's."""
        if self.optimizer is not None:
            return self.optimizer
        return self.database.config.optimizer

    @property
    def rewrites(self) -> bool:
        """Run the rewrite pass: explicit override, else the database's."""
        if self._rewrites is not None:
            return self._rewrites
        return self.database.config.rewrites

    def _overrides(self):
        """The database's learned selectivity overrides, when feedback
        is on (None otherwise) — threaded into every estimator so the
        DP ordering, est_rows and q-error all reflect what the loop has
        learned."""
        feedback = self.database.feedback
        return feedback.overrides if feedback is not None else None

    # ------------------------------------------------------------------
    def plan_select(
        self, stmt: SelectStatement, *, rewritten=None, _nested: bool = False
    ) -> PlanNode:
        """Plan ``stmt``, the statement as written.

        ``rewritten`` is the ``(statement, firings)`` of an unpriced
        rewrite pass the caller already ran over ``stmt`` (the SELECT
        path does, to fingerprint it): the planner plans that statement
        and prices its firings for the EXPLAIN trace instead of
        rewriting again.
        """
        trace: tuple[str, ...] = ()
        substituted = self._substitute_matview(stmt)
        if substituted is not None:
            plan = substituted
        else:
            if not _nested and self.rewrites:
                from repro.engine.optimizer.rewrite import (
                    price_firings,
                    rewrite_statement,
                )

                if rewritten is None:
                    rewritten = rewrite_statement(
                        stmt, self.database, price=False
                    )
                stmt, firings = rewritten
                trace = tuple(
                    f.describe()
                    for f in price_firings(
                        firings, self.database, self.optimizer
                    )
                )
            plan = self._plan_select(stmt)
        annotate_plan(plan, self._overrides())
        if self.database.config.compiled_expressions:
            # operators with expressions lower them into fused kernels
            # lazily, on first execution
            for node in plan_nodes(plan):
                node.compiled = True
        if trace:
            plan.rewrite_trace = trace
        return plan

    def _substitute_matview(self, stmt: SelectStatement) -> PlanNode | None:
        """Answer the query from a fresh materialized view when its
        definition matches the statement's normalized SQL.

        The database decides matching and freshness
        (:meth:`~repro.engine.database.Database.matching_matview`); the
        substituted plan is a scan of the precomputed rows, flagged in
        EXPLAIN as ``[answered from matview <name>]``.
        """
        view = self.database.matching_matview(stmt)
        if view is None:
            return None
        table = self.database.table(view.name)
        scan = SeqScan(
            table, view.name, reason=f"answered from matview {view.name}"
        )
        return Project(
            scan,
            [
                (name.lower(), ColumnRef(name.lower()))
                for name in table.schema.column_names
            ],
        )

    def _plan_select(self, stmt: SelectStatement) -> PlanNode:
        relations = self._bind_relations(stmt)
        marks: list[str] = []
        where_parts, semis = self._split_subqueries(
            split_conjuncts(stmt.where), relations, marks
        )

        # Aliases bound as the nullable side of a LEFT JOIN: their WHERE
        # conjuncts must apply *after* NULL padding, so no pushdown.
        nullable = {
            join.table.alias.lower()
            for join in stmt.joins
            if join.kind == "left"
        }

        # Early filtering: push single-relation conjuncts onto their
        # scan, and a subquery's semi-joins onto the relation that owns
        # its outer keys.
        remaining: list[Expr] = []
        pushed: dict[str, list[Expr]] = {rel.ref.alias.lower(): [] for rel in relations}
        for conjunct in where_parts:
            owner = self._single_relation(conjunct.column_refs(), relations)
            if (
                owner is not None
                and owner not in nullable
                and not find_aggregates(conjunct)
            ):
                pushed[owner].append(conjunct)
            else:
                remaining.append(conjunct)
        semis_of: dict[str | None, list] = {}
        for entry in semis:
            owner = self._single_relation(entry[0], relations)
            semis_of.setdefault(
                None if owner in nullable else owner, []
            ).append(entry)

        for rel in relations:
            alias = rel.ref.alias.lower()
            rel.scan = self._semi_filtered(
                self._access_path(rel, pushed[alias]), semis_of.get(alias, ())
            )

        if self._can_reorder(stmt, relations):
            plan = self._join_relations_cost(stmt, relations, remaining)
        else:
            plan = self._join_relations(stmt, relations, remaining)
        plan = self._semi_filtered(plan, semis_of.get(None, ()))

        plan, outputs, order_keys = self._aggregate_and_project(
            stmt, plan, relations, marks
        )

        if order_keys:
            # ORDER BY may reference select aliases *or* source columns,
            # so sort over the union of projected outputs and the input
            # batch, then strip back down to the select list.
            plan = ProjectPassthrough(plan, outputs)
            plan = Sort(plan, order_keys)
            plan = Project(plan, [(name, ColumnRef(name)) for name, _ in outputs])
        else:
            plan = Project(plan, outputs)
        if stmt.distinct:
            plan = Distinct(plan)
        if stmt.limit is not None:
            plan = Limit(plan, stmt.limit, stmt.offset or 0)
        return plan

    # ------------------------------------------------------------------
    def _bind_relations(self, stmt: SelectStatement) -> list[_Relation]:
        if stmt.source is None:
            raise SqlPlanError("SELECT without FROM needs constant items only")
        refs = [stmt.source] + [j.table for j in stmt.joins]
        aliases = [r.alias.lower() for r in refs]
        if len(set(aliases)) != len(aliases):
            raise SqlPlanError(f"duplicate table alias in FROM: {aliases}")
        ctes = {name.lower(): body for name, body in stmt.ctes}
        relations = []
        for ref in refs:
            relations.append(self._bind_one(ref, ctes))
        return relations

    def _bind_one(
        self,
        ref: TableRef,
        ctes: dict[str, SelectStatement] | None = None,
    ) -> _Relation:
        if ref.is_subquery:
            assert ref.subquery is not None
            return self._derived(ref, ref.subquery)
        if ref.is_function:
            tvf = self.database.table_function(ref.table)
            return _Relation(
                ref=ref,
                scan=TableFunctionScan(
                    tvf.fn, ref.function_args or (), ref.alias, tvf.name
                ),
                columns={c.lower() for c in tvf.columns},
            )
        # CTEs shadow views and base tables of the same name
        if ctes and ref.table.lower() in ctes:
            return self._derived(ref, ctes[ref.table.lower()])
        if self.database.has_view(ref.table):
            return self._derived(ref, self.database.view(ref.table), True)
        table = self.database.table(ref.table)
        return _Relation(
            ref=ref,
            scan=SeqScan(table, ref.alias),
            columns={c.lower() for c in table.schema.column_names},
        )

    def _derived(
        self, ref: TableRef, body: SelectStatement, view: bool = False
    ) -> _Relation:
        """A relation over a planned SELECT: a derived table, a CTE or,
        with ``view``, the view whose stored body ``body`` is."""
        scan = SubqueryScan(self.plan_select(body, _nested=True), ref.alias)
        if view:
            scan.view = body
        return _Relation(
            ref=ref,
            scan=scan,
            columns={name.lower() for name in self.select_output_names(body)},
            derived=True,
        )

    # ------------------------------------------------------------------
    # EXISTS / IN (SELECT ...): semi-, anti- and mark joins
    # ------------------------------------------------------------------
    def _split_subqueries(
        self,
        conjuncts: list[Expr],
        relations: list[_Relation],
        marks: list[str],
        mapped=lambda expr: expr,
    ) -> tuple[list[Expr], list]:
        """Split WHERE or HAVING conjuncts into the plain ones and one
        ``(outer refs, semi-joins, residual)`` entry per conjunct that
        holds an IN / EXISTS subquery.

        A top-level ``IN`` / ``EXISTS`` is one ``semi`` join and a
        ``NOT`` of one an ``anti`` join, with no residual.  Elsewhere
        each subquery becomes a ``mark`` join whose column replaces it
        in the residual, the conjunct left to filter on.  ``mapped``
        maps the outer keys and the residual the way the caller maps
        its predicate (HAVING's aggregate outputs).
        """
        plain: list[Expr] = []
        entries = []
        for conjunct in conjuncts:
            if not find_subquery_exprs(conjunct):
                plain.append(conjunct)
                continue
            negated = isinstance(conjunct, UnaryOp) \
                and conjunct.op.upper() == "NOT"
            target = conjunct.operand if negated else conjunct
            if isinstance(target, (Exists, InSubquery)):
                kind = "anti" if negated else "semi"
                joins = [self._semi_join(target, relations, mapped, kind)]
                residual = None
            else:
                joins = []

                def to_mark(node: Expr) -> Expr | None:
                    if not isinstance(node, (Exists, InSubquery)):
                        return None
                    marks.append(f"__mark{len(marks)}")
                    joins.append(self._semi_join(
                        node, relations, mapped, "mark", marks[-1]
                    ))
                    return ColumnRef(marks[-1])

                residual = mapped(transform(conjunct, pre=to_mark))
            refs = conjunct.column_refs() + [
                ref for join in joins for key in join[1]
                for ref in key.column_refs()
            ]
            entries.append((refs, joins, residual))
        return plain, entries

    def _semi_join(
        self,
        node: Expr,
        relations: list[_Relation],
        mapped,
        kind: str,
        mark: str | None = None,
    ) -> tuple:
        """A subquery's :class:`SemiJoin` arguments after its outer input.

        :meth:`split_correlation` splits the body; a correlated one is
        planned as ``SELECT <inner keys> ... WHERE <inner conjuncts>``
        (the operator deduplicates the keys), an uncorrelated one as
        written, its IN key its one output column.
        """
        sub = node.select  # type: ignore[union-attr]
        value = node.value if isinstance(node, InSubquery) else None
        if value is not None and (len(sub.items) != 1 or sub.items[0].star):
            raise SqlPlanError(
                "IN (SELECT ...) requires exactly one output column"
            )
        inner_conjuncts, pairs = self.split_correlation(sub, relations)
        if pairs:
            if value is not None:
                pairs.append((value, sub.items[0].expr))
            sub = SelectStatement(
                items=tuple(
                    SelectItem(inner, f"__ck{pos}")
                    for pos, (_, inner) in enumerate(pairs)
                ),
                source=sub.source,
                joins=sub.joins,
                where=and_all(inner_conjuncts),
                ctes=sub.ctes,
            )
            names = [f"__ck{pos}" for pos in range(len(pairs))]
        elif value is not None:
            pairs = [(value, None)]
            names = self.select_output_names(sub)
        else:
            names = []
        return (
            self.plan_select(sub, _nested=True),
            tuple(mapped(outer) for outer, _ in pairs),
            tuple(ColumnRef(name) for name in names),
            kind,
            mark,
        )

    def _semi_filtered(self, plan: PlanNode, entries) -> PlanNode:
        """``plan`` under the semi-joins of ``entries``, then filtered on
        what their marks leave to test."""
        residuals = []
        for _, joins, residual in entries:
            for join in joins:
                plan = SemiJoin(plan, *join)
            if residual is not None:
                residuals.append(residual)
        return self._filtered(plan, residuals)

    def split_correlation(
        self, sub: SelectStatement, outer_relations: list[_Relation]
    ) -> tuple[list[Expr], list[tuple[Expr, Expr]]]:
        """Split a subquery's WHERE into inner-only conjuncts and
        ``outer = inner`` correlation pairs.

        Returns ``(inner_conjuncts, pairs)``; empty pairs means the
        subquery is uncorrelated.  Raises :class:`SqlPlanError` when
        the subquery correlates in any unsupported way (non-equality
        correlation, correlation outside WHERE, aggregates/GROUP BY in
        a correlated subquery).
        """
        if sub.source is None:
            return [], []
        sub_ctes = {name.lower(): body for name, body in sub.ctes}
        inner_rels = [
            (ref.alias.lower(),
             {c.lower() for c in self._relation_columns(ref, sub_ctes)})
            for ref in [sub.source] + [j.table for j in sub.joins]
        ]
        inner_aliases = {alias for alias, _ in inner_rels}

        def scope_of(expr: Expr) -> str:
            scopes: set[str] = set()
            for ref in expr.column_refs():
                if ref.qualifier is not None:
                    if ref.qualifier.lower() in inner_aliases:
                        scopes.add("inner")
                        continue
                    if self._resolve_alias(ref, outer_relations) is not None:
                        scopes.add("outer")
                        continue
                    raise SqlPlanError(
                        f"unknown column '{ref.qualifier}.{ref.name}' "
                        "in subquery"
                    )
                # bare names: the inner scope shadows the outer
                if any(ref.name.lower() in cols for _, cols in inner_rels):
                    scopes.add("inner")
                elif self._resolve_alias(ref, outer_relations) is not None:
                    scopes.add("outer")
                else:
                    raise SqlPlanError(
                        f"unknown column '{ref.name}' in subquery"
                    )
            if not scopes:
                return "const"
            if scopes == {"inner"}:
                return "inner"
            if scopes == {"outer"}:
                return "outer"
            return "mixed"

        inner_conjuncts: list[Expr] = []
        pairs: list[tuple[Expr, Expr]] = []
        for conjunct in split_conjuncts(sub.where):
            scope = scope_of(conjunct)
            if scope in ("inner", "const"):
                inner_conjuncts.append(conjunct)
                continue
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                left_scope = scope_of(conjunct.left)
                right_scope = scope_of(conjunct.right)
                if left_scope == "outer" and right_scope in ("inner", "const"):
                    pairs.append((conjunct.left, conjunct.right))
                    continue
                if right_scope == "outer" and left_scope in ("inner", "const"):
                    pairs.append((conjunct.right, conjunct.left))
                    continue
            raise SqlPlanError(
                "correlated subquery too complex: only AND-ed "
                "outer = inner equality correlation is supported"
            )
        if pairs:
            # correlated subqueries must stay a simple SPJ block — the
            # key extraction re-shapes the statement around them
            item_exprs = [i.expr for i in sub.items if i.expr is not None]
            has_aggs = any(find_aggregates(e) for e in item_exprs)
            if (sub.group_by or sub.having is not None or has_aggs
                    or sub.limit is not None or sub.offset is not None):
                raise SqlPlanError(
                    "correlated subquery too complex: aggregation and "
                    "LIMIT are not supported with correlation"
                )
        # correlation hiding anywhere but WHERE is unsupported
        outer_forbidden: list[Expr | None] = [
            *[i.expr for i in sub.items], sub.having,
            *[o.expr for o in sub.order_by], *sub.group_by,
            *[j.condition for j in sub.joins],
        ]
        for expr in outer_forbidden:
            if expr is None:
                continue
            if scope_of(expr) not in ("inner", "const"):
                raise SqlPlanError(
                    "correlated subquery too complex: correlation is "
                    "only supported in the WHERE clause"
                )
        return inner_conjuncts, pairs

    def select_output_names(self, stmt: SelectStatement) -> list[str]:
        """Output column names of a SELECT, without executing it."""
        ctes = {name.lower(): body for name, body in stmt.ctes}
        names: list[str] = []
        for pos, item in enumerate(stmt.items):
            if item.star:
                refs = [stmt.source] + [j.table for j in stmt.joins]
                if item.star_qualifier is not None:
                    refs = [
                        r for r in refs
                        if r is not None
                        and r.alias.lower() == item.star_qualifier.lower()
                    ]
                for ref in refs:
                    if ref is None:
                        continue
                    names.extend(
                        c.lower() for c in self._relation_columns(ref, ctes)
                    )
                continue
            names.append(self._output_name(item, pos))
        # apply the same dedup-suffix rule as _expand_items
        seen: dict[str, int] = {}
        deduped = []
        for name in names:
            if name in seen:
                seen[name] += 1
                name = f"{name}_{seen[name]}"
            else:
                seen[name] = 0
            deduped.append(name)
        return deduped

    def _relation_columns(
        self,
        ref: TableRef,
        ctes: dict[str, SelectStatement] | None = None,
    ) -> list[str]:
        if ref.is_subquery:
            assert ref.subquery is not None
            return self.select_output_names(ref.subquery)
        if ref.is_function:
            return list(self.database.table_function(ref.table).columns)
        if ctes and ref.table.lower() in ctes:
            return self.select_output_names(ctes[ref.table.lower()])
        if self.database.has_view(ref.table):
            return self.select_output_names(self.database.view(ref.table))
        return list(self.database.table(ref.table).schema.column_names)

    def _single_relation(
        self, refs: list[ColumnRef], relations: list[_Relation]
    ) -> str | None:
        """Alias of the only relation column refs touch, or None."""
        owners: set[str] = set()
        for ref in refs:
            alias = self._resolve_alias(ref, relations)
            if alias is None:
                return None
            owners.add(alias)
        if len(owners) == 1:
            return owners.pop()
        return None

    @staticmethod
    def _resolve_alias(ref: ColumnRef, relations: list[_Relation]) -> str | None:
        if ref.qualifier is not None:
            lowered = ref.qualifier.lower()
            for rel in relations:
                if rel.ref.alias.lower() == lowered:
                    return lowered
            return None
        matches = [
            rel.ref.alias.lower()
            for rel in relations
            if ref.name.lower() in rel.columns
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    # ------------------------------------------------------------------
    def _access_path(self, rel: _Relation, conjuncts: list[Expr]) -> PlanNode:
        """Choose primary-key seek, clustered range scan or filtered seq
        scan for one relation."""
        scan: PlanNode = rel.scan
        # only base tables have indexes: derived relations (subqueries,
        # views, CTEs — which may shadow an indexed table's name) and
        # table-valued functions bind to other scans
        if not isinstance(scan, SeqScan) or not conjuncts:
            return self._filtered(scan, conjuncts)
        table = scan.table
        for pos, conjunct in enumerate(conjuncts):
            key = _seek_key(conjunct, table)
            if key is not None:
                seek = IndexRangeScan(
                    PrimaryKeyIndex(table), key, key, rel.ref.alias
                )
                return self._filtered(seek, conjuncts[:pos] + conjuncts[pos + 1:])
        index = table.clustered
        if index is not None:
            leading = index.leading_key
            numeric = table.schema.column(leading).type in (
                ColumnType.INT64, ColumnType.FLOAT64
            )
            sargable = [
                (pos, bounds)
                for pos, conjunct in enumerate(conjuncts)
                if (bounds := range_bounds(conjunct, leading, numeric))
                is not None
            ]
            if sargable:
                pos, (lo, hi, exact) = self._best_sargable(
                    rel, index, sargable
                )
                scan = IndexRangeScan(index, lo, hi, rel.ref.alias)
                if exact:
                    conjuncts = conjuncts[:pos] + conjuncts[pos + 1:]
            else:
                # OR predicates silently disable the index: say so, so
                # EXPLAIN shows the missed access path instead of hiding it.
                reason = _or_disables_index(conjuncts, leading)
                if reason is not None:
                    scan.reason = reason
        return self._filtered(scan, conjuncts)

    @staticmethod
    def _filtered(scan: PlanNode, conjuncts: list[Expr]) -> PlanNode:
        predicate = and_all(conjuncts)
        return scan if predicate is None else Filter(scan, predicate)

    def _best_sargable(
        self,
        rel: _Relation,
        index,
        sargable: list[tuple[int, tuple[object, object, bool]]],
    ) -> tuple[int, tuple[object, object, bool]]:
        """Pick the most selective sargable bound.

        Under the cost optimizer, statistics rank candidate key ranges
        by covered fraction; the syntactic planner keeps the historical
        first-match rule.
        """
        if self.mode != "cost" or len(sargable) == 1:
            return sargable[0]
        table = index.table
        estimator = CardinalityEstimator(
            [profile_for_table(table, rel.ref.alias)]
        )
        ref = ColumnRef(index.leading_key, rel.ref.alias)

        def fraction(entry):
            _, (lo, hi, _) = entry
            lo = lo if isinstance(lo, (int, float)) else None
            hi = hi if isinstance(hi, (int, float)) else None
            return estimator._range(ref, lo, hi)

        return min(sargable, key=fraction)

    # ------------------------------------------------------------------
    # cost-based join ordering
    # ------------------------------------------------------------------
    def _can_reorder(
        self, stmt: SelectStatement, relations: list[_Relation]
    ) -> bool:
        """Cost-based reordering applies to pure inner/cross join blocks."""
        if self.mode != "cost" or len(relations) < 2:
            return False
        return all(join.kind in ("inner", "cross") for join in stmt.joins)

    def _relation_profile(self, rel: _Relation) -> RelationProfile:
        alias = rel.ref.alias.lower()
        if (
            not rel.derived
            and not rel.ref.is_subquery
            and not rel.ref.is_function
            and not self.database.has_view(rel.ref.table)
        ):
            return profile_for_table(self.database.table(rel.ref.table), alias)
        return RelationProfile(alias=alias, table_rows=0.0, columns=set(rel.columns))

    def _join_relations_cost(
        self,
        stmt: SelectStatement,
        relations: list[_Relation],
        remaining: list[Expr],
    ) -> PlanNode:
        """Join in cost-chosen order instead of FROM-clause order.

        The predicate pool merges ON conjuncts with the multi-relation
        WHERE conjuncts (legal because every join here is inner), so a
        ``CROSS JOIN ... WHERE a.x = b.x`` still hash-joins and the DP
        sees every predicate that could constrain an intermediate.
        """
        model = DEFAULT_COST_MODEL
        overrides = self._overrides()
        profiles = [self._relation_profile(rel) for rel in relations]
        estimator = CardinalityEstimator(profiles, overrides)

        pool: list[tuple[Expr, frozenset[str]]] = []
        post: list[Expr] = []
        candidates = list(remaining)
        for join in stmt.joins:
            candidates.extend(split_conjuncts(join.condition))
        for conjunct in candidates:
            owners: set[str] = set()
            resolvable = not find_aggregates(conjunct)
            for ref in conjunct.column_refs():
                alias = self._resolve_alias(ref, relations)
                if alias is None:
                    resolvable = False
                    break
                owners.add(alias)
            if resolvable and owners:
                pool.append((conjunct, frozenset(owners)))
            else:
                post.append(conjunct)

        join_rels = []
        for rel, profile in zip(relations, profiles):
            est = annotate_plan(rel.scan, overrides)
            join_rels.append(JoinRel(
                alias=rel.ref.alias.lower(),
                rows=max(est, 1.0),
                cost=self._access_cost(rel.scan, profile, model),
            ))
        join_preds = [
            JoinPred(
                aliases=owners,
                selectivity=estimator.selectivity(conjunct),
                equi=_is_equi_shape(conjunct, owners),
                band_keys=_band_key_aliases(conjunct, owners, relations),
            )
            for conjunct, owners in pool
        ]
        order = order_relations(join_rels, join_preds, model)

        first = relations[order[0]]
        plan = first.scan
        bound = {first.ref.alias.lower()}
        for idx in order[1:]:
            rel = relations[idx]
            alias = rel.ref.alias.lower()
            applicable = [
                (conjunct, owners) for conjunct, owners in pool
                if alias in owners and owners <= bound | {alias}
            ]
            pool = [entry for entry in pool if entry not in applicable]
            equi = None
            residuals: list[Expr] = []
            for conjunct, _ in applicable:
                if equi is None:
                    pair = _equi_pair(conjunct, bound, rel, relations)
                    if pair is not None:
                        equi = pair
                        continue
                residuals.append(conjunct)
            if equi is not None:
                left_key, right_key = equi
                plan = HashJoin(plan, rel.scan, left_key, right_key,
                                and_all(residuals))
            elif residuals:
                band = None
                if self.database.config.band_joins:
                    band = _extract_band(residuals, bound, rel, relations)
                if band is not None:
                    key, low, high, low_strict, high_strict, leftover = band
                    plan = BandJoin(
                        plan, rel.scan, key,
                        low=low, high=high,
                        low_strict=low_strict, high_strict=high_strict,
                        residual=and_all(leftover),
                    )
                else:
                    plan = NestedLoopJoin(plan, rel.scan, and_all(residuals))
            else:
                plan = CrossJoin(plan, rel.scan)
            bound.add(alias)

        # anything unapplied (aggregates, unresolvable refs) filters on top
        post.extend(conjunct for conjunct, _ in pool)
        predicate = and_all(post)
        if predicate is not None:
            plan = Filter(plan, predicate)
        return plan

    @staticmethod
    def _access_cost(scan: PlanNode, profile: RelationProfile, model) -> float:
        """Price a relation's already-chosen access path (post-annotation)."""
        if isinstance(scan, (Filter, SemiJoin)):
            # a semi-join probes each outer row, as a filter tests it
            child = scan.child if isinstance(scan, Filter) else scan.outer
            inner = Planner._access_cost(child, profile, model)
            return inner + model.filter(child.est_rows or 0.0)
        if isinstance(scan, IndexRangeScan):
            return model.index_range_scan(
                scan.est_rows or 0.0, profile.table_rows, profile.pages,
                scan.index.tail_pages,
            )
        if isinstance(scan, SeqScan):
            return model.seq_scan(profile.table_rows, profile.pages)
        return model.cpu_row * (scan.est_rows or 0.0)

    # ------------------------------------------------------------------
    def _join_relations(
        self,
        stmt: SelectStatement,
        relations: list[_Relation],
        remaining: list[Expr],
    ) -> PlanNode:
        plan = relations[0].scan
        bound = {relations[0].ref.alias.lower()}
        for join, rel in zip(stmt.joins, relations[1:]):
            bound.add(rel.ref.alias.lower())
            if join.kind == "cross":
                plan = CrossJoin(plan, rel.scan)
                continue
            conjuncts = split_conjuncts(join.condition)
            equi = None
            residuals: list[Expr] = []
            for conjunct in conjuncts:
                if equi is None:
                    pair = _equi_pair(conjunct, bound - {rel.ref.alias.lower()},
                                      rel, relations)
                    if pair is not None:
                        equi = pair
                        continue
                residuals.append(conjunct)
            if equi is not None:
                left_key, right_key = equi
                plan = HashJoin(plan, rel.scan, left_key, right_key,
                                and_all(residuals), outer=(join.kind == "left"))
            elif join.kind == "left":
                raise SqlPlanError(
                    "LEFT JOIN requires an equality condition on the ON clause"
                )
            else:
                plan = NestedLoopJoin(plan, rel.scan, and_all(residuals))
        predicate = and_all(remaining)
        if predicate is not None:
            plan = Filter(plan, predicate)
        return plan

    # ------------------------------------------------------------------
    def _aggregate_and_project(
        self,
        stmt: SelectStatement,
        plan: PlanNode,
        relations: list[_Relation],
        marks: list[str],
    ) -> tuple[PlanNode, list[tuple[str, Expr]], list[tuple[Expr, bool]]]:
        """Plan aggregation; returns (plan, projections, order keys).

        The projections are *not* yet applied — the caller decides
        whether a passthrough sort must happen in between.
        """
        # Collect aggregates across select items, HAVING and ORDER BY.
        item_exprs = [item.expr for item in stmt.items if item.expr is not None]
        aggregates: list[FuncCall] = []
        for expr in item_exprs:
            aggregates.extend(find_aggregates(expr))
        if stmt.having is not None:
            aggregates.extend(find_aggregates(stmt.having))
        for order in stmt.order_by:
            aggregates.extend(find_aggregates(order.expr))

        needs_aggregation = bool(aggregates) or bool(stmt.group_by)
        if not needs_aggregation:
            if stmt.having is not None:
                raise SqlPlanError("HAVING requires GROUP BY or aggregates")
            outputs = self._expand_items(stmt, plan)
            order_keys = [(o.expr, o.ascending) for o in stmt.order_by]
            return plan, outputs, order_keys

        if any(item.star for item in stmt.items):
            raise SqlPlanError("SELECT * cannot be combined with aggregation")

        def resolved(expr: Expr) -> Expr:
            """``expr`` with each column ref spelled as the relation it
            resolves to, so ``k`` and ``a.k`` name one group key."""
            def qualify(node: Expr) -> Expr | None:
                alias = isinstance(node, ColumnRef) \
                    and self._resolve_alias(node, relations)
                return ColumnRef(node.name.lower(), alias) if alias else None
            return transform(expr, pre=qualify)

        # One output per aggregate call and per group key, matched by
        # resolved column, not by spelling.
        mapping: dict[Expr, Expr] = {}
        specs: list[AggregateSpec] = []
        for call in aggregates:
            if resolved(call) not in mapping:
                name = f"__agg{len(specs)}"
                argument = call.args[0] if call.args else None
                specs.append(AggregateSpec(call.name.lower(), argument, name))
                mapping[resolved(call)] = ColumnRef(name)

        group_names: list[tuple[str, Expr]] = []
        for pos, key in enumerate(stmt.group_by):
            name = f"__key{pos}"
            group_names.append((name, key))
            mapping[resolved(key)] = ColumnRef(name)

        def mapped(expr: Expr) -> Expr:
            return transform(expr, pre=lambda node: mapping.get(resolved(node)))

        plan = Aggregate(plan, group_names, specs)

        if stmt.having is not None:
            having, semis = self._split_subqueries(
                split_conjuncts(stmt.having), relations, marks, mapped
            )
            if having:
                # HAVING as written unless a subquery conjunct left it
                predicate = and_all(having) if semis else stmt.having
                plan = Filter(plan, mapped(predicate))
            plan = self._semi_filtered(plan, semis)

        outputs: list[tuple[str, Expr]] = []
        for pos, item in enumerate(stmt.items):
            assert item.expr is not None
            outputs.append((self._output_name(item, pos), mapped(item.expr)))
        order_keys = [(mapped(o.expr), o.ascending) for o in stmt.order_by]
        return plan, outputs, order_keys

    def _expand_items(
        self, stmt: SelectStatement, plan: PlanNode
    ) -> list[tuple[str, Expr]]:
        outputs: list[tuple[str, Expr]] = []
        relations = [stmt.source] + [j.table for j in stmt.joins]
        ctes = {name.lower(): body for name, body in stmt.ctes}
        for pos, item in enumerate(stmt.items):
            if item.star:
                refs = relations
                if item.star_qualifier is not None:
                    refs = [
                        r for r in relations
                        if r is not None and r.alias.lower() == item.star_qualifier.lower()
                    ]
                    if not refs:
                        raise SqlPlanError(
                            f"unknown alias '{item.star_qualifier}' in select *"
                        )
                for ref in refs:
                    assert ref is not None
                    for column in self._relation_columns(ref, ctes):
                        outputs.append(
                            (column.lower(), ColumnRef(column, ref.alias))
                        )
                continue
            assert item.expr is not None
            outputs.append((self._output_name(item, pos), item.expr))
        # de-duplicate output names (joined tables may share column names)
        seen: dict[str, int] = {}
        deduped: list[tuple[str, Expr]] = []
        for name, expr in outputs:
            if name in seen:
                seen[name] += 1
                name = f"{name}_{seen[name]}"
            else:
                seen[name] = 0
            deduped.append((name, expr))
        return deduped

    @staticmethod
    def _output_name(item: SelectItem, position: int) -> str:
        if item.alias:
            return item.alias.lower()
        if isinstance(item.expr, ColumnRef):
            return item.expr.name.lower()
        return f"col{position}"


# ----------------------------------------------------------------------
# pattern helpers
# ----------------------------------------------------------------------
def _seek_key(conjunct: Expr, table) -> object | None:
    """The literal of a ``pk = literal`` conjunct on ``table``, when its
    type compares with the key column's; else None."""
    pk = table.schema.primary_key
    if pk is None or not (
        isinstance(conjunct, BinaryOp) and conjunct.op == "="
    ):
        return None
    bounds = range_bounds(conjunct, pk)
    if bounds is None:
        return None
    value = bounds[0]
    if table.schema.column(pk).type is ColumnType.STRING:
        return value if isinstance(value, str) else None
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return value if numeric else None


def _is_equi_shape(conjunct: Expr, owners: frozenset[str]) -> bool:
    """Does this conjunct look like an equi-join (for cost purposes)?"""
    return (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and len(owners) >= 2
    )


def _band_key_aliases(
    conjunct: Expr, owners: frozenset[str], relations: list[_Relation]
) -> frozenset[str]:
    """The aliases that can own this conjunct's band key (for cost).

    A cross-relation BETWEEN's value column, the bare column of a range
    comparison, or either column of ``abs(a - b) < c`` may extract into
    a :class:`BandJoin` — but only on the step that joins the key's
    relation, because :func:`_extract_band` builds the band on the
    relation being joined.  The join-order search prices the band cost
    only on those steps, so it never under-prices a step that will run
    as a nested loop (nor a complex expression compared to a literal,
    like the chi² filter, which is no band in any order).
    """
    if len(owners) < 2:
        return frozenset()
    by_alias = {rel.ref.alias.lower(): rel for rel in relations}
    return frozenset(
        alias for alias in owners
        if _band_bounds(conjunct, set(owners - {alias}), by_alias[alias],
                        relations) is not None
    )


def _band_bounds(
    conjunct: Expr,
    left_aliases: set[str],
    right_rel: _Relation,
    relations: list[_Relation],
) -> tuple[ColumnRef, list[tuple[str, Expr, bool]]] | None:
    """Match one conjunct as a band bound on a right-relation column.

    Returns ``(key, [(side, bound_expr, strict), ...])`` — side is
    ``"lo"``/``"hi"`` — when the conjunct constrains a *single* column
    of the relation being joined by expressions over already-bound
    relations (or literals).  Recognized shapes:

    * ``key BETWEEN lo AND hi``        (inclusive both ends)
    * ``key < e`` / ``e < key`` chains (any of ``<  <=  >  >=``)
    * ``abs(a - b) < c``               (either operand the key) —
      rewritten to ``key in (other - c, other + c)``
    """
    right_alias = right_rel.ref.alias.lower()

    def side_of(expr: Expr) -> str | None:
        aliases: set[str] = set()
        for ref in expr.column_refs():
            alias = Planner._resolve_alias(ref, relations)
            if alias is None:
                return None
            aliases.add(alias)
        if not aliases:
            return "const"
        if aliases == {right_alias}:
            return "right"
        if aliases <= left_aliases:
            return "left"
        return None

    def is_key(expr: Expr) -> bool:
        return isinstance(expr, ColumnRef) and side_of(expr) == "right"

    def is_bound(expr: Expr) -> bool:
        return side_of(expr) in ("left", "const")

    if isinstance(conjunct, Between):
        if (
            is_key(conjunct.value)
            and is_bound(conjunct.low)
            and is_bound(conjunct.high)
        ):
            assert isinstance(conjunct.value, ColumnRef)
            return conjunct.value, [
                ("lo", conjunct.low, False),
                ("hi", conjunct.high, False),
            ]
        return None

    if not (isinstance(conjunct, BinaryOp) and conjunct.op in ("<", "<=", ">", ">=")):
        return None

    op, left, right = conjunct.op, conjunct.left, conjunct.right
    if is_key(right) and is_bound(left):
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        left, right = right, left
    if is_key(left) and is_bound(right):
        assert isinstance(left, ColumnRef)
        strict = op in ("<", ">")
        if op in ("<", "<="):
            return left, [("hi", right, strict)]
        return left, [("lo", right, strict)]

    # abs(a - b) < c  (or c > abs(a - b)): a symmetric band around the
    # non-key operand — the MaxBCG chi² color constraint's shape.
    if op in (">", ">="):
        op = {">": "<", ">=": "<="}[op]
        left, right = right, left
    if (
        op in ("<", "<=")
        and isinstance(left, FuncCall)
        and left.name.lower() == "abs"
        and len(left.args) == 1
        and isinstance(left.args[0], BinaryOp)
        and left.args[0].op == "-"
        and is_bound(right)
    ):
        a, b = left.args[0].left, left.args[0].right
        key = other = None
        if is_key(a) and is_bound(b):
            key, other = a, b
        elif is_key(b) and is_bound(a):
            key, other = b, a
        if key is not None:
            assert isinstance(key, ColumnRef)
            strict = op == "<"
            return key, [
                ("lo", BinaryOp("-", other, right), strict),
                ("hi", BinaryOp("+", other, right), strict),
            ]
    return None


def _extract_band(
    residuals: list[Expr],
    left_aliases: set[str],
    right_rel: _Relation,
    relations: list[_Relation],
) -> tuple[ColumnRef, Expr | None, Expr | None, bool, bool, list[Expr]] | None:
    """Split join conjuncts into one band spec plus leftover residuals.

    The first conjunct that yields a bound fixes the band key; further
    conjuncts fill the *empty* side of the band (``lo > ... AND lo < ...``
    chains), and everything else — including extra bounds on an
    already-filled side, which would need runtime min/max to merge —
    stays in the vectorized residual.
    """
    key: ColumnRef | None = None
    low: Expr | None = None
    high: Expr | None = None
    low_strict = high_strict = False
    leftover: list[Expr] = []
    for conjunct in residuals:
        match = _band_bounds(conjunct, left_aliases, right_rel, relations)
        if match is None:
            leftover.append(conjunct)
            continue
        ckey, entries = match
        if key is not None and ckey != key:
            leftover.append(conjunct)
            continue
        fillable = all(
            (low is None) if side == "lo" else (high is None)
            for side, _, _ in entries
        )
        if not fillable:
            leftover.append(conjunct)
            continue
        key = ckey
        for side, expr, strict in entries:
            if side == "lo":
                low, low_strict = expr, strict
            else:
                high, high_strict = expr, strict
    if key is None:
        return None
    return key, low, high, low_strict, high_strict, leftover


def _or_disables_index(conjuncts: list[Expr], leading: str) -> str | None:
    """If a top-level OR references the index's leading key, explain the
    fallback to a scan (the classic 'OR disables the index' trap)."""
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryOp) and conjunct.op.upper() == "OR"):
            continue
        if any(
            ref.name.lower() == leading.lower()
            for ref in conjunct.column_refs()
        ):
            return f"index on {leading} unused: OR predicate"
    return None


def _equi_pair(
    conjunct: Expr,
    left_aliases: set[str],
    right_rel: _Relation,
    relations: list[_Relation],
) -> tuple[Expr, Expr] | None:
    """Match ``left_expr = right_expr`` split across the join boundary."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None

    def side_of(expr: Expr) -> str | None:
        aliases: set[str] = set()
        for ref in expr.column_refs():
            alias = Planner._resolve_alias(ref, relations)
            if alias is None:
                return None
            aliases.add(alias)
        if not aliases:
            return None
        if aliases <= left_aliases:
            return "left"
        if aliases == {right_rel.ref.alias.lower()}:
            return "right"
        return None

    left_side = side_of(conjunct.left)
    right_side = side_of(conjunct.right)
    if left_side == "left" and right_side == "right":
        return conjunct.left, conjunct.right
    if left_side == "right" and right_side == "left":
        return conjunct.right, conjunct.left
    return None
