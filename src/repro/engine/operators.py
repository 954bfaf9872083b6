"""Physical operators: the engine's executable plan nodes.

Execution is batch-materialized: each operator produces a complete
column batch (``dict[str, np.ndarray]``).  For the data volumes of the
reproduction this is both the simplest and the fastest model in
Python — the set-oriented idiom the paper advocates, as opposed to the
tuple-at-a-time cursor it criticizes.

Batch keys are qualified, ``"<alias>.<column>"``, so joins can expose
both sides without collisions; expression evaluation resolves bare
names when unambiguous.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro.engine import keys
from repro.engine.compile import plan_kernel
from repro.engine.expressions import Batch, Expr, batch_length, scalar_value
from repro.engine.index import ClusteredIndex, PrimaryKeyIndex
from repro.engine.table import Table
from repro.errors import SqlPlanError


def take(batch: Batch, selector) -> Batch:
    """Row subset of every column (mask or fancy index)."""
    # Columns are almost always ndarrays already; np.asarray on every
    # column of every operator is pure allocation churn, so only coerce
    # the odd list-backed batch a test may hand in.
    return {
        k: (v if isinstance(v, np.ndarray) else np.asarray(v))[selector]
        for k, v in batch.items()
    }


def empty_like(batch: Batch) -> Batch:
    return {
        k: (v if isinstance(v, np.ndarray) else np.asarray(v))[:0]
        for k, v in batch.items()
    }


class Execution:
    """One top-level run of a plan tree: the state its nodes share.

    ``records`` maps ``id(node)`` to that node's
    :class:`~repro.engine.instrument.NodeStats` in ``_children()``
    preorder (empty when nobody measures); I/O is read off
    ``counters``.  Context-local, so CasJobs threads running one
    memoized plan object at once each fill their own.
    """

    __slots__ = ("records", "counters")

    def __init__(self, records: dict | None = None, counters=None):
        self.records = records or {}
        self.counters = counters

    @staticmethod
    def current() -> "Execution | None":
        return _EXECUTION.get()

    def run(self, plan: "PlanNode") -> Batch:
        """Execute ``plan`` as this execution's root."""
        token = _EXECUTION.set(self)
        try:
            return plan.execute()
        finally:
            _EXECUTION.reset(token)

    def measured(self, node: "PlanNode", body, count_rows: bool = True) -> Batch:
        """Run ``body`` and add its time, I/O and rows to ``node``'s
        record.  Inclusive: ``body`` runs the node's children too.  A
        node with no record just runs."""
        stats = self.records.get(id(node))
        if stats is None:
            return body()
        counters = self.counters
        io_before = counters.snapshot() if counters is not None else None
        started = time.perf_counter()
        batch = body()
        stats.inclusive_s += time.perf_counter() - started
        # accumulate: a node executed more than once reports every batch
        stats.calls += 1
        if count_rows:
            stats.rows += batch_length(batch)
        if io_before is not None:
            stats.io_total += counters.since(io_before).total
        return batch

    def add_rows(self, node: "PlanNode", rows: int) -> None:
        stats = self.records.get(id(node))
        if stats is not None:
            stats.rows += rows


_EXECUTION: ContextVar[Execution | None] = ContextVar(
    "repro_engine_execution", default=None
)


class PlanNode:
    """Base class of executable plan nodes.

    :meth:`execute` is the one public entry; operators implement
    ``_execute``.
    """

    #: Optimizer row estimate, stamped by ``annotate_plan`` after
    #: planning.  A class attribute so the operator dataclasses keep
    #: their positional constructors; instances overwrite it in place.
    est_rows: float | None = None

    #: Fused-kernel execution, stamped by the planner when
    #: ``EngineConfig(compiled_expressions=True)`` (the default).
    #: Operators with expressions lower them into
    #: :class:`~repro.engine.compile.CompiledKernel` programs (CSE +
    #: selection vectors) instead of interpreting ``Expr.eval`` node by
    #: node; results are byte-identical either way.
    compiled: bool = False

    #: Logical-rewrite audit trail: one line per fired rule, stamped on
    #: the plan *root* by the planner when the rewrite pass changed the
    #: statement.  Rendered ahead of the operator tree by EXPLAIN.
    rewrite_trace: tuple[str, ...] = ()

    #: The ``Database._catalog_generation`` a reusable plan was bound
    #: under, stamped on the root by ``Executor.plan``.  The memo and
    #: plan forcing reuse a plan only while it equals the current
    #: generation: a create or drop since may have replaced a table the
    #: plan holds.
    generation: int | None = None

    def execute(self) -> Batch:
        """Run this node inside the current :class:`Execution`, opening
        one when this is the top-level call; measured when the
        execution carries records."""
        run = _EXECUTION.get()
        if run is None:
            return Execution().run(self)
        if not run.records:
            return self._execute()
        return run.measured(self, self._execute)

    def _execute(self) -> Batch:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        """Indented plan description (the engine's EXPLAIN output)."""
        line = "  " * depth + self._describe()
        if self.est_rows is not None:
            line += f"  [est={self.est_rows:.0f} rows]"
        lines = [line]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        text = "\n".join(lines)
        if depth == 0 and self.rewrite_trace:
            text = "\n".join(self.rewrite_trace) + "\n" + text
        return text

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> tuple["PlanNode", ...]:
        return ()


@dataclass
class SeqScan(PlanNode):
    """Full table scan; qualifies columns with the alias.

    ``reason`` records *why* the planner fell back to a scan when an
    index existed (e.g. an OR predicate on the leading key) so EXPLAIN
    surfaces missed access paths instead of hiding them.
    """

    table: Table
    alias: str
    reason: str | None = None

    def _execute(self) -> Batch:
        raw = self.table.scan()
        prefix = self.alias.lower()
        return {f"{prefix}.{name}": arr for name, arr in raw.items()}

    def _describe(self) -> str:
        base = f"SeqScan({self.table.name} AS {self.alias})"
        if self.reason:
            base += f" [{self.reason}]"
        return base


@dataclass
class IndexRangeScan(PlanNode):
    """Index range scan on the leading key: a clustered range (sorted
    base plus append tail; ``lo`` or ``hi`` None leaves that end open)
    or a primary-key seek."""

    index: ClusteredIndex | PrimaryKeyIndex
    lo: object
    hi: object
    alias: str

    def _execute(self) -> Batch:
        raw = self.index.range_scan(self.lo, self.hi)
        prefix = self.alias.lower()
        return {f"{prefix}.{name}": arr for name, arr in raw.items()}

    def _describe(self) -> str:
        lo = "-inf" if self.lo is None else self.lo
        hi = "+inf" if self.hi is None else self.hi
        text = (
            f"IndexRangeScan({self.index.table.name}.{self.index.leading_key} "
            f"in [{lo}, {hi}] AS {self.alias})"
        )
        if isinstance(self.index, PrimaryKeyIndex):
            text += " [primary key]"
        return text


@dataclass
class SubqueryScan(PlanNode):
    """Evaluate a planned subquery (a view body) and re-qualify its
    output columns under the binding alias."""

    child: PlanNode
    alias: str

    #: The stored body of the view this scan expands, stamped by the
    #: planner so a plan pin can tell when the view is redefined.  Not
    #: a field: ``plan_structure`` and EXPLAIN ignore it.
    view = None

    def _execute(self) -> Batch:
        batch = self.child.execute()
        prefix = self.alias.lower()
        return {
            f"{prefix}.{key.rsplit('.', 1)[-1]}": arr
            for key, arr in batch.items()
        }

    def _describe(self) -> str:
        return f"SubqueryScan(AS {self.alias})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class TableFunctionScan(PlanNode):
    """Invoke a table-valued function with constant arguments.

    The paper's neighbor searches are TVF calls
    (``FROM fGetNearbyObjEqZd(@ra, @dec, @rad) n``); the registered
    Python callable returns a column batch whose names are declared at
    registration time.
    """

    fn: object  # Callable[..., Batch]
    args: tuple[Expr, ...]
    alias: str
    name: str = "tvf"

    def _execute(self) -> Batch:
        result = self.fn(*[scalar_value(arg) for arg in self.args])
        prefix = self.alias.lower()
        return {f"{prefix}.{key.lower()}": np.asarray(arr)
                for key, arr in result.items()}

    def _describe(self) -> str:
        return f"TableFunctionScan({self.name}(...) AS {self.alias})"


@dataclass
class Filter(PlanNode):
    """Predicate filter."""

    child: PlanNode
    predicate: Expr

    def _execute(self) -> Batch:
        batch = self.child.execute()
        n = batch_length(batch)
        if n == 0:
            return batch
        if self.compiled:
            # late materialization: payload columns are gathered once,
            # by ``take``, for the surviving row ids only
            kernel = plan_kernel(self, self.predicate)
            return take(batch, kernel.select(batch, n))
        return take(batch, np.asarray(self.predicate.eval(batch), dtype=bool))

    def _describe(self) -> str:
        base = f"Filter({self.predicate})"
        if self.compiled:
            base += f"  {plan_kernel(self, self.predicate).describe()}"
        return base

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Project(PlanNode):
    """Compute output columns ``name <- expr``.

    When ``compiled`` is stamped, outputs evaluate through one fused
    kernel with CSE shared across the whole select list; a compiled
    :class:`Filter` child is additionally *fused into*
    the projection — the filter's selection vector flows straight into
    the output expressions, so payload columns are touched only for
    surviving rows and subexpressions shared between the predicate and
    the select list are evaluated once.
    """

    child: PlanNode
    outputs: list[tuple[str, Expr]]

    def _fusable_child(self):
        """The compiled Filter this projection can absorb, if any."""
        child = self.child
        if self.compiled and isinstance(child, Filter) and child.compiled:
            return child
        return None

    def kernel(self):
        """A fusable compiled Filter child's predicate joins the
        program, so selection and CSE span the whole chain."""
        fused = self._fusable_child()
        return plan_kernel(
            self, fused.predicate if fused is not None else None, self.outputs
        )

    def _execute(self) -> Batch:
        fused = self._fusable_child()
        if fused is not None:
            # the absorbed filter is measured as the program that runs:
            # its input's time and I/O, its survivors as rows, its own
            # work inside this node's kernel
            run = Execution.current()
            batch = run.measured(fused, fused.child.execute, count_rows=False)
            n = batch_length(batch)
            if n:
                values = self.kernel().fused(batch, n)
                out = {
                    name.lower(): value
                    for (name, _), value in zip(self.outputs, values)
                }
                run.add_rows(fused, batch_length(out))
                return out
            # empty input: the filter is a no-op; fall through and
            # project the empty batch (matching the interpreted chain)
        else:
            batch = self.child.execute()
            n = batch_length(batch)
        if self.compiled and fused is None:
            values = self.kernel().project_values(batch, n)
            return {
                name.lower(): value
                for (name, _), value in zip(self.outputs, values)
            }
        out: Batch = {}
        for name, expr in self.outputs:
            value = np.asarray(expr.eval(batch))
            out[name.lower()] = np.broadcast_to(value, (n,)).copy() \
                if value.shape != (n,) else value
        return out

    def _describe(self) -> str:
        cols = ", ".join(name for name, _ in self.outputs)
        base = f"Project({cols})"
        if self.compiled:
            base += f"  {self.kernel().describe()}"
        return base

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class ProjectPassthrough(PlanNode):
    """Compute output columns while keeping the input batch's columns.

    Used under ORDER BY so sort keys can reference either a select alias
    (exact bare name) or a source column (qualified name) — after the
    sort, a plain :class:`Project` strips back to the select list.
    """

    child: PlanNode
    outputs: list[tuple[str, Expr]]

    def _execute(self) -> Batch:
        batch = self.child.execute()
        n = batch_length(batch)
        out: Batch = dict(batch)
        if self.compiled:
            kernel = plan_kernel(self, outputs=self.outputs)
            values = kernel.project_values(batch, n)
        else:
            values = None
        for index, (name, expr) in enumerate(self.outputs):
            key = name.lower()
            if values is not None:
                value = values[index]
            else:
                value = np.asarray(expr.eval(batch))
                if value.shape != (n,):
                    value = np.broadcast_to(value, (n,)).copy()
            if key in out and not np.array_equal(out[key], value):
                raise SqlPlanError(
                    f"select alias '{name}' collides with an input column"
                )
            out[key] = value
        return out

    def _describe(self) -> str:
        cols = ", ".join(name for name, _ in self.outputs)
        base = f"ProjectPassthrough({cols})"
        if self.compiled:
            base += f"  {plan_kernel(self, outputs=self.outputs).describe()}"
        return base

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Sort(PlanNode):
    """ORDER BY: stable sort on (expr, ascending) keys, first key primary."""

    child: PlanNode
    keys: list[tuple[Expr, bool]]

    def _execute(self) -> Batch:
        batch = self.child.execute()
        n = batch_length(batch)
        if n == 0 or not self.keys:
            return batch
        order = np.arange(n)
        # Apply keys least-significant first, with a stable sort.
        for expr, ascending in reversed(self.keys):
            values = np.asarray(expr.eval(batch))[order]
            # strings sort by their codes, NULL last as a NaN sorts
            values = keys.codes(values) if values.dtype == object else values
            idx = np.argsort(values, kind="stable")
            if not ascending:
                idx = idx[::-1]
            order = order[idx]
        return take(batch, order)

    def _describe(self) -> str:
        keys = ", ".join(
            f"{expr} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"Sort({keys})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Limit(PlanNode):
    child: PlanNode
    limit: int
    offset: int = 0

    def _execute(self) -> Batch:
        if self.limit < 0 or self.offset < 0:
            raise SqlPlanError("LIMIT/OFFSET must be non-negative")
        batch = self.child.execute()
        return take(batch, slice(self.offset, self.offset + self.limit))

    def _describe(self) -> str:
        if self.offset:
            return f"Limit({self.limit} OFFSET {self.offset})"
        return f"Limit({self.limit})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Distinct(PlanNode):
    child: PlanNode

    def _execute(self) -> Batch:
        batch = self.child.execute()
        if batch_length(batch) == 0:
            return batch
        first = keys.group([np.asarray(v) for v in batch.values()]).first
        return take(batch, np.sort(first))

    def _describe(self) -> str:
        return "Distinct"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Materialized(PlanNode):
    """A precomputed batch as a plan leaf."""

    batch: Batch
    label: str = "values"

    def _execute(self) -> Batch:
        return self.batch

    def _describe(self) -> str:
        return f"Materialized({self.label}, {batch_length(self.batch)} rows)"


def plan_nodes(plan: PlanNode):
    """Every plan node under ``plan`` in preorder: each before its
    ``_children()``, which come in order."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node._children()))
