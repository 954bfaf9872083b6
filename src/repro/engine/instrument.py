"""Plan instrumentation: EXPLAIN ANALYZE for the engine.

Wraps every node of a physical plan so execution records, per operator,
the rows produced, wall-clock seconds (exclusive of children) and the
buffer-pool I/O attributable to it.  This is the observability layer a
DBA points at when explaining *why* a plan is slow — the reproduction's
equivalent of the SQL Server statistics the paper quotes.

Usage::

    report = explain_analyze(db, "SELECT ... ")
    print(report.render())
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.engine.expressions import Batch, batch_length
from repro.engine.operators import PlanNode
from repro.engine.optimizer.quality import (
    NodeQuality,
    PlanQualityReport,
    q_error,
)
from repro.engine.stats import IOCounters
from repro.errors import EngineError


@dataclass
class NodeStats:
    """Measured execution of one plan node."""

    description: str
    depth: int
    rows: int = 0
    inclusive_s: float = 0.0
    io_total: int = 0
    calls: int = 0
    est_rows: float | None = None

    @property
    def rows_per_call(self) -> float:
        """Mean rows per execution — what ``est_rows`` estimates."""
        if self.calls == 0:
            return 0.0
        return self.rows / self.calls

    @property
    def q_error(self) -> float | None:
        """Estimated-vs-actual error, once the node has executed.

        ``rows`` accumulates across calls while the optimizer estimates
        one execution, so the comparison uses rows *per call*.
        """
        if self.calls == 0:
            return None
        return q_error(self.est_rows, self.rows_per_call)

    @property
    def line(self) -> str:
        pad = "  " * self.depth
        rows = f"rows={self.rows:,}"
        if self.calls > 1:
            rows += f" ({self.rows_per_call:,.0f}/call x {self.calls})"
        measured = (f"{rows} time={self.inclusive_s * 1e3:.2f}ms "
                    f"io={self.io_total:,}")
        if self.est_rows is not None:
            q = self.q_error
            quality = f" est={self.est_rows:,.0f}"
            if q is not None:
                quality += f" q={q:.2f}"
            measured += quality
        return f"{pad}{self.description}  [{measured}]"


@dataclass
class AnalyzeReport:
    """The instrumented execution's outcome."""

    nodes: list[NodeStats]
    result: Batch
    total_s: float
    #: Rewrite-rule audit lines from the logical pass (empty when the
    #: pass is off or fired nothing); rendered ahead of the node tree.
    rewrite_trace: tuple[str, ...] = ()

    @property
    def row_count(self) -> int:
        return batch_length(self.result)

    def render(self) -> str:
        lines = list(self.rewrite_trace)
        lines.extend(node.line for node in self.nodes)
        lines.append(f"total: {self.total_s * 1e3:.2f} ms, "
                     f"{self.row_count:,} rows")
        return "\n".join(lines)

    def node(self, substring: str) -> NodeStats:
        """First node whose description contains ``substring``."""
        for node in self.nodes:
            if substring in node.description:
                return node
        raise EngineError(f"no plan node matching '{substring}'")

    # ------------------------------------------------------------------
    # plan quality (q-error) accounting
    # ------------------------------------------------------------------
    def quality_report(self) -> PlanQualityReport:
        """Estimated-vs-actual report over every node with an estimate."""
        return PlanQualityReport(nodes=tuple(
            NodeQuality(
                description=node.description,
                depth=node.depth,
                est_rows=node.est_rows,
                actual_rows=round(node.rows_per_call),
            )
            for node in self.nodes
            if node.est_rows is not None and node.calls > 0
        ))

    @property
    def max_q_error(self) -> float:
        """Worst per-operator q-error of the run (1.0 = all perfect)."""
        return self.quality_report().max_q_error


class _Instrumented(PlanNode):
    """Delegating wrapper that records one node's execution."""

    def __init__(self, inner: PlanNode, stats: NodeStats,
                 counters: IOCounters | None):
        self._inner = inner
        self._stats = stats
        self._counters = counters

    def execute(self) -> Batch:
        io_before = (
            self._counters.snapshot() if self._counters is not None else None
        )
        started = time.perf_counter()
        batch = self._inner.execute()
        self._stats.inclusive_s += time.perf_counter() - started
        # accumulate: a node executed multiple times (a re-executed join
        # input, say) must report every batch, not just its last one
        self._stats.rows += batch_length(batch)
        self._stats.calls += 1
        if io_before is not None and self._counters is not None:
            self._stats.io_total += self._counters.since(io_before).total
        return batch

    def _describe(self) -> str:
        return self._inner._describe()

    def _children(self) -> tuple[PlanNode, ...]:
        return self._inner._children()


def instrument_plan(
    plan: PlanNode, counters: IOCounters | None = None
) -> tuple[PlanNode, list[NodeStats]]:
    """Rebuild a plan tree with every node wrapped for measurement.

    Works generically over the operator dataclasses: any field holding a
    :class:`PlanNode` (or list of (name, expr) pairs is left alone) is
    replaced by its instrumented version, preorder.
    """
    records: list[NodeStats] = []

    def wrap(node: PlanNode, depth: int) -> PlanNode:
        # capture est_rows here: dataclasses.replace below would lose the
        # instance attribute the annotation pass stamped on.
        stats = NodeStats(description=node._describe(), depth=depth,
                          est_rows=node.est_rows)
        records.append(stats)
        if dataclasses.is_dataclass(node):
            replacements = {}
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                if isinstance(value, PlanNode):
                    replacements[f.name] = wrap(value, depth + 1)
            if replacements:
                compiled = node.compiled
                node = dataclasses.replace(node, **replacements)
                # replace() builds a fresh instance, losing the planner's
                # in-place compiled stamp; restore it or ANALYZE would
                # silently measure the interpreted path.
                node.compiled = compiled
        return _Instrumented(node, stats, counters)

    return wrap(plan, 0), records


def explain_analyze(database, sql_text: str) -> AnalyzeReport:
    """Plan, instrument and execute a SELECT; return the measured tree.

    Inclusive timings: each node's time contains its children's (the
    familiar EXPLAIN ANALYZE convention).
    """
    from repro.engine.sql.ast import SelectStatement
    from repro.engine.sql.parser import parse
    from repro.engine.sql.printer import statement_to_sql
    from repro.engine.sql.planner import Planner
    from repro.obs.metrics import get_metrics
    from repro.obs.slowlog import get_slow_log
    from repro.obs.trace import span

    stmt = parse(sql_text)
    if not isinstance(stmt, SelectStatement):
        raise EngineError("explain_analyze supports SELECT statements only")
    plan = Planner(database).plan_select(stmt)
    # instance attr on the plan root; the _Instrumented wrapper would
    # otherwise shadow it with the PlanNode class default
    rewrite_trace = tuple(getattr(plan, "rewrite_trace", ()))
    wrapped, records = instrument_plan(plan, database.pool.counters)
    with span("engine.query", layer="engine", counters=database.pool.counters,
              attrs={"sql": sql_text.strip()[:200]}):
        started = time.perf_counter()
        result = wrapped.execute()
        total = time.perf_counter() - started
    report = AnalyzeReport(nodes=records, result=result, total_s=total,
                           rewrite_trace=rewrite_trace)

    metrics = get_metrics()
    metrics.counter("engine.queries.analyzed").inc()
    metrics.histogram("engine.query.elapsed_s").observe(total)
    max_q = report.max_q_error
    metrics.histogram(
        "engine.query.max_q_error", buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
    ).observe(max_q)
    slow_log = get_slow_log()
    if slow_log.is_slow(total):
        try:
            text = statement_to_sql(stmt)
        except Exception:  # printer gaps must never lose the log entry
            text = sql_text.strip()
        slow_log.record(text, total, plan=plan.explain(),
                        max_q_error=max_q, database=database.name)
    return report
