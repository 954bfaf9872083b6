"""Plan measurement: EXPLAIN ANALYZE for the engine.

A measured execution runs the plan itself: every node adds, to its own
:class:`NodeStats`, the rows it produced, its wall-clock seconds
(inclusive of children) and the buffer-pool I/O under it.  This is the
observability layer a DBA points at when explaining *why* a plan is
slow — the reproduction's equivalent of the SQL Server statistics the
paper quotes.

Usage::

    report = db.explain_analyze("SELECT ... ")
    print(report.render())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expressions import Batch, batch_length
from repro.engine.operators import Execution, PlanNode
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


def max_q_error(nodes) -> float:
    """Worst q-error over the executed nodes (1.0 = all perfect)."""
    return max(
        (q for node in nodes if (q := node.q_error) is not None), default=1.0
    )


@dataclass
class AnalyzeReport:
    """The measured execution's outcome."""

    nodes: list[NodeStats]
    result: Batch
    total_s: float
    #: Rewrite-rule audit lines from the logical pass (empty when the
    #: pass is off or fired nothing); rendered ahead of the node tree.
    rewrite_trace: tuple[str, ...] = ()
    #: The operator tree that ran (``QueryResult.plan_node``).
    plan: PlanNode | None = None

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


def measure(plan: PlanNode, counters: IOCounters | None = None) -> Execution:
    """An :class:`~repro.engine.operators.Execution` that measures
    ``plan``: ``measure(plan).run(plan)`` runs the plan itself (same
    nodes, kernels and fusion) while every node fills its
    :class:`NodeStats`; ``records.values()`` is the tree in preorder."""
    records: dict[int, NodeStats] = {}

    def walk(node: PlanNode, depth: int) -> None:
        records[id(node)] = NodeStats(
            description=node._describe(), depth=depth, est_rows=node.est_rows
        )
        for child in node._children():
            walk(child, depth + 1)

    walk(plan, 0)
    return Execution(records, counters)
