"""Adaptive feedback optimization: the loop that closes on q-error.

EXPLAIN ANALYZE and the slow-query log have recorded per-operator
est-vs-actual q-error since the optimizer landed — this module finally
*consumes* it: ``feedback=True`` means "learn from q-errors".  The plan
memo (:mod:`repro.engine.memo`) is every database's plan cache, on
with feedback or without; a :class:`FeedbackController` hangs off each
feedback-enabled :class:`~repro.engine.database.Database`, refers to
that memo and owns two pieces of state:

* a :class:`FeedbackStore` — per-fingerprint execution history (max
  q-error, planning time, memo decisions) for the most recently
  executed fingerprints, bounded like the memo;
* :class:`SelectivityOverrides` — learned actual/estimate ratios keyed
  by join column pair (equi joins) and by band key + predicate shape
  (band joins), applied multiplicatively by the cardinality estimator.

The memo reads two things from it: the overrides generation (a plan
planned under older overrides is stale) and a re-plan a breach
demanded (reported as the planning decision).

Every SELECT executes measured (the plan's own nodes record what they
did; see :mod:`repro.engine.instrument`).  After execution the controller
folds the observed per-operator actuals back; when a fingerprint's max
q-error exceeds the configured ceiling it reacts: re-ANALYZE of the
tables under the offending operators whose statistics are stale (none
yet, or at least 500 + 20 % of their rows modified since — the
auto-update-statistics rule of the paper's SQL Server), override ratios
computed against those statistics (so the corrected estimate lands on
the observed cardinality, not on a stale baseline), and the memo entry
dropped so the next execution re-plans.  Plans thereby stop being a
pure function of stale statistics and become a converging function of
observed execution.

Obs: counters under ``engine.feedback.*`` and spans
(``engine.feedback.observe`` / ``engine.feedback.react``) cover every
decision; the memo's ``engine.plan`` span carries the planning one.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

from repro.engine.cache import BoundedLRU, PlanKey
from repro.engine.instrument import NodeStats, max_q_error
from repro.engine.join import BandJoin, HashJoin
from repro.engine.memo import MAX_FINGERPRINTS, drifted
from repro.engine.operators import IndexRangeScan, PlanNode, SeqScan, plan_nodes
from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    profile_for_table,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import span

#: Learned ratios are clamped here: a single wild observation (an empty
#: intermediate, say) must not install a correction the estimator can
#: never recover from.
MIN_OVERRIDE_RATIO = 1e-6
MAX_OVERRIDE_RATIO = 1e6


def stats_stale(table) -> bool:
    """Does the re-ANALYZE rule fire for this table: rows modified
    since its last ANALYZE past the drift threshold of the rows it had
    then?"""
    stats = table.stats
    if stats is None:
        return True
    return drifted(table.modified_rows, stats.row_count)


# ----------------------------------------------------------------------
# learned selectivity overrides
# ----------------------------------------------------------------------
@dataclass
class OverrideEntry:
    """One learned correction: estimate *= ratio."""

    kind: str  # "equi" | "band"
    key: tuple
    ratio: float
    installs: int = 1
    fingerprint: str | None = None  # who learned it (for reports)


class SelectivityOverrides:
    """Actual/estimate ratios the cardinality estimator multiplies in.

    Keys are table-qualified column names (``"galaxy.zoneid"``), not
    aliases, so every query shape touching the same join shares one
    learned correction.  ``version`` bumps on every install; the plan
    memo snapshots it, so new knowledge forces a re-plan structurally.
    """

    def __init__(self):
        self._entries: dict[tuple, OverrideEntry] = {}
        self._lock = threading.Lock()
        self.version = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def equi_key(column_a: str, column_b: str) -> tuple:
        return ("equi", tuple(sorted((column_a, column_b))))

    @staticmethod
    def band_key(column: str, shape: tuple[str, str]) -> tuple:
        return ("band", column, shape)

    def install(
        self, kind: str, key: tuple, ratio: float,
        fingerprint: str | None = None,
    ) -> OverrideEntry:
        ratio = float(min(max(ratio, MIN_OVERRIDE_RATIO), MAX_OVERRIDE_RATIO))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = OverrideEntry(kind=kind, key=key, ratio=ratio,
                                      fingerprint=fingerprint)
                self._entries[key] = entry
            else:
                entry.ratio = ratio
                entry.installs += 1
                entry.fingerprint = fingerprint
            self.version += 1
            return entry

    def equi_ratio(self, column_a: str | None, column_b: str | None) -> float | None:
        if column_a is None or column_b is None:
            return None
        return self._ratio(self.equi_key(column_a, column_b))

    def band_ratio(self, column: str | None, shape: tuple[str, str]) -> float | None:
        if column is None:
            return None
        return self._ratio(self.band_key(column, shape))

    def _ratio(self, key: tuple) -> float | None:
        with self._lock:
            entry = self._entries.get(key)
            return entry.ratio if entry is not None else None

    def entries(self) -> list[OverrideEntry]:
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.version += 1

    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return "learned overrides: none"
        lines = [f"learned overrides ({len(entries)}, generation {self.version}):"]
        for entry in entries:
            if entry.kind == "equi":
                what = " ~ ".join(entry.key[1])
            else:
                # band shapes are expression reprs; keep the line readable
                low, high = (s if len(s) <= 24 else s[:21] + "..."
                             for s in entry.key[2])
                what = f"{entry.key[1]} in [{low}, {high}]"
            lines.append(
                f"  {entry.kind}({what}): x{entry.ratio:.4g} "
                f"(installs={entry.installs})"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-fingerprint execution history
# ----------------------------------------------------------------------
@dataclass
class FingerprintFeedback:
    """Everything observed about one statement fingerprint so far."""

    fingerprint: str
    sql: str = ""
    executions: int = 0
    replans: int = 0
    last_max_q: float = 1.0
    worst_max_q: float = 1.0
    last_decision: str | None = None
    last_planning_s: float = 0.0
    planning_total_s: float = 0.0
    #: Set when a ceiling breach demands a re-plan; consumed (and
    #: reported as the memo decision) by the next planning of this
    #: fingerprint.
    pending: str | None = None
    #: max q-error per execution, oldest first (bounded ring).
    q_trajectory: list[float] = field(default_factory=list)


class FeedbackStore:
    """Fingerprint -> :class:`FingerprintFeedback`, on a
    :class:`~repro.engine.cache.BoundedLRU`.

    Keeps the :data:`~repro.engine.memo.MAX_FINGERPRINTS` most recently
    recorded fingerprints; every entry mutation happens under the LRU's
    lock.  The run totals (``executions``, ``replans``) are counted
    here, outside the entries, so an eviction never shrinks them.
    """

    _TRAJECTORY_CAP = 64

    def __init__(self):
        self._lru = BoundedLRU("engine.feedback.store", MAX_FINGERPRINTS)
        self.executions = 0
        self.replans = 0

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, fingerprint: str) -> FingerprintFeedback | None:
        return self._lru.peek(fingerprint)

    def record(
        self,
        fingerprint: str,
        sql: str,
        max_q: float,
        planning_s: float,
        decision: str | None,
    ) -> FingerprintFeedback:
        with self._lru.lock:
            entry = self._lru.get(fingerprint)
            if entry is None:
                entry = FingerprintFeedback(fingerprint=fingerprint)
                self._lru.put(fingerprint, entry)
            if sql:
                entry.sql = sql
            entry.executions += 1
            self.executions += 1
            entry.last_max_q = max_q
            entry.worst_max_q = max(entry.worst_max_q, max_q)
            entry.last_decision = decision
            entry.last_planning_s = planning_s
            entry.planning_total_s += planning_s
            if decision in ("replan", "learned-override"):
                entry.replans += 1
                self.replans += 1
            entry.q_trajectory.append(max_q)
            if len(entry.q_trajectory) > self._TRAJECTORY_CAP:
                del entry.q_trajectory[0]
            return entry

    def set_pending(self, fingerprint: str, reason: str) -> None:
        """Demand a re-plan of a tracked fingerprint.  One evicted
        meanwhile needs no flag: its memo entry is gone with it, so its
        next execution re-plans as a plain miss."""
        with self._lru.lock:
            entry = self._lru.peek(fingerprint)
            if entry is not None:
                entry.pending = reason

    def take_pending(self, fingerprint: str) -> str | None:
        with self._lru.lock:
            entry = self._lru.peek(fingerprint)
            if entry is None or entry.pending is None:
                return None
            reason, entry.pending = entry.pending, None
            return reason

    def entries(self) -> list[FingerprintFeedback]:
        return self._lru.entries()

    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return "feedback store: empty"
        lines = [f"feedback store ({len(entries)} fingerprints):"]
        for entry in sorted(entries, key=lambda e: -e.worst_max_q):
            sql = entry.sql if len(entry.sql) <= 72 else entry.sql[:69] + "..."
            lines.append(
                f"  {entry.fingerprint[:12]}  execs={entry.executions}  "
                f"q_last={entry.last_max_q:.2f}  q_worst={entry.worst_max_q:.2f}  "
                f"replans={entry.replans}  last={entry.last_decision or '-'}  "
                f"{sql}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# plan walking helpers
# ----------------------------------------------------------------------
def _scan_leaves(node: PlanNode):
    """Base-table scans under a node (SeqScan / IndexRangeScan)."""
    for leaf in plan_nodes(node):
        if isinstance(leaf, SeqScan):
            yield leaf.alias.lower(), leaf.table
        elif isinstance(leaf, IndexRangeScan):
            yield leaf.alias.lower(), leaf.index.table


def _subtree_profiles(node: PlanNode) -> list:
    """Fresh relation profiles for every scan leaf under a node."""
    return [
        profile_for_table(table, alias)
        for alias, table in _scan_leaves(node)
    ]


def _band_shape(low, high) -> tuple[str, str]:
    """A stable structural key for a band's bound expressions.

    Bound expressions are frozen dataclasses, so ``repr`` is
    deterministic; two band joins with the same key column and the same
    bound shapes share one learned ratio.
    """
    return (repr(low) if low is not None else "",
            repr(high) if high is not None else "")


class FeedbackController:
    """The per-database feedback loop: store + overrides, reacting on
    the database's plan memo.

    Owned by its database, which it refers back to weakly (as the
    executor does).
    """

    def __init__(self, database, config):
        self.database = weakref.proxy(database)
        self.ceiling = float(config.qerror_ceiling)
        #: The database's plan memo, which a breach invalidates.
        self.memo = database.memo
        self.store = FeedbackStore()
        self.overrides = SelectivityOverrides()
        metrics = get_metrics()
        self._m_executions = metrics.counter("engine.feedback.executions")
        self._m_breaches = metrics.counter("engine.feedback.breaches")
        self._m_reanalyzed = metrics.counter(
            "engine.feedback.reanalyzed_tables"
        )
        self._m_overrides = metrics.counter(
            "engine.feedback.overrides_installed"
        )
        self._m_replans = metrics.counter("engine.feedback.replans")
        self._h_max_q = metrics.histogram(
            "engine.feedback.max_q_error",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 64.0),
        )

    # ------------------------------------------------------------------
    # what the memo stage of the SELECT path reads
    # ------------------------------------------------------------------
    def take_pending(self, fingerprint: str) -> str | None:
        """The re-plan a breach demanded of this fingerprint, consumed:
        the memo reports it as the decision of the planning it causes."""
        reason = self.store.take_pending(fingerprint)
        if reason is not None:
            self._m_replans.inc()
        return reason

    def execute_select(self, stmt, planner=None):
        """One SELECT through the shared path, ``Executor._select``.

        Kept for ``benchmarks/e2e/stages.py``, which is frozen and
        calls it with a planner; the path plans with the executor's.
        """
        return self.database._executor._select(stmt)

    # ------------------------------------------------------------------
    # folding actuals back
    # ------------------------------------------------------------------
    def observe(
        self,
        keyed: PlanKey | None,
        plan: PlanNode,
        records: dict[int, NodeStats],
        planning_s: float,
        decision: str | None,
    ) -> float:
        """Fold one execution's actuals (the measured execution's
        ``records``, keyed by node identity) into the store; maybe
        react."""
        with span("engine.feedback.observe", layer="engine",
                  attrs={"decision": decision or ""}):
            max_q = max_q_error(records.values())
            self._m_executions.inc()
            self._h_max_q.observe(max_q)
            if keyed is None:
                return max_q
            entry = self.store.record(
                keyed.fingerprint, keyed.sql, max_q, planning_s, decision
            )
            forcer = self.database.plan_forcer
            if (
                forcer is not None
                and forcer.get(keyed.fingerprint) is not None
            ):
                # the operator pinned this plan; reacting would install
                # overrides and demand a re-plan the pin must ignore
                return max_q
            if max_q > self.ceiling and entry.pending is None:
                self._m_breaches.inc()
                with span(
                    "engine.feedback.react", layer="engine",
                    attrs={
                        "fingerprint": keyed.fingerprint,
                        "max_q": round(max_q, 2),
                    },
                ):
                    self._react(keyed, plan, records)
            return max_q

    def _react(
        self, keyed: PlanKey, plan: PlanNode, records: dict[int, NodeStats]
    ) -> None:
        """Ceiling breached: re-ANALYZE stale offenders, learn ratios,
        re-plan.

        Overrides are computed against the estimator's current (post
        re-ANALYZE) base selectivities, so the corrected estimate lands
        on the observed cardinality in one step instead of chasing a
        moving baseline.  A breach on fresh statistics skips straight to
        the overrides and the re-plan.
        """
        offenders = [
            (node, rec)
            for node in plan_nodes(plan)
            if (rec := records[id(node)]).q_error is not None
            and rec.q_error > self.ceiling
        ]

        # 1. re-ANALYZE every table under an offending node whose
        #    statistics are stale
        doomed_tables: dict[str, object] = {}
        for node, _rec in offenders:
            for alias, table in _scan_leaves(node):
                if stats_stale(table):
                    doomed_tables[table.name.lower()] = table
        for name in sorted(doomed_tables):
            self.database.analyze(name)
            self._m_reanalyzed.inc()

        # 2. learn selectivity ratios for the offending joins, against
        #    the current statistics
        installed = 0
        for node, rec in offenders:
            if not isinstance(node, (HashJoin, BandJoin)):
                continue
            installed += self._learn_join_ratio(
                keyed.fingerprint, node, rec, records
            )
        if installed:
            self._m_overrides.inc(installed)

        # 3. force the re-plan: drop this fingerprint's memo entries and
        #    flag the store so the next planning reports its decision
        self.memo.invalidate_fingerprint(keyed.fingerprint)
        self.store.set_pending(
            keyed.fingerprint,
            "learned-override" if installed else "replan",
        )

    def _learn_join_ratio(
        self,
        fingerprint: str,
        node: HashJoin | BandJoin,
        rec: NodeStats,
        records: dict[int, NodeStats],
    ) -> int:
        """Install one observed/estimated ratio for a join node.

        Returns the number of overrides installed (0 or 1).  The
        observed join selectivity is ``out / (left * right)`` per call;
        zero-row inputs are skipped — there is nothing to learn from an
        empty side, and the ratio would be undefined.
        """
        left_rec = records[id(node.left)]
        right_rec = records[id(node.right)]
        left_rows = left_rec.rows_per_call
        right_rows = right_rec.rows_per_call
        if left_rows <= 0 or right_rows <= 0:
            return 0
        observed = max(rec.rows_per_call, 1.0) / (left_rows * right_rows)

        estimator = CardinalityEstimator(_subtree_profiles(node))
        if isinstance(node, HashJoin):
            key_a = estimator.column_key(node.left_key)
            key_b = estimator.column_key(node.right_key)
            if key_a is None or key_b is None:
                return 0
            base = estimator.equi_selectivity(node.left_key, node.right_key)
            base *= estimator.selectivity(node.residual)
            if base <= 0.0:
                return 0
            self.overrides.install(
                "equi", SelectivityOverrides.equi_key(key_a, key_b),
                observed / base, fingerprint,
            )
            return 1
        key = estimator.column_key(node.right_key)
        if key is None:
            return 0
        base = estimator.band_selectivity(node.right_key, node.low, node.high)
        base *= estimator.selectivity(node.residual)
        if base <= 0.0:
            return 0
        shape = _band_shape(node.low, node.high)
        self.overrides.install(
            "band", SelectivityOverrides.band_key(key, shape),
            observed / base, fingerprint,
        )
        return 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Memo counters + feedback totals, for reports and workers."""
        out = {f"memo_{k}": v for k, v in self.memo.summary().items()}
        out["fingerprints"] = len(self.store)
        out["executions"] = self.store.executions
        out["replans"] = self.store.replans
        out["overrides"] = len(self.overrides)
        return out

    def render(self) -> str:
        """Full textual state: memo, store, overrides."""
        return "\n".join([
            self.memo.render(),
            self.store.render(),
            self.overrides.render(),
        ])
