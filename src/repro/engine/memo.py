"""The plan memo: chosen physical plans, keyed to skip planning.

Multi-user batch traffic is dominated by repeated statement shapes
("Batch is back: CasJobs") — so once the optimizer has chosen a plan
for a normalized statement, repeat executions should not pay
rewrite + DP planning again.  A :class:`PlanMemo` stores the chosen
physical plan per ``(fingerprint, config signature)``:

* the **fingerprint** hashes the printer-normalized, post-rewrite
  statement (the same normalization the result cache uses), so
  formatting, alias spelling and rewrite-equivalent forms share one
  entry;
* the **config signature** (``db.config.plan_signature()``, read at
  every lookup) captures every planning-relevant knob (optimizer mode,
  band joins, rewrites, compiled kernels), so neither two databases with differing
  :class:`~repro.engine.config.EngineConfig`\\ s nor one database before
  and after ``db.config = ...`` cross-serve plans.

Invalidation is structural, like the result cache's: each entry
snapshots, per referenced table, the mutation ``version`` *and* the
statistics ``stats_version`` plus the learned-override generation —
DML, ANALYZE (targeted or global), matview refresh and newly installed
selectivity overrides all make the next lookup miss, which is exactly
what forces the re-plan the feedback loop wants.  Hit/miss/insert/
invalidation/eviction counters feed the obs metrics registry under
``engine.memo.*``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.operators import PlanNode
from repro.obs.metrics import get_metrics

#: Fully-qualified memo key: (statement fingerprint, config signature).
MemoKey = tuple[str, str]


@dataclass
class MemoEntry:
    """One memoized physical plan and the state it was planned under."""

    key: MemoKey
    plan: PlanNode
    tables: frozenset[str]
    #: Per-table mutation counters at planning time.
    table_versions: dict[str, int]
    #: Per-table statistics generations at planning time.
    stats_versions: dict[str, int]
    #: Learned-override generation at planning time.
    overrides_version: int
    #: Seconds the planner spent producing this plan (what a hit saves).
    planning_s: float = 0.0
    #: The planning decision that produced the plan (miss / replan /
    #: learned-override / ...), so memo hits can report their plan's
    #: origin to the Query Store.
    decision: str = "miss"
    stored_at: float = field(default_factory=time.monotonic)
    hits: int = 0


@dataclass
class MemoStats:
    """Monotonic counters, mirrored into the obs metrics registry."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanMemo:
    """Bounded, thread-safe LRU of memoized plans.

    One instance hangs off each feedback-enabled
    :class:`~repro.engine.database.Database` (and therefore off each
    cluster worker's per-partition database — memo state is per worker
    by construction, shipped nowhere).
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = int(max_entries)
        self.stats = MemoStats()
        self._entries: OrderedDict[MemoKey, MemoEntry] = OrderedDict()
        self._lock = threading.Lock()
        metrics = get_metrics()
        self._m_hits = metrics.counter("engine.memo.hits")
        self._m_misses = metrics.counter("engine.memo.misses")
        self._m_inserts = metrics.counter("engine.memo.inserts")
        self._m_evictions = metrics.counter("engine.memo.evictions")
        self._m_invalidations = metrics.counter("engine.memo.invalidations")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self,
        key: MemoKey,
        table_versions: dict[str, int | None],
        stats_versions: dict[str, int],
        overrides_version: int,
    ) -> MemoEntry | None:
        """Look up a plan; any version drift is a structural miss.

        A stale entry (table mutated, re-ANALYZEd, or overrides newer
        than planning time) is dropped on sight — the caller re-plans
        and re-memoizes under the current state.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (
                entry.table_versions != table_versions
                or entry.stats_versions != stats_versions
                or entry.overrides_version != overrides_version
            ):
                del self._entries[key]
                self.stats.invalidations += 1
                self._m_invalidations.inc()
                entry = None
            if entry is None:
                self.stats.misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.stats.hits += 1
            self._m_hits.inc()
            return entry

    def put(
        self,
        key: MemoKey,
        plan: PlanNode,
        tables: set[str] | frozenset[str],
        table_versions: dict[str, int | None],
        stats_versions: dict[str, int],
        overrides_version: int,
        planning_s: float = 0.0,
        decision: str = "miss",
    ) -> MemoEntry:
        """Memoize a freshly chosen plan under the current state."""
        entry = MemoEntry(
            key=key,
            plan=plan,
            tables=frozenset(t.lower() for t in tables),
            table_versions=dict(table_versions),
            stats_versions=dict(stats_versions),
            overrides_version=overrides_version,
            planning_s=planning_s,
            decision=decision,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.inserts += 1
            self._m_inserts.inc()
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                self._m_evictions.inc()
        return entry

    def invalidate_table(self, table_name: str) -> int:
        """Eagerly drop every plan that reads the given table.

        Version-keyed lookups would miss stale entries anyway; eager
        invalidation reclaims memory immediately and makes DML/ANALYZE
        invalidation observable in the metrics.
        """
        lowered = table_name.lower()
        with self._lock:
            doomed = [
                key for key, entry in self._entries.items()
                if lowered in entry.tables
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            if doomed:
                self._m_invalidations.inc(len(doomed))
        return len(doomed)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry for one statement fingerprint (any config)."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == fingerprint]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            if doomed:
                self._m_invalidations.inc(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def entries(self) -> list[MemoEntry]:
        """A snapshot of the live entries, most recently used last."""
        with self._lock:
            return list(self._entries.values())

    def summary(self) -> dict[str, float]:
        """Counters + occupancy, for reports and ``repro memo``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "hit_rate": self.stats.hit_rate,
                "inserts": self.stats.inserts,
                "evictions": self.stats.evictions,
                "invalidations": self.stats.invalidations,
            }

    def render(self) -> str:
        """The memo as text: occupancy line plus one line per plan."""
        summary = self.summary()
        lines = [
            "plan memo: {entries:.0f} entries, {hits:.0f} hits / "
            "{misses:.0f} misses ({rate:.0%}), {inv:.0f} invalidations".format(
                entries=summary["entries"], hits=summary["hits"],
                misses=summary["misses"], rate=summary["hit_rate"],
                inv=summary["invalidations"],
            )
        ]
        for entry in self.entries():
            root = entry.plan.explain().splitlines()[0]
            lines.append(
                f"  {entry.key[0][:12]}  hits={entry.hits}  "
                f"planned_in={entry.planning_s * 1e3:.2f}ms  "
                f"tables={','.join(sorted(entry.tables)) or '-'}  {root}"
            )
        return "\n".join(lines)
