"""The plan memo: chosen physical plans, keyed to skip planning.

Multi-user batch traffic is dominated by repeated statement shapes
("Batch is back: CasJobs") — so once the optimizer has chosen a plan
for a normalized statement, repeat executions should not pay
rewrite + DP planning again.  A :class:`PlanMemo` stores the chosen
physical plan per statement **fingerprint**
(:func:`~repro.engine.cache.plan_fingerprint`): a hash of the
printer-normalized, post-rewrite statement (the normalization the
result cache uses) under ``db.config.plan_signature()``.  Formatting,
alias spelling and rewrite-equivalent forms therefore share one entry,
while two databases with differing
:class:`~repro.engine.config.EngineConfig`\\ s, or one database before
and after ``db.config = ...``, never do: the signature spells every
planning knob (optimizer mode, band joins, rewrites, compiled kernels).

Invalidation is structural, like the result cache's: each entry
snapshots, per referenced table, the mutation ``version`` *and* the
statistics ``stats_version`` plus the learned-override generation —
DML, ANALYZE (targeted or global), matview refresh and newly installed
selectivity overrides all make the next lookup miss, which is exactly
what forces the re-plan the feedback loop wants.  That validity rule
is the one predicate :meth:`PlanMemo.get` hands its
:class:`~repro.engine.cache.BoundedLRU`, which keeps the
:data:`MAX_FINGERPRINTS` most recently used plans and feeds the
hit/miss/insert/invalidation/eviction counters to the obs metrics
registry under ``engine.memo.*``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cache import BoundedLRU
from repro.engine.operators import PlanNode

#: How many statement fingerprints the plan memo and the feedback store
#: each keep.
MAX_FINGERPRINTS = 256


@dataclass
class MemoEntry:
    """One memoized physical plan and the state it was planned under."""

    key: str
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
    hits: int = 0


class PlanMemo:
    """Memoized plans, on a :class:`~repro.engine.cache.BoundedLRU`.

    One instance hangs off each feedback-enabled
    :class:`~repro.engine.database.Database` (and therefore off each
    cluster worker's per-partition database — memo state is per worker
    by construction, shipped nowhere).
    """

    def __init__(self, max_entries: int = MAX_FINGERPRINTS):
        self._lru = BoundedLRU("engine.memo", int(max_entries))
        self.stats = self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(
        self,
        key: str,
        table_versions: dict[str, int | None],
        stats_versions: dict[str, int],
        overrides_version: int,
    ) -> MemoEntry | None:
        """Look up a plan; any version drift is a structural miss.

        A stale entry (table mutated, re-ANALYZEd, or overrides newer
        than planning time) is dropped on sight — the caller re-plans
        and re-memoizes under the current state.
        """

        def valid(entry: MemoEntry) -> bool:
            return (
                entry.table_versions == table_versions
                and entry.stats_versions == stats_versions
                and entry.overrides_version == overrides_version
            )

        with self._lru.lock:
            entry = self._lru.get(key, valid)
            if entry is not None:
                entry.hits += 1
            return entry

    def put(
        self,
        key: str,
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
        self._lru.put(key, entry)
        return entry

    def invalidate_table(self, table_name: str) -> int:
        """Eagerly drop every plan that reads the given table.

        Version-keyed lookups would miss stale entries anyway; eager
        invalidation reclaims memory immediately and makes DML/ANALYZE
        invalidation observable in the metrics.
        """
        lowered = table_name.lower()
        return self._lru.invalidate(lambda _key, e: lowered in e.tables)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop the plan memoized for one statement fingerprint."""
        return self._lru.invalidate(lambda key, _e: key == fingerprint)

    def entries(self) -> list[MemoEntry]:
        """A snapshot of the live entries, most recently used last."""
        return self._lru.entries()

    def summary(self) -> dict[str, float]:
        """Counters + occupancy, for reports and ``repro memo``."""
        return self._lru.summary()

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
                f"  {entry.key[:12]}  hits={entry.hits}  "
                f"planned_in={entry.planning_s * 1e3:.2f}ms  "
                f"tables={','.join(sorted(entry.tables)) or '-'}  {root}"
            )
        return "\n".join(lines)
