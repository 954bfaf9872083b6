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

A plan is reused while it is *bound* and *fresh*.  Bound: its root's
``generation`` stamp (set by ``Executor.plan``) equals
``Database._catalog_generation``, the one rule the statement cache and
plan forcing use too, so a create or drop of a table, view or matview
retires it (``Database._catalog_changed`` drops every such plan at
once, releasing the tables it holds).  Fresh: the referenced tables'
``stats_version`` and the learned-override generation are what they
were at planning time, so ANALYZE (targeted or global), a
clustered-index build, the end of a clustered order (TRUNCATE, a
key-column UPDATE, matview REFRESH) and a newly installed selectivity
override all miss.  Plain DML does not: a plan reads its tables as they
are when it runs, and the feedback loop's q-error ceiling retires a
plan whose estimates the writes have made wrong.  A plan answered from
a materialized view, at any depth, is never memoized: the view goes
stale on a write to its sources.  That validity rule is the one
predicate :meth:`PlanMemo.get` hands its
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
    """One memoized physical plan and the state it was planned under
    (the catalog generation is the plan's own ``generation`` stamp)."""

    key: str
    plan: PlanNode
    #: Statistics generation of each referenced table at planning time.
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
        generation: int,
        stats_versions: dict[str, int],
        overrides_version: int,
    ) -> MemoEntry | None:
        """Look up a plan bound under ``generation`` and still fresh.

        An unbound or stale entry (catalog changed, table re-ANALYZEd or
        re-ordered, or overrides newer than planning time) is dropped on
        sight — the caller re-plans and re-memoizes under the current
        state.
        """

        def valid(entry: MemoEntry) -> bool:
            return (
                entry.plan.generation == generation
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
        stats_versions: dict[str, int],
        overrides_version: int,
        planning_s: float = 0.0,
        decision: str = "miss",
    ) -> MemoEntry:
        """Memoize a freshly chosen plan under the current state."""
        entry = MemoEntry(
            key=key,
            plan=plan,
            stats_versions=dict(stats_versions),
            overrides_version=overrides_version,
            planning_s=planning_s,
            decision=decision,
        )
        self._lru.put(key, entry)
        return entry

    def retire_unbound(self, generation: int) -> int:
        """Drop every plan bound under a catalog generation other than
        ``generation``."""
        return self._lru.invalidate(
            lambda _key, entry: entry.plan.generation != generation
        )

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
            tables = ",".join(sorted(entry.stats_versions)) or "-"
            lines.append(
                f"  {entry.key[:12]}  hits={entry.hits}  "
                f"planned_in={entry.planning_s * 1e3:.2f}ms  "
                f"tables={tables}  {root}"
            )
        return "\n".join(lines)
