"""The Query Store: persisted workload history, queryable from SQL.

CasJobs was tuned by staring at workload logs — this module makes that
history a durable, first-class object, modeled on SQL Server's Query
Store (the production feature that grew out of exactly this workload
class).  A :class:`QueryStore` hangs off each
``EngineConfig(query_store=True)`` database and records, per
normalized-statement fingerprint:

* **queries** — SQL text, first/last seen, execution counts;
* **plans** — the full plan history: every distinct plan *structure*
  that ever ran for the fingerprint, with its EXPLAIN text, the
  :meth:`~repro.engine.config.EngineConfig.plan_signature` it was
  planned under, and which optimizer decision produced it (``cost`` /
  ``syntactic`` / ``miss`` / ``replan`` / ``learned-override`` /
  ``forced`` / ...);
* **runtime stats** — per ``(plan, time interval, user)`` aggregates:
  execution count, rows, wall mean/p50/p95, CPU, logical I/O and
  result-cache / plan-memo hits.  The user dimension comes from the
  CasJobs service via the :func:`attribution` context manager.

Whenever a fingerprint's current plan *changes* (feedback re-plan,
ANALYZE, forcing) a :class:`PlanChange` event is recorded; once the new
plan has enough post-change executions its mean wall time is compared
against the old plan's and the change is classified **regression** /
**improvement** / **neutral** — surfaced by ``repro querystore
regressions`` and the ``engine.querystore.regressions`` counter.  A
planning knob flip records no change: every fingerprint hashes the
config's ``plan_signature()``, so the flipped config starts a new
fingerprint.

The store dogfoods the engine: :meth:`QueryStore.sync_views`
materializes it as three real catalog tables
(``sys_query_store_queries`` / ``sys_query_store_plans`` /
``sys_query_store_runtime_stats``), lazily rebuilt when the store has
moved, so ordinary SELECTs — including joins against user tables —
answer workload questions.  Persistence is one ``querystore.json``
beside the table files, written by
:func:`repro.engine.storage.save_database`.
"""

from __future__ import annotations

import contextvars
import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import get_metrics

#: The three system views the store materializes.
VIEW_QUERIES = "sys_query_store_queries"
VIEW_PLANS = "sys_query_store_plans"
VIEW_RUNTIME = "sys_query_store_runtime_stats"
QUERY_STORE_VIEWS = (VIEW_QUERIES, VIEW_PLANS, VIEW_RUNTIME)

#: Default length of one runtime-stat aggregation interval, seconds.
DEFAULT_INTERVAL_S = 60.0

#: Default LRU bound on tracked fingerprints.
DEFAULT_MAX_QUERIES = 256

#: Wall-time samples kept per (plan, interval, user) for percentiles —
#: a bounded ring; beyond it old samples are overwritten round-robin.
SAMPLE_CAP = 128

#: A plan change is classified once the new plan has this many
#: post-change executions to average over.
MIN_VERDICT_EXECUTIONS = 2

#: new/old mean-wall ratio thresholds for the verdict.
REGRESSION_RATIO = 1.25
IMPROVEMENT_RATIO = 0.80

#: Attribution: which user the current execution belongs to.  Set by
#: the CasJobs service around each job's query; "" = unattributed.
_CURRENT_USER: contextvars.ContextVar[str] = contextvars.ContextVar(
    "querystore_user", default=""
)


def current_user() -> str:
    """The user the current execution is attributed to ("" if none)."""
    return _CURRENT_USER.get()


@contextmanager
def attribution(user: str):
    """Attribute executions inside the block to ``user``.

    Context-local, so concurrent CasJobs workers attribute correctly.
    """
    token = _CURRENT_USER.set(user or "")
    try:
        yield
    finally:
        _CURRENT_USER.reset(token)


# ----------------------------------------------------------------------
# data model
# ----------------------------------------------------------------------
@dataclass
class StoredQuery:
    """One tracked statement fingerprint."""

    fingerprint: str
    sql: str = ""
    first_seen: float = 0.0
    last_seen: float = 0.0
    executions: int = 0
    #: The plan the fingerprint currently runs under (-1 before any
    #: planned execution — e.g. a store enabled mid-workload seeing only
    #: cache hits).
    current_plan_id: int = -1


@dataclass
class StoredPlan:
    """One distinct plan structure in a fingerprint's history."""

    plan_id: int
    fingerprint: str
    #: Structural signature (:func:`plan_structure`) — the dedup key and
    #: what plan forcing re-establishes against after a restart.
    structure: str
    plan_text: str
    plan_signature: str
    #: The optimizer decision that *first produced* this plan.
    decision: str
    created_at: float = 0.0
    executions: int = 0
    wall_total_s: float = 0.0
    #: Live operator tree (not persisted; used for same-process forcing).
    node: object | None = field(default=None, repr=False, compare=False)

    @property
    def mean_wall_s(self) -> float:
        return self.wall_total_s / self.executions if self.executions else 0.0


@dataclass
class IntervalStats:
    """Runtime aggregates for one (fingerprint, plan, interval, user)."""

    fingerprint: str
    plan_id: int
    interval_start: float
    user: str
    executions: int = 0
    rows: int = 0
    wall_sum_s: float = 0.0
    cpu_sum_s: float = 0.0
    logical_reads: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    #: Bounded ring of wall samples for p50/p95.
    samples: list[float] = field(default_factory=list)

    def observe_wall(self, wall_s: float) -> None:
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(wall_s)
        else:
            self.samples[self.executions % SAMPLE_CAP] = wall_s

    @property
    def wall_mean_s(self) -> float:
        return self.wall_sum_s / self.executions if self.executions else 0.0

    def wall_quantile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class PlanChange:
    """A fingerprint switched plans; later classified by runtime."""

    fingerprint: str
    old_plan_id: int
    new_plan_id: int
    #: The decision that produced the new plan (replan / forced / ...).
    decision: str
    changed_at: float
    #: Old plan's mean wall at change time (the comparison baseline).
    old_mean_s: float | None
    #: New plan's totals at change time, so the post-change mean is
    #: computed over post-change executions only (matters when forcing
    #: re-activates a plan that already has history).
    new_base_executions: int = 0
    new_base_wall_s: float = 0.0
    verdict: str | None = None  # regression | improvement | neutral
    new_mean_s: float | None = None

    @property
    def ratio(self) -> float | None:
        """new/old mean wall ratio (None until classified)."""
        if self.new_mean_s is None or not self.old_mean_s:
            return None
        return self.new_mean_s / self.old_mean_s


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class QueryStore:
    """Thread-safe per-database workload history."""

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_queries: int = DEFAULT_MAX_QUERIES,
    ):
        self.interval_s = float(interval_s)
        self.max_queries = int(max_queries)
        self._queries: dict[str, StoredQuery] = {}
        self._plans: dict[int, StoredPlan] = {}
        self._plan_ids: dict[tuple[str, str], int] = {}  # (fp, structure)
        self._stats: dict[tuple[str, int, float, str], IntervalStats] = {}
        self._changes: list[PlanChange] = []
        self._next_plan_id = 1
        #: Bumps on every mutation; sync_views compares against it.
        self.generation = 0
        self._synced_generation = -1
        self._synced_forcer_version = -1
        self._syncing = False
        self._lock = threading.Lock()
        metrics = get_metrics()
        self._m_recorded = metrics.counter("engine.querystore.recorded")
        self._m_plan_changes = metrics.counter("engine.querystore.plan_changes")
        self._m_regressions = metrics.counter("engine.querystore.regressions")
        self._m_improvements = metrics.counter("engine.querystore.improvements")

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        *,
        fingerprint: str,
        sql: str,
        elapsed_s: float,
        cpu_s: float = 0.0,
        rows: int = 0,
        logical_reads: int = 0,
        plan_text: str = "",
        plan_signature: str = "",
        decision: str | None = None,
        plan_origin: str | None = None,
        plan_node: object | None = None,
        cache_hit: bool = False,
        memo_hit: bool = False,
        user: str | None = None,
        now: float | None = None,
    ) -> None:
        """Fold one execution into the store.

        ``decision`` is how this execution obtained its plan;
        ``plan_origin`` is the decision that *first produced* the plan
        (differs on memo hits, which reuse a plan produced earlier).
        Cache hits carry no plan — they attach to the fingerprint's
        current plan.
        """
        if now is None:
            now = time.time()
        if user is None:
            user = current_user()
        with self._lock:
            query = self._queries.get(fingerprint)
            if query is None:
                query = StoredQuery(
                    fingerprint=fingerprint, sql=sql,
                    first_seen=now, last_seen=now,
                )
                self._queries[fingerprint] = query
                self._evict_locked()
            if sql:
                query.sql = sql
            query.executions += 1
            query.last_seen = now

            if cache_hit:
                plan_id = query.current_plan_id
            else:
                plan = self._plan_for_locked(
                    query, plan_text, plan_signature,
                    plan_origin or decision or "unknown", plan_node, now,
                )
                plan_id = plan.plan_id
                if query.current_plan_id != plan_id:
                    self._plan_changed_locked(
                        query, plan, decision or "unknown", now
                    )
                plan.executions += 1
                plan.wall_total_s += elapsed_s
                if plan_node is not None:
                    plan.node = plan_node

            if plan_id >= 0:
                stats = self._interval_locked(fingerprint, plan_id, now, user)
                stats.observe_wall(elapsed_s)
                stats.executions += 1
                stats.rows += int(rows)
                stats.wall_sum_s += elapsed_s
                stats.cpu_sum_s += max(cpu_s, 0.0)
                stats.logical_reads += max(int(logical_reads), 0)
                if cache_hit:
                    stats.cache_hits += 1
                if memo_hit:
                    stats.memo_hits += 1

            self._classify_locked(fingerprint)
            self.generation += 1
        self._m_recorded.inc()

    def _plan_for_locked(
        self, query: StoredQuery, plan_text: str, plan_signature: str,
        origin: str, plan_node, now: float,
    ) -> StoredPlan:
        from repro.engine.optimizer.planforce import plan_structure

        if plan_node is not None:
            structure = plan_structure(plan_node)
        else:
            # no live tree (e.g. a restored plan replayed): key on text
            structure = hashlib.sha256(
                plan_text.encode()
            ).hexdigest()[:32]
        key = (query.fingerprint, structure)
        plan_id = self._plan_ids.get(key)
        if plan_id is not None:
            return self._plans[plan_id]
        plan = StoredPlan(
            plan_id=self._next_plan_id,
            fingerprint=query.fingerprint,
            structure=structure,
            plan_text=plan_text,
            plan_signature=plan_signature,
            decision=origin,
            created_at=now,
        )
        self._next_plan_id += 1
        self._plans[plan.plan_id] = plan
        self._plan_ids[key] = plan.plan_id
        return plan

    def _plan_changed_locked(
        self, query: StoredQuery, new_plan: StoredPlan, decision: str,
        now: float,
    ) -> None:
        old_id = query.current_plan_id
        if old_id >= 0:
            old_plan = self._plans.get(old_id)
            self._changes.append(PlanChange(
                fingerprint=query.fingerprint,
                old_plan_id=old_id,
                new_plan_id=new_plan.plan_id,
                decision=decision,
                changed_at=now,
                old_mean_s=(
                    old_plan.mean_wall_s
                    if old_plan is not None and old_plan.executions
                    else None
                ),
                new_base_executions=new_plan.executions,
                new_base_wall_s=new_plan.wall_total_s,
            ))
            self._m_plan_changes.inc()
        query.current_plan_id = new_plan.plan_id

    def _classify_locked(self, fingerprint: str) -> None:
        """Settle verdicts for pending changes of one fingerprint."""
        for change in self._changes:
            if change.fingerprint != fingerprint or change.verdict is not None:
                continue
            plan = self._plans.get(change.new_plan_id)
            if plan is None:
                change.verdict = "neutral"
                continue
            delta_n = plan.executions - change.new_base_executions
            if delta_n < MIN_VERDICT_EXECUTIONS:
                continue
            new_mean = (
                (plan.wall_total_s - change.new_base_wall_s) / delta_n
            )
            change.new_mean_s = new_mean
            if not change.old_mean_s:
                change.verdict = "neutral"
                continue
            ratio = new_mean / change.old_mean_s
            if ratio >= REGRESSION_RATIO:
                change.verdict = "regression"
                self._m_regressions.inc()
            elif ratio <= IMPROVEMENT_RATIO:
                change.verdict = "improvement"
                self._m_improvements.inc()
            else:
                change.verdict = "neutral"

    def _interval_locked(
        self, fingerprint: str, plan_id: int, now: float, user: str
    ) -> IntervalStats:
        start = (now // self.interval_s) * self.interval_s
        key = (fingerprint, plan_id, start, user)
        stats = self._stats.get(key)
        if stats is None:
            stats = IntervalStats(
                fingerprint=fingerprint, plan_id=plan_id,
                interval_start=start, user=user,
            )
            self._stats[key] = stats
        return stats

    def _evict_locked(self) -> None:
        """Cap tracked fingerprints; cascade to plans/stats/changes."""
        while len(self._queries) > self.max_queries:
            victim = min(
                self._queries.values(), key=lambda q: q.last_seen
            ).fingerprint
            del self._queries[victim]
            doomed = [
                pid for pid, plan in self._plans.items()
                if plan.fingerprint == victim
            ]
            for pid in doomed:
                plan = self._plans.pop(pid)
                self._plan_ids.pop((victim, plan.structure), None)
            self._stats = {
                k: v for k, v in self._stats.items() if k[0] != victim
            }
            self._changes = [
                c for c in self._changes if c.fingerprint != victim
            ]

    def touch(self) -> None:
        """Force a view refresh on next access (e.g. after forcing)."""
        with self._lock:
            self.generation += 1

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    def queries(self) -> list[StoredQuery]:
        with self._lock:
            return sorted(self._queries.values(),
                          key=lambda q: q.fingerprint)

    def query(self, fingerprint: str) -> StoredQuery | None:
        with self._lock:
            return self._queries.get(fingerprint)

    def plans(self, fingerprint: str | None = None) -> list[StoredPlan]:
        with self._lock:
            plans = sorted(self._plans.values(), key=lambda p: p.plan_id)
        if fingerprint is not None:
            plans = [p for p in plans if p.fingerprint == fingerprint]
        return plans

    def plan(self, plan_id: int) -> StoredPlan | None:
        with self._lock:
            return self._plans.get(plan_id)

    def runtime_stats(self) -> list[IntervalStats]:
        with self._lock:
            return sorted(
                self._stats.values(),
                key=lambda s: (s.fingerprint, s.plan_id,
                               s.interval_start, s.user),
            )

    def plan_changes(self) -> list[PlanChange]:
        with self._lock:
            return list(self._changes)

    def regressions(self) -> list[PlanChange]:
        """Classified plan changes that made the query slower."""
        return [c for c in self.plan_changes() if c.verdict == "regression"]

    def improvements(self) -> list[PlanChange]:
        return [c for c in self.plan_changes() if c.verdict == "improvement"]

    def summary(self) -> dict[str, int]:
        with self._lock:
            return {
                "queries": len(self._queries),
                "plans": len(self._plans),
                "intervals": len(self._stats),
                "plan_changes": len(self._changes),
                "regressions": sum(
                    1 for c in self._changes if c.verdict == "regression"
                ),
                "improvements": sum(
                    1 for c in self._changes if c.verdict == "improvement"
                ),
            }

    # ------------------------------------------------------------------
    # system views
    # ------------------------------------------------------------------
    def view_batches(self, forcer=None) -> dict[str, dict[str, np.ndarray]]:
        """The three system views as column batches, deterministic order."""
        queries = self.queries()
        plans = self.plans()
        stats = self.runtime_stats()
        forced_by_fp = {
            e.fingerprint: e for e in (forcer.entries() if forcer else [])
        }
        obj = np.asarray
        q_batch = {
            "fingerprint": obj([q.fingerprint for q in queries], dtype=object),
            "sql": obj([q.sql for q in queries], dtype=object),
            "executions": obj([q.executions for q in queries],
                              dtype=np.int64),
            "plan_count": obj(
                [sum(1 for p in plans if p.fingerprint == q.fingerprint)
                 for q in queries], dtype=np.int64,
            ),
            "current_plan_id": obj([q.current_plan_id for q in queries],
                                   dtype=np.int64),
            "forced_plan_id": obj(
                [forced_by_fp[q.fingerprint].plan_id
                 if q.fingerprint in forced_by_fp else -1
                 for q in queries], dtype=np.int64,
            ),
            "first_seen": obj([q.first_seen for q in queries],
                              dtype=np.float64),
            "last_seen": obj([q.last_seen for q in queries],
                             dtype=np.float64),
        }
        p_batch = {
            "plan_id": obj([p.plan_id for p in plans], dtype=np.int64),
            "fingerprint": obj([p.fingerprint for p in plans], dtype=object),
            "decision": obj([p.decision for p in plans], dtype=object),
            "plan_signature": obj([p.plan_signature for p in plans],
                                  dtype=object),
            "structure": obj([p.structure for p in plans], dtype=object),
            "is_forced": obj(
                [p.fingerprint in forced_by_fp
                 and forced_by_fp[p.fingerprint].plan_id == p.plan_id
                 for p in plans], dtype=bool,
            ),
            "force_failures": obj(
                [forced_by_fp[p.fingerprint].failures
                 if p.fingerprint in forced_by_fp
                 and forced_by_fp[p.fingerprint].plan_id == p.plan_id
                 else 0
                 for p in plans], dtype=np.int64,
            ),
            "executions": obj([p.executions for p in plans], dtype=np.int64),
            "wall_ms_mean": obj([p.mean_wall_s * 1e3 for p in plans],
                                dtype=np.float64),
            "created_at": obj([p.created_at for p in plans],
                              dtype=np.float64),
            "plan_text": obj([p.plan_text for p in plans], dtype=object),
        }
        s_batch = {
            "fingerprint": obj([s.fingerprint for s in stats], dtype=object),
            "plan_id": obj([s.plan_id for s in stats], dtype=np.int64),
            "interval_start": obj([s.interval_start for s in stats],
                                  dtype=np.float64),
            "user_name": obj([s.user for s in stats], dtype=object),
            "executions": obj([s.executions for s in stats], dtype=np.int64),
            "rows": obj([s.rows for s in stats], dtype=np.int64),
            "wall_ms_mean": obj([s.wall_mean_s * 1e3 for s in stats],
                                dtype=np.float64),
            "wall_ms_p50": obj([s.wall_quantile(0.5) * 1e3 for s in stats],
                               dtype=np.float64),
            "wall_ms_p95": obj([s.wall_quantile(0.95) * 1e3 for s in stats],
                               dtype=np.float64),
            "cpu_ms_total": obj([s.cpu_sum_s * 1e3 for s in stats],
                                dtype=np.float64),
            "logical_reads": obj([s.logical_reads for s in stats],
                                 dtype=np.int64),
            "cache_hits": obj([s.cache_hits for s in stats], dtype=np.int64),
            "memo_hits": obj([s.memo_hits for s in stats], dtype=np.int64),
        }
        return {
            VIEW_QUERIES: q_batch,
            VIEW_PLANS: p_batch,
            VIEW_RUNTIME: s_batch,
        }

    def sync_views(self, database) -> bool:
        """(Re)materialize the system views if the store has moved.

        Called from the database catalog on table lookup; re-entrancy
        (the rebuild itself resolves tables) is guarded.  Returns True
        when a rebuild happened.
        """
        if self._syncing:
            return False
        forcer = database.plan_forcer
        forcer_version = forcer.version if forcer is not None else -1
        with self._lock:
            current = (self.generation, forcer_version)
            synced = (self._synced_generation, self._synced_forcer_version)
        if current == synced and all(
            name in database._tables for name in QUERY_STORE_VIEWS
        ):
            return False
        self._syncing = True
        try:
            from repro.engine.schema import Column, TableSchema

            batches = self.view_batches(forcer)
            for name, batch in batches.items():
                table = database._tables.get(name)
                if table is None:
                    schema = TableSchema(
                        name=name,
                        columns=tuple(
                            Column(col, _VIEW_COLUMN_TYPES[name][col])
                            for col in batch
                        ),
                        primary_key=None,
                    )
                    table = database.create_table_from_schema(schema)
                else:
                    table.truncate()
                rows = len(next(iter(batch.values())))
                if rows:
                    table.insert(batch)
            with self._lock:
                self._synced_generation, self._synced_forcer_version = current
        finally:
            self._syncing = False
        return True

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self, forcer=None) -> dict:
        """The full store (and any forced pins) as a JSON document."""
        with self._lock:
            queries = [vars(q).copy() for q in self._queries.values()]
            plans = [
                {k: v for k, v in vars(p).items() if k != "node"}
                for p in self._plans.values()
            ]
            stats = [vars(s).copy() for s in self._stats.values()]
            changes = [vars(c).copy() for c in self._changes]
            next_plan_id = self._next_plan_id
        forced = [
            {
                "fingerprint": e.fingerprint,
                "plan_id": e.plan_id,
                "structure": e.structure,
                "plan_text": e.plan_text,
            }
            for e in (forcer.entries() if forcer is not None else [])
        ]
        return {
            "version": 1,
            "interval_s": self.interval_s,
            "next_plan_id": next_plan_id,
            "queries": queries,
            "plans": plans,
            "runtime_stats": stats,
            "plan_changes": changes,
            "forced": forced,
        }

    def load_json(self, payload: dict, forcer=None) -> None:
        """Replace the store's contents from :meth:`to_json` output."""
        with self._lock:
            self.interval_s = float(
                payload.get("interval_s", self.interval_s)
            )
            self._queries = {
                q["fingerprint"]: StoredQuery(**q)
                for q in payload.get("queries", ())
            }
            self._plans = {
                p["plan_id"]: StoredPlan(**p)
                for p in payload.get("plans", ())
            }
            self._plan_ids = {
                (p.fingerprint, p.structure): pid
                for pid, p in self._plans.items()
            }
            self._stats = {}
            for s in payload.get("runtime_stats", ()):
                stats = IntervalStats(**s)
                self._stats[(stats.fingerprint, stats.plan_id,
                             stats.interval_start, stats.user)] = stats
            self._changes = [
                PlanChange(**c) for c in payload.get("plan_changes", ())
            ]
            self._next_plan_id = int(payload.get(
                "next_plan_id",
                max(self._plans, default=0) + 1,
            ))
            self.generation += 1
            self._synced_generation = -1
        if forcer is not None:
            for pin in payload.get("forced", ()):
                forcer.force(
                    fingerprint=pin["fingerprint"],
                    plan_id=pin["plan_id"],
                    structure=pin["structure"],
                    plan_text=pin["plan_text"],
                    node=None,  # re-established structurally on first run
                )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def render(self, forcer=None) -> str:
        """Store contents as text (``repro querystore report``)."""
        summary = self.summary()
        lines = [
            "query store: {queries} queries, {plans} plans, "
            "{intervals} stat intervals, {plan_changes} plan changes "
            "({improvements} improved, {regressions} regressed)".format(
                **summary
            )
        ]
        forced_by_fp = {
            e.fingerprint: e for e in (forcer.entries() if forcer else [])
        }
        for query in self.queries():
            sql = (query.sql if len(query.sql) <= 64
                   else query.sql[:61] + "...")
            pin = forced_by_fp.get(query.fingerprint)
            lines.append(
                f"  {query.fingerprint[:12]}  execs={query.executions}  "
                f"current_plan={query.current_plan_id}"
                + (f"  FORCED->plan {pin.plan_id}" if pin else "")
                + f"  {sql}"
            )
            for plan in self.plans(query.fingerprint):
                lines.append(
                    f"    plan {plan.plan_id}: decision={plan.decision}  "
                    f"execs={plan.executions}  "
                    f"mean={plan.mean_wall_s * 1e3:.2f}ms  "
                    f"[{plan.plan_signature}]"
                )
        for change in self.plan_changes():
            ratio = change.ratio
            lines.append(
                f"  change {change.fingerprint[:12]}: plan "
                f"{change.old_plan_id} -> {change.new_plan_id} "
                f"({change.decision})  verdict={change.verdict or 'pending'}"
                + (f"  new/old={ratio:.2f}x" if ratio is not None else "")
            )
        return "\n".join(lines)


#: Declared column types for the system views (STRING columns must not
#: fall back to inference over empty object arrays).
def _view_column_types() -> dict[str, dict[str, object]]:
    from repro.engine.types import ColumnType

    s, i, f, b = (ColumnType.STRING, ColumnType.INT64,
                  ColumnType.FLOAT64, ColumnType.BOOL)
    return {
        VIEW_QUERIES: {
            "fingerprint": s, "sql": s, "executions": i, "plan_count": i,
            "current_plan_id": i, "forced_plan_id": i,
            "first_seen": f, "last_seen": f,
        },
        VIEW_PLANS: {
            "plan_id": i, "fingerprint": s, "decision": s,
            "plan_signature": s, "structure": s, "is_forced": b,
            "force_failures": i, "executions": i, "wall_ms_mean": f,
            "created_at": f, "plan_text": s,
        },
        VIEW_RUNTIME: {
            "fingerprint": s, "plan_id": i, "interval_start": f,
            "user_name": s, "executions": i, "rows": i, "wall_ms_mean": f,
            "wall_ms_p50": f, "wall_ms_p95": f, "cpu_ms_total": f,
            "logical_reads": i, "cache_hits": i, "memo_hits": i,
        },
    }


_VIEW_COLUMN_TYPES = _view_column_types()
