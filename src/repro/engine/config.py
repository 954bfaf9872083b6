"""EngineConfig: one object for every engine knob.

A single frozen dataclass that the cluster, CasJobs and CLI layers pass
through whole, and the only way to configure a
:class:`~repro.engine.database.Database`::

    db = Database("dr1", config=EngineConfig(optimizer="cost",
                                             result_cache=True))

The planner, the result cache, the feedback loop and ``ANALYZE`` read
``db.config.<knob>`` live, so a planning knob is flipped on a running
instance by assigning a new config::

    db.config = db.config.replace(band_joins=False)

Only the knobs in :data:`PLANNING_KNOBS` may change that way; the rest
size objects built at construction (buffer pool, cache, memo, Query
Store) and the assignment rejects a change to them.

Each planning knob keeps its off arm because that arm is a named
oracle: ``optimizer="syntactic"`` is the differential baseline,
``band_joins=False`` plans the ``NestedLoopJoin`` reference,
``rewrites=False`` produces the ``.off`` goldens and
``compiled_expressions=False`` is the plain walk the fused kernels'
strategy (CSE, short-circuit narrowing, Filter+Project fusion) is
checked against — both arms compute every node through the same
``apply``, so it checks the strategy, not a second copy of the
semantics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.engine.pages import DEFAULT_POOL_PAGES
from repro.errors import EngineError

#: Recognized planner modes (mirrors the planner's OPTIMIZER_MODES;
#: duplicated here to avoid importing the SQL layer at config time).
_OPTIMIZER_MODES = ("cost", "syntactic")

#: The knobs the planner reads live — exactly the ones
#: :meth:`EngineConfig.plan_signature` spells out — and therefore the
#: only ones ``db.config = ...`` may change on a running database.
PLANNING_KNOBS = (
    "optimizer",
    "band_joins",
    "rewrites",
    "compiled_expressions",
)

#: Default ceiling on cached entries per database.
DEFAULT_CACHE_MAX_ENTRIES = 512

#: Default q-error ceiling before the feedback loop reacts: one node
#: more than 8x off (in either direction) triggers learned selectivity
#: overrides and a re-plan, plus a re-ANALYZE of the tables under it
#: whose statistics are stale.
DEFAULT_QERROR_CEILING = 8.0


@dataclass(frozen=True)
class EngineConfig:
    """Every knob a :class:`~repro.engine.database.Database` takes.

    Attributes
    ----------
    pool_pages:
        Buffer-pool size in 8 KiB pages (default sized to the paper's
        2 GB nodes).
    optimizer:
        Planner mode, ``"cost"`` (statistics-driven) or ``"syntactic"``.
    band_joins:
        Allow the cost planner to extract BandJoin operators from range
        conjuncts.
    rewrites:
        Run the rule-driven logical rewrite pass between parse and
        plan (predicate pushdown into derived tables/views/CTEs,
        constant folding, IN/EXISTS decorrelation, redundant-join
        elimination, ...).  On by default; ``rewrites=False`` restores
        the exact pre-rewrite plans.
    compiled_expressions:
        Lower Filter/Project/join-residual expressions into fused
        single-pass kernels (common-subexpression elimination,
        NaN-aware short-circuit conjunction over selection vectors,
        late materialization of payload columns).  On by default;
        results are byte-identical to the interpreted walk either way.
        Both arms compute each node through its one ``apply``, so the
        off arm checks the kernel's strategy, not its semantics.
    result_cache:
        Enable the shared semantic result cache: SELECTs are answered
        from a prior identical statement's result when every referenced
        table is unchanged since it was stored.  Off by default — the
        CasJobs service and the CLI turn it on for shared catalogs.
    cache_max_entries:
        LRU bound on cached results (the byte bound is the
        :class:`~repro.engine.cache.ResultCache` default).
    feedback:
        Learn from q-errors: per-operator actuals are folded back after
        every execution, and a fingerprint whose max q-error exceeds
        ``qerror_ceiling`` triggers learned selectivity overrides and
        a re-plan, re-ANALYZEing the tables under the offending nodes
        whose statistics are stale (none yet, or 500 + 20 % of their
        rows modified since).  The plan memo does not need it: every
        database memoizes its plans (:mod:`repro.engine.memo`).  Off
        by default.
    qerror_ceiling:
        Max per-operator q-error tolerated before the feedback loop
        reacts.  Must be > 1 (a ceiling of 1 would re-plan every
        imperfect estimate forever).
    query_store:
        Enable the Query Store: per-fingerprint runtime-stat intervals,
        full plan history, plan-regression detection and plan forcing,
        exposed as ``sys_query_store_*`` catalog tables and persisted
        by ``save_database``.  Off by default.
    """

    pool_pages: int = DEFAULT_POOL_PAGES
    optimizer: str = "cost"
    band_joins: bool = True
    rewrites: bool = True
    compiled_expressions: bool = True
    result_cache: bool = False
    cache_max_entries: int = DEFAULT_CACHE_MAX_ENTRIES
    feedback: bool = False
    qerror_ceiling: float = DEFAULT_QERROR_CEILING
    query_store: bool = False

    def __post_init__(self) -> None:
        if self.optimizer not in _OPTIMIZER_MODES:
            raise EngineError(
                f"unknown optimizer mode '{self.optimizer}'; "
                f"expected one of {_OPTIMIZER_MODES}"
            )
        if self.pool_pages <= 0:
            raise EngineError("pool_pages must be positive")
        if self.cache_max_entries <= 0:
            raise EngineError("cache_max_entries must be positive")
        if self.qerror_ceiling <= 1.0:
            raise EngineError("qerror_ceiling must be > 1")

    def replace(self, **changes) -> "EngineConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def check_live_change(self, new: "EngineConfig") -> None:
        """Raise unless ``new`` differs from this config only in
        :data:`PLANNING_KNOBS` — what ``db.config = new`` allows."""
        fixed = [
            f.name for f in dataclasses.fields(self)
            if f.name not in PLANNING_KNOBS
            and getattr(new, f.name) != getattr(self, f.name)
        ]
        if fixed:
            raise EngineError(
                f"{', '.join(fixed)} can only be set at construction: "
                "Database(name, config=EngineConfig(...))"
            )

    def plan_signature(self) -> str:
        """The planning-relevant knob set, as a stable string.

        Every statement fingerprint hashes it, so configs that plan
        differently never share a cached result, memoized plan,
        feedback history or Query Store entry.  It reads
        ``cost+rewrite+compiled`` by default; band joins on add nothing,
        so fingerprints saved before that knob was spelled here hold.
        """
        signature = self.optimizer
        if self.rewrites:
            signature += "+rewrite"
        if self.compiled_expressions:
            signature += "+compiled"
        if not self.band_joins:
            signature += "+nobandjoins"
        return signature


#: The all-defaults configuration, shared where no knob is overridden.
DEFAULT_ENGINE_CONFIG = EngineConfig()
