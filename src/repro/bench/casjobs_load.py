"""Heavy-traffic CasJobs workload: many users, both queue classes.

The ROADMAP's north star is "heavy traffic from millions of users";
this module is the measuring stick.  It stands up one CasJobs site
hosting a synthetic catalog context, registers ``n_users`` users, and
fires ``n_jobs`` real SQL jobs at the scheduler — a mix of quick
(single-pass filter/count) and long (group/aggregate/sort over the
whole table) queries — while the service runs in the background.  The
report carries throughput, per-class p50/p95 wait and run latency, and
fairness across users and classes.

Used three ways: the scheduler stress and cache A/B tests in
``tests/test_casjobs_scheduler.py``, ``repro casjobs serve`` (the CLI
front door), and the TUTORIAL's section 9.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.casjobs.queue import JobStatus, QueueClass
from repro.casjobs.scheduler import SchedulerConfig, SchedulerStats
from repro.casjobs.server import CasJobsService
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import CasJobsError, QueueFullError, QuotaExceededError


@dataclass
class LoadSpec:
    """One load experiment, fully seeded."""

    n_users: int = 10
    n_jobs: int = 120
    quick_fraction: float = 0.4  # share of jobs on the quick queue
    workers: int = 4
    pool: str = "threads"
    quick_weight: int = 3
    long_weight: int = 1
    per_user_limit: int = 2
    high_water: int | None = None
    timeout_s: float | None = None
    max_retries: int = 1
    catalog_rows: int = 20_000
    seed: int = 2005
    spool_every: int = 5  # every Nth job spools INTO MyDB
    #: Enable the shared semantic result cache on the catalog context
    #: (every user's repeated query is answered from the first run).
    result_cache: bool = False
    #: >0 draws jobs zipfian from a fixed pool of this many distinct
    #: queries (popularity ∝ 1/rank^``zipf_s``) — the "millions of
    #: users re-run the same cone searches" traffic shape.  0 keeps the
    #: original fresh-random-query behavior.
    zipf_queries: int = 0
    zipf_s: float = 1.1

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(
            pool=self.pool,
            max_workers=self.workers,
            quick_weight=self.quick_weight,
            long_weight=self.long_weight,
            per_user_limit=self.per_user_limit,
            high_water=self.high_water,
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
        )

    def engine_config(self) -> EngineConfig:
        """Engine knobs for the shared catalog context."""
        return EngineConfig(result_cache=self.result_cache)


@dataclass
class LoadReport:
    """What one :func:`run_load` measured."""

    spec: LoadSpec
    stats: SchedulerStats
    wall_s: float
    finished: int
    failed: int
    shed: int
    per_user_finished: dict[str, int]
    per_class_submitted: dict[QueueClass, int] = field(default_factory=dict)
    quota_rejected: int = 0  # refused at admission: MyDB already at quota
    #: Result-cache counters of the catalog context (empty = cache off).
    cache: dict[str, float] = field(default_factory=dict)

    @property
    def accepted(self) -> int:
        """Submissions that became jobs (not shed, not quota-refused)."""
        return sum(self.per_class_submitted.values())

    @property
    def throughput_jobs_s(self) -> float:
        return self.stats.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def user_fairness(self) -> float:
        """Jain's fairness index over per-user finished counts (1 = even)."""
        counts = np.asarray(list(self.per_user_finished.values()), dtype=float)
        if counts.size == 0 or counts.sum() == 0:
            return 1.0
        return float(counts.sum() ** 2 / (counts.size * (counts**2).sum()))

    def latency_rows(self) -> list[list]:
        rows = []
        for cls in QueueClass:
            rows.append([
                cls.value,
                self.per_class_submitted.get(cls, 0),
                round(self.stats.p50_wait(cls) * 1e3, 2),
                round(self.stats.p95_wait(cls) * 1e3, 2),
                round(self.stats.p50_run(cls) * 1e3, 2),
                round(self.stats.p95_run(cls) * 1e3, 2),
            ])
        return rows

    def render(self) -> str:
        from repro.bench.reporting import format_table

        lines = [
            format_table(
                f"casjobs load: {self.spec.n_jobs} jobs, "
                f"{self.spec.n_users} users, {self.spec.workers} workers "
                f"({self.spec.pool})",
                ["class", "jobs", "p50 wait ms", "p95 wait ms",
                 "p50 run ms", "p95 run ms"],
                self.latency_rows(),
            ),
            "",
            f"wall {self.wall_s:.3f} s  "
            f"throughput {self.throughput_jobs_s:,.1f} jobs/s  "
            f"finished {self.finished}  failed {self.failed}  "
            f"shed {self.shed}  quota-refused {self.quota_rejected}",
            f"user fairness (Jain) {self.user_fairness:.3f}  "
            f"dead-lettered {self.stats.dead_lettered}  "
            f"retries {self.stats.retries}",
        ]
        if self.cache:
            lines.append(
                f"result cache: hits {self.cache.get('hits', 0):.0f}  "
                f"misses {self.cache.get('misses', 0):.0f}  "
                f"hit rate {self.cache.get('hit_rate', 0.0):.1%}  "
                f"evictions {self.cache.get('evictions', 0):.0f}  "
                f"invalidations {self.cache.get('invalidations', 0):.0f}"
            )
        return "\n".join(lines)


def build_demo_catalog(
    rows: int, seed: int, engine_config: EngineConfig | None = None
) -> Database:
    """A seeded synthetic catalog database (the shared ``dr1`` context)."""
    rng = np.random.default_rng(seed)
    catalog = (
        Database("dr1")
        if engine_config is None
        else Database("dr1", config=engine_config)
    )
    catalog.create_table(
        "galaxy",
        {
            "objid": np.arange(rows, dtype=np.int64),
            "ra": rng.uniform(180.0, 190.0, rows),
            "dec": rng.uniform(-5.0, 5.0, rows),
            "i": rng.uniform(14.0, 22.0, rows),
            "z": rng.uniform(0.05, 0.35, rows),
            "stripe": rng.integers(0, 12, rows),
        },
        primary_key="objid",
    )
    return catalog


def build_demo_site(
    spec: LoadSpec, scheduler_config: SchedulerConfig | None = None
) -> CasJobsService:
    """One site hosting a seeded synthetic catalog context ``dr1``."""
    service = CasJobsService(
        "bench",
        scheduler_config or spec.scheduler_config(),
        engine_config=spec.engine_config(),
    )
    service.add_context(
        "dr1",
        build_demo_catalog(spec.catalog_rows, spec.seed,
                           engine_config=spec.engine_config()),
    )
    for user in (f"user{u:02d}" for u in range(spec.n_users)):
        service.register_user(user)
    return service


def _zipf_weights(n: int, s: float) -> np.ndarray:
    """Popularity ∝ 1/rank^s, normalized."""
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


def build_query_pool(spec: LoadSpec) -> list[tuple[str, QueueClass]]:
    """The fixed query pool a zipfian run draws from (fully seeded)."""
    rng = np.random.default_rng(spec.seed + 7)
    pool: list[tuple[str, QueueClass]] = []
    for _ in range(spec.zipf_queries):
        quick = rng.random() < spec.quick_fraction
        query = _quick_query(rng) if quick else _long_query(rng)
        pool.append(
            (query, QueueClass.QUICK if quick else QueueClass.LONG)
        )
    return pool


def results_digest(service: CasJobsService) -> str:
    """Order-independent digest of every finished job's (query, answer).

    Byte-identical across cache-on and cache-off runs of the same spec:
    the differential check that caching never changes an answer.
    """
    parts = []
    for job in service.queue.jobs():
        if job.status is not JobStatus.FINISHED or job.result is None:
            continue
        digest = hashlib.sha256(job.query.encode())
        for name in job.result.column_names:
            arr = np.asarray(job.result.columns[name])
            digest.update(name.encode())
            if arr.dtype == object:
                digest.update(
                    "\x00".join(str(v) for v in arr.tolist()).encode()
                )
            else:
                digest.update(arr.tobytes())
        parts.append(digest.hexdigest())
    return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()


def _quick_query(rng: np.random.Generator) -> str:
    """Single-pass filter + count: the interactive-grade shape."""
    cut = rng.uniform(15.0, 21.0)
    return f"SELECT COUNT(*) AS n, AVG(i) AS mean_i FROM galaxy WHERE i < {cut:.3f}"


def _long_query(rng: np.random.Generator) -> str:
    """Whole-table group/aggregate/sort: the batch-grade shape."""
    zcut = rng.uniform(0.1, 0.3)
    return (
        "SELECT stripe, COUNT(*) AS n, AVG(i) AS mean_i, MIN(z) AS zmin, "
        f"MAX(z) AS zmax FROM galaxy WHERE z < {zcut:.3f} "
        "GROUP BY stripe ORDER BY stripe"
    )


def run_load(
    spec: LoadSpec, service: CasJobsService | None = None
) -> LoadReport:
    """Fire the workload at a (background-serving) site and measure it."""
    service = service or build_demo_site(spec)
    rng = np.random.default_rng(spec.seed + 1)
    users = [f"user{u:02d}" for u in range(spec.n_users)]
    per_class: dict[QueueClass, int] = {cls: 0 for cls in QueueClass}
    shed = 0
    quota_rejected = 0
    pool_queries = build_query_pool(spec) if spec.zipf_queries else None
    pool_weights = (
        _zipf_weights(spec.zipf_queries, spec.zipf_s)
        if pool_queries is not None
        else None
    )

    service.serve()
    began = time.perf_counter()
    try:
        for k in range(spec.n_jobs):
            user = users[int(rng.integers(0, len(users)))]
            if pool_queries is not None:
                query, cls = pool_queries[
                    int(rng.choice(len(pool_queries), p=pool_weights))
                ]
            else:
                quick = rng.random() < spec.quick_fraction
                cls = QueueClass.QUICK if quick else QueueClass.LONG
                query = _quick_query(rng) if quick else _long_query(rng)
            output = (
                f"spool_{k}" if spec.spool_every and k % spec.spool_every == 0
                else None
            )
            try:
                service.submit(user, query, "dr1", output_table=output,
                               queue_class=cls)
            except QueueFullError:
                shed += 1
                continue
            except QuotaExceededError:
                quota_rejected += 1
                continue
            per_class[cls] += 1
        service.shutdown(drain=True, timeout_s=120.0)
    finally:
        if service.scheduler.serving:
            service.shutdown(drain=False)
    wall = time.perf_counter() - began

    finished_per_user = {
        user: sum(
            1
            for job in service.queue.jobs_of(user)
            if job.status is JobStatus.FINISHED
        )
        for user in users
    }
    stats = service.scheduler.stats
    cache_summary: dict[str, float] = {}
    try:
        context_db = service.context("dr1")
        if context_db.result_cache is not None:
            cache_summary = context_db.result_cache.summary()
    except CasJobsError:
        pass
    return LoadReport(
        spec=spec,
        stats=stats,
        wall_s=wall,
        finished=stats.finished,
        failed=stats.failed,
        shed=shed,
        per_user_finished=finished_per_user,
        per_class_submitted=per_class,
        quota_rejected=quota_rejected,
        cache=cache_summary,
    )


@dataclass
class CacheComparison:
    """The same zipfian workload run twice: cache off, then cache on."""

    off: LoadReport
    on: LoadReport
    digest_off: str
    digest_on: str

    @property
    def identical(self) -> bool:
        """Did caching change any answer byte?  (It must not.)"""
        return self.digest_off == self.digest_on


def run_zipf_cache_comparison(spec: LoadSpec) -> CacheComparison:
    """A/B the cache on one zipfian workload; checks answers byte-match.

    Spooling is disabled for both runs so the workload is pure reads
    and the two job ledgers are comparable query-for-query.
    """
    import dataclasses

    if not spec.zipf_queries:
        raise ValueError(
            "run_zipf_cache_comparison needs spec.zipf_queries > 0"
        )
    base = dataclasses.replace(spec, spool_every=0)
    service_off = build_demo_site(
        dataclasses.replace(base, result_cache=False)
    )
    off = run_load(dataclasses.replace(base, result_cache=False),
                   service=service_off)
    digest_off = results_digest(service_off)
    service_on = build_demo_site(
        dataclasses.replace(base, result_cache=True)
    )
    on = run_load(dataclasses.replace(base, result_cache=True),
                  service=service_on)
    digest_on = results_digest(service_on)
    return CacheComparison(
        off=off, on=on, digest_off=digest_off, digest_on=digest_on
    )


def check_no_lost_or_duplicated(service: CasJobsService, submitted: int) -> None:
    """Invariant: every submitted job is terminal exactly once.

    Raised as :class:`CasJobsError` on violation; the stress test and
    ``repro casjobs serve`` both call this after a run.
    """
    jobs = service.queue.jobs()
    if len(jobs) != submitted:
        raise CasJobsError(
            f"job ledger has {len(jobs)} entries for {submitted} submissions"
        )
    ids = [j.job_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise CasJobsError("duplicate job ids in the ledger")
    non_terminal = [j.job_id for j in jobs if not j.status.is_terminal]
    if non_terminal:
        raise CasJobsError(
            f"{len(non_terminal)} jobs not terminal after drain: "
            f"{non_terminal[:10]}"
        )
    if service.queue.pending_count() != 0:
        raise CasJobsError("pending queue not empty after drain")
