"""``casjobs_zipf`` — many users re-running a zipfian query mix.

One op is ``submit`` -> ``process_queue`` -> ``fetch`` on a
``CasJobsService`` with a sequential pool and the service-default
``EngineConfig(result_cache=True)`` context.  Jobs are drawn zipf(s)
from a pool of distinct quick/long queries several times larger than
the result cache, so most jobs hit (p50 = parse + fingerprint + cache
copy + queue bookkeeping: front-end overhead) and the tail misses
(p95 = a scan): front-end layers do most of the work, operators little.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import stages
from harness import PassLog, batch_digest, p50, share, timed_section
from repro.casjobs.queue import QueueClass
from repro.casjobs.scheduler import SchedulerConfig
from repro.casjobs.server import CasJobsService
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.spatial.zones import zone_id
from sizes import CasJobsSize, op_count

NAME = "casjobs_zipf"
CONTEXT = "dr1"
#: The sky the catalog context is generated over (T + 2 buffers).
TARGET = (180.0, 183.0, 0.0, 3.0)
Z_STEP = 0.005


@dataclass
class State:
    size: CasJobsSize
    seed: int
    columns: dict[str, np.ndarray]
    db: Database
    service: CasJobsService
    users: list[str]
    #: Distinct queries by popularity rank: (sql, queue class).
    queries: list[tuple[str, QueueClass]]
    #: rank -> digest of the answer a cache-off database gives.
    reference: dict[int, str] = field(default_factory=dict)


def n_ops(size: CasJobsSize, seconds: float) -> int:
    return op_count(size.ops_per_second, seconds)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _query_pool(
    rng: np.random.Generator, size: CasJobsSize, zone_lo: int, zone_hi: int
) -> list[tuple[str, QueueClass]]:
    """``distinct_queries`` different statements, by popularity rank.

    The statement *shape* is a fixed function of the rank (three quick
    for every long one, cycling); the seed only draws the constants, so
    which kind of query is popular does not change from seed to seed.
    """
    seen: set[str] = set()
    pool: list[tuple[str, QueueClass]] = []
    ra_lo, ra_hi = TARGET[0] - 1.0, TARGET[1] + 1.0
    while len(pool) < size.distinct_queries:
        shape = len(pool) % 4
        if shape in (0, 2):
            zone = int(rng.integers(zone_lo, zone_hi - 24))
            ra = round(float(rng.uniform(ra_lo, ra_hi - 0.3)), 3)
            sql = (
                "SELECT objid, ra, dec FROM galaxy "
                f"WHERE zoneid BETWEEN {zone} AND {zone + 24} "
                f"AND ra BETWEEN {ra} AND {round(ra + 0.3, 3)}"
            )
        elif shape == 1:
            mag = round(float(rng.uniform(17.0, 20.5)), 3)
            colour = round(float(rng.uniform(0.2, 1.4)), 3)
            sql = (
                "SELECT COUNT(*) AS c FROM galaxy "
                f"WHERE i < {mag} AND gr > {colour}"
            )
        elif len(pool) % 8 == 3:
            colour = round(float(rng.uniform(0.0, 0.6)), 3)
            sql = (
                "SELECT FLOOR(i) AS ibin, COUNT(*) AS n, AVG(gr) AS mean_gr "
                f"FROM galaxy WHERE ri > {colour} "
                "GROUP BY FLOOR(i) ORDER BY ibin"
            )
        else:
            lo = round(float(rng.uniform(0.8, 1.4)), 3)
            sql = (
                "SELECT objid, ra, dec, i FROM galaxy "
                f"WHERE gr BETWEEN {lo} AND {round(lo + 0.02, 3)} "
                "AND ri BETWEEN 0.4 AND 0.6 ORDER BY i"
            )
        if sql not in seen:
            seen.add(sql)
            pool.append(
                (sql, QueueClass.LONG if shape == 3 else QueueClass.QUICK)
            )
    return pool


def _load(db: Database, columns: dict[str, np.ndarray]) -> None:
    db.create_table("galaxy", columns, primary_key="objid")


def _make_service(context, size: CasJobsSize) -> tuple[CasJobsService, list]:
    service = CasJobsService(
        "bench",
        SchedulerConfig(pool="sequential", max_workers=1),
        engine_config=EngineConfig(result_cache=True),
    )
    service.add_context(CONTEXT, context)
    users = [f"user{u:02d}" for u in range(size.n_users)]
    for user in users:
        service.register_user(user)
    return service, users


def setup(seed: int, size: CasJobsSize, clock) -> State:
    with clock.stage("core.kcorrection.build_s"):
        config, kcorr = inputs.make_kcorr(Z_STEP)
    with clock.stage("skyserver.generator.gen_s"):
        catalog = inputs.make_catalog(
            seed, TARGET, size.n_rows, size.cluster_share, config, kcorr
        )
    columns = catalog.as_columns()
    zones = zone_id(catalog.dec, config.zone_height_deg)
    columns = {"objid": columns.pop("objid"), "zoneid": zones, **columns}
    db = Database(CONTEXT, config=EngineConfig(
        result_cache=True,
        cache_max_entries=size.cache_entries,
        pool_pages=size.pool_pages,
    ))
    with clock.stage("engine.table.load_s"):
        _load(db, columns)
    with clock.stage("engine.index.build_s"):
        db.create_clustered_index("galaxy", "zoneid", "ra")
    with clock.stage("engine.optimizer.statistics.analyze_s"):
        db.analyze()
    service, users = _make_service(db, size)
    queries = _query_pool(
        np.random.default_rng([seed, 2]), size,
        int(zones.min()), int(zones.max()),
    )
    return State(size, seed, columns, db, service, users, queries)


def teardown(state: State) -> None:
    state.service.scheduler.close()


def counters(state: State):
    io, cache = state.db.pool.counters, state.db.result_cache.stats

    def read() -> dict[str, int]:
        return {
            "logical_reads": io.logical_reads,
            "physical_reads": io.physical_reads,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }

    return read


# ----------------------------------------------------------------------
# the op
# ----------------------------------------------------------------------
def _job_untraced(service, user, sql, queue_class, log: PassLog):
    started = time.perf_counter()
    job = service.submit(user, sql, context=CONTEXT, queue_class=queue_class)
    service.process_queue()
    result = service.fetch(user, job.job_id)
    log.op_s.append(time.perf_counter() - started)
    log.sample("statement_s", job.run_seconds)
    return result


def _job_traced(service, user, sql, queue_class, log: PassLog, tracer):
    with tracer.span("op") as op:
        with tracer.span("casjobs.server.submit"):
            job = service.submit(
                user, sql, context=CONTEXT, queue_class=queue_class
            )
        with tracer.span("casjobs.server.process_queue") as pumped:
            service.process_queue()
        with tracer.span("casjobs.server.fetch"):
            result = service.fetch(user, job.job_id)
    log.op_s.append(op.duration)
    log.sample("dispatch_s", pumped.duration - job.run_seconds)
    log.sample(f"run_s.{queue_class.value}", job.run_seconds)
    log.sample("outside_run_s", op.duration - job.run_seconds)
    return result


def run(state: State, ops: int, tracer=None) -> PassLog:
    log = PassLog()
    size, service, users = state.size, state.service, state.users
    warmup = int(round(ops * size.warmup_share))
    # every rank occurs as often as its zipf weight says; the seed only
    # shuffles the order, so hit rate and scan count barely move
    ranks = inputs.shuffled(
        np.random.default_rng([state.seed, 3]),
        inputs.apportion(
            inputs.zipf_weights(size.distinct_queries, size.zipf_s),
            warmup + ops,
        ),
    )
    traced_db = None
    if tracer is not None:
        # same database, same cache; only the context's sql() is routed
        # through the staged replay
        traced_db = stages.TracedDatabase(state.db)
        service, users = _make_service(traced_db, size)
    for n in range(warmup):
        sql, queue_class = state.queries[ranks[n]]
        _job_untraced(
            service, users[n % len(users)], sql, queue_class, PassLog()
        )
    cache_before = stages.cache_counts(state.db)
    if traced_db is not None:
        traced_db.tracer = tracer
    with timed_section(log, state.db.pool.counters):
        for n in range(warmup, warmup + ops):
            rank = int(ranks[n])
            sql, queue_class = state.queries[rank]
            user = users[n % len(users)]
            if tracer is None:
                result = _job_untraced(service, user, sql, queue_class, log)
            else:
                tracer.op = n - warmup
                result = _job_traced(
                    service, user, sql, queue_class, log, tracer
                )
                stages.probe_stages(state.db, sql, tracer)
            log.answers.append((rank, result.columns))
    log.values["cache"] = stages.cache_counts(state.db) - cache_before
    if traced_db is not None:
        service.scheduler.close()
    return log


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def _reference(state: State, ranks) -> None:
    """Digest each drawn query's answer on a cache-off twin database."""
    missing = sorted(set(ranks) - set(state.reference))
    if not missing:
        return
    twin = Database("reference")
    _load(twin, state.columns)
    twin.create_clustered_index("galaxy", "zoneid", "ra")
    twin.analyze()
    for rank in missing:
        state.reference[rank] = batch_digest(
            twin.sql(state.queries[rank][0]).columns
        )


def corrupt(log: PassLog) -> None:
    """Damage one recorded answer; ``verify`` must notice."""
    rank, columns = log.answers[0]
    name = next(iter(columns))
    log.answers[0] = (rank, {**columns, name: np.asarray(columns[name]) + 1})


def verify(state: State, log: PassLog) -> tuple[int, int]:
    _reference(state, [rank for rank, _ in log.answers])
    failed = sum(
        batch_digest(columns) != state.reference[rank]
        for rank, columns in log.answers
    )
    return len(log.answers), failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def workload_metrics(state: State, log: PassLog) -> dict[str, float]:
    return {}


def layer_metrics(
    state: State, untraced: PassLog, traced: PassLog, tracer
) -> dict[str, float]:
    out = stages.front_end_metrics(tracer, untraced.samples["statement_s"])
    out.update(stages.cache_metrics(traced.values["cache"]))
    out["casjobs.server.submit_us_p50"] = 1e6 * p50(
        tracer.durations("casjobs.server.submit")
    )
    out["casjobs.scheduler.dispatch_us_p50"] = 1e6 * p50(
        traced.samples["dispatch_s"]
    )
    for queue_class in QueueClass:
        out[f"casjobs.scheduler.run_ms_p50.{queue_class.value}"] = 1e3 * p50(
            traced.samples.get(f"run_s.{queue_class.value}", [])
        )
    out["casjobs.scheduler.overhead_share"] = share(
        sum(traced.samples["outside_run_s"]), sum(traced.op_s)
    )
    out.update(stages.page_metrics(tracer))
    return out
