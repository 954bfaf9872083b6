"""The traced replay of a SELECT: the harness calls each stage in turn.

``Database.sql`` is one call from outside, so the ``--trace`` run does
not go through it.  :func:`staged_select` walks the same path with the
public function of each layer — ``parse`` -> ``plan_fingerprint`` ->
``ResultCache.get`` -> ``Planner.plan_select`` -> ``plan.execute()`` ->
``ResultCache.put`` — under one span per call, so every stage's time
and counter deltas are measured where the work happens.  The cache key
is built exactly as ``Database.sql`` builds it, so the staged path hits
and misses on the same statements as the untraced one.

Stages that ``Database.sql`` runs nested inside another one (the
rewrite pass inside fingerprinting and again inside planning), or that
sit behind the feedback controller, cannot be reached on the path; they
are timed by :func:`probe_stages` outside the op instead.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Tracer, p50, share
from repro.engine.cache import plan_fingerprint
from repro.engine.optimizer.rewrite import rewrite_statement
from repro.engine.sql.executor import QueryResult
from repro.engine.sql.parser import parse
from repro.engine.sql.planner import Planner

STATEMENT = "engine.database.statement"
PARSE = "engine.sql.parser.parse"
REWRITE = "engine.optimizer.rewrite.rewrite_statement"
FINGERPRINT = "engine.cache.plan_fingerprint"
CACHE_GET = "engine.cache.get"
CACHE_PUT = "engine.cache.put"
PLAN = "engine.sql.planner.plan_select"
EXECUTE = "engine.sql.executor.execute"
FEEDBACK = "engine.optimizer.feedback.execute_select"
STORE = "obs.querystore.record"


def staged_select(db, text: str, tracer: Tracer) -> QueryResult:
    """One SELECT through the engine's stages, a span around each."""
    with tracer.span(STATEMENT):
        started = time.perf_counter()
        with tracer.span(PARSE):
            stmt = parse(text)
        cache, store = db.result_cache, db.query_store
        key = tables = None
        if cache is not None:
            with tracer.span(FINGERPRINT):
                keyed = plan_fingerprint(stmt, db)
            if keyed is not None:
                fingerprint, _, tables = keyed
                versions = db.table_versions(tables)
                key = (fingerprint, tuple(sorted(versions.items())))
                with tracer.span(CACHE_GET):
                    entry = cache.get(key)
                if entry is not None:
                    result = QueryResult(
                        columns=entry.columns,
                        plan="[answered from cache]\n" + entry.plan,
                    )
                    if store is not None:
                        with tracer.span(STORE):
                            store.record(
                                fingerprint=fingerprint,
                                sql="",
                                elapsed_s=time.perf_counter() - started,
                                rows=result.row_count,
                                decision="cache-hit",
                                cache_hit=True,
                            )
                    return result
        reads_before = db.pool.counters.logical_reads
        if db.feedback is not None:
            with tracer.span(FEEDBACK):
                result = db.feedback.execute_select(stmt, Planner(db))
        else:
            with tracer.span(PLAN):
                plan = Planner(db).plan_select(stmt)
            with tracer.span(EXECUTE):
                batch = plan.execute()
            result = QueryResult(
                columns=batch, plan=plan.explain(), plan_node=plan
            )
        if store is not None and result.fingerprint is not None:
            with tracer.span(STORE):
                store.record(
                    fingerprint=result.fingerprint,
                    sql=text.strip(),
                    elapsed_s=time.perf_counter() - started,
                    rows=result.row_count,
                    logical_reads=(
                        db.pool.counters.logical_reads - reads_before
                    ),
                    plan_text=result.plan,
                    plan_signature=db.config.plan_signature(),
                    decision=result.memo_decision,
                    plan_origin=result.plan_origin,
                    plan_node=result.plan_node,
                    memo_hit=result.memo_decision == "hit",
                )
        if key is not None:
            with tracer.span(CACHE_PUT):
                cache.put(key, result.columns, result.plan, tables)
        return result


def probe_stages(db, text: str, tracer: Tracer) -> None:
    """Time, off the op's path, the stages the path cannot isolate."""
    stmt = parse(text)
    with tracer.span(REWRITE):
        rewrite_statement(stmt, db, price=False)
    if db.result_cache is None:
        with tracer.span(FINGERPRINT):
            plan_fingerprint(stmt, db)
    if db.feedback is not None:
        with tracer.span(PLAN):
            Planner(db).plan_select(stmt)


class TracedDatabase:
    """Stands in for a ``Database`` where only ``sql`` is called.

    CasJobs runs a job with ``context.sql(job.query)``; registering
    this as the context routes that call through
    :func:`staged_select`, so a job's engine stages nest under the
    ``process_queue`` span that caused them.  While ``tracer`` is None
    (set-up, warm-up) it is the plain database.
    """

    def __init__(self, database):
        self.database = database
        self.tracer: Tracer | None = None

    def sql(self, text: str) -> QueryResult:
        if self.tracer is None:
            return self.database.sql(text)
        return staged_select(self.database, text, self.tracer)


# ----------------------------------------------------------------------
# metrics from the spans
# ----------------------------------------------------------------------
def front_end_metrics(
    tracer: Tracer, untraced_statement_s: list[float]
) -> dict[str, float]:
    """Per-stage p50s and what ``Database.sql`` spends outside them.

    ``untraced_statement_s`` are the whole-statement times of the same
    SELECTs, in the same order, from the untraced pass.  Each is paired
    with the sum of the stage spans of its traced twin; the median
    difference is the time ``Database.sql`` spends that no separately
    callable stage accounts for — glue, plus the rewrite and fingerprint
    work it repeats.
    """
    covered = tracer.covered()
    staged = [
        covered[span.span_id]
        for span in tracer.spans
        if span.name == STATEMENT
    ]
    if len(staged) != len(untraced_statement_s):
        raise ValueError(
            f"traced pass ran {len(staged)} SELECTs, untraced pass "
            f"{len(untraced_statement_s)}: the passes diverged"
        )
    gaps = [
        whole - stages
        for whole, stages in zip(untraced_statement_s, staged)
    ]
    return {
        "engine.sql.parser.parse_us_p50": 1e6 * p50(tracer.durations(PARSE)),
        "engine.optimizer.rewrite.rewrite_us_p50": 1e6 * p50(
            tracer.durations(REWRITE)
        ),
        "engine.cache.fingerprint_us_p50": 1e6 * p50(
            tracer.durations(FINGERPRINT)
        ),
        "engine.cache.get_us_p50": 1e6 * p50(tracer.durations(CACHE_GET)),
        "engine.sql.planner.plan_us_p50": 1e6 * p50(tracer.durations(PLAN)),
        "engine.database.unattributed_us_p50": 1e6 * p50(gaps),
    }


def cache_counts(db) -> np.ndarray:
    """The result cache's (hits, misses, evictions, invalidations)."""
    stats = db.result_cache.stats
    return np.array(
        [stats.hits, stats.misses, stats.evictions, stats.invalidations]
    )


def cache_metrics(delta: np.ndarray) -> dict[str, float]:
    """Cache metrics over a pass, from two :func:`cache_counts` readings."""
    hits, misses, evictions, invalidations = (int(n) for n in delta)
    return {
        "engine.cache.hit_rate": share(hits, hits + misses),
        "engine.cache.evictions": evictions,
        "engine.cache.invalidations": invalidations,
    }


def page_metrics(tracer: Tracer) -> dict[str, float]:
    """Buffer-pool reads per op, from the counter deltas of the op spans."""
    ops = [span for span in tracer.spans if span.name == "op"]
    logical = sum(span.counters.get("logical_reads", 0) for span in ops)
    physical = sum(span.counters.get("physical_reads", 0) for span in ops)
    return {
        "engine.pages.logical_reads": logical / len(ops),
        "engine.pages.physical_reads": physical / len(ops),
        "engine.pages.pool_hit_rate": 1.0 - share(physical, logical),
    }


#: EXPLAIN ANALYZE node descriptions -> the per-operator metric they feed.
_OPERATOR_METRICS = (
    ("SeqScan", "engine.operators.scan_ms"),
    ("IndexRangeScan", "engine.operators.scan_ms"),
    ("IndexSeek", "engine.operators.scan_ms"),
    ("Filter", "engine.operators.filter_ms"),
    ("Aggregate", "engine.operators.aggregate_ms"),
    ("Sort", "engine.operators.sort_ms"),
    ("BandJoin", "engine.join.band_ms"),
    ("HashJoin", "engine.join.hash_ms"),
    ("NestedLoopJoin", "engine.join.nested_ms"),
)


def operator_breakdown(reports, repeats: int) -> dict[str, float]:
    """Self time per operator class, per run of the reported statements.

    ``reports`` holds ``repeats`` ``explain_analyze`` reports of each
    statement; times are averaged over the repeats.

    Node timings are inclusive; a node's self time is its own minus its
    direct children's (the next-deeper nodes before the tree returns to
    its depth).  Rows examined are the rows scan leaves produced.
    """
    totals = {metric: 0.0 for _, metric in _OPERATOR_METRICS}
    examined = returned = 0
    for report in reports:
        nodes = report.nodes
        returned += report.row_count
        for position, node in enumerate(nodes):
            below = 0.0
            for later in nodes[position + 1:]:
                if later.depth <= node.depth:
                    break
                if later.depth == node.depth + 1:
                    below += later.inclusive_s
            for prefix, metric in _OPERATOR_METRICS:
                if node.description.startswith(prefix):
                    totals[metric] += (
                        1e3 * (node.inclusive_s - below) / repeats
                    )
                    if metric == "engine.operators.scan_ms":
                        examined += node.rows
                    break
    totals["engine.operators.rows_examined_per_row_returned"] = (
        examined / returned if returned else 0.0
    )
    return totals
