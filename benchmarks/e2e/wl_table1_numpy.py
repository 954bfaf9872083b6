"""``table1_numpy`` — the paper's Table 1: one node vs a 3-way partition.

Every op is one ``run_maxbcg`` on the whole sky followed by one
``run_partitioned(n_servers=3, backend="sequential")``.  All the work
is ``core.pipeline`` / ``spatial.zonejoin`` / ``cluster.*``; the SQL
front end (parser, rewriter, planner, caches) does nothing here, which
makes this the control row for every SQL-engine change.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import inputs
from harness import PassLog, batch_digest, p50, share, timed_section
from repro.cluster.executor import run_partitioned
from repro.cluster.partitioning import make_partitions
from repro.core.likelihood import filter_catalog
from repro.core.pipeline import MaxBCGPipeline, run_maxbcg
from repro.core.results import CandidateCatalog
from repro.skyserver.regions import RegionBox
from repro.spatial.zonejoin import zone_join
from repro.spatial.zones import ZoneIndex
from sizes import Table1Size, op_count

NAME = "table1_numpy"
TASKS = ("spZone", "fBCGCandidate", "fIsCluster")


def n_ops(size: Table1Size, seconds: float) -> int:
    return op_count(size.ops_per_second, seconds)


def setup(seed: int, size: Table1Size, clock) -> inputs.Sky:
    with clock.stage("core.kcorrection.build_s"):
        config, kcorr = inputs.make_kcorr(size.z_step)
    with clock.stage("skyserver.generator.gen_s"):
        catalog = inputs.make_catalog(
            seed, size.target, size.n_galaxies, size.cluster_share,
            config, kcorr,
        )
    return inputs.Sky(catalog, RegionBox(*size.target), config, kcorr, size)


def teardown(sky) -> None:
    pass


def counters(sky):
    """No shared pool to sample: every run builds a private Database."""
    return None


# ----------------------------------------------------------------------
# the op, untraced and traced
# ----------------------------------------------------------------------
def _one_node(sky):
    return run_maxbcg(
        sky.catalog, sky.target, sky.kcorr, sky.config,
        compute_members=False,
    )


def _answer(candidates: CandidateCatalog, clusters: CandidateCatalog) -> str:
    return batch_digest(candidates.as_columns()) + batch_digest(
        clusters.as_columns()
    )


def _record(log: PassLog, one, partition_stats, merged) -> None:
    """Fold one iteration's program-reported statistics into the log."""
    total = one.total_stats
    for task in TASKS:
        log.sample(f"{task}_s", one.stats[task].elapsed_s)
        log.sample(f"{task}_io", one.stats[task].io_ops)
    log.sample("logical_reads", total.io.logical_reads)
    log.sample("physical_reads", total.io.physical_reads)
    elapsed = [s.elapsed_s for s in partition_stats]
    log.sample("slowest_partition_s", max(elapsed))
    log.sample("imbalance", max(elapsed) / (sum(elapsed) / len(elapsed)))
    # the paper's aggregation rule: servers run side by side, so
    # elapsed is the slowest one while CPU and I/O add up
    log.sample("elapsed_ratio", max(elapsed) / total.elapsed_s)
    log.sample(
        "cpu_ratio", sum(s.cpu_s for s in partition_stats) / total.cpu_s
    )
    log.sample(
        "io_ratio", sum(s.io_ops for s in partition_stats) / total.io_ops
    )
    log.answers.append((
        (one.candidates, one.clusters),
        merged,
    ))


def _op_untraced(sky, log: PassLog) -> None:
    started = time.perf_counter()
    one = _one_node(sky)
    split = time.perf_counter()
    part = run_partitioned(
        sky.catalog, sky.target, sky.kcorr, sky.config,
        n_servers=sky.size.n_servers, compute_members=False,
        backend="sequential",
    )
    log.sample("partitioned_s", time.perf_counter() - split)
    log.op_s.append(split - started)
    _record(
        log, one, [run.total_stats for run in part.runs],
        (part.candidates, part.clusters),
    )


def _op_traced(sky, log: PassLog, tracer) -> None:
    """The same op with the harness calling each cluster stage itself."""
    with tracer.span("op"):
        with tracer.span("core.pipeline.run_maxbcg") as span:
            one = _one_node(sky)
        with tracer.span("cluster.partitioning.partition"):
            layout = make_partitions(
                sky.target, sky.config.buffer_deg, sky.size.n_servers
            )
            slices = [
                sky.catalog.select_region(p.imported)
                for p in layout.partitions
            ]
        results = []
        for partition, catalog in zip(layout.partitions, slices):
            with tracer.span("cluster.executor.partition"):
                results.append(
                    MaxBCGPipeline(
                        sky.kcorr, sky.config, compute_members=False
                    ).run(catalog, partition.target, partition.buffer)
                )
        with tracer.span("cluster.executor.merge"):
            candidates = CandidateCatalog.empty()
            clusters = CandidateCatalog.empty()
            for result in results:
                candidates = candidates.concat(result.candidates)
                clusters = clusters.concat(result.clusters)
            merged = (
                candidates.dedup_by_objid().sort_by_objid(),
                clusters.dedup_by_objid().sort_by_objid(),
            )
    log.op_s.append(span.duration)
    log.values["imported_rows"] = float(sum(len(c) for c in slices))
    _record(log, one, [r.total_stats for r in results], merged)


def _probe_kernels(sky, log: PassLog, tracer) -> None:
    """Time the two kernels the pipeline spends its time in, directly."""
    catalog, config, kcorr = sky.catalog, sky.config, sky.kcorr
    with tracer.span("core.likelihood.filter"):
        filtered = filter_catalog(
            catalog.i, catalog.gr, catalog.ri,
            catalog.sigmagr, catalog.sigmari, kcorr, config,
        )
    log.values["pass_share"] = share(filtered.n_passed, len(catalog))
    index = ZoneIndex(catalog.ra, catalog.dec, config.zone_height_deg)
    rows = filtered.passed_rows
    radius = np.where(
        filtered.pass_matrix, kcorr.radius[None, :], -np.inf
    ).max(axis=1)
    with tracer.span("spatial.zonejoin.zone_join"):
        zone_join(index, catalog.ra[rows], catalog.dec[rows], radius)


def run(sky, ops: int, tracer=None) -> PassLog:
    log = PassLog()
    for _ in range(sky.size.warmup_ops):
        _op_untraced(sky, PassLog())
    with timed_section(log):
        for op in range(ops):
            if tracer is None:
                _op_untraced(sky, log)
            else:
                tracer.op = op
                _op_traced(sky, log, tracer)
                _probe_kernels(sky, log, tracer)
            # every run builds Databases that die in reference cycles
            # (Database <-> Executor); without this they pile up until a
            # generation-2 collection happens to run, and peak memory
            # measures the collector's timing instead of the pipeline
            gc.collect()
    # every run owns a private Database, so the pool counters come from
    # the program's own per-task statistics, one-node runs only
    log.logical_reads = int(sum(log.samples["logical_reads"]))
    log.physical_reads = int(sum(log.samples["physical_reads"]))
    return log


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def corrupt(log: PassLog) -> None:
    """Damage one recorded answer; ``verify`` must notice."""
    (candidates, clusters), merged = log.answers[0]
    log.answers[0] = ((candidates, clusters.take(slice(1, None))), merged)


def verify(sky, log: PassLog) -> tuple[int, int]:
    """Partition union == one-node answer, and one digest throughout."""
    failed = 0
    first = None
    for (candidates, clusters), merged in log.answers:
        one = _answer(candidates, clusters)
        if first is None:
            first = one
        ok = (
            one == first
            and _answer(*merged) == one
            and len(clusters) > 0
        )
        failed += not ok
    return len(log.answers), failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def workload_metrics(sky, log: PassLog) -> dict[str, float]:
    return {
        "e2e.partition_elapsed_ratio": p50(log.samples["elapsed_ratio"]),
        "e2e.partition_cpu_ratio": p50(log.samples["cpu_ratio"]),
        "e2e.partition_io_ratio": p50(log.samples["io_ratio"]),
    }


def layer_metrics(sky, untraced: PassLog, traced: PassLog, tracer) -> dict:
    out = {}
    for task in TASKS:
        key = task.lower()
        out[f"core.pipeline.{key}_s"] = p50(traced.samples[f"{task}_s"])
        out[f"core.pipeline.{key}_io"] = p50(traced.samples[f"{task}_io"])
    out["spatial.zonejoin.zone_join_ms"] = 1e3 * p50(
        tracer.durations("spatial.zonejoin.zone_join")
    )
    out["core.likelihood.filter_ms"] = 1e3 * p50(
        tracer.durations("core.likelihood.filter")
    )
    out["core.likelihood.pass_share"] = traced.values["pass_share"]
    out["cluster.partitioning.partition_ms"] = 1e3 * p50(
        tracer.durations("cluster.partitioning.partition")
    )
    out["cluster.partitioning.skirt_share"] = (
        traced.values["imported_rows"] / len(sky.catalog) - 1.0
    )
    out["cluster.executor.slowest_partition_s"] = p50(
        traced.samples["slowest_partition_s"]
    )
    out["cluster.executor.imbalance"] = p50(traced.samples["imbalance"])
    return out
