"""Command-line interface: ``repro <subcommand>``.

Gives the reproduction a front door a downstream user can drive without
writing Python:

* ``repro run``        — generate a synthetic sky and run MaxBCG;
* ``repro partition``  — the Section 2.4 cluster run + union invariant;
* ``repro compare``    — the headline TAM-vs-SQL comparison;
* ``repro sql``        — execute a SQL script against a demo database
  with the MaxBCG application installed;
* ``repro analyze``    — EXPLAIN ANALYZE a SELECT on that database;
* ``repro explain``    — show a SELECT's plan with optimizer row
  estimates; ``--analyze`` also executes it and reports per-operator
  est vs actual rows and q-error;
* ``repro workloads``  — list the benchmark workloads;
* ``repro casjobs``    — the multi-user batch service: ``serve`` a
  heavy-traffic demo workload through the scheduler, ``submit`` one
  query end-to-end, ``status`` a mixed workload's job ledger;
* ``repro trace``      — run a MaxBCG job through the full stack
  (CasJobs scheduler -> cluster backend -> engine) with tracing on and
  export the spans as a Chrome ``trace_event`` file (Perfetto), JSONL,
  or a text tree;
* ``repro metrics``    — run the same demo pipeline and dump the
  process-wide metrics registry;
* ``repro memo``       — repeat a SELECT against the demo database with
  the adaptive feedback optimizer on and show the plan-memo decisions,
  learned overrides and q-error trajectory;
* ``repro querystore`` — run a shifted workload with the Query Store
  on, report the recorded plan history and regression verdicts, and
  (``--demo``) walk plan forcing end-to-end with invariant checks.

Every subcommand prints a compact text report; exit code 0 on success,
1 when an invariant or shape check fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from repro.core.config import MaxBCGConfig
from repro.core.kcorrection import build_kcorrection_table
from repro.core.pipeline import run_maxbcg
from repro.skyserver.generator import SkyConfig, SkySimulator
from repro.skyserver.regions import RegionBox


def _region(text: str) -> RegionBox:
    """Parse 'ra_min,ra_max,dec_min,dec_max'."""
    try:
        ra_min, ra_max, dec_min, dec_max = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected ra_min,ra_max,dec_min,dec_max — got '{text}'"
        ) from exc
    return RegionBox(ra_min, ra_max, dec_min, dec_max)


def _engine_flags() -> argparse.ArgumentParser:
    """Shared engine flags (one parent parser, not N copies).

    Used by ``sql``/``explain``/``analyze``/``partition``/``casjobs`` so
    the flags spell and behave identically everywhere.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--optimizer", choices=("cost", "syntactic"),
                        default="cost", help="planner mode")
    parent.add_argument("--backend",
                        choices=("sequential", "threads", "processes"),
                        default=None,
                        help="cluster execution backend (partition): "
                        "sequential models the paper's separate machines "
                        "(elapsed = max over servers); threads/processes "
                        "really run concurrently and report measured "
                        "wall-clock")
    parent.add_argument("--cache", action="store_true",
                        help="enable the shared semantic result cache "
                        "(repeated identical queries answered without "
                        "re-execution)")
    parent.add_argument("--rewrites", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="logical query-rewrite pass between parse and "
                        "plan (--no-rewrites restores the unrewritten "
                        "plans; EXPLAIN lists fired rules)")
    parent.add_argument("--feedback", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="adaptive feedback optimizer: fold executed "
                        "actuals back into the cardinality estimates "
                        "(re-plan when max q-error exceeds the ceiling); "
                        "plans are memoized with or without it")
    parent.add_argument("--qerror-ceiling", type=float, default=None,
                        metavar="Q",
                        help="max q-error tolerated before the feedback "
                        "loop re-analyzes and re-plans (default 8)")
    parent.add_argument("--query-store", action="store_true",
                        help="record per-statement workload history, plan "
                        "changes and runtime stats in the Query Store "
                        "(queryable as sys_query_store_* tables)")
    parent.add_argument("--compiled", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="fused expression kernels (CSE, short-circuit "
                        "conjunction over selection vectors, late "
                        "materialization; --no-compiled restores the "
                        "interpreted expression walk — results are "
                        "byte-identical either way)")
    return parent


def _engine_config(args):
    """Build the :class:`~repro.engine.config.EngineConfig` the shared
    flags describe."""
    from repro.engine.config import DEFAULT_QERROR_CEILING, EngineConfig

    return EngineConfig(
        optimizer=getattr(args, "optimizer", "cost"),
        result_cache=bool(getattr(args, "cache", False)),
        rewrites=bool(getattr(args, "rewrites", True)),
        feedback=bool(getattr(args, "feedback", False)),
        qerror_ceiling=(getattr(args, "qerror_ceiling", None)
                        or DEFAULT_QERROR_CEILING),
        query_store=bool(getattr(args, "query_store", False)),
        compiled_expressions=bool(getattr(args, "compiled", True)),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'When Database Systems Meet the Grid' "
        "(CIDR 2005): MaxBCG on a relational engine vs a file-based grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_flags = _engine_flags()

    def add_common(p):
        p.add_argument("--target", type=_region,
                       default=RegionBox(180.0, 182.0, 0.0, 2.0),
                       help="target box: ra_min,ra_max,dec_min,dec_max")
        p.add_argument("--density", type=float, default=700.0,
                       help="field galaxies per deg^2")
        p.add_argument("--clusters", type=float, default=10.0,
                       help="injected clusters per deg^2")
        p.add_argument("--seed", type=int, default=2005)
        p.add_argument("--z-step", type=float, default=0.005,
                       help="k-correction grid step (paper SQL: 0.001)")

    run_p = sub.add_parser("run", help="single-node MaxBCG over a synthetic sky")
    add_common(run_p)
    run_p.add_argument("--method", choices=("vectorized", "cursor"),
                       default="vectorized")
    run_p.add_argument("--members", action="store_true",
                       help="also retrieve cluster members")

    part_p = sub.add_parser("partition",
                            help="partitioned cluster run (Section 2.4)",
                            parents=[engine_flags])
    add_common(part_p)
    part_p.add_argument("--servers", type=int, default=3)

    cmp_p = sub.add_parser("compare", help="TAM (file-based) vs SQL pipeline")
    add_common(cmp_p)

    sql_p = sub.add_parser("sql", help="run SQL against a demo database",
                           parents=[engine_flags])
    add_common(sql_p)
    group = sql_p.add_mutually_exclusive_group(required=True)
    group.add_argument("-e", "--execute", help="one SQL statement")
    group.add_argument("--script", help="path to a ;-separated SQL script")

    analyze_p = sub.add_parser(
        "analyze", help="EXPLAIN ANALYZE a SELECT against the demo database",
        parents=[engine_flags],
    )
    add_common(analyze_p)
    analyze_p.add_argument("-e", "--execute", required=True,
                           help="SELECT statement to analyze")

    explain_p = sub.add_parser(
        "explain",
        help="show a SELECT's plan (with row estimates) on the demo database",
        parents=[engine_flags],
    )
    add_common(explain_p)
    explain_p.add_argument("sql", help="SELECT statement to plan")
    explain_p.add_argument("--analyze", action="store_true",
                           help="also execute and report est vs actual rows "
                           "with per-operator q-error")
    explain_p.add_argument("--no-stats", action="store_true",
                           help="skip the ANALYZE pass (plan without "
                           "statistics)")

    sub.add_parser("workloads", help="list the benchmark workloads")

    cas_p = sub.add_parser(
        "casjobs", help="the CasJobs multi-user batch service (demo site)"
    )
    cas_sub = cas_p.add_subparsers(dest="casjobs_command", required=True)

    serve_p = cas_sub.add_parser(
        "serve", help="serve a heavy-traffic workload through the scheduler",
        parents=[engine_flags],
    )
    serve_p.add_argument("--workers", type=int, default=4, metavar="N",
                         help="scheduler pool workers")
    serve_p.add_argument("--users", type=int, default=12)
    serve_p.add_argument("--jobs", type=int, default=150)
    serve_p.add_argument("--quick-frac", type=float, default=0.4,
                         help="share of jobs on the quick queue")
    serve_p.add_argument("--pool", choices=("sequential", "threads"),
                         default="threads",
                         help="worker pool the scheduler drains through")
    serve_p.add_argument("--high-water", type=int, default=None,
                         help="pending depth that sheds new submissions")
    serve_p.add_argument("--zipf", type=int, default=0, metavar="Q",
                         help="draw jobs zipfian from a pool of Q distinct "
                         "queries (0 = fresh random queries, the default)")
    serve_p.add_argument("--seed", type=int, default=2005)

    submit_p = cas_sub.add_parser(
        "submit", help="submit one query end-to-end on a demo site",
        parents=[engine_flags],
    )
    submit_p.add_argument("-e", "--execute", required=True,
                          help="SQL to run against the demo 'dr1' context")
    submit_p.add_argument("--user", default="astronomer")
    submit_p.add_argument("--queue", choices=("quick", "long"), default="long")
    submit_p.add_argument("--into", default=None,
                          help="spool the result into this MyDB table")
    submit_p.add_argument("--seed", type=int, default=2005)

    status_p = cas_sub.add_parser(
        "status", help="run a mixed workload and print the job ledger",
        parents=[engine_flags],
    )
    status_p.add_argument("--jobs", type=int, default=12)
    status_p.add_argument("--seed", type=int, default=2005)

    trace_p = sub.add_parser(
        "trace",
        help="trace one MaxBCG job through CasJobs -> cluster -> engine",
    )
    add_common(trace_p)
    trace_p.add_argument("--demo", action="store_true",
                         help="small fast sky (CI smoke scale)")
    trace_p.add_argument("--servers", type=int, default=2,
                         help="cluster partitions inside the job")
    trace_p.add_argument("--backend",
                         choices=("sequential", "threads", "processes"),
                         default="processes",
                         help="cluster execution backend for the job")
    trace_p.add_argument("--out", default="trace.json",
                         help="output file for chrome/jsonl formats")
    trace_p.add_argument("--format", choices=("chrome", "jsonl", "tree"),
                         default="chrome", dest="fmt")
    trace_p.add_argument("--slow-ms", type=float, default=None,
                         help="slow-query log threshold in milliseconds")

    metrics_p = sub.add_parser(
        "metrics",
        help="run the demo pipeline and dump the metrics registry",
    )
    add_common(metrics_p)
    metrics_p.add_argument("--demo", action="store_true",
                           help="small fast sky (CI smoke scale)")
    metrics_p.add_argument("--servers", type=int, default=2)
    metrics_p.add_argument("--backend",
                           choices=("sequential", "threads", "processes"),
                           default="sequential")

    memo_p = sub.add_parser(
        "memo",
        help="exercise the plan memo + feedback loop on the demo database",
        parents=[engine_flags],
    )
    add_common(memo_p)
    memo_p.add_argument("-e", "--execute", default=None,
                        help="SELECT to repeat (default: a zoned "
                        "neighbour-count join)")
    memo_p.add_argument("--repeat", type=int, default=4,
                        help="how many times to execute the statement")
    memo_p.add_argument("--shift", action="store_true",
                        help="skew the data between executions: the "
                        "statistics go stale until a q-error breach "
                        "makes the feedback loop learn and re-plan")

    qs_p = sub.add_parser(
        "querystore",
        help="Query Store: workload history, plan regressions, forcing",
        parents=[engine_flags],
    )
    qs_p.add_argument("action", nargs="?", default="report",
                      choices=("report", "regressions"),
                      help="report: full store dump; regressions: "
                      "classified plan-change verdicts only")
    qs_p.add_argument("--repeat", type=int, default=6,
                      help="executions of the workload statement")
    qs_p.add_argument("--demo", action="store_true",
                      help="full walkthrough with invariant checks: "
                      "feedback re-plan -> improvement verdict -> force "
                      "the old plan -> regression verdict -> unforce "
                      "(exit 1 if any check fails)")
    return parser


def _make_sky(args):
    config = MaxBCGConfig(z_step=args.z_step)
    kcorr = build_kcorrection_table(config)
    simulator = SkySimulator(
        kcorr, config,
        SkyConfig(field_density=args.density, cluster_density=args.clusters,
                  seed=args.seed),
    )
    sky = simulator.generate(args.target.expand(2 * config.buffer_deg))
    return config, kcorr, sky


def _print_stats(stats) -> None:
    print(f"{'task':22s}{'elapsed(s)':>11s}{'cpu(s)':>9s}{'I/O':>9s}{'rows':>9s}")
    for name, s in stats.items():
        print(f"{name:22s}{s.elapsed_s:11.3f}{s.cpu_s:9.3f}"
              f"{s.io.total:9,d}{s.rows:9,d}")


def cmd_run(args) -> int:
    config, kcorr, sky = _make_sky(args)
    print(f"sky: {sky.n_galaxies:,} galaxies, {sky.n_clusters} injected "
          f"clusters; target {args.target.flat_area():.1f} deg^2")
    result = run_maxbcg(sky.catalog, args.target, kcorr, config,
                        method=args.method, compute_members=args.members)
    print(f"candidates: {len(result.candidates):,}  "
          f"clusters: {len(result.clusters):,}"
          + (f"  member links: {len(result.members):,}" if args.members else ""))
    _print_stats(result.stats)
    return 0


def cmd_partition(args) -> int:
    from repro.cluster.executor import run_partitioned
    from repro.cluster.verify import assert_union_equals_sequential
    from repro.errors import PartitionError

    backend = args.backend or "sequential"
    config, kcorr, sky = _make_sky(args)
    sequential = run_maxbcg(sky.catalog, args.target, kcorr, config,
                            compute_members=False)
    partitioned = run_partitioned(sky.catalog, args.target, kcorr, config,
                                  n_servers=args.servers,
                                  compute_members=False,
                                  backend=backend,
                                  engine_config=_engine_config(args))
    try:
        assert_union_equals_sequential(
            partitioned.candidates, partitioned.clusters,
            sequential.candidates, sequential.clusters,
        )
    except PartitionError as exc:
        print(f"INVARIANT VIOLATED: {exc}")
        return 1
    print("invariant OK: union(partitions) == sequential")
    seq_total = sequential.total_stats
    print(f"sequential : {seq_total.elapsed_s:8.3f} s  cpu {seq_total.cpu_s:7.3f}"
          f"  io {seq_total.io.total:,}")
    print(f"{args.servers}-server   : {partitioned.modeled_elapsed_s:8.3f} s  "
          f"cpu {partitioned.cpu_s:7.3f}  io {partitioned.io_ops:,} "
          f"(modeled: max over servers)")
    print(f"speedup {seq_total.elapsed_s / partitioned.modeled_elapsed_s:.2f}x  "
          f"cpu ratio {100 * partitioned.cpu_s / seq_total.cpu_s:.0f}%  "
          f"io ratio {100 * partitioned.io_ops / seq_total.io.total:.0f}%")
    if partitioned.wall_s is not None:
        print(f"measured wall-clock ({partitioned.backend}): "
              f"{partitioned.wall_s:.3f} s "
              f"({seq_total.elapsed_s / partitioned.wall_s:.2f}x real speedup)")
        for worker in partitioned.workers:
            degraded = "  DEGRADED to in-parent" if worker.degraded else ""
            print(f"  server{worker.server}: {worker.worker}  "
                  f"wall {worker.wall_s:.3f} s  cpu {worker.cpu_s:.3f} s  "
                  f"attempts {worker.attempts}{degraded}")
    return 0


def cmd_compare(args) -> int:
    from repro.engine.stats import TaskTimer
    from repro.tam.runner import run_tam

    config, kcorr, sky = _make_sky(args)
    with TaskTimer("tam") as timer:
        tam = run_tam(sky.catalog, args.target, kcorr, config,
                      tempfile.mkdtemp(prefix="repro_cli_"))
    sql = run_maxbcg(sky.catalog, args.target, kcorr, config,
                     compute_members=False)
    print(f"TAM (file-based): {timer.stats.elapsed_s:8.3f} s  "
          f"({len(tam.fields)} fields, "
          f"{tam.file_stats.files_written} files written)")
    print(f"SQL (set-based) : {sql.total_stats.elapsed_s:8.3f} s")
    speedup = timer.stats.elapsed_s / sql.total_stats.elapsed_s
    print(f"speedup: {speedup:.1f}x (same configuration on both sides)")
    return 0 if speedup > 1.0 else 1


def cmd_sql(args) -> int:
    db = _demo_database(args, zoned=False)
    text = args.execute
    if args.script:
        with open(args.script) as handle:
            text = handle.read()
    for result in db.run_script(text):
        if result.row_count:
            names = result.column_names
            print("  ".join(names))
            for row in result.rows()[:50]:
                print("  ".join(str(row[n]) for n in names))
            if result.row_count > 50:
                print(f"... ({result.row_count:,} rows total)")
        elif result.rows_affected:
            print(f"({result.rows_affected:,} rows affected)")
    return 0


def _demo_database(args, zoned: bool = True):
    """The demo catalog: MaxBCG installed over ``galaxy_source`` and,
    when ``zoned``, the galaxies imported and zoned."""
    from repro.core.procedures import install_maxbcg
    from repro.engine.database import Database

    config, kcorr, sky = _make_sky(args)
    db = Database("cli", config=_engine_config(args))
    db.create_table("galaxy_source", sky.catalog.as_columns(),
                    primary_key="objid")
    install_maxbcg(db, kcorr, config)
    if zoned:
        box = args.target.expand(2 * config.buffer_deg)
        db.sql(f"EXEC spImportGalaxy {box.ra_min}, {box.ra_max}, "
               f"{box.dec_min}, {box.dec_max}")
        db.sql("EXEC spZone")
    return db


def cmd_analyze(args) -> int:
    db = _demo_database(args)
    print(db.explain_analyze(args.execute).render())
    return 0


def cmd_explain(args) -> int:
    db = _demo_database(args)
    if not args.no_stats:
        db.sql("ANALYZE")
    if not args.analyze:
        print(db.explain(args.sql))
        return 0
    report = db.explain_analyze(args.sql)
    print(report.render())
    print()
    print(report.quality_report().render())
    return 0


def cmd_workloads(_args) -> int:
    from repro.bench.workloads import WORKLOADS

    print(f"{'name':8s}{'target deg^2':>13s}{'density':>9s}{'z-step':>8s}")
    for workload in WORKLOADS.values():
        print(f"{workload.name:8s}{workload.target.flat_area():13.1f}"
              f"{workload.field_density:9.0f}{workload.sql.z_step:8.3f}")
    print("\nselect with REPRO_BENCH_SCALE=<name> for "
          "`pytest benchmarks/ --benchmark-only`")
    return 0


def cmd_casjobs(args) -> int:
    from repro.bench.casjobs_load import (
        LoadSpec,
        build_demo_site,
        check_no_lost_or_duplicated,
        run_load,
    )
    from repro.casjobs.queue import QueueClass
    from repro.errors import CasJobsError

    if args.casjobs_command == "serve":
        spec = LoadSpec(
            n_users=args.users, n_jobs=args.jobs, workers=args.workers,
            quick_fraction=args.quick_frac, pool=args.pool,
            high_water=args.high_water, seed=args.seed,
            result_cache=args.cache, zipf_queries=args.zipf,
        )
        service = build_demo_site(spec)
        report = run_load(spec, service=service)
        print(report.render())
        try:
            check_no_lost_or_duplicated(service, spec.n_jobs - report.shed)
        except CasJobsError as exc:
            print(f"INVARIANT VIOLATED: {exc}")
            return 1
        print("invariant OK: every admitted job terminal exactly once")
        return 0 if report.failed == 0 else 1

    if args.casjobs_command == "submit":
        spec = LoadSpec(n_users=0, seed=args.seed,
                        result_cache=args.cache)
        service = build_demo_site(spec)
        service.register_user(args.user)
        queue_class = (QueueClass.QUICK if args.queue == "quick"
                       else QueueClass.LONG)
        job = service.submit(args.user, args.execute, "dr1",
                             output_table=args.into, queue_class=queue_class)
        service.process_queue()
        job = service.queue.get(job.job_id)
        print(f"job {job.job_id} [{job.queue_class.value}] {job.status.value}"
              f"  wait {1e3 * (job.queue_seconds or 0):.2f} ms"
              f"  run {1e3 * (job.run_seconds or 0):.2f} ms")
        if job.error:
            print(f"error: {job.error}")
            return 1
        result = service.fetch(args.user, job.job_id)
        names = result.column_names
        print("  ".join(names))
        for row in result.rows()[:20]:
            print("  ".join(str(row[n]) for n in names))
        if result.row_count > 20:
            print(f"... ({result.row_count:,} rows total)")
        if args.into:
            print(f"spooled into {args.user}'s MyDB as '{args.into}' "
                  f"({service.mydb(args.user).rows_used():,} rows used)")
        return 0

    # status: run a small mixed workload, then show the ledger
    spec = LoadSpec(n_users=3, n_jobs=args.jobs, workers=2,
                    quick_fraction=0.5, seed=args.seed,
                    result_cache=args.cache)
    service = build_demo_site(spec)
    run_load(spec, service=service)
    print(f"{'id':>4s}  {'owner':8s}{'class':7s}{'status':10s}"
          f"{'wait ms':>9s}{'run ms':>9s}  error")
    for job in service.queue.jobs():
        print(f"{job.job_id:4d}  {job.owner:8s}{job.queue_class.value:7s}"
              f"{job.status.value:10s}"
              f"{1e3 * (job.queue_seconds or 0):9.2f}"
              f"{1e3 * (job.run_seconds or 0):9.2f}  {job.error or ''}")
    for key, value in service.status().items():
        print(f"  {key}: {value}")
    return 0


def _obs_demo_run(args):
    """Run one MaxBCG job through the full stack: a CasJobs scheduler
    dispatches it, the cluster backend fans out partitions, each runs
    the engine pipeline.  The shared workload behind ``repro trace``
    and ``repro metrics``."""
    from repro.casjobs.queue import JobQueue, QueueClass
    from repro.casjobs.scheduler import Scheduler, SchedulerConfig
    from repro.cluster.executor import run_partitioned

    if args.demo:  # CI-smoke scale: seconds, not minutes
        args.density = min(args.density, 150.0)
        args.clusters = min(args.clusters, 3.0)
    config, kcorr, sky = _make_sky(args)

    def executor(job):
        return run_partitioned(
            sky.catalog, args.target, kcorr, config,
            n_servers=args.servers, backend=args.backend,
            compute_members=False,
        )

    queue = JobQueue()
    scheduler = Scheduler(
        queue, executor,
        SchedulerConfig(pool="sequential", max_workers=1),
    )
    job = scheduler.submit("astronomer", "EXEC maxbcg", "dr1",
                           queue_class=QueueClass.LONG)
    scheduler.run_until_idle(timeout_s=600)
    scheduler.close()
    finished = queue.get(job.job_id)
    print(f"job {finished.job_id} {finished.status.value}: "
          f"{sky.n_galaxies:,} galaxies through {args.servers} "
          f"{args.backend} partition(s)")
    return finished


def cmd_trace(args) -> int:
    from repro.errors import ObsError
    from repro.obs import (
        get_slow_log,
        get_tracer,
        render_tree,
        tracing,
        write_chrome_trace,
        write_jsonl,
    )

    if args.slow_ms is not None:
        get_slow_log().set_threshold(args.slow_ms / 1e3)
    with tracing():
        _obs_demo_run(args)
        spans = get_tracer().spans()

    trace_ids = {s.trace_id for s in spans}
    layers = sorted({s.layer for s in spans})
    print(f"{len(spans)} spans, {len(trace_ids)} trace(s), "
          f"layers: {', '.join(layers)}")
    print(render_tree(spans))
    if args.fmt == "chrome":
        from repro.obs import get_metrics

        try:
            path = write_chrome_trace(
                spans, args.out,
                counter_samples=get_metrics().scalars("engine."),
            )
        except ObsError as exc:
            print(f"INVALID TRACE: {exc}")
            return 1
        print(f"chrome trace written to {path} "
              "(load in about:tracing or ui.perfetto.dev)")
    elif args.fmt == "jsonl":
        print(f"spans written to {write_jsonl(spans, args.out)}")
    slow = get_slow_log()
    if args.slow_ms is not None or len(slow):
        print(slow.render())
    return 0


def cmd_metrics(args) -> int:
    from repro.obs import get_metrics

    _obs_demo_run(args)
    print(get_metrics().render())
    return 0


def cmd_memo(args) -> int:
    args.feedback = True  # the command exists to show the feedback loop
    db = _demo_database(args)
    db.sql("ANALYZE")
    sql = args.execute or (
        "SELECT COUNT(*) AS pairs FROM zone z1 JOIN zone z2 "
        "ON z1.zoneid = z2.zoneid WHERE z1.objid < z2.objid"
    )
    for cycle in range(max(args.repeat, 1)):
        if args.shift and cycle == 1:
            # skew the data mid-run: a write changes neither the catalog
            # nor the statistics; within 500 + 20 % of zone's rows the
            # memoized plan keeps running over the new rows, past it
            # the next cycle re-plans on stale statistics; either way
            # the q-error breaches and the feedback loop learns
            low = int(db.sql("SELECT MIN(zoneid) AS z FROM zone").scalar())
            db.sql(f"INSERT INTO zone SELECT objid + 1000000, {low}, "
                   "ra, dec FROM zone WHERE objid % 4 = 0")
            print("-- shifted: a quarter of the rows copied into the lowest "
                  "zone; the statistics are stale until a breach acts")
        result = db.sql(sql)
        entry = db.feedback.store.get(result.fingerprint)
        max_q = entry.last_max_q if entry is not None else None
        answer = ""
        if result.row_count == 1 and len(result.columns) == 1:
            answer = f"  answer={result.scalar()}"
        print(f"cycle {cycle}: memo={result.memo_decision:16s} "
              f"rows={result.row_count:,}{answer}"
              + (f"  max_q={max_q:.2f}" if max_q is not None else ""))
    print()
    print(db.feedback.render())
    return 0


def _querystore_database(config):
    """A small shifted 3-table chain.

    Seeded and ANALYZEd, then the join key ``b.k2`` is skewed onto the
    single value ``c`` holds — the planner's containment estimate is
    badly stale, the first execution breaches the q-error ceiling, and
    the feedback loop re-plans: exactly the plan-change event the Query
    Store exists to record."""
    from repro.engine.database import Database

    db = Database("querystore_demo", config=config)
    rng = np.random.default_rng(7)
    n_a = 1200
    db.create_table(
        "a",
        {"k1": np.arange(n_a, dtype=np.int64),
         "grp": (np.arange(n_a) % 4).astype(np.int64)},
        primary_key="k1",
    )
    n_b = 1200
    db.create_table(
        "b",
        {"k1": rng.integers(0, n_a, n_b).astype(np.int64),
         "k2": (np.arange(n_b) % 300 + 1).astype(np.int64)},
    )
    db.create_table(
        "c", {"k2": np.zeros(40, dtype=np.int64), "w": rng.normal(size=40)}
    )
    db.sql("ANALYZE")
    n_hot = 10_000
    db.table("b").insert({
        "k1": rng.integers(0, n_a, n_hot).astype(np.int64),
        "k2": np.zeros(n_hot, dtype=np.int64),
    })
    db.invalidate_caches("b")
    return db


def cmd_querystore(args) -> int:
    import hashlib

    from repro.obs.querystore import VIEW_PLANS, VIEW_QUERIES

    args.feedback = True     # the regression story needs the re-plan
    args.query_store = True  # the command exists to show the store
    db = _querystore_database(_engine_config(args))
    store, forcer = db.query_store, db.plan_forcer
    sql = ("SELECT COUNT(*) AS n FROM a JOIN b ON a.k1 = b.k1 "
           "JOIN c ON b.k2 = c.k2 WHERE a.grp = 0")
    digests: set[str] = set()

    def run_cycles(n: int, label: str) -> None:
        for cycle in range(n):
            result = db.sql(sql)
            digest = hashlib.sha256(
                np.ascontiguousarray(result.columns["n"]).tobytes()
            ).hexdigest()
            digests.add(digest)
            print(f"  {label} cycle {cycle}: "
                  f"plan={result.plan_origin or '?':16s}  "
                  f"memo={result.memo_decision or '-':16s}  "
                  f"n={int(result.scalar()):,}")

    print(f"-- {max(args.repeat, 4)} executions on shifted data "
          "(stats stale; feedback re-plans on q-error breach)")
    run_cycles(max(args.repeat, 4), "warm")
    fingerprint = db.statement_key(sql)

    if args.action == "regressions" and not args.demo:
        changes = store.plan_changes()
        if not changes:
            print("no plan changes recorded")
            return 0
        for change in changes:
            ratio = change.ratio
            print(f"{change.fingerprint[:12]}  plan {change.old_plan_id} "
                  f"-> {change.new_plan_id} ({change.decision})  "
                  f"verdict={change.verdict or 'pending'}"
                  + (f"  new/old={ratio:.2f}x" if ratio is not None else ""))
        return 0

    if not args.demo:
        print()
        print(store.render(forcer))
        return 0

    # --demo: force the pre-feedback plan back, watch the regression
    checks: list[tuple[str, bool]] = []
    replans = [c for c in store.plan_changes()
               if c.decision in ("replan", "learned-override")]
    checks.append(("feedback re-plan recorded as a plan change",
                   len(replans) == 1))
    improvement = replans[0] if replans else None
    checks.append((
        "re-plan classified as an improvement",
        improvement is not None and improvement.verdict == "improvement",
    ))

    if improvement is not None and fingerprint is not None:
        old_id = improvement.old_plan_id
        print(f"\n-- forcing plan {old_id} (the pre-feedback plan) back")
        db.force_plan(fingerprint, old_id)
        run_cycles(3, "forced")
        forced_changes = [c for c in store.plan_changes()
                          if c.new_plan_id == old_id
                          and c.decision.startswith("forced")]
        checks.append(("forcing recorded as a plan change",
                       len(forced_changes) == 1))
        checks.append((
            "forced old plan classified as a regression",
            any(c.new_plan_id == old_id for c in store.regressions()),
        ))
        view = db.sql(
            f"SELECT fingerprint, executions, forced_plan_id "
            f"FROM {VIEW_QUERIES}"
        )
        row = next((r for r in view.rows()
                    if r["fingerprint"] == fingerprint), None)
        stored = store.query(fingerprint)
        checks.append((
            "SELECT over sys_query_store_queries matches the store",
            row is not None and stored is not None
            and int(row["executions"]) == stored.executions
            and int(row["forced_plan_id"]) == old_id,
        ))
        forced_rows = db.sql(
            f"SELECT plan_id, is_forced FROM {VIEW_PLANS}"
        ).rows()
        checks.append((
            "sys_query_store_plans flags exactly the forced plan",
            [r["plan_id"] for r in forced_rows if r["is_forced"]] == [old_id],
        ))
        print(f"\n-- unforcing {fingerprint[:12]}")
        checks.append(("unforce removes the pin",
                       db.unforce_plan(fingerprint)))
        run_cycles(1, "unforced")
        checks.append((
            "post-unforce execution is not forced",
            not (store.query(fingerprint).current_plan_id == old_id
                 and forcer.get(fingerprint) is not None),
        ))
    checks.append(("every answer byte-identical", len(digests) == 1))

    print()
    print(store.render(forcer))
    print()
    failed = [claim for claim, ok in checks if not ok]
    for claim, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {claim}")
    if failed:
        print(f"{len(failed)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


COMMANDS = {
    "run": cmd_run,
    "partition": cmd_partition,
    "compare": cmd_compare,
    "sql": cmd_sql,
    "analyze": cmd_analyze,
    "explain": cmd_explain,
    "workloads": cmd_workloads,
    "casjobs": cmd_casjobs,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "memo": cmd_memo,
    "querystore": cmd_querystore,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
