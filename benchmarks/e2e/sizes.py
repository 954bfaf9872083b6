"""Pinned input sizes.  The load is defined here and nowhere else.

Sizes were chosen for a 2-core sandbox (``nproc`` = 2, one client,
single-threaded, BLAS pinned to one thread) so that ``--seconds 10`` —
the ``run_seconds`` in ``BENCHMARK.json`` — keeps every timed section
near ten seconds while still putting >= 20 samples behind every p50
and >= 200 behind every p95.

Op counts are a fixed function of ``--seconds`` (``ops_per_second`` x
seconds, rounded), never of the wall clock: the same ``--seed`` and
``--seconds`` replay exactly the same ops, so every count metric
repeats exactly.  A faster or slower program finishes the same work
sooner or later; it does not get a different load.

``smoke`` exists for ``test_e2e_smoke.py`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How many times set-up is repeated in one run; ``setup_s`` and the
#: set-up stage metrics are medians over these.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Table1Size:
    """The MaxBCG sky of ``table1_numpy``."""

    #: Target box T (ra_min, ra_max, dec_min, dec_max), degrees; the
    #: generated sky covers T expanded by two buffer widths.
    target: tuple[float, float, float, float]
    #: Exact galaxy count (the generator's Poisson draw is trimmed).
    n_galaxies: int
    #: Share of the rows that are injected cluster galaxies.
    cluster_share: float
    z_step: float
    n_servers: int
    #: One op = one one-node run followed by one 3-way partitioned run.
    ops_per_second: float
    warmup_ops: int


@dataclass(frozen=True)
class SqlAnalyticSize:
    """The catalog database of ``sql_analytic``."""

    target: tuple[float, float, float, float]
    n_galaxies: int
    cluster_share: float
    z_step: float
    #: Buffer-pool capacity, about 40 % of galaxy + zone + kcorr pages.
    pool_pages: int
    #: Probe rows of the neighbour self-join (the ``i <`` cut is placed
    #: so exactly this many galaxies fall under it, whatever the seed).
    neighbour_probes: int
    neighbour_radius_deg: float
    #: One op = one pass of the seven-statement script.
    ops_per_second: float
    warmup_ops: int
    #: Repeats of the numpy twins behind ``sql_over_numpy_ratio``.
    numpy_repeats: int


@dataclass(frozen=True)
class CasJobsSize:
    """The CasJobs site of ``casjobs_zipf``."""

    n_rows: int
    cluster_share: float
    n_users: int
    distinct_queries: int
    cache_entries: int
    zipf_s: float
    pool_pages: int
    ops_per_second: float
    warmup_share: float


@dataclass(frozen=True)
class DmlSize:
    """The read/write database of ``dml_readwrite``."""

    n_rows: int
    cluster_share: float
    n_candidates: int
    select_shapes: int
    write_share: float
    #: ``save_database`` runs this many times, evenly spaced.
    saves: int
    pool_pages: int
    ops_per_second: float


@dataclass(frozen=True)
class Scale:
    table1_numpy: Table1Size
    sql_analytic: SqlAnalyticSize
    casjobs_zipf: CasJobsSize
    dml_readwrite: DmlSize


SCALES: dict[str, Scale] = {
    "full": Scale(
        table1_numpy=Table1Size(
            target=(180.0, 181.2, 0.0, 6.0),
            n_galaxies=40_000,
            cluster_share=0.15,
            z_step=0.005,
            n_servers=3,
            ops_per_second=2.5,
            warmup_ops=1,
        ),
        sql_analytic=SqlAnalyticSize(
            target=(180.0, 183.0, 0.0, 3.0),
            n_galaxies=24_000,
            cluster_share=0.15,
            z_step=0.005,
            pool_pages=160,
            neighbour_probes=16,
            neighbour_radius_deg=0.05,
            ops_per_second=3.0,
            warmup_ops=1,
            numpy_repeats=20,
        ),
        casjobs_zipf=CasJobsSize(
            n_rows=20_000,
            cluster_share=0.15,
            n_users=16,
            distinct_queries=2048,
            cache_entries=512,
            zipf_s=1.1,
            pool_pages=64,
            ops_per_second=1600.0,
            warmup_share=1.0 / 8.0,
        ),
        dml_readwrite=DmlSize(
            n_rows=20_000,
            cluster_share=0.15,
            n_candidates=2_000,
            select_shapes=32,
            write_share=0.30,
            saves=6,
            pool_pages=64,
            ops_per_second=280.0,
        ),
    ),
    "smoke": Scale(
        table1_numpy=Table1Size(
            target=(180.0, 181.2, 0.0, 1.2),
            n_galaxies=3_000,
            cluster_share=0.15,
            z_step=0.01,
            n_servers=3,
            ops_per_second=2.0,
            warmup_ops=0,
        ),
        sql_analytic=SqlAnalyticSize(
            target=(180.0, 181.2, 0.0, 1.2),
            n_galaxies=2_000,
            cluster_share=0.15,
            z_step=0.01,
            pool_pages=16,
            neighbour_probes=8,
            neighbour_radius_deg=0.05,
            ops_per_second=2.0,
            warmup_ops=0,
            numpy_repeats=3,
        ),
        casjobs_zipf=CasJobsSize(
            n_rows=2_000,
            cluster_share=0.15,
            n_users=4,
            distinct_queries=64,
            cache_entries=16,
            zipf_s=1.1,
            pool_pages=8,
            ops_per_second=100.0,
            warmup_share=1.0 / 6.0,
        ),
        dml_readwrite=DmlSize(
            n_rows=2_000,
            cluster_share=0.15,
            n_candidates=200,
            select_shapes=32,
            write_share=0.30,
            saves=2,
            pool_pages=8,
            ops_per_second=60.0,
        ),
    ),
}


def op_count(ops_per_second: float, seconds: float) -> int:
    """The fixed op count for a ``--seconds`` budget (at least 2)."""
    return max(2, int(round(ops_per_second * seconds)))
