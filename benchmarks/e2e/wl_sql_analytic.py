"""``sql_analytic`` — long statements through ``Database.sql``.

One op is one pass of a seven-statement script: the three fragments of
the paper's appendix the engine runs today (``spZone``'s INSERT..SELECT
plus clustered index, the chi-squared Filter ``CROSS JOIN Kcorr``, the
zone/ra band self-join neighbour count) and four SkyServer-style
statements (colour-cut scan, magnitude histogram, index-range cone,
hash join).  Result cache, feedback and Query Store are off and the
buffer pool holds about 40 % of the tables' pages, so operators, joins,
fused kernels and the pool do the work; parse and plan are noise.

Each fragment has a numpy twin (``ZoneIndex`` build, ``filter_catalog``,
``zone_join``) timed on the same rows: ``sql_over_numpy_ratio`` is what
the engine costs over the hand-vectorized pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import stages
from harness import PassLog, p50, same_rows, timed_section
from repro.core.likelihood import filter_catalog
from repro.engine.compile import TALLY
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.spatial.zonejoin import zone_join
from repro.spatial.zones import ZoneIndex
from sizes import SqlAnalyticSize, op_count

NAME = "sql_analytic"

ZONE_HEIGHT = "0.00833333333333333333"  # 30 arcsec, as the appendix writes it
CHI2 = (
    "(POWER(g.i - k.i, 2) / POWER(0.57, 2)"
    " + POWER(g.gr - k.gr, 2) / (POWER(g.sigmagr, 2) + POWER(0.05, 2))"
    " + POWER(g.ri - k.ri, 2) / (POWER(g.sigmari, 2) + POWER(0.06, 2)))"
)
SELECTS = ("filter", "neighbours", "colourcut", "histogram", "cone", "hashjoin")
STATEMENTS = ("spzone",) + SELECTS
APPENDIX = ("spzone", "filter", "neighbours")
#: EXPLAIN ANALYZE runs per SELECT behind the per-operator self times.
ANALYZE_REPEATS = 3


@dataclass
class State:
    sky: inputs.Sky
    db: Database
    sql: dict[str, str]
    #: Rows of the neighbour probe side, and the cut that selects them.
    probe_rows: np.ndarray
    oracle: dict[str, dict] = field(default_factory=dict)


def n_ops(size: SqlAnalyticSize, seconds: float) -> int:
    return op_count(size.ops_per_second, seconds)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _midpoint(size: SqlAnalyticSize) -> tuple[float, int]:
    """Centre of the target box: its right ascension and its zone."""
    ra_mid = 0.5 * (size.target[0] + size.target[1])
    dec_mid = 0.5 * (size.target[2] + size.target[3])
    return ra_mid, int(np.floor((dec_mid + 90.0) / float(ZONE_HEIGHT)))


def _statements(sky: inputs.Sky, cut: float) -> dict[str, str]:
    size = sky.size
    radius = size.neighbour_radius_deg
    chord2 = 4.0 * np.sin(np.deg2rad(radius) / 2.0) ** 2
    zones = int(np.ceil(radius / sky.config.zone_height_deg))
    # RA half-width of the cap at the sky's highest declination: a
    # superset window, the chord test restores exactness
    dec_max = size.target[3] + 2.0 * sky.config.buffer_deg
    window = float(radius / np.cos(np.deg2rad(dec_max)) * 1.001)
    ra_mid, zone_mid = _midpoint(size)
    return {
        "spzone": (
            "INSERT INTO zone SELECT objid, "
            f"FLOOR((dec + 90.0) / {ZONE_HEIGHT}), ra, dec, "
            "COS(RADIANS(dec)) * COS(RADIANS(ra)), "
            "COS(RADIANS(dec)) * SIN(RADIANS(ra)), "
            "SIN(RADIANS(dec)), i FROM galaxy"
        ),
        "filter": (
            "SELECT g.objid AS objid, COUNT(*) AS nz "
            "FROM galaxy g CROSS JOIN kcorr k "
            f"WHERE ABS(g.i - k.i) < 1.509 AND {CHI2} < 7 "
            "GROUP BY g.objid"
        ),
        "neighbours": (
            "SELECT a.objid AS objid, COUNT(*) AS n "
            "FROM zone a JOIN zone b "
            f"ON b.zoneid BETWEEN a.zoneid - {zones} AND a.zoneid + {zones} "
            f"AND b.ra BETWEEN a.ra - {window!r} AND a.ra + {window!r} "
            f"WHERE a.i < {cut!r} "
            "AND POWER(a.cx - b.cx, 2) + POWER(a.cy - b.cy, 2) "
            f"+ POWER(a.cz - b.cz, 2) < {float(chord2)!r} "
            "GROUP BY a.objid"
        ),
        "colourcut": (
            "SELECT objid, ra, dec, i FROM galaxy "
            "WHERE gr BETWEEN 1.2 AND 1.5 AND ri BETWEEN 0.4 AND 0.6 "
            "AND i < 19.0"
        ),
        "histogram": (
            "SELECT FLOOR(i) AS ibin, COUNT(*) AS n, AVG(gr) AS mean_gr, "
            "MIN(ri) AS lo_ri, MAX(ri) AS hi_ri "
            "FROM galaxy GROUP BY FLOOR(i) ORDER BY ibin"
        ),
        "cone": (
            "SELECT objid, ra, dec FROM zone "
            f"WHERE zoneid BETWEEN {zone_mid - 12} AND {zone_mid + 12} "
            f"AND ra BETWEEN {ra_mid - 0.1!r} AND {ra_mid + 0.1!r}"
        ),
        "hashjoin": (
            "SELECT g.objid AS objid, g.i AS i, z.zoneid AS zoneid "
            "FROM galaxy g JOIN zone z ON g.objid = z.objid "
            f"WHERE g.i < 17.5 AND z.zoneid < {zone_mid}"
        ),
    }


def _spzone(db: Database, insert_sql: str) -> None:
    """The appendix's spZone: refill the Zone table, cluster it."""
    db.sql("TRUNCATE TABLE zone")
    db.sql(insert_sql)
    db.create_clustered_index("zone", "zoneid", "ra")


def setup(seed: int, size: SqlAnalyticSize, clock) -> State:
    with clock.stage("core.kcorrection.build_s"):
        config, kcorr = inputs.make_kcorr(size.z_step)
    with clock.stage("skyserver.generator.gen_s"):
        catalog = inputs.make_catalog(
            seed, size.target, size.n_galaxies, size.cluster_share,
            config, kcorr,
        )
    sky = inputs.Sky(catalog, None, config, kcorr, size)
    # place the magnitude cut so exactly `neighbour_probes` rows pass
    order = np.argsort(catalog.i, kind="stable")
    k = size.neighbour_probes
    cut = float(0.5 * (catalog.i[order[k - 1]] + catalog.i[order[k]]))
    sql = _statements(sky, cut)
    db = Database("sky", config=EngineConfig(pool_pages=size.pool_pages))
    with clock.stage("engine.table.load_s"):
        db.create_table("galaxy", catalog.as_columns(), primary_key="objid")
        db.create_table("kcorr", kcorr.as_columns(), primary_key="zid")
        db.sql(
            "CREATE TABLE zone (objid bigint PRIMARY KEY, zoneid bigint, "
            "ra float, dec float, cx float, cy float, cz float, i float)"
        )
    with clock.stage("engine.index.build_s"):
        _spzone(db, sql["spzone"])
    with clock.stage("engine.optimizer.statistics.analyze_s"):
        db.analyze()
    return State(sky, db, sql, np.sort(order[:k]))


def teardown(state: State) -> None:
    pass


def counters(state: State):
    io = state.db.pool.counters

    def read() -> dict[str, int]:
        return {
            "logical_reads": io.logical_reads,
            "physical_reads": io.physical_reads,
            "alloc_elements": TALLY.alloc_elements,
        }

    return read


# ----------------------------------------------------------------------
# the op
# ----------------------------------------------------------------------
def _pass_untraced(state: State, log: PassLog) -> None:
    db, sql = state.db, state.sql
    answers = {}
    started = time.perf_counter()
    _spzone(db, sql["spzone"])
    lap = time.perf_counter()
    log.sample("spzone_s", lap - started)
    for name in SELECTS:
        result = db.sql(sql[name])
        now = time.perf_counter()
        log.sample(f"{name}_s", now - lap)
        log.sample("select_s", now - lap)
        lap = now
        answers[name] = result.columns
    log.op_s.append(lap - started)
    answers["spzone"] = db.table("zone").columns_dict()
    log.answers.append(answers)


def _pass_traced(state: State, log: PassLog, tracer) -> None:
    db, sql = state.db, state.sql
    answers = {}
    with tracer.span("op") as op:
        with tracer.span("engine.sql.executor.spzone"):
            db.sql("TRUNCATE TABLE zone")
            db.sql(sql["spzone"])
            with tracer.span("engine.index.build"):
                db.create_clustered_index("zone", "zoneid", "ra")
        for name in SELECTS:
            with tracer.span(f"engine.sql.executor.{name}"):
                answers[name] = stages.staged_select(
                    db, sql[name], tracer
                ).columns
    log.op_s.append(op.duration)
    answers["spzone"] = db.table("zone").columns_dict()
    log.answers.append(answers)
    for name in SELECTS:
        stages.probe_stages(db, sql[name], tracer)


def _numpy_twins(state: State, log: PassLog) -> None:
    """The hand-vectorized equivalents of the appendix fragments."""
    sky, size = state.sky, state.sky.size
    catalog = sky.catalog
    probes = state.probe_rows
    for _ in range(size.numpy_repeats):
        started = time.perf_counter()
        index = ZoneIndex(
            catalog.ra, catalog.dec, sky.config.zone_height_deg
        )
        lap = time.perf_counter()
        log.sample("numpy_spzone_s", lap - started)
        filter_catalog(
            catalog.i, catalog.gr, catalog.ri,
            catalog.sigmagr, catalog.sigmari, sky.kcorr, sky.config,
        )
        now = time.perf_counter()
        log.sample("numpy_filter_s", now - lap)
        pairs = zone_join(
            index, catalog.ra[probes], catalog.dec[probes],
            size.neighbour_radius_deg,
        )
        log.sample("numpy_neighbours_s", time.perf_counter() - now)
    log.values["numpy_neighbour_pairs"] = len(pairs)


def run(state: State, ops: int, tracer=None) -> PassLog:
    log = PassLog()
    for _ in range(state.sky.size.warmup_ops):
        _pass_untraced(state, PassLog())
    with timed_section(log, state.db.pool.counters):
        for op in range(ops):
            if tracer is None:
                _pass_untraced(state, log)
            else:
                tracer.op = op
                _pass_traced(state, log, tracer)
    if tracer is None:
        _numpy_twins(state, log)
    else:
        # per-operator self time: EXPLAIN ANALYZE each SELECT a few times
        log.values["reports"] = [
            state.db.explain_analyze(state.sql[name])
            for _ in range(ANALYZE_REPEATS)
            for name in SELECTS
        ]
    return log


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def _oracle(state: State) -> dict[str, dict]:
    """Every statement's expected answer, computed with numpy alone."""
    catalog, kcorr = state.sky.catalog, state.sky.kcorr
    size = state.sky.size
    ra, dec, i = catalog.ra, catalog.dec, catalog.i
    gr, ri, objid = catalog.gr, catalog.ri, catalog.objid
    zoneid = np.floor((dec + 90.0) / float(ZONE_HEIGHT)).astype(np.int64)
    cos_dec = np.cos(np.deg2rad(dec))
    cx = cos_dec * np.cos(np.deg2rad(ra))
    cy = cos_dec * np.sin(np.deg2rad(ra))
    cz = np.sin(np.deg2rad(dec))
    out = {"spzone": {
        "objid": objid, "zoneid": zoneid, "ra": ra, "dec": dec,
        "cx": cx, "cy": cy, "cz": cz, "i": i,
    }}

    chi2 = (
        (i[:, None] - kcorr.i[None, :]) ** 2 / 0.57 ** 2
        + (gr[:, None] - kcorr.gr[None, :]) ** 2
        / (catalog.sigmagr[:, None] ** 2 + 0.05 ** 2)
        + (ri[:, None] - kcorr.ri[None, :]) ** 2
        / (catalog.sigmari[:, None] ** 2 + 0.06 ** 2)
    )
    passing = (
        (np.abs(i[:, None] - kcorr.i[None, :]) < 1.509) & (chi2 < 7)
    ).sum(axis=1)
    out["filter"] = {
        "objid": objid[passing > 0], "nz": passing[passing > 0],
    }

    chord2 = 4.0 * np.sin(np.deg2rad(size.neighbour_radius_deg) / 2.0) ** 2
    probes = state.probe_rows
    separation = (
        (cx[probes, None] - cx[None, :]) ** 2
        + (cy[probes, None] - cy[None, :]) ** 2
        + (cz[probes, None] - cz[None, :]) ** 2
    )
    out["neighbours"] = {
        "objid": objid[probes], "n": (separation < chord2).sum(axis=1),
    }

    cut = (
        (gr >= 1.2) & (gr <= 1.5) & (ri >= 0.4) & (ri <= 0.6) & (i < 19.0)
    )
    out["colourcut"] = {
        "objid": objid[cut], "ra": ra[cut], "dec": dec[cut], "i": i[cut],
    }

    bins = np.floor(i)
    keys = np.unique(bins)
    out["histogram"] = {
        "ibin": keys,
        "n": np.array([(bins == b).sum() for b in keys]),
        "mean_gr": np.array([gr[bins == b].mean() for b in keys]),
        "lo_ri": np.array([ri[bins == b].min() for b in keys]),
        "hi_ri": np.array([ri[bins == b].max() for b in keys]),
    }

    ra_mid, zone_mid = _midpoint(size)
    cone = (
        (zoneid >= zone_mid - 12) & (zoneid <= zone_mid + 12)
        & (ra >= ra_mid - 0.1) & (ra <= ra_mid + 0.1)
    )
    out["cone"] = {"objid": objid[cone], "ra": ra[cone], "dec": dec[cone]}

    joined = (i < 17.5) & (zoneid < zone_mid)
    out["hashjoin"] = {
        "objid": objid[joined], "i": i[joined], "zoneid": zoneid[joined],
    }
    return out


def corrupt(log: PassLog) -> None:
    """Damage one recorded answer; ``verify`` must notice."""
    answer = log.answers[0]["histogram"]
    answer["n"] = np.asarray(answer["n"]) + 1


def verify(state: State, log: PassLog) -> tuple[int, int]:
    if not state.oracle:
        state.oracle = _oracle(state)
    keys = {name: "objid" for name in STATEMENTS}
    keys["histogram"] = "ibin"
    failed = 0
    for answers in log.answers:
        ok = all(
            same_rows(answers[name], state.oracle[name], keys[name])
            for name in STATEMENTS
        )
        failed += not ok
    attempted = len(log.answers)
    if "numpy_neighbour_pairs" in log.values:
        # the numpy twin must have done the same job as the SQL it is
        # timed against: zone_join finds exactly the oracle's pairs
        attempted += 1
        failed += log.values["numpy_neighbour_pairs"] != int(
            state.oracle["neighbours"]["n"].sum()
        )
    return attempted, failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def workload_metrics(state: State, log: PassLog) -> dict[str, float]:
    sql_s = sum(p50(log.samples[f"{name}_s"]) for name in APPENDIX)
    numpy_s = sum(p50(log.samples[f"numpy_{name}_s"]) for name in APPENDIX)
    return {"e2e.sql_over_numpy_ratio": sql_s / numpy_s}


def layer_metrics(
    state: State, untraced: PassLog, traced: PassLog, tracer
) -> dict[str, float]:
    out = stages.front_end_metrics(tracer, untraced.samples["select_s"])
    for name in STATEMENTS:
        out[f"engine.sql.executor.{name}_ms_p50"] = 1e3 * p50(
            tracer.durations(f"engine.sql.executor.{name}")
        )
    out.update(
        stages.operator_breakdown(traced.values["reports"], ANALYZE_REPEATS)
    )
    out.update(stages.page_metrics(tracer))
    ops = [span for span in tracer.spans if span.name == "op"]
    out["engine.compile.alloc_elements"] = sum(
        span.counters.get("alloc_elements", 0) for span in ops
    ) / len(ops)
    return out
