"""``dml_readwrite`` — reads interleaved with writes on the same tables.

The same engine layers as ``casjobs_zipf``, used differently:
``Database.sql`` with result cache, feedback and Query Store all on;
70 % SELECTs from 32 shapes (point, index range, aggregate, ``galaxy``
join ``candidates``) and 30 % ``INSERT..SELECT`` / ``UPDATE`` / ``DELETE``
on the tables being read.  Every write invalidates cached results,
drops the clustered index, bumps table versions and ages memoized
plans, so a read-path gain that taxes writes shows up here.
``save_database`` checkpoints a few times (followed by the index
rebuild a maintenance job would do) and one ``load_database`` restarts
from the last checkpoint at the end.

Answers are checked against a numpy shadow that replays the same ops.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import stages
from harness import (
    PassLog, batch_digest, p50, same_rows, share, timed_section,
)
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.storage import load_database, save_database
from repro.obs.metrics import get_metrics
from repro.spatial.zones import zone_id
from sizes import DmlSize, op_count

NAME = "dml_readwrite"
TARGET = (180.0, 183.0, 0.0, 3.0)
Z_STEP = 0.005
TMP_ROOT = Path(__file__).resolve().parent / "out" / "tmp"
GALAXY_COLUMNS = (
    "objid", "zoneid", "ra", "dec", "i", "gr", "ri", "sigmagr", "sigmari",
)
FAMILIES = ("point", "range", "aggregate", "join")
WRITES = ("insert", "update", "delete")
#: Inserted copies get ids this far above everything generated.
INSERT_STRIDE = 1_000_000


@dataclass
class Op:
    kind: str          # a FAMILIES or WRITES member
    sql: str
    params: tuple


@dataclass
class State:
    size: DmlSize
    seed: int
    config: EngineConfig
    db: Database
    galaxy: dict[str, np.ndarray]
    candidates: dict[str, np.ndarray]
    directory: Path


def n_ops(size: DmlSize, seconds: float) -> int:
    return op_count(size.ops_per_second, seconds)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup(seed: int, size: DmlSize, clock) -> State:
    with clock.stage("core.kcorrection.build_s"):
        config, kcorr = inputs.make_kcorr(Z_STEP)
    with clock.stage("skyserver.generator.gen_s"):
        catalog = inputs.make_catalog(
            seed, TARGET, size.n_rows, size.cluster_share, config, kcorr
        )
    columns = catalog.as_columns()
    columns["zoneid"] = zone_id(catalog.dec, config.zone_height_deg)
    galaxy = {name: columns[name] for name in GALAXY_COLUMNS}
    rng = np.random.default_rng([seed, 4])
    picked = np.sort(
        rng.choice(size.n_rows, size=size.n_candidates, replace=False)
    )
    candidates = {
        "objid": galaxy["objid"][picked],
        "z": rng.uniform(0.05, 0.35, size.n_candidates),
        "ngal": rng.integers(1, 40, size.n_candidates),
        "chi2": rng.uniform(-5.0, 5.0, size.n_candidates),
    }
    engine_config = EngineConfig(
        result_cache=True, feedback=True, query_store=True,
        pool_pages=size.pool_pages,
    )
    db = Database("rw", config=engine_config)
    with clock.stage("engine.table.load_s"):
        db.create_table("galaxy", galaxy, primary_key="objid")
        db.create_table("candidates", candidates, primary_key="objid")
    with clock.stage("engine.index.build_s"):
        db.create_clustered_index("galaxy", "zoneid", "ra")
    with clock.stage("engine.optimizer.statistics.analyze_s"):
        db.analyze()
    directory = TMP_ROOT / f"{NAME}_{os.getpid()}_{id(db):x}"
    return State(size, seed, engine_config, db, galaxy, candidates, directory)


def teardown(state: State) -> None:
    shutil.rmtree(state.directory, ignore_errors=True)


def counters(state: State):
    io, cache = state.db.pool.counters, state.db.result_cache.stats

    def read() -> dict[str, int]:
        return {
            "logical_reads": io.logical_reads,
            "physical_reads": io.physical_reads,
            "cache_hits": cache.hits,
            "cache_invalidations": cache.invalidations,
        }

    return read


# ----------------------------------------------------------------------
# the op sequence
# ----------------------------------------------------------------------
def _select_shapes(rng, state: State) -> list[Op]:
    """``select_shapes`` distinct SELECTs, a quarter from each family.

    Cuts that decide how many rows a shape returns step through fixed
    grids; the seed only picks *where* (which key, which zones).
    """
    ids = state.galaxy["objid"]
    zones = state.galaxy["zoneid"]
    per_family = max(1, state.size.select_shapes // len(FAMILIES))
    shapes: list[Op] = []
    for n in range(state.size.select_shapes):
        family = FAMILIES[n % len(FAMILIES)]
        step = (n // len(FAMILIES)) / per_family  # 0 <= step < 1
        if family == "point":
            key = int(ids[rng.integers(0, ids.size)])
            sql = f"SELECT objid, ra, dec, i FROM galaxy WHERE objid = {key}"
            params = (key,)
        elif family == "range":
            lo = int(rng.integers(zones.min(), zones.max() - 12))
            sql = (
                "SELECT objid, ra, dec FROM galaxy "
                f"WHERE zoneid BETWEEN {lo} AND {lo + 12}"
            )
            params = (lo, lo + 12)
        elif family == "aggregate":
            mag = round(17.5 + 3.0 * step, 3)
            colour = round(0.1 + 0.4 * step, 3)
            sql = (
                "SELECT COUNT(*) AS n, AVG(gr) AS mean_gr, MIN(i) AS lo_i "
                f"FROM galaxy WHERE i < {mag} AND ri > {colour}"
            )
            params = (mag, colour)
        else:
            ngal = int(5 + 25 * step)
            mag = round(18.0 + 3.0 * step, 3)
            sql = (
                "SELECT g.objid AS objid, g.i AS i, c.ngal AS ngal "
                "FROM galaxy g JOIN candidates c ON g.objid = c.objid "
                f"WHERE c.ngal > {ngal} AND g.i < {mag}"
            )
            params = (ngal, mag)
        shapes.append(Op(family, sql, params))
    return shapes


def _ops(state: State, count: int) -> tuple[list[Op], list[Op]]:
    """The SELECT shapes and the seeded op sequence that interleaves
    them with writes.

    Writes address ranges of the *generated* ids only, so an inserted
    copy is never copied again and ids stay unique.
    """
    rng = np.random.default_rng([state.seed, 5])
    shapes = _select_shapes(rng, state)
    first = int(state.galaxy["objid"].min())
    span = int(state.galaxy["objid"].max()) - first
    # how often each kind of op occurs is pinned (writes split evenly,
    # reads spread evenly over the shapes); the seed shuffles the order
    n_writes = int(round(count * state.size.write_share))
    kinds = np.concatenate([
        inputs.apportion(np.ones(len(shapes)), count - n_writes),
        inputs.apportion(np.ones(len(WRITES)), n_writes),
    ])
    ops: list[Op] = []
    inserts = 0
    for slot in inputs.shuffled(rng, kinds):
        if slot < len(shapes):
            ops.append(shapes[slot])
            continue
        kind = WRITES[slot - len(shapes)]
        lo = first + int(rng.integers(0, span - 40))
        if kind == "insert":
            inserts += 1
            hi, offset = lo + 30, inserts * INSERT_STRIDE
            sql = (
                f"INSERT INTO galaxy SELECT objid + {offset}, zoneid, ra, "
                "dec, i, gr, ri, sigmagr, sigmari FROM galaxy "
                f"WHERE objid BETWEEN {lo} AND {hi}"
            )
            params = (lo, hi, offset)
        elif kind == "update":
            hi = lo + 30
            sql = (
                "UPDATE galaxy SET i = i + 0.01 "
                f"WHERE objid BETWEEN {lo} AND {hi}"
            )
            params = (lo, hi)
        else:
            hi = lo + 10
            sql = f"DELETE FROM galaxy WHERE objid BETWEEN {lo} AND {hi}"
            params = (lo, hi)
        ops.append(Op(kind, sql, params))
    return shapes, ops


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def _checkpoint(state: State, log: PassLog, tracer) -> None:
    """``save_database`` plus the index rebuild maintenance would do."""
    started = time.perf_counter()
    if tracer is None:
        save_database(state.db, state.directory)
    else:
        with tracer.span("engine.storage.save"):
            save_database(state.db, state.directory)
    log.sample("save_s", time.perf_counter() - started)
    state.db.create_clustered_index("galaxy", "zoneid", "ra")


def _feedback_counts() -> tuple[float, float]:
    scalars = get_metrics().scalars("engine.feedback.")
    return (
        scalars.get("engine.feedback.replans", 0.0),
        scalars.get("engine.feedback.reanalyzed_tables", 0.0),
    )


def run(state: State, ops: int, tracer=None) -> PassLog:
    log = PassLog()
    db = state.db
    shapes, sequence = _ops(state, ops)
    # warm the caches and lazy imports on the read shapes, no writes
    for shape in shapes:
        db.sql(shape.sql)
    every = max(1, ops // state.size.saves)
    memo = db.feedback.memo.stats
    cache_before = stages.cache_counts(db)
    before = (memo.hits, memo.misses, *_feedback_counts())
    with timed_section(log, db.pool.counters):
        for n, op in enumerate(sequence):
            select = op.kind in FAMILIES
            if tracer is None:
                started = time.perf_counter()
                result = db.sql(op.sql)
                elapsed = time.perf_counter() - started
            else:
                tracer.op = n
                with tracer.span("op") as span:
                    if select:
                        result = stages.staged_select(db, op.sql, tracer)
                    else:
                        with tracer.span(f"engine.sql.executor.{op.kind}"):
                            result = db.sql(op.sql)
                elapsed = span.duration
                if select:
                    stages.probe_stages(db, op.sql, tracer)
            log.op_s.append(elapsed)
            log.sample("select_s" if select else "write_s", elapsed)
            log.answers.append(
                (result.columns, result.plan) if select
                else result.rows_affected
            )
            if (n + 1) % every == 0:
                _checkpoint(state, log, tracer)
    after = (memo.hits, memo.misses, *_feedback_counts())
    memo_hits, memo_misses, replans, reanalyzes = (
        b - a for a, b in zip(before, after)
    )
    log.values.update(
        ops=sequence,
        cache=stages.cache_counts(db) - cache_before,
        memo_hit_rate=share(memo_hits, memo_hits + memo_misses),
        replans=replans,
        reanalyzes=reanalyzes,
        plans_tracked=db.query_store.summary()["plans"],
    )
    # a final checkpoint, then restart from it
    _checkpoint(state, log, tracer)
    started = time.perf_counter()
    if tracer is None:
        restored = load_database(state.directory, config=state.config)
    else:
        with tracer.span("engine.storage.load"):
            restored = load_database(state.directory, config=state.config)
    log.values["load_s"] = time.perf_counter() - started
    log.values["restored"] = {
        name: restored.table(name).columns_dict()
        for name in ("galaxy", "candidates")
    }
    log.values["live"] = {
        name: db.table(name).columns_dict()
        for name in ("galaxy", "candidates")
    }
    log.values["stored_bytes"] = sum(
        path.stat().st_size for path in state.directory.iterdir()
    )
    return log


# ----------------------------------------------------------------------
# answers: the numpy shadow
# ----------------------------------------------------------------------
def _between(column: np.ndarray, lo, hi) -> np.ndarray:
    return (column >= lo) & (column <= hi)


def _shadow_select(op: Op, galaxy: dict, candidates: dict) -> dict:
    if op.kind == "point":
        rows = galaxy["objid"] == op.params[0]
        return {k: galaxy[k][rows] for k in ("objid", "ra", "dec", "i")}
    if op.kind == "range":
        rows = _between(galaxy["zoneid"], *op.params)
        return {k: galaxy[k][rows] for k in ("objid", "ra", "dec")}
    if op.kind == "aggregate":
        mag, colour = op.params
        rows = (galaxy["i"] < mag) & (galaxy["ri"] > colour)
        return {
            "n": np.array([rows.sum()]),
            "mean_gr": np.array([galaxy["gr"][rows].mean()]),
            "lo_i": np.array([galaxy["i"][rows].min()]),
        }
    ngal, mag = op.params
    picked = candidates["ngal"] > ngal
    keys, counts = candidates["objid"][picked], candidates["ngal"][picked]
    order = np.argsort(galaxy["objid"], kind="stable")
    ids = galaxy["objid"][order]
    slot = np.minimum(np.searchsorted(ids, keys), ids.size - 1)
    found = ids[slot] == keys  # a deleted galaxy drops out of the join
    rows = order[slot[found]]
    keep = galaxy["i"][rows] < mag
    return {
        "objid": galaxy["objid"][rows][keep],
        "i": galaxy["i"][rows][keep],
        "ngal": counts[found][keep],
    }


def _shadow_write(op: Op, galaxy: dict) -> tuple[dict, int]:
    rows = _between(galaxy["objid"], op.params[0], op.params[1])
    affected = int(rows.sum())
    if op.kind == "insert":
        copies = {k: v[rows] for k, v in galaxy.items()}
        copies["objid"] = copies["objid"] + op.params[2]
        galaxy = {k: np.concatenate([galaxy[k], copies[k]]) for k in galaxy}
    elif op.kind == "update":
        galaxy = dict(galaxy, i=np.where(rows, galaxy["i"] + 0.01, galaxy["i"]))
    else:
        galaxy = {k: v[~rows] for k, v in galaxy.items()}
    return galaxy, affected


def corrupt(log: PassLog) -> None:
    """Damage one recorded answer; ``verify`` must notice."""
    for n, answer in enumerate(log.answers):
        if isinstance(answer, tuple):
            columns, plan = answer
            name = next(iter(columns))
            damaged = {**columns, name: np.asarray(columns[name])[:-1]}
            log.answers[n] = (damaged, plan)
            return


def verify(state: State, log: PassLog) -> tuple[int, int]:
    """Replay the ops on the shadow; compare every answer, then tables."""
    galaxy, candidates = state.galaxy, state.candidates
    failed = 0
    for op, answer in zip(log.values["ops"], log.answers):
        if op.kind in FAMILIES:
            want = _shadow_select(op, galaxy, candidates)
            key = "objid" if "objid" in want else "n"
            failed += not same_rows(answer[0], want, key)
        else:
            galaxy, affected = _shadow_write(op, galaxy)
            failed += affected != answer
    shadow = {"galaxy": galaxy, "candidates": candidates}
    for tables in (log.values["live"], log.values["restored"]):
        for name, want in shadow.items():
            failed += batch_digest(tables[name]) != batch_digest(want)
    log.values["user_bytes"] = sum(
        column.nbytes for table in shadow.values() for column in table.values()
    )
    return len(log.answers) + 4, failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def workload_metrics(state: State, log: PassLog) -> dict[str, float]:
    return {
        "e2e.write_ms_p50": 1e3 * p50(log.samples["write_s"]),
        "e2e.stored_bytes_per_user_byte": (
            log.values["stored_bytes"] / log.values["user_bytes"]
        ),
    }


def layer_metrics(
    state: State, untraced: PassLog, traced: PassLog, tracer
) -> dict[str, float]:
    out = stages.front_end_metrics(tracer, untraced.samples["select_s"])
    out.update(stages.page_metrics(tracer))
    values = traced.values
    out.update(stages.cache_metrics(values["cache"]))
    out["engine.memo.hit_rate"] = values["memo_hit_rate"]
    out["engine.optimizer.feedback.replans"] = values["replans"]
    out["engine.optimizer.feedback.reanalyzes"] = values["reanalyzes"]
    out["obs.querystore.plans_tracked"] = values["plans_tracked"]
    plans = [a[1] for a in traced.answers if isinstance(a, tuple)]
    out["engine.index.index_plan_share"] = share(
        sum("Index" in plan for plan in plans), len(plans)
    )
    for kind in WRITES:
        out[f"engine.sql.executor.{kind}_ms_p50"] = 1e3 * p50(
            tracer.durations(f"engine.sql.executor.{kind}")
        )
    out["engine.storage.save_ms"] = 1e3 * p50(traced.samples["save_s"])
    out["engine.storage.load_ms"] = 1e3 * values["load_s"]
    out["engine.storage.stored_bytes"] = values["stored_bytes"]
    return out
