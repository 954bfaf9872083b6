"""Semantic result cache, materialized views, and EngineConfig."""

import dataclasses
import random
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.cache import ResultCache, batch_nbytes, referenced_tables
from repro.engine.config import (
    DEFAULT_ENGINE_CONFIG,
    PLANNING_KNOBS,
    EngineConfig,
)
from repro.engine.database import Database
from repro.engine.memo import PlanMemo
from repro.engine.sql.parser import parse
from repro.errors import EngineError, SqlPlanError


def make_db(config: EngineConfig | None = None) -> Database:
    d = Database("cachedb", config=config or EngineConfig(result_cache=True))
    rng = np.random.default_rng(11)
    n = 500
    d.create_table(
        "galaxy",
        {
            "objid": np.arange(n),
            "zoneid": rng.integers(0, 20, n),
            "mag": rng.uniform(14, 22, n),
        },
        primary_key="objid",
    )
    d.create_table(
        "field",
        {"fieldid": np.arange(10), "seeing": rng.uniform(0.8, 2.0, 10)},
        primary_key="fieldid",
    )
    return d


@pytest.fixture()
def db() -> Database:
    return make_db()


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.optimizer == "cost"
        assert config.result_cache is False
        assert config == DEFAULT_ENGINE_CONFIG

    def test_validation(self):
        with pytest.raises(EngineError):
            EngineConfig(optimizer="bogus")
        with pytest.raises(EngineError):
            EngineConfig(pool_pages=0)
        with pytest.raises(EngineError):
            EngineConfig(cache_max_entries=0)

    def test_knob_set(self):
        assert len(dataclasses.fields(EngineConfig)) == 10
        assert PLANNING_KNOBS == (
            "optimizer", "band_joins", "rewrites", "compiled_expressions"
        )
        assert DEFAULT_ENGINE_CONFIG.plan_signature() == (
            "cost+rewrite+compiled"
        )
        for removed in ("intra_query_workers", "page_compression"):
            with pytest.raises(TypeError, match=removed):
                EngineConfig(**{removed: 1})

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_ENGINE_CONFIG.optimizer = "syntactic"

    def test_replace_revalidates(self):
        tuned = DEFAULT_ENGINE_CONFIG.replace(band_joins=False)
        assert tuned.band_joins is False
        assert DEFAULT_ENGINE_CONFIG.band_joins is True
        with pytest.raises(EngineError):
            DEFAULT_ENGINE_CONFIG.replace(optimizer="bogus")

    def test_database_takes_config(self):
        d = Database("c", config=EngineConfig(optimizer="syntactic"))
        assert d.config.optimizer == "syntactic"
        assert d.result_cache is None  # off by default

    def test_config_assignment_flips_planning_knobs_only(self):
        d = Database("c", config=EngineConfig(result_cache=True))
        d.config = d.config.replace(band_joins=False, rewrites=False)
        assert d.config.plan_signature() == EngineConfig(
            band_joins=False, rewrites=False).plan_signature()
        with pytest.raises(EngineError, match="pool_pages, result_cache"):
            d.config = EngineConfig(pool_pages=64)
        assert d.config.result_cache and d.config.band_joins is False


class TestResultCacheUnit:
    KEY_A = ("a" * 32, (("galaxy", 0),))
    KEY_B = ("b" * 32, (("galaxy", 0),))

    def batch(self, n=4):
        return {"x": np.arange(n, dtype=np.int64)}

    def test_get_returns_copies(self):
        cache = ResultCache()
        cache.put(self.KEY_A, self.batch(), "plan", {"galaxy"})
        hit = cache.get(self.KEY_A)
        hit.columns["x"][:] = -1
        again = cache.get(self.KEY_A)
        assert again.columns["x"][0] == 0  # mutation didn't poison

    def test_lru_eviction_by_entries(self):
        cache = ResultCache(max_entries=2)
        cache.put(self.KEY_A, self.batch(), "", {"galaxy"})
        cache.put(self.KEY_B, self.batch(), "", {"galaxy"})
        cache.get(self.KEY_A)  # A is now most recent
        cache.put(("c" * 32, ()), self.batch(), "", set())
        assert cache.get(self.KEY_B) is None  # B was LRU, evicted
        assert cache.get(self.KEY_A) is not None
        assert cache.stats.evictions == 1

    def test_eviction_by_bytes(self):
        one = batch_nbytes(self.batch())
        cache = ResultCache(max_bytes=2 * one)
        cache.put(self.KEY_A, self.batch(), "", {"galaxy"})
        cache.put(self.KEY_B, self.batch(), "", {"galaxy"})
        cache.put(("c" * 32, ()), self.batch(), "", set())
        assert len(cache) == 2
        assert cache.bytes_used <= 2 * one

    def test_oversized_result_refused(self):
        cache = ResultCache(max_bytes=8)
        assert cache.put(self.KEY_A, self.batch(1000), "", set()) is False
        assert len(cache) == 0

    def test_constructor_takes_only_bounds(self):
        for removed in ("ttl_s", "metrics_prefix"):
            with pytest.raises(TypeError, match=removed):
                ResultCache(**{removed: None})

    def test_invalidate_table(self):
        cache = ResultCache()
        cache.put(self.KEY_A, self.batch(), "", {"galaxy"})
        cache.put(self.KEY_B, self.batch(), "", {"field"})
        assert cache.invalidate_table("GALAXY") == 1
        assert cache.get(self.KEY_A) is None
        assert cache.get(self.KEY_B) is not None


REPLAY_KEYS = 10
REPLAY_TABLES = ("galaxy", "field", "zone")


def replay_cache(seed: int = 2005, ops: int = 400):
    """Seeded get/put/invalidate against a small ResultCache.

    Returns the counters, the keys each put evicted (in put order), the
    surviving keys and the bytes held.  Only public calls, so the same
    replay runs against any version of the cache.
    """
    rng = random.Random(seed)
    keys = [(f"{i:032x}", ()) for i in range(REPLAY_KEYS)]
    cache = ResultCache(max_bytes=8 * 64, max_entries=4)

    def live():
        return {i for i, key in enumerate(keys) if cache.peek(key) is not None}

    evicted = []
    for _ in range(ops):
        roll, k = rng.random(), rng.randrange(REPLAY_KEYS)
        if roll < 0.4:
            cache.get(keys[k])
        elif roll < 0.9:
            before = live()
            n = rng.randrange(1, 40)
            cache.put(keys[k], {"x": np.arange(n, dtype=np.int64)}, "",
                      {rng.choice(REPLAY_TABLES)})
            evicted.extend(sorted(before - live() - {k}))
        else:
            cache.invalidate_table(rng.choice(REPLAY_TABLES).upper())
    s = cache.stats
    counts = (s.hits, s.misses, s.inserts, s.evictions, s.invalidations)
    return counts, evicted, sorted(live()), cache.bytes_used


def bound_plan(generation: int) -> SimpleNamespace:
    """A stand-in plan root stamped with a catalog generation."""
    return SimpleNamespace(generation=generation)


def replay_memo(seed: int = 2005, ops: int = 400):
    """Seeded get/put/statistics drift/catalog drift/invalidation
    against a small PlanMemo; returns counters, evicted keys and the
    surviving keys in recency order."""
    rng = random.Random(seed)
    stats = dict.fromkeys(REPLAY_TABLES, 0)
    generation = 0
    memo = PlanMemo(max_entries=4)

    def live():
        return [int(e.key) for e in memo.entries()]

    evicted = []
    for _ in range(ops):
        roll, k = rng.random(), rng.randrange(REPLAY_KEYS)
        key, table = str(k), REPLAY_TABLES[k % 3]
        fresh = ({table: stats[table]}, 0)
        if roll < 0.45:
            memo.get(key, generation, *fresh)
        elif roll < 0.85:
            before = set(live())
            memo.put(key, bound_plan(generation), *fresh)
            evicted.extend(sorted(before - set(live()) - {k}))
        elif roll < 0.93:
            stats[rng.choice(REPLAY_TABLES)] += 1
        elif roll < 0.97:
            generation += 1
        else:
            memo.invalidate_fingerprint(str(k))
    s = memo.stats
    counts = (s.hits, s.misses, s.inserts, s.evictions, s.invalidations)
    return counts, evicted, live()


class TestBoundedLRU:
    """The one LRU behind the result cache and the plan memo."""

    def test_cache_replay_is_pinned(self):
        counts, evicted, live, nbytes = replay_cache()
        assert counts == (45, 122, 185, 92, 37)
        assert "".join(map(str, evicted)) == (
            "15903451623891609302731520950431680145875366240816296703201394"
            "672381934025829451781579203986"
        )
        assert (live, nbytes) == ([2, 3, 4, 9], 480)

    def test_memo_replay_is_pinned(self):
        counts, evicted, live = replay_memo()
        assert counts == (63, 129, 146, 63, 27)
        assert "".join(map(str, evicted)) == (
            "182510658309730842742635724089635974241301526483068320929827480"
        )
        assert live == [2, 4, 9, 6]

    def test_concurrent_callers_keep_the_bounds_and_the_counts(self):
        cache = ResultCache(max_bytes=8 * 64, max_entries=4)
        memo = PlanMemo(max_entries=4)
        gets = {"cache": [0] * 4, "memo": [0] * 4}
        errors = []

        def worker(index: int) -> None:
            rng = random.Random(index)
            try:
                for _ in range(500):
                    roll, k = rng.random(), rng.randrange(REPLAY_KEYS)
                    table = REPLAY_TABLES[k % 3]
                    generation = rng.randrange(2)
                    if roll < 0.25:
                        cache.get((str(k), ()))
                        gets["cache"][index] += 1
                    elif roll < 0.45:
                        n = rng.randrange(1, 40)
                        cache.put((str(k), ()),
                                  {"x": np.arange(n, dtype=np.int64)}, "",
                                  {table})
                    elif roll < 0.7:
                        memo.get(str(k), generation, {table: 0}, 0)
                        gets["memo"][index] += 1
                    elif roll < 0.9:
                        memo.put(str(k), bound_plan(generation),
                                 {table: 0}, 0)
                    elif roll < 0.95:
                        cache.invalidate_table(table)
                    else:
                        memo.invalidate_fingerprint(str(k))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 4
        assert cache.bytes_used == sum(
            e.nbytes for e in cache._lru.entries()
        )
        assert cache.bytes_used <= 8 * 64
        assert cache.stats.hits + cache.stats.misses == sum(gets["cache"])
        assert len(memo) <= 4
        assert memo.stats.hits + memo.stats.misses == sum(gets["memo"])


class TestReferencedTables:
    """Subqueries anywhere in a statement's expressions are dependencies."""

    @pytest.fixture()
    def db(self):
        d = make_db()
        d.create_table("zone", {"zoneid": np.arange(20)})
        return d

    @pytest.mark.parametrize("sql, tables", [
        ("SELECT CASE WHEN EXISTS (SELECT fieldid FROM field) THEN 1 "
         "ELSE 0 END AS f FROM galaxy", {"galaxy", "field"}),
        ("SELECT objid FROM galaxy WHERE EXISTS (SELECT fieldid FROM field "
         "WHERE fieldid IN (SELECT zoneid FROM zone))",
         {"galaxy", "field", "zone"}),
        ("SELECT objid FROM galaxy WHERE (CASE WHEN EXISTS (SELECT zoneid "
         "FROM zone) THEN 1 ELSE 0 END) IN (SELECT fieldid FROM field)",
         {"galaxy", "field", "zone"}),
        ("SELECT objid FROM galaxy WHERE EXISTS (SELECT fieldid FROM field "
         "WHERE fieldid IN (SELECT zoneid FROM nosuch))", None),
    ])
    def test_nested_subqueries(self, db, sql, tables):
        assert referenced_tables(parse(sql), db) == tables


class TestDatabaseCache:
    Q = "SELECT zoneid, COUNT(*) AS n FROM galaxy GROUP BY zoneid"

    def test_second_run_answered_from_cache(self, db):
        first = db.sql(self.Q)
        second = db.sql(self.Q)
        assert second.plan.startswith("[answered from cache]")
        assert list(second.columns) == list(first.columns)
        for name in first.columns:
            assert np.array_equal(second.columns[name], first.columns[name])

    def test_formatting_variants_share_an_entry(self, db):
        db.sql(self.Q)
        variant = db.sql(
            "select   ZONEID, count( * ) as N from GALAXY group by zoneid"
        )
        assert variant.plan.startswith("[answered from cache]")

    def test_explain_marks_cached_statements(self, db):
        assert "[answered from cache]" not in db.explain(self.Q)
        db.sql(self.Q)
        assert db.explain(self.Q).startswith("[answered from cache]")

    @pytest.mark.parametrize(
        "error, counted", [(SqlPlanError("no"), 0), (ValueError("bug"), 1)]
    )
    def test_unrewritable_statement_runs_uncached(
        self, db, monkeypatch, error, counted
    ):
        """A failing rewrite turns caching off for the statement; only an
        exception that is not the engine's own counts as swallowed."""
        from repro.engine.optimizer import rewrite
        from repro.obs.metrics import get_metrics

        def failing_rewrite(*args, **kwargs):
            raise error

        swallowed = get_metrics().counter("engine.swallowed_errors")
        site = get_metrics().counter(
            "engine.swallowed_errors.cache.plan_fingerprint"
        )
        before = swallowed.value, site.value
        monkeypatch.setattr(rewrite, "rewrite_statement", failing_rewrite)
        assert db.statement_key(self.Q) is None
        assert (swallowed.value, site.value) == (
            before[0] + counted, before[1] + counted
        )

    def test_dml_invalidates(self, db):
        before = db.sql(self.Q)
        db.sql("INSERT INTO galaxy VALUES (9001, 3, 15.5)")
        after = db.sql(self.Q)
        assert not after.plan.startswith("[answered from cache]")
        n_before = int(np.sum(before.columns["n"]))
        assert int(np.sum(after.columns["n"])) == n_before + 1

    def test_view_queries_track_base_tables(self, db):
        db.sql("CREATE VIEW bright AS SELECT objid FROM galaxy WHERE mag < 18")
        q = "SELECT COUNT(*) AS c FROM bright"
        db.sql(q)
        assert db.sql(q).plan.startswith("[answered from cache]")
        db.sql("DELETE FROM galaxy WHERE objid = 0")
        assert not db.sql(q).plan.startswith("[answered from cache]")

    def test_cache_off_database_never_claims_cache(self):
        d = make_db(EngineConfig(result_cache=False))
        assert d.result_cache is None
        d.sql(self.Q)
        assert not d.sql(self.Q).plan.startswith("[answered from cache]")

    def test_cache_on_off_answers_identical(self, db):
        off = make_db(EngineConfig(result_cache=False))
        db.sql(self.Q)  # warm
        cached = db.sql(self.Q)
        direct = off.sql(self.Q)
        for name in direct.columns:
            assert np.array_equal(cached.columns[name], direct.columns[name])

    def test_stats_summary_reports_cache(self, db):
        db.sql(self.Q)
        db.sql(self.Q)
        summary = db.stats_summary()
        assert summary["cache_hits"] == 1
        assert summary["cache_entries"] == 1


class TestMaterializedViews:
    DEF = ("CREATE MATERIALIZED VIEW zone_counts AS "
           "SELECT zoneid, COUNT(*) AS n FROM galaxy GROUP BY zoneid")
    Q = "SELECT zoneid, COUNT(*) AS n FROM galaxy GROUP BY zoneid"

    def test_create_populates_a_real_table(self, db):
        result = db.sql(self.DEF)
        assert result.rows_affected == 20
        assert db.has_table("zone_counts")
        assert db.has_matview("zone_counts")
        direct = db.sql("SELECT COUNT(*) AS c FROM zone_counts").scalar()
        assert direct == 20

    def test_matching_select_substitutes(self, db):
        db.sql(self.DEF)
        plan = db.explain(self.Q)
        assert "answered from matview zone_counts" in plan
        by_matview = db.sql(self.Q)
        fresh = make_db().sql(self.Q)
        order = np.argsort(by_matview.columns["zoneid"])
        assert np.array_equal(
            by_matview.columns["n"][order], fresh.columns["n"]
        )

    def test_stale_matview_not_substituted(self, db):
        db.sql(self.DEF)
        assert not db.matview_stale("zone_counts")
        db.sql("INSERT INTO galaxy VALUES (9001, 3, 15.5)")
        assert db.matview_stale("zone_counts")
        assert "answered from matview" not in db.explain(self.Q)

    def test_refresh_restores_substitution(self, db):
        db.sql(self.DEF)
        db.sql("INSERT INTO galaxy VALUES (9001, 3, 15.5)")
        refreshed = db.sql("REFRESH MATERIALIZED VIEW zone_counts")
        assert refreshed.rows_affected == 20
        assert not db.matview_stale("zone_counts")
        result = db.sql(self.Q)
        assert int(np.sum(result.columns["n"])) == 501

    def test_dml_into_matview_rejected(self, db):
        db.sql(self.DEF)
        for statement in (
            "INSERT INTO zone_counts VALUES (99, 1)",
            "UPDATE zone_counts SET n = 0 WHERE zoneid = 1",
            "DELETE FROM zone_counts WHERE zoneid = 1",
            "TRUNCATE TABLE zone_counts",
        ):
            with pytest.raises(SqlPlanError, match="materialized view"):
                db.sql(statement)

    def test_drop_table_refuses_matviews(self, db):
        db.sql(self.DEF)
        with pytest.raises(EngineError):
            db.drop_table("zone_counts")
        db.sql("DROP MATERIALIZED VIEW zone_counts")
        assert not db.has_table("zone_counts")
        db.sql("DROP MATERIALIZED VIEW IF EXISTS zone_counts")  # no raise

    def test_matview_works_without_result_cache(self):
        d = make_db(EngineConfig(result_cache=False))
        d.sql(self.DEF)
        assert "answered from matview" in d.explain(self.Q)
