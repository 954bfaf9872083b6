"""Stage 0 of the SELECT path: the catalog-versioned statement cache.

``Database._statement`` maps ``(text, config.plan_signature())`` to the
parsed statement and its ``PlanKey``, stamped with the catalog
generation.  These tests pin when an entry may be reused — never across
a catalog change or a config flip, never while a matview is being
(re)materialized — and that reuse answers exactly what a fresh parse
would, also from CasJobs worker threads sharing one database.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.casjobs.queue import QueueClass
from repro.casjobs.scheduler import SchedulerConfig
from repro.casjobs.server import CasJobsService
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TableNotFoundError
from tests.test_engine_select_path import (
    CORNERS,
    FILTER_SQL,
    VIEW_WRAP_SQL,
    build_db,
    calls,  # noqa: F401 - fixture
    taken,
)

VIEW_SQL = "SELECT COUNT(*) AS n FROM bright"


def hits(db: Database) -> int:
    return db._statements.stats.hits


class TestReuse:
    @pytest.mark.parametrize("corner", CORNERS)
    def test_a_repeated_select_parses_and_keys_once(self, corner):
        db = build_db(**CORNERS[corner])
        first = db._statement(VIEW_WRAP_SQL)
        again = db._statement(VIEW_WRAP_SQL)
        assert again[0] is first[0] and again[1] is first[1]
        # every SELECT is keyed: the plan memo reads the key in every
        # corner
        assert first[1] is not None

    def test_dml_text_is_not_kept(self):
        db = build_db(result_cache=True)
        db.sql("UPDATE obj SET mag = mag WHERE id = 1")
        db.sql(FILTER_SQL)
        assert len(db._statements) == 1

    def test_the_key_is_immutable(self):
        db = build_db(result_cache=True)
        _, keyed = db._statement(VIEW_WRAP_SQL)
        assert isinstance(keyed.tables, frozenset)

    def test_explain_and_statement_key_use_the_same_entry(self, calls):
        db = build_db(result_cache=True, feedback=True)
        ran = db.sql(VIEW_WRAP_SQL)
        calls.clear()
        before = hits(db)
        assert db.statement_key(VIEW_WRAP_SQL) == ran.fingerprint
        assert db.explain(VIEW_WRAP_SQL) == "[answered from cache]\n" + ran.plan
        assert db.explain_analyze(VIEW_WRAP_SQL).plan is not None
        assert hits(db) == before + 3
        # the measured run re-executes the memoized plan: no rewrite
        assert taken(calls) == (0, 0)


    @pytest.mark.parametrize("corner", ["feedback", "store"])
    def test_an_unkeyable_select_is_fingerprinted_once(
        self, corner, monkeypatch
    ):
        """A table-function reader has no key; the executor must not try
        again what the statement lookup already tried."""
        import repro.engine.cache as cache_module
        import repro.engine.database as database_module

        db = build_db(**CORNERS[corner])
        db.create_table_function(
            "ones", ("v",), lambda n: {"v": np.ones(int(n), dtype=np.int64)}
        )
        tried = []
        real = cache_module.plan_fingerprint

        def counting(*args):
            tried.append(args[0])
            return real(*args)

        monkeypatch.setattr(cache_module, "plan_fingerprint", counting)
        monkeypatch.setattr(database_module, "plan_fingerprint", counting)
        for _ in range(3):
            result = db.sql("SELECT v FROM ones(2) o")
            assert result.fingerprint is None
            assert result.column("v").tolist() == [1, 1]
        assert len(tried) == 1


class TestCatalogChangesReKey:
    @pytest.mark.parametrize("corner", CORNERS)
    def test_a_redefined_view_answers_its_new_body(self, corner):
        db = build_db(**CORNERS[corner])
        old_key = db.statement_key(VIEW_SQL)
        assert db.sql(VIEW_SQL).scalar() == int(
            (db.table("obj").columns_dict()["mag"] < 18).sum()
        )
        db.sql("DROP VIEW bright")
        db.sql("CREATE VIEW bright AS SELECT id, mag FROM obj WHERE mag < 16")
        assert db.sql(VIEW_SQL).scalar() == int(
            (db.table("obj").columns_dict()["mag"] < 16).sum()
        )
        assert db.statement_key(VIEW_SQL) != old_key

    def test_a_dropped_view_is_not_answered(self):
        db = build_db(result_cache=True)
        db.sql(VIEW_SQL)
        db.sql("DROP VIEW bright")
        with pytest.raises(TableNotFoundError):
            db.sql(VIEW_SQL)

    def test_a_created_view_is_resolved(self):
        db = build_db(result_cache=True)
        text = "SELECT COUNT(*) AS n FROM faint"
        with pytest.raises(TableNotFoundError):
            db.sql(text)
        db.sql("CREATE VIEW faint AS SELECT id FROM obj WHERE mag > 21")
        assert db.sql(text).scalar() == int(
            (db.table("obj").columns_dict()["mag"] > 21).sum()
        )
        assert db.sql(text).plan.startswith("[answered from cache]")

    def test_a_config_flip_re_keys(self):
        db = build_db(result_cache=True)
        first = db.sql(VIEW_WRAP_SQL)
        old_key = db.statement_key(VIEW_WRAP_SQL)
        db.config = db.config.replace(rewrites=False)
        flipped = db.sql(VIEW_WRAP_SQL)
        assert not flipped.plan.startswith("[answered from cache]")
        assert "Rewrite" not in flipped.plan
        assert db.statement_key(VIEW_WRAP_SQL) != old_key
        assert len(db._statements) == 2
        assert flipped.columns["id"].tobytes() == first.columns["id"].tobytes()

    def test_a_new_table_makes_the_next_call_fingerprint_afresh(self, calls):
        db = build_db(result_cache=True)
        text = "SELECT COUNT(*) AS n FROM later"
        with pytest.raises(Exception):
            db.sql(text)
        assert db.statement_key(text) is None
        db.create_table("later", {"x": np.arange(5, dtype=np.int64)})
        calls.clear()
        assert db.sql(text).scalar() == 5
        assert taken(calls) == (1, 1)
        assert db.statement_key(text) is not None
        assert db.sql(text).plan.startswith("[answered from cache]")

    def test_a_dropped_table_is_not_served_a_stale_key(self):
        db = build_db(result_cache=True)
        text = "SELECT COUNT(*) AS n FROM extra"
        db.create_table("extra", {"x": np.arange(3, dtype=np.int64)})
        assert db.sql(text).scalar() == 3
        db.drop_table("extra")
        db.create_table("extra", {"x": np.arange(7, dtype=np.int64)})
        assert db.sql(text).scalar() == 7

    def test_a_table_function_registration_bumps_the_generation(self):
        db = build_db()
        before = db._catalog_generation
        db.create_table_function(
            "ones", ("v",), lambda: {"v": np.ones(2, dtype=np.int64)}
        )
        assert db._catalog_generation == before + 1


class TestMatviews:
    MV_SQL = "SELECT zoneid, COUNT(*) AS n FROM obj GROUP BY zoneid"

    def test_a_refresh_does_not_go_through_the_cache(self, monkeypatch):
        db = build_db(result_cache=True, feedback=True)
        db.sql(f"CREATE MATERIALIZED VIEW mv AS {self.MV_SQL}")
        looked_up = []
        real_get = db._statements.get
        monkeypatch.setattr(
            db._statements, "get",
            lambda *args: looked_up.append(args[0]) or real_get(*args),
        )
        db.sql("INSERT INTO obj VALUES (9001, 15.0, 3)")
        db.refresh_materialized_view("mv")
        assert all(key[0] != self.MV_SQL for key in looked_up)
        with db._materializing():
            stmt, keyed = db._statement(self.MV_SQL)
        assert keyed is None and self.MV_SQL not in {
            key[0] for key in db._statements._entries
        }
        total = db.sql("SELECT SUM(n) AS total FROM mv").scalar()
        assert total == 601
        # the SELECT the matview answers sees the refreshed rows
        assert int(db.sql(self.MV_SQL).columns["n"].sum()) == 601


class TestQueryStoreViews:
    def test_a_repeated_system_view_query_sees_new_executions(self):
        db = build_db(result_cache=True, query_store=True)
        text = (
            "SELECT SUM(executions) AS n FROM sys_query_store_runtime_stats"
        )
        db.sql(FILTER_SQL)
        first = db.sql(text).scalar()
        db.sql(FILTER_SQL)
        db.sql(FILTER_SQL)
        assert db.sql(text).scalar() > first


class TestRunScript:
    def test_cached_statements_still_wait_for_the_whole_script(self):
        db = build_db(result_cache=True)
        db.sql(FILTER_SQL)
        with pytest.raises(Exception):
            db.run_script(f"{FILTER_SQL}; DELETE FROM obj; SELECT FROM")
        assert db.table("obj").row_count == 600

    def test_a_script_creating_what_it_reads(self):
        db = build_db(result_cache=True)
        text = "SELECT COUNT(*) AS n FROM fresh"
        with pytest.raises(Exception):
            db.sql(text)
        results = db.run_script(
            f"CREATE TABLE fresh (x BIGINT); INSERT INTO fresh VALUES (1); "
            f"{text}; {text}"
        )
        assert [r.scalar() for r in results[2:]] == [1, 1]
        assert results[3].plan.startswith("[answered from cache]")


def _casjobs_answers(pool: str, queries: list[str]) -> list[bytes]:
    rng = np.random.default_rng(5)
    context = Database("ctx", config=EngineConfig(
        result_cache=True, feedback=True, query_store=True
    ))
    context.create_table("obj", {
        "id": np.arange(2_000, dtype=np.int64),
        "mag": rng.uniform(14.0, 22.0, 2_000),
        "zoneid": rng.integers(0, 40, 2_000).astype(np.int64),
    }, primary_key="id")
    context.analyze()
    service = CasJobsService(
        "site", SchedulerConfig(pool=pool, max_workers=2, per_user_limit=4)
    )
    service.add_context("ctx", context)
    users = [f"u{n}" for n in range(4)]
    for user in users:
        service.register_user(user)
    jobs = [
        (users[n % len(users)], service.submit(
            users[n % len(users)], sql, context="ctx",
            queue_class=QueueClass.QUICK,
        ))
        for n, sql in enumerate(queries)
    ]
    service.process_queue()
    answers = []
    for user, job in jobs:
        columns = service.fetch(user, job.job_id).columns
        answers.append(b"".join(
            np.asarray(columns[name]).tobytes() for name in sorted(columns)
        ))
    service.scheduler.close()
    return answers


def test_threaded_casjobs_answers_as_the_sequential_pool():
    texts = [
        "SELECT COUNT(*) AS n FROM obj WHERE mag < 17",
        "SELECT zoneid, AVG(mag) AS m FROM obj GROUP BY zoneid ORDER BY zoneid",
        "SELECT id FROM obj WHERE zoneid = 7 ORDER BY id",
    ]
    queries = [texts[n % 3] for n in range(48)]
    assert _casjobs_answers("threads", queries) == _casjobs_answers(
        "sequential", queries
    )


def test_threads_share_entries_without_a_lost_count():
    """More threads than cores, switching every microsecond, on one
    database: every answer matches a cache-off twin, and the statement
    cache counted every lookup once."""
    db = build_db(result_cache=True, feedback=True)
    texts = [FILTER_SQL, VIEW_WRAP_SQL, VIEW_SQL]
    twin = build_db()
    expected = {
        text: [col.tobytes() for col in twin.sql(text).columns.values()]
        for text in texts
    }
    rounds, workers, wrong = 20, 4, []
    stats = db._statements.stats
    looked_up = stats.hits + stats.misses

    def work():
        for _ in range(rounds):
            for text in texts:
                got = [col.tobytes() for col in db.sql(text).columns.values()]
                if got != expected[text]:
                    wrong.append(text)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert stats.hits + stats.misses - looked_up == (
        rounds * workers * len(texts)
    )
