"""The one SELECT path: what a statement costs, and what it is keyed on.

``Database.sql`` / ``run_script`` / ``Executor._select`` all enter one
staged path (DESIGN.md, "Life of a SELECT").  These tests count the
work it does from outside — a statement is rewritten once and planned
once, in every ``EngineConfig`` corner — and pin the statement
fingerprints, which saved ``querystore.json`` files depend on.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.engine.compile import CompiledKernel
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.optimizer import rewrite as rewrite_module
from repro.engine.optimizer.planforce import plan_structure
from repro.engine.sql.planner import Planner
from repro.obs.slowlog import get_slow_log

FILTER_SQL = "SELECT COUNT(*) AS n FROM obj WHERE mag < 18"
BAND_SQL = (
    "SELECT COUNT(*) AS n FROM obj o JOIN grid g "
    "ON ABS(o.mag - g.lo) < 0.3"
)
VIEW_WRAP_SQL = (
    "SELECT b.id FROM (SELECT id, mag FROM bright) AS b "
    "WHERE b.mag < 16 ORDER BY b.id"
)
UNION_SQL = (
    "SELECT id FROM obj WHERE mag < 15 "
    "UNION ALL SELECT id FROM obj WHERE mag > 21"
)


def build_db(**knobs) -> Database:
    rng = np.random.default_rng(12)
    db = Database("path", config=EngineConfig(**knobs))
    db.create_table("obj", {
        "id": np.arange(600, dtype=np.int64),
        "mag": rng.uniform(14.0, 22.0, 600),
        "zoneid": rng.integers(0, 20, 600).astype(np.int64),
    }, primary_key="id")
    db.create_table("grid", {
        "gid": np.arange(40, dtype=np.int64),
        "lo": np.linspace(14.0, 21.8, 40),
        "hi": np.linspace(14.2, 22.0, 40),
    }, primary_key="gid")
    db.sql("CREATE VIEW bright AS SELECT id, mag FROM obj WHERE mag < 18")
    db.analyze()
    return db


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Top-level ``rewrite_statement`` calls and rewriting plannings.

    A UNION's per-branch recursion and the rewrites-off plannings that
    price a firing for the EXPLAIN trace are nested work, not counted.
    """
    counts: Counter = Counter()
    real_rewrite = rewrite_module.rewrite_statement
    real_plan = Planner.plan_select
    depth = 0

    def counting_rewrite(*args, **kwargs):
        nonlocal depth
        counts["rewrite"] += depth == 0
        depth += 1
        try:
            return real_rewrite(*args, **kwargs)
        finally:
            depth -= 1

    def counting_plan(self, stmt, **kwargs):
        counts["plan"] += bool(self.rewrites and not kwargs.get("_nested"))
        return real_plan(self, stmt, **kwargs)

    monkeypatch.setattr(rewrite_module, "rewrite_statement", counting_rewrite)
    monkeypatch.setattr(Planner, "plan_select", counting_plan)
    return counts


def taken(calls: Counter) -> tuple[int, int]:
    """``(rewrites, plannings)`` since the counter was last cleared."""
    return calls["rewrite"], calls["plan"]


@pytest.fixture
def everything_is_slow():
    log = get_slow_log()
    old = log.threshold_s
    log.clear()
    log.set_threshold(0.0)
    yield log
    log.set_threshold(old)
    log.clear()


CORNERS = {
    "default": {},
    "cache": {"result_cache": True},
    "store": {"query_store": True},
    "feedback": {"feedback": True},
    "cache+feedback+store": {
        "result_cache": True, "feedback": True, "query_store": True,
    },
}


class TestOneRewriteOnePlanning:
    @pytest.mark.parametrize("corner", CORNERS)
    @pytest.mark.parametrize(
        "sql", [FILTER_SQL, VIEW_WRAP_SQL], ids=["filter", "view_wrap"]
    )
    def test_a_miss_rewrites_once_and_plans_once(self, corner, sql, calls):
        db = build_db(**CORNERS[corner])
        calls.clear()
        db.sql(sql)
        assert taken(calls) == (1, 1)

    @pytest.mark.parametrize("corner", ["cache", "cache+feedback+store"])
    def test_a_cache_hit_plans_nothing(self, corner, calls):
        db = build_db(**CORNERS[corner])
        db.sql(VIEW_WRAP_SQL)
        calls.clear()
        hit = db.sql(VIEW_WRAP_SQL)
        assert hit.plan.startswith("[answered from cache]")
        assert taken(calls) == (0, 0)

    def test_a_memo_hit_plans_nothing(self, calls):
        db = build_db(feedback=True)
        db.sql(VIEW_WRAP_SQL)
        calls.clear()
        assert db.sql(VIEW_WRAP_SQL).memo_decision == "hit"
        assert taken(calls) == (0, 0)

    @pytest.mark.parametrize("corner", CORNERS)
    def test_the_slow_log_does_not_replan(
        self, corner, calls, everything_is_slow
    ):
        db = build_db(**CORNERS[corner])
        calls.clear()
        result = db.sql(VIEW_WRAP_SQL)
        assert taken(calls) == (1, 1)
        entry = everything_is_slow.entries()[-1]
        assert entry.plan == result.plan  # the plan that ran
        assert entry.fingerprint == result.fingerprint
        if "cache" in corner:
            calls.clear()
            db.sql(VIEW_WRAP_SQL)
            assert calls["plan"] == 0

    def test_union_branches_rewrite_once_each(self, calls):
        db = build_db(result_cache=True, feedback=True)
        calls.clear()
        db.sql(UNION_SQL)
        # one pass over the UNION for the cache key, then each branch
        # is keyed for the memo as its own nested SELECT
        assert taken(calls) == (3, 2)


class TestFingerprintsArePinned:
    """Hashes computed at the commit before the paths were merged."""

    PINNED = {
        FILTER_SQL: "2f2b2548ca42e3e29249a62ca6d30870",
        BAND_SQL: "0712516f95e2926ba17fe04936c51e19",
        VIEW_WRAP_SQL: "666c8c445706b8da8238a68bf721c121",
        "SELECT id FROM obj WHERE 1 = 1 AND zoneid = 3 ORDER BY id":
            "9c9d9bd7db483598b791fa900730d7de",
        # the second branch of UNION_SQL, keyed as its own SELECT
        "SELECT id FROM obj WHERE mag > 21":
            "e033d8b23f17a601d9398605ba981320",
    }

    def test_statement_keys(self):
        db = build_db(feedback=True)
        assert {q: db.statement_key(q) for q in self.PINNED} == self.PINNED

    def test_union_takes_the_hash_the_result_cache_keyed_it_on(self):
        db = build_db(result_cache=True)
        assert db.statement_key(UNION_SQL) == "bc675c87c317f858fce6d7582de2e1d6"
        db.sql(UNION_SQL)
        (entry,) = db.result_cache._lru._entries
        assert entry[0] == "bc675c87c317f858fce6d7582de2e1d6"

    def test_mode_tag_separates_configs(self):
        plain = build_db(rewrites=False, optimizer="syntactic",
                         compiled_expressions=False)
        assert plain.statement_key(FILTER_SQL) == (
            "37936e3be8e88fac07ba4460a9134f0a"
        )


class TestRewriteFixpointsArePinned:
    """Keys of the golden-plan and rewrite-test queries, computed before
    the expression rules and the CTE/view inliners were merged.  Each
    hashes a rewritten statement, so these pin the rewrite fixpoint."""

    GOLDEN = {
        "constant_fold": "6f2a00d1ee83478efa58885a136f09f4",
        "double_negation": "e86288c40250036e3c64ebbc71fcb72a",
        "cte_inline": "445d05cc6f9203cc02b09ac394013ec7",
        "predicate_pushdown": "049c7fae992dfd2824cc6ffbdd08bb0e",
        "derived_merge": "6c0b3ef750dedaf0fcebce4b30f3b840",
        # no rule rewrites an IN / EXISTS subquery: the planner plans
        # it as a semi-join, so these two hash the statement as written
        "in_decorrelate": "1c615192db0f3aff737b5d199d386f9f",
        "exists_decorrelate": "86ffe49f7ed722bfec8365b7b9b3c7eb",
        "left_join_elim": "50b913b3e348aec07c181193b8fe7a59",
        "aggregate_pushdown": "6e2ecfc208ddb80a5f6ad366fe0abdde",
        "having_pushdown": "c7b79d0d48ef770c5634146adb39ef26",
    }

    REWRITE = {
        "SELECT id FROM t1 WHERE 2 + 2 = 4 AND a > 0 ORDER BY id":
            "77feaa3168e2170825466bb897f208dc",
        "SELECT id FROM t1 WHERE 1 = 1 ORDER BY id":
            "1f54bf0535cdf1d05cab7a1a636d081d",
        "SELECT id FROM t1 WHERE NOT (NOT (a > 0)) ORDER BY id":
            "77feaa3168e2170825466bb897f208dc",
        "WITH f AS (SELECT id, a FROM t1 WHERE a > 0) "
        "SELECT id FROM f ORDER BY id":
            "1ee4bfe0c9b8248db5d5729057c42862",
        "SELECT id, a FROM v1 WHERE a > 0 ORDER BY id":
            "8bc5a7c1b4d9542cd4922b152b4d6eda",
        "SELECT k, COUNT(*) AS n FROM t1 GROUP BY k "
        "HAVING k > 3 AND COUNT(*) > 1 ORDER BY k":
            "944d1f9a7bdc068608fbf6c761cf3cda",
        "SELECT k, COUNT(*) AS n FROM t1 GROUP BY k HAVING k > 100":
            "dc3e97093c1b614d97ce7a271e5816d9",
        "SELECT t1.id FROM t1 LEFT JOIN t3 ON t3.k = t1.k ORDER BY t1.id":
            "4b5f55cab6d2e6a78d1c42c0a5654115",
        "SELECT d.id, d.s FROM (SELECT id, a + k AS s FROM t1 "
        "WHERE a > 0) d WHERE d.s > 3 ORDER BY d.id":
            "5c97fa291a0ffcaf34c54a308d427086",
        "SELECT * FROM (SELECT id, a FROM t1) d WHERE d.a > 7 ORDER BY id":
            "d78d23faa6bc6bda035e8d8cefafbb83",
        # the statement as written, as for the two golden IN / EXISTS
        "SELECT id FROM t1 WHERE k IN (SELECT k FROM t2 WHERE c > 50) "
        "ORDER BY id":
            "e85e10f6afbaa349b6b560e9745392a9",
        "SELECT t3.k, SUM(t1.a) AS sa, MAX(t1.b) AS hi FROM t3 "
        "INNER JOIN t1 ON t1.k = t3.k GROUP BY t3.k ORDER BY t3.k":
            "6e2ecfc208ddb80a5f6ad366fe0abdde",
        # the metamorphic wraps and the base query they reduce to
        "SELECT id, a, b FROM t1 WHERE a > 5 AND 1 = 1 ORDER BY id":
            "626df6b916b008006e31bb6d594b18d3",
        "SELECT id, a, b FROM t1 WHERE NOT (NOT (a > 5)) ORDER BY id":
            "626df6b916b008006e31bb6d594b18d3",
        "WITH w AS (SELECT id, a, b FROM t1) "
        "SELECT id, a, b FROM w WHERE a > 5 ORDER BY id":
            "1bcb00f9ecae6bb13fd0451359032549",
        "SELECT * FROM (SELECT id, a, b FROM t1) d WHERE d.a > 5 ORDER BY id":
            "e01b8112853fab5f89d0145d3ebc3adb",
        "SELECT id, a, b FROM t1 WHERE a > 5 ORDER BY id":
            "626df6b916b008006e31bb6d594b18d3",
        "SELECT id, a, b FROM v1 WHERE a > 5 ORDER BY id":
            "50feb7de583e78329ad32580a939d2f5",
    }

    def test_golden_queries(self):
        from tests.test_golden_plans import GOLDEN_QUERIES
        from tests.test_golden_plans import build_db as build_golden_db

        db = build_golden_db(rewrites=True)
        keys = {
            name: db.statement_key(sql) for name, sql in GOLDEN_QUERIES.items()
        }
        assert keys == self.GOLDEN

    def test_rule_and_metamorphic_queries(self):
        from tests.test_engine_rewrite import METAMORPHS, RULE_SQL
        from tests.test_engine_rewrite import build_db as build_rewrite_db

        covered = set(RULE_SQL) | {sql for sql, _ in METAMORPHS.values()}
        assert covered <= set(self.REWRITE)
        db = build_rewrite_db()
        assert {q: db.statement_key(q) for q in self.REWRITE} == self.REWRITE


class TestLiveConfig:
    def test_flipping_band_joins_misses_the_memo(self):
        """A memoized BandJoin plan must not outlive band_joins=True."""
        # a ceiling no estimate breaches: the second run is a plain hit
        db = build_db(feedback=True, qerror_ceiling=1e9)
        first, second = db.sql(BAND_SQL), db.sql(BAND_SQL)
        assert (first.memo_decision, second.memo_decision) == ("miss", "hit")
        assert "BandJoin" in second.plan
        db.config = db.config.replace(band_joins=False)
        third = db.sql(BAND_SQL)
        assert third.memo_decision != "hit"
        assert "BandJoin" not in third.plan
        assert third.columns["n"].tobytes() == first.columns["n"].tobytes()
        assert db.config.plan_signature() == (
            "cost+rewrite+compiled+nobandjoins"
        )

    def test_flipping_band_joins_misses_the_result_cache(self):
        """A cached BandJoin answer must not serve the oracle arm."""
        db = build_db(result_cache=True)
        first, second = db.sql(BAND_SQL), db.sql(BAND_SQL)
        assert second.plan.startswith("[answered from cache]")
        assert "BandJoin" in db.explain(BAND_SQL)
        db.config = db.config.replace(band_joins=False)
        third = db.sql(BAND_SQL)
        assert not third.plan.startswith("[answered from cache]")
        assert "BandJoin" not in third.plan
        assert "BandJoin" not in db.explain(BAND_SQL)
        assert third.columns["n"].tobytes() == first.columns["n"].tobytes()

    def test_flipping_band_joins_changes_the_statement_key(self):
        db = build_db()
        on = db.statement_key(BAND_SQL)
        db.config = db.config.replace(band_joins=False)
        off = db.statement_key(BAND_SQL)
        assert on is not None and off is not None and on != off
        db.config = db.config.replace(band_joins=True)
        assert db.statement_key(BAND_SQL) == on

    def test_band_join_arms_keep_separate_feedback(self):
        db = build_db(feedback=True, qerror_ceiling=1e9)
        on = db.statement_key(BAND_SQL)
        db.sql(BAND_SQL)
        db.sql(BAND_SQL)
        db.config = db.config.replace(band_joins=False)
        off = db.statement_key(BAND_SQL)
        db.sql(BAND_SQL)
        store = db.feedback.store
        assert (store.get(on).executions, store.get(off).executions) == (2, 1)

    def test_long_lived_planner_follows_the_config(self):
        db = build_db()
        assert "BandJoin" in db.sql(BAND_SQL).plan
        db.config = db.config.replace(rewrites=False, band_joins=False)
        result = db.sql(VIEW_WRAP_SQL)
        assert "Rewrite" not in result.plan
        assert "BandJoin" not in db.sql(BAND_SQL).plan


class TestRunScriptTakesTheSamePath:
    def test_repeated_select_hits_cache_and_store(self):
        db = build_db(result_cache=True, query_store=True)
        first, second = db.run_script(f"{FILTER_SQL};\n{FILTER_SQL};")
        assert not first.plan.startswith("[answered from cache]")
        assert second.plan.startswith("[answered from cache]")
        assert second.columns["n"].tobytes() == first.columns["n"].tobytes()
        stats = db.sql(
            "SELECT fingerprint, executions, cache_hits "
            "FROM sys_query_store_runtime_stats"
        ).rows()
        assert stats == [{
            "fingerprint": db.statement_key(FILTER_SQL),
            "executions": 2,
            "cache_hits": 1,
        }]

    def test_script_statements_reach_the_slow_log(self, everything_is_slow):
        db = build_db()
        everything_is_slow.clear()
        db.run_script(f"{FILTER_SQL}; {BAND_SQL}")
        assert len(everything_is_slow.entries()) == 2

    def test_a_syntax_error_runs_nothing(self):
        db = build_db()
        with pytest.raises(Exception):
            db.run_script("DELETE FROM obj; SELEKT 1")
        assert db.table("obj").row_count == 600


PROJECT_SQL = "SELECT id, mag * 2 AS m2 FROM obj WHERE mag < 18 AND zoneid > 3"
ZONE_SQL = "SELECT COUNT(*) AS n FROM obj WHERE zoneid = 3"


class TestTheMeasuredPlanIsThePlanThatRuns:
    """EXPLAIN and EXPLAIN ANALYZE are stops on the path, not forks of
    it: they see the forced plan and the memo, and measuring a plan runs
    that plan's own nodes."""

    @pytest.mark.parametrize("corner", ["default", "feedback", "store"])
    def test_analyze_measures_the_structure_sql_runs(self, corner):
        db = build_db(**CORNERS[corner])
        for sql in (PROJECT_SQL, BAND_SQL, VIEW_WRAP_SQL):
            ran = db.sql(sql)
            report = db.explain_analyze(sql)
            assert plan_structure(report.plan) == plan_structure(ran.plan_node)
            assert report.result.keys() == ran.columns.keys()
            for name, column in ran.columns.items():
                assert report.result[name].tobytes() == column.tobytes()

    def test_a_memoized_plan_is_measured_in_place(self):
        db = build_db(feedback=True, qerror_ceiling=1e9)
        ran = db.sql(PROJECT_SQL)
        assert db.explain_analyze(PROJECT_SQL).plan is ran.plan_node
        assert db.explain(PROJECT_SQL) == ran.plan

    def test_explain_and_analyze_see_the_forced_plan(self):
        db = build_db(query_store=True, feedback=True)
        pinned = db.sql(ZONE_SQL)
        fp = db.statement_key(ZONE_SQL)
        db.force_plan(fp, db.query_store.query(fp).current_plan_id)
        # the planner would now range-scan the index, not the pinned
        # SeqScan; an index build keeps the fingerprint
        db.create_clustered_index("obj", "zoneid")
        db.analyze()
        assert db.statement_key(ZONE_SQL) == fp
        assert db.sql(ZONE_SQL).memo_decision == "forced"
        assert db.explain(ZONE_SQL) == pinned.plan
        report = db.explain_analyze(ZONE_SQL)
        assert report.plan is pinned.plan_node
        assert report.node("SeqScan").calls == 1
        # a knob flip is a new fingerprint, which the pin does not cover
        db.config = db.config.replace(band_joins=False)
        assert db.statement_key(ZONE_SQL) != fp
        assert db.sql(ZONE_SQL).memo_decision != "forced"
        assert "IndexRangeScan" in db.explain(ZONE_SQL)
        db.config = db.config.replace(band_joins=True)
        assert db.explain(ZONE_SQL) == pinned.plan
        db.unforce_plan(fp)
        assert "IndexRangeScan" in db.explain(ZONE_SQL)

    def test_explain_of_a_cached_statement_is_the_cached_plan(self):
        db = build_db(result_cache=True)
        ran = db.sql(PROJECT_SQL)
        assert db.explain(PROJECT_SQL) == db.sql(PROJECT_SQL).plan
        assert db.explain(PROJECT_SQL) == "[answered from cache]\n" + ran.plan
        # EXPLAIN ANALYZE skips the lookup: it measures an execution
        assert db.explain_analyze(PROJECT_SQL).node("SeqScan").calls == 1

    def test_kernels_compile_once_per_memoized_plan(self, monkeypatch):
        built = Counter()
        real_init = CompiledKernel.__init__

        def counting_init(self, *args, **kwargs):
            built["kernels"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(CompiledKernel, "__init__", counting_init)
        db = build_db(feedback=True, qerror_ceiling=1e9)
        decisions = [db.sql(PROJECT_SQL).memo_decision for _ in range(8)]
        assert decisions == ["miss"] + ["hit"] * 7
        db.explain_analyze(PROJECT_SQL)
        # the fused Project's program and the absorbed Filter's own
        # (built to describe it): 2, not 2 per execution
        assert built["kernels"] == 2

    def test_concurrent_executions_of_one_plan_keep_their_own_records(self):
        """The ``ThreadJobPool`` case: worker threads run one memoized
        plan object at once; each execution's records are its own."""
        db = build_db(feedback=True, qerror_ceiling=1e9)
        expected = db.sql(PROJECT_SQL)
        workers, rounds = 4, 25
        barrier = threading.Barrier(workers)
        results: list = []

        def worker():
            barrier.wait(timeout=30)
            for _ in range(rounds):
                results.append(db.sql(PROJECT_SQL))

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == workers * rounds
        for result in results:
            assert result.plan_node is expected.plan_node
            assert result.columns["id"].tobytes() == (
                expected.columns["id"].tobytes()
            )
            stats = result.node_stats
            assert [n.calls for n in stats] == [1] * len(expected.node_stats)
            assert [n.rows for n in stats] == [
                n.rows for n in expected.node_stats
            ]
