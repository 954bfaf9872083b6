"""The adaptive feedback optimizer: plan memo + q-error closed loop.

Covers the plan-memo layer (hits skip planning, catalog, statistics
and order changes force a miss, DML keeps the plan and its answers
right, never a stale cross-serve), the q-error edge
cases the instrumentation can produce (zero and NaN actuals), the
learned-selectivity override path (breach -> re-ANALYZE -> override ->
re-plan -> convergence), the observable surface (slow-query log fields,
``engine.feedback.*`` counters, ``QueryResult`` annotations), and the
cluster plumbing (per-worker memo summaries in ``WorkUnitOutcome``).
"""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.memo import MAX_FINGERPRINTS, PlanMemo
from repro.engine.optimizer.feedback import (
    MAX_OVERRIDE_RATIO,
    MIN_OVERRIDE_RATIO,
    FeedbackStore,
    SelectivityOverrides,
)
from repro.engine.optimizer.quality import Q_ERROR_CAP, q_error


def batch_digest(result) -> tuple:
    """A comparable, exact digest of a query result's batch."""
    return tuple(
        (name, result.columns[name].tobytes())
        for name in sorted(result.column_names)
    )


def make_db(config: EngineConfig | None = None, seed: int = 7) -> Database:
    db = Database(
        "feedbackdb",
        config=config or EngineConfig(feedback=True),
    )
    rng = np.random.default_rng(seed)
    n_b = 2000
    # b.k2 is skewed: 90% of rows on the hot value 0, the rest uniform;
    # c holds only the hot value, so the uniformity assumption in the
    # estimator underestimates b JOIN c badly even with fresh stats.
    k2 = np.where(np.arange(n_b) % 10 < 9, 0, np.arange(n_b) % 20)
    db.create_table(
        "a",
        {"k1": np.arange(40, dtype=np.int64), "x": rng.normal(size=40)},
        primary_key="k1",
    )
    db.create_table(
        "b",
        {"k1": np.arange(n_b, dtype=np.int64) % 40,
         "k2": k2.astype(np.int64)},
    )
    db.create_table(
        "c",
        {"k2": np.zeros(150, dtype=np.int64),
         "y": rng.normal(size=150)},
    )
    db.sql("ANALYZE")
    return db


SKEW_JOIN = (
    "SELECT COUNT(*) AS n FROM a JOIN b ON a.k1 = b.k1 "
    "JOIN c ON b.k2 = c.k2 WHERE a.x > 1.0"
)
SIMPLE_JOIN = (
    "SELECT COUNT(*) AS n FROM a JOIN b ON a.k1 = b.k1 WHERE a.x > 0"
)


# ---------------------------------------------------------------------------
# q-error edge cases (satellite: zero/NaN clamping)
# ---------------------------------------------------------------------------
class TestQErrorClamp:
    def test_both_zero_is_perfect(self):
        assert q_error(0, 0) == 1.0

    def test_zero_actual_is_finite(self):
        # est=1e6 vs actual=0: clamped actual floor of 1 row
        assert q_error(1e6, 0) == 1e6

    def test_zero_estimate_is_finite(self):
        assert q_error(0, 1e6) == 1e6

    def test_inf_estimate_clamped_to_cap(self):
        # an infinite estimate clamps to the cap before the ratio
        q = q_error(float("inf"), 10)
        assert math.isfinite(q)
        assert q == Q_ERROR_CAP / 10

    def test_nan_either_side_hits_cap(self):
        assert q_error(float("nan"), 10) == Q_ERROR_CAP
        assert q_error(10, float("nan")) == Q_ERROR_CAP

    def test_none_estimate_stays_none(self):
        assert q_error(None, 10) is None

    def test_always_finite_and_bounded(self):
        for est, actual in [(0, 0), (0, 1), (1, 0), (1e300, 1),
                            (1, 1e300), (float("inf"), float("inf"))]:
            q = q_error(est, actual)
            assert math.isfinite(q)
            assert 1.0 <= q <= Q_ERROR_CAP

    def test_sub_row_estimates_floor_at_one(self):
        # fractional estimates below one row must not inflate q-error
        assert q_error(0.01, 1) == 1.0


# ---------------------------------------------------------------------------
# plan memo: hits, planning skipped, structural invalidation
# ---------------------------------------------------------------------------
class TestPlanMemo:
    def test_repeat_execution_hits_memo(self):
        db = make_db()
        first = db.sql(SIMPLE_JOIN)
        second = db.sql(SIMPLE_JOIN)
        assert first.memo_decision == "miss"
        assert second.memo_decision == "hit"
        assert batch_digest(first) == batch_digest(second)
        assert db.feedback.memo.stats.hits == 1

    def test_hit_skips_planning_time(self):
        db = make_db()
        db.sql(SIMPLE_JOIN)
        entry = db.feedback.store.get(db.sql(SIMPLE_JOIN).fingerprint)
        # a hit records zero planning seconds: the plan came from the memo
        assert entry.last_planning_s == 0.0
        assert entry.planning_total_s > 0.0

    def test_fingerprint_is_stable_and_normalized(self):
        db = make_db()
        a = db.sql(SIMPLE_JOIN)
        b = db.sql("select   COUNT( * ) as N from a join b on A.K1=b.k1 "
                   "where a.x>0")
        assert a.fingerprint == b.fingerprint
        assert b.memo_decision == "hit"

    def test_different_statements_do_not_collide(self):
        db = make_db()
        a = db.sql(SIMPLE_JOIN)
        c = db.sql("SELECT COUNT(*) AS n FROM b")
        assert a.fingerprint != c.fingerprint
        assert c.memo_decision == "miss"

    def test_memo_disabled_without_feedback(self):
        db = Database("plain", config=EngineConfig())
        db.create_table("t", {"v": np.arange(5)})
        result = db.sql("SELECT COUNT(*) AS n FROM t")
        assert db.feedback is None
        assert result.fingerprint is None
        assert result.memo_decision is None

    def test_lru_eviction_bounded(self):
        memo = PlanMemo(max_entries=2)
        for i in range(4):
            memo.put(f"fp{i}", plan=object(), stats_versions={},
                     overrides_version=0, planning_s=0.001)
        assert len(memo.entries()) == 2
        assert memo.stats.evictions == 2


class TestMemoInvalidation:
    """Catalog, statistics and order changes force a miss; plain DML
    keeps the plan, whose answers stay those of a memo-off twin."""

    def _assert_miss_after(self, db, mutate):
        before = db.sql(SIMPLE_JOIN)
        assert db.sql(SIMPLE_JOIN).memo_decision == "hit"
        mutate(db)
        after = db.sql(SIMPLE_JOIN)
        assert after.memo_decision in ("miss", "replan", "learned-override")
        return before, after

    def _assert_hit_after_write(self, write):
        db, twin = make_db(), make_db(EngineConfig())
        before = db.sql(SIMPLE_JOIN)
        assert db.sql(SIMPLE_JOIN).memo_decision == "hit"
        version = db.table("b").version
        write(db)
        write(twin)
        # the data version moved (the result cache keys on it) ...
        assert db.table("b").version > version
        after = db.sql(SIMPLE_JOIN)
        # ... but the plan is still bound and fresh, and reads the
        # table as it is now
        assert after.memo_decision == "hit"
        assert batch_digest(after) == batch_digest(twin.sql(SIMPLE_JOIN))
        return before, after

    def test_insert_bumps_version(self):
        before, after = self._assert_hit_after_write(
            lambda db: db.sql("INSERT INTO b SELECT k1, k2 FROM b"))
        assert batch_digest(before) != batch_digest(after)  # data changed

    def test_update_bumps_version(self):
        self._assert_hit_after_write(
            lambda d: d.sql("UPDATE b SET k2 = 1 WHERE k2 = 19"))

    def test_delete_bumps_version(self):
        before, after = self._assert_hit_after_write(
            lambda d: d.sql("DELETE FROM b WHERE k1 >= 20"))
        assert batch_digest(before) != batch_digest(after)

    def test_analyze_bumps_stats_version(self):
        db = make_db()
        before, after = self._assert_miss_after(
            db, lambda d: d.sql("ANALYZE"))
        # stats refresh must not change the answer, only the plan's basis
        assert batch_digest(before) == batch_digest(after)

    def test_analyze_single_table_invalidates_only_its_plans(self):
        db = make_db()
        db.sql(SIMPLE_JOIN)          # touches a, b
        other = "SELECT COUNT(*) AS n FROM c"
        db.sql(other)                # touches c only
        db.sql("ANALYZE a")
        assert db.sql(SIMPLE_JOIN).memo_decision == "miss"
        assert db.sql(other).memo_decision == "hit"

    def test_truncate_and_drop_invalidate(self):
        db = make_db()
        db.sql(SIMPLE_JOIN)
        db.sql("TRUNCATE TABLE b")
        assert db.sql(SIMPLE_JOIN).memo_decision == "miss"

    def test_drop_and_create_invalidate(self):
        db = make_db()
        db.sql(SIMPLE_JOIN)

        def replace_b(d):
            rows = d.sql("SELECT k1, k2 FROM b WHERE k1 < 20").columns
            d.sql("DROP TABLE b")
            d.create_table("b", rows)
            # same statistics generation as the dropped b: only the
            # catalog generation tells the old plan from a new one
            d.analyze("b")
            assert d.table("b").stats_version == 1

        before, after = self._assert_miss_after(db, replace_b)
        assert after.scalar() < before.scalar()

    def test_drop_releases_the_tables_of_memoized_plans(self):
        db = make_db()
        db.sql(SIMPLE_JOIN)
        assert len(db.feedback.memo) == 1
        dropped = weakref.ref(db.table("b"))
        db.sql("DROP TABLE b")
        # every plan bound before the drop is let go at once, not on
        # its fingerprint's next lookup
        assert len(db.feedback.memo) == 0
        gc.collect()
        assert dropped() is None

    def test_override_install_invalidates(self):
        db = make_db()
        self._assert_miss_after(
            db, lambda d: d.feedback.overrides.install(
                "equi", SelectivityOverrides.equi_key("a.k1", "b.k1"),
                1.0, "test"))

    def test_clustered_index_build_replans_to_a_range_scan(self):
        db = make_db()
        query = "SELECT COUNT(*) AS n FROM b WHERE k1 BETWEEN 3 AND 4"
        first = db.sql(query)
        assert "SeqScan(b" in first.plan
        assert db.sql(query).memo_decision == "hit"
        db.create_clustered_index("b", "k1")
        after = db.sql(query)
        assert after.memo_decision == "miss"
        assert "IndexRangeScan(b.k1 in [3, 4]" in after.plan
        assert after.scalar() == first.scalar()

    def test_matview_refresh_invalidates_reader(self):
        db = make_db()
        db.sql("CREATE MATERIALIZED VIEW hot AS "
               "SELECT k1, COUNT(*) AS cnt FROM b GROUP BY k1")
        query = "SELECT COUNT(*) AS n FROM hot WHERE cnt > 10"
        db.sql(query)
        assert db.sql(query).memo_decision == "hit"
        db.sql("INSERT INTO b SELECT k1, k2 FROM b WHERE k1 = 0")
        db.sql("REFRESH MATERIALIZED VIEW hot")
        after = db.sql(query)
        assert after.memo_decision in ("miss", "replan", "learned-override")

    @pytest.mark.parametrize("query", [
        "SELECT COUNT(*) AS n FROM a "
        "WHERE EXISTS (SELECT k1 FROM b WHERE k2 = 19)",
        "SELECT COUNT(*) AS n FROM a WHERE k1 IN "
        "(SELECT k1 FROM b WHERE k2 = 19 GROUP BY k1)",
    ])
    def test_matview_answered_subquery_is_not_memoized(self, query):
        # the subquery body is planned as written, so a fresh matview
        # answers it; that substitution must not outlive the view's
        # freshness, which a write to b ends
        db, twin = make_db(), make_db(EngineConfig())
        matview = query[query.index("(SELECT") + 1:-1]
        for d in (db, twin):
            d.sql(f"CREATE MATERIALIZED VIEW hot AS {matview}")
        db.sql(query)
        assert len(db.feedback.memo) == 0
        for d in (db, twin):
            d.sql("DELETE FROM b WHERE k2 = 19")
        after = db.sql(query)
        assert after.scalar() == twin.sql(query).scalar() == 0

    def test_config_signature_partitions_memo(self):
        # same statement under different EngineConfigs must not share a
        # memo slot: the signature is part of the key
        cost = make_db(EngineConfig(feedback=True, optimizer="cost"))
        syntactic = make_db(
            EngineConfig(feedback=True, optimizer="syntactic"))
        r_cost = cost.sql(SIMPLE_JOIN)
        r_syn = syntactic.sql(SIMPLE_JOIN)
        assert r_cost.memo_decision == "miss"
        assert r_syn.memo_decision == "miss"
        assert batch_digest(r_cost) == batch_digest(r_syn)
        key_cost = cost.feedback.memo.entries()[0].key
        key_syn = syntactic.feedback.memo.entries()[0].key
        assert key_cost != key_syn

    def test_answers_byte_identical_across_hit_and_replan(self):
        db = make_db(EngineConfig(feedback=True, qerror_ceiling=1.5))
        digests = {batch_digest(db.sql(SKEW_JOIN)) for _ in range(5)}
        assert len(digests) == 1


# ---------------------------------------------------------------------------
# the closed loop: breach -> re-analyze -> override -> converge
# ---------------------------------------------------------------------------
class TestFeedbackLoop:
    def test_breach_installs_override_and_converges(self):
        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        first = db.sql(SKEW_JOIN)
        entry = db.feedback.store.get(first.fingerprint)
        assert entry.last_max_q > 2.0  # the seeded skew breaches
        second = db.sql(SKEW_JOIN)
        assert second.memo_decision in ("replan", "learned-override")
        entry = db.feedback.store.get(first.fingerprint)
        assert entry.last_max_q <= 2.0  # one cycle was enough here
        assert db.sql(SKEW_JOIN).memo_decision == "hit"
        assert batch_digest(first) == batch_digest(second)

    def test_band_breach_converges_by_learned_override(self):
        # 90% of d.v sits on one value: the width-based band estimate is
        # ~20x under reality even with fresh statistics
        db = make_db()
        v = np.where(np.arange(300) % 10 < 9, 5.0, np.linspace(0, 10, 300))
        db.create_table("d", {"id": np.arange(300, dtype=np.int64), "v": v})
        db.sql("ANALYZE d")
        sql = ("SELECT COUNT(*) AS n FROM d d1 JOIN d d2 "
               "ON d2.v BETWEEN d1.v - 0.2 AND d1.v + 0.2")
        first = db.sql(sql)
        ceiling = db.config.qerror_ceiling
        assert db.feedback.store.get(first.fingerprint).last_max_q > ceiling
        second = db.sql(sql)
        assert second.memo_decision == "learned-override"
        assert db.feedback.store.get(first.fingerprint).last_max_q <= ceiling
        assert [e.kind for e in db.feedback.overrides.entries()] == ["band"]
        assert batch_digest(first) == batch_digest(second)

    def test_override_entries_visible(self):
        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        db.sql(SKEW_JOIN)
        db.sql(SKEW_JOIN)
        entries = db.feedback.overrides.entries()
        assert entries, "breach should have installed an override"
        kinds = {e.kind for e in entries}
        assert kinds <= {"equi", "band"}
        for e in entries:
            assert MIN_OVERRIDE_RATIO <= e.ratio <= MAX_OVERRIDE_RATIO

    def test_estimator_applies_equi_override(self):
        from repro.engine.expressions import ColumnRef
        from repro.engine.optimizer.cardinality import (
            CardinalityEstimator,
            profile_for_table,
        )

        db = make_db()
        profiles = [profile_for_table(db.table("b"), "b"),
                    profile_for_table(db.table("c"), "c")]
        left = ColumnRef("k2", "b")
        right = ColumnRef("k2", "c")
        bare = CardinalityEstimator(profiles)
        base = bare.equi_selectivity(left, right)
        overrides = SelectivityOverrides()
        overrides.install(
            "equi", SelectivityOverrides.equi_key("b.k2", "c.k2"),
            ratio=5.0, fingerprint="t")
        tuned = CardinalityEstimator(profiles, overrides)
        assert tuned.equi_selectivity(left, right) == \
            pytest.approx(min(base * 5.0, 1.0))
        # aliases resolve to the same table-qualified key
        alias_profiles = [profile_for_table(db.table("b"), "bb"),
                          profile_for_table(db.table("c"), "cc")]
        aliased = CardinalityEstimator(alias_profiles, overrides)
        assert aliased.equi_selectivity(
            ColumnRef("k2", "bb"), ColumnRef("k2", "cc")) == \
            pytest.approx(min(base * 5.0, 1.0))

    def test_override_key_is_order_independent(self):
        assert SelectivityOverrides.equi_key("x.a", "y.b") == \
            SelectivityOverrides.equi_key("y.b", "x.a")

    def test_install_clamps_ratio(self):
        overrides = SelectivityOverrides()
        key = SelectivityOverrides.equi_key("t.a", "t.b")
        overrides.install("equi", key, ratio=1e30, fingerprint="t")
        assert overrides.equi_ratio("t.a", "t.b") == MAX_OVERRIDE_RATIO
        overrides.install("equi", key, ratio=0.0, fingerprint="t")
        assert overrides.equi_ratio("t.a", "t.b") == MIN_OVERRIDE_RATIO

    def test_reanalyze_counter_and_metrics(self):
        from repro.obs.metrics import get_metrics

        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        breaches_0 = get_metrics().counter("engine.feedback.breaches").value
        db.sql(SKEW_JOIN)
        db.sql(SKEW_JOIN)
        assert get_metrics().counter(
            "engine.feedback.breaches").value > breaches_0
        summary = db.feedback.summary()
        assert summary["replans"] >= 1
        assert summary["memo_hits"] >= 0
        assert summary["executions"] >= 2

    def test_reanalyze_waits_for_the_modification_threshold(self):
        """Small INSERTs re-ANALYZE nothing until 500 + 20 % of the rows
        ANALYZE saw have changed, then exactly once; every breach on
        fresh statistics just re-plans."""
        from repro.engine.optimizer.feedback import stats_stale
        from repro.obs.metrics import get_metrics

        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        table = db.table("b")
        assert table.modified_rows == 0
        threshold = 500 + 0.2 * table.stats.row_count  # 900 rows
        reanalyzed = get_metrics().counter("engine.feedback.reanalyzed_tables")
        breaches = get_metrics().counter("engine.feedback.breaches")
        start, breaches_0 = reanalyzed.value, breaches.value
        values = ", ".join(f"({i % 40}, 0)" for i in range(100))
        changed = 0
        for _ in range(12):
            db.sql(f"INSERT INTO b VALUES {values}")
            changed += 100
            db.sql("SELECT COUNT(*) AS n FROM b WHERE k2 = 0")
            want = 1 if changed >= threshold else 0
            assert reanalyzed.value - start == want, changed
        assert breaches.value - breaches_0 == 12
        assert table.modified_rows == changed - threshold
        assert not stats_stale(table)
        db.sql("ANALYZE b")
        assert table.modified_rows == 0

    def test_missing_stats_reanalyze_on_first_breach(self):
        from repro.obs.metrics import get_metrics

        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        db.table("b").stats = None
        reanalyzed = get_metrics().counter("engine.feedback.reanalyzed_tables")
        start = reanalyzed.value
        db.sql("SELECT COUNT(*) AS n FROM b WHERE k2 = 0")
        assert reanalyzed.value - start == 1
        assert db.table("b").stats is not None

    def test_store_tracks_trajectory(self):
        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        for _ in range(4):
            db.sql(SKEW_JOIN)
        fp = db.sql(SKEW_JOIN).fingerprint
        entry = db.feedback.store.get(fp)
        assert len(entry.q_trajectory) == 5
        assert entry.worst_max_q >= entry.last_max_q

    def test_feedback_store_thread_shape(self):
        store = FeedbackStore()
        store.record("fp1", "SELECT 1", max_q=3.0, planning_s=0.01,
                     decision="miss")
        store.record("fp1", "SELECT 1", max_q=1.5, planning_s=0.0,
                     decision="hit")
        entry = store.get("fp1")
        assert entry.executions == 2
        assert entry.worst_max_q == 3.0
        assert entry.last_max_q == 1.5
        assert entry.replans == 0

    def test_pending_consumed_once(self):
        store = FeedbackStore()
        store.record("fp", "SELECT 1", max_q=9.0, planning_s=0.01,
                     decision="miss")
        store.set_pending("fp", "replan")
        assert store.take_pending("fp") == "replan"
        assert store.take_pending("fp") is None


class TestFeedbackStoreBound:
    """The store keeps the MAX_FINGERPRINTS most recently recorded
    fingerprints; its totals survive eviction."""

    LITERAL_JOIN = (
        "SELECT COUNT(*) AS n FROM a JOIN b ON a.k1 = b.k1 "
        "WHERE b.k1 * 20 + b.k2 < {}"
    )

    def test_literal_variants_stay_bounded(self):
        on = make_db(EngineConfig(feedback=True))
        off = make_db(EngineConfig(feedback=False))
        fingerprints = []
        for i in range(300):
            sql = self.LITERAL_JOIN.format(i)
            result = on.sql(sql)
            fingerprints.append(result.fingerprint)
            assert batch_digest(result) == batch_digest(off.sql(sql))
        store = on.feedback.store
        assert len(set(fingerprints)) == 300
        assert len(store) <= MAX_FINGERPRINTS
        assert on.feedback.summary()["executions"] == 300
        assert on.feedback.summary()["fingerprints"] == MAX_FINGERPRINTS
        assert store.get(fingerprints[0]) is None
        assert [e.fingerprint for e in store.entries()] == (
            fingerprints[-MAX_FINGERPRINTS:]
        )

    def test_evicted_pending_replan_still_replans(self):
        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        first = db.sql(SKEW_JOIN)
        assert db.feedback.store.get(first.fingerprint).pending is not None
        for i in range(MAX_FINGERPRINTS):
            db.sql(f"SELECT COUNT(*) AS n FROM a WHERE a.k1 < {i}")
        assert db.feedback.store.get(first.fingerprint) is None
        again = db.sql(SKEW_JOIN)
        assert again.memo_decision != "hit"
        assert batch_digest(again) == batch_digest(first)


# ---------------------------------------------------------------------------
# observability surface
# ---------------------------------------------------------------------------
class TestObservability:
    def test_slow_log_carries_fingerprint_and_memo(self):
        from repro.obs.slowlog import get_slow_log

        log = get_slow_log()
        log.clear()
        old = log.threshold_s
        log.set_threshold(0.0)
        try:
            db = make_db()
            result = db.sql(SIMPLE_JOIN)
            entries = [e for e in log.entries()
                       if e.fingerprint == result.fingerprint]
            assert entries, "statement should be in the slow log"
            assert entries[-1].memo == "miss"
            assert f"fp={result.fingerprint[:12]}" in entries[-1].line
            assert "memo=miss" in entries[-1].line
        finally:
            log.set_threshold(old)
            log.clear()

    def test_slow_log_fields_default_none(self):
        from repro.obs.slowlog import SlowQuery

        entry = SlowQuery(sql="SELECT 1", elapsed_s=0.5)
        assert entry.fingerprint is None
        assert "fp=" not in entry.line
        assert "memo=" not in entry.line

    def test_render_surfaces(self):
        db = make_db(EngineConfig(feedback=True, qerror_ceiling=2.0))
        db.sql(SKEW_JOIN)
        db.sql(SKEW_JOIN)
        text = db.feedback.render()
        assert "plan memo" in text
        assert "feedback store" in text
        assert "learned overrides" in text


# ---------------------------------------------------------------------------
# config and cluster plumbing
# ---------------------------------------------------------------------------
class TestConfigAndCluster:
    def test_config_validation(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            EngineConfig(qerror_ceiling=1.0)

    def test_plan_signature_covers_planning_knobs(self):
        base = EngineConfig()
        assert base.plan_signature() != \
            base.replace(optimizer="syntactic").plan_signature()
        assert base.plan_signature() != \
            base.replace(rewrites=False).plan_signature()
        assert base.plan_signature() != \
            base.replace(band_joins=False).plan_signature()
        # non-planning knobs must not churn the signature
        assert base.plan_signature() == \
            base.replace(result_cache=True).plan_signature()

    def test_workunit_outcome_carries_feedback_summary(self):
        from repro.cluster.executor import run_partitioned
        from repro.core.config import MaxBCGConfig
        from repro.core.kcorrection import build_kcorrection_table
        from repro.skyserver.generator import SkyConfig, SkySimulator
        from repro.skyserver.regions import RegionBox

        config = MaxBCGConfig(z_step=0.01)
        kcorr = build_kcorrection_table(config)
        target = RegionBox(180.0, 181.0, 0.0, 1.0)
        sky = SkySimulator(
            kcorr, config,
            SkyConfig(field_density=60.0, cluster_density=2.0, seed=3),
        ).generate(target.expand(2 * config.buffer_deg))
        result = run_partitioned(
            sky.catalog, target, kcorr, config, n_servers=2,
            compute_members=False, backend="sequential",
            engine_config=EngineConfig(feedback=True),
        )
        assert len(result.runs) == 2
        for run in result.runs:
            assert isinstance(run.feedback, dict)
            assert run.feedback  # feedback on: summary ships home
            assert run.feedback["executions"] >= 0
            assert "memo_hits" in run.feedback
            assert "memo_hit_rate" in run.feedback

    def test_workunit_feedback_empty_without_flag(self):
        from repro.cluster.executor import run_partitioned
        from repro.core.config import MaxBCGConfig
        from repro.core.kcorrection import build_kcorrection_table
        from repro.skyserver.generator import SkyConfig, SkySimulator
        from repro.skyserver.regions import RegionBox

        config = MaxBCGConfig(z_step=0.01)
        kcorr = build_kcorrection_table(config)
        target = RegionBox(180.0, 181.0, 0.0, 1.0)
        sky = SkySimulator(
            kcorr, config,
            SkyConfig(field_density=60.0, cluster_density=2.0, seed=3),
        ).generate(target.expand(2 * config.buffer_deg))
        result = run_partitioned(
            sky.catalog, target, kcorr, config, n_servers=2,
            compute_members=False, backend="sequential",
        )
        assert all(run.feedback == {} for run in result.runs)
