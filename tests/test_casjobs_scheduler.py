"""The CasJobs scheduler: policy units plus the concurrency stress test."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bench.casjobs_load import (
    LoadSpec,
    build_demo_catalog,
    build_demo_site,
    check_no_lost_or_duplicated,
    run_load,
)
from repro.casjobs.queue import JobQueue, JobStatus, QueueClass
from repro.casjobs.scheduler import Scheduler, SchedulerConfig
from repro.casjobs.server import CasJobsService
from repro.errors import (
    CasJobsError,
    ConfigError,
    QueueFullError,
    QuotaExceededError,
)


def make_scheduler(executor, finalizer=None, **overrides):
    defaults = dict(pool="sequential", max_workers=1, retry_backoff_s=0.0)
    defaults.update(overrides)
    queue = JobQueue()
    return Scheduler(queue, executor, SchedulerConfig(**defaults), finalizer)


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(max_workers=0),
        dict(quick_weight=0),
        dict(long_weight=-1),
        dict(per_user_limit=0),
        dict(high_water=0),
        dict(max_retries=-1),
    ])
    def test_rejects_bad_knobs(self, bad):
        with pytest.raises(ConfigError):
            SchedulerConfig(**bad)

    def test_only_sequential_and_thread_pools_by_name(self):
        with pytest.raises(ConfigError, match="'sequential', 'threads'"):
            Scheduler(JobQueue(), lambda job: None,
                      SchedulerConfig(pool="processes"))

    def test_attempt_timeout_defaults_to_class_budget(self):
        config = SchedulerConfig()
        queue = JobQueue()
        quick = queue.submit("a", "q", "t", queue_class=QueueClass.QUICK)
        long_ = queue.submit("a", "q", "t", queue_class=QueueClass.LONG)
        assert config.attempt_timeout(quick) == 60.0
        assert config.attempt_timeout(long_) == 8 * 3600.0
        override = SchedulerConfig(timeout_s=0.5)
        assert override.attempt_timeout(quick) == 0.5


class TestWeightedFairness:
    def test_rotation_interleaves_quick_over_long(self):
        order: list[int] = []
        scheduler = make_scheduler(lambda job: order.append(job.job_id),
                                   quick_weight=3, long_weight=1)
        longs = [scheduler.submit("u", "L", "t", queue_class=QueueClass.LONG)
                 for _ in range(4)]
        quicks = [scheduler.submit("u", "Q", "t", queue_class=QueueClass.QUICK)
                  for _ in range(4)]
        scheduler.run_until_idle(timeout_s=10)
        # rotation Q,Q,Q,L over a full backlog: three quicks per long
        expected = [quicks[0].job_id, quicks[1].job_id, quicks[2].job_id,
                    longs[0].job_id, quicks[3].job_id, longs[1].job_id,
                    longs[2].job_id, longs[3].job_id]
        assert order == expected

    def test_work_conserving_when_one_class_idle(self):
        order: list[str] = []
        scheduler = make_scheduler(lambda job: order.append(job.query))
        for k in range(5):
            scheduler.submit("u", f"L{k}", "t", queue_class=QueueClass.LONG)
        scheduler.run_until_idle(timeout_s=10)
        assert order == [f"L{k}" for k in range(5)]  # quick donates its slots


class TestPerUserLimit:
    def test_one_user_cannot_occupy_every_worker(self):
        peak: dict[str, int] = {}
        active: dict[str, int] = {}
        lock = threading.Lock()

        def executor(job):
            with lock:
                active[job.owner] = active.get(job.owner, 0) + 1
                peak[job.owner] = max(peak.get(job.owner, 0), active[job.owner])
            time.sleep(0.01)
            with lock:
                active[job.owner] -= 1

        scheduler = make_scheduler(executor, pool="threads", max_workers=4,
                                   per_user_limit=1)
        try:
            for _ in range(6):
                scheduler.submit("hog", "q", "t")
            for _ in range(3):
                scheduler.submit("other", "q", "t")
            scheduler.run_until_idle(timeout_s=30)
        finally:
            scheduler.close()
        assert peak["hog"] == 1
        assert peak["other"] == 1
        assert scheduler.stats.finished == 9

    def test_over_limit_jobs_keep_their_queue_position(self):
        order: list[str] = []
        scheduler = make_scheduler(lambda job: order.append(job.query),
                                   per_user_limit=1)
        scheduler.submit("a", "a1", "t")
        scheduler.submit("a", "a2", "t")
        scheduler.submit("b", "b1", "t")
        scheduler.run_until_idle(timeout_s=10)
        # sequential pool: a1 finishes before a2 dispatches, so pure FIFO
        assert order == ["a1", "a2", "b1"]


class TestLoadShedding:
    def test_submissions_shed_past_high_water(self):
        scheduler = make_scheduler(lambda job: None, high_water=3)
        for _ in range(3):
            # sequential pool runs at pump time only; nothing drains here
            scheduler.queue.submit("u", "q", "t")
        with pytest.raises(QueueFullError) as excinfo:
            scheduler.submit("u", "q", "t")
        assert excinfo.value.depth == 3
        assert excinfo.value.high_water == 3
        assert scheduler.stats.shed == 1
        scheduler.run_until_idle(timeout_s=10)
        scheduler.submit("u", "q", "t")  # drained: admissions reopen

    def test_service_surfaces_shedding(self):
        spec = LoadSpec(n_users=2, n_jobs=0, catalog_rows=100)
        service = build_demo_site(
            spec,
            SchedulerConfig(pool="sequential", max_workers=1, high_water=2),
        )
        service.submit("user00", "SELECT COUNT(*) AS n FROM galaxy", "dr1")
        service.submit("user01", "SELECT COUNT(*) AS n FROM galaxy", "dr1")
        with pytest.raises(QueueFullError):
            service.submit("user00", "SELECT COUNT(*) AS n FROM galaxy", "dr1")


class TestTimeoutsRetriesDeadLetters:
    def test_timed_out_attempt_retries_then_succeeds(self):
        def executor(job):
            if job.attempts == 1:
                time.sleep(0.3)
            return "done"

        scheduler = make_scheduler(executor, pool="threads", max_workers=2,
                                   timeout_s=0.05, max_retries=2)
        try:
            job = scheduler.submit("u", "q", "t")
            scheduler.run_until_idle(timeout_s=30)
        finally:
            scheduler.close()
        job = scheduler.queue.get(job.job_id)
        assert job.status is JobStatus.FINISHED
        assert job.result == "done"
        assert job.attempts == 2
        assert scheduler.stats.timeouts == 1
        assert scheduler.stats.retries == 1
        assert scheduler.dead_letters == []

    def test_retries_exhausted_dead_letters(self):
        def executor(job):
            time.sleep(0.3)

        scheduler = make_scheduler(executor, pool="threads", max_workers=2,
                                   timeout_s=0.03, max_retries=1)
        try:
            job = scheduler.submit("alice", "slow", "t",
                                   queue_class=QueueClass.QUICK)
            scheduler.run_until_idle(timeout_s=30)
        finally:
            scheduler.close()
        job = scheduler.queue.get(job.job_id)
        assert job.status is JobStatus.FAILED
        assert "retries exhausted" in job.error
        assert job.attempts == 2  # original + one retry
        assert scheduler.stats.dead_lettered == 1
        [letter] = scheduler.dead_letters
        assert letter.job_id == job.job_id
        assert letter.owner == "alice"
        assert letter.queue_class is QueueClass.QUICK
        assert letter.attempts == 2

    def test_executor_exception_fails_without_retry(self):
        def executor(job):
            raise ValueError("boom")

        scheduler = make_scheduler(executor, max_retries=3)
        job = scheduler.submit("u", "q", "t")
        scheduler.run_until_idle(timeout_s=10)
        job = scheduler.queue.get(job.job_id)
        assert job.status is JobStatus.FAILED
        assert "boom" in job.error
        assert job.attempts == 1  # deterministic failures do not retry
        assert scheduler.dead_letters == []

    def test_retry_backoff_delays_redispatch(self):
        redispatched = threading.Event()

        def executor(job):
            if job.attempts == 1:
                time.sleep(0.2)
            else:
                redispatched.set()
            return "ok"

        # two workers: the retry must not queue behind the abandoned
        # attempt's thread (its own timeout clock starts at dispatch)
        scheduler = make_scheduler(executor, pool="threads", max_workers=2,
                                   timeout_s=0.02, max_retries=1,
                                   retry_backoff_s=0.15)
        try:
            scheduler.submit("u", "q", "t")
            began = time.monotonic()
            scheduler.run_until_idle(timeout_s=30)
            waited = time.monotonic() - began
        finally:
            scheduler.close()
        assert redispatched.is_set()
        assert waited >= 0.15  # backoff gate held the retry back


class TestFinalizer:
    def test_finalizer_error_fails_the_job(self):
        def finalizer(job, result):
            raise QuotaExceededError("no room")

        scheduler = make_scheduler(lambda job: "data", finalizer=finalizer)
        job = scheduler.submit("u", "q", "t")
        scheduler.run_until_idle(timeout_s=10)
        job = scheduler.queue.get(job.job_id)
        assert job.status is JobStatus.FAILED
        assert "no room" in job.error
        assert scheduler.stats.failed == 1

    def test_finalizer_return_becomes_result(self):
        scheduler = make_scheduler(lambda job: 2,
                                   finalizer=lambda job, r: r * 21)
        job = scheduler.submit("u", "q", "t")
        scheduler.run_until_idle(timeout_s=10)
        assert scheduler.queue.get(job.job_id).result == 42


class TestServing:
    def test_background_serving_drains_submissions(self):
        scheduler = make_scheduler(lambda job: job.query.upper(),
                                   pool="threads", max_workers=2)
        try:
            scheduler.start()
            assert scheduler.serving
            with pytest.raises(CasJobsError):
                scheduler.start()  # double-start refused
            jobs = [scheduler.submit("u", f"q{k}", "t") for k in range(10)]
            deadline = time.monotonic() + 30
            while any(not scheduler.queue.get(j.job_id).status.is_terminal
                      for j in jobs):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            scheduler.stop()
            assert not scheduler.serving
        finally:
            scheduler.close()
        assert all(scheduler.queue.get(j.job_id).result == f"Q{k}".upper()
                   for k, j in enumerate(jobs))

    def test_run_until_idle_watchdog(self):
        scheduler = make_scheduler(lambda job: time.sleep(1.0),
                                   pool="threads", max_workers=1)
        try:
            scheduler.submit("u", "q", "t")
            with pytest.raises(CasJobsError, match="did not go idle"):
                scheduler.run_until_idle(timeout_s=0.05)
        finally:
            scheduler.close()


class TestStress:
    """The acceptance stress: ≥100 jobs, ≥10 users, both classes, threads."""

    N_USERS = 12
    N_JOBS = 140
    QUOTA_ROWS = 20  # small enough that spooling hits quota mid-run

    @pytest.fixture(scope="class")
    def stressed(self):
        spec = LoadSpec(
            n_users=self.N_USERS, n_jobs=self.N_JOBS, quick_fraction=0.4,
            workers=4, per_user_limit=2, catalog_rows=8_000,
            spool_every=2, seed=77,
        )
        service = CasJobsService("stress", spec.scheduler_config())
        service.add_context(
            "dr1", build_demo_catalog(spec.catalog_rows, spec.seed)
        )
        for u in range(spec.n_users):
            service.register_user(f"user{u:02d}", quota_rows=self.QUOTA_ROWS)
        report = run_load(spec, service=service)
        return spec, service, report

    def test_no_lost_or_duplicated_jobs(self, stressed):
        spec, service, report = stressed
        # every submission was either admitted or explicitly refused ...
        assert report.accepted + report.shed + report.quota_rejected == spec.n_jobs
        # ... and every admitted job is in the ledger, terminal exactly once
        check_no_lost_or_duplicated(service, report.accepted)
        assert report.stats.completed == report.accepted
        assert report.accepted >= 100  # the floor this test exists to hold

    def test_users_and_classes_both_present(self, stressed):
        spec, service, report = stressed
        owners = {j.owner for j in service.queue.jobs()}
        classes = {j.queue_class for j in service.queue.jobs()}
        assert len(owners) >= 10
        assert classes == {QueueClass.QUICK, QueueClass.LONG}
        assert report.user_fairness > 0.7  # Jain index: users served evenly

    def test_quota_invariant_holds_under_concurrency(self, stressed):
        _, service, _ = stressed
        for u in range(self.N_USERS):
            mydb = service.mydb(f"user{u:02d}")
            assert mydb.rows_used() <= mydb.quota_rows
        # the quota actually bit: some spooling jobs failed on it
        quota_failures = [
            j for j in service.queue.jobs()
            if j.status is JobStatus.FAILED and j.error
            and "quota" in j.error
        ]
        assert quota_failures, "stress spec never reached the MyDB quota"

    def test_quick_queue_served_ahead_of_long(self, stressed):
        _, _, report = stressed
        quick_p95 = report.stats.p95_wait(QueueClass.QUICK)
        long_p95 = report.stats.p95_wait(QueueClass.LONG)
        assert quick_p95 < long_p95

    def test_every_failure_is_explained(self, stressed):
        _, service, _ = stressed
        for job in service.queue.jobs():
            if job.status is JobStatus.FAILED:
                assert job.error


class TestZipfCacheWorkload:
    """The zipfian many-user workload and the cache A/B comparison."""

    SPEC = LoadSpec(
        n_users=3, n_jobs=30, quick_fraction=0.3, catalog_rows=2_000,
        zipf_queries=4, zipf_s=1.2, workers=2, pool="threads", seed=42,
    )

    def test_query_pool_deterministic(self):
        from repro.bench.casjobs_load import build_query_pool

        assert build_query_pool(self.SPEC) == build_query_pool(self.SPEC)
        assert len(build_query_pool(self.SPEC)) == self.SPEC.zipf_queries

    def test_comparison_requires_zipf_pool(self):
        from repro.bench.casjobs_load import run_zipf_cache_comparison
        import dataclasses

        flat = dataclasses.replace(self.SPEC, zipf_queries=0)
        with pytest.raises(ValueError):
            run_zipf_cache_comparison(flat)

    def test_cache_on_off_byte_identical(self):
        from repro.bench.casjobs_load import run_zipf_cache_comparison

        comparison = run_zipf_cache_comparison(self.SPEC)
        assert comparison.identical
        # the skewed pool repeats queries, so the cached site really hit
        assert comparison.on.cache["hit_rate"] > 0.5
        assert comparison.off.cache == {}
        assert comparison.digest_off == comparison.digest_on


class TestSchedulerStatsPercentiles:
    """Edge cases of the latency percentile helpers, pinned exactly."""

    def make_stats(self, samples):
        from repro.casjobs.scheduler import SchedulerStats

        stats = SchedulerStats()
        stats.wait_s[QueueClass.QUICK] = list(samples)
        stats.run_s[QueueClass.QUICK] = list(samples)
        return stats

    def test_empty_samples_report_zero(self):
        stats = self.make_stats([])
        assert stats.p50_wait(QueueClass.QUICK) == 0.0
        assert stats.p95_wait(QueueClass.QUICK) == 0.0
        assert stats.p50_run(QueueClass.QUICK) == 0.0
        assert stats.p95_run(QueueClass.QUICK) == 0.0

    def test_single_sample_is_every_percentile(self):
        stats = self.make_stats([2.0])
        assert stats.p50_wait(QueueClass.QUICK) == 2.0
        assert stats.p95_wait(QueueClass.QUICK) == 2.0

    def test_small_n_linear_interpolation(self):
        # np.percentile's default linear interpolation on [1, 2, 3, 4]:
        # p50 = 2.5, p95 = 1 + 0.95 * 3 = 3.85
        stats = self.make_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.p50_wait(QueueClass.QUICK) == pytest.approx(2.5)
        assert stats.p95_wait(QueueClass.QUICK) == pytest.approx(3.85)

    def test_order_does_not_matter(self):
        shuffled = self.make_stats([4.0, 1.0, 3.0, 2.0])
        ordered = self.make_stats([1.0, 2.0, 3.0, 4.0])
        assert shuffled.p95_wait(QueueClass.QUICK) == pytest.approx(
            ordered.p95_wait(QueueClass.QUICK)
        )

    def test_summary_includes_both_classes(self):
        stats = self.make_stats([1.0])
        summary = stats.summary()
        assert summary["quick_p50_wait_s"] == 1.0
        assert summary["long_p50_wait_s"] == 0.0
        assert summary["quick_p95_wait_s"] == 1.0
