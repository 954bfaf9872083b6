"""The CasJobs scheduler: concurrent, admission-controlled job service.

The paper's CasJobs is a *multi-user batch service*: quick and long
queue classes, per-user MyDBs, many users submitting concurrently.
:class:`~repro.casjobs.queue.JobQueue` holds the jobs;
this module is the policy engine that drains it through the cluster
layer's pluggable :class:`~repro.cluster.backends.JobPool` workers:

* **weighted-fair dispatch** across queue classes — the quick queue
  gets ``quick_weight`` dispatch slots for every ``long_weight`` the
  long queue gets, so sub-minute queries do not starve behind
  multi-hour scans (and vice versa: the rotation is work-conserving,
  an idle class donates its slots);
* **per-user concurrency limits** — one user flooding the service
  cannot occupy every worker; jobs over the limit stay queued without
  losing their FIFO position;
* **admission control / load shedding** — past the ``high_water``
  pending depth new submissions are refused with
  :class:`~repro.errors.QueueFullError` instead of growing the backlog
  without bound;
* **per-attempt timeouts with bounded retry and dead-lettering** — a
  job attempt that exceeds its budget is abandoned and requeued (with
  exponential backoff) up to ``max_retries`` times, then failed and
  recorded on the dead-letter list with its full attempt history.

Execution and *finalization* are deliberately split: the executor runs
on pool workers (threads, or inline for deterministic runs), while the
optional ``finalizer`` — e.g. spooling a result into the owner's MyDB —
always runs in the dispatcher's thread, so shared service state is
mutated from exactly one thread no matter how many workers run.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.casjobs.queue import BatchJob, JobQueue, JobStatus, QueueClass
from repro.cluster.backends import JobPool, resolve_job_pool
from repro.errors import CasJobsError, ConfigError, QueueFullError
from repro.obs.metrics import get_metrics
from repro.obs.trace import activate, enabled, finish_span, span, start_span

#: Executor signature: runs the job, returns its result (worker thread).
JobExecutor = Callable[[BatchJob], object]

#: Finalizer signature: post-processes a successful result in the
#: dispatcher thread; its return value becomes the job's result.
JobFinalizer = Callable[[BatchJob, object], object]


def _traced_execute(executor: JobExecutor, ctx, attempt: int, job: BatchJob):
    """Worker-side wrapper: run one attempt inside a ``scheduler.attempt``
    span parented under the job's open ``casjobs.job`` span.

    Module-level (not a closure) so it survives pickling into process
    pools; pool threads need the explicit :func:`activate` because
    contextvars do not flow into pool workers.
    """
    with activate(ctx), span(
        "scheduler.attempt",
        layer="casjobs",
        attrs={"job_id": job.job_id, "attempt": attempt},
    ):
        return executor(job)


@dataclass
class SchedulerConfig:
    """Policy knobs for one :class:`Scheduler`."""

    pool: str | JobPool = "threads"  # "sequential" | "threads" | instance
    max_workers: int = 4
    quick_weight: int = 3  # quick-queue dispatch slots per rotation
    long_weight: int = 1  # long-queue dispatch slots per rotation
    per_user_limit: int = 2  # max concurrently executing jobs per user
    high_water: int | None = None  # pending depth that sheds new load
    timeout_s: float | None = None  # per-attempt cap; None = class budget
    max_retries: int = 1  # timeout retries before dead-lettering
    retry_backoff_s: float = 0.0  # base backoff; doubles per retry
    poll_s: float = 0.002  # dispatcher sleep when nothing progressed

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ConfigError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.quick_weight <= 0 or self.long_weight <= 0:
            raise ConfigError("queue-class weights must be positive")
        if self.per_user_limit <= 0:
            raise ConfigError(
                f"per_user_limit must be positive, got {self.per_user_limit}"
            )
        if self.high_water is not None and self.high_water <= 0:
            raise ConfigError(
                f"high_water must be positive, got {self.high_water}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def attempt_timeout(self, job: BatchJob) -> float:
        """Seconds one attempt of this job may run."""
        if self.timeout_s is not None:
            return self.timeout_s
        return job.queue_class.budget_seconds


@dataclass
class DeadLetter:
    """A job the scheduler gave up on, with why."""

    job_id: int
    owner: str
    queue_class: QueueClass
    reason: str
    attempts: int


@dataclass
class SchedulerStats:
    """Counters and per-class latency samples for one scheduler."""

    submitted: int = 0
    shed: int = 0
    dispatched: int = 0
    finished: int = 0
    failed: int = 0
    timeouts: int = 0
    retries: int = 0
    dead_lettered: int = 0
    wait_s: dict[QueueClass, list[float]] = field(
        default_factory=lambda: {cls: [] for cls in QueueClass}
    )
    run_s: dict[QueueClass, list[float]] = field(
        default_factory=lambda: {cls: [] for cls in QueueClass}
    )

    @property
    def completed(self) -> int:
        """Jobs that reached a terminal state under this scheduler."""
        return self.finished + self.failed

    @staticmethod
    def _percentile(samples: list[float], q: float) -> float:
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples), q))

    def p50_wait(self, cls: QueueClass) -> float:
        return self._percentile(self.wait_s[cls], 50)

    def p95_wait(self, cls: QueueClass) -> float:
        return self._percentile(self.wait_s[cls], 95)

    def p50_run(self, cls: QueueClass) -> float:
        return self._percentile(self.run_s[cls], 50)

    def p95_run(self, cls: QueueClass) -> float:
        return self._percentile(self.run_s[cls], 95)

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            "submitted": self.submitted,
            "shed": self.shed,
            "dispatched": self.dispatched,
            "finished": self.finished,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "dead_lettered": self.dead_lettered,
        }
        for cls in QueueClass:
            out[f"{cls.value}_p50_wait_s"] = self.p50_wait(cls)
            out[f"{cls.value}_p95_wait_s"] = self.p95_wait(cls)
        return out


@dataclass
class _Running:
    """One in-flight attempt tracked by the dispatcher."""

    job: BatchJob
    future: object
    deadline: float  # monotonic time the attempt times out


class Scheduler:
    """Drains a :class:`JobQueue` through a worker pool under policy.

    Single-dispatcher model: all queue transitions, dead-lettering and
    finalization happen in whichever thread calls :meth:`pump` (or the
    background thread :meth:`start` creates) — workers only ever run
    the executor.  That keeps every shared-state mutation serialized
    while queries themselves run concurrently.
    """

    def __init__(
        self,
        queue: JobQueue,
        executor: JobExecutor,
        config: SchedulerConfig | None = None,
        finalizer: JobFinalizer | None = None,
    ):
        self.queue = queue
        self.executor = executor
        self.config = config or SchedulerConfig()
        self.finalizer = finalizer
        self.pool = resolve_job_pool(self.config.pool, self.config.max_workers)
        self.stats = SchedulerStats()
        self.dead_letters: list[DeadLetter] = []
        self._running: dict[int, _Running] = {}
        self._job_spans: dict[int, object] = {}  # open casjobs.job spans
        self._executing_per_user: Counter[str] = Counter()
        self._not_before: dict[int, float] = {}  # backoff gates (monotonic)
        self._rotation = [QueueClass.QUICK] * self.config.quick_weight + [
            QueueClass.LONG
        ] * self.config.long_weight
        self._rr = 0  # rotation cursor
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._pump_lock = threading.RLock()  # one dispatcher at a time

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self) -> None:
        """Refuse new work past high water (load shedding).

        Raises :class:`QueueFullError`; callers should surface the
        refusal to the user rather than retry immediately.
        """
        high_water = self.config.high_water
        if high_water is None:
            return
        depth = self.queue.pending_count()
        if depth >= high_water:
            self.stats.shed += 1
            get_metrics().counter("casjobs.shed").inc()
            raise QueueFullError(
                f"queue depth {depth} at/above high water {high_water}; "
                "submission shed — retry later",
                depth=depth,
                high_water=high_water,
            )

    def submit(
        self,
        owner: str,
        query: str,
        target: str,
        output_table: str | None = None,
        queue_class: QueueClass = QueueClass.LONG,
    ) -> BatchJob:
        """Admission-checked submit into the underlying queue."""
        self.admit()
        job = self.queue.submit(owner, query, target, output_table, queue_class)
        self.stats.submitted += 1
        get_metrics().counter("casjobs.submitted").inc()
        if enabled():
            # The job span stays open across dispatcher passes (queue
            # wait included) and closes at the job's terminal state.
            self._job_spans[job.job_id] = start_span(
                "casjobs.job",
                layer="casjobs",
                attrs={"job_id": job.job_id, "owner": owner,
                       "class": queue_class.value},
            )
        return job

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _eligible(self, job: BatchJob) -> bool:
        if (
            self._executing_per_user[job.owner]
            >= self.config.per_user_limit
        ):
            return False
        not_before = self._not_before.get(job.job_id)
        return not_before is None or not_before <= time.monotonic()

    def _take_weighted(self) -> BatchJob | None:
        """Claim the next job by weighted-fair rotation over classes.

        The rotation visits QUICK ``quick_weight`` times per
        ``long_weight`` LONG visits; a class with nothing eligible
        donates its slot to the other (work-conserving), so the weights
        shape *contention*, not utilization.
        """
        for step in range(len(self._rotation)):
            cls = self._rotation[(self._rr + step) % len(self._rotation)]
            job = self.queue.take(cls, eligible=self._eligible)
            if job is None:
                continue
            self._rr = (self._rr + step + 1) % len(self._rotation)
            return job
        return None

    def _dispatch(self) -> int:
        dispatched = 0
        while len(self._running) < self.config.max_workers:
            job = self._take_weighted()
            if job is None:
                break
            self._not_before.pop(job.job_id, None)
            self._executing_per_user[job.owner] += 1
            deadline = time.monotonic() + self.config.attempt_timeout(job)
            job_span = self._job_spans.get(job.job_id)
            if job_span is not None:
                future = self.pool.submit(
                    _traced_execute, self.executor, job_span.context(),
                    job.attempts, job,
                )
            else:
                future = self.pool.submit(self.executor, job)
            self._running[job.job_id] = _Running(job, future, deadline)
            self.stats.dispatched += 1
            get_metrics().counter("casjobs.dispatched").inc()
            dispatched += 1
        return dispatched

    # ------------------------------------------------------------------
    # completion / timeout handling
    # ------------------------------------------------------------------
    def _record_latency(self, job: BatchJob) -> None:
        metrics = get_metrics()
        if job.queue_seconds is not None:
            self.stats.wait_s[job.queue_class].append(job.queue_seconds)
            metrics.histogram("casjobs.wait_s").observe(job.queue_seconds)
        if job.finished_at is not None and job.started_at is not None:
            run_seconds = job.finished_at - job.started_at
            self.stats.run_s[job.queue_class].append(run_seconds)
            metrics.histogram("casjobs.run_s").observe(run_seconds)

    def _close_job_span(self, job: BatchJob, status: str) -> None:
        """Finish the job's open trace span at its terminal state."""
        job_span = self._job_spans.pop(job.job_id, None)
        if job_span is not None:
            job_span.set("status", status)
            finish_span(job_span)

    def _release(self, job: BatchJob) -> None:
        del self._running[job.job_id]
        self._executing_per_user[job.owner] -= 1
        if self._executing_per_user[job.owner] <= 0:
            del self._executing_per_user[job.owner]

    def _finalize_success(self, job: BatchJob, result: object) -> None:
        if self.finalizer is not None:
            try:
                result = self.finalizer(job, result)
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                self.queue.fail(
                    job.job_id, f"{type(exc).__name__}: {exc}"
                )
                self.stats.failed += 1
                get_metrics().counter("casjobs.failed").inc()
                self._record_latency(job)
                self._close_job_span(job, "failed")
                return
        finished = self.queue.finish(job.job_id, result)
        if finished.status is JobStatus.FINISHED:
            self.stats.finished += 1
            get_metrics().counter("casjobs.finished").inc()
            self._close_job_span(job, "finished")
        else:  # budget kill inside finish()
            self.stats.failed += 1
            get_metrics().counter("casjobs.failed").inc()
            self._close_job_span(job, "failed")
        self._record_latency(job)

    def _handle_timeout(self, running: _Running) -> None:
        job = running.job
        self.stats.timeouts += 1
        get_metrics().counter("casjobs.timeouts").inc()
        self.pool.cancel(running.future)  # revokes it if not yet started;
        # a running thread cannot be killed: the future is abandoned and
        # its eventual result ignored (it is no longer tracked here).
        timeout = self.config.attempt_timeout(job)
        reason = (
            f"attempt {job.attempts} timed out after {timeout:g} s"
        )
        if job.attempts <= self.config.max_retries:
            self.queue.requeue(job.job_id, reason)
            backoff = self.config.retry_backoff_s * (2 ** (job.attempts - 1))
            if backoff > 0:
                self._not_before[job.job_id] = time.monotonic() + backoff
            self.stats.retries += 1
            get_metrics().counter("casjobs.retries").inc()
        else:
            self.queue.fail(
                job.job_id,
                f"{reason}; retries exhausted ({self.config.max_retries})",
            )
            self.stats.failed += 1
            self.stats.dead_lettered += 1
            metrics = get_metrics()
            metrics.counter("casjobs.failed").inc()
            metrics.counter("casjobs.dead_lettered").inc()
            self.dead_letters.append(
                DeadLetter(
                    job_id=job.job_id,
                    owner=job.owner,
                    queue_class=job.queue_class,
                    reason=reason,
                    attempts=job.attempts,
                )
            )
            self._record_latency(job)
            self._close_job_span(job, "dead_lettered")

    def _reap(self) -> int:
        """Process completions and timeouts; returns how many resolved."""
        resolved = 0
        now = time.monotonic()
        for running in list(self._running.values()):
            job = running.job
            if running.future.done():
                self._release(job)
                resolved += 1
                try:
                    result = running.future.result()
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    self.queue.fail(
                        job.job_id, f"{type(exc).__name__}: {exc}"
                    )
                    self.stats.failed += 1
                    get_metrics().counter("casjobs.failed").inc()
                    self._record_latency(job)
                    self._close_job_span(job, "failed")
                else:
                    self._finalize_success(job, result)
            elif now >= running.deadline:
                self._release(job)
                resolved += 1
                self._handle_timeout(running)
        return resolved

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """One dispatcher pass: reap completions, fill free workers.

        Non-blocking; returns the amount of progress made (completions
        processed + jobs dispatched).  Safe to call from any thread —
        passes are serialized by an internal lock.
        """
        with self._pump_lock:
            progress = self._reap()
            progress += self._dispatch()
            # inline pools resolve futures at submit time: reap them now
            # so run_until_idle() with max_workers=1 makes progress per pass
            progress += self._reap()
            return progress

    def run_until_idle(self, timeout_s: float | None = None) -> int:
        """Pump until the queue is empty and nothing is running.

        Returns how many jobs reached a terminal state during this
        call.  ``timeout_s`` bounds the wait (a :class:`CasJobsError`
        is raised on expiry — the stress tests' watchdog).
        """
        began = time.monotonic()
        before = self.stats.completed
        while True:
            progress = self.pump()
            with self._pump_lock:
                idle = not self._running and self.queue.pending_count() == 0
            if idle:
                return self.stats.completed - before
            if timeout_s is not None and time.monotonic() - began > timeout_s:
                raise CasJobsError(
                    f"scheduler did not go idle within {timeout_s:g} s "
                    f"({self.queue.pending_count()} pending, "
                    f"{len(self._running)} running)"
                )
            if progress == 0:
                time.sleep(self.config.poll_s)

    def start(self) -> None:
        """Serve in a background dispatcher thread until :meth:`stop`."""
        if self._thread is not None and self._thread.is_alive():
            raise CasJobsError("scheduler already serving")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                if self.pump() == 0:
                    self._stop.wait(self.config.poll_s)

        self._thread = threading.Thread(
            target=loop, name="casjobs-scheduler", daemon=True
        )
        self._thread.start()

    @property
    def serving(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self, drain: bool = True, timeout_s: float | None = None) -> None:
        """Stop the background dispatcher (optionally draining first)."""
        if drain:
            self.run_until_idle(timeout_s=timeout_s)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        """Stop serving and shut the worker pool down."""
        if self.serving:
            self.stop(drain=False)
        self.pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def status(self) -> dict[str, object]:
        """A snapshot for CLIs and monitors."""
        return {
            "pending_quick": self.queue.pending_count(QueueClass.QUICK),
            "pending_long": self.queue.pending_count(QueueClass.LONG),
            "running": len(self._running),
            "serving": self.serving,
            "dead_letters": len(self.dead_letters),
            **self.stats.summary(),
        }
