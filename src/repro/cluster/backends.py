"""Execution backends: how a cluster run's partitions actually execute.

The paper ran MaxBCG on three *physically separate* SQL Servers; this
module supplies the execution models under one small API so
:class:`~repro.cluster.executor.SqlServerCluster` can swap them freely:

* :class:`SequentialBackend` — partitions run one after another in the
  calling process and the cluster elapsed time is *modeled* as the max
  over servers (the paper's own aggregation rule).  Deterministic, and
  the accounting reference everything else is verified against.
* :class:`ThreadBackend` — partitions run on concurrent threads.
  Correct everywhere (each server owns a private database); *faster*
  only where the GIL releases, so it exists mainly for free-threaded
  builds and for measuring the honest number on stock CPython.
* :class:`ProcessBackend` — partitions run in worker processes, one
  per server up to ``max_workers``, with a per-worker timeout, bounded
  retries with exponential backoff, and graceful degradation: a
  partition whose retries are exhausted is re-run sequentially in the
  parent so one flaky worker cannot take down the whole run.

Every backend executes the *identical* per-partition code path
(:func:`~repro.cluster.workunit.execute_workunit`), which is what makes
the backend-equivalence check in :mod:`repro.cluster.verify` meaningful:
same inputs, same answer, byte for byte — only the wall clock differs.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.cluster.workunit import (
    PartitionWorkUnit,
    WorkUnitOutcome,
    execute_workunit,
)
from repro.errors import ClusterExecutionError, ConfigError

#: Names accepted wherever a backend can be chosen (CLI, ``backend=``).
BACKEND_NAMES = ("sequential", "threads", "processes")

#: Callable invoked with short event strings ("server0", "server1:retry1")
#: as a run progresses.
ProgressHook = Callable[[str], None]


@dataclass
class WorkerReport:
    """Per-partition execution provenance, reported by every backend.

    ``wall_s`` is the dispatcher-side wall-clock of the *successful*
    attempt; ``cpu_s`` is the worker's own CPU total for the unit (its
    process clock in a child, its thread clock on a pool thread).
    """

    server: int
    worker: str
    attempts: int = 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    degraded: bool = False
    failures: list[str] = field(default_factory=list)


@dataclass
class BackendRun:
    """Everything a backend hands back to the cluster executor."""

    outcomes: list[WorkUnitOutcome]  # ordered by server number
    workers: list[WorkerReport]  # same order
    wall_s: float | None  # measured end-to-end wall; None when modeled


@runtime_checkable
class ExecutionBackend(Protocol):
    """The pluggable execution strategy for a cluster run."""

    #: Stable name ("sequential", "threads", "processes", ...).
    name: str
    #: True when ``BackendRun.wall_s`` is a measured concurrent wall-clock.
    measured: bool

    def run(
        self,
        units: list[PartitionWorkUnit],
        progress: ProgressHook | None = None,
    ) -> BackendRun: ...


def _unit_cpu_s(outcome: WorkUnitOutcome) -> float:
    return sum(s.cpu_s for s in outcome.result.stats.values())


def _sorted_run(
    outcomes: Iterable[WorkUnitOutcome],
    workers: Iterable[WorkerReport],
    wall_s: float | None,
) -> BackendRun:
    outcomes = sorted(outcomes, key=lambda o: o.server)
    workers = sorted(workers, key=lambda w: w.server)
    _record_run_metrics(outcomes, workers)
    return BackendRun(outcomes=outcomes, workers=workers, wall_s=wall_s)


def _record_run_metrics(
    outcomes: list[WorkUnitOutcome], workers: list[WorkerReport]
) -> None:
    """Feed the metrics registry from the one funnel every backend exits
    through, so per-partition observables need no per-backend wiring."""
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    metrics.counter("cluster.partitions").inc(len(outcomes))
    metrics.counter("cluster.attempts").inc(
        sum(max(w.attempts, 1) for w in workers)
    )
    degraded = sum(1 for w in workers if w.degraded)
    if degraded:
        metrics.counter("cluster.degraded").inc(degraded)
    wall = metrics.histogram("cluster.partition.wall_s")
    cpu = metrics.histogram("cluster.partition.cpu_s")
    io_ops = metrics.counter("cluster.partition.io_ops")
    for worker, outcome in zip(workers, outcomes):
        wall.observe(worker.wall_s)
        cpu.observe(worker.cpu_s)
        io_ops.inc(outcome.result.total_stats.io_ops)


class SequentialBackend:
    """Run partitions one after another in the calling process.

    The reference backend: no measured concurrency, so the cluster's
    elapsed time is modeled as max-over-servers downstream.
    """

    name = "sequential"
    measured = False

    def run(
        self,
        units: list[PartitionWorkUnit],
        progress: ProgressHook | None = None,
    ) -> BackendRun:
        outcomes: list[WorkUnitOutcome] = []
        workers: list[WorkerReport] = []
        for unit in units:
            started = time.perf_counter()
            outcome = execute_workunit(unit, cpu_clock="process")
            outcomes.append(outcome)
            workers.append(
                WorkerReport(
                    server=unit.server,
                    worker=outcome.worker,
                    wall_s=time.perf_counter() - started,
                    cpu_s=_unit_cpu_s(outcome),
                )
            )
            if progress is not None:
                progress(f"server{unit.server}")
        return _sorted_run(outcomes, workers, wall_s=None)


class ThreadBackend:
    """Run partitions on concurrent threads (one pool thread each).

    Every server owns its private database and read-only inputs, so
    this is always *correct*; on GIL-bound CPython it is usually not
    *faster* (the counting kernels hold the GIL).  Per-task CPU is
    billed with ``time.thread_time`` so a task never absorbs the other
    threads' work.
    """

    name = "threads"
    measured = True

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers

    def run(
        self,
        units: list[PartitionWorkUnit],
        progress: ProgressHook | None = None,
    ) -> BackendRun:
        from concurrent.futures import ThreadPoolExecutor, as_completed

        outcomes: list[WorkUnitOutcome] = []
        workers: list[WorkerReport] = []
        started = time.perf_counter()
        pool_size = self.max_workers or len(units) or 1
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            futures = {}
            for unit in units:
                unit_started = time.perf_counter()
                future = pool.submit(execute_workunit, unit, "thread")
                futures[future] = (unit, unit_started)
            for future in as_completed(futures):
                unit, unit_started = futures[future]
                outcome = future.result()  # worker exceptions propagate
                outcomes.append(outcome)
                workers.append(
                    WorkerReport(
                        server=unit.server,
                        worker=outcome.worker,
                        wall_s=time.perf_counter() - unit_started,
                        cpu_s=_unit_cpu_s(outcome),
                    )
                )
                if progress is not None:
                    progress(f"server{unit.server}")
        return _sorted_run(
            outcomes, workers, wall_s=time.perf_counter() - started
        )


def _process_entry(conn, unit: PartitionWorkUnit) -> None:
    """Child-process main: run the unit, ship the outcome back."""
    try:
        outcome = execute_workunit(unit, cpu_clock="process")
        conn.send(("ok", outcome))
    except BaseException as exc:  # report *any* worker failure upstream
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Attempt:
    """One in-flight worker process."""

    unit: PartitionWorkUnit
    number: int  # 1-based attempt counter
    process: multiprocessing.process.BaseProcess
    conn: object  # parent end of the pipe
    started: float


class ProcessBackend:
    """Run partitions in worker processes — real parallelism on CPython.

    Each partition ships to a dedicated child process as a picklable
    :class:`~repro.cluster.workunit.PartitionWorkUnit`; at most
    ``max_workers`` children run at once.  Failure handling:

    * a worker that raises, dies, or exceeds ``timeout_s`` is retried
      up to ``max_retries`` times, waiting ``backoff_s * 2**(n-1)``
      before attempt ``n+1``;
    * a partition whose retries are exhausted *degrades gracefully*:
      it is re-run sequentially in the parent process (with a
      :class:`RuntimeWarning`), so the run still completes — merged
      catalogs are never corrupted or duplicated because a partition's
      outcome is only ever recorded once;
    * if the in-parent fallback fails too, the run aborts with a
      :class:`~repro.errors.ClusterExecutionError` naming the partition
      and chaining the worker failure.
    """

    name = "processes"
    measured = True

    def __init__(
        self,
        max_workers: int | None = None,
        timeout_s: float | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.25,
        mp_context: str | None = None,
    ):
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.max_workers = max_workers
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.mp_context = mp_context

    def _context(self):
        if self.mp_context is not None:
            return multiprocessing.get_context(self.mp_context)
        # fork is cheapest where available (no re-import of numpy);
        # spawn everywhere else.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def run(
        self,
        units: list[PartitionWorkUnit],
        progress: ProgressHook | None = None,
    ) -> BackendRun:
        ctx = self._context()
        capacity = self.max_workers or len(units) or 1
        started = time.perf_counter()

        pending: deque[tuple[PartitionWorkUnit, int, float]] = deque(
            (unit, 1, 0.0) for unit in units
        )  # (unit, attempt number, not-before timestamp)
        running: list[_Attempt] = []
        outcomes: dict[int, WorkUnitOutcome] = {}
        reports: dict[int, WorkerReport] = {
            unit.server: WorkerReport(server=unit.server, worker="", attempts=0)
            for unit in units
        }
        exhausted: list[tuple[PartitionWorkUnit, str]] = []

        def fail(attempt: _Attempt, reason: str) -> None:
            report = reports[attempt.unit.server]
            report.failures.append(f"attempt {attempt.number}: {reason}")
            if attempt.number <= self.max_retries:
                delay = self.backoff_s * (2 ** (attempt.number - 1))
                pending.append(
                    (attempt.unit, attempt.number + 1, time.perf_counter() + delay)
                )
                if progress is not None:
                    progress(f"server{attempt.unit.server}:retry{attempt.number}")
            else:
                exhausted.append((attempt.unit, reason))

        def succeed(attempt: _Attempt, outcome: WorkUnitOutcome) -> None:
            outcomes[outcome.server] = outcome
            report = reports[outcome.server]
            report.worker = outcome.worker
            report.wall_s = time.perf_counter() - attempt.started
            report.cpu_s = _unit_cpu_s(outcome)
            if progress is not None:
                progress(f"server{outcome.server}")

        while pending or running:
            now = time.perf_counter()
            # launch everything eligible, up to capacity
            blocked: list[tuple[PartitionWorkUnit, int, float]] = []
            while pending and len(running) < capacity:
                unit, number, not_before = pending.popleft()
                if not_before > now:
                    blocked.append((unit, number, not_before))
                    continue
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_process_entry, args=(child_conn, unit), daemon=True
                )
                process.start()
                child_conn.close()
                reports[unit.server].attempts = number
                running.append(
                    _Attempt(unit, number, process, parent_conn, now)
                )
            pending.extendleft(reversed(blocked))

            if not running:
                time.sleep(0.005)  # waiting out a backoff window
                continue

            multiprocessing.connection.wait(
                [attempt.process.sentinel for attempt in running], timeout=0.05
            )
            still_running: list[_Attempt] = []
            for attempt in running:
                if attempt.conn.poll():
                    try:
                        kind, payload = attempt.conn.recv()
                    except (EOFError, OSError):
                        # pipe closed without a message: the worker died
                        attempt.process.join()
                        attempt.conn.close()
                        fail(
                            attempt,
                            f"worker died (exitcode {attempt.process.exitcode})",
                        )
                        continue
                    attempt.process.join()
                    attempt.conn.close()
                    if kind == "ok":
                        succeed(attempt, payload)
                    else:
                        fail(attempt, payload)
                elif not attempt.process.is_alive():
                    attempt.process.join()
                    attempt.conn.close()
                    fail(
                        attempt,
                        f"worker died (exitcode {attempt.process.exitcode})",
                    )
                elif (
                    self.timeout_s is not None
                    and time.perf_counter() - attempt.started > self.timeout_s
                ):
                    attempt.process.terminate()
                    attempt.process.join()
                    attempt.conn.close()
                    fail(attempt, f"timed out after {self.timeout_s:g} s")
                else:
                    still_running.append(attempt)
            running = still_running

        # graceful degradation: run exhausted partitions in-parent
        for unit, reason in exhausted:
            report = reports[unit.server]
            warnings.warn(
                f"partition {unit.server} failed {report.attempts} worker "
                f"attempt(s) (last: {reason}); degrading to sequential "
                f"in-parent execution",
                RuntimeWarning,
                stacklevel=2,
            )
            fallback_started = time.perf_counter()
            try:
                outcome = execute_workunit(unit, cpu_clock="process")
            except Exception as exc:
                raise ClusterExecutionError(
                    f"partition {unit.server} failed on every worker attempt "
                    f"({reason}) and in the sequential fallback: {exc}",
                    server=unit.server,
                ) from exc
            report.attempts += 1
            report.degraded = True
            report.worker = outcome.worker
            report.wall_s = time.perf_counter() - fallback_started
            report.cpu_s = _unit_cpu_s(outcome)
            outcomes[outcome.server] = outcome
            if progress is not None:
                progress(f"server{outcome.server}:degraded")

        return _sorted_run(
            outcomes.values(),
            reports.values(),
            wall_s=time.perf_counter() - started,
        )


class JobPool(Protocol):
    """A pool that runs arbitrary callables — the job-level sibling of
    :class:`ExecutionBackend`.

    ``ExecutionBackend`` runs *partition work units* (picklable, batch,
    run-to-completion); a :class:`JobPool` runs *jobs* — opaque
    callables submitted one at a time by a long-lived dispatcher such
    as the CasJobs :class:`~repro.casjobs.scheduler.Scheduler`.  The
    extra surface a service needs and a batch run does not:
    ``submit`` returns a :class:`concurrent.futures.Future` the caller
    can poll, and ``cancel`` is the hook for revoking work that has not
    started (a running thread cannot be killed — the scheduler handles
    that by abandoning the future and ignoring its eventual result).
    """

    name: str

    def submit(self, fn: Callable, /, *args, **kwargs): ...

    def cancel(self, future) -> bool: ...

    def shutdown(self, wait: bool = True) -> None: ...


class InlineJobPool:
    """Run each job synchronously at submit time (the reference pool).

    Deterministic single-worker execution: ``submit`` runs the callable
    in the calling thread and returns an already-resolved Future.  The
    scheduler on this pool reproduces ``JobQueue.drain`` ordering
    exactly, which is what makes scheduler-driven runs comparable to
    sequential golden runs byte for byte.
    """

    name = "sequential"

    def submit(self, fn: Callable, /, *args, **kwargs):
        from concurrent.futures import Future

        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - ferried to the caller
            future.set_exception(exc)
        return future

    def cancel(self, future) -> bool:
        return False  # already ran

    def shutdown(self, wait: bool = True) -> None:
        pass


class ThreadJobPool:
    """Run jobs on a shared thread pool.

    The service default: CasJobs jobs close over shared in-process
    state (context databases, MyDBs), which threads share for free.
    Real concurrency wherever the engine releases the GIL; correct
    everywhere.
    """

    name = "threads"

    def __init__(self, max_workers: int = 4):
        from concurrent.futures import ThreadPoolExecutor

        if max_workers <= 0:
            raise ConfigError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="casjobs"
        )

    def submit(self, fn: Callable, /, *args, **kwargs):
        return self._pool.submit(fn, *args, **kwargs)

    def cancel(self, future) -> bool:
        return future.cancel()

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=True)


def resolve_job_pool(
    spec: "str | JobPool", max_workers: int = 4
) -> "JobPool":
    """Accept a pool name or instance; return the instance.

    Names map to default-configured pools: ``"sequential"`` (inline)
    and ``"threads"``.  Anything with the
    :class:`JobPool` surface passes through untouched.
    """
    if isinstance(spec, str):
        if spec == "sequential":
            return InlineJobPool()
        if spec == "threads":
            return ThreadJobPool(max_workers=max_workers)
        raise ConfigError(
            f"unknown job pool '{spec}'; expected 'sequential', 'threads' "
            f"or a JobPool instance"
        )
    if all(hasattr(spec, a) for a in ("submit", "cancel", "shutdown")):
        return spec
    raise ConfigError(
        f"pool must be a name or a JobPool, got {type(spec).__name__}"
    )


def resolve_backend(spec: str | ExecutionBackend) -> ExecutionBackend:
    """Accept a backend name or instance; return the instance.

    Names map to default-configured backends: ``"sequential"``,
    ``"threads"``, ``"processes"``.  Anything satisfying the
    :class:`ExecutionBackend` protocol passes through untouched.
    """
    if isinstance(spec, str):
        if spec == "sequential":
            return SequentialBackend()
        if spec == "threads":
            return ThreadBackend()
        if spec == "processes":
            return ProcessBackend()
        raise ConfigError(
            f"unknown execution backend '{spec}'; expected one of "
            f"{BACKEND_NAMES} or an ExecutionBackend instance"
        )
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ConfigError(
        f"backend must be a name or an ExecutionBackend, got {type(spec).__name__}"
    )
