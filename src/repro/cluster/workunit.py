"""Per-partition work units: what crosses the process boundary.

A :class:`PartitionWorkUnit` is the complete, self-contained description
of one server's share of a cluster run — its catalog slice, the
algorithm configuration, the k-correction table and the partition
geometry.  Everything in it is plain dataclasses over numpy arrays, so
a unit pickles cleanly into a worker process; :func:`execute_workunit`
is a module-level function for the same reason (bound methods and
closures do not survive ``spawn``).

The worker ships back a :class:`WorkUnitOutcome`: the full
:class:`~repro.core.pipeline.MaxBCGResult` (catalogs + per-task
:class:`~repro.engine.stats.TaskStats`) plus provenance — which worker
ran it and which CPU clock billed its tasks — so the parent can report
honest per-worker accounting.

Fault injection (:class:`FaultSpec`) lives here too: the
fault-tolerance tests need a deterministic way to make the *n*-th
attempt of a specific server raise or die mid-run, across process
boundaries.  Attempts are counted in small files under a
caller-supplied directory because a plain module global would reset in
every freshly spawned worker.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import MaxBCGConfig
from repro.core.kcorrection import KCorrectionTable
from repro.core.pipeline import MaxBCGPipeline, MaxBCGResult
from repro.engine.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.engine.database import Database
from repro.errors import ClusterExecutionError
from repro.obs.trace import TraceContext
from repro.skyserver.catalog import GalaxyCatalog
from repro.skyserver.regions import RegionBox


class InjectedWorkerFault(ClusterExecutionError):
    """The failure raised by a :class:`FaultSpec` in ``"raise"`` mode."""


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection for backend fault-tolerance tests.

    Attributes
    ----------
    servers:
        Partition numbers whose work units fail.
    mode:
        ``"raise"`` — raise :class:`InjectedWorkerFault`;
        ``"exit"`` — kill the worker with ``os._exit`` (simulates a
        crashed process; only ever triggers in a worker process, never
        in the parent, so the sequential fallback survives it).
    max_failures:
        Fail this many attempts per server, then behave normally.
    counter_dir:
        Directory holding one attempt-counter file per server.
    parent_pid:
        PID of the dispatching process, recorded at construction.
    worker_only:
        When True (default), the fault only fires in a process other
        than ``parent_pid`` — i.e. the in-parent sequential fallback is
        exempt.  ``"exit"`` mode ignores this flag and is *always*
        worker-only: a fault must never kill the caller's process.
    """

    servers: tuple[int, ...]
    mode: str = "raise"
    max_failures: int = 1
    counter_dir: str = "."
    parent_pid: int = field(default_factory=os.getpid)
    worker_only: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "exit"):
            raise ValueError(f"unknown fault mode '{self.mode}'")

    def _counter_path(self, server: int) -> Path:
        return Path(self.counter_dir) / f"server{server}.attempts"

    def failures_so_far(self, server: int) -> int:
        try:
            return int(self._counter_path(server).read_text() or 0)
        except (FileNotFoundError, ValueError):
            return 0

    def maybe_fail(self, server: int) -> None:
        """Fail this attempt if the spec says so (called by the worker)."""
        if server not in self.servers:
            return
        in_parent = os.getpid() == self.parent_pid
        if in_parent and (self.worker_only or self.mode == "exit"):
            return
        so_far = self.failures_so_far(server)
        if so_far >= self.max_failures:
            return
        self._counter_path(server).write_text(str(so_far + 1))
        if self.mode == "exit":
            os._exit(17)
        raise InjectedWorkerFault(
            f"injected fault on server {server} (attempt {so_far + 1})",
            server=server,
        )


@dataclass
class PartitionWorkUnit:
    """One server's job, ready to ship to any execution backend."""

    server: int
    catalog: GalaxyCatalog  # this partition's slice, skirt included
    target: RegionBox
    buffer: RegionBox
    kcorr: KCorrectionTable
    config: MaxBCGConfig
    method: str = "vectorized"
    compute_members: bool = True
    fault: FaultSpec | None = None
    #: Engine knobs for this partition's database — a frozen
    #: :class:`~repro.engine.config.EngineConfig`, so the whole knob set
    #: (optimizer mode, cache settings, ...) pickles
    #: across the process boundary as one object.
    engine_config: EngineConfig | None = None
    #: Trace context of the dispatching cluster run.  When set, the
    #: worker opens a ``cluster.partition`` span parented here, so the
    #: partition's engine-layer spans land in the caller's trace even
    #: across a process boundary (the context is a picklable triple).
    trace: TraceContext | None = None


@dataclass
class WorkUnitOutcome:
    """What a worker sends back: the science + provenance."""

    server: int
    result: MaxBCGResult
    n_galaxies: int
    worker: str  # "pid:<n>" or "pid:<n>/thread:<name>"
    cpu_clock: str  # which clock billed the per-task cpu_s
    #: Spans recorded in a *child process* (where the parent's tracer is
    #: unreachable), shipped home for the dispatcher to absorb.  Empty
    #: for in-process execution — those spans land in the shared tracer
    #: directly.
    spans: list = field(default_factory=list)
    #: Feedback-loop counters from this worker's database (plan-memo
    #: hits/misses, replans, learned overrides) when the unit's
    #: EngineConfig enables feedback; empty otherwise.  Memo state is
    #: per worker — only the observable summary crosses the boundary.
    feedback: dict = field(default_factory=dict)


def worker_label() -> str:
    """Identify the executing worker for per-worker reports."""
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid:{os.getpid()}"
    return f"pid:{os.getpid()}/thread:{thread.name}"


def execute_workunit(
    unit: PartitionWorkUnit, cpu_clock: str = "process"
) -> WorkUnitOutcome:
    """Run one partition's full pipeline and package the outcome.

    Module-level and argument-complete so every backend — in-process,
    thread pool, or child process — executes the identical code path.
    The caller picks the honest ``cpu_clock`` for its concurrency model
    (see :mod:`repro.engine.stats`).
    """
    from contextlib import ExitStack

    from repro.engine.stats import use_cpu_clock
    from repro.obs.trace import activate, get_tracer, set_enabled, span

    if unit.fault is not None:
        unit.fault.maybe_fail(unit.server)
    in_child = unit.trace is not None and os.getpid() != unit.trace.pid
    if unit.trace is not None:
        # A spawn-started child resets module globals: re-enable tracing
        # so the partition span below actually records.  Harmless when
        # already enabled (thread pool / fork).
        set_enabled(True)
    database = Database(
        f"server{unit.server}",
        config=unit.engine_config or DEFAULT_ENGINE_CONFIG,
    )
    pipeline = MaxBCGPipeline(
        unit.kcorr,
        unit.config,
        method=unit.method,
        database=database,
        compute_members=unit.compute_members,
    )
    with ExitStack() as stack:
        stack.enter_context(use_cpu_clock(cpu_clock))
        if unit.trace is not None:
            # Re-parent under the dispatcher's cluster.run span: pool
            # threads don't inherit the dispatcher's contextvars and
            # child processes have none, so activation is explicit.
            stack.enter_context(activate(unit.trace))
            stack.enter_context(span(
                "cluster.partition",
                layer="cluster",
                counters=database.pool.counters,
                attrs={"server": unit.server,
                       "galaxies": len(unit.catalog)},
            ))
        result = pipeline.run(unit.catalog, unit.target, unit.buffer)
    spans = get_tracer().drain() if in_child else []
    return WorkUnitOutcome(
        server=unit.server,
        result=result,
        n_galaxies=len(unit.catalog),
        worker=worker_label(),
        cpu_clock=cpu_clock,
        spans=spans,
        feedback=(
            database.feedback.summary()
            if database.feedback is not None else {}
        ),
    )
