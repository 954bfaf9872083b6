"""Parallel MaxBCG on a cluster of database servers (Section 2.4).

Each partition runs the full single-node pipeline against its own
:class:`~repro.engine.database.Database` instance ("when running in
parallel, the data distribution is arranged so each server is
completely independent from the others").  *How* the partitions execute
is delegated to an :class:`~repro.cluster.backends.ExecutionBackend`:

* ``"sequential"`` (default) — partitions run one after another and the
  cluster's elapsed time is *modeled* by the paper's own aggregation
  rule: elapsed = the *maximum* over servers (they run concurrently on
  separate machines; the slowest one gates the answer — exactly how the
  paper's "Partitioning Total" row equals P2's 8,988 s), while CPU and
  I/O are the *sums* over servers (total work, which exceeds the
  one-node run by the duplicated skirts — the paper's 127% / 126%
  ratios);
* ``"threads"`` / ``"processes"`` — partitions genuinely run
  concurrently and the cluster records the *measured* wall-clock,
  per-worker attempts and honest per-worker CPU.

Whatever the backend, the merged candidate/cluster/member catalogs are
identical — :func:`repro.cluster.verify.assert_backends_equivalent`
checks that byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.backends import (
    BackendRun,
    ExecutionBackend,
    WorkerReport,
    resolve_backend,
)
from repro.cluster.partitioning import PartitionLayout, make_partitions
from repro.cluster.workunit import FaultSpec, PartitionWorkUnit
from repro.core.config import MaxBCGConfig
from repro.core.kcorrection import KCorrectionTable
from repro.core.pipeline import MaxBCGResult
from repro.core.results import CandidateCatalog, MemberTable
from repro.engine.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.engine.stats import TaskStats
from repro.obs.trace import current_context, enabled, get_tracer, span
from repro.skyserver.catalog import GalaxyCatalog

#: Task names aggregated into Table 1 totals.
TABLE1_TASKS = ("spZone", "fBCGCandidate", "fIsCluster")


@dataclass
class PartitionRun:
    """One server's result plus its workload size and provenance."""

    server: int
    result: MaxBCGResult
    n_galaxies: int  # galaxies imported on this server (skirt included)
    worker: str = ""  # who executed it ("pid:.." / "pid:../thread:..")
    attempts: int = 1  # worker attempts consumed (retries included)
    #: This worker's feedback-optimizer summary (plan-memo hit rates,
    #: replans, learned overrides) when its EngineConfig enables
    #: feedback; empty otherwise.
    feedback: dict = field(default_factory=dict)

    @property
    def total_stats(self) -> TaskStats:
        return self.result.total_stats


@dataclass
class ClusterRunResult:
    """A full partitioned run: per-server results and merged catalogs.

    The elapsed story, in one place: :attr:`elapsed_s` is the *measured*
    end-to-end wall-clock when a parallel backend ran (``wall_s`` is
    then set), and the *modeled* max-over-servers otherwise;
    :attr:`modeled_elapsed_s` is always available for the paper's
    Table 1 accounting regardless of backend.
    """

    layout: PartitionLayout
    runs: list[PartitionRun]
    candidates: CandidateCatalog
    clusters: CandidateCatalog
    members: MemberTable
    wall_s: float | None = None  # measured wall-clock (parallel backends)
    backend: str = "sequential"  # name of the backend that executed
    workers: list[WorkerReport] = field(default_factory=list)

    @property
    def modeled_elapsed_s(self) -> float:
        """The slowest server's pipeline time (the paper's rule)."""
        return max(r.total_stats.elapsed_s for r in self.runs)

    @property
    def elapsed_s(self) -> float:
        """Cluster wall-clock: measured when parallel, modeled otherwise."""
        if self.wall_s is not None:
            return self.wall_s
        return self.modeled_elapsed_s

    @property
    def cpu_s(self) -> float:
        """Total CPU burned across servers."""
        return sum(r.total_stats.cpu_s for r in self.runs)

    @property
    def io_ops(self) -> int:
        """Total I/O operations across servers."""
        return sum(r.total_stats.io_ops for r in self.runs)

    @property
    def total_galaxies(self) -> int:
        """Sum of per-server imports — exceeds the unique count by the
        duplicated skirts (Table 1's 2,348,050 vs 1,574,656)."""
        return sum(r.n_galaxies for r in self.runs)

    def task_stats(self, server: int) -> dict[str, TaskStats]:
        return self.runs[server].result.stats


class SqlServerCluster:
    """A simulated cluster of independent database servers.

    Parameters
    ----------
    kcorr, config:
        The k-correction table and algorithm parameters.
    n_servers:
        Partition count (declination stripes, Figure 6).
    method:
        Pipeline method, ``"vectorized"`` or ``"cursor"``.
    compute_members:
        Skip membership retrieval when False (Table 1 excludes it).
    backend:
        ``"sequential"`` | ``"threads"`` | ``"processes"`` or any
        :class:`~repro.cluster.backends.ExecutionBackend` instance.
        (The retired boolean parallel flag is gone; pass
        ``backend="threads"`` / ``"sequential"`` explicitly.)
    fault:
        Optional :class:`~repro.cluster.workunit.FaultSpec` injected
        into every work unit — used by the fault-tolerance tests.
    engine_config:
        :class:`~repro.engine.config.EngineConfig` for each partition's
        database — one object carries every engine knob across the
        process boundary.
    """

    def __init__(
        self,
        kcorr: KCorrectionTable,
        config: MaxBCGConfig,
        n_servers: int = 3,
        method: str = "vectorized",
        compute_members: bool = True,
        backend: str | ExecutionBackend = "sequential",
        *,
        fault: FaultSpec | None = None,
        engine_config: EngineConfig | None = None,
    ):
        self.kcorr = kcorr
        self.config = config
        self.n_servers = n_servers
        self.method = method
        self.compute_members = compute_members
        self.backend = resolve_backend(backend)
        self.fault = fault
        self.engine_config = engine_config or DEFAULT_ENGINE_CONFIG

    def make_workunits(
        self, catalog: GalaxyCatalog, layout: PartitionLayout
    ) -> list[PartitionWorkUnit]:
        """Slice the catalog per partition into shippable work units."""
        return [
            PartitionWorkUnit(
                server=partition.server,
                catalog=catalog.select_region(partition.imported),
                target=partition.target,
                buffer=partition.buffer,
                kcorr=self.kcorr,
                config=self.config,
                method=self.method,
                compute_members=self.compute_members,
                fault=self.fault,
                engine_config=self.engine_config,
            )
            for partition in layout.partitions
        ]

    def run(
        self,
        catalog: GalaxyCatalog,
        target,
        progress: Callable[[str], None] | None = None,
    ) -> ClusterRunResult:
        """Distribute, run every partition, merge the answers."""
        layout = make_partitions(target, self.config.buffer_deg, self.n_servers)
        units = self.make_workunits(catalog, layout)
        with span(
            "cluster.run",
            layer="cluster",
            attrs={"backend": self.backend.name, "n_servers": self.n_servers},
        ):
            if enabled():
                # Stamp the dispatch context on every unit so worker-side
                # cluster.partition spans parent under this cluster.run —
                # across pool threads and child processes alike.
                ctx = current_context()
                for unit in units:
                    unit.trace = ctx
            executed: BackendRun = self.backend.run(units, progress=progress)
        # Child processes can't reach our tracer; they ship their spans
        # home inside the outcome and we absorb them here.
        tracer = get_tracer()
        for outcome in executed.outcomes:
            if outcome.spans:
                tracer.absorb(outcome.spans)
                outcome.spans = []

        runs = [
            PartitionRun(
                server=outcome.server,
                result=outcome.result,
                n_galaxies=outcome.n_galaxies,
                worker=outcome.worker,
                attempts=report.attempts,
                feedback=outcome.feedback,
            )
            for outcome, report in zip(executed.outcomes, executed.workers)
        ]

        candidates = CandidateCatalog.empty()
        clusters = CandidateCatalog.empty()
        members = MemberTable.empty()
        for run in runs:
            candidates = candidates.concat(run.result.candidates)
            clusters = clusters.concat(run.result.clusters)
            members = members.concat(run.result.members)

        return ClusterRunResult(
            layout=layout,
            runs=runs,
            candidates=candidates.dedup_by_objid().sort_by_objid(),
            clusters=clusters.dedup_by_objid().sort_by_objid(),
            members=members,
            wall_s=executed.wall_s if self.backend.measured else None,
            backend=self.backend.name,
            workers=executed.workers,
        )


def run_partitioned(
    catalog: GalaxyCatalog,
    target,
    kcorr: KCorrectionTable,
    config: MaxBCGConfig,
    n_servers: int = 3,
    method: str = "vectorized",
    compute_members: bool = True,
    backend: str | ExecutionBackend = "sequential",
    *,
    progress: Callable[[str], None] | None = None,
    engine_config: EngineConfig | None = None,
) -> ClusterRunResult:
    """Convenience wrapper: build a cluster and run one target region.

    ``backend`` selects how partitions execute (see
    :mod:`repro.cluster.backends`): ``"sequential"`` models the paper's
    separate machines (elapsed = max over servers), ``"threads"`` and
    ``"processes"`` really run concurrently and record the measured
    ``wall_s``.  Per-task CPU stays honest in every mode: thread workers
    bill ``thread_time``, process workers their own ``process_time``.
    ``engine_config`` carries every per-partition engine knob.
    """
    cluster = SqlServerCluster(
        kcorr,
        config,
        n_servers,
        method=method,
        compute_members=compute_members,
        backend=backend,
        engine_config=engine_config,
    )
    return cluster.run(catalog, target, progress=progress)
