"""Partitioned execution across simulated servers."""

import numpy as np
import pytest

from repro.cluster.executor import SqlServerCluster, run_partitioned


@pytest.fixture(scope="module")
def partitioned(sky, target_region, kcorr, config):
    return run_partitioned(
        sky.catalog, target_region, kcorr, config, n_servers=2,
        compute_members=False,
    )


class TestClusterRun:
    def test_per_server_runs(self, partitioned):
        assert len(partitioned.runs) == 2
        assert [r.server for r in partitioned.runs] == [0, 1]

    def test_galaxies_duplicated_across_servers(self, partitioned, sky):
        assert partitioned.total_galaxies > sky.n_galaxies

    def test_elapsed_is_max(self, partitioned):
        per_server = [r.total_stats.elapsed_s for r in partitioned.runs]
        assert partitioned.elapsed_s == max(per_server)

    def test_cpu_and_io_are_sums(self, partitioned):
        assert partitioned.cpu_s == pytest.approx(
            sum(r.total_stats.cpu_s for r in partitioned.runs)
        )
        assert partitioned.io_ops == sum(
            r.total_stats.io_ops for r in partitioned.runs
        )

    def test_task_stats_accessible(self, partitioned):
        stats = partitioned.task_stats(0)
        assert "fBCGCandidate" in stats

    def test_merged_catalogs_deduplicated(self, partitioned):
        assert np.unique(partitioned.candidates.objid).size == len(
            partitioned.candidates
        )
        assert np.unique(partitioned.clusters.objid).size == len(
            partitioned.clusters
        )

    def test_clusters_within_target(self, partitioned, target_region):
        clusters = partitioned.clusters
        assert np.all(target_region.contains(clusters.ra, clusters.dec))

    def test_members_computed_when_requested(self, sky, target_region,
                                             kcorr, config):
        cluster = SqlServerCluster(kcorr, config, n_servers=2,
                                   compute_members=True)
        result = cluster.run(sky.catalog, target_region)
        assert len(result.members) > 0


class TestParallelExecution:
    def test_parallel_matches_sequential(self, sky, target_region, kcorr,
                                         config, partitioned):
        import numpy as np

        parallel = SqlServerCluster(
            kcorr, config, n_servers=2, compute_members=False,
            backend="threads",
        ).run(sky.catalog, target_region)
        assert np.array_equal(parallel.clusters.objid,
                              partitioned.clusters.objid)
        assert np.array_equal(parallel.candidates.objid,
                              partitioned.candidates.objid)

    def test_wall_clock_recorded_only_in_parallel(self, sky, target_region,
                                                  kcorr, config, partitioned):
        assert partitioned.wall_s is None
        parallel = SqlServerCluster(
            kcorr, config, n_servers=2, compute_members=False,
            backend="threads",
        ).run(sky.catalog, target_region)
        assert parallel.wall_s is not None and parallel.wall_s > 0

    def test_runs_ordered_by_server(self, sky, target_region, kcorr, config):
        parallel = SqlServerCluster(
            kcorr, config, n_servers=3, compute_members=False,
            backend="threads",
        ).run(sky.catalog, target_region)
        assert [r.server for r in parallel.runs] == [0, 1, 2]


class TestRemovedParallelFlag:
    """The deprecated boolean flag finished its cycle and is gone."""

    def test_cluster_rejects_removed_flag(self, kcorr, config):
        with pytest.raises(TypeError, match="parallel"):
            SqlServerCluster(
                kcorr, config, n_servers=2, compute_members=False,
                parallel=True,
            )

    def test_run_partitioned_rejects_removed_flag(
        self, sky, target_region, kcorr, config
    ):
        with pytest.raises(TypeError, match="parallel"):
            run_partitioned(
                sky.catalog, target_region, kcorr, config, n_servers=2,
                compute_members=False, parallel=False,
            )


class TestEngineConfigPlumbing:
    def test_cluster_carries_engine_config(self, kcorr, config):
        from repro.engine.config import EngineConfig

        cluster = SqlServerCluster(
            kcorr, config, n_servers=2, compute_members=False,
            engine_config=EngineConfig(band_joins=False),
        )
        assert cluster.engine_config.band_joins is False

    def test_config_rides_into_workunits(self, kcorr, config, target_region,
                                         sky):
        from repro.cluster.partitioning import make_partitions
        from repro.engine.config import EngineConfig

        cluster = SqlServerCluster(
            kcorr, config, n_servers=2, compute_members=False,
            engine_config=EngineConfig(band_joins=False),
        )
        layout = make_partitions(target_region, config.buffer_deg, 2)
        units = cluster.make_workunits(sky.catalog, layout)
        assert all(u.engine_config.band_joins is False for u in units)

    def test_run_partitioned_answers_identical_with_config(
        self, sky, target_region, kcorr, config, partitioned
    ):
        from repro.engine.config import EngineConfig

        result = run_partitioned(
            sky.catalog, target_region, kcorr, config, n_servers=2,
            compute_members=False,
            engine_config=EngineConfig(compiled_expressions=False),
        )
        assert np.array_equal(result.clusters.objid,
                              partitioned.clusters.objid)


class TestElapsedStory:
    def test_sequential_elapsed_is_modeled(self, partitioned):
        assert partitioned.backend == "sequential"
        assert partitioned.wall_s is None
        assert partitioned.elapsed_s == partitioned.modeled_elapsed_s

    def test_parallel_elapsed_is_measured(self, sky, target_region, kcorr,
                                          config):
        parallel = SqlServerCluster(
            kcorr, config, n_servers=2, compute_members=False,
            backend="threads",
        ).run(sky.catalog, target_region)
        assert parallel.elapsed_s == parallel.wall_s
        # the modeled number stays available for Table 1 accounting
        per_server = [r.total_stats.elapsed_s for r in parallel.runs]
        assert parallel.modeled_elapsed_s == max(per_server)
