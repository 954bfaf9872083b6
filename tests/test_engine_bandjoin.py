"""BandJoin: semantics, planner extraction, and shared-plan determinism.

The operator-level contract is exact equivalence with a
:class:`NestedLoopJoin` over the expanded predicate — byte-identical
batches, not merely the same rows — exercised here on hand-built edge
cases (empty inputs, NaN bounds, NaN keys, zero-match bands) and on 50
randomized seeded band specs.  On top of that: the cost planner must
extract the band from SQL range conjuncts (and pick ``BandJoin`` for
the MaxBCG kernel once the chi² filter's implied color band is stated),
one plan run by several threads at once must return identical output
(CasJobs workers share memoized plans), and the processes cluster
backend must agree with the sequential one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import join as join_module
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.expressions import BinaryOp, FuncCall, and_, col, lit
from repro.engine.join import (
    BandJoin,
    CrossJoin,
    HashJoin,
    NestedLoopJoin,
    _sort_order,
    pair_blocks,
)
from repro.engine.operators import Materialized


def assert_batches_identical(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        left, right = np.asarray(a[key]), np.asarray(b[key])
        assert left.dtype == right.dtype, key
        if left.dtype.kind == "f":
            assert np.array_equal(left, right, equal_nan=True), key
        else:
            assert np.array_equal(left, right), key


def band_predicate(key, low, high, low_strict, high_strict, residual=None):
    """The NestedLoopJoin predicate a band spec desugars to."""
    parts = []
    if low is not None:
        parts.append(BinaryOp(">" if low_strict else ">=", key, low))
    if high is not None:
        parts.append(BinaryOp("<" if high_strict else "<=", key, high))
    if residual is not None:
        parts.append(residual)
    return and_(*parts)


def assert_band_equals_nested_loop(left, right, key, low=None, high=None,
                                   low_strict=False, high_strict=False,
                                   residual=None, **band_kwargs):
    band = BandJoin(left, right, key, low=low, high=high,
                    low_strict=low_strict, high_strict=high_strict,
                    residual=residual, **band_kwargs).execute()
    oracle = NestedLoopJoin(
        left, right,
        band_predicate(key, low, high, low_strict, high_strict, residual),
    ).execute()
    assert_batches_identical(band, oracle)
    return band


def left_batch():
    return Materialized({
        "l.id": np.arange(6, dtype=np.int64),
        "l.x": np.array([0.0, 1.5, 3.0, 4.5, 6.0, 7.5]),
    })


def right_batch():
    return Materialized({
        "r.key": np.array([5.0, 1.0, 3.0, 3.0, 0.5, 8.0, 2.5]),
        "r.w": np.arange(7, dtype=np.int64),
    })


class TestBandJoinSemantics:
    def test_two_sided_inclusive(self):
        out = assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            low=BinaryOp("-", col("x", "l"), lit(1.0)),
            high=BinaryOp("+", col("x", "l"), lit(1.0)),
        )
        assert out["l.id"].size > 0

    def test_strict_bounds_exclude_boundary(self):
        # key == 3.0 appears twice; with x == 3.0 and strict bounds at
        # exactly [x, x] nothing may match
        out = assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            low=col("x", "l"), high=col("x", "l"),
            low_strict=True, high_strict=True,
        )
        assert out["l.id"].size == 0
        inclusive = assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            low=col("x", "l"), high=col("x", "l"),
        )
        assert inclusive["l.id"].tolist() == [2, 2]  # both key==3.0 rows

    def test_one_sided_bands(self):
        assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            low=col("x", "l"), low_strict=True,
        )
        assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            high=col("x", "l"),
        )

    def test_residual_filter(self):
        assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            low=BinaryOp("-", col("x", "l"), lit(2.0)),
            high=BinaryOp("+", col("x", "l"), lit(2.0)),
            residual=BinaryOp(">", BinaryOp("+", col("w", "r"), col("id", "l")),
                              lit(4)),
        )

    def test_canonical_pair_order(self):
        out = BandJoin(
            left_batch(), right_batch(), col("key", "r"),
            low=lit(0.0), high=lit(10.0),
        ).execute()
        pairs = list(zip(out["l.id"].tolist(), out["r.w"].tolist()))
        assert pairs == sorted(pairs)  # (left row, right original row)

    def test_integer_key_stays_integer(self):
        left = Materialized({"l.a": np.array([2, 5], dtype=np.int64)})
        right = Materialized({"r.k": np.array([1, 2, 3, 4, 5, 6],
                                              dtype=np.int64)})
        out = assert_band_equals_nested_loop(
            left, right, col("k", "r"),
            low=BinaryOp("-", col("a", "l"), lit(1)),
            high=BinaryOp("+", col("a", "l"), lit(1)),
        )
        assert out["r.k"].dtype == np.int64


class TestBandJoinEdgeCases:
    def test_empty_left(self):
        left = Materialized({"l.x": np.empty(0)})
        out = assert_band_equals_nested_loop(
            left, right_batch(), col("key", "r"),
            low=col("x", "l"),
        )
        assert sorted(out) == ["l.x", "r.key", "r.w"]
        assert all(out[k].size == 0 for k in out)

    def test_empty_right(self):
        right = Materialized({"r.key": np.empty(0), "r.w": np.empty(0)})
        out = assert_band_equals_nested_loop(
            left_batch(), right, col("key", "r"),
            low=col("x", "l"), high=col("x", "l"),
        )
        assert all(out[k].size == 0 for k in out)

    def test_cross_join_empty_sides(self):
        empty = Materialized({"e.v": np.empty(0)})
        assert CrossJoin(empty, right_batch()).execute()["r.w"].size == 0
        assert CrossJoin(left_batch(), empty).execute()["l.id"].size == 0

    def test_nan_bound_rows_match_nothing(self):
        left = Materialized({
            "l.id": np.arange(4, dtype=np.int64),
            "l.x": np.array([1.0, np.nan, 3.0, np.nan]),
        })
        out = assert_band_equals_nested_loop(
            left, right_batch(), col("key", "r"),
            low=BinaryOp("-", col("x", "l"), lit(1.0)),
            high=BinaryOp("+", col("x", "l"), lit(1.0)),
        )
        assert set(out["l.id"].tolist()) <= {0, 2}

    def test_nan_keys_never_matched(self):
        right = Materialized({
            "r.key": np.array([1.0, np.nan, 3.0, np.nan, 5.0]),
            "r.w": np.arange(5, dtype=np.int64),
        })
        # one-sided band to +inf is the trap: an unclamped searchsorted
        # stop would sweep the NaNs sorted past the finite keys
        out = assert_band_equals_nested_loop(
            left_batch(), right, col("key", "r"),
            low=col("x", "l"),
        )
        assert not set(out["r.w"].tolist()) & {1, 3}

    def test_zero_match_band(self):
        out = assert_band_equals_nested_loop(
            left_batch(), right_batch(), col("key", "r"),
            low=lit(100.0), high=lit(200.0),
        )
        assert all(out[k].size == 0 for k in out)

    def test_nan_bound_and_nan_key_together(self):
        left = Materialized({"l.x": np.array([np.nan, 2.0])})
        right = Materialized({"r.key": np.array([np.nan, 2.0, np.nan])})
        out = assert_band_equals_nested_loop(
            left, right, col("key", "r"),
            low=col("x", "l"), high=col("x", "l"),
        )
        assert out["r.key"].tolist() == [2.0]


def random_band_case(rng, rkey: np.ndarray, **band_kwargs):
    """A seeded left side and band spec over the given right keys,
    checked against the nested loop."""
    n_left = int(rng.integers(0, 120))
    lx = rng.uniform(-10, 10, n_left)
    lx[rng.random(n_left) < 0.1] = np.nan
    left = Materialized({
        "l.id": np.arange(n_left, dtype=np.int64),
        "l.x": lx,
        "l.y": rng.uniform(-5, 5, n_left),
    })
    right = Materialized({
        "r.key": rkey,
        "r.w": rng.uniform(0, 1, rkey.size),
    })

    width = float(rng.uniform(0.1, 6.0))
    shape = rng.integers(0, 4)
    low = high = None
    low_strict = bool(rng.integers(0, 2))
    high_strict = bool(rng.integers(0, 2))
    if shape == 0:  # symmetric band around l.x
        low = BinaryOp("-", col("x", "l"), lit(width))
        high = BinaryOp("+", col("x", "l"), lit(width))
    elif shape == 1:  # one-sided
        if rng.random() < 0.5:
            low = col("x", "l")
        else:
            high = col("x", "l")
    elif shape == 2:  # literal bounds
        lo_value = float(rng.uniform(-8, 4))
        low = lit(lo_value)
        high = lit(lo_value + width)
    else:  # asymmetric expression bounds
        low = BinaryOp("-", col("x", "l"), lit(width))
        high = BinaryOp("+", BinaryOp("*", col("x", "l"), lit(0.5)),
                        lit(width))
    residual = None
    if rng.random() < 0.5:
        residual = BinaryOp(
            ">", BinaryOp("+", col("y", "l"), col("w", "r")),
            lit(float(rng.uniform(-4, 4))),
        )
    return assert_band_equals_nested_loop(
        left, right, col("key", "r"),
        low=low, high=high,
        low_strict=low_strict, high_strict=high_strict,
        residual=residual,
        block_rows=band_kwargs.pop("block_rows", int(rng.integers(1, 40))),
        **band_kwargs,
    )


class TestBandJoinDifferential:
    """Randomized seeded band specs: BandJoin ≡ NestedLoopJoin."""

    @pytest.mark.parametrize("seed", range(50))
    def test_random_band_equivalence(self, seed):
        rng = np.random.default_rng(9000 + seed)
        n_right = int(rng.integers(0, 90))
        if rng.random() < 0.3:
            rkey = rng.integers(-10, 10, n_right).astype(np.int64)
        else:
            rkey = rng.uniform(-12, 12, n_right)
            rkey[rng.random(n_right) < 0.15] = np.nan
        random_band_case(rng, rkey)

    @pytest.mark.parametrize("block_rows", [1, 4])
    @pytest.mark.parametrize("seed", range(20))
    def test_sorted_build_side_equivalence(self, seed, block_rows):
        """A build side already in key order (a clustered scan) skips
        the sort, and its pairs need no reordering: duplicate keys and
        trailing NaN keys included, across many block boundaries."""
        rng = np.random.default_rng(9100 + seed)
        n_right = int(rng.integers(1, 90))
        if seed % 3 == 0:
            rkey = np.sort(rng.integers(-10, 10, n_right)).astype(np.int64)
        else:
            # one decimal: runs of duplicate keys, then NaNs at the end
            rkey = np.sort(np.round(rng.uniform(-12, 12, n_right), 1))
            rkey = np.concatenate([rkey, np.full(int(rng.integers(0, 8)),
                                                 np.nan)])
        assert _sort_order(rkey, int(np.isfinite(rkey).sum())) is None
        random_band_case(rng, rkey, block_rows=block_rows)

    @pytest.mark.parametrize("block_rows", [1, 4])
    def test_unsorted_build_side_selective_residual(self, block_rows):
        """Out of key order, the residual runs first and only its few
        survivors are put back in canonical order."""
        rng = np.random.default_rng(9200)
        n_left, n_right = 300, 400
        left = Materialized({
            "l.id": np.arange(n_left, dtype=np.int64),
            "l.x": rng.uniform(-10, 10, n_left),
        })
        rkey = rng.uniform(-10, 10, n_right)
        rkey[rng.random(n_right) < 0.1] = np.nan
        right = Materialized({"r.key": rkey, "r.w": rng.uniform(0, 1, n_right)})
        assert _sort_order(rkey, int(np.isfinite(rkey).sum())) is not None
        out = assert_band_equals_nested_loop(
            left, right, col("key", "r"),
            low=BinaryOp("-", col("x", "l"), lit(5.0)),
            high=BinaryOp("+", col("x", "l"), lit(5.0)),
            residual=BinaryOp(">", col("w", "r"), lit(0.97)),
            block_rows=block_rows,
        )
        candidates = BandJoin(
            left, right, col("key", "r"),
            low=BinaryOp("-", col("x", "l"), lit(5.0)),
            high=BinaryOp("+", col("x", "l"), lit(5.0)),
        ).execute()
        assert 0 < out["l.id"].size < candidates["l.id"].size // 10


class TestHashJoinBuildSide:
    def test_builds_on_smaller_estimate(self):
        left, right = left_batch(), right_batch()
        join = HashJoin(left, right, col("id", "l"), col("w", "r"))
        left.est_rows, right.est_rows = 10.0, 1000.0
        assert not join._build_on_right(6, 7)
        left.est_rows, right.est_rows = 1000.0, 10.0
        assert join._build_on_right(6, 7)

    def test_falls_back_to_actual_lengths(self):
        join = HashJoin(left_batch(), right_batch(),
                        col("id", "l"), col("w", "r"))
        assert join._build_on_right(100, 7)
        assert not join._build_on_right(7, 100)

    def test_swapped_build_side_output_identical(self):
        left = Materialized({
            "l.k": np.array([1, 2, 2, 3, 3, 3], dtype=np.int64),
            "l.v": np.arange(6, dtype=np.int64),
        })
        right = Materialized({
            "r.k": np.array([3, 2, 3, 9], dtype=np.int64),
            "r.u": np.arange(4, dtype=np.int64),
        })
        results = []
        for left_est, right_est in ((1.0, 100.0), (100.0, 1.0)):
            left.est_rows, right.est_rows = left_est, right_est
            results.append(
                HashJoin(left, right, col("k", "l"), col("k", "r")).execute()
            )
        assert_batches_identical(results[0], results[1])
        pairs = list(zip(results[0]["l.v"].tolist(), results[0]["r.u"].tolist()))
        assert pairs == sorted(pairs)  # canonical order either way

    def test_outer_join_swapped_build_side(self):
        left = Materialized({
            "l.k": np.array([1, 2, 7], dtype=np.int64),
            "l.v": np.array([10.0, 20.0, 70.0]),
        })
        right = Materialized({
            "r.k": np.array([2, 2], dtype=np.int64),
            "r.u": np.array([5.0, 6.0]),
        })
        results = []
        for left_est, right_est in ((1.0, 100.0), (100.0, 1.0)):
            left.est_rows, right.est_rows = left_est, right_est
            results.append(
                HashJoin(left, right, col("k", "l"), col("k", "r"),
                         outer=True).execute()
            )
        assert_batches_identical(results[0], results[1])
        assert np.isnan(results[0]["r.u"]).sum() == 2  # rows 1 and 7 padded


class TestNestedLoopAdaptiveBlocks:
    def test_adaptive_equals_fixed_blocks(self):
        predicate = BinaryOp("<", col("x", "l"), col("key", "r"))
        adaptive = NestedLoopJoin(left_batch(), right_batch(), predicate)
        fixed = NestedLoopJoin(left_batch(), right_batch(), predicate,
                               block_rows=2)
        assert_batches_identical(adaptive.execute(), fixed.execute())

    def test_blocks_respect_pair_budget(self, monkeypatch):
        """No block of a running join expands more than PAIR_BUDGET
        pairs, except a block of one probe row whose own range is
        larger."""
        monkeypatch.setattr(join_module, "PAIR_BUDGET", 10)
        expanded = []
        real = join_module.expand_ranges

        def spy(starts, counts):
            expanded.append(counts.copy())
            return real(starts, counts)

        monkeypatch.setattr(join_module, "expand_ranges", spy)
        left = Materialized({"l.a": np.arange(9, dtype=np.int64)})
        right = Materialized({"r.k": np.arange(4, dtype=np.int64)})
        wide = Materialized({"r.k": np.arange(25, dtype=np.int64)})
        for build in (right, wide):
            predicate = BinaryOp("<", col("a", "l"), col("k", "r"))
            out = NestedLoopJoin(left, build, predicate).execute()
            oracle = NestedLoopJoin(left, build, predicate,
                                    block_rows=1).execute()
            assert_batches_identical(out, oracle)
        assert expanded
        for counts in expanded:
            assert counts.sum() <= 10 or counts.size == 1

    def test_block_rows_caps_probe_rows(self, monkeypatch):
        monkeypatch.setattr(join_module, "PAIR_BUDGET", 10)
        counts = np.array([3, 0, 4, 12, 2, 2, 2, 0, 0, 5, 11, 1, 0])
        for block_rows in (0, 2, 5):
            blocks = list(pair_blocks(counts, block_rows))
            assert blocks[0][0] == 0 and blocks[-1][1] == counts.size
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            for start, stop in blocks:
                assert counts[start:stop].sum() <= 10 or stop - start == 1
                assert not block_rows or stop - start <= block_rows


class TestSharedPlanDeterminism:
    """CasJobs threads run one memoized plan object at once: a node and
    its compiled kernel keep no per-call state."""

    def test_operator_output_identical_across_threads(self):
        join = BandJoin(
            left_batch(), right_batch(), col("key", "r"),
            low=BinaryOp("-", col("x", "l"), lit(2.0)),
            high=BinaryOp("+", col("x", "l"), lit(2.0)),
            residual=BinaryOp(">", col("w", "r"), lit(1)),
            block_rows=2,
        )
        join.compiled = True
        base = join.execute()
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(lambda _: join.execute(), range(8)))
        for out in outs:
            assert_batches_identical(base, out)


# ----------------------------------------------------------------------
# SQL-level: extraction, plan choice, and end-to-end determinism
# ----------------------------------------------------------------------
def _sql_database(band_joins: bool = True, **knobs):
    rng = np.random.default_rng(77)
    n_obj, n_grid = 4000, 600
    db = Database("bandjoin", config=EngineConfig(band_joins=band_joins,
                                                  **knobs))
    db.create_table("obj", {
        "id": np.arange(n_obj, dtype=np.int64),
        "mag": rng.uniform(14.0, 22.0, n_obj),
        "colour": rng.uniform(-1.0, 3.0, n_obj),
    }, primary_key="id")
    db.create_table("grid", {
        "gid": np.arange(n_grid, dtype=np.int64),
        "mag": rng.uniform(14.0, 22.0, n_grid),
        "colour": rng.uniform(-1.0, 3.0, n_grid),
    }, primary_key="gid")
    db.sql("ANALYZE")
    return db


BAND_SQL = """
SELECT o.id AS id, COUNT(*) AS n
FROM obj o CROSS JOIN grid g
WHERE ABS(o.mag - g.mag) < 0.3 AND o.colour + g.colour > 1.0
GROUP BY o.id
"""


class TestSqlExtraction:
    def test_cost_mode_extracts_band_join(self):
        db = _sql_database()
        plan = db.explain(BAND_SQL)
        assert "BandJoin" in plan and "NestedLoopJoin" not in plan
        assert "residual" in plan  # the colour conjunct stays vectorized

    def test_explain_renders_band_bounds(self):
        db = _sql_database()
        plan = db.explain("SELECT o.id FROM obj o JOIN grid g "
                          "ON g.mag BETWEEN o.mag - 0.5 AND o.mag + 0.5")
        assert "BandJoin(g.mag in [" in plan

    def test_syntactic_mode_unchanged(self):
        db = _sql_database()
        db.config = db.config.replace(optimizer="syntactic")
        assert "BandJoin" not in db.explain(BAND_SQL)

    def test_band_disabled_database_uses_nested_loop(self):
        db = _sql_database(band_joins=False)
        plan = db.explain(BAND_SQL)
        assert "BandJoin" not in plan and "NestedLoopJoin" in plan

    def test_band_and_baseline_answers_identical(self):
        banded = _sql_database().sql(BAND_SQL)
        baseline = _sql_database(band_joins=False).sql(BAND_SQL)
        assert_batches_identical(banded.columns, baseline.columns)

    def test_all_band_chain_extracts_every_join_step(self):
        chain = ("SELECT COUNT(*) AS n, SUM(c.gid) AS s FROM grid a "
                 "JOIN grid b ON ABS(a.mag - b.mag) < 0.05 "
                 "JOIN grid c ON ABS(b.colour - c.colour) < 0.05")
        banded, baseline = _sql_database(), _sql_database(band_joins=False)
        assert banded.explain(chain).count("BandJoin(") == 2
        assert "BandJoin" not in baseline.explain(chain)
        assert_batches_identical(banded.sql(chain).columns,
                                 baseline.sql(chain).columns)

    def test_plan_nodes_carry_no_worker_count(self):
        db = _sql_database()
        plan = db.sql(BAND_SQL).plan_node
        nodes = [plan]
        while nodes:
            node = nodes.pop()
            assert not hasattr(node, "workers"), type(node).__name__
            nodes.extend(node._children())
        assert "workers=" not in db.explain(BAND_SQL)

    def test_sql_results_identical_across_workers(self):
        """CasJobs worker threads running one memoized band plan at once
        all get the single-threaded answer."""
        db = _sql_database(feedback=True, qerror_ceiling=1e9)
        base = db.sql(BAND_SQL)
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(lambda _: db.sql(BAND_SQL), range(8)))
        assert {out.memo_decision for out in outs} == {"hit"}
        for out in outs:
            assert_batches_identical(base.columns, out.columns)


class TestKernelPlan:
    """Cost mode picks BandJoin for the MaxBCG likelihood kernel."""

    @pytest.fixture(scope="class")
    def kernel_db(self, sky, kcorr, config):
        from repro.core.procedures import install_maxbcg

        db = Database("kernel")
        db.create_table("galaxy_source", sky.catalog.as_columns(),
                        primary_key="objid")
        install_maxbcg(db, kcorr, config)
        db.sql("EXEC spImportGalaxy 180.0, 181.0, 0.0, 1.0")
        db.sql("EXEC spZone")
        db.sql("ANALYZE")
        return db

    KERNEL = """
    SELECT g.objid AS objid, COUNT(*) AS nz
    FROM Zone z
    JOIN Galaxy g ON z.objid = g.objid
    CROSS JOIN Kcorr k
    WHERE z.zoneid BETWEEN 10860 AND 10920
      AND ABS(g.i - k.i) < 1.509
      AND (POWER(g.i - k.i, 2) / POWER(0.57, 2)
           + POWER(g.gr - k.gr, 2) / (POWER(sigmagr, 2) + POWER(0.05, 2))
           + POWER(g.ri - k.ri, 2) / (POWER(sigmari, 2) + POWER(0.06, 2))) < 7
    GROUP BY g.objid
    """

    def test_cost_mode_selects_band_join(self, kernel_db):
        plan = kernel_db.explain(self.KERNEL)
        assert "BandJoin" in plan
        assert "NestedLoopJoin" not in plan
        assert "residual" in plan  # the chi² filter rides along vectorized
        assert "IndexRangeScan(zone.zoneid" in plan  # zone clustered index

    def test_kernel_answers_identical_with_and_without_band(self, kernel_db):
        default = kernel_db.config
        banded = kernel_db.sql(self.KERNEL)
        for knobs in (dict(band_joins=False), dict(optimizer="syntactic")):
            kernel_db.config = default.replace(**knobs)
            try:
                other = kernel_db.sql(self.KERNEL)
            finally:
                kernel_db.config = default
            assert_batches_identical(banded.columns, other.columns)

    def test_cost_plan_touches_fewer_rows_under_q_ceiling(self, kernel_db):
        default = kernel_db.config
        cost = kernel_db.explain_analyze(self.KERNEL)
        kernel_db.config = default.replace(optimizer="syntactic")
        try:
            syntactic = kernel_db.explain_analyze(self.KERNEL)
        finally:
            kernel_db.config = default
        # chi² joins, not filter-after-cross-product; statistics keep the
        # estimates honest (the ceiling catches orders of magnitude)
        assert sum(n.rows for n in cost.nodes) \
            < sum(n.rows for n in syntactic.nodes)
        assert cost.max_q_error <= 64.0


class TestClusterDeterminism:
    def test_processes_backend_with_workers_identical(self, sky, target_region,
                                                      kcorr, config):
        """Worker processes return the sequential answer."""
        from repro.cluster.backends import ProcessBackend
        from repro.cluster.executor import run_partitioned
        from repro.cluster.verify import assert_backends_equivalent

        base = run_partitioned(
            sky.catalog, target_region, kcorr, config,
            n_servers=2, compute_members=False, backend="sequential",
        )
        parallel = run_partitioned(
            sky.catalog, target_region, kcorr, config,
            n_servers=2, compute_members=False,
            backend=ProcessBackend(max_retries=2, backoff_s=0.01),
        )
        assert_backends_equivalent(
            {"sequential": base, "processes": parallel}
        )
