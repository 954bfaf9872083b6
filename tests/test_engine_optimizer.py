"""The cost-based optimizer subsystem: statistics, estimation, search.

Covers the four layers of ``repro.engine.optimizer`` plus their SQL
surface:

* equi-depth histogram construction and CDF interpolation;
* ANALYZE statistics (NDV, min/max, null fractions) and their
  persistence next to the table files;
* selectivity math — equality, ranges, AND/OR/NOT composition, the
  System-R defaults when statistics are missing;
* join-order search — the DP is checked *exactly* against brute-force
  enumeration of every left-deep permutation on 3–5 relation chains
  and stars;
* the est_rows annotation pass, q-error accounting and the
  EXPLAIN ANALYZE plan-quality report;
* the pinned "OR disables the index" fallback (regression: the planner
  must fall back to a scan *and say why* in the plan).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.optimizer.cardinality import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    CardinalityEstimator,
    RelationProfile,
    profile_for_table,
)
from repro.engine.optimizer.cost import DEFAULT_COST_MODEL, CostModel
from repro.engine.optimizer.joinorder import (
    DP_LIMIT,
    JoinPred,
    JoinRel,
    _applicable,
    _step,
    order_relations,
)
from repro.engine.optimizer.quality import (
    NodeQuality,
    PlanQualityReport,
    q_error,
)
from repro.engine.optimizer.statistics import (
    Histogram,
    build_table_stats,
    stats_from_json,
    stats_to_json,
)
from repro.engine.sql.parser import parse
from repro.engine.storage import load_table, save_table
from repro.errors import EngineError


# ---------------------------------------------------------------------------
# statistics: histograms and ANALYZE
# ---------------------------------------------------------------------------


def _db_with_stats() -> Database:
    db = Database("stats")
    rng = np.random.default_rng(7)
    n = 1000
    db.create_table("t", {
        "id": np.arange(n, dtype=np.int64),
        "u": np.arange(n, dtype=np.float64),        # uniform 0..999
        "k": (np.arange(n) % 10).astype(np.int64),  # 10 distinct values
        "noisy": np.where(np.arange(n) % 4 == 0, np.nan,
                          rng.uniform(0, 1, n)),    # 25% NULL
    }, primary_key="id")
    return db


class TestHistogram:
    def test_uniform_fractions(self):
        db = _db_with_stats()
        stats = build_table_stats(db.table("t"))
        hist = stats.column("u").histogram
        assert hist is not None
        assert hist.total == 1000
        # uniform data: fraction of a half/quarter range is ~1/2, ~1/4
        assert stats.column("u").ndv == 1000
        assert abs(hist.fraction_between(0, 499) - 0.5) < 0.02
        assert abs(hist.fraction_between(250, 499) - 0.25) < 0.02

    def test_unbounded_ends_and_clamping(self):
        hist = Histogram(bounds=(0.0, 5.0, 10.0), depths=(50, 50))
        assert hist.fraction_between(None, None) == 1.0
        assert hist.fraction_between(None, 5.0) == 0.5
        assert hist.fraction_between(5.0, None) == 0.5
        assert hist.fraction_between(-100, -50) == 0.0
        assert hist.fraction_between(20, 30) == 0.0
        assert hist.fraction_between(-100, 100) == 1.0

    def test_skew_gets_more_buckets_where_the_data_is(self):
        # 90% of rows live in [1, 10]; equi-depth must see that density
        dense = np.linspace(1.0, 10.0, 900)
        sparse = np.linspace(10.0, 1000.0, 100)
        db = Database("skew")
        db.create_table("s", {"x": np.concatenate([dense, sparse])})
        hist = build_table_stats(db.table("s")).column("x").histogram
        assert abs(hist.fraction_between(None, 10.0) - 0.9) < 0.05

    def test_constant_column_has_no_histogram(self):
        db = Database("const")
        db.create_table("c", {"x": np.zeros(10)})
        col = build_table_stats(db.table("c")).column("x")
        assert col.histogram is None
        assert col.ndv == 1
        assert col.min_value == col.max_value == 0.0


class TestColumnStats:
    def test_ndv_and_minmax(self):
        db = _db_with_stats()
        stats = build_table_stats(db.table("t"))
        k = stats.column("k")
        assert k.ndv == 10
        assert (k.min_value, k.max_value) == (0.0, 9.0)
        assert k.null_fraction == 0.0

    def test_null_fraction_counts_nans(self):
        db = _db_with_stats()
        noisy = build_table_stats(db.table("t")).column("noisy")
        assert abs(noisy.null_fraction - 0.25) < 1e-9
        # min/max/histogram built over present values only
        assert 0.0 <= noisy.min_value <= noisy.max_value <= 1.0
        assert noisy.histogram.total == 750

    def test_string_column_minmax_no_histogram(self):
        db = Database("str")
        db.create_table("s", {
            "name": np.array(["m31", "m13", "ngc1", None], dtype=object),
        })
        col = build_table_stats(db.table("s")).column("name")
        assert col.histogram is None
        assert col.ndv == 3
        assert (col.min_value, col.max_value) == ("m13", "ngc1")
        assert col.null_fraction == 0.25


class TestAnalyzeStatement:
    def test_analyze_all_tables(self):
        db = _db_with_stats()
        assert db.table("t").stats is None
        result = db.sql("ANALYZE")
        assert db.table("t").stats is not None
        assert db.table("t").stats.row_count == 1000
        rows = result.rows()
        assert rows == [{"table_name": "t", "n_rows": 1000, "n_columns": 4}]

    def test_analyze_one_table(self):
        db = _db_with_stats()
        db.create_table("other", {"x": np.arange(5)})
        db.sql("ANALYZE t")
        assert db.table("t").stats is not None
        assert db.table("other").stats is None

    def test_parse_shapes(self):
        assert parse("ANALYZE").table is None
        assert parse("analyze galaxy").table == "galaxy"

    def test_stats_are_as_of_analyze_time(self):
        """DML after ANALYZE leaves the statistics untouched."""
        db = _db_with_stats()
        db.sql("ANALYZE t")
        before = db.table("t").stats.row_count
        db.sql("DELETE FROM t WHERE id < 500")
        assert db.table("t").stats.row_count == before
        db.sql("ANALYZE t")
        assert db.table("t").stats.row_count == 500


class TestStatsPersistence:
    def test_roundtrip_through_json(self):
        db = _db_with_stats()
        stats = build_table_stats(db.table("t"))
        restored = stats_from_json(stats_to_json(stats))
        assert restored == stats

    def test_saved_table_keeps_stats(self, tmp_path):
        db = _db_with_stats()
        db.sql("ANALYZE")
        save_table(db.table("t"), tmp_path)
        assert (tmp_path / "t.stats").exists()
        table = load_table(Database("dst"), tmp_path, "t")
        assert table.stats == db.table("t").stats

    def test_resave_without_stats_removes_stale_file(self, tmp_path):
        db = _db_with_stats()
        db.sql("ANALYZE")
        save_table(db.table("t"), tmp_path)
        db.table("t").stats = None
        save_table(db.table("t"), tmp_path)
        assert not (tmp_path / "t.stats").exists()


# ---------------------------------------------------------------------------
# selectivity math
# ---------------------------------------------------------------------------


def _estimator() -> CardinalityEstimator:
    db = _db_with_stats()
    db.sql("ANALYZE")
    return CardinalityEstimator([profile_for_table(db.table("t"), "t")])


def _sel(estimator: CardinalityEstimator, predicate: str) -> float:
    stmt = parse(f"SELECT id FROM t WHERE {predicate}")
    return estimator.selectivity(stmt.where)


class TestSelectivity:
    def test_equality_is_one_over_ndv(self):
        est = _estimator()
        assert _sel(est, "k = 3") == pytest.approx(0.1)
        assert _sel(est, "u = 17") == pytest.approx(1 / 1000)

    def test_equality_outside_minmax_is_zero(self):
        est = _estimator()
        assert _sel(est, "k = 99") == 0.0
        assert _sel(est, "k = -1") == 0.0

    def test_range_uses_histogram(self):
        est = _estimator()
        assert _sel(est, "u < 500") == pytest.approx(0.5, abs=0.02)
        assert _sel(est, "u BETWEEN 100 AND 299") == pytest.approx(0.2, abs=0.02)
        assert _sel(est, "u > 900") == pytest.approx(0.1, abs=0.02)

    def test_flipped_comparison_normalizes(self):
        est = _estimator()
        assert _sel(est, "500 > u") == pytest.approx(_sel(est, "u < 500"))

    def test_and_is_product(self):
        est = _estimator()
        a, b = _sel(est, "k = 3"), _sel(est, "u < 500")
        assert _sel(est, "k = 3 AND u < 500") == pytest.approx(a * b)

    def test_or_is_inclusion_exclusion(self):
        est = _estimator()
        a, b = _sel(est, "k = 3"), _sel(est, "k = 4")
        assert _sel(est, "k = 3 OR k = 4") == pytest.approx(a + b - a * b)

    def test_not_complements(self):
        est = _estimator()
        assert _sel(est, "NOT k = 3") == pytest.approx(0.9)

    def test_in_list_scales_with_options(self):
        est = _estimator()
        assert _sel(est, "k IN (1, 2, 3)") == pytest.approx(0.3)

    def test_defaults_without_stats(self):
        # a profile with no statistics falls back to System-R constants
        est = CardinalityEstimator([
            RelationProfile(alias="t", table_rows=0.0, columns={"id", "k", "u"}),
        ])
        assert _sel(est, "k = 3") == DEFAULT_EQ_SELECTIVITY
        assert _sel(est, "u < 500") == DEFAULT_RANGE_SELECTIVITY

    def test_primary_key_counts_as_fully_distinct(self):
        est = CardinalityEstimator([
            RelationProfile(alias="t", table_rows=1e6, columns={"id"},
                            primary_key="id"),
        ])
        assert _sel(est, "id = 42") == pytest.approx(1e-6)

    def test_equi_join_containment(self):
        db = _db_with_stats()
        db.create_table("d", {"k": (np.arange(40) % 4).astype(np.int64)})
        db.sql("ANALYZE")
        est = CardinalityEstimator([
            profile_for_table(db.table("t"), "t"),
            profile_for_table(db.table("d"), "d"),
        ])
        stmt = parse("SELECT 1 FROM t JOIN d ON t.k = d.k")
        on = stmt.joins[0].condition
        # NDV(t.k)=10, NDV(d.k)=4 -> containment takes the max
        assert est.selectivity(on) == pytest.approx(1 / 10)

    def test_selectivity_is_clamped(self):
        est = _estimator()
        assert 0.0 <= _sel(est, "u > -1e9 OR u < 1e9") <= 1.0


# ---------------------------------------------------------------------------
# join-order search
# ---------------------------------------------------------------------------


def _price_order(order, rels, preds, model=DEFAULT_COST_MODEL) -> float:
    """Total cost of one left-deep permutation (the DP's objective)."""
    first = rels[order[0]]
    cost, rows = first.cost, first.rows
    bound = frozenset([first.alias])
    for idx in order[1:]:
        rel = rels[idx]
        applicable = _applicable(preds, bound, rel.alias)
        rows, cost = _step(rows, cost, rel, applicable, model)
        bound = bound | {rel.alias}
    return cost


def _chain(n: int) -> tuple[list[JoinRel], list[JoinPred]]:
    """r0 - r1 - ... - r_{n-1} with shrinking equi-joins."""
    rels = [
        JoinRel(alias=f"r{i}", rows=10.0 * (i + 1) ** 2, cost=10.0 * (i + 1) ** 2)
        for i in range(n)
    ]
    preds = [
        JoinPred(aliases=frozenset({f"r{i}", f"r{i + 1}"}),
                 selectivity=1.0 / (20.0 * (i + 1)), equi=True)
        for i in range(n - 1)
    ]
    return rels, preds


def _star(n_dims: int) -> tuple[list[JoinRel], list[JoinPred]]:
    """One fact joined to ``n_dims`` dimensions of varying selectivity."""
    rels = [JoinRel(alias="fact", rows=10_000.0, cost=10_000.0)]
    preds = []
    for i in range(n_dims):
        rels.append(JoinRel(alias=f"d{i}", rows=5.0 * (i + 1), cost=50.0))
        preds.append(JoinPred(aliases=frozenset({"fact", f"d{i}"}),
                              selectivity=1.0 / (100.0 * (i + 1)), equi=True))
    return rels, preds


class TestJoinOrderDP:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chain_matches_bruteforce_optimum(self, n):
        rels, preds = _chain(n)
        order = order_relations(rels, preds)
        assert sorted(order) == list(range(n))
        best = min(
            _price_order(list(p), rels, preds)
            for p in itertools.permutations(range(n))
        )
        assert _price_order(order, rels, preds) == pytest.approx(best)

    @pytest.mark.parametrize("n_dims", [2, 3, 4])
    def test_star_matches_bruteforce_optimum(self, n_dims):
        rels, preds = _star(n_dims)
        order = order_relations(rels, preds)
        n = n_dims + 1
        assert sorted(order) == list(range(n))
        best = min(
            _price_order(list(p), rels, preds)
            for p in itertools.permutations(range(n))
        )
        assert _price_order(order, rels, preds) == pytest.approx(best)

    def test_chain_prefix_stays_connected(self):
        """The chosen order never pays a cross product on a chain."""
        rels, preds = _chain(5)
        order = order_relations(rels, preds)
        bound = {rels[order[0]].alias}
        for idx in order[1:]:
            assert _applicable(preds, frozenset(bound), rels[idx].alias), (
                f"cross product at {rels[idx].alias} in {order}"
            )
            bound.add(rels[idx].alias)

    def test_single_and_empty_inputs(self):
        assert order_relations([], []) == []
        assert order_relations([JoinRel("a", 10.0, 10.0)], []) == [0]

    def test_deterministic(self):
        rels, preds = _star(4)
        assert order_relations(rels, preds) == order_relations(rels, preds)

    def test_greedy_beyond_dp_limit(self):
        rels, preds = _chain(DP_LIMIT + 2)
        order = order_relations(rels, preds)
        assert sorted(order) == list(range(DP_LIMIT + 2))
        # greedy starts from the smallest relation (r0 here)
        assert rels[order[0]].alias == "r0"

    def test_cost_model_weights_feed_through(self):
        """A model that hates nested loops avoids the cross product."""
        rels = [JoinRel("a", 100.0, 100.0), JoinRel("b", 100.0, 100.0),
                JoinRel("c", 2.0, 2.0)]
        preds = [JoinPred(frozenset({"a", "b"}), 0.01, equi=True),
                 JoinPred(frozenset({"b", "c"}), 0.5, equi=True)]
        model = CostModel(loop_pair=100.0)
        order = order_relations(rels, preds, model=model)
        # c alone has no predicate against a: starting (c, a) would be a
        # cross product, which the punitive loop_pair prices out
        first_two = {rels[order[0]].alias, rels[order[1]].alias}
        assert first_two in ({"a", "b"}, {"b", "c"})

    def test_band_priced_only_when_key_side_joins(self):
        """A band is built on the relation being joined, so a step that
        adds the other side costs a nested loop, not a band."""
        model = DEFAULT_COST_MODEL
        probe, keyed = JoinRel("a", 16.0, 16.0), JoinRel("b", 24_000.0, 24_000.0)
        pred = JoinPred(frozenset({"a", "b"}), 1e-3, band_keys=frozenset({"b"}))
        out_rows = 16.0 * 24_000.0 * 1e-3
        _, cost_band = _step(probe.rows, probe.cost, keyed, [pred], model)
        _, cost_nested = _step(keyed.rows, keyed.cost, probe, [pred], model)
        assert cost_band == pytest.approx(
            probe.cost + keyed.cost
            + model.band_join(16.0, 24_000.0, out_rows))
        assert cost_nested == pytest.approx(
            keyed.cost + probe.cost
            + model.nested_loop_join(24_000.0, 16.0, out_rows))
        # the search therefore probes with the small side
        assert order_relations([keyed, probe], [pred]) == [1, 0]


# ---------------------------------------------------------------------------
# q-error and the plan-quality report
# ---------------------------------------------------------------------------


class TestQError:
    def test_symmetric(self):
        assert q_error(10.0, 100) == pytest.approx(10.0)
        assert q_error(100.0, 10) == pytest.approx(10.0)
        assert q_error(50.0, 50) == 1.0

    def test_floored_at_one_row(self):
        assert q_error(0.001, 0) == 1.0
        assert q_error(0.5, 1) == 1.0

    def test_none_without_estimate(self):
        assert q_error(None, 42) is None

    def test_report_ranks_worst_offenders(self):
        report = PlanQualityReport(nodes=(
            NodeQuality("SeqScan(a)", 1, est_rows=100.0, actual_rows=100),
            NodeQuality("HashJoin", 0, est_rows=10.0, actual_rows=1000),
            NodeQuality("Filter", 2, est_rows=30.0, actual_rows=10),
        ))
        assert report.max_q_error == pytest.approx(100.0)
        assert [n.description for n in report.worst(2)] == ["HashJoin", "Filter"]
        rendered = report.render()
        assert rendered.startswith("plan quality: max q-error 100.00")
        assert "HashJoin: est=10 actual=1000 q=100.00" in rendered

    def test_empty_report(self):
        report = PlanQualityReport(nodes=())
        assert report.max_q_error == 1.0
        assert report.render() == "plan quality: no estimates recorded"


# ---------------------------------------------------------------------------
# the SQL surface: est_rows, EXPLAIN ANALYZE, planner modes
# ---------------------------------------------------------------------------


def _join_db(optimizer: str = "cost") -> Database:
    db = Database("planner", config=EngineConfig(optimizer=optimizer))
    rng = np.random.default_rng(3)
    db.create_table("big", {
        "id": np.arange(2000, dtype=np.int64),
        "d": rng.integers(0, 50, 2000),
        "v": rng.uniform(0, 1, 2000),
    }, primary_key="id")
    db.create_table("dim", {
        "id": np.arange(50, dtype=np.int64),
        "cat": (np.arange(50) % 5).astype(np.int64),
    }, primary_key="id")
    db.sql("ANALYZE")
    return db


class TestEstRowsAndQuality:
    def test_explain_carries_estimates_in_both_modes(self):
        for mode in ("cost", "syntactic"):
            db = _join_db(optimizer=mode)
            text = db.explain("SELECT id FROM big WHERE v < 0.25")
            assert "[est=" in text

    def test_scan_estimate_is_row_count(self):
        db = _join_db()
        report = db.explain_analyze("SELECT id FROM big")
        scan = report.node("SeqScan(big")
        assert scan.est_rows == 2000
        assert scan.q_error == 1.0

    def test_filter_estimate_tracks_histogram(self):
        db = _join_db()
        report = db.explain_analyze("SELECT id FROM big WHERE v < 0.25")
        node = report.node("Filter")
        assert node.q_error is not None
        assert node.q_error < 1.2  # histogram knows uniform [0,1)

    def test_clustered_point_is_priced_as_an_equality(self):
        """``key = v`` on a clustered key is a zero-width range; it is
        estimated as the Filter estimates the same predicate, not 0."""
        db = _join_db()
        db.create_clustered_index("big", "d", "v")
        report = db.explain_analyze("SELECT id FROM big WHERE d = 3")
        node = report.node("IndexRangeScan(big.d in [3, 3]")
        assert node.est_rows == pytest.approx(2000 / 50)
        assert node.q_error < 2.0

    def test_quality_report_from_explain_analyze(self):
        db = _join_db()
        report = db.explain_analyze(
            "SELECT d.cat AS cat, COUNT(*) AS n FROM big b "
            "JOIN dim d ON b.d = d.id GROUP BY d.cat"
        )
        quality = report.quality_report()
        assert quality.nodes
        assert report.max_q_error == quality.max_q_error >= 1.0
        assert "plan quality: max q-error" in quality.render()

    def test_cost_mode_answers_match_syntactic(self):
        sql = ("SELECT b.id AS id, d.cat AS cat FROM big b "
               "JOIN dim d ON b.d = d.id WHERE d.cat = 2")
        rows_cost = sorted(
            tuple(sorted(r.items())) for r in _join_db("cost").sql(sql).rows()
        )
        rows_syn = sorted(
            tuple(sorted(r.items()))
            for r in _join_db("syntactic").sql(sql).rows()
        )
        assert rows_cost == rows_syn and rows_cost

    def test_cost_mode_defers_the_big_join(self):
        # hostile FROM order: big x big first, the selective dimension last
        sql = ("SELECT COUNT(*) AS n FROM big b1 JOIN big b2 ON b1.d = b2.d "
               "JOIN dim d ON b1.d = d.id WHERE d.cat = 2")
        cost = _join_db("cost").explain_analyze(sql)
        syntactic = _join_db("syntactic").explain_analyze(sql)
        order = [n.description for n in cost.nodes]
        assert order.index("SeqScan(dim AS d)") \
            < order.index("SeqScan(big AS b2)")
        assert sum(n.rows for n in cost.nodes) \
            < sum(n.rows for n in syntactic.nodes)
        assert cost.result["n"][0] == syntactic.result["n"][0] > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(EngineError):
            EngineConfig(optimizer="telepathic")


class TestOrDisablesIndexRegression:
    """Pinned behavior: OR on the index's leading key falls back to a
    full scan — correctly, and with the reason in the plan."""

    @staticmethod
    def _indexed_db() -> Database:
        db = Database("orx")
        n = 500
        db.create_table("pts", {
            "id": np.arange(n, dtype=np.int64),
            "zid": (np.arange(n) // 10).astype(np.int64),
            "ra": np.linspace(0, 360, n),
        }, primary_key="id")
        db.create_clustered_index("pts", "zid", "ra")
        db.sql("ANALYZE")
        return db

    def test_range_predicate_uses_the_index(self):
        db = self._indexed_db()
        plan = db.explain("SELECT id FROM pts WHERE zid BETWEEN 10 AND 12")
        assert "IndexRangeScan(pts.zid" in plan

    def test_or_falls_back_to_scan_with_reason(self):
        db = self._indexed_db()
        plan = db.explain("SELECT id FROM pts WHERE zid = 10 OR zid = 12")
        assert "IndexRangeScan" not in plan
        assert "SeqScan(pts AS pts) [index on zid unused: OR predicate]" in plan

    def test_or_fallback_returns_correct_rows(self):
        db = self._indexed_db()
        rows = db.sql(
            "SELECT id FROM pts WHERE zid = 10 OR zid = 12"
        ).rows()
        got = sorted(r["id"] for r in rows)
        assert got == list(range(100, 110)) + list(range(120, 130))

    def test_unrelated_or_not_blamed(self):
        """An OR that never touches the leading key gives no reason."""
        db = self._indexed_db()
        plan = db.explain("SELECT id FROM pts WHERE ra < 10 OR ra > 350")
        assert "unused" not in plan
