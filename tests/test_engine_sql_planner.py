"""Planner internals: pushdown, join selection, aggregate rewriting."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    col,
    lit,
)
from repro.engine.sql.parser import parse
from repro.engine.sql.planner import (
    Planner,
    and_all,
    find_aggregates,
    rewrite,
    split_conjuncts,
)
from repro.errors import SqlPlanError


@pytest.fixture()
def db() -> Database:
    d = Database("plan")
    rng = np.random.default_rng(1)
    d.create_table("g", {
        "objid": np.arange(1000),
        "zoneid": rng.integers(0, 50, 1000),
        "i": rng.uniform(14, 21, 1000),
    }, primary_key="objid")
    d.create_table("k", {
        "zid": np.arange(50), "radius": rng.uniform(0.05, 0.3, 50),
    }, primary_key="zid")
    return d


def plan_text(db, text):
    return db.explain(text)


class TestConjunctUtilities:
    def test_split_flattens_nested_ands(self):
        expr = BinaryOp("AND", BinaryOp("AND", col("a"), col("b")), col("c"))
        assert len(split_conjuncts(expr)) == 3

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_or_not_split(self):
        expr = BinaryOp("OR", col("a"), col("b"))
        assert split_conjuncts(expr) == [expr]

    def test_and_all_roundtrip(self):
        parts = [col("a"), col("b"), col("c")]
        rebuilt = and_all(parts)
        assert split_conjuncts(rebuilt) == parts
        assert and_all([]) is None


class TestRewrite:
    def test_replaces_matching_subtrees(self):
        target = FuncCall("count", ())
        expr = BinaryOp("+", target, lit(1))
        out = rewrite(expr, {target: ColumnRef("__agg0")})
        assert out == BinaryOp("+", ColumnRef("__agg0"), lit(1))

    def test_rewrites_inside_between(self):
        target = col("x")
        expr = Between(target, lit(0), lit(1))
        out = rewrite(expr, {target: col("y")})
        assert out == Between(col("y"), lit(0), lit(1))

    def test_no_match_identity(self):
        expr = BinaryOp("*", col("a"), lit(2))
        assert rewrite(expr, {col("zzz"): lit(0)}) == expr


class TestFindAggregates:
    def test_finds_nested_calls(self):
        stmt = parse("SELECT MAX(LOG(n + 1) - chisq) AS m FROM t")
        calls = find_aggregates(stmt.items[0].expr)
        assert len(calls) == 1 and calls[0].name == "max"

    def test_rejects_nested_aggregates(self):
        stmt = parse("SELECT MAX(SUM(x)) AS m FROM t")
        with pytest.raises(SqlPlanError):
            find_aggregates(stmt.items[0].expr)

    def test_plain_function_not_aggregate(self):
        stmt = parse("SELECT SQRT(x) AS s FROM t")
        assert find_aggregates(stmt.items[0].expr) == []


class TestAccessPathSelection:
    def test_pushdown_below_join(self, db):
        text = ("SELECT g.objid FROM g JOIN k ON g.zoneid = k.zid "
                "WHERE g.i > 20 AND k.radius > 0.2")
        plan = plan_text(db, text)
        # each single-relation conjunct lands on its own scan, below the join
        join_line = next(
            i for i, line in enumerate(plan.splitlines()) if "HashJoin" in line
        )
        filter_lines = [
            i for i, line in enumerate(plan.splitlines()) if "Filter" in line
        ]
        assert any(i > join_line for i in filter_lines)

    def test_equi_join_becomes_hash_join(self, db):
        plan = plan_text(
            db, "SELECT g.objid FROM g JOIN k ON g.zoneid = k.zid"
        )
        assert "HashJoin" in plan and "NestedLoopJoin" not in plan

    def test_range_join_becomes_band_join(self, db):
        plan = plan_text(
            db, "SELECT g.objid FROM g JOIN k ON g.zoneid < k.zid"
        )
        assert "BandJoin" in plan and "NestedLoopJoin" not in plan

    def test_non_extractable_theta_join_nested_loop(self, db):
        # an expression on both sides, no bare column on either — no
        # band to extract in either join order
        plan = plan_text(
            db,
            "SELECT g.objid FROM g JOIN k ON g.zoneid + g.i < k.zid * k.zid",
        )
        assert "NestedLoopJoin" in plan and "BandJoin" not in plan

    def test_one_sided_band_plans_with_key_side_joined(self, db):
        # only g has a bare column, so only g can own the band key: the
        # search must put k outer and probe g's sorted zoneids
        plan = plan_text(
            db, "SELECT g.objid FROM g JOIN k ON g.zoneid < k.zid * k.zid"
        )
        assert "BandJoin(g.zoneid in" in plan and "NestedLoopJoin" not in plan

    @pytest.mark.parametrize("order", ["a JOIN zone b", "b JOIN zone a"])
    def test_neighbour_self_join_is_band_in_both_from_orders(self, db, order):
        rng = np.random.default_rng(5)
        n = 2000
        db.create_table("zone", {
            "objid": np.arange(n),
            "zoneid": np.sort(rng.integers(0, 40, n)),
            "ra": rng.uniform(0.0, 2.0, n),
            "i": rng.uniform(14, 21, n),
        }, primary_key="objid")
        db.create_clustered_index("zone", "zoneid", "ra")
        db.sql("ANALYZE")
        text = (
            f"SELECT a.objid, COUNT(*) AS n FROM zone {order} "
            "ON b.zoneid BETWEEN a.zoneid - 1 AND a.zoneid + 1 "
            "AND b.ra BETWEEN a.ra - 0.01 AND a.ra + 0.01 "
            "WHERE a.i < 14.1 GROUP BY a.objid"
        )
        plan = plan_text(db, text)
        assert "NestedLoopJoin" not in plan
        assert "BandJoin(b.zoneid in [(a.zoneid - 1), (a.zoneid + 1)]" in plan
        # the band's right input (the sorted side) is b, the key's owner
        lines = plan.splitlines()
        band = next(i for i, line in enumerate(lines) if "BandJoin" in line)
        depth = len(lines[band]) - len(lines[band].lstrip()) + 2
        inputs = [line.strip() for line in lines[band + 1:]
                  if len(line) - len(line.lstrip()) == depth]
        assert len(inputs) == 2 and "AS b" in inputs[1]

    def test_band_join_disabled_falls_back(self, db):
        db.config = db.config.replace(band_joins=False)
        plan = plan_text(
            db, "SELECT g.objid FROM g JOIN k ON g.zoneid < k.zid"
        )
        assert "NestedLoopJoin" in plan and "BandJoin" not in plan

    def test_equi_plus_residual(self, db):
        plan = plan_text(
            db,
            "SELECT g.objid FROM g JOIN k ON g.zoneid = k.zid "
            "AND g.i > k.radius",
        )
        assert "HashJoin" in plan and "residual" in plan

    def test_index_chosen_only_on_leading_key(self, db):
        db.create_clustered_index("g", "zoneid", "i")
        ranged = plan_text(db, "SELECT objid FROM g WHERE zoneid BETWEEN 1 AND 3")
        non_leading = plan_text(db, "SELECT objid FROM g WHERE i BETWEEN 15 AND 16")
        assert "IndexRangeScan" in ranged
        assert "IndexRangeScan" not in non_leading

    def test_equality_predicate_uses_index(self, db):
        db.create_clustered_index("g", "zoneid")
        plan = plan_text(db, "SELECT objid FROM g WHERE zoneid = 7")
        assert "IndexRangeScan" in plan

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.sql("SELECT 1 AS one FROM g a JOIN g a ON a.objid = a.objid")


class TestOutputNames:
    def test_select_output_names(self, db):
        planner = Planner(db)
        stmt = parse("SELECT objid, i * 2 AS ii, SQRT(i) FROM g")
        assert planner.select_output_names(stmt) == ["objid", "ii", "col2"]

    def test_star_names_with_dedup(self, db):
        planner = Planner(db)
        stmt = parse("SELECT * FROM g JOIN k ON g.zoneid = k.zid")
        names = planner.select_output_names(stmt)
        assert names[:3] == ["objid", "zoneid", "i"]
        assert "zid" in names and "radius" in names
