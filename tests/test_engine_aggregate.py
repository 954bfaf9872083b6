"""Grouped and scalar aggregation."""

import numpy as np
import pytest

from repro.engine.aggregate import Aggregate, AggregateSpec
from repro.engine.expressions import BinaryOp, col, lit
from repro.engine.operators import Materialized
from repro.errors import SqlPlanError


def source():
    return Materialized({
        "t.zid": np.array([1, 1, 2, 2, 2, 3]),
        "t.n": np.array([5.0, 7.0, 1.0, 2.0, 3.0, 9.0]),
    })


class TestScalarAggregates:
    def test_count_star(self):
        plan = Aggregate(source(), [], [AggregateSpec("count", None, "n")])
        assert plan.execute()["n"].tolist() == [6]

    def test_sum_min_max_avg(self):
        plan = Aggregate(source(), [], [
            AggregateSpec("sum", col("n", "t"), "s"),
            AggregateSpec("min", col("n", "t"), "lo"),
            AggregateSpec("max", col("n", "t"), "hi"),
            AggregateSpec("avg", col("n", "t"), "mean"),
        ])
        row = plan.execute()
        assert row["s"][0] == 27.0
        assert row["lo"][0] == 1.0
        assert row["hi"][0] == 9.0
        assert row["mean"][0] == pytest.approx(4.5)

    def test_empty_input_null_semantics(self):
        empty = Materialized({"t.n": np.empty(0)})
        plan = Aggregate(empty, [], [
            AggregateSpec("count", None, "c"),
            AggregateSpec("max", col("n", "t"), "m"),
        ])
        row = plan.execute()
        assert row["c"][0] == 0
        assert np.isnan(row["m"][0])

    def test_aggregate_of_expression(self):
        plan = Aggregate(source(), [], [
            AggregateSpec("max", BinaryOp("*", col("n", "t"), lit(2.0)), "m"),
        ])
        assert plan.execute()["m"][0] == 18.0


class TestGroupedAggregates:
    def test_count_per_group(self):
        plan = Aggregate(
            source(), [("zid", col("zid", "t"))],
            [AggregateSpec("count", None, "c")],
        )
        batch = plan.execute()
        got = dict(zip(batch["zid"].tolist(), batch["c"].tolist()))
        assert got == {1: 2, 2: 3, 3: 1}

    def test_multiple_aggregates_per_group(self):
        plan = Aggregate(
            source(), [("zid", col("zid", "t"))],
            [
                AggregateSpec("sum", col("n", "t"), "s"),
                AggregateSpec("max", col("n", "t"), "m"),
            ],
        )
        batch = plan.execute()
        by_zone = dict(zip(batch["zid"].tolist(),
                           zip(batch["s"].tolist(), batch["m"].tolist())))
        assert by_zone[2] == (6.0, 3.0)

    def test_group_by_two_keys(self):
        src = Materialized({
            "t.a": np.array([1, 1, 2]),
            "t.b": np.array([1, 1, 1]),
            "t.n": np.array([1.0, 2.0, 3.0]),
        })
        plan = Aggregate(
            src, [("a", col("a", "t")), ("b", col("b", "t"))],
            [AggregateSpec("count", None, "c")],
        )
        batch = plan.execute()
        assert sorted(batch["c"].tolist()) == [1, 2]

    def test_empty_grouped_input(self):
        empty = Materialized({"t.zid": np.empty(0, np.int64), "t.n": np.empty(0)})
        plan = Aggregate(
            empty, [("zid", col("zid", "t"))],
            [AggregateSpec("count", None, "c")],
        )
        batch = plan.execute()
        assert batch["c"].size == 0

    @pytest.mark.parametrize("keys", [
        {"zid": np.empty(0, np.int64)},
        {"name": np.empty(0, dtype=object)},
        {"zid": np.empty(0, np.int32), "name": np.empty(0, dtype=object)},
    ], ids=["int", "string", "multi_key"])
    def test_empty_grouped_input_keeps_key_dtypes(self, keys):
        """No groups still means columns of the keys' own types."""
        batch = {f"t.{name}": arr for name, arr in keys.items()}
        batch["t.n"] = np.empty(0)
        plan = Aggregate(
            Materialized(batch),
            [(name, col(name, "t")) for name in keys],
            [AggregateSpec("count", None, "c")],
        )
        out = plan.execute()
        for name, arr in keys.items():
            assert out[name].dtype == arr.dtype and out[name].size == 0
        assert out["c"].dtype == np.int64

    def test_integer_sum_min_max_keep_the_integer_dtype(self):
        """A grouped integer SUM answers as exactly as the scalar one."""
        src = Materialized({
            "t.k": np.array([1, 1, 2], dtype=np.int64),
            "t.v": np.array([2 ** 62, 1, -(2 ** 62) - 3], dtype=np.int64),
        })
        specs = [
            AggregateSpec(func, col("v", "t"), func)
            for func in ("sum", "min", "max")
        ]
        grouped = Aggregate(src, [("k", col("k", "t"))], specs).execute()
        for func in ("sum", "min", "max"):
            assert grouped[func].dtype == np.int64
        assert grouped["sum"].tolist() == [2 ** 62 + 1, -(2 ** 62) - 3]
        assert grouped["min"].tolist() == [1, -(2 ** 62) - 3]
        assert grouped["max"].tolist() == [2 ** 62, -(2 ** 62) - 3]
        scalar = Aggregate(src, [], specs[:1]).execute()
        assert grouped["sum"][0] + grouped["sum"][1] == scalar["sum"][0]
        empty = Materialized({"t.k": np.empty(0, np.int64),
                              "t.v": np.empty(0, np.int64)})
        none = Aggregate(empty, [("k", col("k", "t"))], specs).execute()
        assert none["sum"].dtype == np.int64 and none["sum"].size == 0

    def test_count_dtype_integer(self):
        plan = Aggregate(
            source(), [("zid", col("zid", "t"))],
            [AggregateSpec("count", None, "c")],
        )
        assert plan.execute()["c"].dtype == np.int64


def loop_counts(keys: list[np.ndarray], values: np.ndarray) -> dict:
    """The per-group reference: COUNT(*) and COUNT(v) for each key tuple."""
    out: dict = {}
    for row, key in enumerate(zip(*[k.tolist() for k in keys])):
        star, counted = out.get(key, (0, 0))
        out[key] = (star + 1, counted + int(not np.isnan(values[row])))
    return out


def grouped_counts(keys: dict[str, np.ndarray], values: np.ndarray) -> dict:
    batch = {f"t.{name}": arr for name, arr in keys.items()}
    batch["t.v"] = values
    plan = Aggregate(
        Materialized(batch),
        [(name, col(name, "t")) for name in keys],
        [AggregateSpec("count", None, "star"),
         AggregateSpec("count", col("v", "t"), "counted"),
         AggregateSpec("sum", col("v", "t"), "total")],
    )
    return plan.execute()


class TestGroupedCount:
    """COUNT(*) and COUNT(expr) count every group in one pass; the
    answers must equal the per-group loop and stay int64."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_keys", [1, 2])
    def test_matches_per_group_loop(self, seed, n_keys):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 400))
        keys = {f"k{i}": rng.integers(0, 6, n) for i in range(n_keys)}
        values = rng.normal(size=n)
        values[rng.random(n) < 0.3] = np.nan
        # group 0 of the first key holds NULLs only
        values[keys["k0"] == 0] = np.nan
        out = grouped_counts(keys, values)
        assert out["star"].dtype == np.int64
        assert out["counted"].dtype == np.int64
        got = {
            key: (star, counted) for key, star, counted in zip(
                zip(*[out[name].tolist() for name in keys]),
                out["star"].tolist(), out["counted"].tolist(),
            )
        }
        assert got == loop_counts(list(keys.values()), values)

    def test_all_null_group_counts_zero(self):
        out = grouped_counts(
            {"g": np.array([1, 1, 2, 2, 2])},
            np.array([np.nan, np.nan, 1.0, np.nan, 3.0]),
        )
        assert out["g"].tolist() == [1, 2]
        assert out["star"].tolist() == [2, 3]
        assert out["counted"].tolist() == [0, 2]

    def test_empty_input_keeps_integer_counts(self):
        out = grouped_counts({"g": np.empty(0, np.int64)}, np.empty(0))
        assert out["star"].dtype == np.int64 and out["star"].size == 0
        assert out["counted"].dtype == np.int64 and out["counted"].size == 0
        assert out["total"].dtype == np.float64


class TestAggregateSpecValidation:
    def test_unknown_function(self):
        with pytest.raises(SqlPlanError):
            AggregateSpec("median", col("n"), "m")

    def test_star_only_for_count(self):
        with pytest.raises(SqlPlanError):
            AggregateSpec("sum", None, "s")
