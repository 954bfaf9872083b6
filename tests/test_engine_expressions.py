"""Expression trees: evaluation, name resolution, functions."""

import numpy as np
import pytest

from repro.engine.expressions import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    and_,
    col,
    lit,
)
from repro.errors import ColumnNotFoundError, SqlPlanError


@pytest.fixture()
def batch():
    return {
        "g.i": np.array([17.0, 18.0, 19.0]),
        "g.gr": np.array([0.8, 1.0, 1.2]),
        "k.z": np.array([0.1, 0.2, 0.3]),
    }


class TestResolution:
    def test_qualified(self, batch):
        assert np.allclose(col("i", "g").eval(batch), [17, 18, 19])

    def test_bare_unique(self, batch):
        assert np.allclose(col("z").eval(batch), [0.1, 0.2, 0.3])

    def test_unknown(self, batch):
        with pytest.raises(ColumnNotFoundError):
            col("nope").eval(batch)

    def test_unknown_qualifier(self, batch):
        with pytest.raises(ColumnNotFoundError):
            col("i", "x").eval(batch)

    def test_ambiguous(self):
        batch = {"a.x": np.zeros(2), "b.x": np.zeros(2)}
        with pytest.raises(SqlPlanError):
            col("x").eval(batch)


class TestOperators:
    def test_arithmetic(self, batch):
        expr = BinaryOp("+", col("i", "g"), lit(1.0))
        assert np.allclose(expr.eval(batch), [18, 19, 20])
        expr = BinaryOp("*", col("i", "g"), lit(2))
        assert np.allclose(expr.eval(batch), [34, 36, 38])

    def test_division_by_zero_gives_inf(self, batch):
        expr = BinaryOp("/", lit(1.0), lit(0.0))
        out = expr.eval(batch)
        assert np.all(np.isinf(out))

    def test_modulo(self, batch):
        expr = BinaryOp("%", col("i", "g"), lit(5.0))
        assert np.allclose(expr.eval(batch), [2.0, 3.0, 4.0])

    def test_comparisons(self, batch):
        expr = BinaryOp(">", col("i", "g"), lit(17.5))
        assert expr.eval(batch).tolist() == [False, True, True]

    def test_and_or(self, batch):
        gt = BinaryOp(">", col("i", "g"), lit(17.5))
        lt = BinaryOp("<", col("i", "g"), lit(18.5))
        assert BinaryOp("AND", gt, lt).eval(batch).tolist() == [False, True, False]
        assert BinaryOp("OR", gt, lt).eval(batch).tolist() == [True, True, True]

    def test_and_short_circuits_on_all_false(self, batch):
        # the right side would raise if evaluated
        never = BinaryOp(">", col("i", "g"), lit(100.0))
        boom = col("missing")
        assert BinaryOp("AND", never, boom).eval(batch).tolist() == [False] * 3

    def test_not_and_negate(self, batch):
        expr = UnaryOp("NOT", BinaryOp(">", col("i", "g"), lit(17.5)))
        assert expr.eval(batch).tolist() == [True, False, False]
        assert np.allclose(UnaryOp("-", lit(3)).eval(batch), -3)

    def test_unknown_op(self, batch):
        with pytest.raises(SqlPlanError):
            BinaryOp("**", lit(1), lit(2)).eval(batch)


class TestCompound:
    def test_between_inclusive(self, batch):
        expr = Between(col("i", "g"), lit(17.0), lit(18.0))
        assert expr.eval(batch).tolist() == [True, True, False]

    def test_in_list(self, batch):
        expr = InList(col("i", "g"), (lit(17.0), lit(19.0)))
        assert expr.eval(batch).tolist() == [True, False, True]

    def test_case(self, batch):
        expr = Case(
            whens=((BinaryOp(">", col("i", "g"), lit(18.5)), lit(1.0)),),
            default=lit(0.0),
        )
        assert expr.eval(batch).tolist() == [0.0, 0.0, 1.0]

    def test_case_first_match_wins(self, batch):
        expr = Case(
            whens=(
                (BinaryOp(">", col("i", "g"), lit(16.0)), lit(1.0)),
                (BinaryOp(">", col("i", "g"), lit(18.0)), lit(2.0)),
            ),
            default=lit(0.0),
        )
        assert expr.eval(batch).tolist() == [1.0, 1.0, 1.0]

    def test_case_without_default_gives_nan(self, batch):
        expr = Case(whens=((BinaryOp(">", col("i", "g"), lit(18.5)), lit(1.0)),))
        out = expr.eval(batch)
        assert np.isnan(out[0]) and out[2] == 1.0


class TestFunctions:
    def test_power_sqrt_log(self, batch):
        assert np.allclose(
            FuncCall("power", (lit(2.0), lit(10))).eval(batch), 1024.0
        )
        assert np.allclose(FuncCall("sqrt", (lit(9.0),)).eval(batch), 3.0)
        assert np.allclose(FuncCall("log", (lit(np.e),)).eval(batch), 1.0)

    def test_trig_and_pi(self, batch):
        assert np.allclose(FuncCall("pi", ()).eval(batch), np.pi)
        assert np.allclose(
            FuncCall("sin", (FuncCall("radians", (lit(90.0),)),)).eval(batch), 1.0
        )

    def test_floor(self, batch):
        assert np.allclose(FuncCall("floor", (lit(2.7),)).eval(batch), 2.0)

    def test_unknown_function(self, batch):
        with pytest.raises(SqlPlanError):
            FuncCall("frobnicate", ()).eval(batch)

    def test_wrong_arity(self, batch):
        with pytest.raises(SqlPlanError):
            FuncCall("sqrt", (lit(1), lit(2))).eval(batch)


class TestTreeUtilities:
    def test_column_refs_collects_all(self):
        expr = and_(
            Between(col("ra"), lit(0), lit(1)),
            BinaryOp("=", col("z", "k"), col("z", "c")),
        )
        refs = expr.column_refs()
        names = {(r.qualifier, r.name) for r in refs}
        assert names == {(None, "ra"), ("k", "z"), ("c", "z")}

    def test_literal_broadcast(self, batch):
        assert lit(5).eval(batch).shape == (3,)

    def test_frozen_equality(self):
        assert col("a") == ColumnRef("a")
        assert lit(1) == Literal(1)


class TestIntegerArithmeticFailsAsTSql:
    """Integer ``%`` by zero and ``+ - *`` or ``SUM`` past int64 raise,
    and an integer ``%`` takes the dividend's sign, in every evaluator:
    the interpreted walk, the fused kernel and either rewrite mode;
    floats keep IEEE answers."""

    MODES = [
        {"compiled_expressions": c, "rewrites": r}
        for c in (True, False) for r in (True, False)
    ]

    @staticmethod
    def build(**knobs):
        from repro.engine.config import EngineConfig
        from repro.engine.database import Database

        db = Database("ints", config=EngineConfig(**knobs))
        db.create_table("t", {
            "id": np.arange(4, dtype=np.int64),
            "a": np.array([7, 2 ** 62, -(2 ** 63), 5], dtype=np.int64),
            "b": np.array([3, 2 ** 62, -1, 0], dtype=np.int64),
        })
        return db

    @pytest.mark.parametrize("knobs", MODES)
    @pytest.mark.parametrize("sql", [
        "SELECT 5 % 0 AS v",
        "SELECT a % b AS v FROM t",
        "SELECT id FROM t WHERE a % b = 1",
    ])
    def test_integer_modulo_by_zero(self, knobs, sql):
        with pytest.raises(SqlPlanError, match="divide by zero"):
            self.build(**knobs).sql(sql)

    @pytest.mark.parametrize("knobs", MODES)
    @pytest.mark.parametrize("sql", [
        "SELECT 9007199254740993 * 4611686018427387903 AS v",
        "SELECT a + b AS v FROM t",
        "SELECT a * b AS v FROM t WHERE id = 2",
        "SELECT a - 1 AS v FROM t WHERE id = 2",
        "SELECT id FROM t WHERE a + a > 0",
    ])
    def test_integer_overflow(self, knobs, sql):
        with pytest.raises(SqlPlanError, match="arithmetic overflow"):
            self.build(**knobs).sql(sql)

    @pytest.mark.parametrize("knobs", MODES)
    @pytest.mark.parametrize("sql, ids", [
        ("SELECT id FROM t WHERE b <> 0 AND a % b = 1", [0]),
        ("SELECT id FROM t WHERE b = 0 OR a % b = 1", [0, 3]),
        ("SELECT id FROM t WHERE id = 9 OR (b <> 0 AND a % b = 1)", [0]),
        ("SELECT id FROM t WHERE id = 0 AND a * b > 0", [0]),
        ("SELECT id FROM t WHERE id <> 0 OR a * b > 0", [0, 1, 2, 3]),
    ])
    def test_a_guarded_operand_does_not_fail(self, knobs, sql, ids):
        """AND and OR evaluate their right side only over the rows the
        left leaves open, in every evaluator, so a guard keeps a failing
        row away from the arithmetic."""
        db = self.build(**knobs)
        assert sorted(db.sql(sql).columns["id"].tolist()) == ids

    def test_a_guarded_projection_does_not_fail(self):
        for knobs in self.MODES:
            db = self.build(**knobs)
            flags = db.sql(
                "SELECT id, b <> 0 AND a % b = 1 AS f FROM t"
            ).columns["f"].tolist()
            assert flags == [True, False, False, False], knobs

    @pytest.mark.parametrize("knobs", MODES)
    def test_in_range_answers_are_unchanged(self, knobs):
        db = self.build(**knobs)
        rows = db.sql(
            "SELECT a % b AS m, a - b AS d, a * b AS p FROM t WHERE id = 0"
        ).rows()
        assert rows == [{"m": 1, "d": 4, "p": 21}]
        # the int64 extremes themselves are in range
        assert db.sql("SELECT a + 0 AS v FROM t WHERE id = 2").scalar() == \
            -(2 ** 63)
        assert db.sql(
            "SELECT -9223372036854775807 - 1 AS v"
        ).scalar() == -(2 ** 63)
        assert db.sql("SELECT a * -1 AS v FROM t WHERE id = 1").scalar() == \
            -(2 ** 62)

    @pytest.mark.parametrize("knobs", MODES)
    def test_integer_modulo_takes_the_dividends_sign(self, knobs):
        db = self.build(**knobs)
        assert db.sql(
            "SELECT -5 % 3 AS p, 5 % -3 AS q, -5 % -3 AS r"
        ).rows() == [{"p": -2, "q": 2, "r": -2}]
        assert db.sql(
            "SELECT (0 - a) % b AS m FROM t WHERE id = 0"
        ).scalar() == -1
        # MIN % -1 is 0, not an overflow
        assert db.sql("SELECT a % b AS m FROM t WHERE id = 2").scalar() == 0
        # a float % still floors to the divisor's sign
        assert db.sql("SELECT -5.5 % 3 AS f").scalar() == 0.5

    @pytest.mark.parametrize("knobs", MODES)
    @pytest.mark.parametrize("sql", [
        "SELECT SUM(v) AS s FROM big WHERE g = 1",
        "SELECT g, SUM(v) AS s FROM big GROUP BY g",
        "SELECT SUM(v) AS s FROM big WHERE g = 3",
    ], ids=["scalar", "grouped", "negative"])
    def test_integer_sum_overflow(self, knobs, sql):
        db = self.build(**knobs)
        db.create_table("big", {
            "g": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64),
            "v": np.array(
                [2 ** 62, 2 ** 62, 7, 5, -(2 ** 63), -1], dtype=np.int64
            ),
        })
        with pytest.raises(SqlPlanError, match="arithmetic overflow"):
            db.sql(sql)

    def test_integer_sum_in_range(self):
        db = self.build()
        db.create_table("big", {
            "g": np.array([1, 1, 1, 1, 2], dtype=np.int64),
            "v": np.array(
                [2 ** 62, 2 ** 62, -(2 ** 62), -(2 ** 62), 9], dtype=np.int64
            ),
            "f": np.array([0.5, 0.25, 0.0, 0.0, 1.0]),
        })
        # partial sums may leave int64 as long as the total does not
        assert db.sql("SELECT SUM(v) AS s FROM big").scalar() == 9
        assert db.sql(
            "SELECT g, SUM(v) AS s FROM big GROUP BY g ORDER BY g"
        ).columns["s"].tolist() == [0, 9]
        assert db.sql("SELECT SUM(f) AS s FROM big").scalar() == 1.75

    def test_float_operands_keep_ieee_answers(self):
        db = self.build()
        assert db.sql("SELECT 1 / 0 AS v").scalar() == np.inf
        assert db.sql("SELECT a / 0 AS v FROM t WHERE id = 0").scalar() == \
            np.inf

    def test_direct_evaluation(self):
        batch = {"x": np.array([2 ** 62, 1], dtype=np.int64)}
        with pytest.raises(SqlPlanError, match="arithmetic overflow"):
            BinaryOp("*", col("x"), lit(4)).eval(batch)
        with pytest.raises(SqlPlanError, match="divide by zero"):
            BinaryOp("%", col("x"), lit(0)).eval(batch)
        assert BinaryOp("-", col("x"), lit(1)).eval(batch).tolist() == [
            2 ** 62 - 1, 0
        ]
