"""The joins' one pair path, and literals as 0-d values in the kernel.

``BandJoin``, ``HashJoin`` and ``NestedLoopJoin`` describe their
candidates as a ``(start, count)`` range per probe row and hand them to
``join.join_pairs``, which expands them in blocks of at most
``PAIR_BUDGET`` pairs and runs the residual per block.  Every join is
checked here against a plain Python loop over all (left, right) pairs,
with kernels on and off and with the budget forced small, so that
block boundaries fall inside and between probe rows.

The fused kernel evaluates a literal, or a subtree of literals only,
to a 0-d value; its answers must stay byte-identical to the
interpreted walk, dtype included, and an all-literal subtree must
raise exactly where full-width evaluation raised.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import join as join_module
from repro.engine.compile import TALLY, CompiledKernel
from repro.engine.expressions import (
    BinaryOp,
    Case,
    Expr,
    FuncCall,
    InList,
    UnaryOp,
    and_,
    batch_length,
    col,
    lit,
)
from repro.engine.join import BandJoin, HashJoin, NestedLoopJoin
from repro.engine.operators import Filter, Materialized, Project
from repro.errors import SqlPlanError

INT64_MAX = int(np.iinfo(np.int64).max)


@pytest.fixture(params=[None, 3], ids=["default-budget", "budget-3"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(join_module, "PAIR_BUDGET", request.param)
    return request.param


@pytest.fixture(params=[True, False], ids=["compiled", "interpreted"])
def compiled(request):
    return request.param


def sides(seed: int, n_left: int = 13, n_right: int = 11):
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0.0, 6.0, n_left), 1)
    x[rng.random(n_left) < 0.2] = np.nan
    y = np.round(rng.uniform(0.0, 6.0, n_right), 1)
    y[rng.random(n_right) < 0.15] = np.nan
    left = {
        "l.id": np.arange(n_left, dtype=np.int64),
        "l.a": rng.integers(-4, 5, n_left).astype(np.int64),
        "l.x": x,
    }
    right = {
        "r.id": np.arange(n_right, dtype=np.int64),
        "r.k": rng.integers(-4, 5, n_right).astype(np.int64),
        "r.b": rng.integers(-2, 3, n_right).astype(np.int64),
        "r.y": y,
    }
    return left, right


def guarded(l_a, r_b) -> bool:
    """``r.b <> 0 AND l.a % r.b = 1`` (``%`` takes the dividend's sign)."""
    return r_b != 0 and math.fmod(l_a, r_b) == 1


GUARDED = and_(
    BinaryOp("!=", col("b", "r"), lit(0)),
    BinaryOp("=", BinaryOp("%", col("a", "l"), col("b", "r")), lit(1)),
)


class Recorder(Expr):
    """Evaluates ``inner`` and records the batch sizes it saw (the
    kernel runs an unknown node type through its own ``eval``)."""

    def __init__(self, inner: Expr):
        self.inner = inner
        self.sizes: list[int] = []

    def children(self):
        return (self.inner,)

    def eval(self, batch):
        self.sizes.append(batch_length(batch))
        return self.inner.eval(batch)


def loop_pairs(left, right, match) -> list[tuple[int, int]]:
    """Every (left row, right row) the predicate admits, in canonical
    order: the naive nested loop."""
    n_left, n_right = left["l.id"].size, right["r.id"].size

    def row(batch, i):
        return {key: arr[i].item() for key, arr in batch.items()}

    return [
        (i, j)
        for i in range(n_left)
        for j in range(n_right)
        if match(row(left, i), row(right, j))
    ]


def run(node, compiled_on: bool):
    node.compiled = compiled_on
    return node.execute()


def assert_pairs(out, left, right, pairs):
    """``out`` holds exactly ``pairs``, every column gathered from them."""
    li = np.array([p[0] for p in pairs], dtype=np.int64)
    ri = np.array([p[1] for p in pairs], dtype=np.int64)
    assert out["l.id"].tolist() == li.tolist()
    assert out["r.id"].tolist() == ri.tolist()
    for key, arr in {**left, **right}.items():
        want = arr[li] if key in left else arr[ri]
        assert out[key].dtype == want.dtype, key
        assert np.array_equal(out[key], want, equal_nan=want.dtype.kind == "f")


class TestAgainstAPairLoop:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strict", [False, True])
    def test_band_join(self, seed, strict, budget, compiled):
        left, right = sides(seed)
        low = BinaryOp("-", col("x", "l"), lit(1.5))
        high = BinaryOp("+", col("x", "l"), lit(1.5))
        node = BandJoin(
            Materialized(left), Materialized(right), col("y", "r"),
            low=low, high=high, low_strict=strict, high_strict=strict,
            residual=GUARDED,
        )

        def match(l, r):
            lo, hi, y = l["l.x"] - 1.5, l["l.x"] + 1.5, r["r.y"]
            inside = (lo < y < hi) if strict else (lo <= y <= hi)
            return inside and guarded(l["l.a"], r["r.b"])

        assert_pairs(run(node, compiled), left, right,
                     loop_pairs(left, right, match))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("outer", [False, True])
    @pytest.mark.parametrize("build_right", [True, False])
    def test_hash_join(self, seed, outer, build_right, budget, compiled):
        left, right = sides(seed)
        lnode, rnode = Materialized(left), Materialized(right)
        lnode.est_rows, rnode.est_rows = (100.0, 1.0) if build_right \
            else (1.0, 100.0)
        node = HashJoin(lnode, rnode, col("a", "l"), col("k", "r"),
                        residual=GUARDED, outer=outer)
        pairs = loop_pairs(
            left, right,
            lambda l, r: l["l.a"] == r["r.k"] and guarded(l["l.a"], r["r.b"]),
        )
        out = run(node, compiled)
        if not outer:
            assert_pairs(out, left, right, pairs)
            return
        matched = {i for i, _ in pairs}
        padded = [i for i in range(left["l.id"].size) if i not in matched]
        assert out["l.id"].tolist() == [i for i, _ in pairs] + padded
        n_pairs = len(pairs)
        assert out["r.id"][:n_pairs].tolist() == [j for _, j in pairs]
        assert np.isnan(out["r.id"][n_pairs:]).all()
        assert out["r.id"].dtype == np.float64

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_loop_join(self, seed, budget, compiled):
        left, right = sides(seed)
        predicate = and_(BinaryOp("<", col("x", "l"), col("y", "r")), GUARDED)
        node = NestedLoopJoin(Materialized(left), Materialized(right),
                              predicate)
        pairs = loop_pairs(
            left, right,
            lambda l, r: l["l.x"] < r["r.y"] and guarded(l["l.a"], r["r.b"]),
        )
        assert_pairs(run(node, compiled), left, right, pairs)


class TestPairPathEdges:
    def test_a_probe_range_wider_than_the_budget(self, monkeypatch, compiled):
        """A probe row with more candidates than the budget is one block
        of its own; nothing is dropped or repeated."""
        monkeypatch.setattr(join_module, "PAIR_BUDGET", 4)
        left, right = sides(7, n_left=5, n_right=30)
        predicate = BinaryOp(">=", col("y", "r"), col("x", "l"))
        node = NestedLoopJoin(Materialized(left), Materialized(right),
                              predicate)
        band = BandJoin(Materialized(left), Materialized(right),
                        col("y", "r"), low=col("x", "l"),
                        residual=BinaryOp("!=", col("b", "r"), lit(9)))
        pairs = loop_pairs(left, right, lambda l, r: r["r.y"] >= l["l.x"])
        assert len(pairs) > 4 * 5
        assert_pairs(run(node, compiled), left, right, pairs)
        assert_pairs(run(band, compiled), left, right, pairs)

    def test_zero_candidates_never_evaluate_the_residual(self, compiled):
        """``l.a % 0`` raises on any pair, so it must see none; the
        recorder shows that the residual is not run over zero pairs
        either, and that no block is empty."""
        left, right = sides(3)
        raising = Recorder(
            BinaryOp("=", BinaryOp("%", col("a", "l"), lit(0)), lit(1))
        )
        empty = {key: arr[:0] for key, arr in right.items()}
        nodes = [
            BandJoin(Materialized(left), Materialized(right), col("y", "r"),
                     low=BinaryOp("+", col("x", "l"), lit(100.0)),
                     high=BinaryOp("+", col("x", "l"), lit(101.0)),
                     residual=raising),
            HashJoin(Materialized(left), Materialized(right),
                     BinaryOp("+", col("a", "l"), lit(100)), col("k", "r"),
                     residual=raising),
            NestedLoopJoin(Materialized(left), Materialized(empty), raising),
        ]
        for node in nodes:
            out = run(node, compiled)
            assert out["l.id"].size == 0 and out["r.id"].size == 0
        assert raising.sizes == []
        # the same residual over candidates does raise
        with pytest.raises(SqlPlanError, match="divide by zero"):
            run(NestedLoopJoin(Materialized(left), Materialized(right),
                               raising), compiled)
        assert raising.sizes and 0 not in raising.sizes

    def test_nan_bounds_match_nothing(self, compiled):
        left, right = sides(5)
        left["l.x"][:] = np.nan
        node = BandJoin(Materialized(left), Materialized(right),
                        col("y", "r"), low=col("x", "l"),
                        high=BinaryOp("+", col("x", "l"), lit(1.0)),
                        residual=GUARDED)
        assert run(node, compiled)["l.id"].size == 0

    def test_outer_row_whose_pairs_all_fail_is_padded(self, compiled):
        left = {"l.id": np.arange(3, dtype=np.int64),
                "l.a": np.array([1, 2, 3], dtype=np.int64)}
        right = {"r.id": np.arange(4, dtype=np.int64),
                 "r.k": np.array([2, 2, 3, 1], dtype=np.int64),
                 "r.b": np.array([0, 0, 2, 0], dtype=np.int64)}
        node = HashJoin(Materialized(left), Materialized(right),
                        col("a", "l"), col("k", "r"), residual=GUARDED,
                        outer=True)
        out = run(node, compiled)
        # l.a = 1 and 2 have equal keys, but b = 0 rejects every pair;
        # 3 % 2 = 1 keeps l.a = 3's one pair
        assert out["l.id"].tolist() == [2, 0, 1]
        assert out["r.id"][0] == 2.0 and np.isnan(out["r.id"][1:]).all()


# ----------------------------------------------------------------------
# literals as 0-d values in the fused kernel
# ----------------------------------------------------------------------
def literal_batch(n: int = 9):
    rng = np.random.default_rng(4)
    return {
        "t.a": rng.integers(-3, 6, n).astype(np.int64),
        "t.b": rng.integers(-3, 6, n).astype(np.int64),
        "t.i32": rng.integers(-3, 6, n).astype(np.int32),
        "t.f32": rng.normal(size=n).astype(np.float32),
        "t.x": rng.normal(size=n),
        "t.s": np.array((["x", None, "y"] * n)[:n], dtype=object),
    }


def assert_same_bytes(compiled_value, walked):
    assert compiled_value.dtype == walked.dtype
    assert compiled_value.shape == walked.shape
    if walked.dtype.kind == "O":
        assert compiled_value.tolist() == walked.tolist()
    else:
        assert compiled_value.tobytes() == walked.tobytes()


def filter_both_ways(batch, predicate):
    """Filter's output with kernels on and off."""
    out = []
    for on in (True, False):
        node = Filter(Materialized(batch), predicate)
        node.compiled = on
        out.append(node.execute())
    return out


def project_both_ways(batch, expr):
    out = []
    for on in (True, False):
        node = Project(Materialized(batch), [("v", expr)])
        node.compiled = on
        out.append(node.execute()["v"])
    return out


A, B = col("a", "t"), col("b", "t")
LITERAL_CASES = {
    "in-list-led-by-a-literal": InList(lit(5), (A, B)),
    "true-conjunct": and_(BinaryOp("=", lit(1), lit(1)),
                          BinaryOp(">", A, lit(0))),
    "false-conjunct": and_(BinaryOp(">", A, lit(0)),
                           BinaryOp("=", lit(1), lit(0))),
    "case-literal-branches": BinaryOp(
        "=",
        Case(((BinaryOp(">", A, lit(2)), lit(1)),), lit(0)),
        Case(((BinaryOp("=", lit(1), lit(1)), lit(1)),), lit(0)),
    ),
    "string-against-none": BinaryOp("=", col("s", "t"), lit("x")),
    "string-in-list": InList(col("s", "t"), (lit("y"), lit("x"))),
}


class TestZeroDLiterals:
    @pytest.mark.parametrize("case", sorted(LITERAL_CASES))
    def test_predicates_byte_identical(self, case):
        predicate = LITERAL_CASES[case]
        fused, walked = filter_both_ways(literal_batch(), predicate)
        assert sorted(fused) == sorted(walked)
        for key in walked:
            assert_same_bytes(fused[key], walked[key])

    @pytest.mark.parametrize("case", sorted(LITERAL_CASES))
    def test_projections_byte_identical(self, case):
        fused, walked = project_both_ways(literal_batch(), LITERAL_CASES[case])
        assert_same_bytes(fused, walked)

    @pytest.mark.parametrize("expr", [
        BinaryOp("+", col("f32", "t"), lit(0.5)),  # float32 + float64
        BinaryOp("+", col("i32", "t"), lit(7)),  # int32 + int64
        BinaryOp("*", col("i32", "t"), BinaryOp("+", lit(2), lit(3))),
        BinaryOp("/", col("x", "t"), FuncCall("power", (lit(0.57), lit(2)))),
        FuncCall("power", (col("x", "t"), UnaryOp("-", lit(2)))),
        FuncCall("power", (col("x", "t"), BinaryOp("+", lit(1), lit(1)))),
        FuncCall("power", (col("x", "t"), BinaryOp("/", lit(1), lit(2)))),
        BinaryOp("-", lit(3), lit(1)),
        UnaryOp("-", lit(9223372036854775808)),
    ], ids=str)
    def test_promotion_and_function_arguments(self, expr):
        batch = literal_batch(200)
        fused, walked = project_both_ways(batch, expr)
        assert_same_bytes(fused, walked)
        assert walked.shape == (200,)

    def test_literal_only_subtree_counts_one_element(self):
        batch = literal_batch(1000)
        kernel = CompiledKernel(outputs=[(
            "v", BinaryOp("+", col("x", "t"),
                          FuncCall("power", (lit(0.5), lit(2)))),
        )])
        before = TALLY.alloc_elements
        value, = kernel.project_values(batch)
        # the sum and the column are 1000 rows each, POWER(0.5, 2) one
        assert TALLY.alloc_elements - before == 2001
        assert value.shape == (1000,)

    def test_overflowing_literal_subtree_raises_where_full_width_did(self):
        overflow = BinaryOp(">", BinaryOp("+", lit(INT64_MAX), lit(1)), A)
        batch = literal_batch()
        empty = {key: arr[:0] for key, arr in batch.items()}
        for on in (True, False):
            for predicate in (overflow, and_(BinaryOp("=", A, lit(99)),
                                             overflow)):
                # an empty batch, or rows a guard has decided: no raise
                node = Filter(Materialized(empty), predicate)
                node.compiled = on
                assert node.execute()["t.a"].size == 0
                node = Project(Materialized(empty), [("v", predicate)])
                node.compiled = on
                assert node.execute()["v"].size == 0
            guarded_filter = Filter(
                Materialized(batch),
                and_(BinaryOp("=", A, lit(99)), overflow),
            )
            guarded_filter.compiled = on
            assert guarded_filter.execute()["t.a"].size == 0
            node = Filter(Materialized(batch), overflow)
            node.compiled = on
            with pytest.raises(SqlPlanError, match="arithmetic overflow"):
                node.execute()
