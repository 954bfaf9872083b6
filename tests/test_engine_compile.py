"""Fused expression kernels and compressed pages: the kernel floor.

Two invariants anchor everything here:

* **Byte identity** — compiled kernels (CSE, short-circuit conjunction
  over selection vectors, late materialization) and compressed pages
  must never change an answer, only its cost.  Seeded random expression
  trees, NaN-heavy batches, division and empty batches all compare the
  compiled path against the interpreted walk bit for bit.

* **The work really drops** — the ``engine.compile.*`` tallies show
  fewer node evaluations and fewer allocated temporaries than the
  interpreted walk would make, and compressed pages show fewer logical
  reads for the same scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.compile import TALLY, CompiledKernel, count_nodes
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.expressions import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    batch_length,
    col,
    isin_fast,
    lit,
    split_conjuncts,
)
from repro.engine.pages import (
    PAGE_BYTES,
    ColumnCodec,
    CompressionPlan,
    choose_codecs,
    dict_decode,
    dict_encode,
    rle_decode,
    rle_encode,
)


def identical(a, b) -> bool:
    """Bit-for-bit array equality (NaNs equal; dtype kind must agree)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype.kind == b.dtype.kind and np.array_equal(
        a, b, equal_nan=(a.dtype.kind == "f")
    )


class Probe(Expr):
    """Wraps an expression and records the batch sizes it evaluates over.

    The compiler treats unknown node types as interpreted fallbacks over
    the *narrowed* batch, so the recorded sizes expose exactly how many
    rows reached this node — the observable form of short-circuiting
    and of CASE's branch narrowing.
    """

    def __init__(self, inner: Expr):
        self.inner = inner
        self.sizes: list[int] = []

    def children(self):
        return (self.inner,)

    def eval(self, batch):
        self.sizes.append(batch_length(batch))
        return self.inner.eval(batch)

    def __str__(self):
        return str(self.inner)


# ---------------------------------------------------------------------------
# seeded random trees: compiled vs interpreted
# ---------------------------------------------------------------------------
NUMERIC_COLS = ("a", "b", "c")


def random_numeric(rng, depth: int) -> Expr:
    """A random numeric-valued expression tree."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return col(str(rng.choice(NUMERIC_COLS)))
        return lit(float(rng.uniform(-5, 5)))
    roll = rng.random()
    if roll < 0.55:
        op = str(rng.choice(["+", "-", "*", "/", "%"]))
        return BinaryOp(op, random_numeric(rng, depth - 1),
                        random_numeric(rng, depth - 1))
    if roll < 0.7:
        return UnaryOp("-", random_numeric(rng, depth - 1))
    if roll < 0.85:
        fn = str(rng.choice(["abs", "sqrt", "floor"]))
        return FuncCall(fn, (random_numeric(rng, depth - 1),))
    return Case(
        whens=((random_bool(rng, depth - 1), random_numeric(rng, depth - 1)),),
        default=random_numeric(rng, depth - 1),
    )


def random_bool(rng, depth: int) -> Expr:
    """A random boolean-valued expression tree."""
    if depth <= 0 or rng.random() < 0.4:
        op = str(rng.choice(["<", "<=", ">", ">=", "=", "!="]))
        return BinaryOp(op, random_numeric(rng, 1), random_numeric(rng, 1))
    roll = rng.random()
    if roll < 0.35:
        op = str(rng.choice(["AND", "OR"]))
        return BinaryOp(op, random_bool(rng, depth - 1),
                        random_bool(rng, depth - 1))
    if roll < 0.5:
        return UnaryOp("NOT", random_bool(rng, depth - 1))
    if roll < 0.7:
        return Between(random_numeric(rng, depth - 1),
                       random_numeric(rng, 1), random_numeric(rng, 1))
    if roll < 0.85:
        options = tuple(lit(float(v)) for v in rng.integers(-3, 4, 3))
        return InList(random_numeric(rng, depth - 1), options)
    return BinaryOp(str(rng.choice(["<", ">"])),
                    random_numeric(rng, depth - 1),
                    random_numeric(rng, depth - 1))


def random_batch(rng, n: int) -> dict:
    """Float columns salted with NaNs plus zeros (division fodder)."""
    batch = {}
    for name in NUMERIC_COLS:
        values = rng.uniform(-10, 10, n)
        values[rng.random(n) < 0.15] = np.nan
        values[rng.random(n) < 0.1] = 0.0
        batch[name] = values
    return batch


@pytest.mark.parametrize("seed", range(12))
def test_random_projection_trees_byte_identical(seed):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, int(rng.integers(1, 400)))
    exprs = [random_numeric(rng, 4) for _ in range(4)]
    kernel = CompiledKernel(outputs=[(f"o{i}", e) for i, e in enumerate(exprs)])
    values = kernel.project_values(batch)
    for expr, value in zip(exprs, values):
        n = batch_length(batch)
        interp = np.asarray(expr.eval(batch))
        if interp.shape != (n,):
            interp = np.broadcast_to(interp, (n,)).copy()
        assert identical(value, interp), str(expr)


@pytest.mark.parametrize("seed", range(12))
def test_random_predicates_byte_identical(seed):
    rng = np.random.default_rng(1000 + seed)
    batch = random_batch(rng, int(rng.integers(1, 400)))
    conjuncts = [random_bool(rng, 3) for _ in range(int(rng.integers(1, 5)))]
    predicate = conjuncts[0]
    for part in conjuncts[1:]:
        predicate = BinaryOp("AND", predicate, part)
    kernel = CompiledKernel(predicate=predicate)
    interp = np.asarray(predicate.eval(batch), dtype=bool)
    n = batch_length(batch)
    if interp.shape != (n,):
        interp = np.broadcast_to(interp, (n,)).copy()
    assert identical(kernel.mask(batch), interp), str(predicate)


def test_empty_batch_and_empty_selection():
    batch = {"a": np.zeros(0), "b": np.zeros(0), "c": np.zeros(0)}
    predicate = BinaryOp("AND", BinaryOp(">", col("a"), lit(0)),
                         BinaryOp("<", col("b"), lit(1)))
    kernel = CompiledKernel(predicate=predicate,
                            outputs=[("x", BinaryOp("/", col("a"), col("b")))])
    assert kernel.select(batch).size == 0
    assert kernel.fused(batch) == [] or kernel.fused(batch)[0].size == 0
    # a first conjunct nothing survives: the second never runs
    probe = Probe(BinaryOp("<", col("b"), lit(1)))
    dead = CompiledKernel(predicate=BinaryOp(
        "AND", BinaryOp(">", col("a"), lit(np.inf)), probe))
    full = {"a": np.arange(5.0), "b": np.arange(5.0)}
    assert dead.select(full).size == 0
    assert probe.sizes == []  # short-circuited away entirely


def test_short_circuit_narrows_later_conjuncts():
    n = 100
    batch = {"a": np.arange(n, dtype=np.float64), "b": np.ones(n)}
    probe = Probe(BinaryOp("<", col("a"), lit(75)))
    predicate = BinaryOp("AND", BinaryOp(">=", col("a"), lit(50)), probe)
    kernel = CompiledKernel(predicate=predicate)
    survivors = kernel.select(batch)
    assert identical(survivors, np.arange(50, 75))
    # the second conjunct saw only the 50 rows surviving the first
    assert probe.sizes == [50]
    # interpreted evaluation over the full batch agrees bit for bit
    interp = np.asarray(predicate.eval(batch), dtype=bool)
    assert identical(kernel.mask(batch), interp)


def test_cse_shares_repeated_subtrees():
    band = BinaryOp("-", col("g"), col("i"))  # the MaxBCG band term
    chi = BinaryOp("*", band, band)
    predicate = BinaryOp("AND", BinaryOp(">", band, lit(0.2)),
                         BinaryOp("<", chi, lit(4.0)))
    kernel = CompiledKernel(predicate=predicate,
                            outputs=[("band", band), ("chi", chi)])
    assert kernel.n_cse >= 3  # band appears 4x across predicate+outputs
    before = TALLY.snapshot()
    batch = {"g": np.linspace(0, 3, 50), "i": np.linspace(1, 2, 50)}
    values = kernel.fused(batch)
    after = TALLY.snapshot()
    assert after["cse_hits"] > before["cse_hits"]
    # far fewer nodes evaluated than the interpreted walk's one-per-node
    interpreted_nodes = sum(
        count_nodes(c) for c in split_conjuncts(predicate)
    ) + count_nodes(band) + count_nodes(chi)
    assert after["nodes_evaluated"] - before["nodes_evaluated"] \
        < interpreted_nodes
    # ... and at least 2x fewer ndarray temporary elements allocated
    assert after["interp_elements"] - before["interp_elements"] \
        >= 2 * (after["alloc_elements"] - before["alloc_elements"])
    full_band = np.linspace(0, 3, 50) - np.linspace(1, 2, 50)
    keep = (full_band > 0.2) & (full_band * full_band < 4.0)
    assert identical(values[0], full_band[keep])


def test_kernel_is_reusable_across_batches():
    kernel = CompiledKernel(predicate=BinaryOp(">", col("a"), lit(1)))
    for n in (0, 1, 7, 100):
        batch = {"a": np.arange(n, dtype=np.float64)}
        assert identical(kernel.mask(batch),
                         np.arange(n, dtype=np.float64) > 1)


# ---------------------------------------------------------------------------
# satellite regressions: InList and Case
# ---------------------------------------------------------------------------
class TestInListFastPath:
    def test_single_pass_matches_loop(self):
        values = np.array([1.0, 2.0, 3.0, np.nan, 2.0])
        options = (lit(2.0), lit(9), lit(np.nan))
        fast = isin_fast(values, options)
        assert fast is not None
        expr = InList(col("v"), options)
        assert identical(fast, expr.eval({"v": values}))
        assert identical(fast, np.array([False, True, False, False, True]))

    def test_nan_probe_never_matches(self):
        # NaN in the data matches nothing, even a literal NaN option
        # (SQL: NULL IN (...) is not true) — and np.isin's sort-based
        # matching must not be allowed to pair NaNs up.
        values = np.array([np.nan, 5.0])
        fast = isin_fast(values, (lit(np.nan), lit(5.0)))
        assert fast is not None
        assert identical(fast, np.array([False, True]))

    def test_all_nan_options_short_circuits_to_false(self):
        fast = isin_fast(np.array([1.0, np.nan]), (lit(np.nan),))
        assert fast is not None
        assert identical(fast, np.array([False, False]))

    def test_mixed_and_nonliteral_options_fall_back(self):
        values = np.array([1.0, 2.0])
        assert isin_fast(values, (lit(1.0), lit("x"))) is None
        assert isin_fast(values, (lit(1.0), col("a"))) is None
        assert isin_fast(values, (lit(True),)) is None  # bool is not numeric
        assert isin_fast(np.array(["a", "b"], dtype=object),
                         (lit(1.0),)) is None

    def test_fallback_still_correct_via_expression(self):
        # string probe + string options: the loop path answers
        values = np.array(["a", "b", "c"], dtype=object)
        expr = InList(col("v"), (lit("a"), lit("c")))
        assert list(expr.eval({"v": values})) == [True, False, True]

    def test_int_probe_float_options(self):
        values = np.arange(5)
        expr = InList(col("v"), (lit(2.0), lit(4)))
        assert identical(expr.eval({"v": values}),
                         np.array([False, False, True, False, True]))


class TestCaseNarrowedBranches:
    def test_then_branches_see_only_hit_rows(self):
        n = 10
        batch = {"a": np.arange(n, dtype=np.float64)}
        then_probe = Probe(BinaryOp("*", col("a"), lit(2)))
        else_probe = Probe(BinaryOp("+", col("a"), lit(100)))
        expr = Case(whens=((BinaryOp("<", col("a"), lit(3)), then_probe),),
                    default=else_probe)
        result = expr.eval(batch)
        assert then_probe.sizes == [3]   # rows 0, 1, 2
        assert else_probe.sizes == [7]   # the rest
        expected = np.where(np.arange(n) < 3, np.arange(n) * 2.0,
                            np.arange(n) + 100.0)
        assert identical(result, expected)

    def test_all_rows_decided_probes_default_dtype_only(self):
        batch = {"a": np.arange(4, dtype=np.float64)}
        else_probe = Probe(lit(7))
        expr = Case(whens=((BinaryOp(">=", col("a"), lit(0)), lit(1)),),
                    default=else_probe)
        result = expr.eval(batch)
        # the default ran over zero rows — a dtype probe, not real work
        assert else_probe.sizes == [0]
        assert identical(result, np.full(4, 1))

    def test_integer_dtype_preserved(self):
        batch = {"a": np.arange(6, dtype=np.int64)}
        expr = Case(whens=((BinaryOp("<", col("a"), lit(3)), lit(10)),),
                    default=lit(20))
        result = expr.eval(batch)
        assert result.dtype.kind == "i"
        assert list(result) == [10, 10, 10, 20, 20, 20]

    def test_no_default_yields_nan(self):
        batch = {"a": np.arange(4, dtype=np.float64)}
        expr = Case(whens=((BinaryOp("<", col("a"), lit(2)), lit(1.5)),))
        assert identical(expr.eval(batch),
                         np.array([1.5, 1.5, np.nan, np.nan]))

    def test_first_matching_when_wins(self):
        batch = {"a": np.arange(5, dtype=np.float64)}
        expr = Case(whens=(
            (BinaryOp("<", col("a"), lit(3)), lit(1.0)),
            (BinaryOp("<", col("a"), lit(4)), lit(2.0)),
        ), default=lit(3.0))
        assert identical(expr.eval(batch),
                         np.array([1.0, 1.0, 1.0, 2.0, 3.0]))

    def test_case_over_empty_batch(self):
        batch = {"a": np.zeros(0)}
        expr = Case(whens=((BinaryOp("<", col("a"), lit(1)),
                            FuncCall("round", (col("a"), lit(2)))),),
                    default=lit(0.0))
        assert expr.eval(batch).size == 0


# ---------------------------------------------------------------------------
# engine integration: config, EXPLAIN, cache disjointness
# ---------------------------------------------------------------------------
def build_db(n: int = 4000, analyze: bool = True, **config_kwargs) -> Database:
    db = Database("compiletest", config=EngineConfig(**config_kwargs))
    rng = np.random.default_rng(42)
    zone = np.sort(rng.integers(0, 25, n))
    g = rng.uniform(14, 24, n)
    g[rng.random(n) < 0.05] = np.nan
    db.create_table("galaxy", {
        "objid": np.arange(n, dtype=np.int64),
        "zoneid": zone,
        "ra": np.sort(rng.uniform(0.0, 360.0, n)),
        "g": g,
        "i": rng.uniform(13, 23, n),
    }, primary_key="objid")
    if analyze:
        db.sql("ANALYZE")
    return db


KERNEL_SQL = (
    "SELECT objid, g - i AS band, (g - i) * (g - i) AS chi "
    "FROM galaxy WHERE g - i > 0.4 AND zoneid < 18 AND ra < 300.0 "
    "ORDER BY objid"
)


def test_engine_config_knobs_and_signature():
    assert EngineConfig().compiled_expressions is True
    assert EngineConfig().plan_signature() == "cost+rewrite+compiled"
    off = EngineConfig(compiled_expressions=False)
    assert off.plan_signature() == "cost+rewrite"
    assert not Database("off", config=off).config.compiled_expressions


def test_explain_shows_fused_annotation():
    db = build_db()
    plan = db.explain(KERNEL_SQL)
    assert "[fused:" in plan and "cse:" in plan
    off = build_db(compiled_expressions=False)
    assert "[fused:" not in off.explain(KERNEL_SQL)


def test_explain_analyze_keeps_compiled_stamp():
    db = build_db()
    report = db.explain_analyze(KERNEL_SQL)
    assert "[fused:" in report.render()


def test_compiled_results_byte_identical_to_interpreted():
    on = build_db()
    off = build_db(compiled_expressions=False)
    a, b = on.sql(KERNEL_SQL), off.sql(KERNEL_SQL)
    assert a.row_count == b.row_count > 0
    for key in a.columns:
        assert identical(a.columns[key], b.columns[key])


def test_join_residuals_compiled_match():
    sql = (
        "SELECT a.objid AS o1, b.objid AS o2 "
        "FROM galaxy AS a JOIN galaxy AS b ON a.zoneid = b.zoneid "
        "WHERE a.g - b.g > 2.0 AND a.objid < 300 AND b.objid < 300 "
        "ORDER BY o1, o2"
    )
    on, off = build_db(), build_db(compiled_expressions=False)
    a, b = on.sql(sql), off.sql(sql)
    assert a.row_count == b.row_count > 0
    for key in a.columns:
        assert identical(a.columns[key], b.columns[key])


def test_result_cache_entries_disjoint_per_compiled_mode():
    db = build_db(result_cache=True)
    db.sql(KERNEL_SQL)
    assert len(db.result_cache) == 1
    db.config = db.config.replace(compiled_expressions=False)
    miss = db.sql(KERNEL_SQL)
    assert not miss.plan.startswith("[answered from cache]")
    assert len(db.result_cache) == 2  # one entry per mode
    db.config = db.config.replace(compiled_expressions=True)
    hit = db.sql(KERNEL_SQL)
    assert hit.plan.startswith("[answered from cache]")


def same_bits(a, b) -> np.ndarray:
    """Per-element bit equality of two float64 arrays, NaN equal to NaN."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


class TestPowerMatchesNumpySquare:
    """``POWER(v, 2)`` carries the bits of numpy's ``v ** 2``: its
    literal exponent reaches numpy as a scalar (the square fast path),
    not as an array that sends every element through libm ``pow``."""

    N = 100_000

    @pytest.fixture(scope="class")
    def values(self):
        rng = np.random.default_rng(2005)
        v = rng.standard_normal(self.N)  # half of the bases negative
        v[rng.random(self.N) < 0.01] = np.nan
        return v

    def _db(self, values, compiled: bool) -> Database:
        db = Database("power", config=EngineConfig(
            compiled_expressions=compiled))
        db.create_table("t", {
            "id": np.arange(self.N, dtype=np.int64),
            "v": values,
            "sq": values ** 2,
        }, primary_key="id")
        return db

    @pytest.mark.parametrize("compiled", [True, False])
    def test_select_position(self, values, compiled):
        out = self._db(values, compiled).sql(
            "SELECT id, POWER(v, 2) AS p FROM t").columns
        assert out["p"].dtype == np.float64
        assert same_bits(out["p"], values[out["id"]] ** 2).all()

    @pytest.mark.parametrize("compiled", [True, False])
    def test_where_position(self, values, compiled):
        # every non-NULL row survives only if each square is bit-exact
        out = self._db(values, compiled).sql(
            "SELECT id FROM t WHERE POWER(v, 2) = sq").columns
        assert np.array_equal(out["id"], np.flatnonzero(~np.isnan(values)))

    def test_literal_only_call_broadcasts(self):
        batch = {"x": np.arange(4.0)}
        expr = FuncCall("power", (lit(0.57), lit(2)))
        for value in (expr.eval(batch),
                      CompiledKernel(outputs=[("p", expr)]).project_values(batch)[0]):
            assert value.shape == (4,) and same_bits(value, 0.57 ** 2).all()


def test_compile_metrics_flow_to_registry():
    from repro.obs.metrics import get_metrics

    db = build_db()
    before = get_metrics().snapshot().get("engine.compile.executions", 0.0)
    db.sql(KERNEL_SQL)
    after = get_metrics().snapshot()["engine.compile.executions"]
    assert after > before
    assert "engine.compile.cse_hits" in get_metrics().snapshot()


# ---------------------------------------------------------------------------
# page compression
# ---------------------------------------------------------------------------
class TestCodecs:
    def test_dict_round_trip_int(self):
        values = np.array([3, 1, 3, 3, 2, 1], dtype=np.int64)
        codes, dictionary = dict_encode(values)
        assert dictionary.size == 3
        assert identical(dict_decode(codes, dictionary), values)

    def test_dict_round_trip_float_with_nans(self):
        values = np.array([1.5, np.nan, 1.5, np.nan, 2.5])
        codes, dictionary = dict_encode(values)
        assert dictionary.size == 3  # one shared NaN slot
        assert identical(dict_decode(codes, dictionary), values)

    def test_dict_round_trip_strings(self):
        values = np.array(["u", "g", "u", "r"], dtype=object)
        codes, dictionary = dict_encode(values)
        assert list(dict_decode(codes, dictionary)) == list(values)

    def test_rle_round_trip(self):
        values = np.repeat(np.array([5, 7, 5, 9], dtype=np.int64),
                           [3, 1, 4, 2])
        run_values, run_lengths = rle_encode(values)
        assert run_lengths.tolist() == [3, 1, 4, 2]
        assert identical(rle_decode(run_values, run_lengths), values)

    def test_rle_coalesces_adjacent_nans(self):
        values = np.array([1.0, np.nan, np.nan, 2.0])
        run_values, run_lengths = rle_encode(values)
        assert run_lengths.tolist() == [1, 2, 1]
        assert identical(rle_decode(run_values, run_lengths), values)

    def test_rle_empty(self):
        run_values, run_lengths = rle_encode(np.zeros(0))
        assert run_values.size == 0 and run_lengths.size == 0


class TestCodecChoice:
    def test_low_ndv_takes_dict_clustered_takes_rle(self):
        db = build_db()
        plan = db.table("galaxy").compression
        assert plan is not None
        by_kind = {c.column: c.kind for c in plan.codecs}
        # zoneid: 25 distinct values, sorted -> runs beat even dict codes
        assert by_kind["zoneid"] in ("dict", "rle")
        assert by_kind["zoneid"] != "raw"
        # ra: all-distinct float, unsorted runs -> stays raw
        assert by_kind["ra"] == "raw"
        assert plan.row_bytes < db.table("galaxy").schema.row_byte_width
        assert plan.describe()  # non-empty summary

    def test_incompressible_table_gets_no_plan(self):
        db = Database("raw", config=EngineConfig())
        rng = np.random.default_rng(3)
        db.create_table("noise", {"x": rng.uniform(0, 1, 500),
                                  "y": rng.uniform(0, 1, 500)})
        db.sql("ANALYZE")
        assert db.table("noise").compression is None
        width = db.table("noise").schema.row_byte_width
        assert db.table("noise").file.rows_per_page == \
            max(1, PAGE_BYTES // width)

    def test_compression_reacts_to_reanalyze(self):
        db = build_db(analyze=False)
        table = db.table("galaxy")
        raw = PAGE_BYTES // table.schema.row_byte_width
        assert table.compression is None
        assert table.file.rows_per_page == raw
        db.sql("ANALYZE")
        assert table.compression is not None
        assert table.file.rows_per_page > raw
        table.apply_compression(None)
        assert table.file.rows_per_page == raw
        db.sql("ANALYZE galaxy")
        assert table.file.rows_per_page > raw

    def test_logical_reads_drop_with_compression(self):
        db = build_db()
        table = db.table("galaxy")

        def run():
            start = db.io_counters.logical_reads
            result = db.sql(KERNEL_SQL)
            return result, db.io_counters.logical_reads - start

        table.apply_compression(None)
        raw, raw_reads = run()
        db.sql("ANALYZE galaxy")
        packed, packed_reads = run()
        assert packed.row_count == raw.row_count > 0
        for key in raw.columns:
            assert identical(packed.columns[key], raw.columns[key])
        assert packed_reads < raw_reads


class TestCompressionPersistence:
    def test_storage_round_trip(self, tmp_path):
        from repro.engine.storage import load_database, save_database

        db = build_db()
        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        src, dst = db.table("galaxy"), restored.table("galaxy")
        assert dst.compression is not None
        assert dst.compression == src.compression
        assert dst.file.rows_per_page == src.file.rows_per_page
        # restored stats keep the run counts the codec choice needs
        assert dst.stats.column("zoneid").n_runs == \
            src.stats.column("zoneid").n_runs

    def test_stats_json_backward_compat(self):
        from repro.engine.optimizer.statistics import (
            stats_from_json,
            stats_to_json,
        )

        db = build_db()
        payload = stats_to_json(db.table("galaxy").stats)
        for column in payload["columns"].values():
            column.pop("n_runs")  # a pre-compression stats file
        legacy = stats_from_json(payload)
        assert legacy.column("zoneid").n_runs is None
        # choosing codecs from legacy stats must not crash: RLE simply
        # never wins without run counts
        plan = choose_codecs(legacy, db.table("galaxy").schema)
        if plan is not None:
            assert all(c.kind != "rle" for c in plan.codecs)

    def test_plan_row_bytes_and_lookup(self):
        plan = CompressionPlan(codecs=(
            ColumnCodec("zoneid", "dict", 1.1),
            ColumnCodec("ra", "raw", 8.0),
        ))
        assert plan.row_bytes == pytest.approx(9.1)
        assert plan.codec_for("ZONEID").kind == "dict"
        assert plan.codec_for("missing") is None
        assert plan.compressed_columns == ("zoneid",)


def test_n_runs_counts_physical_runs():
    from repro.engine.optimizer.statistics import count_runs

    assert count_runs(np.array([1, 1, 2, 2, 2, 1])) == 3
    assert count_runs(np.array([np.nan, np.nan, 1.0])) == 2
    assert count_runs(np.array(["a", "a", "b"], dtype=object)) == 2
    assert count_runs(np.zeros(0)) == 0
    assert count_runs(np.array([7])) == 1
