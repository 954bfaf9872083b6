"""One key kernel: GROUP BY, DISTINCT, IN and equi-joins decide key
equality through :mod:`repro.engine.keys`.

The kernel itself is checked against a Python reference of its rules
(numpy's promoted ``==``, NaN and None are NULL, a string never equals
a number, codes ascend in key order).  The operators are checked
against each other (a HashJoin, a SemiJoin and a two-comparison Filter
answer one ``=``) and against stdlib ``sqlite3``: seeded GROUP BY and
DISTINCT statements on NULL-free data under every ``EngineConfig``
corner, and the NULL group, string MIN / MAX and group keys spelled
with or without their table, with the rewrites on and off.
"""

from __future__ import annotations

import itertools
import math
import sqlite3

import numpy as np
import pytest

from repro.engine import keys
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.join import HashJoin, SemiJoin
from repro.engine.operators import plan_nodes

CORNERS = [
    EngineConfig(compiled_expressions=compiled, rewrites=rewrites)
    for compiled, rewrites in itertools.product((False, True), repeat=2)
]


def corner(config: EngineConfig) -> str:
    return f"compiled={config.compiled_expressions}-rewrites={config.rewrites}"


# ---------------------------------------------------------------------------
# the kernel against a Python reference
# ---------------------------------------------------------------------------


def reference_key(value):
    """A value as the rules see it: None for NULL, a float for a number
    (numpy compares an int64 with a float64 as float64), else the str."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    if isinstance(value, str):
        return value
    return float(value)


def column(rng, kind: str, n: int) -> np.ndarray:
    if kind == "int":
        return rng.integers(0, 4, n).astype(np.int64)
    if kind == "float":
        values = rng.integers(0, 4, n).astype(np.float64)
        values[rng.random(n) < 0.2] = np.nan
        return values
    values = np.array([f"s{v}" for v in rng.integers(0, 4, n)], dtype=object)
    values[rng.random(n) < 0.2] = None
    return values


def sort_key(row: tuple) -> tuple:
    """Lexicographic key order with NULL last, column by column."""
    return tuple((value is None, value if value is not None else 0)
                 for value in row)


KINDS = ("int", "float", "str")


class TestKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_group_codes_equal_exactly_where_keys_are(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 60))
        kinds = rng.choice(KINDS, size=int(rng.integers(1, 4)))
        columns = [column(rng, kind, n) for kind in kinds]
        rows = [tuple(map(reference_key, row))
                for row in zip(*[c.tolist() for c in columns])]
        order, starts, first = keys.group(columns)
        group_of = np.empty(n, dtype=np.int64)
        group_of[order] = np.repeat(
            np.arange(starts.size), np.diff(starts, append=n)
        )
        for i, j in itertools.combinations(range(n), 2):
            assert (group_of[i] == group_of[j]) == (rows[i] == rows[j])
        # groups ascend in key order, NULL last; each starts at its
        # first input row and keeps its rows in input order
        firsts = [sort_key(rows[row]) for row in first]
        assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
        for g in range(starts.size):
            members = np.flatnonzero(group_of == g)
            assert first[g] == members[0]
            stop = starts[g + 1] if g + 1 < starts.size else n
            assert order[starts[g]:stop].tolist() == members.tolist()

    @pytest.mark.parametrize("seed", range(8))
    def test_match_codes_equal_exactly_where_keys_are(self, seed):
        rng = np.random.default_rng(950 + seed)
        width = int(rng.integers(1, 3))
        left_kinds = rng.choice(KINDS, size=width)
        # mostly the same kinds, sometimes an int meeting a float or a
        # string meeting a number
        right_kinds = [
            rng.choice(KINDS) if rng.random() < 0.3 else kind
            for kind in left_kinds
        ]
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        left = [column(rng, kind, n) for kind in left_kinds]
        right = [column(rng, kind, m) for kind in right_kinds]
        (lrows, lcodes), (rrows, rcodes) = keys.match(left, right)
        lkeys = [tuple(map(reference_key, row))
                 for row in zip(*[c.tolist() for c in left])]
        rkeys = [tuple(map(reference_key, row))
                 for row in zip(*[c.tolist() for c in right])]
        lcode = dict(zip(lrows.tolist(), lcodes.tolist()))
        rcode = dict(zip(rrows.tolist(), rcodes.tolist()))
        for i, j in itertools.product(range(n), range(m)):
            a, b = lkeys[i], rkeys[j]
            equal = None not in a and None not in b and all(
                isinstance(x, str) == isinstance(y, str) and x == y
                for x, y in zip(a, b)
            )
            coded = i in lcode and j in rcode and lcode[i] == rcode[j]
            assert coded == equal, (a, b)
        assert lrows.tolist() == sorted(lrows.tolist())

    def test_a_lone_numeric_key_is_its_own_code(self):
        left = [np.array([3, 1, 2], dtype=np.int64)]
        right = [np.array([2.0, np.nan, 3.5])]
        (lrows, lcodes), (rrows, rcodes) = keys.match(left, right)
        assert lrows.tolist() == [0, 1, 2] and rrows.tolist() == [0, 2]
        assert lcodes.dtype == np.float64
        assert lcodes.tolist() == [3.0, 1.0, 2.0]
        assert rcodes.tolist() == [2.0, 3.5]


# ---------------------------------------------------------------------------
# the engine's = : HashJoin, SemiJoin and Filter agree
# ---------------------------------------------------------------------------


def probe_db(config: EngineConfig) -> Database:
    db = Database("keys", config=config)
    db.create_table("a", {
        "id": np.arange(3, dtype=np.int64),
        "k": np.array([2 ** 53 + 1, 2 ** 53 + 1, 5], dtype=np.int64),
        "s": np.array(["x", None, "y"], dtype=object),
    })
    db.create_table("b", {
        "f": np.array([2.0 ** 53, 7.0, 8.0]),
        "s": np.array(["x", None, "z"], dtype=object),
    })
    return db


def ids(db: Database, sql: str) -> list[int]:
    return sorted(db.sql(sql).columns["id"].tolist())


@pytest.mark.parametrize("config", CORNERS, ids=corner)
class TestEquality:
    def test_int_and_float_keys_join_as_numpy_compares(self, config):
        db = probe_db(config)
        hashed = "SELECT a.id AS id FROM a CROSS JOIN b WHERE a.k = b.f"
        plan = db.sql(hashed).plan_node
        assert any(isinstance(node, HashJoin) for node in plan_nodes(plan))
        semi = "SELECT id FROM a WHERE k IN (SELECT f FROM b)"
        assert any(isinstance(node, SemiJoin)
                   for node in plan_nodes(db.sql(semi).plan_node))
        filtered = ("SELECT a.id AS id FROM a CROSS JOIN b "
                    "WHERE a.k <= b.f AND a.k >= b.f")
        assert bool(np.int64(2 ** 53 + 1) == np.float64(2.0 ** 53))
        assert ids(db, hashed) == ids(db, semi) == ids(db, filtered) == [0, 1]

    def test_a_null_string_key_never_matches(self, config):
        db = probe_db(config)
        joined = "SELECT a.id AS id FROM a JOIN b ON a.s = b.s"
        semi = "SELECT id FROM a WHERE s IN (SELECT s FROM b)"
        assert ids(db, joined) == ids(db, semi) == [0]


# ---------------------------------------------------------------------------
# NULLs in sorting operators, the NULL group and string MIN / MAX
# ---------------------------------------------------------------------------


NULL_DATA = {
    "k": np.array([1, 1, 2, 2, 3, 3, 3], dtype=np.int64),
    "x": np.array([1.0, np.nan, np.nan, 2.0, np.nan, 1.0, 2.0]),
    "s": np.array(["x", None, "y", None, None, "w", "x"], dtype=object),
}


def null_db(rewrites: bool) -> Database:
    db = Database("nulls", config=EngineConfig(rewrites=rewrites))
    db.create_table("t", NULL_DATA)
    return db


def sqlite_db(tables: dict[str, dict[str, np.ndarray]]) -> sqlite3.Connection:
    con = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        names = list(columns)
        con.execute(f"CREATE TABLE {name} ({', '.join(names)})")
        rows = zip(*[
            [None if isinstance(v, float) and math.isnan(v) else v
             for v in columns[c].tolist()]
            for c in names
        ])
        con.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(names))})", rows
        )
    return con


def as_rows(result) -> list[tuple]:
    """Engine rows with NaN read as NULL, in a NULL-safe order."""
    rows = zip(*[result.columns[c].tolist() for c in result.columns])
    rows = [tuple(None if isinstance(v, float) and math.isnan(v) else v
                  for v in row) for row in rows]
    return sorted(rows, key=sort_key)


def oracle_rows(con: sqlite3.Connection, sql: str) -> list[tuple]:
    return sorted(con.execute(sql).fetchall(), key=sort_key)


@pytest.mark.parametrize("rewrites", [True, False])
class TestNulls:
    def test_distinct_over_a_null_string(self, rewrites):
        out = null_db(rewrites).sql("SELECT DISTINCT s FROM t")
        assert out.columns["s"].tolist() == ["x", None, "y", "w"]

    def test_group_by_a_null_string(self, rewrites):
        out = null_db(rewrites).sql(
            "SELECT s, COUNT(*) AS n FROM t GROUP BY s"
        )
        assert out.columns["s"].tolist() == ["w", "x", "y", None]
        assert out.columns["n"].tolist() == [1, 2, 1, 3]

    def test_order_by_a_null_string(self, rewrites):
        db = null_db(rewrites)
        asc = db.sql("SELECT k, s FROM t ORDER BY s").columns
        assert asc["s"].tolist() == ["w", "x", "x", "y", None, None, None]
        assert asc["k"].tolist() == [3, 1, 3, 2, 1, 2, 3]
        desc = db.sql("SELECT k, s FROM t ORDER BY s DESC").columns
        assert desc["s"].tolist() == [None, None, None, "y", "x", "x", "w"]
        # DESC reverses the stable ascending order, ties included
        assert desc["k"].tolist() == [3, 2, 1, 2, 3, 1, 3]

    @pytest.mark.parametrize("sql", [
        "SELECT x, COUNT(*) AS n FROM t GROUP BY x",
        "SELECT DISTINCT x FROM t",
        "SELECT k, x, COUNT(*) AS n FROM t GROUP BY k, x",
        "SELECT DISTINCT k, x FROM t",
        "SELECT k, MIN(s) AS lo, MAX(s) AS hi, COUNT(s) AS n "
        "FROM t GROUP BY k",
        "SELECT MIN(s) AS lo, MAX(s) AS hi FROM t",
        "SELECT s, k, COUNT(*) AS n FROM t GROUP BY s, k",
    ])
    def test_matches_sqlite(self, rewrites, sql):
        got = null_db(rewrites).sql(sql)
        assert as_rows(got) == oracle_rows(sqlite_db({"t": NULL_DATA}), sql)

    def test_string_extremes_answer_object_strings(self, rewrites):
        out = null_db(rewrites).sql(
            "SELECT k, MIN(s) AS lo, MAX(s) AS hi FROM t GROUP BY k"
        ).columns
        assert out["lo"].dtype == object and out["hi"].dtype == object
        assert out["lo"].tolist() == ["x", "y", "w"]
        assert out["hi"].tolist() == ["x", "y", "x"]

    def test_multi_key_string_keys_keep_object_dtype(self, rewrites):
        out = null_db(rewrites).sql(
            "SELECT s, k, COUNT(*) AS n FROM t GROUP BY s, k"
        ).columns
        assert out["s"].dtype == object


# ---------------------------------------------------------------------------
# group keys are matched by column, not by spelling
# ---------------------------------------------------------------------------


SPELLING_DATA = {
    "a": {"k": np.array([1, 4, 4, 5, 7, 7, 7], dtype=np.int64),
          "v": np.arange(7, dtype=np.int64)},
    "b": {"k": np.array([4, 7, 9], dtype=np.int64)},
}


@pytest.mark.parametrize("rewrites", [True, False])
@pytest.mark.parametrize("sql", [
    "SELECT k, COUNT(*) AS n FROM a GROUP BY k HAVING a.k > 3",
    "SELECT k, COUNT(*) AS n FROM a GROUP BY a.k HAVING k > 3",
    "SELECT a.k AS k, SUM(v) AS s FROM a GROUP BY k HAVING SUM(a.v) > 2",
    "SELECT k, COUNT(*) AS n FROM a GROUP BY k "
    "HAVING EXISTS (SELECT 1 FROM b WHERE b.k = a.k)",
    "SELECT a.k AS k, COUNT(*) AS n FROM a GROUP BY k "
    "HAVING NOT EXISTS (SELECT 1 FROM b WHERE b.k = a.k)",
])
def test_group_keys_match_by_column(rewrites, sql):
    db = Database("spelling", config=EngineConfig(rewrites=rewrites))
    for name, columns in SPELLING_DATA.items():
        db.create_table(name, columns)
    assert as_rows(db.sql(sql)) == oracle_rows(sqlite_db(SPELLING_DATA), sql)


# ---------------------------------------------------------------------------
# seeded GROUP BY and DISTINCT against sqlite, every config corner
# ---------------------------------------------------------------------------


def seeded_table(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1200 + seed)
    n = 300
    return {
        "k1": rng.integers(0, 5, n).astype(np.int64),
        "k2": rng.integers(-2, 2, n).astype(np.float64),
        "k3": np.array([f"g{v}" for v in rng.integers(0, 3, n)], dtype=object),
        "v": rng.integers(-50, 50, n).astype(np.int64),
        "f": np.round(rng.normal(size=n), 3),
    }


AGGREGATES = ("COUNT(*)", "COUNT(v)", "COUNT(DISTINCT v)", "SUM(v)",
              "MIN(v)", "MAX(v)", "AVG(v)", "SUM(f)", "MIN(f)", "MAX(f)",
              "AVG(f)", "MIN(k3)", "MAX(k3)")


def rows_close(got: list[tuple], want: list[tuple]) -> bool:
    return len(got) == len(want) and all(
        len(a) == len(b) and all(
            x == y or (isinstance(x, float) and math.isclose(x, y, rel_tol=1e-9,
                                                             abs_tol=1e-12))
            for x, y in zip(a, b)
        )
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("config", CORNERS, ids=corner)
@pytest.mark.parametrize("seed", range(3))
def test_grouping_matches_sqlite(config, seed):
    data = seeded_table(seed)
    db = Database("seeded", config=config)
    db.create_table("t", data)
    con = sqlite_db({"t": data})
    rng = np.random.default_rng(seed)
    for width in (1, 2, 3):
        group = ", ".join(rng.permutation(["k1", "k2", "k3"])[:width])
        aggs = ", ".join(f"{agg} AS a{i}" for i, agg in enumerate(AGGREGATES))
        for sql in (f"SELECT {group}, {aggs} FROM t GROUP BY {group}",
                    f"SELECT DISTINCT {group} FROM t",
                    f"SELECT {aggs} FROM t WHERE k1 = {seed}"):
            assert rows_close(as_rows(db.sql(sql)), oracle_rows(con, sql)), sql
