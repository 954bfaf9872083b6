"""Cardinality estimation: predicate selectivity and the est_rows pass.

Estimates follow the classic System-R recipe, upgraded with the
statistics ANALYZE collects:

* equality against a literal     -> 1 / NDV (0 outside [min, max]);
* ranges / BETWEEN               -> equi-depth histogram interpolation,
                                    falling back to a linear min–max
                                    ramp, falling back to 1/3;
* conjunctions                   -> independence (product);
* disjunctions                   -> inclusion–exclusion;
* equi-joins                     -> containment: 1 / max(NDV_l, NDV_r),
                                    with the primary key counting as
                                    fully distinct even without stats.

:func:`annotate_plan` walks a finished physical plan bottom-up and
stamps ``est_rows`` onto every node — the number EXPLAIN ANALYZE later
compares against actuals to compute per-operator q-error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.engine.aggregate import Aggregate
from repro.engine.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    and_,
    batch_length,
    literal_value,
    split_conjuncts,
)
from repro.engine.index import PrimaryKeyIndex, range_bounds
from repro.engine.join import (
    BandJoin,
    CrossJoin,
    HashJoin,
    NestedLoopJoin,
    SemiJoin,
)
from repro.engine.operators import (
    Distinct,
    Filter,
    IndexRangeScan,
    Limit,
    Materialized,
    PlanNode,
    Project,
    ProjectPassthrough,
    SeqScan,
    Sort,
    SubqueryScan,
    TableFunctionScan,
)
from repro.engine.optimizer.statistics import ColumnStats, TableStats

#: System-R style fallbacks when statistics are missing.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_OTHER_SELECTIVITY = 0.25
DEFAULT_TVF_ROWS = 100.0
DEFAULT_JOIN_NDV = 10.0


@dataclass
class RelationProfile:
    """What the estimator knows about one bound relation."""

    alias: str
    table_rows: float
    stats: TableStats | None = None
    columns: set[str] = field(default_factory=set)
    primary_key: str | None = None
    pages: float = 0.0
    #: Lowercased base-table name, when the relation is one (None for
    #: derived relations).  Learned selectivity overrides key on
    #: ``table.column`` so every alias of the same join shares them.
    table: str | None = None


def _numeric_value(expr: Expr):
    """The numeric constant ``expr`` spells (histograms place only
    numbers), else None."""
    value = literal_value(expr)
    return value if isinstance(value, (int, float)) else None


def _base_and_offset(expr: Expr) -> tuple[Expr, float]:
    """Decompose ``base + c`` / ``base - c`` structurally; plain
    expressions are their own base with offset 0."""
    if isinstance(expr, BinaryOp):
        if expr.op == "+":
            lit = _numeric_value(expr.right)
            if lit is not None:
                return expr.left, float(lit)
            lit = _numeric_value(expr.left)
            if lit is not None:
                return expr.right, float(lit)
        elif expr.op == "-":
            lit = _numeric_value(expr.right)
            if lit is not None:
                return expr.left, -float(lit)
    return expr, 0.0


def _band_width(low: Expr | None, high: Expr | None) -> float | None:
    """Width of a ``[base - c1, base + c2]`` band, if both bounds offset
    the *same* base expression (frozen dataclasses give structural ==)."""
    if low is None or high is None:
        return None
    lo_base, lo_off = _base_and_offset(low)
    hi_base, hi_off = _base_and_offset(high)
    if lo_base == hi_base:
        return hi_off - lo_off
    return None


class CardinalityEstimator:
    """Estimates selectivities and cardinalities from relation profiles.

    ``overrides`` (duck-typed: ``equi_ratio(col_a, col_b)`` and
    ``band_ratio(col, shape)`` returning a float or None) carries the
    feedback loop's learned actual/estimate ratios; when present they
    multiply the corresponding base join selectivity.
    """

    def __init__(
        self,
        profiles: list[RelationProfile] | None = None,
        overrides=None,
    ):
        self.profiles = list(profiles or [])
        self.overrides = overrides

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _profile_of(self, ref: ColumnRef) -> RelationProfile | None:
        if ref.qualifier is not None:
            lowered = ref.qualifier.lower()
            for profile in self.profiles:
                if profile.alias == lowered:
                    return profile
            return None
        matches = [
            p for p in self.profiles if ref.name.lower() in p.columns
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def column_key(self, ref: Expr) -> str | None:
        """``"table.column"`` for a base-table column ref, else None.

        The stable identity learned overrides key on: alias-independent,
        so ``g.zoneid = z.zoneid`` and ``gal.zoneid = zn.zoneid`` hit
        the same correction.
        """
        if not isinstance(ref, ColumnRef):
            return None
        profile = self._profile_of(ref)
        if profile is None or profile.table is None:
            return None
        return f"{profile.table}.{ref.name.lower()}"

    def column_stats(self, ref: ColumnRef) -> ColumnStats | None:
        profile = self._profile_of(ref)
        if profile is None or profile.stats is None:
            return None
        return profile.stats.column(ref.name)

    def ndv(self, ref: ColumnRef) -> float | None:
        """Distinct-count estimate for a column, stats or schema based."""
        stats = self.column_stats(ref)
        if stats is not None and stats.ndv > 0:
            return float(stats.ndv)
        profile = self._profile_of(ref)
        if profile is None:
            return None
        if (
            profile.primary_key is not None
            and profile.primary_key.lower() == ref.name.lower()
        ):
            return max(profile.table_rows, 1.0)
        if profile.table_rows > 0:
            # unknown column: assume distinct values grow as sqrt(rows)
            return max(math.sqrt(profile.table_rows), 1.0)
        return None

    # ------------------------------------------------------------------
    # predicate selectivity
    # ------------------------------------------------------------------
    def selectivity(self, expr: Expr | None) -> float:
        if expr is None:
            return 1.0
        sel = self._selectivity(expr)
        return float(min(max(sel, 0.0), 1.0))

    def _selectivity(self, expr: Expr) -> float:
        if isinstance(expr, BinaryOp):
            op = expr.op.upper() if expr.op.isalpha() else expr.op
            if op == "AND":
                return self._selectivity(expr.left) * self._selectivity(expr.right)
            if op == "OR":
                left = self._selectivity(expr.left)
                right = self._selectivity(expr.right)
                return left + right - left * right
            if op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison(op, expr.left, expr.right)
            return DEFAULT_OTHER_SELECTIVITY
        if isinstance(expr, UnaryOp) and expr.op.upper() == "NOT":
            return 1.0 - self._selectivity(expr.operand)
        if isinstance(expr, Between):
            return self._range(expr.value,
                               _numeric_value(expr.low),
                               _numeric_value(expr.high))
        if isinstance(expr, InList):
            eq = DEFAULT_EQ_SELECTIVITY
            if isinstance(expr.value, ColumnRef):
                ndv = self.ndv(expr.value)
                if ndv:
                    eq = 1.0 / ndv
            return min(1.0, eq * len(expr.options))
        if isinstance(expr, FuncCall) and expr.name.lower() == "isnull":
            if expr.args and isinstance(expr.args[0], ColumnRef):
                stats = self.column_stats(expr.args[0])
                if stats is not None:
                    return stats.null_fraction
            return DEFAULT_EQ_SELECTIVITY
        if isinstance(expr, Literal):
            if expr.value is True:
                return 1.0
            if expr.value is False:
                return 0.0
        return DEFAULT_OTHER_SELECTIVITY

    def _comparison(self, op: str, left: Expr, right: Expr) -> float:
        lref = isinstance(left, ColumnRef)
        rref = isinstance(right, ColumnRef)
        if lref and rref:
            if op == "=":
                return self.equi_selectivity(left, right)
            if op == "!=":
                return 1.0 - self.equi_selectivity(left, right)
            return DEFAULT_RANGE_SELECTIVITY
        # normalize to column <op> literal
        if rref and not lref:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return self._comparison(flipped, right, left)
        if not lref:
            return (DEFAULT_EQ_SELECTIVITY if op in ("=", "!=")
                    else DEFAULT_RANGE_SELECTIVITY)
        value = _numeric_value(right)
        if value is None:
            return (DEFAULT_EQ_SELECTIVITY if op in ("=", "!=")
                    else DEFAULT_RANGE_SELECTIVITY)
        if op == "=":
            return self._equality(left, value)
        if op == "!=":
            return 1.0 - self._equality(left, value)
        if op in ("<", "<="):
            return self._range(left, None, value)
        return self._range(left, value, None)

    def _equality(self, ref: ColumnRef, value) -> float:
        stats = self.column_stats(ref)
        if stats is not None:
            if stats.ndv <= 0:
                return 0.0
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if (
                    isinstance(stats.min_value, (int, float))
                    and isinstance(stats.max_value, (int, float))
                    and (value < stats.min_value or value > stats.max_value)
                ):
                    return 0.0
            return 1.0 / stats.ndv
        ndv = self.ndv(ref)
        if ndv:
            return 1.0 / ndv
        return DEFAULT_EQ_SELECTIVITY

    def _range(self, value_expr: Expr, lo, hi) -> float:
        if not isinstance(value_expr, ColumnRef) or (lo is None and hi is None):
            return DEFAULT_RANGE_SELECTIVITY
        stats = self.column_stats(value_expr)
        if stats is None:
            return DEFAULT_RANGE_SELECTIVITY
        if stats.histogram is not None:
            return stats.histogram.fraction_between(lo, hi)
        if (
            isinstance(stats.min_value, (int, float))
            and isinstance(stats.max_value, (int, float))
            and stats.max_value > stats.min_value
        ):
            low = stats.min_value if lo is None else max(lo, stats.min_value)
            high = stats.max_value if hi is None else min(hi, stats.max_value)
            width = stats.max_value - stats.min_value
            return max(0.0, (high - low) / width)
        # constant column: either everything or nothing matches
        if stats.min_value is not None and isinstance(stats.min_value, (int, float)):
            inside = ((lo is None or lo <= stats.min_value)
                      and (hi is None or stats.min_value <= hi))
            return 1.0 if inside else 0.0
        return DEFAULT_RANGE_SELECTIVITY

    def band_selectivity(
        self, key: Expr, low: Expr | None, high: Expr | None
    ) -> float:
        """Fraction of one side's rows a band ``low <= key <= high``
        admits per probe.  Literal bounds go through the histogram
        machinery; a structural ``base ± c`` band is priced as its width
        over the key column's value range; otherwise 1/3.  A learned
        override for this key + bound shape scales the base estimate."""
        lo = _numeric_value(low) if low is not None else None
        hi = _numeric_value(high) if high is not None else None
        if (low is None or lo is not None) and (high is None or hi is not None):
            return self._apply_band_override(key, low, high,
                                             self._range(key, lo, hi))
        width = _band_width(low, high)
        base = DEFAULT_RANGE_SELECTIVITY
        if width is not None and isinstance(key, ColumnRef):
            stats = self.column_stats(key)
            if (
                stats is not None
                and isinstance(stats.min_value, (int, float))
                and isinstance(stats.max_value, (int, float))
                and stats.max_value > stats.min_value
            ):
                span = stats.max_value - stats.min_value
                base = float(min(max(width, 0.0) / span, 1.0))
        return self._apply_band_override(key, low, high, base)

    def _apply_band_override(
        self, key: Expr, low: Expr | None, high: Expr | None, base: float
    ) -> float:
        if self.overrides is None:
            return base
        shape = (repr(low) if low is not None else "",
                 repr(high) if high is not None else "")
        ratio = self.overrides.band_ratio(self.column_key(key), shape)
        if ratio is None:
            return base
        return float(min(max(base * ratio, 1e-12), 1.0))

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def equi_selectivity(self, left: Expr, right: Expr) -> float:
        """Containment assumption: |join| ~= |L||R| / max(NDV_l, NDV_r).

        A learned override for this column pair (either order) scales
        the containment estimate by the observed actual/estimate ratio.
        """
        ndvs = []
        for side in (left, right):
            if isinstance(side, ColumnRef):
                ndv = self.ndv(side)
                if ndv:
                    ndvs.append(ndv)
        if not ndvs:
            base = 1.0 / DEFAULT_JOIN_NDV
        else:
            base = 1.0 / max(max(ndvs), 1.0)
        if self.overrides is not None:
            ratio = self.overrides.equi_ratio(
                self.column_key(left), self.column_key(right)
            )
            if ratio is not None:
                base = float(min(max(base * ratio, 1e-12), 1.0))
        return base


# ----------------------------------------------------------------------
# the est_rows annotation pass
# ----------------------------------------------------------------------
def profile_for_table(table, alias: str) -> RelationProfile:
    return RelationProfile(
        alias=alias.lower(),
        table_rows=float(table.row_count),
        stats=getattr(table, "stats", None),
        columns={c.lower() for c in table.schema.column_names},
        primary_key=table.schema.primary_key,
        pages=float(table.page_count),
        table=table.name.lower(),
    )


def _index_range_rows(node: IndexRangeScan,
                      estimator: CardinalityEstimator) -> float:
    table = node.index.table
    if isinstance(node.index, PrimaryKeyIndex):
        # a key value names at most one row
        return float(min(1, table.row_count))
    ref = ColumnRef(node.index.leading_key, node.alias)
    lo = node.lo if isinstance(node.lo, (int, float)) else None
    hi = node.hi if isinstance(node.hi, (int, float)) else None
    if lo is not None and lo == hi:
        # a point on the key: priced as the Filter prices ``key = v``,
        # not as a zero-width range
        fraction = estimator._equality(ref, lo)
    else:
        fraction = estimator._range(ref, lo, hi)
    return float(table.row_count) * fraction


def _beyond_scan(predicate: Expr, child: PlanNode) -> Expr | None:
    """``predicate`` less the conjuncts a clustered range scan below it
    already applied.  A strict bound (``key < 50``) stays as a Filter
    over the scan's closed range, but drops only the rows equal to its
    literal; estimating it again would count its selectivity twice."""
    if not isinstance(child, IndexRangeScan) \
            or isinstance(child.index, PrimaryKeyIndex):
        return predicate
    key = child.index.leading_key
    conjuncts = split_conjuncts(predicate)
    rest = [
        conjunct for conjunct in conjuncts
        if (range_bounds(conjunct, key, open_ended=True) or ())[:2]
        != (child.lo, child.hi)
    ]
    if len(rest) == len(conjuncts):
        return predicate
    return and_(*rest) if rest else None


def _qualified(expr: Expr, profiles: list[RelationProfile]) -> Expr:
    """A bare column ref qualified by the one profile holding it."""
    if isinstance(expr, ColumnRef) and expr.qualifier is None:
        owners = [p.alias for p in profiles if expr.name.lower() in p.columns]
        if len(owners) == 1:
            return ColumnRef(expr.name, owners[0])
    return expr


def annotate_plan(plan: PlanNode, overrides=None) -> float:
    """Stamp ``est_rows`` on every node of a physical plan; returns the
    root estimate.  Works on any plan — cost-based or syntactic — so
    q-error reporting is available under both optimizers.  ``overrides``
    carries the feedback loop's learned selectivity ratios (None when
    feedback is off)."""
    est, _ = _annotate(plan, overrides)
    return est


def _annotate(
    node: PlanNode, overrides=None
) -> tuple[float, list[RelationProfile]]:
    est, profiles = _estimate(node, overrides)
    node.est_rows = float(max(est, 0.0))
    return node.est_rows, profiles


def _estimate(
    node: PlanNode, overrides=None
) -> tuple[float, list[RelationProfile]]:
    if isinstance(node, SeqScan):
        profile = profile_for_table(node.table, node.alias)
        return profile.table_rows, [profile]
    if isinstance(node, IndexRangeScan):
        profile = profile_for_table(node.index.table, node.alias)
        estimator = CardinalityEstimator([profile], overrides)
        return _index_range_rows(node, estimator), [profile]
    if isinstance(node, SubqueryScan):
        child_est, _ = _annotate(node.child, overrides)
        profile = RelationProfile(alias=node.alias.lower(),
                                  table_rows=child_est)
        return child_est, [profile]
    if isinstance(node, TableFunctionScan):
        profile = RelationProfile(alias=node.alias.lower(),
                                  table_rows=DEFAULT_TVF_ROWS)
        return DEFAULT_TVF_ROWS, [profile]
    if isinstance(node, Materialized):
        return float(batch_length(node.batch)), []
    if isinstance(node, Filter):
        child_est, profiles = _annotate(node.child, overrides)
        sel = CardinalityEstimator(profiles, overrides).selectivity(
            _beyond_scan(node.predicate, node.child)
        )
        return child_est * sel, profiles
    if isinstance(node, HashJoin):
        left_est, left_profiles = _annotate(node.left, overrides)
        right_est, right_profiles = _annotate(node.right, overrides)
        profiles = left_profiles + right_profiles
        estimator = CardinalityEstimator(profiles, overrides)
        sel = estimator.equi_selectivity(node.left_key, node.right_key)
        sel *= estimator.selectivity(node.residual)
        est = left_est * right_est * sel
        if node.outer:
            est = max(est, left_est)
        return est, profiles
    if isinstance(node, BandJoin):
        left_est, left_profiles = _annotate(node.left, overrides)
        right_est, right_profiles = _annotate(node.right, overrides)
        profiles = left_profiles + right_profiles
        estimator = CardinalityEstimator(profiles, overrides)
        sel = estimator.band_selectivity(node.right_key, node.low, node.high)
        sel *= estimator.selectivity(node.residual)
        return left_est * right_est * sel, profiles
    if isinstance(node, SemiJoin):
        outer_est, profiles = _annotate(node.outer, overrides)
        inner_est, inner_profiles = _annotate(node.inner, overrides)
        if node.kind == "mark":
            return outer_est, profiles
        # the chance an outer row finds one of the inner rows: each
        # inner row matches it with the equi-join selectivity of the
        # keys, read through the inner root's projection and resolved
        # on their own side (``k IN (SELECT k ...)`` names both ``k``)
        estimator = CardinalityEstimator(profiles + inner_profiles, overrides)
        defined = dict(node.inner.outputs) \
            if isinstance(node.inner, Project) else {}
        sel = 1.0
        for outer, inner in zip(node.outer_keys, node.inner_keys):
            if isinstance(inner, ColumnRef):
                inner = defined.get(inner.name, inner)
            sel *= estimator.equi_selectivity(
                _qualified(outer, profiles), _qualified(inner, inner_profiles)
            )
        semi = outer_est * min(1.0, inner_est * sel)
        return (semi if node.kind == "semi" else outer_est - semi), profiles
    if isinstance(node, (NestedLoopJoin, CrossJoin)):
        left_est, left_profiles = _annotate(node.left, overrides)
        right_est, right_profiles = _annotate(node.right, overrides)
        profiles = left_profiles + right_profiles
        predicate = getattr(node, "predicate", None)
        sel = CardinalityEstimator(profiles, overrides).selectivity(predicate)
        return left_est * right_est * sel, profiles
    if isinstance(node, Aggregate):
        child_est, profiles = _annotate(node.child, overrides)
        if not node.group_by:
            return 1.0, profiles
        estimator = CardinalityEstimator(profiles, overrides)
        groups = 1.0
        for _, key in node.group_by:
            if isinstance(key, ColumnRef):
                ndv = estimator.ndv(key)
                groups *= ndv if ndv else DEFAULT_JOIN_NDV
            else:
                groups *= DEFAULT_JOIN_NDV
        return min(child_est, groups), profiles
    if isinstance(node, Limit):
        child_est, profiles = _annotate(node.child, overrides)
        return min(child_est, float(node.limit)), profiles
    if isinstance(node, (Project, ProjectPassthrough, Sort, Distinct)):
        child_est, profiles = _annotate(node.child, overrides)
        return child_est, profiles
    # unknown node type: annotate children generically, passthrough est
    children = node._children()
    est = 1.0
    profiles: list[RelationProfile] = []
    for child in children:
        child_est, child_profiles = _annotate(child, overrides)
        est = child_est
        profiles.extend(child_profiles)
    return est, profiles
