"""Grouped and scalar aggregation (GROUP BY / aggregate functions).

Supports COUNT(*), COUNT(expr), COUNT(DISTINCT expr), SUM, MIN, MAX
and AVG — the set the paper's SQL uses (``COUNT(*) ... GROUP BY
c.zid``, ``MAX(k.radius)``, ``MIN(chisq)``, ...).

Rows are grouped by :func:`repro.engine.keys.group`, one stable sort by
key, and every aggregate reduces its argument in that order, one
segment per group: COUNT from the segment lengths, MIN, MAX and integer
SUM by ``reduceat``, strings through their sorted codes.  Float SUM and
AVG sum each segment with ``ndarray.sum`` / ``ndarray.mean``, whose
pairwise order ``np.add.reduceat`` does not keep.  Without a GROUP BY
clause the whole input is one group and the result one row, as in SQL;
over no rows that row holds 0 for a count and NULL for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import keys
from repro.engine.expressions import Batch, Expr, batch_length
from repro.engine.operators import PlanNode
from repro.errors import SqlPlanError

AGGREGATE_NAMES = ("count", "count_distinct", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One output aggregate: ``name <- func(argument)``.

    ``argument is None`` encodes ``COUNT(*)``.
    """

    func: str
    argument: Expr | None
    name: str

    def __post_init__(self) -> None:
        if self.func.lower() not in AGGREGATE_NAMES:
            raise SqlPlanError(f"unknown aggregate function '{self.func}'")
        if self.argument is None and self.func.lower() != "count":
            raise SqlPlanError(f"{self.func}(*) is not valid; only COUNT(*)")


def _checked_integer_sum(values: np.ndarray, starts: np.ndarray,
                         lengths: np.ndarray) -> np.ndarray:
    """``SUM`` over integers per segment, failing where numpy would
    wrap, as T-SQL does.  Where a segment's ``size * max(|min|, |max|)``
    fits the result dtype no partial sum can leave it; otherwise the
    segment's exact Python-int sum decides."""
    values = values.astype(values[:0].sum().dtype, copy=False)
    totals = np.add.reduceat(values, starts)
    info = np.iinfo(totals.dtype)
    reach = np.maximum.reduceat(np.abs(values.astype(np.float64)), starts)
    reach *= lengths
    # flagging from half the bound on covers the float rounding
    risky = reach > info.max / 2
    for start, length in zip(starts[risky], lengths[risky]):
        exact = sum(values[start:start + length].tolist())
        if not info.min <= exact <= info.max:
            raise SqlPlanError(
                f"arithmetic overflow: integer SUM outside {totals.dtype}"
            )
    return totals


def _string_extreme(func: str, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """MIN / MAX of strings per segment through their sorted codes,
    skipping NULL: an all-NULL segment answers None."""
    codes = keys.codes(values)
    null = keys.nulls(values)
    if func == "max" and null is not None:
        codes = np.where(null, -1, codes)
    best = (np.minimum if func == "min" else np.maximum).reduceat(codes, starts)
    # code -> its string; the NULL code and -1 stay None
    spelled = np.full(values.shape[0] + 1, None, dtype=object)
    valid = slice(None) if null is None else ~null
    spelled[codes[valid]] = values[valid]
    return spelled[best]


def _segments(func: str, values: np.ndarray | None, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray:
    """One aggregate over group-ordered ``values``, per segment."""
    if func == "count":
        # COUNT(*) counts rows, COUNT(expr) the non-NULL ones
        null = None if values is None else keys.nulls(values)
        if null is None or not null.any():
            return lengths
        return np.add.reduceat((~null).astype(np.int64), starts)
    if func == "count_distinct":
        segment = np.repeat(np.arange(starts.size), lengths)
        first = keys.group([segment, values]).first
        null = keys.nulls(values)
        if null is not None:
            first = first[~null[first]]
        return np.bincount(segment[first], minlength=starts.size)
    if not lengths.all():
        # a scalar aggregate over no rows is NULL
        return np.full(starts.size, np.nan)
    if func == "sum" and values.dtype.kind in "iub":
        return _checked_integer_sum(values, starts, lengths)
    if func in ("sum", "avg"):
        reduce = np.ndarray.sum if func == "sum" else np.ndarray.mean
        sums = [reduce(values[a:a + m]) for a, m in zip(starts, lengths)]
        return np.array(sums, dtype=np.float64)
    if values.dtype.kind in "OUS":
        return _string_extreme(func, values, starts)
    return (np.minimum if func == "min" else np.maximum).reduceat(values, starts)


@dataclass
class Aggregate(PlanNode):
    """Sort aggregation over optional group keys."""

    child: PlanNode
    group_by: list[tuple[str, Expr]]  # output name, key expression
    aggregates: list[AggregateSpec]

    def _execute(self) -> Batch:
        batch = self.child.execute()
        n = batch_length(batch)
        arguments = [
            None if spec.argument is None
            else np.asarray(spec.argument.eval(batch))
            for spec in self.aggregates
        ]
        out: Batch = {}
        if self.group_by:
            key_arrays = [np.asarray(expr.eval(batch)) for _, expr in self.group_by]
            order, starts, first = keys.group(key_arrays)
            for (name, _), key in zip(self.group_by, key_arrays):
                out[name.lower()] = key[first]
        else:
            order, starts = None, np.zeros(1, dtype=np.int64)
        lengths = np.diff(starts, append=n)
        for spec, values in zip(self.aggregates, arguments):
            if values is not None and order is not None:
                values = values[order]
            out[spec.name.lower()] = _segments(
                spec.func.lower(), values, starts, lengths
            )
        return out

    def _describe(self) -> str:
        names = ", ".join(name for name, _ in self.group_by) or "<scalar>"
        aggs = ", ".join(f"{s.func}->{s.name}" for s in self.aggregates)
        return f"Aggregate(group by {names}; {aggs})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)
