"""Grouped and scalar aggregation (GROUP BY / aggregate functions).

Supports COUNT(*), COUNT(expr), SUM, MIN, MAX and AVG — the set the
paper's SQL uses (``COUNT(*) ... GROUP BY c.zid``, ``MAX(k.radius)``,
``MIN(chisq)``, ...).  Without a GROUP BY clause the result is a single
scalar row, as in SQL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _drop_nulls(values: np.ndarray) -> np.ndarray:
    """SQL NULL semantics: NaN values are absent for COUNT purposes."""
    if values.dtype.kind == "f":
        return values[~np.isnan(values)]
    return values


def _checked_integer_sum(values: np.ndarray):
    """``SUM`` over integers, failing where numpy would wrap, as T-SQL
    does.  When ``size * max(|min|, |max|)`` fits the result dtype no
    partial sum can leave it; otherwise the exact sum decides."""
    total = values.sum()
    info = np.iinfo(total.dtype)
    if max(-int(values.min()), int(values.max())) * values.size > info.max:
        if not info.min <= sum(values.tolist()) <= info.max:
            raise SqlPlanError(
                f"arithmetic overflow: integer SUM outside {total.dtype}"
            )
    return total


def _reduce(func: str, values: np.ndarray):
    if func == "count":
        # COUNT(expr) skips NULLs; COUNT(*) reaches here with an
        # all-ones surrogate and is unaffected
        return int(_drop_nulls(values).size)
    if func == "count_distinct":
        return int(np.unique(_drop_nulls(values)).size)
    if values.size == 0:
        # SQL semantics: other aggregates over empty inputs yield NULL
        return np.nan
    if func == "sum":
        if values.dtype.kind in "iu":
            return _checked_integer_sum(values)
        return values.sum()
    if func == "min":
        return values.min()
    if func == "max":
        return values.max()
    if func == "avg":
        return float(values.mean())
    raise SqlPlanError(f"unknown aggregate '{func}'")


def _grouped_dtype(func: str, values: np.ndarray):
    """Result dtype of one grouped aggregate: counts are int64, integer
    SUM / MIN / MAX answer as their scalar form does (a group is never
    empty, so it never needs a NaN), everything else float64."""
    if func in ("count", "count_distinct"):
        return np.int64
    if func in ("sum", "min", "max") and values.dtype.kind in "iu":
        return (values[:0].sum() if func == "sum" else values).dtype
    return np.float64


@dataclass
class Aggregate(PlanNode):
    """Hash aggregation over optional group keys."""

    child: PlanNode
    group_by: list[tuple[str, Expr]]  # output name, key expression
    aggregates: list[AggregateSpec]

    def _execute(self) -> Batch:
        batch = self.child.execute()
        n = batch_length(batch)

        agg_values: list[np.ndarray] = []
        for spec in self.aggregates:
            if spec.argument is None:
                agg_values.append(np.ones(n))
            else:
                agg_values.append(np.asarray(spec.argument.eval(batch)))

        if not self.group_by:
            out: Batch = {}
            for spec, values in zip(self.aggregates, agg_values):
                out[spec.name.lower()] = np.asarray([_reduce(spec.func.lower(), values)])
            return out

        key_arrays = [np.asarray(expr.eval(batch)) for _, expr in self.group_by]
        if n == 0:
            # each key keeps its own dtype, as a non-empty grouping does
            out = {
                name.lower(): key[:0]
                for (name, _), key in zip(self.group_by, key_arrays)
            }
            for spec, values in zip(self.aggregates, agg_values):
                out[spec.name.lower()] = np.empty(
                    0, dtype=_grouped_dtype(spec.func.lower(), values)
                )
            return out

        # Group via sorted composite keys: stable and fully vectorized
        # for the single-key case that dominates the workload.
        if len(key_arrays) == 1:
            keys = key_arrays[0]
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            boundaries = np.flatnonzero(
                np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
            )
            group_of_sorted = np.cumsum(
                np.concatenate([[0], (sorted_keys[1:] != sorted_keys[:-1]).astype(int)])
            )
            uniques = [sorted_keys[boundaries]]
            group_ids = np.empty(n, dtype=np.int64)
            group_ids[order] = group_of_sorted
            n_groups = boundaries.size
        else:
            composite = np.empty(n, dtype=object)
            rows = list(zip(*[k.tolist() for k in key_arrays]))
            for row, values in enumerate(rows):
                composite[row] = values
            unique_vals, group_ids = np.unique(composite, return_inverse=True)
            n_groups = unique_vals.size
            uniques = [
                np.asarray([v[i] for v in unique_vals.tolist()])
                for i in range(len(key_arrays))
            ]

        out = {}
        for (name, _), values in zip(self.group_by, uniques):
            out[name.lower()] = values
        by_group = None  # row order grouping the rows, built on demand
        for spec, values in zip(self.aggregates, agg_values):
            func = spec.func.lower()
            if func == "count":
                # every group in one pass; COUNT(expr) skips NULLs
                counted = group_ids
                if spec.argument is not None and values.dtype.kind == "f":
                    counted = group_ids[~np.isnan(values)]
                out[spec.name.lower()] = np.bincount(
                    counted, minlength=n_groups
                ).astype(np.int64)
                continue
            if by_group is None:
                by_group = np.argsort(group_ids, kind="stable")
                sorted_groups = group_ids[by_group]
                groups = np.arange(n_groups)
                starts = np.searchsorted(sorted_groups, groups, side="left")
                stops = np.searchsorted(sorted_groups, groups, side="right")
            result = np.empty(n_groups, dtype=_grouped_dtype(func, values))
            sorted_vals = values[by_group]
            for g in range(n_groups):
                result[g] = _reduce(func, sorted_vals[starts[g]:stops[g]])
            out[spec.name.lower()] = result
        return out

    def _describe(self) -> str:
        keys = ", ".join(name for name, _ in self.group_by) or "<scalar>"
        aggs = ", ".join(f"{s.func}->{s.name}" for s in self.aggregates)
        return f"Aggregate(group by {keys}; {aggs})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.child,)
