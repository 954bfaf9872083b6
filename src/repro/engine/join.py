"""Join operators: hash, band, nested-loop, and cross joins.

The paper's Filter step is a ``CROSS JOIN`` of each galaxy with the
1000-row Kcorr table followed by a chi² predicate, and its Section 2.6
credits "the redshift index as the JOIN attribute" for speed — i.e. an
equi-join on ``zid`` executed as a hash join.  The planner picks
:class:`HashJoin` whenever an equality conjunct connects the two sides,
:class:`BandJoin` when a range conjunct bounds one side's column by
expressions over the other (the set-oriented rewrite the original
authors used for neighbor searches: sort one side, visit only the rows
inside each probe's interval), and falls back to
:class:`NestedLoopJoin` otherwise.  An ``IN`` / ``EXISTS`` subquery is
a :class:`SemiJoin`: the outer rows filtered, or marked, by whether a
matching inner row exists.

Join outputs are *canonically ordered*: pairs appear sorted by
(left row, right row), exactly the order a naive nested loop emits.
Every operator here preserves that invariant no matter which side it
builds on, how it bins, or how many rows each block holds — which is
what lets the differential tests demand byte-identical batches
across physical plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.compile import plan_kernel
from repro.engine.expressions import (
    Batch,
    Expr,
    batch_length,
    resolve_key,
)
from repro.engine.operators import PlanNode, take
from repro.errors import SqlPlanError


def _as_array(arr) -> np.ndarray:
    """Coerce only when needed — columns are almost always ndarrays."""
    return arr if isinstance(arr, np.ndarray) else np.asarray(arr)


def merge_batches(left: Batch, left_rows, right: Batch, right_rows) -> Batch:
    """Combine row selections from two batches into one joined batch."""
    out: Batch = {}
    for key, arr in left.items():
        out[key] = _as_array(arr)[left_rows]
    for key, arr in right.items():
        if key in out:
            raise SqlPlanError(f"join would duplicate output column '{key}'")
        out[key] = _as_array(arr)[right_rows]
    return out


def _row_bytes(*batches: Batch) -> int:
    """Bytes one materialized pair row costs across the given batches."""
    total = 0
    for batch in batches:
        for arr in batch.values():
            total += _as_array(arr).itemsize
    return max(total, 1)


def _sort_order(keys: np.ndarray, n_finite: int) -> np.ndarray | None:
    """The stable argsort of ``keys``, or None when it is the identity.

    ``keys`` is already in order when its first ``n_finite`` keys are
    non-decreasing and any NaNs trail them — a clustered table's scan.
    The O(n) check spares the sort, and band pairs drawn from identity
    order come out canonical with no sort at all.
    """
    head, tail = keys[:n_finite], keys[n_finite:]
    if (tail.size == 0 or bool(np.isnan(tail).all())) \
            and bool(np.all(head[1:] >= head[:-1])):
        return None
    return np.argsort(keys, kind="stable")


@dataclass
class HashJoin(PlanNode):
    """Equi-join: build a hash table on the smaller input, probe the other.

    The build side is picked by the optimizer's ``est_rows`` stamped on
    each input (falling back to the actual batch lengths when the plan
    was never annotated) — building on a 1000-row dimension instead of
    a million-row fact is the difference between a dict that fits in
    cache and one that doesn't.  Output order is canonical
    (left row, right row) regardless of which side built.

    ``outer=True`` gives LEFT OUTER semantics: unmatched left rows are
    kept, with the right side's columns padded with NULL (NaN; integer
    right columns are widened to float for the padding).  The residual
    predicate, when present, participates in the match decision — a
    left row whose equi-matches all fail the residual is still emitted
    once with NULL right columns, per SQL's ON-clause semantics.
    """

    left: PlanNode
    right: PlanNode
    left_key: Expr
    right_key: Expr
    residual: Expr | None = None  # extra non-equi conjuncts from ON
    outer: bool = False

    def _build_on_right(self, n_left: int, n_right: int) -> bool:
        """Build the table on the smaller side (estimates, then actuals)."""
        left_est, right_est = self.left.est_rows, self.right.est_rows
        if left_est is not None and right_est is not None \
                and left_est != right_est:
            return right_est <= left_est
        return n_right <= n_left

    def _execute(self) -> Batch:
        lbatch = self.left.execute()
        rbatch = self.right.execute()
        lkeys = _as_array(self.left_key.eval(lbatch))
        rkeys = _as_array(self.right_key.eval(rbatch))

        if self._build_on_right(lkeys.shape[0], rkeys.shape[0]):
            build_keys, probe_keys, probe_is_left = rkeys, lkeys, True
        else:
            build_keys, probe_keys, probe_is_left = lkeys, rkeys, False

        buckets: dict = {}
        for row, key in enumerate(build_keys.tolist()):
            buckets.setdefault(key, []).append(row)

        probe_rows: list[int] = []
        build_rows: list[int] = []
        for row, key in enumerate(probe_keys.tolist()):
            matches = buckets.get(key)
            if matches:
                probe_rows.extend([row] * len(matches))
                build_rows.extend(matches)

        if probe_is_left:
            left_rows = np.asarray(probe_rows, dtype=np.int64)
            right_rows = np.asarray(build_rows, dtype=np.int64)
        else:
            # probed from the right: pairs arrived right-major; restore
            # the canonical (left row, right row) order
            left_rows = np.asarray(build_rows, dtype=np.int64)
            right_rows = np.asarray(probe_rows, dtype=np.int64)
            perm = np.lexsort((right_rows, left_rows))
            left_rows = left_rows[perm]
            right_rows = right_rows[perm]

        joined = merge_batches(lbatch, left_rows, rbatch, right_rows)
        if self.residual is not None and batch_length(joined):
            if self.compiled:
                survivors = plan_kernel(self, self.residual).select(joined)
                joined = take(joined, survivors)
                left_rows = left_rows[survivors]
            else:
                mask = np.asarray(self.residual.eval(joined), dtype=bool)
                joined = take(joined, mask)
                left_rows = left_rows[mask]

        if not self.outer:
            return joined

        matched = np.zeros(batch_length(lbatch), dtype=bool)
        if left_rows.size:
            matched[left_rows] = True
        missing = np.flatnonzero(~matched)
        if missing.size == 0:
            return joined
        pad: Batch = {}
        for key, arr in lbatch.items():
            pad[key] = _as_array(arr)[missing]
        n_pad = missing.size
        for key, arr in rbatch.items():
            arr = _as_array(arr)
            if arr.dtype.kind in ("i", "u", "b", "f"):
                pad[key] = np.full(n_pad, np.nan)
            else:
                pad[key] = np.full(n_pad, None, dtype=object)
        out: Batch = {}
        for key in joined:
            left_part = _as_array(joined[key])
            right_part = _as_array(pad[key])
            if left_part.dtype != right_part.dtype and right_part.dtype.kind == "f":
                left_part = left_part.astype(np.float64)
            out[key] = np.concatenate([left_part, right_part])
        return out

    def _describe(self) -> str:
        txt = "HashJoin(" + ("LEFT, " if self.outer else "")
        txt += f"{self.left_key} = {self.right_key}"
        if self.residual is not None:
            txt += f", residual {self.residual}"
        txt += ")"
        if self.compiled and self.residual is not None:
            txt += f"  {plan_kernel(self, self.residual).describe()}"
        return txt

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass
class BandJoin(PlanNode):
    """Sort-based band join: the paper-era fix for range theta-joins.

    The right side is sorted on ``right_key`` once, unless an O(n)
    check finds it already in key order (a clustered table's scan is).
    For every left row the bounds ``[low(l), high(l)]`` (expressions
    over the left batch — column arithmetic or constants) select a
    *contiguous* slice of the sorted keys by binary search, so the pair
    space shrinks from |L|·|R| to exactly the rows inside each band.
    The remaining theta conjuncts run as a vectorized ``residual``
    filter over only the band survivors — and only over the columns the
    residual references; the full output batch is materialized for
    final pairs alone.

    Semantics are *identical* to a :class:`NestedLoopJoin` over
    ``low ⋈ key ⋈ high AND residual``:

    * strict bounds (``<``/``>``) pick the open searchsorted side, so no
      boundary row is wrongly admitted;
    * NaN bounds match nothing (as every SQL comparison with NaN is
      false), and NaN key rows are never visited (they sort past the
      finite region and the search is clamped to it);
    * output pairs are canonically ordered (left row, right row): free
      when the right side was already in key order, else restored by
      one sort over the residual's survivors, not every band pair.

    Left rows run in blocks of :attr:`block_rows`, which bounds the
    pair arrays one block materializes.
    """

    #: Default left rows per block (overridable via ``block_rows``).
    DEFAULT_BLOCK_ROWS = 8192

    left: PlanNode
    right: PlanNode
    right_key: Expr
    low: Expr | None = None
    high: Expr | None = None
    low_strict: bool = False
    high_strict: bool = False
    residual: Expr | None = None
    block_rows: int = 0  # 0 = DEFAULT_BLOCK_ROWS

    def _execute(self) -> Batch:
        lbatch = self.left.execute()
        rbatch = self.right.execute()
        n_left = batch_length(lbatch)
        n_right = batch_length(rbatch)
        if n_left == 0 or n_right == 0:
            return merge_batches(
                lbatch, np.empty(0, np.int64), rbatch, np.empty(0, np.int64)
            )

        rkeys = _as_array(self.right_key.eval(rbatch))
        # NaN keys sort past every finite key; clamping the search stops
        # to the finite region guarantees they are never visited.
        n_finite = n_right
        if rkeys.dtype.kind == "f":
            n_finite = n_right - int(np.isnan(rkeys).sum())
        order = _sort_order(rkeys, n_finite)
        sorted_keys = rkeys if order is None else rkeys[order]

        lo = hi = None
        invalid = np.zeros(n_left, dtype=bool)
        if self.low is not None:
            lo = _as_array(self.low.eval(lbatch))
            if lo.dtype.kind == "f":
                invalid |= np.isnan(lo)
        if self.high is not None:
            hi = _as_array(self.high.eval(lbatch))
            if hi.dtype.kind == "f":
                invalid |= np.isnan(hi)
        any_invalid = bool(invalid.any())

        residual_keys = self._residual_keys(lbatch, rbatch)
        residual_kernel = (
            plan_kernel(self, self.residual)
            if self.compiled and self.residual is not None
            else None
        )

        def block_task(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            if lo is not None:
                starts = np.searchsorted(
                    sorted_keys, lo[start:stop],
                    side="right" if self.low_strict else "left",
                )
                starts = np.minimum(starts, n_finite)
            else:
                starts = np.zeros(stop - start, dtype=np.int64)
            if hi is not None:
                stops = np.searchsorted(
                    sorted_keys, hi[start:stop],
                    side="left" if self.high_strict else "right",
                )
                stops = np.minimum(stops, n_finite)
            else:
                stops = np.full(stop - start, n_finite, dtype=np.int64)

            counts = np.maximum(stops - starts, 0)
            if any_invalid:
                counts[invalid[start:stop]] = 0
            total = int(counts.sum())
            empty = np.empty(0, dtype=np.int64)
            if total == 0:
                return empty, empty

            l_rows = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
            # concatenate the ranges starts[i]:stops[i] without a loop
            group_first = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(
                group_first, counts
            )
            r_rows = np.repeat(starts, counts) + within
            if order is not None:
                r_rows = order[r_rows]

            if self.residual is not None:
                pair = {
                    key: (_as_array(lbatch[key])[l_rows] if side == "left"
                          else _as_array(rbatch[key])[r_rows])
                    for key, side in residual_keys
                }
                if not pair:
                    pair = {"__band": np.zeros(total)}
                if residual_kernel is not None:
                    survivors = residual_kernel.select(pair, total)
                    l_rows = l_rows[survivors]
                    r_rows = r_rows[survivors]
                else:
                    mask = np.asarray(self.residual.eval(pair), dtype=bool)
                    l_rows = l_rows[mask]
                    r_rows = r_rows[mask]
            if order is not None and r_rows.size:
                # canonical order: per left row, right rows by original
                # position (the sorted slice visited them in key order);
                # left rows are already ascending, so one stable sort on
                # the combined key restores it for the survivors alone
                perm = np.argsort(l_rows * n_right + r_rows, kind="stable")
                r_rows = r_rows[perm]
            return l_rows, r_rows

        block = self.block_rows or self.DEFAULT_BLOCK_ROWS
        parts = [
            block_task(start, min(start + block, n_left))
            for start in range(0, n_left, block)
        ]
        left_rows = np.concatenate([p[0] for p in parts])
        right_rows = np.concatenate([p[1] for p in parts])
        return merge_batches(lbatch, left_rows, rbatch, right_rows)

    def _residual_keys(
        self, lbatch: Batch, rbatch: Batch
    ) -> list[tuple[str, str]]:
        """Resolve the residual's column refs to (batch key, side) pairs
        so the residual evaluates over a projection, not the full merge."""
        if self.residual is None:
            return []
        combined: Batch = {**lbatch, **rbatch}
        resolved: dict[str, str] = {}
        for ref in self.residual.column_refs():
            key = resolve_key(combined, ref.name, ref.qualifier)
            resolved[key] = "left" if key in lbatch else "right"
        return sorted(resolved.items())

    def _describe(self) -> str:
        lb = "(" if self.low_strict else "["
        rb = ")" if self.high_strict else "]"
        lo = str(self.low) if self.low is not None else "-inf"
        hi = str(self.high) if self.high is not None else "+inf"
        txt = f"BandJoin({self.right_key} in {lb}{lo}, {hi}{rb}"
        if self.residual is not None:
            txt += f", residual {self.residual}"
        txt += ")"
        if self.compiled and self.residual is not None:
            txt += f"  {plan_kernel(self, self.residual).describe()}"
        return txt

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass
class NestedLoopJoin(PlanNode):
    """Inner join on an arbitrary predicate.

    Evaluated block-wise: for each left row block, the right side is
    broadcast and the predicate filters pairs.  Quadratic, as nested
    loops are — the planner only uses it when neither an equi key nor a
    band bound exists.

    ``block_rows=0`` (the default) sizes blocks adaptively so one
    materialized pair batch stays under :attr:`PAIR_BYTE_BUDGET` —
    a wide right side gets short blocks instead of a memory blowup.
    """

    #: Byte ceiling for one block's materialized pair batch.
    PAIR_BYTE_BUDGET = 32 << 20

    left: PlanNode
    right: PlanNode
    predicate: Expr | None
    block_rows: int = 0  # 0 = adaptive under PAIR_BYTE_BUDGET

    def _effective_block_rows(
        self, lbatch: Batch, rbatch: Batch, n_right: int
    ) -> int:
        if self.block_rows:
            return self.block_rows
        per_left_row = n_right * _row_bytes(lbatch, rbatch)
        return int(min(max(self.PAIR_BYTE_BUDGET // max(per_left_row, 1), 16),
                       65536))

    def _execute(self) -> Batch:
        lbatch = self.left.execute()
        rbatch = self.right.execute()
        n_left = batch_length(lbatch)
        n_right = batch_length(rbatch)
        if n_left == 0 or n_right == 0:
            return merge_batches(
                lbatch, np.empty(0, np.int64), rbatch, np.empty(0, np.int64)
            )

        r_index = np.arange(n_right, dtype=np.int64)
        kernel = (
            plan_kernel(self, self.predicate)
            if self.compiled and self.predicate is not None
            else None
        )

        def block_task(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            block = stop - start
            l_rows = np.repeat(np.arange(start, stop, dtype=np.int64), n_right)
            r_rows = np.tile(r_index, block)
            if self.predicate is None:
                return l_rows, r_rows
            pair_batch = merge_batches(lbatch, l_rows, rbatch, r_rows)
            if kernel is not None:
                survivors = kernel.select(pair_batch, l_rows.size)
                return l_rows[survivors], r_rows[survivors]
            mask = np.asarray(self.predicate.eval(pair_batch), dtype=bool)
            return l_rows[mask], r_rows[mask]

        block = self._effective_block_rows(lbatch, rbatch, n_right)
        parts = [
            block_task(start, min(start + block, n_left))
            for start in range(0, n_left, block)
        ]
        left_rows = np.concatenate([p[0] for p in parts])
        right_rows = np.concatenate([p[1] for p in parts])
        return merge_batches(lbatch, left_rows, rbatch, right_rows)

    def _describe(self) -> str:
        txt = f"NestedLoopJoin({self.predicate})"
        if self.compiled and self.predicate is not None:
            txt += f"  {plan_kernel(self, self.predicate).describe()}"
        return txt

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass
class CrossJoin(PlanNode):
    """Cartesian product — the paper's ``Galaxy CROSS JOIN Kcorr`` shape."""

    left: PlanNode
    right: PlanNode

    def _execute(self) -> Batch:
        return NestedLoopJoin(self.left, self.right, None).execute()

    def _describe(self) -> str:
        return "CrossJoin"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


#: dtype kinds compared as numbers (a string never equals one)
_NUMERIC_KINDS = "biuf"


def _null_keys(values: np.ndarray) -> np.ndarray:
    """Where a key is NULL — NaN, or None in a string column."""
    if values.dtype.kind == "f":
        return np.isnan(values)
    if values.dtype.kind == "O":
        return np.equal(values, None)
    return np.zeros(values.shape[0], dtype=bool)


def _key_codes(columns: list[np.ndarray]) -> np.ndarray:
    """One int64 per row, equal exactly where every column is equal:
    each column factorized, the codes combined and re-densified."""
    codes = None
    for values in columns:
        _, inverse = np.unique(values, return_inverse=True)
        if codes is None:
            codes = inverse
        else:
            _, codes = np.unique(
                codes * (int(inverse.max(initial=0)) + 1) + inverse,
                return_inverse=True,
            )
    return codes


@dataclass
class SemiJoin(PlanNode):
    """``IN`` / ``EXISTS`` as a join: does an outer row have a match
    among the inner rows?

    ``kind`` says what the operator makes of its outer input, whose row
    order it keeps: ``"semi"`` keeps the rows that match (a top-level
    ``IN`` / ``EXISTS`` conjunct), ``"anti"`` the rows that do not
    (``NOT IN`` / ``NOT EXISTS``), and ``"mark"`` keeps every row and
    appends the boolean column ``mark``, which the rest of a predicate
    reads (a subquery under OR, CASE or a nested NOT).

    A row matches when its ``outer_keys`` equal some inner row's
    ``inner_keys``; with no keys (an uncorrelated EXISTS) every row
    matches when the inner input is non-empty.  The inner keys are
    deduplicated once per execution and probed with ``np.isin``, one
    key by value, several by factorized codes combined into one int64,
    so no Python loop runs per row or per distinct key.  A NULL key
    never matches, on either side, and a string never equals a number.
    An empty outer input leaves the inner unexecuted.
    """

    outer: PlanNode
    inner: PlanNode
    outer_keys: tuple[Expr, ...]
    inner_keys: tuple[Expr, ...]
    kind: str = "semi"
    mark: str | None = None

    def _execute(self) -> Batch:
        batch = self.outer.execute()
        n = batch_length(batch)
        found = self._found(batch, n) if n else np.zeros(0, dtype=bool)
        if self.kind == "mark":
            return {**batch, self.mark: found}
        return take(batch, found if self.kind == "semi" else ~found)

    def _found(self, batch: Batch, n: int) -> np.ndarray:
        inner = self.inner.execute()
        m = batch_length(inner)
        if not self.outer_keys:
            return np.full(n, m > 0)
        outer_cols = [
            np.broadcast_to(_as_array(key.eval(batch)), (n,))
            for key in self.outer_keys
        ]
        inner_cols = [
            np.broadcast_to(_as_array(key.eval(inner)), (m,))
            for key in self.inner_keys
        ]
        found = np.zeros(n, dtype=bool)
        if any(
            (o.dtype.kind in _NUMERIC_KINDS) != (i.dtype.kind in _NUMERIC_KINDS)
            for o, i in zip(outer_cols, inner_cols)
        ):
            return found
        outer_ok = ~np.logical_or.reduce([_null_keys(c) for c in outer_cols])
        inner_ok = ~np.logical_or.reduce([_null_keys(c) for c in inner_cols])
        outer_cols = [c[outer_ok] for c in outer_cols]
        inner_cols = [c[inner_ok] for c in inner_cols]
        if len(outer_cols) == 1 and outer_cols[0].dtype.kind in _NUMERIC_KINDS:
            probe, build = outer_cols[0], inner_cols[0]
        else:
            codes = _key_codes([
                np.concatenate([o, i]) for o, i in zip(outer_cols, inner_cols)
            ])
            probe, build = np.split(codes, [len(outer_cols[0])])
        found[outer_ok] = np.isin(probe, np.unique(build))
        return found

    def _describe(self) -> str:
        kind = f"mark AS {self.mark}" if self.kind == "mark" else self.kind
        keys = " AND ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"SemiJoin({kind}, {keys or 'inner non-empty'})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.outer, self.inner)
