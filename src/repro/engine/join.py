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

The three pair-producing joins share one pair path,
:func:`join_pairs`.  Each describes its candidates as a ``(start,
count)`` range per probe row into an ordered build side (the band's
sorted keys, the hash join's sorted codes, the nested loop's whole
right side); the path expands them in blocks of at most
:data:`PAIR_BUDGET` pairs, so a block's temporaries stay in cache (the
cache-resident vectors of MonetDB/X100), runs the residual over only
the columns it reads, and hands back the surviving row ids for the join
to merge its output columns once.

Join outputs are *canonically ordered*: pairs appear sorted by
(left row, right row), exactly the order a naive nested loop emits.
Every operator here preserves that invariant no matter which side it
builds on, how it bins, or how many rows each block holds — which is
what lets the differential tests demand byte-identical batches
across physical plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine import keys
from repro.engine.compile import plan_kernel
from repro.engine.expressions import (
    Batch,
    Expr,
    batch_length,
    resolve_key,
)
from repro.engine.operators import PlanNode, take
from repro.errors import SqlPlanError

#: Candidate pairs one block of the pair path expands at most.  About
#: 8k pairs keep a block's gathered columns and the residual's
#: temporaries cache-resident; a probe row whose own range is larger
#: makes a block alone.
PAIR_BUDGET = 8192


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


def _sort_order(values: np.ndarray, n_finite: int) -> np.ndarray | None:
    """The stable argsort of ``values``, or None when it is the identity.

    ``values`` is already in order when its first ``n_finite`` entries
    are non-decreasing and any NaNs trail them — a clustered table's
    scan.  The O(n) check spares the sort, and band pairs drawn from
    identity order come out canonical with no sort at all.
    """
    head, tail = values[:n_finite], values[n_finite:]
    if (tail.size == 0 or bool(np.isnan(tail).all())) \
            and bool(np.all(head[1:] >= head[:-1])):
        return None
    return np.argsort(values, kind="stable")


def expand_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``starts[i] : starts[i] + counts[i]`` concatenated,
    without a loop: for each position, the range ``i`` it belongs to
    and the index it holds."""
    owner = np.repeat(np.arange(counts.size), counts)
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return owner, offsets + np.arange(owner.size)


def pair_blocks(
    counts: np.ndarray, block_rows: int = 0
) -> Iterator[tuple[int, int]]:
    """Consecutive probe-row slices ``[start, stop)`` whose candidate
    ``counts`` sum to at most :data:`PAIR_BUDGET` (a lone row may
    exceed it), of at most ``block_rows`` rows when that is set."""
    ends = np.cumsum(counts)
    start = 0
    while start < counts.size:
        done = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, done + PAIR_BUDGET, side="right"))
        stop = max(stop, start + 1)
        if block_rows:
            stop = min(stop, start + block_rows)
        yield start, stop
        start = stop


def join_pairs(
    node: PlanNode,
    residual: Expr | None,
    lbatch: Batch,
    rbatch: Batch,
    starts: np.ndarray,
    counts: np.ndarray,
    probe_rows: np.ndarray | None = None,
    build_rows: np.ndarray | None = None,
    probe_is_left: bool = True,
    block_rows: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The pair path of every join: the (left row, right row) pairs
    that pass ``residual``, probe-major.

    Probe ``i`` is batch row ``probe_rows[i]`` and its candidates are
    the positions ``starts[i] : starts[i] + counts[i]`` of the ordered
    build side, whose position ``p`` is batch row ``build_rows[p]``
    (None means the identity for either).  With a residual the
    candidates expand in the blocks of :func:`pair_blocks`; each block
    gathers only the residual's columns, runs the node's fused kernel
    (or the interpreted walk when kernels are off) and keeps the
    surviving row ids, so the caller merges its output columns once,
    for survivors only.  A block without candidates evaluates nothing.
    """
    if residual is None:
        blocks: Iterator[tuple[int, int]] = iter([(0, counts.size)])
    else:
        blocks = pair_blocks(counts, block_rows)
    kernel = (
        plan_kernel(node, residual)
        if node.compiled and residual is not None
        else None
    )
    needed: list[str] | None = None
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    for start, stop in blocks:
        at, pos = expand_ranges(starts[start:stop], counts[start:stop])
        if at.size == 0:
            continue
        at += start
        probe = at if probe_rows is None else probe_rows[at]
        build = pos if build_rows is None else build_rows[pos]
        left, right = (probe, build) if probe_is_left else (build, probe)
        if residual is not None:
            if needed is None:
                combined: Batch = {**lbatch, **rbatch}
                needed = sorted({
                    resolve_key(combined, ref.name, ref.qualifier)
                    for ref in residual.column_refs()
                })
            pairs = {
                key: (_as_array(lbatch[key])[left] if key in lbatch
                      else _as_array(rbatch[key])[right])
                for key in needed
            } or {"__pairs": np.zeros(left.size)}
            if kernel is not None:
                keep = kernel.select(pairs, left.size)
            else:
                keep = np.asarray(residual.eval(pairs), dtype=bool)
            left, right = left[keep], right[keep]
        lefts.append(left)
        rights.append(right)
    if not lefts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(lefts), np.concatenate(rights)


def _describe_residual(node: PlanNode, txt: str, residual: Expr | None) -> str:
    if node.compiled and residual is not None:
        txt += f"  {plan_kernel(node, residual).describe()}"
    return txt


@dataclass
class HashJoin(PlanNode):
    """Equi-join: sort the smaller input's key codes, probe the other.

    Both sides' keys are coded by :func:`repro.engine.keys.match`, so
    the join answers the engine's ``=`` and a NULL key matches nothing.
    The build side's codes are sorted once and each probe row's
    candidates are the equal range ``searchsorted`` finds, run through
    :func:`join_pairs` with the residual.  The build side is picked by
    the optimizer's ``est_rows`` stamped on each input (falling back to
    the actual batch lengths when the plan was never annotated):
    sorting a 1000-row dimension instead of a million-row fact.  Output
    order is canonical (left row, right row) regardless of which side
    built, and output columns are merged for surviving pairs only.

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
        left, right = keys.match([lkeys], [rkeys])
        probe_is_left = self._build_on_right(lkeys.shape[0], rkeys.shape[0])
        (probe_rows, probe), (build_rows, build) = \
            (left, right) if probe_is_left else (right, left)

        # the build side sorted by code; each probe's matches are the
        # equal range, in build row order since the sort is stable
        by_code = np.argsort(build, kind="stable")
        build = build[by_code]
        starts = np.searchsorted(build, probe, side="left")
        counts = np.searchsorted(build, probe, side="right") - starts
        left_rows, right_rows = join_pairs(
            self, self.residual, lbatch, rbatch, starts, counts,
            probe_rows, build_rows[by_code], probe_is_left,
        )
        if not probe_is_left:
            # probed from the right: pairs arrived right-major; restore
            # the canonical (left row, right row) order
            perm = np.lexsort((right_rows, left_rows))
            left_rows, right_rows = left_rows[perm], right_rows[perm]
        joined = merge_batches(lbatch, left_rows, rbatch, right_rows)

        if not self.outer:
            return joined

        matched = np.zeros(batch_length(lbatch), dtype=bool)
        matched[left_rows] = True
        missing = np.flatnonzero(~matched)
        if missing.size == 0:
            return joined
        out: Batch = {}
        for key, arr in lbatch.items():
            out[key] = np.concatenate([joined[key], _as_array(arr)[missing]])
        for key, arr in rbatch.items():
            part = joined[key]
            if _as_array(arr).dtype.kind in ("i", "u", "b", "f"):
                pad = np.full(missing.size, np.nan)
                part = part.astype(np.float64, copy=False)
            else:
                pad = np.full(missing.size, None, dtype=object)
            out[key] = np.concatenate([part, pad])
        return out

    def _describe(self) -> str:
        txt = "HashJoin(" + ("LEFT, " if self.outer else "")
        txt += f"{self.left_key} = {self.right_key}"
        if self.residual is not None:
            txt += f", residual {self.residual}"
        return _describe_residual(self, txt + ")", self.residual)

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
    The slices are the candidates :func:`join_pairs` runs the remaining
    theta conjuncts (``residual``) over, block by block; the output
    batch is merged for final pairs alone.

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

    ``block_rows`` (0: no cap) caps the left rows of one block.
    """

    left: PlanNode
    right: PlanNode
    right_key: Expr
    low: Expr | None = None
    high: Expr | None = None
    low_strict: bool = False
    high_strict: bool = False
    residual: Expr | None = None
    block_rows: int = 0

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

        starts = np.zeros(n_left, dtype=np.int64)
        counts = np.full(n_left, n_finite, dtype=np.int64)  # stops, first
        nan_bounds = []
        for bound, side, out in (
            (self.low, "right" if self.low_strict else "left", starts),
            (self.high, "left" if self.high_strict else "right", counts),
        ):
            if bound is None:
                continue
            values = _as_array(bound.eval(lbatch))
            found = np.searchsorted(sorted_keys, values, side=side)
            np.minimum(found, n_finite, out=out)
            if values.dtype.kind == "f":
                nan_bounds.append(np.isnan(values))
        np.subtract(counts, starts, out=counts)
        np.maximum(counts, 0, out=counts)
        for nan_rows in nan_bounds:
            counts[nan_rows] = 0

        left_rows, right_rows = join_pairs(
            self, self.residual, lbatch, rbatch, starts, counts,
            build_rows=order, block_rows=self.block_rows,
        )
        if order is not None and right_rows.size:
            # canonical order: per left row, right rows by original
            # position (the sorted slice visited them in key order);
            # left rows are already ascending, so one stable sort on
            # the combined key restores it for the survivors alone
            perm = np.argsort(left_rows * n_right + right_rows, kind="stable")
            right_rows = right_rows[perm]
        return merge_batches(lbatch, left_rows, rbatch, right_rows)

    def _describe(self) -> str:
        lb = "(" if self.low_strict else "["
        rb = ")" if self.high_strict else "]"
        lo = str(self.low) if self.low is not None else "-inf"
        hi = str(self.high) if self.high is not None else "+inf"
        txt = f"BandJoin({self.right_key} in {lb}{lo}, {hi}{rb}"
        if self.residual is not None:
            txt += f", residual {self.residual}"
        return _describe_residual(self, txt + ")", self.residual)

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass
class NestedLoopJoin(PlanNode):
    """Inner join on an arbitrary predicate.

    Every left row's candidates are the whole right side, run through
    :func:`join_pairs` with the predicate as the residual.  Quadratic,
    as nested loops are — the planner only uses it when neither an
    equi key nor a band bound exists.  ``block_rows`` (0: no cap) caps
    the left rows of one block.
    """

    left: PlanNode
    right: PlanNode
    predicate: Expr | None
    block_rows: int = 0

    def _execute(self) -> Batch:
        lbatch = self.left.execute()
        rbatch = self.right.execute()
        n_left = batch_length(lbatch)
        left_rows, right_rows = join_pairs(
            self, self.predicate, lbatch, rbatch,
            np.zeros(n_left, dtype=np.int64),
            np.full(n_left, batch_length(rbatch), dtype=np.int64),
            block_rows=self.block_rows,
        )
        return merge_batches(lbatch, left_rows, rbatch, right_rows)

    def _describe(self) -> str:
        txt = f"NestedLoopJoin({self.predicate})"
        return _describe_residual(self, txt, self.predicate)

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
    matches when the inner input is non-empty.  Both sides' keys are
    coded by :func:`repro.engine.keys.match`; the inner codes are
    deduplicated once per execution and probed with ``np.isin``, so no
    Python loop runs per row or per distinct key.  A NULL key never
    matches, on either side, and a string never equals a number.
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
        (rows, probe), (_, build) = keys.match(outer_cols, inner_cols)
        found = np.zeros(n, dtype=bool)
        found[rows] = np.isin(probe, np.unique(build))
        return found

    def _describe(self) -> str:
        kind = f"mark AS {self.mark}" if self.kind == "mark" else self.kind
        keys = " AND ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"SemiJoin({kind}, {keys or 'inner non-empty'})"

    def _children(self) -> tuple[PlanNode, ...]:
        return (self.outer, self.inner)
