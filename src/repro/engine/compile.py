"""Fused expression compilation: the vectorized kernel floor.

The interpreted path walks ``Expr.eval`` node by node, materializing a
full-length temporary ndarray per node per batch.  This module lowers
expression trees into *compiled kernels* that evaluate in a single
fused pass with three optimizations.  The kernel owns no operator
semantics: every node computes through its own ``apply`` (see
:mod:`repro.engine.expressions`), the same method ``Expr.eval`` runs,
with the kernel's per-call frame as the child evaluator.  What the
kernel adds is strategy, checked byte for byte against the plain walk
(``compiled_expressions=False``):

* **Common-subexpression elimination** — structurally equal subtrees
  (the frozen dataclass nodes hash by value) are evaluated once per
  batch and shared, across the conjuncts of a predicate *and* across
  the outputs of a projection riding the same kernel (the MaxBCG
  likelihood's repeated ``g.i - k.i`` band term is the motivating
  case).

* **NaN-aware short-circuit conjunction** — a conjunctive predicate is
  split at its top-level ANDs; each later conjunct evaluates only over
  the rows surviving the earlier ones, tracked as a *selection vector*
  of row ids.  Because every expression node evaluates elementwise,
  narrowing commutes with evaluation — including SQL's NaN semantics,
  where any comparison with NaN is false — so the scattered result
  equals the full-width ``&`` of all conjuncts bit for bit.

* **Selection-vector late materialization** — ``Filter`` (and the
  fused filter+projection chain) carries the surviving row ids through
  the whole predicate and touches payload columns only once, at the
  end, for surviving rows.

* **Literals as 0-d values** — a ``Literal``, or a subtree whose leaves
  are all literals (``POWER(0.57, 2)``), evaluates to one 0-d array
  instead of an ``n``-row ``np.full``, and is broadcast only at the
  kernel's exits (``_run_predicate``, ``_run_outputs``).  Under numpy
  2's promotion a 0-d array promotes exactly as a full array does
  (float32 + 0-d float64 is float64, int32 + 0-d int64 is int64), and
  ``Expr.eval`` keeps returning ``n``-row arrays, so the interpreted
  walk stays the oracle.  A 0-d value is made only when the frame has
  rows: an all-literal subtree raises exactly where full-width
  evaluation raised, never over an empty batch or over rows a guard
  has decided.

Kernels compile once per plan node (:func:`plan_kernel`) and are
reusable across batches (CasJobs threads running one memoized plan
share its kernels; per-call state lives in a private frame).  The frame
finds shared and literal-only nodes by object id, from tables built at
compile time: a frozen node hashes its whole subtree on every call.
Column references gather through the selection vector; a node type
without an ``apply`` (``Case``) falls back to ``node.eval`` over a
narrowed batch, so the compiler never has to chase the closed type
set.

Execution tallies feed the ``engine.compile.*`` metrics by pull, the
same zero-hot-path-cost pattern the buffer pool uses.
"""

from __future__ import annotations

import numpy as np

from repro.engine.expressions import (
    ONE_ROW,
    Batch,
    Case,
    ColumnRef,
    Expr,
    Literal,
    batch_length,
    resolve_column,
    split_conjuncts,
)


# ----------------------------------------------------------------------
# execution tallies (pull-collected into the metrics registry)
# ----------------------------------------------------------------------
class _Tally:
    """Plain-int counters; snapshot-time collection costs the hot path
    nothing (the buffer-pool pattern)."""

    __slots__ = ("executions", "nodes_evaluated", "cse_hits",
                 "alloc_elements", "interp_elements", "rows_in", "rows_out")

    def __init__(self) -> None:
        self.executions = 0
        self.nodes_evaluated = 0
        self.cse_hits = 0
        self.alloc_elements = 0
        self.interp_elements = 0
        self.rows_in = 0
        self.rows_out = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


TALLY = _Tally()


def _collect_compile_metrics() -> dict[str, float]:
    return {
        "engine.compile.executions": float(TALLY.executions),
        "engine.compile.nodes_evaluated": float(TALLY.nodes_evaluated),
        "engine.compile.cse_hits": float(TALLY.cse_hits),
        "engine.compile.alloc_elements": float(TALLY.alloc_elements),
        "engine.compile.interp_elements": float(TALLY.interp_elements),
        "engine.compile.rows_in": float(TALLY.rows_in),
        "engine.compile.rows_out": float(TALLY.rows_out),
    }


def _register_compile_collector() -> None:
    from repro.obs.metrics import get_metrics

    get_metrics().add_collector(_collect_compile_metrics)


# ----------------------------------------------------------------------
# structural analysis
# ----------------------------------------------------------------------
def count_nodes(expr: Expr) -> int:
    """Total node count of a tree — one interpreted temporary each."""
    return 1 + sum(count_nodes(child) for child in expr.children())


#: The ``constants`` of a kernel without computed literal-only subtrees.
_NO_IDS: frozenset[int] = frozenset()


def _literal_only(node: Expr) -> bool:
    """Is ``node`` a function of literals alone?  A node with an
    ``apply``, or a ``Case``, computes from its children; a column
    reference, or a node type the kernel does not know, does not."""
    return (node.apply is not None or isinstance(node, Case)) and all(
        map(_literal_only, node.children())
    )


def _mark(
    node: Expr,
    classes: dict[Expr, int],
    shared: dict[int, int],
    constants: set[int],
) -> None:
    """Map the id of every occurrence of a repeated subtree to its CSE
    class, and record the ids of the maximal literal-only subtrees
    other than bare literals (the frame knows those by type)."""
    if _hashable(node) and node in classes:
        shared[id(node)] = classes[node]
    if _literal_only(node):
        if not isinstance(node, Literal):
            constants.add(id(node))
        return
    for child in node.children():
        _mark(child, classes, shared, constants)


def _hashable(node: Expr) -> bool:
    try:
        hash(node)
    except TypeError:
        return False
    return True


class _Frame:
    """Per-call evaluation state: batch, selection vector, CSE cache.

    The frame is also the child evaluator every node's ``apply``
    receives: calling it evaluates a node over the current selection,
    through the CSE cache, or over a subset of it (AND and OR narrow
    their right side to the rows the left leaves open).
    """

    __slots__ = ("batch", "n_full", "sel", "n", "cache", "shared",
                 "constants", "narrowed")

    def __init__(
        self,
        batch: Batch,
        n: int,
        shared: dict[int, int],
        constants: frozenset[int],
    ):
        self.batch = batch
        self.n_full = n
        self.sel: np.ndarray | None = None  # None = all rows survive
        self.n = n
        self.cache: dict[int, np.ndarray] = {}
        self.shared = shared
        self.constants = constants
        self.narrowed: Batch | None = None  # lazily built fallback batch

    def narrow(self, local_mask: np.ndarray, sel: np.ndarray) -> None:
        """Restrict the frame to the rows where ``local_mask`` holds.

        Cached values all have the current selection length (or are
        0-d), so each narrows with the same local mask — keeping every
        cache entry byte-identical to a fresh evaluation over the new
        selection.
        """
        self.sel = sel
        self.n = int(sel.size)
        if self.cache:
            self.cache = {
                key: value if value.ndim == 0 else value[local_mask]
                for key, value in self.cache.items()
            }
        self.narrowed = None

    def __call__(
        self, node: Expr, rows: np.ndarray | None = None
    ) -> np.ndarray:
        if rows is not None:
            return self._over(rows)(node)
        key = self.shared.get(id(node))
        if key is None:
            return self._compute(node)
        cached = self.cache.get(key)
        if cached is not None:
            TALLY.cse_hits += 1
            return cached
        value = self.cache[key] = self._compute(node)
        return value

    def _over(self, rows: np.ndarray) -> "_Frame":
        """A frame over only ``rows`` (positions in the current
        selection), its cache narrowed to match; what it computes is
        not cached back here."""
        frame = _Frame(self.batch, self.n_full, self.shared, self.constants)
        frame.sel = rows if self.sel is None else self.sel[rows]
        frame.n = int(rows.size)
        if self.cache:
            frame.cache = {
                key: value if value.ndim == 0 else value[rows]
                for key, value in self.cache.items()
            }
        return frame

    def _compute(self, node: Expr) -> np.ndarray:
        TALLY.nodes_evaluated += 1
        if self.n and (
            isinstance(node, Literal) or id(node) in self.constants
        ):
            # literal-only: one 0-d value, which promotes as the n-row
            # array would; made only when there are rows, so it raises
            # exactly where full-width evaluation raised
            TALLY.alloc_elements += 1
            value = node.value if isinstance(node, Literal) \
                else node.eval(ONE_ROW)
            return np.asarray(value).reshape(())
        TALLY.alloc_elements += self.n
        if isinstance(node, ColumnRef):
            arr = resolve_column(self.batch, node.name, node.qualifier)
            if not isinstance(arr, np.ndarray):
                arr = np.asarray(arr)
            return arr if self.sel is None else arr[self.sel]
        apply = node.apply
        if apply is not None:
            return apply(self, self.n)
        # No apply (Case): evaluate interpreted over the narrowed batch.
        return np.asarray(node.eval(self._narrowed()))

    def _narrowed(self) -> Batch:
        if self.sel is None:
            return self.batch
        if self.narrowed is None:
            sel = self.sel
            self.narrowed = {
                key: (arr if isinstance(arr, np.ndarray)
                      else np.asarray(arr))[sel]
                for key, arr in self.batch.items()
            }
        return self.narrowed


class CompiledKernel:
    """A predicate and/or projection lowered into one fused kernel.

    ``predicate`` is split into top-level conjuncts evaluated with
    selection-vector short-circuiting; ``outputs`` are projection
    columns sharing the same CSE cache (and, in the fused form, the
    same selection).  Compile once, call per batch — per-call state is
    confined to a :class:`_Frame`, so one kernel instance serves every
    thread running its plan concurrently.
    """

    def __init__(
        self,
        predicate: Expr | None = None,
        outputs: list[tuple[str, Expr]] | tuple[tuple[str, Expr], ...] = (),
    ):
        self.predicate = predicate
        #: the top-level conjuncts: the short-circuit units
        self.conjuncts = tuple(split_conjuncts(predicate))
        self.outputs = tuple((name, expr) for name, expr in outputs)
        roots = self.conjuncts + tuple(expr for _, expr in self.outputs)
        counts: dict[Expr, int] = {}
        self.n_nodes = 0
        for root in roots:
            self._count(root, counts)
        #: node object id -> its CSE class, for every occurrence of a
        #: structurally repeated subtree: the frame looks nodes up by
        #: id, since a frozen node hashes its whole subtree per call
        self.shared: dict[int, int] = {}
        constants: set[int] = set()
        classes = {node: i for i, (node, c) in enumerate(counts.items())
                   if c > 1}
        for root in roots:
            _mark(root, classes, self.shared, constants)
        #: ids of the computed literal-only subtrees (``POWER(0.57, 2)``),
        #: evaluated to 0-d values like literals; usually none, and then
        #: one empty set every such kernel shares
        self.constants = frozenset(constants) if constants else _NO_IDS
        #: evaluations saved by CSE if every occurrence were visited
        self.n_cse = sum(c - 1 for c in counts.values() if c > 1)
        #: temporaries the interpreted walk would materialize: one
        #: full-length ndarray per node, no sharing, no narrowing.
        self.n_interp_nodes = sum(count_nodes(c) for c in self.conjuncts) \
            + sum(count_nodes(expr) for _, expr in self.outputs)

    def _count(self, node: Expr, counts: dict[Expr, int]) -> None:
        self.n_nodes += 1
        if _hashable(node):
            counts[node] = counts.get(node, 0) + 1
            if counts[node] > 1:
                return  # the subtree below is shared too
        for child in node.children():
            self._count(child, counts)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """The EXPLAIN annotation for plans riding this kernel."""
        return f"[fused: {self.n_nodes} nodes, cse: {self.n_cse}]"

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def select(self, batch: Batch, n: int | None = None) -> np.ndarray:
        """Row ids (ascending int64) surviving the predicate."""
        if n is None:
            n = batch_length(batch)
        frame = _Frame(batch, n, self.shared, self.constants)
        sel = self._run_predicate(frame)
        TALLY.executions += 1
        TALLY.rows_in += n
        TALLY.rows_out += int(sel.size)
        TALLY.interp_elements += n * self.n_interp_nodes
        return sel

    def mask(self, batch: Batch, n: int | None = None) -> np.ndarray:
        """Boolean survival mask — byte-identical to interpreted eval."""
        if n is None:
            n = batch_length(batch)
        out = np.zeros(n, dtype=bool)
        out[self.select(batch, n)] = True
        return out

    def project_values(
        self, batch: Batch, n: int | None = None
    ) -> list[np.ndarray]:
        """Output values in declaration order, CSE shared across them.

        Each value has exactly ``n`` rows (row-independent expressions
        are broadcast), matching ``Project``'s interpreted contract.
        """
        if n is None:
            n = batch_length(batch)
        frame = _Frame(batch, n, self.shared, self.constants)
        TALLY.executions += 1
        TALLY.rows_in += n
        TALLY.interp_elements += n * self.n_interp_nodes
        return self._run_outputs(frame)

    def fused(self, batch: Batch, n: int | None = None) -> list[np.ndarray]:
        """Filter + project in one pass: predicate narrows the selection,
        outputs evaluate only over surviving rows, payload columns are
        gathered once.  Returns ``select(batch)``'s survivors' output
        values — byte-identical to projecting the filtered batch."""
        if n is None:
            n = batch_length(batch)
        frame = _Frame(batch, n, self.shared, self.constants)
        sel = self._run_predicate(frame)
        TALLY.executions += 1
        TALLY.rows_in += n
        TALLY.rows_out += int(sel.size)
        TALLY.interp_elements += n * self.n_interp_nodes
        return self._run_outputs(frame)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_predicate(self, frame: _Frame) -> np.ndarray:
        sel: np.ndarray | None = None
        for conjunct in self.conjuncts:
            if sel is not None and sel.size == 0:
                break  # nothing survives; later conjuncts are dead
            value = np.asarray(frame(conjunct), dtype=bool)
            if value.shape != (frame.n,):
                value = np.broadcast_to(value, (frame.n,))
            if value.all():
                continue  # no narrowing, cache stays valid as-is
            sel = np.flatnonzero(value) if sel is None else sel[value]
            frame.narrow(value, sel)
        if sel is None:
            sel = np.arange(frame.n_full, dtype=np.int64)
        return sel

    def _run_outputs(self, frame: _Frame) -> list[np.ndarray]:
        values: list[np.ndarray] = []
        for _, expr in self.outputs:
            value = np.asarray(frame(expr))
            if value.shape != (frame.n,):
                value = np.broadcast_to(value, (frame.n,)).copy()
            values.append(value)
        return values


def plan_kernel(node, predicate: Expr | None = None, outputs=()):
    """The kernel of a plan node, compiled on first use and cached on
    the node: one per node, shared across batches and the threads
    running its plan.  ``predicate`` and ``outputs`` are only read on
    that first call."""
    kernel = getattr(node, "_kernel", None)
    if kernel is None:
        kernel = node._kernel = CompiledKernel(predicate, outputs)
    return kernel


_register_compile_collector()
