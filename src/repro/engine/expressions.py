"""Typed expression trees evaluated over column batches.

Expressions are built either programmatically or by the SQL parser, and
evaluate vectorized over a *batch* — a ``dict[str, np.ndarray]`` whose
keys may be qualified (``"g.i"``) or bare (``"i"``).  Name resolution
follows SQL: a qualified reference must match exactly; a bare reference
must resolve to exactly one column across the visible relations.

Each node states its semantics once, in ``apply(evaluate, n)``: its
value over ``n`` rows, with ``evaluate`` computing a child (over all
``n`` rows, or over given row positions: AND and OR evaluate their
right side only where the left leaves the answer open).  Three
callers share it — :meth:`Expr.eval` (the interpreted walk), the fused
kernel in :mod:`repro.engine.compile` (which hands in its CSE-caching,
selection-narrowed evaluator) and the constant folder in
:mod:`repro.engine.optimizer.rewrite` (which evaluates a literal-only
node over :data:`ONE_ROW` via :func:`scalar_value`) — so an answer
cannot depend on which of them computed it.  ``ColumnRef`` (name
resolution) and ``Case`` (row-subset evaluation) have no ``apply`` and
keep their own ``eval``; ``EXISTS`` / ``IN (SELECT ...)`` are planned
as semi-joins and never evaluate.

The scalar function registry covers what the paper's SQL uses (POWER,
SQRT, LOG, ABS, FLOOR, SIN, COS, RADIANS, PI, ...).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ColumnNotFoundError, SqlPlanError

Batch = dict[str, np.ndarray]

INT64_MIN = int(np.iinfo(np.int64).min)


def batch_length(batch: Batch) -> int:
    for arr in batch.values():
        if isinstance(arr, np.ndarray):
            return int(arr.shape[0])
        return int(np.asarray(arr).shape[0])
    return 0


def resolve_key(batch: Batch, name: str, qualifier: str | None) -> str:
    """SQL name resolution to the *key* a reference binds to in a batch.

    Same rules as :func:`resolve_column` but returns the matched key
    instead of the array — operators that evaluate a predicate over a
    projected subset of a batch (band-join residuals) use this to learn
    which columns the predicate actually needs.
    """
    if qualifier is not None:
        key = f"{qualifier.lower()}.{name.lower()}"
        if key in batch:
            return key
        raise ColumnNotFoundError(f"unknown column '{qualifier}.{name}'")
    lowered = name.lower()
    if lowered in batch:
        return lowered
    matches = [k for k in batch if k.rsplit(".", 1)[-1] == lowered]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ColumnNotFoundError(f"unknown column '{name}'")
    raise SqlPlanError(f"ambiguous column '{name}' (candidates: {sorted(matches)})")


def resolve_column(batch: Batch, name: str, qualifier: str | None) -> np.ndarray:
    """SQL name resolution against a batch's (possibly qualified) keys."""
    return batch[resolve_key(batch, name, qualifier)]


def eval_over_rows(expr: "Expr", batch: Batch, rows: np.ndarray) -> np.ndarray:
    """Evaluate ``expr`` over only the given row positions of ``batch``.

    Name resolution (including ambiguity errors) matches a full-batch
    evaluation: every reference is resolved against the *full* batch
    first, then only the resolved columns are gathered for the selected
    rows.  Returns exactly ``rows.size`` values, broadcast when the
    expression is row-independent.  Because every expression evaluates
    elementwise, the result is byte-identical to evaluating over the
    full batch and gathering afterwards — without ever materializing
    the full-length temporaries.
    """
    keys = {
        resolve_key(batch, ref.name, ref.qualifier)
        for ref in expr.column_refs()
    }
    sub: Batch = {
        key: (batch[key] if isinstance(batch[key], np.ndarray)
              else np.asarray(batch[key]))[rows]
        for key in sorted(keys)
    }
    if not sub:
        # row-independent expression: carry the selection length only
        sub = {"__rows": np.zeros(rows.size)}
    values = np.asarray(expr.eval(sub))
    if values.shape != (rows.size,):
        values = np.broadcast_to(values, (rows.size,)).copy()
    return values


#: The one-row batch constant expressions evaluate over.
ONE_ROW: Batch = {"__scalar": np.zeros(1)}


class Expr:
    """Base expression node."""

    #: ``apply(evaluate, n)``: this node's value over ``n`` rows, with
    #: ``evaluate(child)`` computing a child and ``evaluate(child,
    #: rows)`` computing it over only those row positions.  None on
    #: nodes that keep their own :meth:`eval`.
    apply: Callable[..., np.ndarray] | None = None

    def eval(self, batch: Batch) -> np.ndarray:
        def evaluate(child: Expr, rows: np.ndarray | None = None):
            if rows is None:
                return child.eval(batch)
            return eval_over_rows(child, batch, rows)

        return self.apply(evaluate, batch_length(batch))

    def column_refs(self) -> list["ColumnRef"]:
        """All column references in this subtree (planner analysis)."""
        refs: list[ColumnRef] = []
        self._collect_refs(refs)
        return refs

    def _collect_refs(self, out: list["ColumnRef"]) -> None:
        for child in self.children():
            child._collect_refs(out)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def with_children(self, children: tuple["Expr", ...]) -> "Expr":
        """This node over new ``children``: the inverse of :meth:`children`."""
        return self


def transform(
    expr: Expr,
    post: Callable[[Expr], Expr] | None = None,
    pre: Callable[[Expr], Expr | None] | None = None,
) -> Expr:
    """Map an expression tree, rebuilding only the nodes that change.

    ``pre`` sees each node on the way down: a non-None result replaces
    the node whole and is not descended into.  Otherwise the children
    are mapped, the node is rebuilt only when a child came back as a
    different object, and ``post`` sees the result on the way up.  A
    tree nothing applies to comes back as the same object.  Subquery
    bodies are not children, so they stay separate scopes.
    """
    if pre is not None:
        replaced = pre(expr)
        if replaced is not None:
            return replaced
    children = expr.children()
    if children:
        mapped = tuple([transform(child, post, pre) for child in children])
        if any(map(operator.is_not, mapped, children)):
            expr = expr.with_children(mapped)
    return expr if post is None else post(expr)


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def apply(self, evaluate, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    qualifier: str | None = None

    def eval(self, batch: Batch) -> np.ndarray:
        return resolve_column(batch, self.name, self.qualifier)

    def _collect_refs(self, out: list["ColumnRef"]) -> None:
        out.append(self)

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


#: Binary operators that map straight onto a numpy ufunc (``/``, AND
#: and OR have their own arms in :meth:`BinaryOp.apply`).
_UFUNCS: dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "%": np.mod,
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


#: Integer arithmetic that raises where numpy would wrap or answer 0.
_CHECKED_INTEGER_OPS = frozenset(("+", "-", "*", "%"))


def _checked_integer_op(op: str, ufunc, lhs: np.ndarray, rhs: np.ndarray):
    """``lhs op rhs`` over signed integers, failing as T-SQL does.

    A ``%`` takes the dividend's sign (``np.fmod``; ``np.mod`` floors
    to the divisor's), and by zero is a divide-by-zero error (numpy
    answers 0); a ``+ - *`` outside the result dtype is an arithmetic
    overflow (numpy wraps silently).  A sum or difference wrapped iff
    its sign disagrees with both operands' (with the subtrahend's
    flipped); a product iff dividing it back does not give the
    multiplicand, except that ``MIN * -1`` divides back to itself.
    """
    if op == "%":
        if np.any(rhs == 0):
            raise SqlPlanError("divide by zero: integer '%' by 0")
        return np.fmod(lhs, rhs)
    result = ufunc(lhs, rhs)
    if op == "+":
        wrapped = ((lhs ^ result) & (rhs ^ result)) < 0
    elif op == "-":
        wrapped = ((lhs ^ rhs) & (lhs ^ result)) < 0
    else:
        negated = rhs == -1
        divides = (rhs != 0) & ~negated
        back = result // np.where(divides, rhs, 1)
        wrapped = (divides & (back != lhs)) | (
            negated & (lhs == np.iinfo(result.dtype).min)
        )
    if np.any(wrapped):
        raise SqlPlanError(
            f"arithmetic overflow: integer '{op}' outside {result.dtype}"
        )
    return result


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return BinaryOp(self.op, *children)

    def apply(self, evaluate, n: int) -> np.ndarray:
        op = self.op.upper() if self.op.isalpha() else self.op
        if op == "AND" or op == "OR":
            # The right side sees only the rows the left leaves open,
            # so a row the left decides cannot fail on the right
            # (``b <> 0 AND a % b = 1``): the vectorized short-circuit.
            left = np.asarray(evaluate(self.left), dtype=bool)
            open_rows = left if op == "AND" else ~left
            if not open_rows.any():
                return left
            if open_rows.all():
                right = np.asarray(evaluate(self.right), dtype=bool)
                return left & right if op == "AND" else left | right
            rows = np.flatnonzero(open_rows)
            result = left.copy()
            result[rows] = np.asarray(evaluate(self.right, rows), dtype=bool)
            return result
        lhs = evaluate(self.left)
        rhs = evaluate(self.right)
        if op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.divide(
                    np.asarray(lhs, dtype=np.float64),
                    np.asarray(rhs, dtype=np.float64),
                )
        ufunc = _UFUNCS.get(op)
        if ufunc is None:
            raise SqlPlanError(f"unknown binary operator '{self.op}'")
        if op in _CHECKED_INTEGER_OPS:
            lhs, rhs = np.asarray(lhs), np.asarray(rhs)
            if lhs.dtype.kind == "i" and rhs.dtype.kind == "i":
                return _checked_integer_op(op, ufunc, lhs, rhs)
        return ufunc(lhs, rhs)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "NOT"
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return UnaryOp(self.op, *children)

    def apply(self, evaluate, n: int) -> np.ndarray:
        if self.op == "-":
            operand = self.operand
            if isinstance(operand, Literal) and type(operand.value) is int \
                    and operand.value == -INT64_MIN:
                # -9223372036854775808 parses as -(2**63), which numpy
                # holds as uint64 and negates back to 2**63: read it, as
                # literal_value does, as the int64 it spells
                return np.full(n, INT64_MIN)
            return np.negative(evaluate(operand))
        if self.op.upper() == "NOT":
            return ~np.asarray(evaluate(self.operand), dtype=bool)
        raise SqlPlanError(f"unknown unary operator '{self.op}'")

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class Between(Expr):
    """SQL BETWEEN: inclusive on both ends."""

    value: Expr
    low: Expr
    high: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.value, self.low, self.high)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return Between(*children)

    def apply(self, evaluate, n: int) -> np.ndarray:
        v = evaluate(self.value)
        return (v >= evaluate(self.low)) & (v <= evaluate(self.high))

    def __str__(self) -> str:
        return f"({self.value} BETWEEN {self.low} AND {self.high})"


def isin_fast(values: np.ndarray, options: tuple["Expr", ...]) -> np.ndarray | None:
    """Single-pass IN-list membership when every option is a numeric literal.

    Returns ``None`` when the fast path does not apply (non-literal or
    non-numeric options, or a non-numeric probe array) — callers fall
    back to the per-option equality loop.  Semantics match the loop
    exactly: NaN probe rows match nothing (SQL comparison semantics)
    and NaN options are dropped because ``NaN == NaN`` is false, while
    ``np.isin``'s sort-based matching would wrongly pair them.
    """
    if values.dtype.kind not in "iuf":
        return None
    literals: list[object] = []
    for option in options:
        if not isinstance(option, Literal):
            return None
        value = option.value
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            return None
        literals.append(value)
    finite = [v for v in literals if not (isinstance(v, (float, np.floating))
                                          and np.isnan(v))]
    if not finite:
        return np.zeros(values.shape, dtype=bool)
    needles = np.asarray(finite)
    if needles.dtype.kind not in "iuf":
        return None
    return np.isin(values, needles)


@dataclass(frozen=True)
class InList(Expr):
    value: Expr
    options: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return (self.value, *self.options)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return InList(children[0], children[1:])

    def apply(self, evaluate, n: int) -> np.ndarray:
        v = np.asarray(evaluate(self.value))
        fast = isin_fast(v, self.options)
        if fast is not None:
            return fast
        result = np.zeros(v.shape, dtype=bool)
        for option in self.options:
            # not ``|=``: a 0-d value against a column widens the result
            result = result | (v == evaluate(option))
        return result


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        for cond, value in self.whens:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return tuple(out)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        n = 2 * len(self.whens)
        return Case(
            tuple(zip(children[0:n:2], children[1:n:2])),
            None if self.default is None else children[n],
        )

    def eval(self, batch: Batch) -> np.ndarray:
        n = batch_length(batch)
        decided = np.zeros(n, dtype=bool)
        writes: list[tuple[np.ndarray, np.ndarray]] = []
        for cond, value in self.whens:
            hit = np.asarray(cond.eval(batch), dtype=bool) & ~decided
            if hit.any():
                rows = np.flatnonzero(hit)
                writes.append((rows, eval_over_rows(value, batch, rows)))
                decided |= hit
        if self.default is None:
            result = np.full(n, np.nan)
        else:
            # Evaluate the default only over still-undecided rows; when
            # every row is decided this degenerates to an empty-batch
            # probe that establishes the result dtype (dtype depends on
            # the expression's inputs, never on which rows it sees).
            undecided = np.flatnonzero(~decided)
            defaults = eval_over_rows(self.default, batch, undecided)
            result = np.empty(n, dtype=defaults.dtype)
            result[undecided] = defaults
        for rows, vals in writes:
            result[rows] = vals
        return result


def _rows(value: np.ndarray, n: int) -> np.ndarray:
    """``value`` as ``n`` rows: a 0-d value is broadcast."""
    return np.full(n, value) if np.ndim(value) == 0 else value


def _fn_pi(n: int) -> np.ndarray:
    return np.full(n, np.pi)


#: Scalar function registry: name -> (arity, vectorized callable).
#: Arity ``-1`` means variadic.
SCALAR_FUNCTIONS: dict[str, tuple[int, Callable]] = {
    "power": (2, lambda a, b: np.power(np.asarray(a, dtype=np.float64), b)),
    "sqrt": (1, lambda a: np.sqrt(np.asarray(a, dtype=np.float64))),
    "abs": (1, np.abs),
    "floor": (1, lambda a: np.floor(np.asarray(a, dtype=np.float64))),
    "ceiling": (1, lambda a: np.ceil(np.asarray(a, dtype=np.float64))),
    "log": (1, lambda a: np.log(np.asarray(a, dtype=np.float64))),
    "log10": (1, lambda a: np.log10(np.asarray(a, dtype=np.float64))),
    "exp": (1, lambda a: np.exp(np.asarray(a, dtype=np.float64))),
    "sin": (1, lambda a: np.sin(np.asarray(a, dtype=np.float64))),
    "cos": (1, lambda a: np.cos(np.asarray(a, dtype=np.float64))),
    "tan": (1, lambda a: np.tan(np.asarray(a, dtype=np.float64))),
    "radians": (1, lambda a: np.deg2rad(np.asarray(a, dtype=np.float64))),
    "degrees": (1, lambda a: np.rad2deg(np.asarray(a, dtype=np.float64))),
    "sign": (1, np.sign),
    "round": (2, lambda a, d: np.round(
        np.asarray(a, dtype=np.float64),
        # the digits argument is irrelevant over an empty batch
        int(np.asarray(d).flat[0]) if np.asarray(d).size else 0,
    )),
    "cast": (1, lambda a: a),  # type widths are uniform here
    "isnull": (1, lambda a: np.isnan(np.asarray(a, dtype=np.float64))),
}


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...] = ()

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return FuncCall(self.name, children)

    def apply(self, evaluate, n: int) -> np.ndarray:
        """``Literal`` arguments reach the function as their Python
        value, not as an ``n``-row array: ``POWER(x, 2)`` takes numpy's
        scalar-exponent square (the bits of ``x ** 2``) instead of libm
        ``pow`` per element, and ``POWER(0.57, 2)`` is computed once.  A
        result that is still 0-d (every argument a literal) is
        broadcast to ``n`` rows.  Every other argument reaches the
        function as ``n`` rows, also when the fused kernel computed it
        as a 0-d value (``POWER(x, -2)``): numpy takes its scalar fast
        paths on a 0-d operand, and the kernel must keep the walk's
        bits.  Python scalars never reach a ``BinaryOp``: one would not
        widen an int32 or float32 column the way a numpy value does.
        """
        lowered = self.name.lower()
        if lowered == "pi":
            return _fn_pi(n)
        entry = SCALAR_FUNCTIONS.get(lowered)
        if entry is None:
            raise SqlPlanError(f"unknown function '{self.name}'")
        arity, fn = entry
        if arity >= 0 and len(self.args) != arity:
            raise SqlPlanError(
                f"function '{self.name}' expects {arity} args, "
                f"got {len(self.args)}"
            )
        result = fn(*[
            arg.value if isinstance(arg, Literal) else _rows(evaluate(arg), n)
            for arg in self.args
        ])
        if np.ndim(result) == 0:
            return np.full(n, result)
        return result

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def scalar_value(expr: Expr):
    """The Python scalar a row-independent expression evaluates to."""
    value = np.asarray(expr.eval(ONE_ROW)).reshape(-1)[0]
    return value.item() if hasattr(value, "item") else value


def literal_value(expr: Expr):
    """The constant a ``Literal`` (or a negated numeric ``Literal``)
    spells, else None: the planner's and the estimator's pattern
    matches read constants through this."""
    if isinstance(expr, Literal):
        return expr.value
    if (
        isinstance(expr, UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, Literal)
        and isinstance(expr.operand.value, (int, float))
    ):
        return -expr.operand.value
    return None


# ----------------------------------------------------------------------
# convenience constructors, so engine-internal code reads naturally
# ----------------------------------------------------------------------
def col(name: str, qualifier: str | None = None) -> ColumnRef:
    return ColumnRef(name, qualifier)


def lit(value) -> Literal:
    return Literal(value)


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_(*parts: Expr) -> Expr:
    result = parts[0]
    for part in parts[1:]:
        result = BinaryOp("AND", result, part)
    return result
