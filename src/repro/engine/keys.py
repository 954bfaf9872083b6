"""Key equality: the one place that decides when two keys are equal.

GROUP BY, DISTINCT, ``IN`` / ``EXISTS`` and equi-joins all ask whether
two rows carry equal keys, and all of them ask here:

* equality is numpy's promoted ``==``, the engine's ``=`` (an int64 key
  meets a float64 one as float64);
* NaN and None are NULL: NULL keys form one group, ordered last as a
  NaN sorts, and never match anything;
* a string never equals a number;
* codes ascend in key order, so grouped output comes out sorted by key.

Each key column is factorized with ``np.unique`` and several columns'
codes are combined by mixed radix, so no Python tuple, dict or per-row
loop runs.  A lone numeric column is its own code and skips the
factorization.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: dtype kinds that hold strings; every other kind is a number
_STRING_KINDS = "OUS"


class Groups(NamedTuple):
    """Rows grouped by equal keys: ``order`` is a stable argsort that
    puts each group's rows together (groups in key order, rows in input
    order), ``starts`` the position in ``order`` where each group
    begins and ``first`` each group's first input row."""

    order: np.ndarray
    starts: np.ndarray
    first: np.ndarray


def nulls(values: np.ndarray) -> np.ndarray | None:
    """Where ``values`` is NULL (NaN, or None in an object column);
    None for a dtype that cannot hold one."""
    kind = values.dtype.kind
    if kind == "f":
        return np.isnan(values)
    if kind == "O":
        return np.equal(values, None) | (values != values)
    return None


def codes(values: np.ndarray) -> np.ndarray:
    """One int64 per row, equal exactly where the keys are, ascending
    in key order; every NULL shares the last code."""
    null = nulls(values) if values.dtype.kind == "O" else None
    if null is None or not null.any():
        # np.unique already gives every NaN one code, after the numbers
        inverse = np.unique(values, return_inverse=True)[1]
        return inverse.astype(np.int64, copy=False)
    out = np.empty(values.shape[0], dtype=np.int64)
    distinct, out[~null] = np.unique(values[~null], return_inverse=True)
    out[null] = distinct.size
    return out


def _combine(columns: list[np.ndarray]) -> np.ndarray:
    """One int64 per row from several code columns, by mixed radix:
    lexicographic in the columns, re-densified before it could wrap."""
    joint = columns[0]
    for column in columns[1:]:
        radix = int(column.max(initial=0)) + 1
        if (int(joint.max(initial=0)) + 1) * radix >= 2 ** 62:
            joint = np.unique(joint, return_inverse=True)[1]
        joint = joint * radix + column
    return joint


def group(columns: list[np.ndarray]) -> Groups:
    """Group rows whose keys are equal in every column."""
    if len(columns) == 1 and columns[0].dtype.kind not in _STRING_KINDS:
        joint = columns[0]
    else:
        joint = _combine([codes(column) for column in columns])
    order = np.argsort(joint, kind="stable")
    ordered = joint[order]
    new = np.empty(ordered.shape[0], dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if ordered.dtype.kind == "f" and ordered.size and np.isnan(ordered[-1]):
        # the NaNs sort last; they are one group
        new[1:] &= ~np.isnan(ordered[:-1])
    starts = np.flatnonzero(new)
    return Groups(order, starts, order[starts])


def match(
    left: list[np.ndarray], right: list[np.ndarray]
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Codes for joining ``left`` key columns with ``right`` ones.

    Returns ``(rows, codes)`` per side: the rows whose keys hold no
    NULL, ascending, and one code each, equal across the sides exactly
    where the keys are.  A string column against a number column
    matches nothing.  One numeric column per side is its own code, in
    the dtype both promote to.
    """
    if any(
        (lcol.dtype.kind in _STRING_KINDS) != (rcol.dtype.kind in _STRING_KINDS)
        for lcol, rcol in zip(left, right)
    ):
        nothing = np.empty(0, dtype=np.int64)
        return (nothing, nothing), (nothing, nothing)
    left_rows, right_rows = _not_null(left), _not_null(right)
    left = [column[left_rows] for column in left]
    right = [column[right_rows] for column in right]
    if len(left) == 1 and left[0].dtype.kind not in _STRING_KINDS:
        dtype = np.result_type(left[0], right[0])
        return (
            (left_rows, left[0].astype(dtype, copy=False)),
            (right_rows, right[0].astype(dtype, copy=False)),
        )
    joint = _combine([
        codes(np.concatenate([lcol, rcol])) for lcol, rcol in zip(left, right)
    ])
    return (
        (left_rows, joint[:left_rows.size]),
        (right_rows, joint[left_rows.size:]),
    )


def _not_null(columns: list[np.ndarray]) -> np.ndarray:
    """The rows of ``columns`` that hold no NULL key."""
    masks = [mask for mask in map(nulls, columns) if mask is not None]
    if not masks:
        return np.arange(columns[0].shape[0])
    return np.flatnonzero(~np.logical_or.reduce(masks))
