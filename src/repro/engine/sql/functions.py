"""Scalar SQL function registry (re-exported from the expression layer).

The evaluatable registry lives in
:data:`repro.engine.expressions.SCALAR_FUNCTIONS` so that expression
trees are self-contained; this module re-exports it under the SQL
package for discoverability and provides :func:`register_function` for
applications that want to extend the dialect (CasJobs users "can create
... stored procedures"; custom scalars are our equivalent extension
point).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.expressions import SCALAR_FUNCTIONS
from repro.errors import SqlPlanError

__all__ = ["SCALAR_FUNCTIONS", "register_function", "function_names"]


def register_function(name: str, arity: int, fn: Callable) -> None:
    """Add a scalar function to the SQL dialect.

    ``fn`` must be vectorized (accept/return numpy arrays); a literal
    argument arrives as its Python scalar, as numpy ufuncs accept it, and
    a 0-d result is broadcast to the batch's rows.  Re-registering
    a built-in name raises, to keep the paper's SQL semantics stable.
    """
    lowered = name.lower()
    if lowered in SCALAR_FUNCTIONS:
        raise SqlPlanError(f"function '{name}' is already registered")
    SCALAR_FUNCTIONS[lowered] = (arity, fn)


def function_names() -> list[str]:
    """Sorted names of all registered scalar functions."""
    return sorted(SCALAR_FUNCTIONS)
