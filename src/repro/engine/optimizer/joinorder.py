"""Join-order search: left-deep dynamic programming with a greedy tail.

The planner hands this module an abstract picture of the FROM clause —
one :class:`JoinRel` per bound relation (its estimated output rows and
access cost) and one :class:`JoinPred` per join/filter conjunct that
spans two or more relations — and gets back a permutation of relation
indexes to join left-deep in that order.

Up to ``dp_limit`` relations the search is exact over left-deep trees
(the classic System-R dynamic program on relation subsets); beyond
that it degrades to a greedy heuristic: start from the smallest
relation and repeatedly attach whichever remaining relation is cheapest
to join next.  Both paths price joins with the shared
:class:`~repro.engine.optimizer.cost.CostModel` and estimate join
output rows by multiplying the selectivities of every predicate that
becomes applicable at that step (independence assumption).

Cross products are allowed but naturally priced out: a relation with no
applicable predicate joins with selectivity 1 and nested-loop cost, so
the DP only picks it when nothing better exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.optimizer.cost import DEFAULT_COST_MODEL, CostModel

#: Above this many relations the exact DP gives way to the greedy pass.
DP_LIMIT = 6


@dataclass(frozen=True)
class JoinRel:
    """One FROM-clause relation as the search sees it."""

    alias: str
    rows: float       # estimated rows *after* pushed-down filters
    cost: float       # cost of its chosen access path


@dataclass(frozen=True)
class JoinPred:
    """One conjunct spanning ``aliases``; applicable once all are bound.

    ``band_keys`` are the aliases that can own a band join's sorted key
    column.  A band is built only on the relation being joined, so the
    conjunct prices as a band only on a step that adds one of them.
    """

    aliases: frozenset[str]
    selectivity: float
    equi: bool = False
    band_keys: frozenset[str] = frozenset()


def _applicable(
    preds: list[JoinPred], bound: frozenset[str], adding: str
) -> list[JoinPred]:
    """Predicates that become evaluable when ``adding`` joins ``bound``."""
    after = bound | {adding}
    return [
        p for p in preds
        if p.aliases <= after and not p.aliases <= bound and adding in p.aliases
    ]


def _step(
    rows: float,
    cost: float,
    rel: JoinRel,
    preds: list[JoinPred],
    model: CostModel,
) -> tuple[float, float]:
    """Price joining ``rel`` onto an intermediate of ``rows`` rows."""
    selectivity = 1.0
    has_equi = False
    has_band = False
    for pred in preds:
        selectivity *= pred.selectivity
        has_equi = has_equi or pred.equi
        has_band = has_band or rel.alias in pred.band_keys
    out_rows = rows * rel.rows * selectivity
    join_cost = model.join(rows, rel.rows, out_rows, has_equi, has_band)
    return out_rows, cost + rel.cost + join_cost


def order_relations(
    rels: list[JoinRel],
    preds: list[JoinPred],
    model: CostModel = DEFAULT_COST_MODEL,
    dp_limit: int = DP_LIMIT,
) -> list[int]:
    """Choose a left-deep join order; returns indexes into ``rels``."""
    n = len(rels)
    if n <= 1:
        return list(range(n))
    if n <= dp_limit:
        return _order_dp(rels, preds, model)
    return _order_greedy(rels, preds, model)


def _order_dp(
    rels: list[JoinRel], preds: list[JoinPred], model: CostModel
) -> list[int]:
    n = len(rels)
    # dp key: frozenset of relation indexes ->
    #   (cost, rows, order tuple, bound alias set)
    dp: dict[frozenset[int], tuple[float, float, tuple[int, ...], frozenset[str]]] = {}
    for i, rel in enumerate(rels):
        dp[frozenset([i])] = (rel.cost, rel.rows, (i,), frozenset([rel.alias]))

    for size in range(2, n + 1):
        next_dp: dict[
            frozenset[int], tuple[float, float, tuple[int, ...], frozenset[str]]
        ] = {}
        for subset, (cost, rows, order, bound) in sorted(
            dp.items(), key=lambda kv: kv[1][2]
        ):
            if len(subset) != size - 1:
                continue
            for j in range(n):
                if j in subset:
                    continue
                rel = rels[j]
                applicable = _applicable(preds, bound, rel.alias)
                out_rows, total = _step(rows, cost, rel, applicable, model)
                # the access-path cost of rels already in `order` is
                # inside `cost`; _step added rels[j].cost once.
                key = subset | {j}
                candidate = (total, out_rows, order + (j,), bound | {rel.alias})
                best = next_dp.get(key)
                if best is None or candidate[0] < best[0]:
                    next_dp[key] = candidate
        dp.update(next_dp)

    _, _, order, _ = dp[frozenset(range(n))]
    return list(order)


def _order_greedy(
    rels: list[JoinRel], preds: list[JoinPred], model: CostModel
) -> list[int]:
    n = len(rels)
    start = min(range(n), key=lambda i: (rels[i].rows, rels[i].alias))
    order = [start]
    bound = frozenset([rels[start].alias])
    rows = rels[start].rows
    cost = rels[start].cost
    remaining = set(range(n)) - {start}
    while remaining:
        best_j = None
        best = (float("inf"), float("inf"), "")
        for j in sorted(remaining, key=lambda i: rels[i].alias):
            applicable = _applicable(preds, bound, rels[j].alias)
            out_rows, total = _step(rows, cost, rels[j], applicable, model)
            candidate = (total, out_rows, rels[j].alias)
            if candidate < best:
                best = candidate
                best_j = j
        order.append(best_j)
        bound = bound | {rels[best_j].alias}
        cost, rows = best[0], best[1]
        remaining.remove(best_j)
    return order
