"""Plan forcing: pin a statement fingerprint to a stored plan.

The feedback loop (PR 8) makes plans a function of observed execution —
which is usually what you want, until a re-plan lands on something
*worse* and the operator needs to say "run the old plan, full stop".
SQL Server's Query Store answer is plan forcing: the operator picks a
plan from the fingerprint's history and the optimizer is bypassed for
that statement until the pin is removed.

Forcing is structural, not pickled: a live
:class:`~repro.engine.operators.PlanNode` tree references Table and
index objects that do not survive a restart, so a :class:`ForcedPlan`
stores the plan's **structural signature** (:func:`plan_structure` — a
hash of the operator tree that ignores cardinality estimates) alongside
the plan text.  The live node is reused directly only while it is
*bound* — its ``generation`` stamp equals the database's catalog
generation, the rule the statement cache and the plan memo use too.  A
catalog change that replaced none of the tables and views the node
reads re-stamps it (``Database.rebind``), so an unrelated CREATE or
DROP never moves a pin.  After a restore, or once a table or view the
node reads was replaced, the forcer re-plans and *adopts* the result if
its structure matches the stored signature ("forced-reestablished").  A
pin ignores statistics: ANALYZE or writes never move it.  When the
catalog has drifted so far that the planner can no longer produce the
forced shape, the force **fails visibly**: the fresh plan runs, the
failure is counted, and the reason is recorded on the entry — the moral
equivalent of Query Store's ``last_force_failure_reason``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.expressions import Expr
from repro.engine.index import ClusteredIndex, PrimaryKeyIndex
from repro.engine.operators import PlanNode
from repro.engine.table import Table
from repro.errors import EngineError
from repro.obs.metrics import get_metrics


def _structure_tokens(value, out: list[str]) -> None:
    """Append a stable token stream for one plan-tree value.

    Tables and indexes are identified by name/keys (never by object
    identity, which changes across restarts); bound expressions are
    frozen dataclasses whose ``repr`` is deterministic (the band-shape
    keys of the feedback loop already rely on this).  ``est_rows`` and
    ``rewrite_trace`` are class attributes, not dataclass fields, so a
    field walk skips estimate churn for free.
    """
    if isinstance(value, PlanNode):
        out.append(f"node:{type(value).__name__}(")
        for f in dataclasses.fields(value):
            out.append(f"{f.name}=")
            _structure_tokens(getattr(value, f.name), out)
        out.append(")")
    elif isinstance(value, Table):
        out.append(f"table:{value.name.lower()}")
    elif isinstance(value, ClusteredIndex):
        keys = ",".join(k.lower() for k in value.keys)
        out.append(f"cindex:{value.table.name.lower()}[{keys}]")
    elif isinstance(value, PrimaryKeyIndex):
        out.append(f"pkindex:{value.table.name.lower()}[{value.leading_key}]")
    elif isinstance(value, Expr):
        out.append(f"expr:{value!r}")
    elif isinstance(value, (tuple, list)):
        out.append("[")
        for item in value:
            _structure_tokens(item, out)
        out.append("]")
    else:
        out.append(repr(value))


def plan_structure(plan: PlanNode) -> str:
    """Structural signature of a plan tree (hex digest).

    Two plans compare equal iff they have the same operator shapes over
    the same tables/indexes/expressions — row estimates and statistics
    do not participate, so re-ANALYZE alone never flips the signature.
    """
    tokens: list[str] = []
    _structure_tokens(plan, tokens)
    return hashlib.sha256("\x00".join(tokens).encode()).hexdigest()[:32]


@dataclass
class ForcedPlan:
    """One pinned fingerprint -> plan binding."""

    fingerprint: str
    plan_id: int
    structure: str
    plan_text: str
    #: Live operator tree; None after a restore (or a failed force)
    #: until re-established.
    node: PlanNode | None = None
    forced_at: float = 0.0
    executions: int = 0
    #: Whether the live node was re-adopted by structure match after a
    #: restart or a catalog change (as opposed to the node forced).
    re_established: bool = False
    failures: int = 0
    last_failure: str | None = None


class PlanForcer:
    """Thread-safe fingerprint -> :class:`ForcedPlan` map.

    One instance hangs off each query-store-enabled
    :class:`~repro.engine.database.Database`.  ``version`` bumps on any
    force/unforce so the Query Store's system views refresh lazily.
    """

    def __init__(self):
        self._entries: dict[str, ForcedPlan] = {}
        self._lock = threading.Lock()
        self.version = 0
        metrics = get_metrics()
        self._m_forced = metrics.counter("engine.planforce.forced_executions")
        self._m_reestablished = metrics.counter("engine.planforce.reestablished")
        self._m_failures = metrics.counter("engine.planforce.force_failures")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def force(
        self,
        fingerprint: str,
        plan_id: int,
        structure: str,
        plan_text: str,
        node: PlanNode | None = None,
    ) -> ForcedPlan:
        """Pin a fingerprint to a plan (replacing any existing pin)."""
        if not structure:
            raise EngineError(
                f"cannot force plan {plan_id}: no structural signature"
            )
        entry = ForcedPlan(
            fingerprint=fingerprint,
            plan_id=plan_id,
            structure=structure,
            plan_text=plan_text,
            node=node,
            forced_at=time.time(),
        )
        with self._lock:
            self._entries[fingerprint] = entry
            self.version += 1
        return entry

    def unforce(self, fingerprint: str) -> ForcedPlan | None:
        """Remove a pin; returns the removed entry (None if absent)."""
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is not None:
                self.version += 1
            return entry

    def get(self, fingerprint: str) -> ForcedPlan | None:
        with self._lock:
            return self._entries.get(fingerprint)

    def entries(self) -> list[ForcedPlan]:
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            if self._entries:
                self.version += 1
            self._entries.clear()

    # ------------------------------------------------------------------
    def resolve(
        self, fingerprint: str, replan: Callable[[], PlanNode],
        bound: Callable[[PlanNode], bool],
    ) -> tuple[PlanNode, str] | None:
        """The plan to run for a forced fingerprint, or None if unpinned.

        Returns ``(plan, decision)`` with decision one of:

        * ``"forced"`` — the pinned live plan ran: ``bound(node)``
          (:meth:`~repro.engine.database.Database.rebind`) holds;
        * ``"forced-reestablished"`` — no bound live node (restored pin,
          or a table or view the node reads was replaced); the planner's
          fresh plan matched the stored structure and was adopted as the
          live node;
        * ``"force-failed"`` — the fresh plan's structure diverged from
          the pin; the fresh plan runs anyway and the failure is
          recorded on the entry.
        """
        entry = self.get(fingerprint)
        if entry is None:
            return None
        node = entry.node
        if node is not None and bound(node):
            with self._lock:
                entry.executions += 1
            self._m_forced.inc()
            return node, "forced"
        plan = replan()
        structure = plan_structure(plan)
        if structure == entry.structure:
            with self._lock:
                entry.node = plan
                entry.re_established = True
                entry.executions += 1
                entry.last_failure = None
                self.version += 1
            self._m_reestablished.inc()
            self._m_forced.inc()
            return plan, "forced-reestablished"
        with self._lock:
            entry.node = None  # an unbound node may hold dropped tables
            entry.failures += 1
            entry.last_failure = (
                f"planner produced structure {structure[:12]}, "
                f"forced plan has {entry.structure[:12]}"
            )
            self.version += 1
        self._m_failures.inc()
        return plan, "force-failed"

    # ------------------------------------------------------------------
    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return "forced plans: none"
        lines = [f"forced plans ({len(entries)}):"]
        for entry in sorted(entries, key=lambda e: e.fingerprint):
            state = "awaiting re-plan"
            if entry.node is not None:
                state = "re-established" if entry.re_established else "live"
            lines.append(
                f"  {entry.fingerprint[:12]} -> plan {entry.plan_id} "
                f"[{state}]  execs={entry.executions}  "
                f"failures={entry.failures}"
                + (f"  last_failure={entry.last_failure}"
                   if entry.last_failure else "")
            )
        return "\n".join(lines)
