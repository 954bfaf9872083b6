"""Measurement tools shared by the four workloads.

Everything here observes the program *from outside*: a wall/CPU clock
pair, percentile helpers, order-independent digests and row-set
comparison for the answer checks, and an in-memory span recorder for
the ``--trace`` run.  Nothing in this file imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------
def p50(samples) -> float:
    """Median of a sample list (0.0 when empty)."""
    return float(np.percentile(samples, 50)) if len(samples) else 0.0


def p95(samples) -> float:
    """95th percentile (0.0 when empty)."""
    return float(np.percentile(samples, 95)) if len(samples) else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def batch_digest(columns: dict, sort: bool = True) -> str:
    """SHA-256 of a column batch, insensitive to row order when ``sort``.

    Rows are ordered by every column in turn (names sorted), so two
    batches holding the same multiset of rows digest identically however
    the engine happened to emit them.
    """
    names = sorted(columns)
    arrays = [_as_hashable(np.asarray(columns[name])) for name in names]
    if sort and arrays and arrays[0].size > 1:
        order = np.lexsort(arrays[::-1])
        arrays = [a[order] for a in arrays]
    digest = hashlib.sha256()
    for name, array in zip(names, arrays):
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def same_rows(got: dict, want: dict, key: str) -> bool:
    """Equal row sets: rows paired by ``key``, ints exact, floats to
    1e-9 relative (an engine AVG and a numpy mean sum in other orders)."""
    if sorted(got) != sorted(want):
        return False
    got_key, want_key = np.asarray(got[key]), np.asarray(want[key])
    if got_key.shape != want_key.shape:
        return False
    got_order = np.argsort(got_key, kind="stable")
    want_order = np.argsort(want_key, kind="stable")
    for name in want:
        a = np.asarray(got[name])[got_order]
        b = np.asarray(want[name])[want_order]
        if np.issubdtype(a.dtype, np.floating) or np.issubdtype(
            b.dtype, np.floating
        ):
            if not np.allclose(a, b, rtol=1e-9, atol=0.0):
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def _as_hashable(array: np.ndarray) -> np.ndarray:
    """Object/str columns as fixed-width unicode; numeric columns as is."""
    if array.dtype == object:
        return array.astype(str)
    return array


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer, as written to the trace file."""

    span_id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``flush`` writes JSONL at exit.

    ``span(name)`` nests under the innermost open span; ``counters`` is
    an optional callable returning a flat dict of monotonic counts,
    sampled at both boundaries so each span carries its own deltas
    (pool reads, cache hits) measured where the work happens.
    """

    def __init__(self, counters=None):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._counters = counters
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        before = self._counters() if self._counters is not None else None
        record = Span(
            span_id=len(self.spans),
            parent=self._stack[-1].span_id if self._stack else None,
            op=self.op,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if before is not None:
                after = self._counters()
                record.counters = {
                    key: after[key] - before[key]
                    for key in after
                    if after[key] != before[key]
                }

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def covered(self) -> list[float]:
        """Per span, the time its direct children cover.

        A layer's self time is its span's duration minus this.
        """
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        return covered

    def flush(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "id": record.span_id,
                    "parent": record.parent,
                    "op": record.op,
                    "name": record.name,
                    "start_us": round((record.start - origin) * 1e6, 1),
                    "end_us": round((record.end - origin) * 1e6, 1),
                    "counters": record.counters,
                }) + "\n")


# ----------------------------------------------------------------------
# set-up stage timing
# ----------------------------------------------------------------------
class StageClock:
    """Accumulates named set-up stage durations (seconds)."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (
                self.seconds.get(name, 0.0)
                + time.perf_counter()
                - started
            )


# ----------------------------------------------------------------------
# one pass over a workload
# ----------------------------------------------------------------------
@dataclass
class PassLog:
    """What one timed pass of a workload recorded.

    ``op_s`` are the per-op wall times; ``wall_s`` / ``cpu_s`` bracket
    the whole timed section (harness bookkeeping between ops included,
    which is why throughput is not simply ``1 / mean(op_s)``);
    ``samples`` holds any further named sample lists a workload wants
    percentiles of; ``values`` holds anything else a workload's metrics
    need; ``answers`` is whatever
    the workload's ``verify`` needs to check results after the clock
    stopped.
    """

    op_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    logical_reads: int = 0
    physical_reads: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    answers: list = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


@contextmanager
def timed_section(log: PassLog, io=None):
    """Bracket the timed part of a pass: wall, process CPU, pool I/O.

    ``io`` is the buffer pool's counter object (``logical_reads`` and
    ``physical_reads`` attributes) when the workload drives one pool.
    """
    before = (io.logical_reads, io.physical_reads) if io is not None else None
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        yield
    finally:
        log.wall_s = time.perf_counter() - started
        log.cpu_s = time.process_time() - cpu_started
        if before is not None:
            log.logical_reads = io.logical_reads - before[0]
            log.physical_reads = io.physical_reads - before[1]
