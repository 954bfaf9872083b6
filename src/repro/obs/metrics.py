"""The metrics registry: named counters, gauges and histograms.

Every layer's existing island of accounting feeds one process-wide
registry so a single snapshot answers "where did time, CPU and I/O
go": buffer-pool hits/misses/evictions from the page layer, per-query
elapsed and q-error from the engine, queue waits / retries / timeouts /
dead-letters / shed jobs from the CasJobs scheduler, per-partition
wall/CPU/I/O from the cluster backends, transfer seconds and job
states from the grid simulator.

Two feeding styles, chosen by hot-path cost:

* **push** — coarse events (a job finishing, a partition completing)
  call :meth:`Counter.inc` / :meth:`Histogram.observe` directly; these
  are lock-guarded but fire at most a few times per job, never per row;
* **pull** — hot-path sources (the buffer pool, touched on every page
  access) keep their own plain-int counters and register a *collector*
  callback; the registry reads them only at snapshot time, so the hot
  path pays nothing.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Iterable

from repro.errors import ObsError

#: Default histogram bucket upper bounds (seconds-flavored: µs to minutes).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets + sum + count)."""

    __slots__ = ("name", "uppers", "_counts", "_sum", "_count", "_max",
                 "_lock")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS):
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ObsError(f"histogram '{name}' needs at least one bucket")
        self.name = name
        self.uppers = uppers  # +inf overflow bucket is implicit (last slot)
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._count = 0
        #: Largest value observed — bounds the +inf overflow bucket so
        #: quantiles landing there interpolate instead of reporting inf.
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        slot = bisect.bisect_left(self.uppers, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def buckets(self) -> dict[str, int]:
        """Bucket label ("le=<upper>") to count, overflow labeled 'le=inf'."""
        with self._lock:
            labels = [f"le={u:g}" for u in self.uppers] + ["le=inf"]
            return dict(zip(labels, list(self._counts)))

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket boundaries.

        Finite buckets report their upper bound.  A rank landing in the
        terminal +inf overflow bucket interpolates linearly between the
        last finite bound and the largest observed value — a bucket
        sized badly for its workload degrades to a coarse estimate
        instead of an unusable ``inf``.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            seen = 0
            for upper, n in zip(self.uppers, self._counts):
                seen += n
                if seen >= rank and n:
                    return upper
            overflow = self._counts[-1]
            if overflow == 0 or self._max is None:
                return math.inf  # defensive: nothing actually overflowed
            lower = self.uppers[-1]
            fraction = (rank - (self._count - overflow)) / overflow
            fraction = min(max(fraction, 0.0), 1.0)
            if self._max <= lower:
                return self._max
            return lower + (self._max - lower) * fraction

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.uppers) + 1)
            self._sum = 0.0
            self._count = 0
            self._max = None


#: A collector returns {metric name: value} when the registry snapshots.
Collector = Callable[[], dict[str, float]]


class MetricsRegistry:
    """Process-wide named metrics plus pull-style collectors."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Collector] = []
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ObsError(
                        f"metric '{name}' is a {type(existing).__name__}, "
                        f"not a {kind.__name__}"
                    )
                return existing
            metric = kind(name)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ObsError(
                        f"metric '{name}' is a {type(existing).__name__}, "
                        "not a Histogram"
                    )
                return existing
            metric = Histogram(name, buckets or DEFAULT_BUCKETS)
            self._metrics[name] = metric
            return metric

    def add_collector(self, collector: Collector) -> None:
        """Register a pull-style source, read only at snapshot time."""
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Every metric's current value, collectors included.

        Counters and gauges map to floats; histograms to a dict with
        ``count``, ``sum``, ``mean`` and per-bucket counts.
        """
        with self._lock:
            metrics = dict(self._metrics)
            collectors = list(self._collectors)
        out: dict[str, object] = {}
        for name, metric in metrics.items():
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean,
                    "buckets": metric.buckets(),
                }
            else:
                out[name] = metric.value
        for collector in collectors:
            out.update(collector())
        return out

    def scalars(self, prefix: str = "") -> dict[str, float]:
        """Counter/gauge values as floats (histograms excluded).

        The shape the Chrome-trace exporter wants for counter ("C")
        events; ``prefix`` filters by metric-name prefix.
        """
        return {
            name: float(value)
            for name, value in self.snapshot().items()
            if not isinstance(value, dict)
            and (not prefix or name.startswith(prefix))
        }

    def render(self) -> str:
        """Plain-text dump, one metric per line, sorted by name."""
        lines = []
        for name, value in sorted(self.snapshot().items()):
            if isinstance(value, dict):
                lines.append(
                    f"{name}  count={value['count']} sum={value['sum']:.6g} "
                    f"mean={value['mean']:.6g}"
                )
            else:
                lines.append(f"{name}  {value:g}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every metric; registrations and collectors survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry every layer feeds."""
    return _REGISTRY


def count_swallowed_error(site: str) -> None:
    """Count an exception a query-path ``except`` at ``site`` caught
    without naming it (it names ``ReproError``; anything else degrades
    the same way but lands here): ``engine.swallowed_errors`` and
    ``engine.swallowed_errors.<site>``, 0 on clean runs."""
    _REGISTRY.counter("engine.swallowed_errors").inc()
    _REGISTRY.counter(f"engine.swallowed_errors.{site}").inc()
