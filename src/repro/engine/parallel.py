"""Morsel-parallel execution: block dispatch onto a small thread pool.

The paper's parallelism story stops at partitions — whole servers
running whole pipelines.  This module adds parallelism *within* one
operator: a join or filter splits its input into fixed-size blocks
("morsels", after the Hyper paper's morsel-driven scheduling) and the
blocks run concurrently on a shared thread pool.  numpy releases the
GIL inside its kernels, so the chi²-style vectorized predicates that
dominate the MaxBCG join really do overlap on a multi-core box.

Determinism is non-negotiable: block boundaries are chosen by the
*operator* (never by the worker count) and results are reassembled in
submission order, so the output batch is byte-identical for any
``intra_query_workers`` setting — the property the cluster layer's
``assert_backends_equivalent`` and the golden-fingerprint tests pin.

The single-worker path never touches the pool, the tracer or the
metrics registry; a ``workers=1`` operator behaves exactly as it did
before this module existed.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.errors import EngineError

T = TypeVar("T")

#: Upper bound on pool size: beyond this, morsel scheduling overhead
#: swamps any GIL-release win for the batch sizes the engine sees.
MAX_WORKERS = 16

_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def resolve_workers(workers: int) -> int:
    """Validate and clamp a worker-count knob."""
    if int(workers) != workers or workers < 1:
        raise EngineError(
            f"intra_query_workers must be a positive integer, got {workers!r}"
        )
    return min(int(workers), MAX_WORKERS)


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared grow-only morsel pool, sized for at least ``workers``.

    One pool serves every operator in the process; requesting more
    workers than it currently has replaces it with a larger one.  Pool
    threads are reused across queries — morsels are far too small to
    amortize per-query thread creation.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < workers:
            old = _pool
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="morsel"
            )
            _pool_workers = workers
            if old is not None:
                old.shutdown(wait=False)
        return _pool


def run_morsels(
    tasks: Sequence[Callable[[], T]],
    workers: int = 1,
    name: str = "engine.morsel",
) -> list[T]:
    """Run block tasks, returning their results in submission order.

    ``workers <= 1`` (or a single task) executes inline with zero
    overhead.  Otherwise the tasks are submitted to the shared pool;
    each morsel runs in a copy of the dispatching context (contextvars
    do not flow into pool threads on their own), so its
    ``engine.morsel`` trace span is parented under the query's span and
    it shares the plan's :class:`~repro.engine.operators.Execution`;
    it feeds the ``engine.morsels`` counter and
    ``engine.morsel.elapsed_s`` histogram.  Results are collected
    by index: output order is the task order, never completion order.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]

    from repro.obs.metrics import get_metrics
    from repro.obs.trace import span

    metrics = get_metrics()
    counter = metrics.counter("engine.morsels")
    histogram = metrics.histogram("engine.morsel.elapsed_s")

    def run_one(index: int, task: Callable[[], T]) -> T:
        started = time.perf_counter()
        with span(name, layer="engine", attrs={"morsel": index}):
            result = task()
        counter.inc()
        histogram.observe(time.perf_counter() - started)
        return result

    pool = get_pool(min(workers, len(tasks)))
    futures = [
        pool.submit(contextvars.copy_context().run, run_one, i, task)
        for i, task in enumerate(tasks)
    ]
    return [future.result() for future in futures]
