"""A queued worker-pool front-end over :class:`EstimatorService`.

:class:`ServePool` closes the ROADMAP's async-server item: a bounded
request queue drained by N worker threads, an :mod:`asyncio` adapter,
and explicit load-shedding instead of unbounded latency growth.

Threads — not processes — are the right execution vehicle here: the
cascade's circuit breakers and metrics are shared mutable state that
every request must observe (a process pool would give each worker its
own breakers, silently disabling the trip logic), the service is already
thread-safe, and per-request work is bounded by ``max_embeddings``.
Worker threads share each sketch's answer cache, so a query any worker
answered is served from the cache by every other.

Backpressure contract:

* :meth:`submit` returns a :class:`concurrent.futures.Future`
  immediately; when the queue is full the request is **shed** — the
  future resolves right away to a uniform-prior
  :class:`~repro.serve.service.EstimateResponse` with source
  ``uniform`` and a ``"shed: queue full"`` warning, so callers degrade
  exactly the way the cascade itself degrades instead of raising.
* a queued request whose ``deadline`` fully elapses before a worker
  picks it up is likewise shed (``"shed: deadline expired in queue"``)
  without touching the estimator tiers.
* :meth:`estimate_async` wraps the future for ``await``-ing from an
  asyncio event loop; :meth:`submit_batch` queues one batch task that
  runs through :meth:`EstimatorService.submit_batch` and resolves to
  the full response list.

Metrics (into the service's registry): ``serve_pool_requests_total``
by outcome (``ok``/``shed``/``error``), ``serve_pool_queue_depth``,
and a ``serve_pool_wait_seconds`` histogram of time spent queued.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional

from ..errors import ServiceError
from ..query.ast import TwigQuery
from .service import TIER_UNIFORM, EstimateResponse, EstimatorService

__all__ = ["ServePool"]

#: seconds a worker blocks on the queue before re-checking shutdown
_POLL_SECONDS = 0.1


class _Task:
    """One queued request: inputs, its future, and its queue deadline."""

    __slots__ = ("name", "queries", "batch", "deadline", "future", "enqueued")

    def __init__(self, name, queries, batch, deadline, enqueued):
        self.name = name
        self.queries = queries
        self.batch = batch
        self.deadline = deadline
        self.future: Future = Future()
        self.enqueued = enqueued


class ServePool:
    """N worker threads draining a bounded queue of estimate requests.

    Args:
        service: the :class:`EstimatorService` requests run against.
        workers: worker-thread count.
        max_queue: queued-request cap; submissions beyond it are shed
            to the service's uniform prior.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        service: EstimatorService,
        *,
        workers: int = 2,
        max_queue: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        self.service = service
        self.workers = workers
        self._clock = clock
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._closed = threading.Event()
        registry = service.metrics
        self._pool_requests = registry.counter(
            "serve_pool_requests_total",
            "pool submissions, by outcome",
            ["outcome"],
        )
        self._depth_gauge = registry.gauge(
            "serve_pool_queue_depth", "requests currently queued"
        )
        self._shed_counter = registry.counter(
            "serve_pool_shed_total",
            "requests shed, by reason",
            ["reason"],
        )
        self._wait_seconds = registry.histogram(
            "serve_pool_wait_seconds",
            "seconds a request spent queued before a worker picked it up",
        )
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"serve-pool-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        query: TwigQuery,
        *,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue one estimate; the future resolves to an
        :class:`EstimateResponse` (shed responses included — the future
        never carries an exception for load or estimation failures)."""
        return self._enqueue(name, [query], batch=False, deadline=deadline)

    def submit_batch(
        self,
        name: str,
        queries,
        *,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue a batch; the future resolves to a list of
        :class:`EstimateResponse`, one per query in order, computed by
        :meth:`EstimatorService.submit_batch`."""
        return self._enqueue(
            name, list(queries), batch=True, deadline=deadline
        )

    async def estimate_async(
        self,
        name: str,
        query: TwigQuery,
        *,
        deadline: Optional[float] = None,
    ) -> EstimateResponse:
        """``await``-able :meth:`submit` for asyncio callers."""
        return await asyncio.wrap_future(
            self.submit(name, query, deadline=deadline)
        )

    def _enqueue(self, name, queries, batch, deadline) -> Future:
        if self._closed.is_set():
            raise ServiceError("the serve pool is closed")
        # fail fast on an unknown sketch: a misaddressed request is a
        # caller bug, not load, so it raises instead of shedding
        self.service.sketch(name)
        if deadline is not None and deadline <= 0:
            raise ServiceError(
                f"deadline must be positive, got {deadline!r}"
            )
        task = _Task(name, queries, batch, deadline, self._clock())
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            self._shed(task, "queue_full", "shed: queue full")
            return task.future
        self._depth_gauge.set(self._queue.qsize())
        return task.future

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            try:
                task = self._queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            self._depth_gauge.set(self._queue.qsize())
            waited = self._clock() - task.enqueued
            self._wait_seconds.observe(waited)
            remaining = task.deadline
            if remaining is not None:
                remaining -= waited
                if remaining <= 0:
                    self._shed(
                        task, "deadline", "shed: deadline expired in queue"
                    )
                    continue
            try:
                if task.batch:
                    result = self.service.submit_batch(
                        task.name, task.queries, deadline=remaining
                    )
                else:
                    result = self.service.estimate(
                        task.name, task.queries[0], deadline=remaining
                    )
            except BaseException as exc:
                self._pool_requests.inc(outcome="error")
                task.future.set_exception(exc)
                continue
            self._pool_requests.inc(outcome="ok")
            task.future.set_result(result)

    def _shed(self, task: _Task, reason: str, message: str) -> None:
        """Resolve a request to the uniform prior without running tiers."""
        self._shed_counter.inc(reason=reason)
        self._pool_requests.inc(outcome="shed")
        responses = [
            EstimateResponse(
                self.service.uniform_prior,
                TIER_UNIFORM,
                task.name,
                0.0,
                (message,),
            )
            for _ in task.queries
        ]
        task.future.set_result(responses if task.batch else responses[0])

    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting work; drain the queue, then stop the workers."""
        if self._closed.is_set():
            return
        self._closed.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._depth_gauge.set(0)

    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
