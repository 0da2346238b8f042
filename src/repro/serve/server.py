"""The asyncio batching job server.

Dataflow (DESIGN.md section 8)::

    submit() ──▶ admission ──▶ bounded queue ──▶ batcher ──▶ worker pool
                 spec, auto,        │ full         │ window      │
                 key, cache         ▼              ▼             ▼
                    │ hit    ServerOverloaded   coalesce     engine batch
                    ▼                           by key     ──▶ split ──▶ futures
                 cached result

* **Admission** — :class:`_Admission` resolves the spec and the
  ``"auto"`` backend, computes the result key once and probes the
  result cache, in that order; a cluster and its shards share one.

* **Backpressure** — the request queue is bounded (``queue_limit``);
  a full queue rejects the submission with
  :class:`~repro.errors.ServerOverloaded` *before* accepting it, so an
  overload burst never corrupts or delays already-accepted work.
* **Dynamic batching** — the batcher takes the first queued request,
  then keeps collecting until ``max_batch_size`` requests or
  ``max_wait_us`` microseconds, whichever first; the window's requests
  are grouped by :meth:`~repro.serve.request.ServeRequest.batch_key`
  and each group coalesces into one engine execution
  (:func:`~repro.engine.coalesce_operand_batches` ➜
  :func:`~repro.engine.run_kernel` ➜ :meth:`~repro.engine.BatchResult.split`).
* **Deadlines** — each request may carry ``deadline_s``; expiry
  cancels the submitter's wait with
  :class:`~repro.errors.DeadlineExceeded` and drops the request from
  any batch it has not yet joined.
* **Retries** — transient executor failures (default:
  :class:`~repro.errors.TransientExecutorError`) retry with exponential
  backoff up to ``retries`` times; exhaustion surfaces the *original*
  executor error to every coalesced submitter.
* **Result cache** — completed results are kept in an LRU keyed on
  request digest + resolved spec digest; repeat submissions return
  immediately (``cached=True``).
* **Drain** — :meth:`KernelServer.drain` stops intake, lets every
  queued and in-flight request finish, then shuts the pool down;
  ``async with KernelServer(...)`` drains on exit.

Telemetry (all always-on unless ``telemetry=False``): per-request
trace propagation (``trace_id``/``request_id`` riding
:mod:`repro.obs.context` through the batcher onto the worker pool, so
engine spans executed inside a coalesced batch carry the request
identity), a :class:`~repro.obs.flight.FlightRecord` per request with
stage timings (``queue_wait`` / ``batch_wait`` / ``execute`` /
``split``), ``serve_requests_total{status=}`` (ok / cached / rejected /
deadline / error), per-kernel ``serve_request_wall_seconds``
(µs-resolution buckets) and ``serve_request_latency_seconds`` (live
p50/p95/p99 summary), ``serve_batch_size`` + ``serve_batch_words``
histograms, ``serve_queue_depth`` gauge, ``serve_retries_total``
counter, and a ``serve/<kernel>`` span per executed batch linking every
member request id.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from ..engine import (
    BatchResult,
    coalesce_operand_batches,
    resolve_kernel,
    run_kernel,
)
from ..errors import (
    DeadlineExceeded,
    ServeError,
    ServerOverloaded,
    TransientExecutorError,
)
from ..obs.context import (
    TraceContext,
    bind_trace,
    new_request_id,
    new_trace_context,
    new_trace_id,
    unbind_trace,
)
from ..obs.flight import FlightRecord, FlightRecorder, get_flight_recorder
from ..obs.logsetup import get_logger
from ..obs.registry import LATENCY_BUCKETS, Histogram, Summary, get_registry
from ..obs.tracing import get_tracer
from ..spec import TABLE1, TechSpec
from .request import ServeRequest, ServeResult

__all__ = ["KernelServer", "RunBatchFn", "SpecResolver"]

_LOG = get_logger("serve")

#: Injectable batch executor: ``(request, operands, spec) -> BatchResult``.
#: *request* is the group's representative; *operands* the coalesced
#: packed operand mapping (``None`` for evaluate / analytical groups).
RunBatchFn = Callable[
    [ServeRequest, Optional[Mapping[str, np.ndarray]], TechSpec],
    BatchResult,
]

_REGISTRY = get_registry()
_REQUESTS_FAMILY = _REGISTRY.counter(
    "serve_requests_total", "serving requests, by terminal status")
_REQUESTS = {
    status: _REQUESTS_FAMILY.labels(status=status)
    for status in ("ok", "cached", "rejected", "deadline", "error")
}
_BATCH_SIZE = _REGISTRY.histogram(
    "serve_batch_size", "requests coalesced per executed batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
_BATCH_WORDS = _REGISTRY.histogram(
    "serve_batch_words", "operand words per executed batch",
    buckets=(1, 4, 16, 64, 256, 1024, 4096, 16384))
_QUEUE_DEPTH = _REGISTRY.gauge(
    "serve_queue_depth", "requests waiting in the server queue")
_RETRIES = _REGISTRY.counter(
    "serve_retries_total", "transient executor failures retried")
_AUTOROUTE_FAMILY = _REGISTRY.counter(
    "serve_autoroute_total",
    "auto-routed requests, by resolved backend")
_AUTOROUTE = {
    backend: _AUTOROUTE_FAMILY.labels(backend=backend)
    for backend in ("functional_bitplane", "analytical")
}
_WALL = _REGISTRY.histogram(
    "serve_request_wall_seconds",
    "request wall latency (accept to respond), by kernel",
    buckets=LATENCY_BUCKETS)
_LATENCY = _REGISTRY.summary(
    "serve_request_latency_seconds",
    "live wall-latency quantiles (p50/p95/p99), by kernel")
_WALL_CHILDREN: Dict[str, Tuple[Histogram, Summary]] = {}


def _observe_walls(kernel: str, walls: Sequence[float]) -> None:
    """Flush wall latencies for *kernel* in two locked calls (the
    labelled children are cached: labels() is a locked dict lookup)."""
    if not walls:
        return
    pair = _WALL_CHILDREN.get(kernel)
    if pair is None:
        pair = (_WALL.labels(kernel=kernel), _LATENCY.labels(kernel=kernel))
        _WALL_CHILDREN[kernel] = pair
    pair[0].observe_many(walls)
    pair[1].observe_many(walls)


@dataclass
class _Pending:
    """One accepted request waiting for its batch to complete.

    ``key`` is admission's result-cache key (request digest ``:`` spec
    digest), read back instead of re-hashing the operands.
    Telemetry rides along as raw ``perf_counter`` stamps (``trace`` set
    means telemetry is on for this request); the
    :class:`~repro.obs.flight.FlightRecord` itself is assembled once at
    finalize time — building the record lazily keeps the per-request
    hot path to a handful of float stores.  ``group_stamps`` is one
    tuple shared by every member of an executed batch:
    ``(started, executed, retries, batch_requests, batch_words)``.
    """

    request: ServeRequest
    spec: TechSpec
    key: str
    future: "asyncio.Future[ServeResult]"
    expires_at: Optional[float] = None
    cancelled: bool = False
    trace: Optional[TraceContext] = None
    accepted_at: float = 0.0
    dequeued_at: float = 0.0
    group_stamps: Optional[Tuple[float, float, int, int, int]] = None
    flight_done: bool = False

    @property
    def digest(self) -> str:  # the request digest: the key's first half
        return self.key.partition(":")[0]


class _Stop:
    """Queue sentinel that ends the batcher after a drain."""


_STOP = _Stop()


def _default_run_batch(
    request: ServeRequest,
    operands: Optional[Mapping[str, np.ndarray]],
    spec: TechSpec,
) -> BatchResult:
    """The production executor: resolve + run the engine kernel."""
    kernel = resolve_kernel(request.kernel, request.width)
    if request.backend == "analytical":
        words = request.words if operands is None else None
        return run_kernel(kernel, operands or None, backend="analytical",
                          words=words, spec=spec)
    return run_kernel(kernel, operands or {}, backend=request.backend,
                      spec=spec)


def _run_evaluate(request: ServeRequest, spec: TechSpec) -> Dict[str, float]:
    """Execute one Table 2 evaluation under *spec* (pool thread)."""
    from ..core.evaluate import table2

    packing = str(request.params.get("dna_packing", "paper"))
    result = table2(dna_packing=packing, spec=spec)
    metrics: Dict[str, float] = {}
    for (application, architecture), metric_set in result.metrics.items():
        for name, value in metric_set.as_dict().items():
            metrics[f"{application}.{architecture}.{name}"] = value
    for application, factors in result.improvements.items():
        metrics[f"{application}.improvement.energy_delay"] = factors.energy_delay
        metrics[f"{application}.improvement.computing_efficiency"] = (
            factors.computing_efficiency)
    return metrics


class SpecResolver:
    """Per-request spec derivation with a bounded memo.

    ``TechSpec.derive`` walks and re-freezes the whole tree, so
    admission memoises derivations per canonical override payload.
    The memo is a simple bounded dict — overrides repeat heavily in
    steady state.
    """

    def __init__(self, base: TechSpec, *, capacity: int = 256) -> None:
        self.base = base
        self._capacity = int(capacity)
        self._memo: Dict[str, TechSpec] = {}

    def resolve(self, overrides: Mapping[str, Any]) -> TechSpec:
        if not overrides:
            return self.base
        key = json.dumps(
            {k: overrides[k] for k in sorted(overrides)},
            sort_keys=True, default=str)
        spec = self._memo.get(key)
        if spec is None:
            spec = self.base.derive(overrides)
            if len(self._memo) >= self._capacity:
                self._memo.pop(next(iter(self._memo)))
            self._memo[key] = spec
        return spec


class _Admission:
    """The one admission step every request crosses, in this order:
    spec → ``"auto"`` backend → result key → result-cache probe.

    A :class:`~repro.serve.cluster.ClusterServer` hands its instance to
    every shard, so a cluster resolves, digests and caches each request
    once.  A hit is answered here (flight record, wall latency); a miss
    leaves as a :class:`_Pending` whose key the executing server
    :meth:`fill`-s.  ``lock`` guards the cache and ``stats()``.
    """

    def __init__(
        self,
        spec: TechSpec,
        *,
        cache_capacity: int,
        telemetry: bool,
        flight: FlightRecorder,
    ) -> None:
        self.specs = SpecResolver(spec)
        self.cache_capacity = int(cache_capacity)
        self.cache: "OrderedDict[str, ServeResult]" = OrderedDict()
        self.telemetry = telemetry
        self.flight = flight
        self.lock = threading.Lock()

    def admit(self, request: ServeRequest) -> Union[ServeResult, _Pending]:
        """A cached result, or the admitted request ready to queue."""
        trace: Optional[TraceContext] = None
        accepted_at = 0.0
        if self.telemetry:
            if request.trace_id or request.id:
                trace = TraceContext(
                    trace_id=request.trace_id or new_trace_id(),
                    request_id=request.id or new_request_id(),
                )
            else:
                trace = new_trace_context()
            accepted_at = time.perf_counter()
        spec = self.specs.resolve(request.overrides)
        if request.backend == "auto" and request.kind == "kernel":
            # Operand batches run the bit-plane replay whatever their
            # size; operand-less requests want pricing, not values.
            backend = ("functional_bitplane" if request.operands
                       else "analytical")
            _AUTOROUTE[backend].inc()
            request = replace(request, backend=backend)
        # Keyed on the resolved spec too, so re-pointed specs never
        # collide; the backend is concrete from here on, so auto requests
        # digest, batch, bill and cache exactly like explicit ones.
        key = f"{request.digest}:{spec.digest}"
        with self.lock:
            cached = self.cache.get(key)
            if cached is not None:
                self.cache.move_to_end(key)
        if cached is None:
            loop = asyncio.get_running_loop()
            return _Pending(
                request, spec, key, loop.create_future(),
                expires_at=(None if request.deadline_s is None
                            else loop.time() + request.deadline_s),
                trace=trace, accepted_at=accepted_at)
        _REQUESTS["cached"].inc()
        trace_id = request.trace_id
        if trace is not None:
            trace_id = trace.trace_id
            now = time.perf_counter()
            kernel = request.kernel or request.kind
            self.flight.record(FlightRecord(
                request_id=trace.request_id, trace_id=trace_id,
                kernel=kernel, backend=request.backend, status="cached",
                cache_hit=True, accepted_at=accepted_at,
                finished_at=now, closed=True))
            _observe_walls(kernel, [now - accepted_at])
        return cached.for_request(request.id, cached=True, trace_id=trace_id)

    def fill(self, key: str, result: ServeResult) -> None:
        if self.cache_capacity < 1:
            return
        with self.lock:
            self.cache[key] = result
            self.cache.move_to_end(key)
            while len(self.cache) > self.cache_capacity:
                self.cache.popitem(last=False)


class _Submitter:
    """The bulk-submit idiom both servers share over their ``submit``."""

    async def submit(self, request: ServeRequest) -> ServeResult:
        raise NotImplementedError

    async def submit_many(
        self,
        requests: Sequence[ServeRequest],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ServeResult, BaseException]]:
        """Submit a request mix concurrently, preserving order.

        With ``return_exceptions`` each failed slot holds its typed
        error instead of aborting the gather — the bulk-client idiom.
        """
        return await asyncio.gather(
            *(self.submit(r) for r in requests),
            return_exceptions=return_exceptions,
        )


class KernelServer(_Submitter):
    """Asyncio front door for kernel execution and evaluation requests.

    See the module docstring for the dataflow.  All methods must be
    called from one running event loop; the heavy lifting happens on a
    ``workers``-sized thread pool, with at most ``workers`` batches in
    flight.

    Parameters mirror the serving knobs: ``max_batch_size`` /
    ``max_wait_us`` (the batching window), ``queue_limit``
    (backpressure bound), ``retries`` / ``backoff_s`` / ``transient``
    (retry policy), ``cache_capacity`` (digest result cache),
    ``spec`` (base :class:`~repro.spec.TechSpec`; per-request
    ``overrides`` derive from it), ``run_batch`` (injectable
    executor, for tests and alternative engines), ``telemetry``
    (request-scoped tracing + flight records + latency quantiles; on by
    default, the off switch exists for the A/B overhead benchmark), and
    ``flight`` (the recorder to write to; the process-wide one by
    default).
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 64,
        max_wait_us: float = 500.0,
        queue_limit: int = 1024,
        workers: int = 4,
        retries: int = 2,
        backoff_s: float = 0.005,
        cache_capacity: int = 1024,
        spec: TechSpec = TABLE1,
        run_batch: Optional[RunBatchFn] = None,
        transient: Tuple[Type[BaseException], ...] = (TransientExecutorError,),
        telemetry: bool = True,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ServeError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_us < 0:
            raise ServeError(f"max_wait_us must be >= 0, got {max_wait_us}")
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_us = float(max_wait_us)
        self.queue_limit = int(queue_limit)
        self.workers = int(workers)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.cache_capacity = int(cache_capacity)
        self.transient = transient
        self._run_batch: RunBatchFn = run_batch or _default_run_batch
        self.telemetry = bool(telemetry)
        self._flight = flight if flight is not None else get_flight_recorder()
        self._admission = _Admission(
            spec, cache_capacity=self.cache_capacity,
            telemetry=self.telemetry, flight=self._flight)
        self._shard = False

        # The asyncio primitives are created lazily inside the running
        # loop (_ensure_started): on Python 3.9 constructing them here
        # would bind whatever loop get_event_loop() returns at import
        # time, breaking later use under asyncio.run().
        self._queue: Optional["asyncio.Queue[Union[_Pending, _Stop]]"] = None
        self._batcher_task: Optional["asyncio.Task[None]"] = None
        self._inflight: "set[asyncio.Task[None]]" = set()
        self._sem: Optional[asyncio.Semaphore] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._draining = False
        self._closed = False

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the queue right now (0 before start)."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def spec(self) -> TechSpec:
        """The active base spec (per-request ``overrides`` derive from it)."""
        return self._admission.specs.base

    @spec.setter
    def spec(self, value: TechSpec) -> None:
        # Re-pointing the active spec rebuilds the derivation memo:
        # cached derivations of the old base must never leak.
        self._admission.specs = SpecResolver(value)

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "KernelServer":
        self._ensure_started()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()

    def _ensure_started(self) -> None:
        if self._closed:
            raise ServeError("server is closed")
        if self._batcher_task is None or self._batcher_task.done():
            if self._draining:
                raise ServeError("server is draining; not accepting requests")
            if self._queue is None:
                self._queue = asyncio.Queue()
            if self._sem is None:
                self._sem = asyncio.Semaphore(self.workers)
            self._pool = self._pool or ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve")
            self._batcher_task = asyncio.get_running_loop().create_task(
                self._batch_loop(), name="repro-serve-batcher")

    async def drain(self) -> None:
        """Stop intake, finish all accepted work, release the pool."""
        if self._closed:
            return
        self._draining = True
        if self._batcher_task is not None:
            assert self._queue is not None
            self._queue.put_nowait(_STOP)
            await self._batcher_task
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._batcher_task = None
        self._closed = True
        _QUEUE_DEPTH.set(0)

    # -- client API ---------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResult:
        """Serve one request; raises the typed serve errors on failure.

        Cache hits return immediately; otherwise the request is queued
        (or rejected with :class:`~repro.errors.ServerOverloaded` when
        the queue is full) and awaited until its batch completes or its
        deadline expires (:class:`~repro.errors.DeadlineExceeded`).
        """
        if self._draining or self._closed:
            raise ServeError("server is draining; not accepting requests")
        admitted = self._admission.admit(request)
        if isinstance(admitted, ServeResult):
            return admitted
        return await self._enqueue(admitted)

    # -- internals ----------------------------------------------------------

    def _behind(self, admission: _Admission) -> None:
        """Serve as a cluster shard behind *admission*: this server owns
        no cache or spec memo of its own."""
        self._admission = admission
        self._shard = True

    async def _enqueue(self, pending: _Pending) -> ServeResult:
        """Queue an admitted request; await its batch or its deadline."""
        self._ensure_started()
        assert self._queue is not None
        queue = self._queue
        request = pending.request
        trace = pending.trace
        if queue.qsize() >= self.queue_limit:
            _REQUESTS["rejected"].inc()
            if trace is not None:
                flight = FlightRecord(
                    request_id=trace.request_id, trace_id=trace.trace_id,
                    kernel=request.kernel or request.kind,
                    backend=request.backend, status="rejected",
                    error="queue full", accepted_at=pending.accepted_at,
                    finished_at=time.perf_counter(), closed=True)
                self._flight.record(flight)
                _LOG.warning("overloaded: %s", flight.describe())
            raise ServerOverloaded(
                f"request queue full ({self.queue_limit} pending); retry later"
            )

        queue.put_nowait(pending)
        _QUEUE_DEPTH.set(queue.qsize())
        if request.deadline_s is None:
            return await pending.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(pending.future), request.deadline_s)
        except asyncio.TimeoutError:
            pending.cancelled = True
            pending.future.cancel()
            _REQUESTS["deadline"].inc()
            self._finalize_flight(
                pending, "deadline",
                error=f"missed {request.deadline_s}s deadline")
            raise DeadlineExceeded(
                f"request {request.id or pending.key[:12]} missed its "
                f"{request.deadline_s}s deadline"
            ) from None

    async def _batch_loop(self) -> None:
        """Collect batching windows forever (until the drain sentinel)."""
        loop = asyncio.get_running_loop()
        assert self._queue is not None
        queue = self._queue
        stopping = False
        while not stopping:
            first = await queue.get()
            if isinstance(first, _Stop):
                break
            self._mark_dequeued(first)
            batch: List[_Pending] = [first]
            window_end = loop.time() + self.max_wait_us * 1e-6
            while len(batch) < self.max_batch_size:
                # Drain whatever is already queued without touching the
                # event loop — one wait_for per *item* would burn the
                # whole window on task scheduling during bursts.
                try:
                    item: Union[_Pending, _Stop] = queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = window_end - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                if isinstance(item, _Stop):
                    stopping = True
                    break
                self._mark_dequeued(item)
                batch.append(item)
            _QUEUE_DEPTH.set(queue.qsize())
            for group in self._group(batch):
                task = loop.create_task(self._run_group(group))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)

    @staticmethod
    def _group(batch: Sequence[_Pending]) -> List[List[_Pending]]:
        groups: "OrderedDict[Tuple[Any, ...], List[_Pending]]" = OrderedDict()
        for pending in batch:
            key = pending.request.batch_key(pending.spec.digest)
            groups.setdefault(key, []).append(pending)
        return list(groups.values())

    def _expire(self, members: Sequence[_Pending]) -> List[_Pending]:
        """Drop cancelled/deadline-expired members, failing their futures."""
        now = asyncio.get_running_loop().time()
        live: List[_Pending] = []
        for pending in members:
            expired = (pending.expires_at is not None
                       and now >= pending.expires_at)
            if pending.cancelled or pending.future.done():
                continue
            if expired:
                pending.cancelled = True
                _REQUESTS["deadline"].inc()
                pending.future.set_exception(DeadlineExceeded(
                    f"request {pending.request.id or '?'} expired "
                    "before its batch ran"))
                self._finalize_flight(pending, "deadline",
                                      error="expired before its batch ran")
                continue
            live.append(pending)
        return live

    async def _execute_with_retry(
        self,
        fn: Callable[[], Any],
        kernel_name: str,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[Any, int]:
        """Run *fn* on the pool; retry transient failures with backoff.

        Returns ``(result, retries_used)``.  When *trace* is given it is
        bound into the context the pool thread runs under —
        ``run_in_executor`` does **not** propagate contextvars by
        itself, so without the explicit ``copy_context().run`` the
        engine spans inside *fn* could not see the request identity.
        """
        loop = asyncio.get_running_loop()
        assert self._pool is not None
        call = fn
        if trace is not None:
            token = bind_trace(trace)
            try:
                snapshot = contextvars.copy_context()
            finally:
                unbind_trace(token)
            call = lambda: snapshot.run(fn)  # noqa: E731 - tiny adapter
        original: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            try:
                return await loop.run_in_executor(self._pool, call), attempt
            except self.transient as exc:
                if original is None:
                    original = exc
                if attempt >= self.retries:
                    raise original
                _RETRIES.inc()
                await asyncio.sleep(self.backoff_s * (2 ** attempt))
        raise ServeError(f"unreachable retry state for {kernel_name}")

    async def _run_group(self, members: Sequence[_Pending]) -> None:
        """Coalesce, execute (with retries), split, respond, cache."""
        assert self._sem is not None
        async with self._sem:
            live = self._expire(members)
            if not live:
                return
            representative = live[0]
            request = representative.request
            spec = representative.spec
            name = request.kernel or request.kind
            _BATCH_SIZE.observe(len(live))
            try:
                if request.kind == "evaluate":
                    await self._run_evaluate_group(live)
                    return
                merged: Optional[Dict[str, np.ndarray]] = None
                sizes = [p.request.words for p in live]
                if request.operands:
                    merged, sizes = coalesce_operand_batches(
                        [p.request.operands for p in live])
                total_words = sum(sizes)
                _BATCH_WORDS.observe(total_words)
                # The span is opened *after* the awaited execution and
                # backdated: concurrent groups interleave on the event
                # loop, so holding it open across the await would close
                # spans out of LIFO order.
                started = time.perf_counter()
                batch, retries_used = await self._execute_with_retry(
                    lambda: self._run_batch(request, merged, spec), name,
                    trace=representative.trace)
                executed = time.perf_counter()
                self._stamp_group(live, started, executed, retries_used,
                                  len(live), total_words)
                attrs: Dict[str, Any] = dict(
                    requests=len(live), words=total_words,
                    backend=request.backend, spec=spec.short_digest)
                if representative.trace is not None:
                    attrs["trace_id"] = representative.trace.trace_id
                    attrs["request_ids"] = self._request_ids(live)
                with get_tracer().span(f"serve/{name}", **attrs) as span:
                    span.backdate(started)
                    span.add_sim(energy=batch.energy, latency=batch.latency,
                                 steps=batch.steps_per_word * batch.words)
                self._respond_kernel(live, batch, sizes, total_words)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - fanned out to futures
                for pending in live:
                    if not pending.future.done():
                        _REQUESTS["error"].inc()
                        pending.future.set_exception(exc)
                    self._finalize_flight(pending, "error", error=repr(exc))

    async def _run_evaluate_group(self, live: Sequence[_Pending]) -> None:
        representative = live[0]
        request, spec = representative.request, representative.spec
        started = time.perf_counter()
        metrics, retries_used = await self._execute_with_retry(
            lambda: _run_evaluate(request, spec), request.kind,
            trace=representative.trace)
        executed = time.perf_counter()
        self._stamp_group(live, started, executed, retries_used,
                          len(live), len(live))
        attrs: Dict[str, Any] = dict(requests=len(live),
                                     spec=spec.short_digest)
        if representative.trace is not None:
            attrs["trace_id"] = representative.trace.trace_id
            attrs["request_ids"] = self._request_ids(live)
        with get_tracer().span(f"serve/{request.kind}", **attrs) as span:
            span.backdate(started)
        walls: List[float] = []
        for pending in live:
            result = ServeResult(
                id=pending.request.id,
                kind="evaluate",
                kernel="table2",
                backend="analytical",
                words=1,
                metrics=dict(metrics),
                spec_digest=spec.digest,
                batch_words=len(live),
                batch_requests=len(live),
                digest=pending.digest,
                trace_id=self._trace_id_for(pending),
            )
            self._finish(pending, result, walls=walls)
        _observe_walls("table2", walls)

    def _respond_kernel(
        self,
        live: Sequence[_Pending],
        batch: BatchResult,
        sizes: Sequence[int],
        total_words: int,
    ) -> None:
        if not live[0].request.operands:
            # Operand-less (analytical) members of one group are
            # content-identical by construction: one execution serves all.
            parts = [batch] * len(live)
        elif len(live) > 1 or batch.words != sizes[0]:
            parts = batch.split(sizes)
        else:
            parts = [batch]
        # One unpack per output group for the whole batch; members
        # take consecutive slices of it.
        batch_words: Dict[str, List[int]] = {}
        if batch.outputs is not None:
            batch_words = {group: batch.word(group).tolist()
                           for group in batch.word_outputs}
        walls: List[float] = []
        offset = 0
        for pending, part in zip(live, parts):
            end = offset + part.words
            outputs = {group: tuple(words[offset:end])
                       for group, words in batch_words.items()}
            offset = end
            result = ServeResult(
                id=pending.request.id,
                kind=pending.request.kind,
                kernel=batch.kernel,
                backend=batch.backend,
                words=part.words,
                outputs=outputs,
                energy=part.energy,
                latency=part.latency,
                steps_per_word=part.steps_per_word,
                spec_digest=pending.spec.digest,
                batch_words=total_words,
                batch_requests=len(live),
                digest=pending.digest,
                trace_id=self._trace_id_for(pending),
            )
            self._finish(pending, result, walls=walls)
        # Label with the request-level kernel name (what the flight
        # records carry), not the engine's resolved variant name.
        first = live[0].request
        _observe_walls(first.kernel or first.kind, walls)

    def _finish(
        self,
        pending: _Pending,
        result: ServeResult,
        walls: Optional[List[float]] = None,
    ) -> None:
        self._admission.fill(pending.key, result)
        if not pending.future.done():
            _REQUESTS["ok"].inc()
            pending.future.set_result(result)
        self._finalize_flight(pending, "ok", walls=walls)

    # -- telemetry helpers ---------------------------------------------------

    @staticmethod
    def _trace_id_for(pending: _Pending) -> str:
        if pending.trace is not None:
            return pending.trace.trace_id
        return pending.request.trace_id

    @staticmethod
    def _request_ids(live: Sequence[_Pending]) -> List[str]:
        """Every member's request id — the batch-span linkage attr."""
        return [
            p.trace.request_id if p.trace is not None else (p.request.id or "?")
            for p in live
        ]

    @staticmethod
    def _mark_dequeued(pending: _Pending) -> None:
        if pending.trace is not None:
            pending.dequeued_at = time.perf_counter()

    @staticmethod
    def _stamp_group(
        live: Sequence[_Pending],
        started: float,
        executed: float,
        retries_used: int,
        batch_requests: int,
        batch_words: int,
    ) -> None:
        """Hand every member one shared tuple of batch-level stamps."""
        stamps = (started, executed, retries_used, batch_requests,
                  batch_words)
        for pending in live:
            if pending.trace is not None:
                pending.group_stamps = stamps

    def _finalize_flight(
        self,
        pending: _Pending,
        status: str,
        *,
        error: str = "",
        walls: Optional[List[float]] = None,
    ) -> None:
        """Assemble + record the flight exactly once (racing paths safe).

        The record is built here, from the stamps the pipeline left on
        *pending*, rather than mutated incrementally along the way —
        racing finish paths (submitter-side deadline vs. worker-side
        batch completion) are serialised by ``flight_done``.  When
        *walls* is given the wall latency is appended there instead of
        observed immediately: batch completion paths flush the whole
        burst through :func:`_observe_walls` in one locked call.
        """
        trace = pending.trace
        if trace is None or pending.flight_done:
            return
        pending.flight_done = True
        now = time.perf_counter()
        request = pending.request
        kernel = request.kernel or request.kind
        stages: Dict[str, float] = {}
        dequeued = pending.dequeued_at
        if dequeued:
            stages["queue_wait"] = dequeued - pending.accepted_at
        stamps = pending.group_stamps
        retries = batch_requests = batch_words = 0
        if stamps is not None:
            started, executed, retries, batch_requests, batch_words = stamps
            if dequeued:
                stages["batch_wait"] = started - dequeued
            stages["execute"] = executed - started
            if status == "ok":
                stages["split"] = now - executed
        # Positional, in FlightRecord field order — kwargs processing is
        # measurable on this per-request path.
        flight = FlightRecord(
            trace.request_id, trace.trace_id, kernel, request.backend,
            status, False, retries, batch_requests, batch_words,
            pending.accepted_at, now, stages, error, True)
        self._flight.record(flight)
        if status == "ok":
            wall = now - pending.accepted_at
            if walls is not None:
                walls.append(wall)
            else:
                _observe_walls(kernel, [wall])
        else:
            _LOG.warning("%s", flight.describe())

    def stats(self) -> Dict[str, Any]:
        """Live operational stats (the ``/healthz`` extra fields).

        Snapshotted under the admission lock: ``/healthz`` runs this from
        the telemetry HTTP thread while the event loop and pool threads
        mutate the cache and lifecycle flags, so the fields must be read
        as one consistent cut, not field-by-field mid-mutation
        (regression: ``tests/test_serve.py::
        test_stats_snapshot_is_consistent_under_concurrency``).
        """
        admission = self._admission
        with admission.lock:
            return {
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "inflight_batches": len(self._inflight),
                "workers": self.workers,
                "cache_entries": 0 if self._shard else len(admission.cache),
                "flight_capacity": self._flight.capacity,
                "telemetry": self.telemetry,
                "draining": self._draining,
                "closed": self._closed,
            }
