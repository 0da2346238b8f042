"""The sharded cluster layer: N batching servers behind one front door.

Dataflow (DESIGN.md section 12)::

    submit() ──▶ quota ──▶ admission ──▶ router ──▶ shard 0 queue (KernelServer)
                   │ over   spec, auto,     │  hash  shard 1 queue (KernelServer)
                   ▼        key, cache      │  slot    ⋮ × replicas
              ServerOverloaded  │ hit       └─▶ round-robin in slot
              (shed, counted)   ▼
                           cached result

A :class:`ClusterServer` runs ``shards × replicas``
:class:`~repro.serve.server.KernelServer` instances behind a
:class:`~repro.serve.router.ShardRouter` that consistent-hashes on the
batching identity ``(kernel, width, spec digest)``, so batchable
traffic keeps landing on the same shard and keeps coalescing there —
sharding multiplies worker pools and batch windows without giving up
the dynamic-batching win.  The front door runs a single server's
admission step (:class:`~repro.serve.server._Admission`) once per
request and queues the admitted request on the picked shard.  Shards
share that instance and keep no spec memo or cache of their own;
their deadline, retry, backpressure and billing machinery applies per
request unchanged.

Cluster-level additions:

* **Shared result cache** — admission's one LRU spans every shard; a
  repeat submission is served at the front door no matter which shard
  or replica computed it first.
* **Admission control** — ``quota`` bounds each tenant's in-flight
  requests; a tenant at its quota is shed with
  :class:`~repro.errors.ServerOverloaded` *before* admission, so one
  hot tenant cannot starve the rest (``cluster_shed_total{reason="quota"}``).
* **Load shedding** — shard backpressure (bounded queues) propagates as
  :class:`~repro.errors.ServerOverloaded` before accepted work is ever
  lost, counted on ``cluster_shed_total{reason="overload"}``.
* **Replicas** — ``replicas > 1`` puts extra servers behind every hash
  slot, round-robined per slot: the capacity knob for hot kernels,
  trading some batch coalescence for parallelism.

Telemetry: per-shard ``cluster_shard_queue_depth`` gauges,
``cluster_requests_total{shard=}`` routed counters,
``cluster_shed_total{reason=}``, ``cluster_cache_hits_total``, plus
every per-request metric and flight record the shards already emit —
all visible on the same ``/metrics`` endpoint, with ``stats()``
aggregating shard snapshots for ``/healthz``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..errors import ServeError, ServerOverloaded, TransientExecutorError
from ..obs.context import new_trace_context
from ..obs.flight import FlightRecord, FlightRecorder, get_flight_recorder
from ..obs.logsetup import get_logger
from ..obs.registry import get_registry
from ..spec import TABLE1, TechSpec
from .request import ServeRequest, ServeResult
from .router import DEFAULT_VNODES, ShardRouter
from .server import _REQUESTS, KernelServer, RunBatchFn, _Admission, _Submitter

__all__ = ["ClusterServer"]

_LOG = get_logger("serve.cluster")

_REGISTRY = get_registry()
_SHARD_DEPTH_FAMILY = _REGISTRY.gauge(
    "cluster_shard_queue_depth", "queued requests, by shard")
_ROUTED_FAMILY = _REGISTRY.counter(
    "cluster_requests_total", "requests routed to shards, by shard")
_SHED_FAMILY = _REGISTRY.counter(
    "cluster_shed_total", "requests shed at the cluster front door, by reason")
_CACHE_HITS = _REGISTRY.counter(
    "cluster_cache_hits_total", "front-door shared-result-cache hits")
_SHED = {
    reason: _SHED_FAMILY.labels(reason=reason)
    for reason in ("quota", "overload")
}


class ClusterServer(_Submitter):
    """N sharded :class:`KernelServer` instances behind one ``submit()``.

    ``shards``/``replicas``/``vnodes`` shape the
    :class:`~repro.serve.router.ShardRouter`; ``quota`` is the
    per-tenant in-flight admission bound (``None`` = unlimited);
    ``cache_capacity`` sizes the one result cache the shards share.
    Every other knob mirrors :class:`KernelServer` and applies per
    shard — ``queue_limit`` is each shard's backpressure bound,
    ``workers`` each shard's pool, so total concurrency scales with the
    shard count.

    The submit/submit_many/stats/drain surface matches
    :class:`KernelServer`, which is what lets the
    :class:`~repro.serve.client.Client` facade front either
    interchangeably.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        replicas: int = 1,
        quota: Optional[int] = None,
        vnodes: int = DEFAULT_VNODES,
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
        if quota is not None and quota < 1:
            raise ServeError(f"quota must be >= 1 in-flight, got {quota}")
        self.router = ShardRouter(shards, replicas=replicas, vnodes=vnodes)
        self.quota = None if quota is None else int(quota)
        self.cache_capacity = int(cache_capacity)
        self.telemetry = bool(telemetry)
        # The admission lock also guards the tenant counters and the
        # stats() snapshot against the telemetry HTTP thread.
        self._admission = _Admission(
            spec, cache_capacity=self.cache_capacity, telemetry=self.telemetry,
            flight=flight if flight is not None else get_flight_recorder())
        self._servers: List[KernelServer] = [
            KernelServer(
                max_batch_size=max_batch_size,
                max_wait_us=max_wait_us,
                queue_limit=queue_limit,
                workers=workers,
                retries=retries,
                backoff_s=backoff_s,
                cache_capacity=cache_capacity,
                spec=spec,
                run_batch=run_batch,
                transient=transient,
                telemetry=telemetry,
                flight=self._admission.flight,
            )
            for _ in range(self.router.servers)
        ]
        for server in self._servers:
            server._behind(self._admission)
        self._tenant_inflight: Dict[str, int] = {}
        self._draining = False
        self._closed = False
        self._routed: Dict[int, Any] = {}
        self._depth: Dict[int, Any] = {}

    # -- introspection -------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.router.shards

    @property
    def replicas(self) -> int:
        return self.router.replicas

    @property
    def servers(self) -> Sequence[KernelServer]:
        """The flattened shard×replica server list (read-only view)."""
        return tuple(self._servers)

    @property
    def spec(self) -> TechSpec:
        return self._admission.specs.base

    def describe(self) -> str:
        return (f"ClusterServer({self.router.describe()}, "
                f"quota={self.quota}, cache={self.cache_capacity})")

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "ClusterServer":
        if self._closed:
            raise ServeError("cluster is closed")
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Stop intake, drain every shard, release their pools."""
        if self._closed:
            return
        self._draining = True
        await asyncio.gather(*(server.drain() for server in self._servers))
        self._closed = True
        for shard in range(self.router.shards):
            self._depth_gauge(shard).set(0)

    # -- client API ----------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResult:
        """Serve one request through the cluster (see module docstring).

        Raises the same typed errors a single server does —
        :class:`~repro.errors.ServerOverloaded` additionally covers the
        cluster-level quota shed, always *before* the request is
        accepted, so shedding never loses admitted work.
        """
        if self._draining or self._closed:
            raise ServeError("cluster is draining; not accepting requests")
        tenant = request.tenant or "default"
        lock = self._admission.lock
        if self.quota is not None:
            with lock:
                inflight = self._tenant_inflight.get(tenant, 0)
                if inflight >= self.quota:
                    admitted = False
                else:
                    self._tenant_inflight[tenant] = inflight + 1
                    admitted = True
            if not admitted:
                self._shed(request, "quota",
                           f"tenant {tenant!r} at quota "
                           f"({self.quota} in flight); retry later")
        try:
            return await self._route(request)
        finally:
            if self.quota is not None:
                with lock:
                    remaining = self._tenant_inflight.get(tenant, 1) - 1
                    if remaining <= 0:
                        self._tenant_inflight.pop(tenant, None)
                    else:
                        self._tenant_inflight[tenant] = remaining

    async def _route(self, request: ServeRequest) -> ServeResult:
        """Admit *request*, then queue it on the shard its batching
        identity hashes to."""
        admitted = self._admission.admit(request)
        if isinstance(admitted, ServeResult):
            _CACHE_HITS.inc()
            return admitted
        request = admitted.request
        shard, replica = self.router.pick(
            request.kernel or request.kind, request.width,
            admitted.spec.digest)
        server = self._servers[self.router.server_index(shard, replica)]
        self._routed_counter(shard).inc()
        try:
            return await server._enqueue(admitted)
        except ServerOverloaded:
            _SHED["overload"].inc()
            raise
        finally:
            self._depth_gauge(shard).set(server.queue_depth)

    # -- internals -----------------------------------------------------------

    def _shed(self, request: ServeRequest, reason: str, message: str) -> None:
        """Reject *request* before admission: count, record, raise."""
        _SHED[reason].inc()
        _REQUESTS["rejected"].inc()
        if self.telemetry:
            trace = new_trace_context()
            now = time.perf_counter()
            flight = FlightRecord(
                request_id=request.id or trace.request_id,
                trace_id=request.trace_id or trace.trace_id,
                kernel=request.kernel or request.kind,
                backend=request.backend, status="rejected", error=message,
                accepted_at=now, finished_at=now, closed=True)
            self._admission.flight.record(flight)
            _LOG.warning("shed (%s): %s", reason, flight.describe())
        raise ServerOverloaded(message)

    def _routed_counter(self, shard: int) -> Any:
        child = self._routed.get(shard)
        if child is None:
            child = _ROUTED_FAMILY.labels(shard=str(shard))
            self._routed[shard] = child
        return child

    def _depth_gauge(self, shard: int) -> Any:
        child = self._depth.get(shard)
        if child is None:
            child = _SHARD_DEPTH_FAMILY.labels(shard=str(shard))
            self._depth[shard] = child
        return child

    # -- telemetry -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregated operational stats (the ``/healthz`` extras).

        One consistent cut of the cluster-level fields under the
        admission lock, plus each shard's own locked snapshot.
        """
        shard_stats = [server.stats() for server in self._servers]
        with self._admission.lock:
            tenants = dict(self._tenant_inflight)
            cache_entries = len(self._admission.cache)
            draining = self._draining
            closed = self._closed
        return {
            "shards": self.router.shards,
            "replicas": self.router.replicas,
            "servers": len(self._servers),
            "quota": self.quota,
            "tenants_inflight": tenants,
            "cache_entries": cache_entries,
            "queue_depth": sum(s["queue_depth"] for s in shard_stats),
            "inflight_batches": sum(s["inflight_batches"]
                                    for s in shard_stats),
            "workers": sum(s["workers"] for s in shard_stats),
            "telemetry": self.telemetry,
            "draining": draining,
            "closed": closed,
            "shard_stats": shard_stats,
        }


#: Either server core: what ``api.connect`` and ``serve_jsonl`` front.
AnyServer = Union[KernelServer, ClusterServer]


def _make_server(
    target: Union[str, AnyServer] = "local",
    *,
    shards: int = 1,
    replicas: int = 1,
    quota: Optional[int] = None,
    **server_options: Any,
) -> AnyServer:
    """The one KernelServer-or-ClusterServer decision behind
    ``api.connect`` and ``serve_jsonl``: an existing server as is (it
    takes no options), else a :class:`ClusterServer` for ``"cluster"``
    or any non-default cluster knob, else a :class:`KernelServer`."""
    clustered = shards != 1 or replicas != 1 or quota is not None
    if not isinstance(target, str):
        if server_options or clustered:
            raise ServeError(
                "pass either a server instance or server options, not both")
        return target
    if target == "cluster" or clustered:
        return ClusterServer(shards=shards, replicas=replicas, quota=quota,
                             **server_options)
    return KernelServer(**server_options)
