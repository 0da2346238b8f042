"""Synthetic load generation for the serving layer (and its benches).

Real request streams are not uniform, and the cluster's two headline
mechanisms only matter under non-uniform load: consistent-hash routing
pays off when a few request shapes dominate (they keep coalescing on
their shard), and load shedding/quotas pay off when arrivals burst.
This module generates both properties deterministically:

* **Zipfian kernel mix** — a catalog of ``shapes`` distinct request
  shapes (kernel, width, operand payload) is sampled with probability
  ``∝ 1/rank^zipf_s``: a few hot shapes, a long cold tail, the
  classic skew of content-addressed traffic.  Tenants are sampled from
  the same law, so one tenant is reliably hot (what quotas exist for).
* **Markov-modulated (bursty) arrivals** — a two-state MMPP: Poisson
  arrivals at ``rate_hz`` in the calm state and ``burst_rate_hz`` in
  the burst state, switching state after each arrival with probability
  ``p_burst``/``p_calm``.  ``rate_hz=None`` disables pacing entirely
  (closed-loop: submit as fast as the server accepts — the throughput-
  bench mode).
* **Mixed deadlines** — a ``deadline_fraction`` slice of requests
  carries a per-request deadline drawn uniformly from
  ``deadline_range_s``; the rest are best-effort.

Everything is seeded (:class:`random.Random`; no global state), so a
profile generates the identical request list in every process — the
property the routing-stability tests and the 1-vs-N-shard throughput
comparison both rely on.

Requests are built through :func:`repro.serve.request.make_request`
(the ``api.request`` path); submit them with
:func:`run_load`, which drives any server core (or cluster) and
reduces the outcome to a :class:`LoadReport`.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..errors import DeadlineExceeded, ServeError, ServerOverloaded
from .request import ServeRequest, ServeResult, make_request

__all__ = [
    "LoadProfile",
    "LoadReport",
    "arrival_gaps",
    "generate",
    "run_load",
]


class _Submits(Protocol):
    """Anything that can serve a request (server, cluster, or client)."""

    async def submit(self, request: ServeRequest) -> ServeResult:
        ...


@dataclass(frozen=True)
class LoadProfile:
    """One reproducible traffic recipe (see the module docstring).

    ``kernels`` lists the ``(kernel, width)`` families in the mix;
    ``shapes`` distinct request shapes are spread round-robin across
    them, each with its own seeded operand payload of ``words`` words.
    ``backend`` applies to every request (``"auto"`` resolves to the
    bit-plane replay; ``"functional"`` pins the NumPy replay).
    """

    kernels: Tuple[Tuple[str, int], ...] = (
        ("adder", 32), ("word-compare", 32), ("cam-match", 32),
        ("adder", 16),
    )
    shapes: int = 64
    words: int = 8
    zipf_s: float = 1.1
    backend: str = "functional"
    tenants: int = 4
    deadline_fraction: float = 0.0
    deadline_range_s: Tuple[float, float] = (0.5, 5.0)
    rate_hz: Optional[float] = None
    burst_rate_hz: Optional[float] = None
    p_burst: float = 0.05
    p_calm: float = 0.2
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ServeError("profile needs at least one (kernel, width)")
        if self.shapes < 1:
            raise ServeError(f"shapes must be >= 1, got {self.shapes}")
        if self.words < 1:
            raise ServeError(f"words must be >= 1, got {self.words}")
        if self.tenants < 1:
            raise ServeError(f"tenants must be >= 1, got {self.tenants}")
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ServeError("deadline_fraction must be within [0, 1]")


def _zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def _shape_catalog(
    profile: LoadProfile, rng: random.Random
) -> List[Tuple[str, int, Dict[str, Tuple[int, ...]]]]:
    """The distinct request shapes the zipfian law samples from."""
    catalog: List[Tuple[str, int, Dict[str, Tuple[int, ...]]]] = []
    for index in range(profile.shapes):
        kernel, width = profile.kernels[index % len(profile.kernels)]
        # The comparator family is fixed 2-bit; cap operand values to
        # the kernel's width either way.
        bits = 2 if kernel == "comparator" else width
        mask = (1 << bits) - 1
        operands = {
            name: tuple(rng.randint(0, mask) for _ in range(profile.words))
            for name in ("a", "b")
        }
        catalog.append((kernel, width, operands))
    return catalog


def generate(profile: LoadProfile, count: int) -> List[ServeRequest]:
    """*count* requests drawn deterministically from *profile*.

    The same profile yields the identical list in every process — the
    zipfian ranks, operand payloads, tenants and deadlines all come
    from one seeded :class:`random.Random`.
    """
    rng = random.Random(profile.seed)
    catalog = _shape_catalog(profile, rng)
    shape_weights = _zipf_weights(len(catalog), profile.zipf_s)
    tenant_weights = _zipf_weights(profile.tenants, profile.zipf_s)
    shape_picks = rng.choices(range(len(catalog)), shape_weights, k=count)
    tenant_picks = rng.choices(range(profile.tenants), tenant_weights,
                               k=count)
    requests: List[ServeRequest] = []
    low, high = profile.deadline_range_s
    for index in range(count):
        kernel, width, operands = catalog[shape_picks[index]]
        deadline: Optional[float] = None
        if profile.deadline_fraction and rng.random() < profile.deadline_fraction:
            deadline = rng.uniform(low, high)
        requests.append(make_request(
            id=f"load-{index}",
            kernel=kernel,
            width=width,
            operands=operands,
            backend=profile.backend,
            deadline_s=deadline,
            tenant=f"tenant-{tenant_picks[index]}",
        ))
    return requests


def arrival_gaps(profile: LoadProfile, count: int) -> List[float]:
    """Inter-arrival gaps (seconds) for *count* requests.

    Two-state MMPP: exponential gaps at ``rate_hz`` (calm) or
    ``burst_rate_hz`` (burst), with per-arrival state switches.  All
    zeros when ``rate_hz`` is ``None`` (closed-loop mode).
    """
    if profile.rate_hz is None:
        return [0.0] * count
    # Separate seed stream so pacing never perturbs the request mix.
    rng = random.Random(profile.seed + 1)
    burst_rate = profile.burst_rate_hz or profile.rate_hz * 10.0
    gaps: List[float] = []
    bursting = False
    for _ in range(count):
        rate = burst_rate if bursting else profile.rate_hz
        gaps.append(rng.expovariate(rate))
        if bursting:
            bursting = rng.random() >= profile.p_calm
        else:
            bursting = rng.random() < profile.p_burst
    return gaps


@dataclass
class LoadReport:
    """What one :func:`run_load` drive observed, reduced."""

    requests: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    energy_j: float = 0.0

    def bump(self, status: str) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1

    @property
    def served(self) -> int:
        return self.counts.get("ok", 0) + self.counts.get("cached", 0)

    @property
    def throughput_rps(self) -> float:
        return self.served / self.wall_s if self.wall_s else 0.0

    def latency_quantile(self, q: float) -> float:
        """The q-quantile (0..1) of successful request wall latency."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[index]

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return (f"{self.requests} requests in {self.wall_s:.3f}s "
                f"({self.throughput_rps:.0f} req/s; {parts or 'none'}; "
                f"p50={self.latency_quantile(0.50) * 1e3:.1f}ms "
                f"p99={self.latency_quantile(0.99) * 1e3:.1f}ms)")


async def run_load(
    server: _Submits,
    profile: LoadProfile,
    *,
    count: int = 512,
    requests: Optional[Sequence[ServeRequest]] = None,
) -> LoadReport:
    """Drive *server* with *profile*'s traffic and reduce the outcome.

    Open-loop when the profile paces arrivals (requests launch on the
    MMPP schedule regardless of completions — the honest way to
    observe queueing under burst), closed-loop otherwise.  Typed serve
    failures are tallied, never raised: shedding is an outcome the
    report counts (``rejected`` / ``deadline`` / ``error``), not a
    load-generator crash.
    """
    batch = list(requests) if requests is not None else generate(
        profile, count)
    gaps = arrival_gaps(profile, len(batch))
    report = LoadReport(requests=len(batch))

    async def drive(request: ServeRequest) -> None:
        started = time.perf_counter()
        try:
            result = await server.submit(request)
        except ServerOverloaded:
            report.bump("rejected")
        except DeadlineExceeded:
            report.bump("deadline")
        except ServeError:
            report.bump("error")
        else:
            report.bump("cached" if result.cached else "ok")
            report.latencies_s.append(time.perf_counter() - started)
            report.energy_j += result.energy

    tasks: List["asyncio.Task[None]"] = []
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    for request, gap in zip(batch, gaps):
        if gap:
            await asyncio.sleep(gap)
        tasks.append(loop.create_task(drive(request)))
    if tasks:
        await asyncio.gather(*tasks)
    report.wall_s = time.perf_counter() - started
    return report
