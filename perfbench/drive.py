"""Drive the workloads through the public front doors and check results.

serve-small and serve-bulk run closed-loop asyncio callers (one
process, one thread) against ``KernelServer.submit`` /
``ClusterServer.submit`` with requests built by ``api.request``; the
traced run's crossbar probe calls ``api.solve_crossbar``.  After a run
every served result is checked against an independent replay: kernel
outputs against ``run_kernel`` in full batches, billing against the
replay's per-request split, evaluations against ``api.table2``, and
every crossbar solution against KCL and charge conservation.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import api
from repro.analysis.planner import plan_request
from repro.engine import (
    clear_kernel_cache,
    coalesce_operand_batches,
    resolve_kernel,
    run_kernel,
)
from repro.obs.registry import get_registry
from repro.serve.cluster import ClusterServer
from repro.serve.server import KernelServer
from repro.spec import TABLE1

import workloads as wl
from spans import Recorder

#: Server options taken from ``api.connect``'s defaults; ``workers`` and
#: ``shards`` are pinned to the host's core count instead.
CONNECT_OPTIONS = ("max_batch_size", "max_wait_us", "queue_limit", "retries",
                   "cache_capacity")

#: Seconds the callers run before the timed window opens, so lazy
#: set-up (kernel compiles, plans, spec derivations) and the burst of
#: all callers starting together fall outside it.
WARMUP_S = {"serve-small": 2.0, "serve-bulk": 1.0}

#: The traced engine replay always covers the first N kernel requests
#: of the stream, so engine.calls / engine.words repeat exactly.
ENGINE_REPLAY = {"serve-small": 2048, "serve-bulk": 128}

#: Replayed batches hold at most this many requests (the server's
#: default max_batch_size, i.e. one full batching window).
REPLAY_BATCH = 64

#: Relative bounds of the electrical checks.
KCL_REL = 1e-9
CHARGE_REL = 1e-9
ENERGY_REL = 1e-12

#: Tail percentile.  A run leaves far more than 10 samples beyond p99,
#: but one host stall of a few hundred ms, which all in-flight callers
#: wait through together, moved serve-small's p99 by a third between
#: runs.  When a slice has too few samples the highest percentile of
#: TAIL_LADDER with 10 beyond it is used.
TAIL_PCT = 95.0
TAIL_LADDER = (90.0, 50.0)

#: The tail is taken per slice of this many seconds' worth of results,
#: in finishing order, and averaged.  The host slows down for seconds at
#: a time; pooled over a run, the top 5% of latencies all come from its
#: slowest seconds, so the pooled p95 jumps with whether a run met such
#: seconds at all.  The slice mean moves with how much of the run they
#: took, as throughput does.
TAIL_SLICE_S = 5.0

#: Operations completed (warm-up included) when peak RSS is read.  The
#: result cache grows with every request served, so reading it after a
#: fixed amount of work keeps the figure independent of throughput.
RSS_AFTER = {"serve-small": 2048, "serve-bulk": 384}

#: Which layers each workload's timed window crosses (the rest it
#: bypasses).
LAYERS = {
    "serve-small": ("request", "serve.server", "analysis.planner", "spec",
                    "core", "engine"),
    "serve-bulk": ("request", "serve.cluster", "analysis.planner", "engine"),
}
ALL_LAYERS = ("request", "serve.server", "serve.cluster", "analysis.planner",
              "spec", "core", "engine", "crossbar")
#: Paths a workload crosses but never exercises, for the accounting.
NOTES = {
    "serve-small": "kernel requests never hit the result cache (unique "
                   "operands), evaluate requests mostly do; the traced run "
                   "probes the crossbar layer outside the served window",
    "serve-bulk": "never reads the result cache (unique operands, cache "
                  "writes only); no spec derivation (no overrides); the "
                  "traced run probes the crossbar layer outside the window",
}


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def server_options(workload: str) -> Dict[str, Any]:
    """The serving options a workload runs with (recorded in the output)."""
    signature = inspect.signature(api.connect)
    options = {name: signature.parameters[name].default
               for name in CONNECT_OPTIONS}
    if workload == "serve-small":
        options.update(server="KernelServer", workers=cpu_count(), callers=64)
    else:
        options.update(server="ClusterServer", shards=cpu_count(), workers=1,
                       callers=4)
    return options


def make_server(options: Dict[str, Any]) -> Any:
    kwargs = {k: v for k, v in options.items() if k not in ("server", "callers")}
    if options["server"] == "KernelServer":
        return KernelServer(**kwargs)
    return ClusterServer(**kwargs)


# -- serve workloads ---------------------------------------------------------


@dataclass
class Outcome:
    """What one served request left behind (small: no words are kept).

    ``checksum`` is the in-process hash of the served output words (or
    evaluation metrics); the verifier hashes its replay the same way.
    ``finished`` is the ``perf_counter`` time the result arrived.
    """

    index: int
    latency: float
    finished: float
    error: str = ""
    family: int = -1                   # -1: an evaluate request
    backend: str = ""
    cached: bool = False
    batch_requests: int = 0
    words: int = 0
    energy: float = 0.0
    sim_latency: float = 0.0
    steps: int = 0
    checksum: int = 0


def _summarize(item: wl.ServeItem, started: float, done: float,
               result: Any) -> Outcome:
    if result.kind == "evaluate":
        checksum = hash(tuple(sorted(result.metrics.items())))
    else:
        checksum = hash(tuple(sorted(result.outputs.items())))
    return Outcome(item.index, done - started, done, "", item.family,
                   result.backend, result.cached, result.batch_requests,
                   result.words, result.energy, result.latency,
                   result.steps_per_word, checksum)


def _span(rec: Optional[Recorder], name: str, op: int = -1) -> Any:
    return nullcontext() if rec is None else rec.span(name, op=op)


async def _serve_caller(server: Any, items: Iterator[wl.ServeItem],
                        stop: Any, out: List[Outcome], rec: Optional[Recorder],
                        rss: Optional[PeakRss]) -> None:
    clock = time.perf_counter
    while not stop():
        if rss is not None:
            rss.note(len(out))
        item = next(items)
        with _span(rec, "op", item.index):
            with _span(rec, "api.request"):
                request = api.request(**item.request_kwargs())
            if rec is not None:  # untraced, submit pays for the digest
                with rec.span("request.digest"):
                    request.digest
            started = clock()
            try:
                with _span(rec, "submit"):
                    result = await server.submit(request)
            except Exception as exc:  # counted as a failed operation
                done = clock()
                outcome = Outcome(item.index, done - started, done,
                                  f"{type(exc).__name__}: {exc}")
            else:
                outcome = _summarize(item, started, clock(), result)
        out.append(outcome)


async def serve_window(server: Any, items: Iterator[wl.ServeItem],
                       callers: int, warmup: float, seconds: float, *,
                       rec: Optional[Recorder] = None,
                       rss: Optional[PeakRss] = None
                       ) -> Tuple[List[Outcome], List[Outcome]]:
    """Run *callers* closed-loop callers for *warmup* + *seconds*.

    Returns every outcome and those that finished in the measured
    window, the *seconds* after *warmup*.  The callers run on through
    the warm-up into the window without a pause, so the window sees
    the loop's steady state, not the burst of all callers starting
    together.
    """
    out: List[Outcome] = []
    opens = time.perf_counter() + warmup
    closes = opens + seconds

    def stop() -> bool:
        return time.perf_counter() >= closes

    await asyncio.gather(*(_serve_caller(server, items, stop, out, rec, rss)
                           for _ in range(callers)))
    return out, [o for o in out if opens <= o.finished < closes]


def table2_checksum(result: Any) -> int:
    """Checksum of an ``api.table2`` result, flattened the way an
    evaluate result carries its metrics."""
    metrics: Dict[str, float] = {}
    for (application, architecture), cell in result.metrics.items():
        for name, value in cell.as_dict().items():
            metrics[f"{application}.{architecture}.{name}"] = value
    for application, factors in result.improvements.items():
        metrics[f"{application}.improvement.energy_delay"] = factors.energy_delay
        metrics[f"{application}.improvement.computing_efficiency"] = (
            factors.computing_efficiency)
    return hash(tuple(sorted(metrics.items())))


def evaluate_references(rec: Optional[Recorder]) -> List[int]:
    """One reference per override point (traced: TechSpec.derive and
    api.table2 spans)."""
    refs = []
    for point in wl.OVERRIDE_POINTS:
        with _span(rec, "TechSpec.derive"):
            spec = TABLE1.derive(point)
        with _span(rec, "api.table2"):
            result = api.table2(spec=spec)
        refs.append(table2_checksum(result))
    return refs


@dataclass
class Replay:
    """Engine replay of served kernel requests, batched per batch key."""

    rec: Optional[Recorder]
    mismatches: List[Tuple[int, str]] = field(default_factory=list)
    calls: int = 0
    words: int = 0
    requests: int = 0
    _groups: Dict[Tuple[int, str], List[Tuple[wl.ServeItem, Outcome]]] = (
        field(default_factory=dict))

    def add(self, item: wl.ServeItem, outcome: Outcome) -> None:
        key = (item.family, outcome.backend)
        group = self._groups.setdefault(key, [])
        group.append((item, outcome))
        if len(group) == REPLAY_BATCH:
            self._flush(key)

    def finish(self) -> None:
        for key in list(self._groups):
            if self._groups[key]:
                self._flush(key)

    def _flush(self, key: Tuple[int, str]) -> None:
        members = self._groups.pop(key)
        kernel, width = wl.FAMILIES[key[0]]
        rec = self.rec
        with _span(rec, "engine.replay"):
            with _span(rec, "coalesce_operand_batches"):
                merged, sizes = coalesce_operand_batches(
                    [m[0].operands for m in members])
            with _span(rec, "run_kernel"):
                batch = run_kernel(resolve_kernel(kernel, width), merged,
                                   backend=key[1], spec=TABLE1)
            with _span(rec, "BatchResult.split"):
                parts = batch.split(sizes)
            with _span(rec, "BatchResult.word"):
                served = [{g: tuple(p.word(g).tolist()) for g in p.word_outputs}
                          for p in parts]
        self.calls += 1
        self.words += batch.words
        self.requests += len(members)
        for (item, outcome), part, outputs in zip(members, parts, served):
            problem = ""
            if hash(tuple(sorted(outputs.items()))) != outcome.checksum:
                problem = "outputs differ from the engine replay"
            elif outcome.words != part.words:
                problem = f"words {outcome.words} != {part.words}"
            elif abs(outcome.energy - part.energy) > ENERGY_REL * abs(part.energy):
                problem = f"energy {outcome.energy!r} != {part.energy!r}"
            elif outcome.sim_latency != part.latency:
                problem = f"latency {outcome.sim_latency!r} != {part.latency!r}"
            elif outcome.steps != part.steps_per_word:
                problem = f"steps {outcome.steps} != {part.steps_per_word}"
            if problem:
                self.mismatches.append((item.index, problem))


def verify_serve(workload: str, seed: int, outcomes: List[Outcome],
                 eval_refs: List[int], rec: Optional[Recorder]
                 ) -> Tuple[List[Tuple[int, str]], Replay]:
    """Check every served result; returns ``(index, problem)`` pairs and
    the traced replay.

    With *rec* the first ``ENGINE_REPLAY`` kernel requests of the stream
    are replayed under spans (the engine.* metrics); the rest replay
    untraced.
    """
    by_index = {o.index: o for o in outcomes}
    problems = [(o.index, o.error) for o in outcomes if o.error]
    traced = Replay(rec)
    untraced = Replay(None)
    kernel_seen = 0
    stream = wl.STREAMS[workload](seed)
    for _ in range(max(by_index) + 1 if by_index else 0):
        item = next(stream)
        outcome = by_index.get(item.index)
        if outcome is None or outcome.error:
            continue
        if item.kind == "evaluate":
            if outcome.checksum != eval_refs[item.point]:
                problems.append((item.index,
                                 "evaluate metrics differ from api.table2"))
            continue
        replay = traced if (rec is not None
                            and kernel_seen < ENGINE_REPLAY[workload]) else untraced
        replay.add(item, outcome)
        kernel_seen += 1
    traced.finish()
    untraced.finish()
    return problems + traced.mismatches + untraced.mismatches, traced


def registry_counts() -> Dict[str, float]:
    registry = get_registry()
    counts: Dict[str, float] = {}
    batch = registry.get("serve_batch_size")
    if batch is not None:
        counts["batches"] = batch.count
        counts["batch_requests"] = batch.sum
    factor = registry.get("crossbar_factorization_cache_total")
    if factor is not None:
        counts["factor_hit"] = factor.labels(result="hit").value
        counts["factor_miss"] = factor.labels(result="miss").value
    return counts


# -- crossbar probe ----------------------------------------------------------


@dataclass
class Solve:
    index: int
    error: str = ""      # '' when the solution passed its checks


def check_solution(g: np.ndarray, rows: Dict[int, float],
                   cols: Dict[int, float], solution: Any) -> str:
    """KCL at every free node and charge conservation across drivers,
    recomputed from the solved node voltages; '' when both hold."""
    vr, vc = solution.row_voltages, solution.col_voltages
    gw = 1.0 / wl.WIRE_RESISTANCE
    junction = g * (vr - vc)
    out_row = junction.copy()          # net current leaving each row node
    out_row[:, 1:] += gw * (vr[:, 1:] - vr[:, :-1])
    out_row[:, :-1] += gw * (vr[:, :-1] - vr[:, 1:])
    out_col = -junction                # ... and each column node
    out_col[1:, :] += gw * (vc[1:, :] - vc[:-1, :])
    out_col[:-1, :] += gw * (vc[:-1, :] - vc[1:, :])
    row_drv = np.array(sorted(rows))
    col_drv = np.array(sorted(cols))
    if (np.abs(vr[row_drv, 0] - [rows[r] for r in row_drv]).max() > 1e-12
            or np.abs(vc[0, col_drv] - [cols[c] for c in col_drv]).max() > 1e-12):
        return "driven nodes are not at their drive voltage"
    injected = np.concatenate([out_row[row_drv, 0], out_col[0, col_drv]])
    scale = np.abs(injected).sum()
    free_row = np.ones_like(vr, dtype=bool)
    free_row[row_drv, 0] = False
    free_col = np.ones_like(vc, dtype=bool)
    free_col[0, col_drv] = False
    residual = max(np.abs(out_row[free_row]).max(),
                   np.abs(out_col[free_col]).max())
    if residual > KCL_REL * scale:
        return f"KCL residual {residual:.3e} A exceeds {KCL_REL} x {scale:.3e} A"
    imbalance = abs(injected.sum())
    if imbalance > CHARGE_REL * scale:
        return (f"row/column charge imbalance {imbalance:.3e} A exceeds "
                f"{CHARGE_REL} x {scale:.3e} A")
    terminal = np.abs(solution.row_currents - out_row[:, 0]).max()
    if terminal > KCL_REL * scale:
        return f"reported row currents off by {terminal:.3e} A"
    return ""


def crossbar_run(tiles: List[np.ndarray], jobs: Iterator[wl.CrossbarJob],
                 count: int, rec: Optional[Recorder] = None) -> List[Solve]:
    """Run *count* jobs, checking each solution outside its span."""
    out: List[Solve] = []
    for job in itertools.islice(jobs, count):
        g = tiles[job.tile]
        rows, cols = job.drives()
        with _span(rec, "op", job.index):
            if job.write:
                g[job.row, job.col] = wl.HRS if g[job.row, job.col] == wl.LRS else wl.LRS
            with _span(rec, "api.solve_crossbar.write" if job.write
                       else "api.solve_crossbar.read"):
                solution = api.solve_crossbar(
                    conductances=g, row_drive=rows, col_drive=cols,
                    wire_resistance=wl.WIRE_RESISTANCE)
        out.append(Solve(job.index, check_solution(g, rows, cols, solution)))
    return out


# -- layer probes ------------------------------------------------------------


def workload_shapes(workload: str) -> List[Tuple[str, int, int]]:
    if workload == "serve-small":
        words = range(1, wl.SMALL_MAX_WORDS + 1)
    else:
        words = (wl.BULK_WORDS,)
    return [(k, w, n) for k, w in wl.FAMILIES for n in words]


def probe_planner(workload: str, rec: Recorder) -> None:
    """Cold ``plan_request`` once per distinct request shape.

    Run it after :func:`probe_compile`: pricing a plan resolves the
    kernel, and a kernel compiled here would be counted as planning.
    """
    for kernel, width, words in workload_shapes(workload):
        with rec.span("plan_request"):
            plan_request(kernel, width, words, spec=TABLE1)


def probe_compile(rec: Recorder) -> None:
    """Cold ``resolve_kernel`` per family after clearing the cache."""
    clear_kernel_cache()
    for kernel, width in wl.FAMILIES:
        with rec.span("resolve_kernel"):
            resolve_kernel(kernel, width)


def calibrate() -> float:
    """Fixed pure-Python + NumPy micro-loop; median of 5 after one
    discarded pass, in ms.

    The NumPy part avoids BLAS: a matrix product would wake OpenBLAS's
    spinning worker threads, which then compete with the workload for
    the cores.
    """
    vector = np.random.default_rng(0).random(1 << 16)
    samples = []
    for _ in range(6):
        started = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += (i * i) % 7
        for _ in range(3):
            np.cumsum(np.sqrt(np.sort(vector)))
        samples.append(time.perf_counter() - started)
    return float(np.median(samples[1:])) * 1e3


class PeakRss:
    """Reads :func:`tree_peak_rss_mb` once, when ``after`` operations of
    a window have completed (or at :meth:`result`, if they never did)."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.mb: Optional[float] = None

    def note(self, done: int) -> None:
        if done == self.after and self.mb is None:
            self.mb = tree_peak_rss_mb()

    def result(self) -> float:
        return self.mb if self.mb is not None else tree_peak_rss_mb()


def tree_peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process and its live
    descendants, in MB."""
    me = os.getpid()
    parent_of: Dict[int, int] = {}
    try:
        for name in os.listdir("/proc"):
            if name.isdigit():
                try:
                    with open(f"/proc/{name}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                    parent_of[int(name)] = int(fields[1])
                except (OSError, IndexError, ValueError):
                    continue
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tree = {me}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent_of.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total_kb = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024


def latency_stats(outcomes: List[Outcome], seconds: float) -> Dict[str, Any]:
    """p50 over the window and the mean of the slices' tails, in ms."""
    latencies = np.array([o.latency for o in
                          sorted(outcomes, key=lambda o: o.finished)])
    slices = np.array_split(latencies, max(1, round(seconds / TAIL_SLICE_S)))
    n = min(len(s) for s in slices)
    pct = TAIL_PCT
    for candidate in (TAIL_PCT,) + TAIL_LADDER:
        if n * (1 - candidate / 100) >= 10:
            pct = candidate
            break
    return {"latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_tail_ms": float(np.mean(
                [np.percentile(s, pct) for s in slices])) * 1e3,
            "tail_pct": pct, "tail_slices": len(slices),
            "tail_beyond": int(n - np.ceil(n * pct / 100)),
            "samples": latencies.size}
