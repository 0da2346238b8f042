"""serve-small and serve-bulk: one untraced or traced run."""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List

from repro.spec import TABLE1

import crossbar_ir
import drive
import workloads as wl
from spans import Recorder


def _end_to_end(window: List[drive.Outcome], seconds: float) -> Dict[str, Any]:
    served = [o for o in window if not o.error]
    return dict(drive.latency_stats(served, seconds),
                throughput_ops=len(served) / seconds)


def run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    options = drive.server_options(workload)
    callers = options["callers"]
    warmup = drive.WARMUP_S[workload]
    small = workload == "serve-small"
    rec = Recorder() if trace else None
    # A traced run shares its time between an untraced and a traced window.
    window = seconds / 2 if trace else seconds
    solves: List[drive.Solve] = []
    if rec is not None:
        drive.probe_compile(rec)
        drive.probe_planner(workload, rec)
        crossbar_layers, solves = crossbar_ir.probe(seed, rec)
    eval_refs = drive.evaluate_references(rec) if small else []
    server = drive.make_server(options)
    items = wl.STREAMS[workload](seed)
    rss = drive.PeakRss(drive.RSS_AFTER[workload])

    async def serve() -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        async with server:
            state["all_a"], state["a"] = await drive.serve_window(
                server, items, callers, warmup, window, rss=rss)
            if rec is None:
                return state
            state["before"] = drive.registry_counts()
            started = time.perf_counter()
            state["all_b"], state["b"] = await drive.serve_window(
                server, items, callers, warmup, window, rec=rec)
            state["wall_b"] = time.perf_counter() - started
            state["after"] = drive.registry_counts()
        return state

    state = asyncio.run(serve())
    outcomes = state["all_a"] + state.get("all_b", [])
    problems, replay = drive.verify_serve(workload, seed, outcomes, eval_refs, rec)
    problems += [(f"crossbar {s.index}", s.error) for s in solves if s.error]
    report: Dict[str, Any] = {
        "options": dict(options, warmup_s=warmup),
        "attempted": len(outcomes) + len(solves),
        "failed": len({index for index, _ in problems}),
        "problems": problems,
        "windows": {"a": len(state["a"])},
    }
    if rec is None:
        report.update(_end_to_end(state["a"], window))
        report["peak_rss_mb"] = rss.result()
        return report
    report["windows"]["b"] = len(state["b"])
    report["layers"] = _layers(workload, server, state, replay, rec)
    report["layers"].update(crossbar_layers)
    report["recorder"] = rec
    return report


def _layers(workload: str, server: Any, state: Dict[str, Any],
            replay: drive.Replay, rec: Recorder) -> Dict[str, float]:
    # The traced run's figures cover all of it, warm-up included (the
    # registry deltas do too); only the trace overhead compares the two
    # measured windows, which are equally long.
    window_b = [o for o in state["all_b"] if not o.error]
    wall_b = state["wall_b"]
    kernel_b = [o for o in window_b if o.family >= 0]
    if workload == "serve-bulk":
        # Which shard each traced request's batching identity hashes to.
        shards = [0] * server.shards
        for o in kernel_b:
            kernel, width = wl.FAMILIES[o.family]
            with rec.span("ShardRouter.shard_for"):
                shard = server.router.shard_for(kernel, width, TABLE1.digest)
            shards[shard] += 1
        skew = max(shards) / len(kernel_b) * server.shards
    else:
        skew = 0.0
    selfs = rec.self_times()

    def mean(name: str, scale: float) -> float:
        total, calls = selfs.get(name, (0.0, 0))
        return total / calls * scale if calls else 0.0

    def total(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0]

    replay_s = sum(rec.durations("engine.replay"))
    engine_per_request = replay_s / replay.requests
    table2_s = mean("api.table2", 1.0)
    # Evaluate groups run Table 2 once for all of their members.
    evaluations = sum(1 / o.batch_requests for o in window_b
                      if o.family < 0 and not o.cached)
    engine_b = engine_per_request * len(kernel_b)
    before, after = state["before"], state["after"]
    batches = after["batches"] - before["batches"]
    layers = {
        "request.build_us": mean("api.request", 1e6),
        "request.digest_us": mean("request.digest", 1e6),
        "serve.batches": batches,
        "serve.batch_requests_mean": (
            (after["batch_requests"] - before["batch_requests"]) / batches),
        "serve.cache_hit_ratio": sum(o.cached for o in window_b) / len(window_b),
        "serve.host_s": (wall_b - engine_b - evaluations * table2_s) / len(window_b),
        "cluster.shard_skew": skew,
        "serve.overhead_ratio": wall_b / engine_b,
        "planner.plan_ms": mean("plan_request", 1e3),
        "planner.bitplane_share": (
            sum(o.backend == "functional_bitplane" for o in kernel_b)
            / len(kernel_b)),
        "spec.derive_us": mean("TechSpec.derive", 1e6),
        "core.table2_ms": table2_s * 1e3,
        "engine.compile_ms": mean("resolve_kernel", 1e3),
        "engine.coalesce_s": total("coalesce_operand_batches"),
        "engine.run_s": total("run_kernel"),
        "engine.split_s": total("BatchResult.split"),
        "engine.unpack_s": total("BatchResult.word"),
        "engine.replay_s": replay_s,
        "engine.calls": replay.calls,
        "engine.words": replay.words,
        "bench.trace_overhead": len(state["a"]) / len(state["b"]) - 1,
    }
    return layers
