"""The repository benchmark: seeded workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --accounting --seconds 3

Workloads (``BENCHMARK.json`` registers both and says why):

``serve-small``
    One ``KernelServer`` (``api.connect`` defaults, ``workers`` = cores)
    and 64 closed-loop asyncio callers.  Every 10th request evaluates
    Table 2 under one of 16 zipf-picked ``memristor.write_energy``
    overrides; the rest are 1-4-word kernel requests over adder-32,
    word-compare-32, cam-match-32 and adder-16 with unique operands.
``serve-bulk``
    A ``ClusterServer`` (``shards`` = cores, ``workers=1``) and 4
    callers sending unique 4096-word requests over the same families.
The electrical path (``api.solve_crossbar``) is not a workload: it is
too unsteady on a shared host (see ``crossbar_ir.py``).  Its per-layer
metrics come from a probe in every traced run.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters reaching their first result, half of them
before the serve window and half after), throughput, median latency,
tail latency (p95 per 5 s slice of results, averaged) and peak
resident memory.  The serve callers run a warm-up first and go on into
the timed window without a pause.  ``--trace 1`` runs an untraced and
a traced window, each half as long, and reports the per-layer metrics,
derived from spans the benchmark records around the public calls it
makes (written to ``perfbench/out/``).  Every result of
every run is checked; the last stdout line is the JSON result.
``--accounting`` runs every workload both ways and prints each metric
with its unit, the operation counts, and which layers each workload
bypasses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("serve-small", "serve-bulk")

#: Fresh interpreters timed per run for setup_s (the median is reported).
#: The host's speed shifts for seconds at a time, so half run before the
#: serve window and half after it, at least its length apart.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("throughput_ops", "ops/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("request.build_us", "us"), ("request.digest_us", "us"),
    ("serve.batches", "count"), ("serve.batch_requests_mean", "requests"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.host_s", "s/request"),
    ("cluster.shard_skew", "ratio"), ("serve.overhead_ratio", "ratio"),
    ("planner.plan_ms", "ms"), ("planner.bitplane_share", "ratio"),
    ("spec.derive_us", "us"), ("core.table2_ms", "ms"),
    ("engine.compile_ms", "ms"), ("engine.coalesce_s", "s"),
    ("engine.run_s", "s"), ("engine.split_s", "s"), ("engine.unpack_s", "s"),
    ("engine.replay_s", "s"), ("engine.calls", "count"),
    ("engine.words", "count"), ("crossbar.read_solve_ms", "ms"),
    ("crossbar.write_solve_ms", "ms"), ("crossbar.factor_hit_ratio", "ratio"),
    ("host.calib_ms", "ms"), ("bench.trace_overhead", "ratio"),
)


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"perfbench: repro resolved to {origin}, not under {src}")


# -- set-up time -------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child side of setup_s: reach the workload's first result, report,
    then shut down (the parent's clock stops at the report)."""
    import asyncio

    import drive
    import workloads as wl
    from repro import api

    item = next(i for i in wl.STREAMS[workload](seed) if i.kind == "kernel")
    server = drive.make_server(drive.server_options(workload))

    async def first() -> Any:
        async with server:
            result = await server.submit(api.request(**item.request_kwargs()))
            print("ready", flush=True)
            return result

    if asyncio.run(first()).outputs:
        return 0
    print("first result has no outputs", file=sys.stderr)
    return 1


def measure_setup(workload: str, seed: int, probes: int) -> List[float]:
    """Time *probes* fresh interpreters to their first result."""
    times = []
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                                text=True)
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
        times.append(elapsed)
    return times


# -- one run -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    import drive
    import serve_run
    import workloads as wl

    report: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": wl.fingerprint(workload, seed),
        "fingerprint_items": wl.FINGERPRINT_ITEMS[workload],
        "host.calib_ms": drive.calibrate(),
    }
    if trace == 0:
        before = measure_setup(workload, seed, SETUP_PROBES // 2)
    report.update(serve_run.run(workload, seed, seconds, trace))
    metrics: Dict[str, float] = {}
    if trace == 0:
        after = measure_setup(workload, seed, SETUP_PROBES - len(before))
        report["setup_probes_s"] = before + after
        metrics["setup_s"] = statistics.median(report["setup_probes_s"])
        for name in ("throughput_ops", "latency_p50_ms", "latency_tail_ms",
                     "peak_rss_mb"):
            metrics[name] = report[name]
    else:
        layer = report["layers"]
        layer["host.calib_ms"] = report["host.calib_ms"]
        metrics = {name: layer.get(name, 0.0) for name, _ in PER_LAYER}
    report["metrics"] = metrics
    return report


def print_report(report: Dict[str, Any]) -> None:
    import drive

    workload = report["workload"]
    failed = report["failed"]
    attempted = report["attempted"]
    print(f"perfbench {workload} seed={report['seed']} trace={report['trace']} "
          f"seconds={report['seconds']}")
    print(f"  inputs fingerprint {report['fingerprint']} "
          f"(first {report['fingerprint_items']} items)")
    if "options" in report:
        print(f"  options {json.dumps(report['options'], sort_keys=True)}")
    print(f"  host.calib_ms {report['host.calib_ms']:.3f} ms")
    print(f"  operations attempted {attempted}  succeeded {attempted - failed}"
          f"  failed {failed}  failed_share {failed / attempted:.6f}")
    for index, problem in report["problems"][:10]:
        print(f"  FAILED operation {index}: {problem}")
    units = dict(END_TO_END + PER_LAYER)
    for name, value in report["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (mean p{report['tail_pct']:g} of "
                    f"{report['tail_slices']} slices of {report['samples']} "
                    f"samples, >= {report['tail_beyond']} beyond in each)")
        print(f"  {name:28s} {value:>16.6g} {units[name]}{note}")
    crossed = drive.LAYERS[workload]
    bypassed = [layer for layer in drive.ALL_LAYERS if layer not in crossed]
    print(f"  crosses {', '.join(crossed)}; bypasses {', '.join(bypassed)}"
          f" ({drive.NOTES[workload]})")


def accounting(seconds: float) -> int:
    """Run every workload untraced and traced; print every metric."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", "1", "--seconds", str(seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            status = status or done.returncode
    return status


def pin_environment() -> None:
    """Re-execute under :data:`PINNED_ENV` unless it is already set.

    String hashing is salted per process, which reorders dicts and sets
    and so changes the native heap's layout; OpenBLAS's worker thread
    allocates its buffers or not depending on timing.  Either makes the
    same inputs peak at resident sizes up to 10% apart, so both are
    pinned.  Set-up probes inherit the pins.
    """
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv: List[str]) -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--accounting", action="store_true",
                        help="run every workload both ways, print all metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    if args.accounting:
        return accounting(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    report = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = report.pop("recorder", None)
    if recorder is not None:
        recorder.dump(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print_report(report)
    correct = report["failed"] == 0 and not report["problems"]
    unit = dict(END_TO_END + PER_LAYER)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
