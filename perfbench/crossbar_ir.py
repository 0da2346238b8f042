"""The crossbar probe: the electrical path's per-layer metrics.

crossbar-ir is not a workload of ``BENCHMARK.json``: its solves are
memory-bound, and on a shared host their speed swings by up to half
for seconds at a time, so no statistic of a run of a minute or less
repeats within the benchmark's bounds.  The crossbar per-layer metrics
come from :func:`probe` instead, a fixed traced stream of
``wl.CROSSBAR_PROBE_JOBS`` jobs that every serve workload's traced run
includes: 7 in 8 re-drive an unchanged tile (a factorization-cache
read), every 8th programs one cell first.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import drive
import workloads as wl
from spans import Recorder


def probe(seed: int, rec: Recorder) -> Tuple[Dict[str, float], List[drive.Solve]]:
    """The crossbar per-layer metrics and every solve made (checked)."""
    tiles = wl.crossbar_tiles(seed)
    # One V/2 read per tile first: the first factorizations, untraced.
    first = [wl.CrossbarJob(index=-1 - t, tile=t, row=0, col=0, scheme=2,
                            write=False) for t in range(wl.TILES)]
    solves = drive.crossbar_run(tiles, iter(first), wl.TILES)
    before = drive.registry_counts()
    solves += drive.crossbar_run(tiles, wl.crossbar_stream(seed),
                                 wl.CROSSBAR_PROBE_JOBS, rec)
    after = drive.registry_counts()
    hits = after["factor_hit"] - before["factor_hit"]
    misses = after["factor_miss"] - before["factor_miss"]
    selfs = rec.self_times()

    def mean_ms(name: str) -> float:
        total, calls = selfs.get(name, (0.0, 0))
        return total / calls * 1e3 if calls else 0.0

    layers = {
        "crossbar.read_solve_ms": mean_ms("api.solve_crossbar.read"),
        "crossbar.write_solve_ms": mean_ms("api.solve_crossbar.write"),
        "crossbar.factor_hit_ratio": hits / (hits + misses),
    }
    return layers, solves
