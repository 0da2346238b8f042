"""repro.engine — the unified compile-once/execute-many kernel pipeline.

One pipeline from workload to cost, for every consumer::

    netlist / IMPLY program
        -> compile (repro.compiler: map, allocate, schedule)
        -> CompiledKernel          (immutable, digest-keyed, LRU-cached)
        -> executor                (functional | electrical | analytical)

* Build artifacts with :func:`compile_kernel` (netlists),
  :func:`compile_program` / :func:`kernel_for_program` (IMPLY
  programs), or grab a built-in (:func:`adder_kernel`,
  :func:`comparator_kernel`, :func:`word_comparator_kernel`,
  :func:`cam_match_kernel`).
* Execute with :func:`run_kernel` — backend ``functional`` (vectorised
  NumPy batch, the default), ``functional_bitplane`` (64-words-per-op
  bit-sliced planes, ~15x on kilo-word batches), ``electrical``
  (bit-exact device-level reference) or ``analytical`` (Table 1 cost
  pricing, no simulation).
* Move data with the shared pack/unpack helpers
  (:func:`pack_words` / :func:`unpack_words` /
  :func:`pack_bitplanes` / :func:`unpack_bitplanes` /
  :func:`int_to_bits` / :func:`bits_to_int`).

Telemetry: ``engine_kernel_cache_total{result=}``,
``engine_executor_dispatch_total{backend=}``,
``engine_words_executed_total``,
``engine_bitplanes_executed_total`` and per-kernel ``engine/<name>``
spans.
"""

from ..spec.costmodel import CAMMatchCost
from .bitplane import BitplaneExecutor, bitplane_outputs
from .builtins import (
    KERNEL_BUILDERS,
    adder_kernel,
    cam_match_kernel,
    comparator_kernel,
    kernel_catalog,
    resolve_kernel,
    word_comparator_kernel,
)
from .executors import (
    BACKENDS,
    AnalyticalCostExecutor,
    BatchResult,
    ElectricalBatchExecutor,
    FunctionalBatchExecutor,
    coalesce_operand_batches,
    run_kernel,
)
from .kernel import (
    KERNEL_CACHE_CAPACITY,
    CompiledKernel,
    cached_kernel,
    clear_kernel_cache,
    compile_kernel,
    compile_program,
    kernel_cache_len,
    kernel_for_program,
    network_digest,
    program_digest,
)
from .packing import (
    MAX_WIDTH,
    PLANE_LANE_BITS,
    bits_to_int,
    int_to_bits,
    pack_bitplanes,
    pack_words,
    plane_lanes,
    unpack_bitplanes,
    unpack_words,
)

__all__ = [
    "BACKENDS",
    "KERNEL_BUILDERS",
    "KERNEL_CACHE_CAPACITY",
    "MAX_WIDTH",
    "PLANE_LANE_BITS",
    "AnalyticalCostExecutor",
    "BatchResult",
    "BitplaneExecutor",
    "CAMMatchCost",
    "CompiledKernel",
    "ElectricalBatchExecutor",
    "FunctionalBatchExecutor",
    "adder_kernel",
    "bitplane_outputs",
    "bits_to_int",
    "cached_kernel",
    "cam_match_kernel",
    "clear_kernel_cache",
    "coalesce_operand_batches",
    "comparator_kernel",
    "compile_kernel",
    "compile_program",
    "int_to_bits",
    "kernel_cache_len",
    "kernel_catalog",
    "kernel_for_program",
    "network_digest",
    "pack_bitplanes",
    "pack_words",
    "plane_lanes",
    "program_digest",
    "resolve_kernel",
    "run_kernel",
    "unpack_bitplanes",
    "unpack_words",
    "word_comparator_kernel",
]
