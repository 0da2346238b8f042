"""Bitlet-style CIM-vs-CPU offload planning over workload traces.

The paper's Table 2 answers "CIM or CPU?" once, for two fixed
applications.  This module answers it *per kernel, per batch size*, the
way Bitlet parameterises the PIM-vs-CPU comparison and TDO-CIM turns it
into an automatic placement decision:

1. A **workload trace** (:class:`TraceEntry` sequence) names what runs:
   kernel × width × batch size × locality (cache hit ratio).  Traces
   come from JSONL streams (:func:`read_trace`) or from the paper's own
   Table 1 workload constants (:func:`paper_trace`).
2. Each entry is priced under **both** cost models of the unified seam
   (:class:`~repro.spec.costmodel.CIMCostModel` /
   :class:`~repro.spec.costmodel.CPUCostModel`) and placed wherever the
   predicted energy-delay product is lower (:class:`PlacementChoice`).
3. The per-entry **crossover point** — the smallest batch size at which
   CIM's energy-delay pulls ahead of the CPU baseline — is located by
   bisection (CIM's E·D grows linearly in the batch, the CPU baseline's
   quadratically, so the curves cross exactly once).

The resulting :class:`Plan` backs the ``repro plan`` CLI subcommand and
``api.plan`` and feeds ``plan.*`` metrics into the DSE sweep engine;
:func:`plan_request` places one request-shaped workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import PlannerError
from ..spec.costmodel import CIMCostModel, CPUCostModel
from ..spec.ledger import CostLedger, Quantity
from ..spec.techspec import TABLE1, TechSpec

__all__ = [
    "CROSSOVER_CAP_WORDS",
    "Plan",
    "PlacementChoice",
    "TraceEntry",
    "paper_trace",
    "plan",
    "plan_metrics",
    "plan_request",
    "read_trace",
]

#: Largest batch size the crossover bisection searches (2**50 words);
#: beyond this the crossover is reported as ``None`` ("never observed").
CROSSOVER_CAP_WORDS = 1 << 50

#: JSONL trace vocabulary: accepted per-line fields.
_TRACE_FIELDS = ("kernel", "width", "words", "hit_ratio")


@dataclass(frozen=True)
class TraceEntry:
    """One workload-trace line: run *kernel* over *words* operands.

    ``hit_ratio`` is the CPU baseline's cache locality for this part of
    the workload (Table 1 assigns 0.5 to DNA, 0.98 to math); ``None``
    uses the spec cache's own ratio.
    """

    kernel: str
    width: int = 32
    words: int = 1
    hit_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.kernel or not str(self.kernel).strip():
            raise PlannerError("trace entry needs a kernel name")
        if self.width < 1:
            raise PlannerError(f"trace width must be >= 1, got {self.width}")
        if self.words < 1:
            raise PlannerError(f"trace words must be >= 1, got {self.words}")
        if self.hit_ratio is not None and not 0.0 <= self.hit_ratio <= 1.0:
            raise PlannerError(
                f"trace hit_ratio must lie in [0, 1], got {self.hit_ratio}")

    def as_dict(self) -> Dict[str, Any]:
        """JSONL-ready snapshot (round-trips through :func:`read_trace`)."""
        row: Dict[str, Any] = {
            "kernel": self.kernel, "width": self.width, "words": self.words,
        }
        if self.hit_ratio is not None:
            row["hit_ratio"] = self.hit_ratio
        return row


def paper_trace(spec: Optional[TechSpec] = None) -> List[TraceEntry]:
    """The built-in trace: Table 1's two applications as entries.

    DNA sequencing is ``4 x (coverage x reference / read length)``
    nucleotide comparisons at the DNA hit ratio; the math workload is
    ``math_additions`` full-width additions at the math hit ratio —
    the exact operation counts Table 2 prices.
    """
    spec = spec if spec is not None else TABLE1
    w = spec.workloads
    comparisons = 4 * (w.dna_coverage * w.dna_reference_bases
                       // w.dna_short_read_len)
    return [
        TraceEntry(kernel="comparator", width=2, words=comparisons,
                   hit_ratio=w.dna_hit_ratio),
        TraceEntry(kernel="adder", width=spec.adder.width,
                   words=w.math_additions, hit_ratio=w.math_hit_ratio),
    ]


def read_trace(lines: Iterable[str]) -> List[TraceEntry]:
    """Parse a JSONL workload trace (one entry object per line).

    Accepted fields per line: ``kernel`` (required), ``width``,
    ``words``, ``hit_ratio``.  Blank lines are skipped; malformed JSON,
    unknown fields, and invalid values raise :class:`PlannerError`
    naming the offending line number.
    """
    entries: List[TraceEntry] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlannerError(
                f"trace line {number}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise PlannerError(
                f"trace line {number}: expected an object, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(_TRACE_FIELDS))
        if unknown:
            raise PlannerError(
                f"trace line {number}: unknown fields {unknown}; "
                f"accepted: {list(_TRACE_FIELDS)}")
        if "kernel" not in payload:
            raise PlannerError(f"trace line {number}: missing 'kernel'")
        try:
            entries.append(TraceEntry(
                kernel=str(payload["kernel"]),
                width=int(payload.get("width", 32)),
                words=int(payload.get("words", 1)),
                hit_ratio=(float(payload["hit_ratio"])
                           if payload.get("hit_ratio") is not None else None),
            ))
        except (TypeError, ValueError) as exc:
            raise PlannerError(f"trace line {number}: {exc}") from exc
        except PlannerError as exc:
            raise PlannerError(f"trace line {number}: {exc}") from exc
    return entries


@dataclass(frozen=True)
class PlacementChoice:
    """The plan's verdict for one trace entry.

    ``placement`` is ``"cim"`` or ``"cpu"`` — whichever predicted
    energy-delay product (joule-seconds for the whole entry) is lower,
    CIM on ties.  ``crossover_words`` is the smallest batch size at
    which CIM wins for this kernel/width/locality (``None`` if not
    found below :data:`CROSSOVER_CAP_WORDS`).
    """

    kernel: str
    width: int
    words: int
    hit_ratio: Optional[float]
    placement: str
    cim_energy: float
    cim_latency: float
    cim_energy_delay: float
    cpu_energy: float
    cpu_latency: float
    cpu_energy_delay: float
    crossover_words: Optional[int]

    @property
    def cim_wins(self) -> bool:
        return self.placement == "cim"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the ``repro plan --json`` row)."""
        return {
            "kernel": self.kernel,
            "width": self.width,
            "words": self.words,
            "hit_ratio": self.hit_ratio,
            "placement": self.placement,
            "cim_energy_j": self.cim_energy,
            "cim_latency_s": self.cim_latency,
            "cim_energy_delay_js": self.cim_energy_delay,
            "cpu_energy_j": self.cpu_energy,
            "cpu_latency_s": self.cpu_latency,
            "cpu_energy_delay_js": self.cpu_energy_delay,
            "crossover_words": self.crossover_words,
        }


@dataclass(frozen=True)
class Plan:
    """A priced placement plan for one workload trace on one spec."""

    spec_digest: str
    choices: Tuple[PlacementChoice, ...] = field(default_factory=tuple)

    def choice(self, kernel: str) -> PlacementChoice:
        """The first choice for *kernel* (trace order)."""
        wanted = str(kernel).strip().lower()
        for entry in self.choices:
            if entry.kernel.lower() == wanted:
                return entry
        raise PlannerError(
            f"plan has no entry for kernel {kernel!r}; have "
            f"{sorted({c.kernel for c in self.choices})}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the ``repro plan --json`` payload)."""
        return {
            "spec_digest": self.spec_digest,
            "choices": [choice.as_dict() for choice in self.choices],
        }


def _totals(ledger: CostLedger) -> Tuple[float, float]:
    return ledger.total(Quantity.ENERGY), ledger.total(Quantity.LATENCY)


class _EntryPricer:
    """Prices (kernel, width, hit_ratio) entries under both models,
    memoising kernel resolution and crossover searches within one plan."""

    def __init__(self, spec: TechSpec) -> None:
        self.spec = spec
        self.cim = CIMCostModel()
        self._kernels: Dict[Tuple[str, int], Any] = {}
        self._crossovers: Dict[Tuple[str, int, Optional[float]], Optional[int]] = {}

    def _kernel(self, name: str, width: int) -> Any:
        key = (str(name).strip().lower(), int(width))
        kernel = self._kernels.get(key)
        if kernel is None:
            # Imported here: the engine sits above the analysis layer's
            # spec-only dependencies, and pulls in numpy machinery the
            # pure pricing paths don't need.
            from ..engine import resolve_kernel

            kernel = resolve_kernel(key[0], key[1])
            self._kernels[key] = kernel
        return kernel

    def energy_delay(
        self, entry: TraceEntry, words: int
    ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """``((cim_e, cim_t), (cpu_e, cpu_t))`` for *words* of *entry*."""
        kernel = self._kernel(entry.kernel, entry.width)
        cpu = CPUCostModel(hit_ratio=entry.hit_ratio)
        cim_e, cim_t = _totals(self.cim.estimate(kernel, words, self.spec))
        cpu_e, cpu_t = _totals(cpu.estimate(kernel, words, self.spec))
        return (cim_e, cim_t), (cpu_e, cpu_t)

    def _cim_wins_at(self, entry: TraceEntry, words: int) -> bool:
        (cim_e, cim_t), (cpu_e, cpu_t) = self.energy_delay(entry, words)
        return cim_e * cim_t <= cpu_e * cpu_t

    def crossover(self, entry: TraceEntry) -> Optional[int]:
        """Smallest batch size at which CIM's E·D wins for this entry.

        CIM's energy-delay is linear in the batch (latency is one
        lock-step pass), the CPU baseline's is quadratic (runtime and
        leakage both grow with the rounds), so a single crossover
        exists; geometric doubling brackets it and bisection pins it.
        ``None`` when CIM still loses at :data:`CROSSOVER_CAP_WORDS`.
        """
        key = (str(entry.kernel).strip().lower(), entry.width,
               entry.hit_ratio)
        if key in self._crossovers:
            return self._crossovers[key]
        crossover: Optional[int]
        if self._cim_wins_at(entry, 1):
            crossover = 1
        else:
            low = 1       # CIM loses here
            high = 2
            while high <= CROSSOVER_CAP_WORDS and not self._cim_wins_at(entry, high):
                low = high
                high *= 2
            if high > CROSSOVER_CAP_WORDS:
                crossover = None
            else:
                while high - low > 1:
                    mid = (low + high) // 2
                    if self._cim_wins_at(entry, mid):
                        high = mid
                    else:
                        low = mid
                crossover = high
        self._crossovers[key] = crossover
        return crossover

    def place(self, entry: TraceEntry) -> PlacementChoice:
        """Price one trace entry under both models and pick a side."""
        (cim_e, cim_t), (cpu_e, cpu_t) = self.energy_delay(entry, entry.words)
        cim_ed = cim_e * cim_t
        cpu_ed = cpu_e * cpu_t
        placement = "cim" if cim_ed <= cpu_ed else "cpu"
        return PlacementChoice(
            kernel=entry.kernel,
            width=entry.width,
            words=entry.words,
            hit_ratio=entry.hit_ratio,
            placement=placement,
            cim_energy=cim_e,
            cim_latency=cim_t,
            cim_energy_delay=cim_ed,
            cpu_energy=cpu_e,
            cpu_latency=cpu_t,
            cpu_energy_delay=cpu_ed,
            crossover_words=self.crossover(entry),
        )


def plan(
    trace: Optional[Iterable[TraceEntry]] = None,
    *,
    spec: Optional[TechSpec] = None,
) -> Plan:
    """Price every trace entry under CIM and CPU models; emit the plan.

    ``trace`` defaults to :func:`paper_trace` on the resolved spec.
    Each entry yields one :class:`PlacementChoice` with both predicted
    energy-delay products, the winning placement and the crossover
    batch size.
    """
    spec = spec if spec is not None else TABLE1
    entries = list(trace) if trace is not None else paper_trace(spec)
    if not entries:
        raise PlannerError("plan needs at least one trace entry")
    pricer = _EntryPricer(spec)
    return Plan(
        spec_digest=spec.digest,
        choices=tuple(pricer.place(entry) for entry in entries),
    )


def plan_request(
    kernel: str,
    width: int,
    words: int,
    *,
    spec: Optional[TechSpec] = None,
    hit_ratio: Optional[float] = None,
) -> PlacementChoice:
    """Place one request-shaped workload (kernel x width x words)."""
    spec = spec if spec is not None else TABLE1
    entry = TraceEntry(kernel=kernel, width=width, words=words,
                       hit_ratio=hit_ratio)
    return _EntryPricer(spec).place(entry)


def plan_metrics(result: Plan) -> Dict[str, float]:
    """Flatten a plan into sweep-friendly ``plan.<kernel>.*`` metrics.

    The DSE hook: merged into every sweep point's metric mapping so
    "at which write energy / array size does offload win?" is a plain
    ``repro sweep`` over these columns.
    """
    metrics: Dict[str, float] = {}
    for choice in result.choices:
        prefix = f"plan.{choice.kernel}"
        metrics[f"{prefix}.cim_energy_delay"] = choice.cim_energy_delay
        metrics[f"{prefix}.cpu_energy_delay"] = choice.cpu_energy_delay
        metrics[f"{prefix}.cim_wins"] = 1.0 if choice.cim_wins else 0.0
        if choice.crossover_words is not None:
            metrics[f"{prefix}.crossover_words"] = float(choice.crossover_words)
    return metrics
