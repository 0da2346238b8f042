"""Serving protocol types: requests, results, digests, JSON codecs.

A :class:`ServeRequest` describes one unit of work the server accepts:

``kernel``
    Execute a built-in engine kernel (resolved through
    :func:`repro.engine.resolve_kernel`) over an operand word batch on
    one of the engine backends.  Compatible kernel requests — same
    kernel, width, backend, spec digest, and operand keys — coalesce
    into a single engine functional batch.
``evaluate``
    Re-run the full Table 2 evaluation (optionally under per-request
    :meth:`~repro.spec.TechSpec.derive` overrides) and return its
    metrics; identical evaluations dedupe within a batch window and
    across the digest-keyed result cache.

Operands travel packed: construction turns every operand into a
read-only, contiguous little-endian ``uint64`` array (one vectorised
copy for integer arrays; lists of Python numbers are checked word by
word), rejecting negative, too-wide and non-integral words with a
:class:`~repro.errors.ServeError` that names the operand and index.
The arrays are what coalescing concatenates and the engine packs;
Python ints reappear only in :class:`ServeResult` outputs and on the
JSONL wire.

Identity is content-addressed: :attr:`ServeRequest.digest` is a SHA-256
over a versioned canonical-JSON header of the *semantic* fields (kind,
kernel, width, backend, operand names with their word counts, params,
spec overrides — not the caller's id or deadline) followed by each
operand's raw bytes in name order.  It keys the server's result cache
so repeat submissions are served without re-execution, and it is
computed at most once per request instance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine import BACKENDS
from ..errors import ServeError

__all__ = [
    "REQUEST_KINDS",
    "SERVE_BACKENDS",
    "ServeRequest",
    "ServeResult",
    "make_request",
    "request_from_dict",
    "result_to_dict",
]

#: Accepted values of :attr:`ServeRequest.kind`.
REQUEST_KINDS: Tuple[str, ...] = ("kernel", "evaluate")

#: Accepted values of :attr:`ServeRequest.backend`: every engine
#: backend plus ``"auto"``, which admission resolves to
#: ``functional_bitplane`` for operand batches and ``analytical`` for
#: operand-less requests.
SERVE_BACKENDS: Tuple[str, ...] = tuple(BACKENDS) + ("auto",)


#: The packed operand word type: little-endian uint64.
WORD_DTYPE = np.dtype("<u8")

#: Version tag of the :attr:`ServeRequest.digest` format.
DIGEST_VERSION = 2

_WORD_LIMIT = 1 << 64

#: What callers may pass as one operand: integer words or an array.
OperandValues = Union[Sequence[int], np.ndarray]


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _outside(name: str, index: int, word: int) -> ServeError:
    return ServeError(
        f"operand {name!r} word {index} = {word} is outside 0..2**64-1")


def _checked_word(name: str, index: int, value: Any) -> int:
    try:
        word = int(value)
        integral = word == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ServeError(
            f"operand {name!r} word {index} is {value!r}; "
            "words must be integers")
    if not 0 <= word < _WORD_LIMIT:
        raise _outside(name, index, word)
    return word


def _packed_words(name: str, values: OperandValues) -> np.ndarray:
    """One operand as a read-only contiguous ``<u8`` array (a copy).

    An array that is already packed — read-only ``<u8``, flat, owning
    its buffer — passes through uncopied, so re-constructing a request
    (``dataclasses.replace``) costs no per-word work.
    """
    if (isinstance(values, np.ndarray) and values.dtype == WORD_DTYPE
            and values.ndim == 1 and values.flags.owndata
            and not values.flags.writeable):
        return values
    not_flat = f"operand {name!r} must be a flat word sequence"
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ServeError(not_flat) from None
    if array.ndim != 1:
        raise ServeError(not_flat)
    if array.dtype.kind in "biu":
        if array.dtype.kind == "i" and (array < 0).any():
            index = int(np.flatnonzero(array < 0)[0])
            raise _outside(name, index, int(array[index]))
        words = np.array(array, dtype=WORD_DTYPE, order="C", copy=True)
    else:
        # Floats, objects and mixed lists: NumPy's coercion can round
        # (a float64 holds 2**63 + 1 as 2**63), so check the originals.
        items = values.tolist() if isinstance(values, np.ndarray) else values
        words = np.array(
            [_checked_word(name, i, v) for i, v in enumerate(items)],
            dtype=WORD_DTYPE)
    words.setflags(write=False)
    return words


def _pack_operands(
    operands: Mapping[Any, OperandValues],
) -> Dict[str, np.ndarray]:
    return {str(name): _packed_words(str(name), values)
            for name, values in operands.items()}


@dataclass(frozen=True)
class ServeRequest:
    """One unit of serving work (see the module docstring).

    ``operands`` maps word-group names to packed words — read-only
    little-endian ``uint64`` arrays, normalised (and copied) at
    construction from any integer sequence (kernel requests);
    ``params`` carries evaluation options (``dna_packing``);
    ``overrides`` are dotted :meth:`~repro.spec.TechSpec.derive` paths
    applied per request; ``deadline_s`` is the caller's total time
    budget measured from submission (``None`` = no deadline);
    ``trace_id`` is the caller's distributed-trace identity — purely
    observational, so (like ``id`` and ``deadline_s``) it is excluded
    from :attr:`digest` and a fresh one is minted server-side when the
    caller sends none.  ``tenant`` names the submitting principal for
    the cluster layer's admission control (quotas); like ``id`` it is
    attribution, not content, so it is excluded from :attr:`digest`
    (two tenants asking for the same work share one cache entry) and
    from :meth:`batch_key` (their requests coalesce; billing is split
    per request regardless).
    """

    id: str
    kind: str = "kernel"
    kernel: str = ""
    width: int = 32
    operands: Mapping[str, np.ndarray] = field(default_factory=dict)
    backend: str = "functional"
    params: Mapping[str, Any] = field(default_factory=dict)
    overrides: Mapping[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None
    trace_id: str = ""
    tenant: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", _pack_operands(self.operands))
        if self.kind not in REQUEST_KINDS:
            raise ServeError(
                f"request kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )
        if self.kind == "kernel":
            if not self.kernel:
                raise ServeError("kernel requests need a kernel name")
            if self.backend not in SERVE_BACKENDS:
                raise ServeError(
                    f"backend must be one of {SERVE_BACKENDS}, "
                    f"got {self.backend!r}"
                )
            # "auto" without operands resolves to the analytical backend
            # server-side, so it shares analytical's operand exemption.
            if self.backend not in ("analytical", "auto") and not self.operands:
                raise ServeError(
                    f"{self.backend} kernel requests need operands"
                )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServeRequest):
            return NotImplemented
        if self.operands.keys() != other.operands.keys():
            return False
        return all(
            np.array_equal(values, other.operands[name])
            for name, values in self.operands.items()
        ) and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self) if f.name != "operands"
        )

    @property
    def words(self) -> int:
        """Word count of the operand batch (1 for evaluate requests)."""
        if self.kind != "kernel" or not self.operands:
            return 1
        return max(values.shape[0] for values in self.operands.values())

    @property
    def digest(self) -> str:
        """Content digest — the result-cache key (id/deadline excluded).

        SHA-256 over a canonical-JSON header (format version, semantic
        fields, operand names with word counts) and then each operand's
        raw little-endian bytes in name order.  Computed once per
        instance.
        """
        memo: Optional[str] = self.__dict__.get("_digest")
        if memo is None:
            memo = self._content_digest()
            object.__setattr__(self, "_digest", memo)
        return memo

    def _content_digest(self) -> str:
        names = sorted(self.operands)
        header = {
            "v": DIGEST_VERSION,
            "kind": self.kind,
            "kernel": self.kernel.lower(),
            "width": self.width,
            "backend": self.backend,
            "operands": [[name, self.operands[name].shape[0]] for name in names],
            "params": {k: self.params[k] for k in sorted(self.params)},
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
        }
        sha = hashlib.sha256(_canonical(header).encode())
        for name in names:
            sha.update(self.operands[name].data)
        return sha.hexdigest()

    def batch_key(self, spec_digest: str) -> Tuple[Any, ...]:
        """Coalescing compatibility key: requests sharing it can merge
        into one engine execution under one derived spec."""
        return (
            self.kind,
            self.kernel.lower(),
            self.width,
            self.backend,
            spec_digest,
            tuple(sorted(self.operands)),
            _canonical({k: self.params[k] for k in sorted(self.params)}),
        )


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one successfully served request.

    Failures never become results — they surface as typed
    :class:`~repro.errors.ServeError` subclasses from ``submit`` (the
    JSONL frontend turns them into error records).  ``outputs`` maps
    word-group name -> integer words (kernel requests; empty for the
    analytical backend); ``metrics`` carries the Table 2 numbers
    (evaluate requests).  ``batch_words``/``batch_requests`` record the
    coalesced batch this request rode in; ``cached`` marks result-cache
    hits.
    """

    id: str
    kind: str
    kernel: str
    backend: str
    words: int
    outputs: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    energy: float = 0.0
    latency: float = 0.0
    steps_per_word: int = 0
    spec_digest: str = ""
    batch_words: int = 0
    batch_requests: int = 0
    cached: bool = False
    digest: str = ""
    trace_id: str = ""

    def for_request(
        self, request_id: str, *, cached: bool = False, trace_id: str = ""
    ) -> "ServeResult":
        """The same payload re-addressed to another submitter."""
        return replace(
            self, id=request_id, cached=cached,
            trace_id=trace_id or self.trace_id,
        )


def make_request(
    *,
    kernel: str = "",
    id: str = "",
    kind: str = "kernel",
    width: int = 32,
    operands: Optional[Mapping[str, OperandValues]] = None,
    backend: str = "auto",
    params: Optional[Mapping[str, Any]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    deadline_s: Optional[float] = None,
    trace_id: str = "",
    tenant: str = "",
) -> ServeRequest:
    """The one way to build a :class:`ServeRequest` (``api.request``).

    Operands are packed like every constructor call packs them (so
    NumPy arrays of any integer dtype, lists and tuples digest
    identically), and ``backend`` defaults to ``"auto"`` — the
    bit-plane replay for operand batches — instead of the wire
    format's legacy ``"functional"``.  Evaluate requests ignore the
    backend, so it is pinned to the wire default there; helper-built
    and wire-built evaluations share digests (and therefore cache
    entries).

    Every construction path funnels through here: the JSONL frontend
    (:func:`request_from_dict`), the load generator
    (:mod:`repro.serve.loadgen`), and :func:`repro.api.request`.
    """
    if kind == "evaluate":
        backend = "functional"
    return ServeRequest(
        id=str(id),
        kind=str(kind),
        kernel=str(kernel),
        width=int(width),
        operands=_pack_operands(operands or {}),
        backend=str(backend),
        params=dict(params or {}),
        overrides=dict(overrides or {}),
        deadline_s=None if deadline_s is None else float(deadline_s),
        trace_id=str(trace_id),
        tenant=str(tenant),
    )


def request_from_dict(payload: Mapping[str, Any]) -> ServeRequest:
    """Build a :class:`ServeRequest` from one decoded JSONL object."""
    if not isinstance(payload, Mapping):
        raise ServeError(f"request must be a JSON object, got {type(payload).__name__}")
    known = {"id", "op", "kind", "kernel", "width", "operands", "backend",
             "params", "overrides", "deadline_s", "trace_id", "tenant"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ServeError(f"unknown request fields {unknown}")
    # Validate the backend at parse time: a bad value must become a
    # per-line error record naming it, never an accepted request that
    # fails deep inside the engine after queueing.
    kind = str(payload.get("op", payload.get("kind", "kernel")))
    backend = str(payload.get("backend", "functional"))
    if kind == "kernel" and backend not in SERVE_BACKENDS:
        raise ServeError(
            f"backend must be one of {SERVE_BACKENDS}, got {backend!r}"
        )
    raw_operands = payload.get("operands", {})
    if not isinstance(raw_operands, Mapping):
        raise ServeError("operands must map names to integer word lists")
    for name, values in raw_operands.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ServeError(f"operand {name!r} must be a list of integers")
    deadline = payload.get("deadline_s")
    return make_request(
        id=str(payload.get("id", "")),
        kind=kind,
        kernel=str(payload.get("kernel", "")),
        width=int(payload.get("width", 32)),
        operands=raw_operands,
        backend=backend,
        params=dict(payload.get("params", {})),
        overrides=dict(payload.get("overrides", {})),
        deadline_s=None if deadline is None else float(deadline),
        trace_id=str(payload.get("trace_id", "")),
        tenant=str(payload.get("tenant", "")),
    )


def result_to_dict(result: ServeResult) -> Dict[str, Any]:
    """Flatten a :class:`ServeResult` for the JSONL wire format."""
    out: Dict[str, Any] = {
        "id": result.id,
        "status": "ok",
        "op": result.kind,
        "kernel": result.kernel,
        "backend": result.backend,
        "words": result.words,
        "energy_j": result.energy,
        "latency_s": result.latency,
        "spec_digest": result.spec_digest[:12],
        "batch_words": result.batch_words,
        "batch_requests": result.batch_requests,
        "cached": result.cached,
    }
    if result.trace_id:
        out["trace_id"] = result.trace_id
    if result.outputs:
        out["outputs"] = {k: list(v) for k, v in result.outputs.items()}
    if result.metrics:
        out["metrics"] = dict(result.metrics)
    return out
