"""Seeded input generators for the benchmark workloads and the crossbar probe.

The benchmark owns its inputs: nothing here imports ``repro``, so a
change under ``src/`` cannot reshape a workload.  Every stream is a
pure function of ``(workload, seed)`` and is consumed strictly in
index order, so the verifier can regenerate the operands of any served
request instead of holding them in memory while the server runs.
:func:`fingerprint` digests a fixed prefix of a stream; two commits
that print the same fingerprint ran the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The four kernel families both serve workloads mix, as (name, width).
FAMILIES: Tuple[Tuple[str, int], ...] = (
    ("adder", 32), ("word-compare", 32), ("cam-match", 32), ("adder", 16),
)

#: The 16 ``memristor.write_energy`` override points serve-small's
#: evaluate requests pick from (0.5 fJ .. 2.0 fJ in 0.1 fJ steps).
OVERRIDE_POINTS: Tuple[Dict[str, float], ...] = tuple(
    {"memristor.write_energy": (5 + i) * 1e-16} for i in range(16)
)

#: Zipf exponent of the override-point law (rank 1 is ~30% of picks).
ZIPF_S = 1.2

SMALL_EVALUATE_EVERY = 10   # every 10th serve-small request evaluates
SMALL_MAX_WORDS = 4         # kernel requests carry 1..4 words
BULK_WORDS = 4096

TILES = 8
TILE_SIZE = 64
WRITE_EVERY = 8             # every 8th crossbar job programs a cell first
CROSSBAR_PROBE_JOBS = 256   # jobs in a traced run's crossbar probe
LRS, HRS = 1e-4, 1e-6       # junction conductances (S): 10 kOhm / 1 MOhm
DRIVE_V = 1.0
WIRE_RESISTANCE = 5.0


@dataclass(frozen=True)
class ServeItem:
    """One serve request before it is built with ``api.request``."""

    index: int
    kind: str                       # "kernel" | "evaluate"
    family: int = -1                # index into FAMILIES
    operands: Optional[Dict[str, np.ndarray]] = None
    point: int = -1                 # index into OVERRIDE_POINTS

    @property
    def words(self) -> int:
        if self.operands is None:
            return 1
        return int(self.operands["a"].shape[0])

    def request_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for ``api.request``."""
        if self.kind == "evaluate":
            return {"kind": "evaluate", "id": str(self.index),
                    "overrides": OVERRIDE_POINTS[self.point]}
        kernel, width = FAMILIES[self.family]
        return {"kernel": kernel, "width": width, "id": str(self.index),
                "operands": self.operands, "backend": "auto"}

    def encode(self) -> bytes:
        head = f"{self.index}|{self.kind}|{self.family}|{self.point}|"
        body = b""
        if self.operands is not None:
            body = b"".join(self.operands[k].tobytes()
                            for k in sorted(self.operands))
        return head.encode() + body


@dataclass(frozen=True)
class CrossbarJob:
    """One electrical solve: drive cell (row, col) of a tile.

    ``write`` jobs first program that cell to the opposite state, which
    changes the conductance matrix and forces a fresh factorization.
    ``scheme`` is 2 (V/2: unselected lines at V/2) or 3 (V/3: unselected
    rows at V/3, unselected columns at 2V/3).
    """

    index: int
    tile: int
    row: int
    col: int
    scheme: int
    write: bool

    def drives(self) -> Tuple[Dict[int, float], Dict[int, float]]:
        if self.scheme == 2:
            row_rest, col_rest = DRIVE_V / 2, DRIVE_V / 2
        else:
            row_rest, col_rest = DRIVE_V / 3, 2 * DRIVE_V / 3
        rows = {r: row_rest for r in range(TILE_SIZE)}
        cols = {c: col_rest for c in range(TILE_SIZE)}
        rows[self.row] = DRIVE_V
        cols[self.col] = 0.0
        return rows, cols

    def encode(self) -> bytes:
        return (f"{self.index}|{self.tile}|{self.row}|{self.col}|"
                f"{self.scheme}|{int(self.write)}").encode()


class _FamilyDeck:
    """Deals kernel families in seeded shuffles of all four, so every
    run's family mix is exactly uniform and only the order varies."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._deck: List[int] = []

    def draw(self) -> int:
        if not self._deck:
            self._deck = [int(i) for i in self._rng.permutation(len(FAMILIES))]
        return self._deck.pop()


def _operands(rng: np.random.Generator, family: int, words: int
              ) -> Dict[str, np.ndarray]:
    width = FAMILIES[family][1]
    high = np.uint64(1) << np.uint64(width)
    return {name: rng.integers(0, high, size=words, dtype=np.uint64)
            for name in ("a", "b")}


def _zipf_cdf(count: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return np.cumsum(weights) / weights.sum()


def serve_small_stream(seed: int) -> Iterator[ServeItem]:
    """serve-small: 90% kernel requests of 1-4 unique words, 10%
    evaluate requests over zipf-distributed override points."""
    rng = np.random.default_rng([seed, 1])
    deck = _FamilyDeck(rng)
    cdf = _zipf_cdf(len(OVERRIDE_POINTS), ZIPF_S)
    seen = set()
    index = 0
    while True:
        if index % SMALL_EVALUATE_EVERY == SMALL_EVALUATE_EVERY - 1:
            point = int(np.searchsorted(cdf, rng.random(), side="right"))
            yield ServeItem(index, "evaluate",
                            point=min(point, len(OVERRIDE_POINTS) - 1))
        else:
            family = deck.draw()
            words = int(rng.integers(1, SMALL_MAX_WORDS + 1))
            while True:  # unique operands: every kernel request is a cache write
                operands = _operands(rng, family, words)
                key = (family, operands["a"].tobytes(), operands["b"].tobytes())
                if key not in seen:
                    seen.add(key)
                    break
            yield ServeItem(index, "kernel", family=family, operands=operands)
        index += 1


def serve_bulk_stream(seed: int) -> Iterator[ServeItem]:
    """serve-bulk: 4096-word kernel requests with unique operands."""
    rng = np.random.default_rng([seed, 2])
    deck = _FamilyDeck(rng)
    seen = set()
    index = 0
    while True:
        family = deck.draw()
        while True:
            operands = _operands(rng, family, BULK_WORDS)
            key = hashlib.blake2b(
                operands["a"].tobytes() + operands["b"].tobytes(),
                digest_size=16).digest()
            if key not in seen:
                seen.add(key)
                break
        yield ServeItem(index, "kernel", family=family, operands=operands)
        index += 1


def crossbar_tiles(seed: int) -> List[np.ndarray]:
    """The 8 seeded 64x64 conductance tiles (random LRS/HRS cells)."""
    rng = np.random.default_rng([seed, 3])
    return [np.where(rng.random((TILE_SIZE, TILE_SIZE)) < 0.5, LRS, HRS)
            for _ in range(TILES)]


def crossbar_stream(seed: int) -> Iterator[CrossbarJob]:
    """The crossbar probe's jobs: 7 in 8 re-drive an unchanged tile (a
    factorization-cache read), every 8th programs one cell first."""
    rng = np.random.default_rng([seed, 4])
    index = 0
    while True:
        yield CrossbarJob(
            index=index,
            tile=int(rng.integers(TILES)),
            row=int(rng.integers(TILE_SIZE)),
            col=int(rng.integers(TILE_SIZE)),
            scheme=int(rng.choice((2, 3))),
            write=index % WRITE_EVERY == WRITE_EVERY - 1,
        )
        index += 1


STREAMS = {
    "serve-small": serve_small_stream,
    "serve-bulk": serve_bulk_stream,
}

#: How many leading stream items :func:`fingerprint` digests.
FINGERPRINT_ITEMS = {"serve-small": 4096, "serve-bulk": 64}


def fingerprint(workload: str, seed: int) -> str:
    """Digest of the workload's constants, a fixed stream prefix and
    the crossbar probe's inputs."""
    digest = hashlib.blake2b(digest_size=16)
    constants = (workload, seed, FAMILIES, OVERRIDE_POINTS, ZIPF_S,
                 SMALL_EVALUATE_EVERY, SMALL_MAX_WORDS, BULK_WORDS, TILES,
                 TILE_SIZE, WRITE_EVERY, CROSSBAR_PROBE_JOBS, LRS, HRS,
                 DRIVE_V, WIRE_RESISTANCE)
    digest.update(repr(constants).encode())
    stream = STREAMS[workload](seed)
    for _ in range(FINGERPRINT_ITEMS[workload]):
        digest.update(next(stream).encode())
    for tile in crossbar_tiles(seed):
        digest.update(tile.tobytes())
    jobs = crossbar_stream(seed)
    for _ in range(CROSSBAR_PROBE_JOBS):
        digest.update(next(jobs).encode())
    return digest.hexdigest()
