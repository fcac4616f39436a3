"""Response cache: one entry store, a memory LRU tier, and a disk log.

Entries live in one store keyed by query text, in first-insert (log) order;
the memory tier is a `capacity`-bounded LRU order over its keys, and a stored
entry outside that order is a disk-tier entry. Lookups try an exact text
match first, then the best semantic match (memory before disk) whose blended
similarity (token-set Jaccard plus cosine over feature-hashed bag-of-token
embeddings) clears the acceptance threshold. An entry inserted while the log
is usable is persisted, so its memory eviction loses nothing; one inserted
in memory-only or degraded mode is never written and is dropped on eviction.
Recovery after a crash replays the longest consistent prefix of the log.

Disk appends run on a background writer thread; inserts are acknowledged
after the memory write and a close() flush barrier drains the queue.
"""

from __future__ import annotations

import hashlib
import logging
import queue
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .query_pipeline import tokenize

log = logging.getLogger(__name__)

EMBED_DIM = 64
_RECORD_HEADER = struct.Struct("<I")


def jaccard(s1, s2) -> float:
    """|s1 & s2| / |s1 | s2| of two sets; two empty sets count as identical (1.0)."""
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / len(s1 | s2)


def embed(text: str) -> np.ndarray:
    """Deterministic feature-hashed bag-of-tokens vector, EMBED_DIM wide,
    unit L2 norm.

    Token order is irrelevant; empty text maps to the zero vector. The hash
    is md5-based so vectors are stable across processes and platforms.
    """
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.md5(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "little") % EMBED_DIM
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[idx] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec.astype(np.float32)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero vectors compare as 0 by convention."""
    na = float(np.linalg.norm(np.asarray(a, dtype=np.float64)))
    nb = float(np.linalg.norm(np.asarray(b, dtype=np.float64)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(np.asarray(a, np.float64), np.asarray(b, np.float64)) / (na * nb))


@dataclass(frozen=True)
class SimilarityConfig:
    """alpha blends token overlap vs embedding cosine; tau is the hit bar."""

    alpha: float = 0.3
    tau: float = 0.92

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")


def _blend(alpha: float, tokens1, vec1, tokens2, vec2) -> float:
    """alpha * Jaccard(token sets) + (1 - alpha) * cosine(embeddings)."""
    return alpha * jaccard(tokens1, tokens2) + (1.0 - alpha) * cosine(vec1, vec2)


def similarity(q1: str, q2: str, cfg: SimilarityConfig) -> float:
    """The blended similarity a lookup for q1 scores a cached q2 by."""
    return _blend(cfg.alpha, frozenset(tokenize(q1)), embed(q1),
                  frozenset(tokenize(q2)), embed(q2))


@dataclass
class CacheEntry:
    query: str
    tokens: frozenset[str]
    embedding: np.ndarray
    response: str
    category: str
    timestamp: float
    hits: int = 0

    @classmethod
    def build(cls, query: str, response: str, category: str,
              timestamp: float | None = None) -> "CacheEntry":
        return cls(
            query=query,
            tokens=frozenset(tokenize(query)),
            embedding=embed(query),
            response=response,
            category=category,
            timestamp=time.time() if timestamp is None else timestamp,
        )


def encode_record(entry: CacheEntry) -> bytes:
    """Length-prefixed record: query, response, category, embedding, timestamp."""
    q = entry.query.encode("utf-8")
    r = entry.response.encode("utf-8")
    c = entry.category.encode("utf-8")
    emb = np.asarray(entry.embedding, dtype="<f4").tobytes()
    payload = b"".join([
        _RECORD_HEADER.pack(len(q)), q,
        _RECORD_HEADER.pack(len(r)), r,
        _RECORD_HEADER.pack(len(c)), c,
        emb,
        struct.pack("<d", entry.timestamp),
    ])
    return _RECORD_HEADER.pack(len(payload)) + payload


def decode_records(blob: bytes) -> tuple[list[CacheEntry], int]:
    """Parse the longest consistent prefix; returns (entries, valid_bytes)."""
    entries = []
    offset = 0
    while True:
        if offset + 4 > len(blob):
            break
        (payload_len,) = _RECORD_HEADER.unpack_from(blob, offset)
        start = offset + 4
        end = start + payload_len
        if end > len(blob):
            break
        try:
            entries.append(_decode_payload(blob[start:end]))
        except (struct.error, UnicodeDecodeError, ValueError):
            break
        offset = end
    return entries, offset


def _decode_payload(payload: bytes) -> CacheEntry:
    pos = 0

    def take_str():
        nonlocal pos
        (n,) = _RECORD_HEADER.unpack_from(payload, pos)
        pos += 4
        if pos + n > len(payload):
            raise ValueError("truncated field")
        out = payload[pos:pos + n].decode("utf-8")
        pos += n
        return out

    query = take_str()
    response = take_str()
    category = take_str()
    emb_bytes = EMBED_DIM * 4
    if pos + emb_bytes + 8 != len(payload):
        raise ValueError("record payload length mismatch")
    embedding = np.frombuffer(payload[pos:pos + emb_bytes], dtype="<f4").copy()
    pos += emb_bytes
    (timestamp,) = struct.unpack_from("<d", payload, pos)
    return CacheEntry(
        query=query, tokens=frozenset(tokenize(query)), embedding=embedding,
        response=response, category=category, timestamp=timestamp,
    )


class DiskLog:
    """Append-only record log; the index is rebuilt by full scan on open."""

    def __init__(self, path: Path):
        self.path = path
        self._fh = open(path, "ab")

    @classmethod
    def open(cls, directory) -> tuple["DiskLog", list[CacheEntry]]:
        """Open the log for appending; return it and the records it holds,
        which the log itself does not keep."""
        path = Path(directory) / "cache.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = path.read_bytes() if path.exists() else b""
        entries, valid = decode_records(blob)
        disk_log = cls(path)
        # A partial tail record can never be completed; drop it now so the
        # next append lands on a record boundary.
        if valid < len(blob):
            disk_log._fh.truncate(valid)
        disk_log._fh.seek(0, 2)
        return disk_log, entries

    def append(self, entry: CacheEntry):
        self._fh.write(encode_record(entry))
        self._fh.flush()

    def close(self):
        self._fh.close()


@dataclass
class CacheStats:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0


@dataclass(frozen=True)
class CacheHit:
    response: str
    tier: str  # "memory" | "disk"
    similarity: float
    category: str


_CLOSE = object()


class TwoLevelCache:
    """One entry store: a memory LRU tier over a persistent disk tier."""

    def __init__(self, capacity: int, disk_dir=None,
                 config: SimilarityConfig | None = None):
        if capacity < 1:
            raise ValueError("memory capacity must be >= 1")
        self.capacity = capacity
        self.config = config or SimilarityConfig()
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: dict[str, CacheEntry] = {}  # first-insert (log) order
        self._lru: OrderedDict[str, None] = OrderedDict()
        self._unlogged: set[str] = set()
        self._log: DiskLog | None = None
        self.degraded = disk_dir is None
        self._queue: queue.Queue = queue.Queue()
        self._writer: threading.Thread | None = None
        if disk_dir is not None:
            try:
                self._log, entries = DiskLog.open(disk_dir)
            except OSError as exc:
                log.warning("disk tier unavailable (%s); running memory-only", exc)
                self.degraded = True
            else:
                self._entries = {e.query: e for e in entries}
                self._writer = threading.Thread(
                    target=self._writer_loop, name="cache-writer", daemon=True
                )
                self._writer.start()

    # -- write path ---------------------------------------------------

    def _writer_loop(self):
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                self._queue.task_done()
                return
            try:
                self._log.append(item)
            except OSError as exc:
                log.warning("disk append failed (%s); entering degraded mode", exc)
                self.degraded = True
            finally:
                self._queue.task_done()

    def insert(self, query: str, response: str, category: str = ""):
        """Store a response; acknowledged after the memory write.

        Re-inserting an identical (query, response) pair is a no-op beyond
        recency: the hit count survives and the log does not grow.
        """
        with self._lock:
            existing = self._entries.get(query)
            if existing is None or existing.response != response:
                entry = CacheEntry.build(query, response, category)
                self._entries[query] = entry
                self.stats.inserts += 1
                if self._log is not None and not self.degraded:
                    self._queue.put(entry)
                else:
                    self._unlogged.add(query)
            self._touch(query)

    def _touch(self, query: str):
        """Put a key at the MRU end of the memory tier, evicting as needed."""
        self._lru[query] = None
        self._lru.move_to_end(query)
        while len(self._lru) > self.capacity:
            evicted, _ = self._lru.popitem(last=False)
            self.stats.evictions += 1
            if evicted in self._unlogged:
                self._unlogged.remove(evicted)
                del self._entries[evicted]

    # -- read path ----------------------------------------------------

    def lookup(self, query: str) -> CacheHit | None:
        """Exact match first, then best semantic match (memory then disk).

        A memory-tier semantic match that clears tau short-circuits the disk
        scan. Hits promote the entry to the memory MRU position.
        """
        with self._lock:
            entry = self._entries.get(query)
            if entry is not None:
                return self._hit(entry, "memory" if query in self._lru else "disk", 1.0)
            tokens = frozenset(tokenize(query))
            vec = embed(query)
            tiers = (
                ("memory", map(self._entries.__getitem__, self._lru)),
                ("disk", (e for q, e in self._entries.items() if q not in self._lru)),
            )
            for tier, entries in tiers:
                best = self._best_semantic(entries, tokens, vec)
                if best is not None:
                    return self._hit(best[0], tier, best[1])
            self.stats.misses += 1
            return None

    def _best_semantic(self, entries, tokens, vec):
        best_entry, best_sim = None, -1.0
        alpha = self.config.alpha
        for entry in entries:
            sim = _blend(alpha, tokens, vec, entry.tokens, entry.embedding)
            if sim > best_sim:
                best_entry, best_sim = entry, sim
        if best_entry is not None and best_sim >= self.config.tau:
            return best_entry, best_sim
        return None

    def _hit(self, entry: CacheEntry, tier: str, sim: float) -> CacheHit:
        entry.hits += 1
        if tier == "memory":
            self.stats.memory_hits += 1
        else:
            self.stats.disk_hits += 1
        self._touch(entry.query)
        return CacheHit(response=entry.response, tier=tier, similarity=sim,
                        category=entry.category)

    # -- lifecycle ------------------------------------------------------

    def metrics(self) -> dict:
        """The counters, whether appends have stopped reaching the log (also
        true when there is no log), and the appends still queued."""
        return {**asdict(self.stats), "degraded": self.degraded,
                "queue_depth": self._queue.qsize()}

    def flush(self):
        """Block until all queued disk appends have retired."""
        if self._writer is not None:
            self._queue.join()

    def close(self):
        if self._writer is not None:
            self._queue.put(_CLOSE)
            self._queue.join()
            self._writer = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
