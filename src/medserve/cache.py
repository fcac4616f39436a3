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

Each stored entry's embedding is also one float32 row of a matrix, in log
order. A semantic lookup scores every row with one matrix-vector product and
rescores, exactly, only the rows whose cosine could still clear the
threshold: since Jaccard is at most 1, a blend of at least tau needs a
cosine of at least (tau - alpha) / (1 - alpha).

Disk appends run on a background writer thread; inserts are acknowledged
after the memory write and a close() flush barrier drains the queue.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import queue
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .query_pipeline import tokenize

log = logging.getLogger(__name__)

EMBED_DIM = 64
_RECORD_HEADER = struct.Struct("<I")

# Slack on the cosine prune. A float32 dot product of two 64-wide unit
# vectors lies within 64 * 2**-24 (about 3.8e-6) of the float64 cosine the
# rescoring computes, and the float32 rounding of the embeddings and of the
# cut itself adds under 1e-6; 1e-4 covers both many times over.
PRUNE_MARGIN = 1e-4
_INITIAL_ROWS = 1024


def jaccard(s1, s2) -> float:
    """|s1 & s2| / |s1 | s2| of two sets; two empty sets count as identical (1.0)."""
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / len(s1 | s2)


def embed(text: str, tokens=None) -> np.ndarray:
    """Deterministic feature-hashed bag-of-tokens vector, EMBED_DIM wide,
    unit L2 norm.

    Token order is irrelevant; empty text maps to the zero vector. The hash
    is md5-based so vectors are stable across processes and platforms.
    `tokens`, when given, must be `tokenize(text)`; it saves tokenizing again.
    """
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    for token in tokenize(text) if tokens is None else tokens:
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


class QueryFeatures:
    """What scoring needs of one query, each part computed at most once.

    `tokens`, when given, must be `tokenize(text)` (the service passes the
    tokens `classify` already made). The embedding is computed on first use,
    so an exact hit never pays for it.
    """

    def __init__(self, text: str, tokens=None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens

    @cached_property
    def token_set(self) -> frozenset[str]:
        return frozenset(self.tokens)

    @cached_property
    def embedding(self) -> np.ndarray:
        return embed(self.text, self.tokens)


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
              timestamp: float | None = None, tokens: frozenset[str] | None = None,
              embedding: np.ndarray | None = None) -> "CacheEntry":
        """`tokens` and `embedding`, when given, must be the query's token set
        and `embed(query)`."""
        return cls(
            query=query,
            tokens=frozenset(tokenize(query)) if tokens is None else tokens,
            embedding=embed(query) if embedding is None else embedding,
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
        # The memory tier in LRU order; a key's value is the tick of its last
        # touch, so sorting by it restores that order.
        self._lru: OrderedDict[str, int] = OrderedDict()
        self._ticks = itertools.count()
        self._unlogged: set[str] = set()
        # Row i of the matrix is the embedding of _row_entries[i]; rows follow
        # log order. A dropped entry leaves None in its row until _compact
        # renumbers. The cosine and mask buffers match the matrix, so a
        # lookup allocates nothing in proportion to the store.
        self._matrix = np.zeros((_INITIAL_ROWS, EMBED_DIM), dtype=np.float32)
        self._cosines = np.empty(_INITIAL_ROWS, dtype=np.float32)
        self._passing = np.empty(_INITIAL_ROWS, dtype=bool)
        self._row_entries: list[CacheEntry | None] = []
        self._row_of: dict[str, int] = {}
        # A row whose cosine is below the cut has a blend below tau: no
        # cut when alpha is 1 (cosine has no weight) or the cut is not positive.
        alpha, tau = self.config.alpha, self.config.tau
        cut = (tau - alpha) / (1.0 - alpha) - PRUNE_MARGIN if alpha < 1.0 else 0.0
        self._cut = cut if cut > 0.0 else None
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
                for entry in entries:
                    self._store(entry)
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

    def insert(self, query: str, response: str, category: str = "",
               features: QueryFeatures | None = None):
        """Store a response; acknowledged after the memory write.

        Re-inserting an identical (query, response) pair is a no-op beyond
        recency: the hit count survives and the log does not grow.
        `features`, when given, are the query's (as passed to `lookup`).
        """
        with self._lock:
            existing = self._entries.get(query)
            if existing is None or existing.response != response:
                features = features or QueryFeatures(query)
                entry = CacheEntry.build(query, response, category,
                                         tokens=features.token_set,
                                         embedding=features.embedding)
                self._store(entry)
                self.stats.inserts += 1
                if self._log is not None and not self.degraded:
                    self._queue.put(entry)
                else:
                    self._unlogged.add(query)
            self._touch(query)

    def _store(self, entry: CacheEntry):
        """Put an entry in the store; a query new to it gets the next row."""
        row = self._row_of.get(entry.query)
        if row is None:
            row = len(self._row_entries)
            if row == len(self._matrix):
                self._grow()
            self._row_of[entry.query] = row
            self._row_entries.append(entry)
        else:
            self._row_entries[row] = entry
        self._matrix[row] = entry.embedding
        self._entries[entry.query] = entry

    def _drop(self, query: str):
        """Remove an entry from the store; compact once most rows are dead."""
        del self._entries[query]
        row = self._row_of.pop(query)
        self._row_entries[row] = None
        if 2 * len(self._row_of) < len(self._row_entries):
            self._compact()

    def _compact(self):
        """Renumber the live rows from 0, keeping their (log) order."""
        live = [row for row, entry in enumerate(self._row_entries) if entry is not None]
        self._matrix[:len(live)] = self._matrix[live]
        self._row_entries = [self._row_entries[row] for row in live]
        self._row_of = {entry.query: row for row, entry in enumerate(self._row_entries)}

    def _grow(self):
        """Double the matrix and its buffers."""
        rows = 2 * len(self._matrix)
        matrix = np.zeros((rows, EMBED_DIM), dtype=np.float32)
        matrix[:len(self._matrix)] = self._matrix
        self._matrix = matrix
        self._cosines = np.empty(rows, dtype=np.float32)
        self._passing = np.empty(rows, dtype=bool)

    def _touch(self, query: str):
        """Put a key at the MRU end of the memory tier, evicting as needed."""
        self._lru[query] = next(self._ticks)
        self._lru.move_to_end(query)
        while len(self._lru) > self.capacity:
            evicted, _ = self._lru.popitem(last=False)
            self.stats.evictions += 1
            if evicted in self._unlogged:
                self._unlogged.remove(evicted)
                self._drop(evicted)

    # -- read path ----------------------------------------------------

    def lookup(self, query: str, features: QueryFeatures | None = None) -> CacheHit | None:
        """Exact match first, then best semantic match (memory then disk).

        A memory-tier semantic match that clears tau short-circuits the disk
        scan. Hits promote the entry to the memory MRU position. `features`,
        when given, must describe `query`; a later `insert` can reuse them.
        """
        with self._lock:
            entry = self._entries.get(query)
            if entry is not None:
                return self._hit(entry, "memory" if query in self._lru else "disk", 1.0)
            features = features or QueryFeatures(query)
            tokens, vec = features.token_set, features.embedding
            for tier, entries in zip(("memory", "disk"), self._candidates(vec)):
                best = self._best_semantic(entries, tokens, vec)
                if best is not None:
                    return self._hit(best[0], tier, best[1])
            self.stats.misses += 1
            return None

    def _candidates(self, vec: np.ndarray) -> tuple[list, list]:
        """The entries whose blend with `vec` can reach tau: memory-tier ones
        in LRU order, then disk-tier ones in log order."""
        used = len(self._row_entries)
        if self._cut is None:
            rows = range(used)
        else:
            cosines = np.dot(self._matrix[:used], vec, out=self._cosines[:used])
            passing = np.greater_equal(cosines, self._cut, out=self._passing[:used])
            rows = np.flatnonzero(passing).tolist()
        memory, disk = [], []
        for row in rows:
            entry = self._row_entries[row]
            if entry is not None:
                (memory if entry.query in self._lru else disk).append(entry)
        memory.sort(key=lambda e: self._lru[e.query])
        return memory, disk

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
