"""Response cache: one entry store, a memory LRU tier, and a disk log.

Entries live in one store, a list of rows indexed by query text in
first-insert (log) order; the memory tier is a `capacity`-bounded LRU order
over its keys, and a stored entry outside that order is a disk-tier entry.
Lookups try an exact text match first, then the best semantic match (memory
before disk) whose blended similarity (token-set Jaccard plus cosine over feature-hashed bag-of-token
embeddings) clears the acceptance threshold. An entry inserted while the log
is usable is persisted, so its memory eviction loses nothing; one inserted
in memory-only or degraded mode, or while the writer queue is full, is never
written and is dropped on eviction. Recovery after a crash replays the
longest consistent prefix of the log.

A stored entry keeps only what a lookup returns or scores with: its query,
its token set and its response. Its embedding is held once, as one float32
row of a matrix, in log order: a reopened entry of 8 tokens holds about
1.8 KB of RAM, against about 420 bytes of log. A semantic lookup scores
every row with one matrix-vector product and rescores, exactly, only the
rows whose cosine could still clear the threshold: since Jaccard is at
most 1, a blend of at least tau needs a cosine of at least
(tau - alpha) / (1 - alpha), whatever that cut's sign. With alpha = 1
cosine has no weight, and every row is rescored.

An insert encodes its log record (a CacheEntry) before it is acknowledged;
a background writer thread appends the queued records, at most
WRITE_QUEUE_SIZE of them, and a close() flush barrier drains the queue.
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
from typing import NamedTuple

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
# Encoded records waiting for the writer thread (about 420 bytes each at 8
# tokens); an insert that finds the queue full is kept unlogged.
WRITE_QUEUE_SIZE = 1024


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
    """One disk log record. An insert builds one for the writer and the log
    yields them on open; the store keeps none."""

    query: str
    response: str
    category: str
    embedding: np.ndarray
    timestamp: float

    @classmethod
    def build(cls, query: str, response: str, category: str,
              timestamp: float | None = None) -> "CacheEntry":
        return cls(query, response, category, embed(query),
                   time.time() if timestamp is None else timestamp)


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
    """Parse the longest consistent prefix; returns (records, valid_bytes)."""
    records = []
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
            records.append(_decode_payload(blob[start:end]))
        except (struct.error, UnicodeDecodeError, ValueError):
            break
        offset = end
    return records, offset


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
    # a view of the payload: the store copies it into its matrix row
    embedding = np.frombuffer(payload, dtype="<f4", count=EMBED_DIM, offset=pos)
    (timestamp,) = struct.unpack_from("<d", payload, pos + emb_bytes)
    return CacheEntry(query, response, category, embedding, timestamp)


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
        records, valid = decode_records(blob)
        disk_log = cls(path)
        # A partial tail record can never be completed; drop it now so the
        # next append lands on a record boundary.
        if valid < len(blob):
            disk_log._fh.truncate(valid)
        disk_log._fh.seek(0, 2)
        return disk_log, records

    def append(self, record: bytes):
        """Write one encoded record (see encode_record)."""
        self._fh.write(record)
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
    """A lookup's answer: the stored response, the tier it was found in
    ("memory" or "disk") and its blended similarity to the query (1.0 for an
    exact match)."""

    response: str
    tier: str
    similarity: float


class _Entry(NamedTuple):
    """What the store keeps of an entry; its embedding is its matrix row."""

    query: str
    tokens: frozenset[str]
    response: str


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
        # The memory tier in LRU order; a key's value is the tick of its last
        # touch, so sorting by it restores that order.
        self._lru: OrderedDict[str, int] = OrderedDict()
        self._ticks = itertools.count()
        self._unlogged: set[str] = set()
        # A row whose cosine is below the cut has a blend below tau, whatever
        # the cut's sign; when alpha is 1, cosine has no weight and no row is cut.
        alpha, tau = self.config.alpha, self.config.tau
        self._cut = (tau - alpha) / (1.0 - alpha) - PRUNE_MARGIN if alpha < 1.0 else -np.inf
        self._log: DiskLog | None = None
        self.degraded = disk_dir is None
        self._queue: queue.Queue = queue.Queue(WRITE_QUEUE_SIZE)
        self._writer: threading.Thread | None = None
        records = []
        if disk_dir is not None:
            try:
                self._log, records = DiskLog.open(disk_dir)
            except OSError as exc:
                log.warning("disk tier unavailable (%s); running memory-only", exc)
                self.degraded = True
        # The store: _row_of maps each query, in first-insert (log) order, to
        # its row; row i of the matrix is the embedding of _row_entries[i],
        # which no entry holds itself. A dropped entry leaves None in its row
        # until _compact renumbers. A reopened log's records fit without a grow.
        self._matrix = np.zeros((max(_INITIAL_ROWS, len(records)), EMBED_DIM),
                                dtype=np.float32)
        self._row_entries: list[_Entry | None] = []
        self._row_of: dict[str, int] = {}
        for record in records:
            self._store(record.query, frozenset(tokenize(record.query)),
                        record.response, record.embedding)
        if self._log is not None:
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
        recency: the log does not grow. The record is encoded first, so text
        that UTF-8 cannot encode (an unpaired surrogate) raises ValueError
        and stores nothing. `features`, when given, are the query's (as
        passed to `lookup`).
        """
        with self._lock:
            row = self._row_of.get(query)
            if row is None or self._row_entries[row].response != response:
                features = features or QueryFeatures(query)
                record = encode_record(CacheEntry(query, response, category,
                                                  features.embedding, time.time()))
                self._store(query, features.token_set, response, features.embedding)
                self.stats.inserts += 1
                if self._queue_record(record):
                    self._unlogged.discard(query)
                else:
                    self._unlogged.add(query)
            self._touch(query)

    def _queue_record(self, record: bytes) -> bool:
        """Queue a record for the writer; False, queueing nothing, when
        degraded or when the queue is full."""
        if self.degraded:
            return False
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            return False
        return True

    def _store(self, query: str, tokens: frozenset[str], response: str,
               embedding: np.ndarray):
        """Put an entry in the store; a query new to it gets the next row."""
        entry = _Entry(query, tokens, response)
        row = self._row_of.get(query)
        if row is None:
            row = len(self._row_entries)
            if row == len(self._matrix):
                self._grow()
            self._row_of[query] = row
            self._row_entries.append(entry)
        else:
            self._row_entries[row] = entry
        self._matrix[row] = embedding

    def _drop(self, query: str):
        """Remove an entry from the store; compact once most rows are dead."""
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
        """Double the matrix."""
        matrix = np.zeros((2 * len(self._matrix), EMBED_DIM), dtype=np.float32)
        matrix[:len(self._matrix)] = self._matrix
        self._matrix = matrix

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
            row = self._row_of.get(query)
            if row is not None:
                tier = "memory" if query in self._lru else "disk"
                return self._hit(row, 1.0, tier)
            features = features or QueryFeatures(query)
            tokens, vec = features.token_set, features.embedding
            for tier, rows in zip(("memory", "disk"), self._candidates(vec)):
                best = self._best_semantic(rows, tokens, vec)
                if best is not None:
                    return self._hit(*best, tier)
            self.stats.misses += 1
            return None

    def _candidates(self, vec: np.ndarray) -> tuple[list[int], list[int]]:
        """The rows whose blend with `vec` can reach tau: memory-tier ones in
        LRU order, then disk-tier ones in log order."""
        used = len(self._row_entries)
        passing = np.dot(self._matrix[:used], vec) >= self._cut
        memory, disk = [], []
        for row in np.flatnonzero(passing).tolist():
            entry = self._row_entries[row]
            if entry is not None:
                (memory if entry.query in self._lru else disk).append(row)
        memory.sort(key=lambda row: self._lru[self._row_entries[row].query])
        return memory, disk

    def _best_semantic(self, rows, tokens, vec):
        """The first best-scoring of `rows` and its blend, if that clears tau."""
        best_row, best_sim = None, -1.0
        alpha = self.config.alpha
        for row in rows:
            sim = _blend(alpha, tokens, vec, self._row_entries[row].tokens, self._matrix[row])
            if sim > best_sim:
                best_row, best_sim = row, sim
        if best_row is not None and best_sim >= self.config.tau:
            return best_row, best_sim
        return None

    def _hit(self, row: int, sim: float, tier: str) -> CacheHit:
        entry = self._row_entries[row]
        if tier == "memory":
            self.stats.memory_hits += 1
        else:
            self.stats.disk_hits += 1
        self._touch(entry.query)
        return CacheHit(response=entry.response, tier=tier, similarity=sim)

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
            self.degraded = True  # later inserts stay unlogged

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
