"""Independent reference implementations used only as test oracles.

These deliberately avoid the library code paths (and numpy.linalg.svd,
which backs the production SVD): singular values come from a hand-rolled
one-sided Jacobi sweep, quantization codes from literal nearest-neighbor
loops, packed NF4 bytes split nibble by nibble, and attention from the
direct definition. The cache oracle keeps the earlier two-dict cache logic
over the library's similarity math and log, the classifier oracle counts
keyword matches one category at a time, and the placement oracles are
exhaustive enumeration, the earlier greedy loop and the earlier
branch-and-bound solver.
"""

import math
from collections import OrderedDict

import numpy as np

from medserve.cache import (
    CacheEntry,
    CacheHit,
    CacheStats,
    DiskLog,
    SimilarityConfig,
    cosine,
    embed,
    jaccard,
)
from medserve.placement import build_affinity
from medserve.query_pipeline import (
    DEFAULT_CATEGORY,
    TIE_BREAK_ORDER,
    ClassifiedQuery,
    MedicalCategory,
    tokenize,
)


def jacobi_svd(m, sweeps: int = 60, tol: float = 1e-14):
    """One-sided Jacobi SVD: returns (u, sigma, vt) with sigma descending.

    Orthogonalizes the columns of m by plane rotations; reliable for the
    small dense matrices used in tests.
    """
    a = np.array(m, dtype=np.float64)
    rows, cols = a.shape
    transposed = False
    if rows < cols:
        a = a.T
        rows, cols = cols, rows
        transposed = True

    v = np.eye(cols)
    for _ in range(sweeps):
        off = 0.0
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                apq = float(a[:, p] @ a[:, q])
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                off = max(off, abs(apq) / math.sqrt(app * aqq) if app * aqq > 0 else 0.0)
                if apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if off < tol:
            break

    sigma = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(-sigma)
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]
    u = np.zeros_like(a)
    for j in range(cols):
        if sigma[j] > 0:
            u[:, j] = a[:, j] / sigma[j]
    if transposed:
        return v, sigma, u.T
    return u, sigma, v.T


def singular_values(m) -> np.ndarray:
    return jacobi_svd(m)[1]


def nearest_level_codes(block, levels):
    """Literal nearest-neighbor search; ties resolve to the lower index."""
    codes = []
    for value in block:
        best_idx, best_dist = 0, abs(value - levels[0])
        for i in range(1, len(levels)):
            dist = abs(value - levels[i])
            if dist < best_dist:
                best_idx, best_dist = i, dist
        codes.append(best_idx)
    return codes


def int8_codes(block, scale):
    """Brute-force nearest int8 code for each element."""
    codes = []
    for value in block:
        best_code, best_err = -127, abs(value - (-127) * scale / 127.0)
        for code in range(-126, 128):
            err = abs(value - code * scale / 127.0)
            if err < best_err:
                best_code, best_err = code, err
        codes.append(best_code)
    return codes


def unpack_nf4(data, count: int) -> np.ndarray:
    """The first count 4-bit codes of packed bytes, low nibble first."""
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(raw.size * 2, dtype=np.uint8)
    out[0::2] = raw & 0x0F
    out[1::2] = raw >> 4
    return out[:count]


def reference_attention(q, k, v):
    """Direct definition, computed row by row with python loops."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d = q.shape
    m = k.shape[0]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = np.array([float(q[i] @ k[j]) / math.sqrt(d) for j in range(m)])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        for j in range(m):
            out[i] += weights[j] * v[j]
    return out


def classify_by_category(query, lexicon) -> ClassifiedQuery:
    """classify as one pass over the tokens per category, counting each token
    occurrence found in that category's keyword set."""
    tokens = tuple(tokenize(query))
    scores = {
        cat: sum(1 for tok in tokens if tok in lexicon.keywords[cat])
        for cat in MedicalCategory
    }
    best = max(scores.values())
    if best == 0:
        category = DEFAULT_CATEGORY
    else:
        category = next(c for c in TIE_BREAK_ORDER if scores[c] == best)
    return ClassifiedQuery(raw=query, tokens=tokens, category=category, scores=scores)


def brute_force_placement(layers, devices, estimate):
    """Enumerate every assignment; returns (best_latency, best_assignment).

    Memory-feasible assignments only; None when nothing fits. Ties keep the
    lexicographically smallest device-index tuple.
    """
    import itertools

    n = len(layers)
    best = None
    best_assign = None
    for assign in itertools.product(range(len(devices)), repeat=n):
        used = {}
        ok = True
        for i, d in enumerate(assign):
            used[d] = used.get(d, 0) + layers[i].weight_bytes
            if used[d] > devices[d].memory_bytes:
                ok = False
                break
        if not ok:
            continue
        latency = estimate(list(assign), layers, devices)
        key = (latency, assign)
        if best is None or key < (best, best_assign):
            best, best_assign = latency, assign
    if best is None:
        return None, None
    return best, list(best_assign)


def row_affinity(times) -> np.ndarray:
    """Min-max scaled speed scores, one row of per-device times at a time."""
    out = np.ones_like(times)
    spread = times.max(axis=1) - times.min(axis=1)
    for i in range(len(times)):
        if spread[i] > 0:
            out[i] = (times[i].max() - times[i]) / spread[i]
    return out


def greedy_placement(layers, devices) -> list[int] | None:
    """The earlier greedy solver: each layer in order takes, among the
    devices with room left, the one with the highest affinity, lowest index
    on ties; None when some layer fits nowhere. Affinity is row_affinity of
    the per-element compute times. Layers in order, devices in id order."""
    times = np.array([[l.flops / d.throughput_flops for d in devices] for l in layers])
    affinity = row_affinity(times)
    assign = []
    remaining = [d.memory_bytes for d in devices]
    for i, layer in enumerate(layers):
        candidates = [d for d in range(len(devices)) if layer.weight_bytes <= remaining[d]]
        if not candidates:
            return None
        best = min(candidates, key=lambda d: (-affinity[i][d], d))
        assign.append(best)
        remaining[best] -= layer.weight_bytes
    return assign


def branch_and_bound_placement(layers, devices) -> list[int] | None:
    """Branch-and-bound over per-layer device choices (the earlier exact solver).

    Children are explored best-affinity first; a node is pruned when its
    accumulated latency plus the sum of remaining per-layer minimum compute
    times cannot beat the incumbent. Equal-latency plans resolve to the
    lexicographically smallest device-index tuple, i.e. lowest device id
    first.
    """
    n, m = len(layers), len(devices)
    affinity = build_affinity(layers, devices)
    compute = np.array([
        [layer.flops / dev.throughput_flops for dev in devices] for layer in layers
    ])
    min_remaining = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        min_remaining[i] = min_remaining[i + 1] + compute[i].min()

    child_order = [
        sorted(range(m), key=lambda d: (-affinity[i][d], d)) for i in range(n)
    ]

    best_cost = math.inf
    best_assign: list[int] | None = None
    assign = [0] * n
    remaining = [d.memory_bytes for d in devices]

    def recurse(i: int, cost: float):
        nonlocal best_cost, best_assign
        if cost + min_remaining[i] > best_cost:
            return
        if i == n:
            candidate = list(assign)
            if cost < best_cost or (cost == best_cost and
                                    (best_assign is None or candidate < best_assign)):
                best_cost = cost
                best_assign = candidate
            return
        layer = layers[i]
        for d in child_order[i]:
            if layer.weight_bytes > remaining[d]:
                continue
            step = compute[i][d]
            if i > 0 and assign[i - 1] != d:
                link = min(devices[assign[i - 1]].bandwidth_bytes, devices[d].bandwidth_bytes)
                step += layers[i - 1].activation_bytes / link
            assign[i] = d
            remaining[d] -= layer.weight_bytes
            recurse(i + 1, cost + step)
            remaining[d] += layer.weight_bytes

    recurse(0, 0.0)
    return best_assign


class TwoDictCache:
    """The cache as a memory LRU dict plus a disk-index dict of the same entries.

    Lookup runs four branches: exact memory, exact disk, semantic memory,
    then semantic over the disk entries not in memory. Appends to the log are
    synchronous. One change from the original: an insert made while degraded
    (or memory-only) drops the disk-index entry for its query, so a stale
    response cannot come back once the new one is evicted.
    """

    def __init__(self, capacity, disk_dir=None, config=None):
        self.capacity = capacity
        self.config = config or SimilarityConfig()
        self.stats = CacheStats()
        self._memory = OrderedDict()
        self._disk_index = {}
        self._log = None
        self.degraded = disk_dir is None
        if disk_dir is not None:
            self._log, entries = DiskLog.open(disk_dir)
            for entry in entries:
                self._disk_index[entry.query] = entry

    def insert(self, query, response, category=""):
        existing = self._memory.get(query) or self._disk_index.get(query)
        if existing is not None and existing.response == response:
            self._touch(existing)
            return
        entry = CacheEntry.build(query, response, category)
        self._touch(entry)
        self.stats.inserts += 1
        if self._log is not None and not self.degraded:
            self._disk_index[query] = entry
            self._log.append(entry)
        else:
            self._disk_index.pop(query, None)

    def _touch(self, entry):
        self._memory[entry.query] = entry
        self._memory.move_to_end(entry.query)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def lookup(self, query):
        tokens = frozenset(tokenize(query))
        vec = embed(query)
        entry = self._memory.get(query)
        if entry is not None:
            return self._hit(entry, "memory", 1.0)
        entry = self._disk_index.get(query)
        if entry is not None:
            return self._hit(entry, "disk", 1.0)

        best = self._best_semantic(self._memory.values(), tokens, vec)
        if best is not None:
            return self._hit(best[0], "memory", best[1])
        disk_only = (
            e for q, e in self._disk_index.items() if q not in self._memory
        )
        best = self._best_semantic(disk_only, tokens, vec)
        if best is not None:
            return self._hit(best[0], "disk", best[1])

        self.stats.misses += 1
        return None

    def _best_semantic(self, entries, tokens, vec):
        best_entry, best_sim = None, -1.0
        for entry in entries:
            sim = (
                self.config.alpha * jaccard(tokens, entry.tokens)
                + (1.0 - self.config.alpha) * cosine(vec, entry.embedding)
            )
            if sim > best_sim:
                best_entry, best_sim = entry, sim
        if best_entry is not None and best_sim >= self.config.tau:
            return best_entry, best_sim
        return None

    def _hit(self, entry, tier, sim):
        entry.hits += 1
        if tier == "memory":
            self.stats.memory_hits += 1
        else:
            self.stats.disk_hits += 1
        self._touch(entry)
        return CacheHit(response=entry.response, tier=tier, similarity=sim,
                        category=entry.category)

    def close(self):
        if self._log is not None:
            self._log.close()
            self._log = None
