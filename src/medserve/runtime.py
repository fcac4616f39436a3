"""Inference-execution layer.

Holds the shape-bucketed compiled-plan cache (graph capture abstracted to an
opaque token, built once per bucketed shape under one lock),
a tiled streaming attention kernel with its naive full-matrix oracle, a
token-tick continuous-batching simulator, linear engine scoring/selection
under a hard memory-feasibility filter, and the two-way deployment-mode
decision.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# -- shape-bucketed plan cache ------------------------------------------


@dataclass(frozen=True)
class ShapeKey:
    seq_len: int  # bucketed (padded) length, a multiple of the granularity
    batch: int


def shape_bucket(seq_len: int, batch: int, granularity: int) -> ShapeKey:
    """Round the sequence length up to the next multiple of the granularity."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    bucketed = ((seq_len + granularity - 1) // granularity) * granularity
    return ShapeKey(seq_len=bucketed, batch=batch)


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    builds: int = 0


class PlanCache:
    """Compiled-plan tokens keyed by bucketed shape; one build per key.

    A miss builds under the cache's one lock, so concurrent misses on a key
    build it once, and different keys do not build concurrently either;
    build must not call back into the cache. A failed build leaves the key
    uncached so a later call can retry.
    """

    def __init__(self):
        self._plans: dict[ShapeKey, object] = {}
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def get_or_build(self, key: ShapeKey, build):
        with self._lock:
            if key in self._plans:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                self._plans[key] = build(key)
                self.stats.builds += 1
            return self._plans[key]

    def warm_up(self, keys, build):
        """Pre-populate plans for an expected shape list."""
        for key in keys:
            self.get_or_build(key, build)


# -- attention ------------------------------------------------------------


def naive_attention(q, k, v) -> np.ndarray:
    """Full-matrix softmax(Q K^T / sqrt(d)) V reference; tests and bench only."""
    q, k, v = (np.asarray(m, dtype=np.float64) for m in (q, k, v))
    _check_attention_dims(q, k, v)
    scores = q @ k.T / math.sqrt(q.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v


def tiled_attention(q, k, v, tile: int) -> np.ndarray:
    """Streaming attention over K/V tiles with online max/sum renormalization.

    Never materializes the full n x m score matrix; any positive tile size
    yields the same result up to roundoff.
    """
    q, k, v = (np.asarray(m, dtype=np.float64) for m in (q, k, v))
    _check_attention_dims(q, k, v)
    if tile < 1:
        raise ValueError("tile must be >= 1")
    n, d = q.shape
    m = k.shape[0]
    scale = 1.0 / math.sqrt(d)

    out = np.zeros((n, v.shape[1]))
    running_max = np.full(n, -np.inf)
    running_sum = np.zeros(n)

    for start in range(0, m, tile):
        kt = k[start:start + tile]
        vt = v[start:start + tile]
        scores = (q @ kt.T) * scale
        tile_max = scores.max(axis=1)
        new_max = np.maximum(running_max, tile_max)
        correction = np.exp(running_max - new_max)
        correction[~np.isfinite(correction)] = 0.0
        probs = np.exp(scores - new_max[:, None])
        running_sum = running_sum * correction + probs.sum(axis=1)
        out = out * correction[:, None] + probs @ vt
        running_max = new_max

    return out / running_sum[:, None]


def _check_attention_dims(q, k, v):
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("Q, K, V must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"Q cols {q.shape[1]} != K cols {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"K rows {k.shape[0]} != V rows {v.shape[0]}")
    for m in (q, k, v):
        if not np.all(np.isfinite(m)):
            raise ValueError("attention inputs must be finite")


# -- engine scoring and selection -----------------------------------------


@dataclass(frozen=True)
class HardwareEnv:
    accelerator_memory_bytes: int

    def __post_init__(self):
        if self.accelerator_memory_bytes <= 0:
            raise ValueError("hardware fields must be positive")


@dataclass(frozen=True)
class WorkloadProfile:
    mean_prompt_tokens: float
    mean_output_tokens: float

    def __post_init__(self):
        if self.mean_prompt_tokens <= 0 or self.mean_output_tokens <= 0:
            raise ValueError("workload fields must be positive")


@dataclass(frozen=True)
class EngineProfile:
    id: str
    base_rate_tokens_per_s: float
    request_overhead_s: float
    memory_bytes: int

    def __post_init__(self):
        if self.base_rate_tokens_per_s <= 0:
            raise ValueError("base rate must be positive")
        if self.request_overhead_s < 0 or self.memory_bytes <= 0:
            raise ValueError("overhead must be >= 0 and memory positive")


INFEASIBLE = -math.inf


def predicted_latency(engine: EngineProfile, load: WorkloadProfile) -> float:
    """Per-request p50 under the linear perf model: overhead + tokens/rate."""
    tokens = load.mean_prompt_tokens + load.mean_output_tokens
    return engine.request_overhead_s + tokens / engine.base_rate_tokens_per_s


def predicted_throughput(engine: EngineProfile, load: WorkloadProfile) -> float:
    """Output tokens per second delivered for one request stream."""
    return load.mean_output_tokens / predicted_latency(engine, load)


def score_engine(engine: EngineProfile, hw: HardwareEnv, load: WorkloadProfile) -> float:
    """Linear score: predicted throughput, minus 0.5 x predicted latency,
    minus 0.2 x the accelerator-memory fraction.

    Engines whose memory requirement exceeds accelerator memory are hard
    filtered to -inf. Byte-dimensioned inputs enter only as the usage
    fraction, so rescaling all memory quantities together never changes the
    ranking.
    """
    if engine.memory_bytes > hw.accelerator_memory_bytes:
        return INFEASIBLE
    mem_fraction = engine.memory_bytes / hw.accelerator_memory_bytes
    return (
        predicted_throughput(engine, load)
        - 0.5 * predicted_latency(engine, load)
        - 0.2 * mem_fraction
    )


class NoFeasibleEngineError(RuntimeError):
    pass


def select_engine(engines, hw: HardwareEnv, load: WorkloadProfile) -> str:
    """Argmax of score_engine; ties go to the lexicographically smallest id."""
    if not engines:
        raise NoFeasibleEngineError("no engines configured")
    scored = sorted(
        ((score_engine(e, hw, load), e.id) for e in engines),
        key=lambda pair: (-pair[0], pair[1]),
    )
    best_score, best_id = scored[0]
    if best_score == INFEASIBLE:
        raise NoFeasibleEngineError("every engine exceeds accelerator memory")
    return best_id


# -- deployment-mode decision ---------------------------------------------


@dataclass(frozen=True)
class ModeCandidate:
    mode: str  # "adapter" | "merged"
    performance: float
    fit: float
    cost: float

    def __post_init__(self):
        if self.mode not in ("adapter", "merged"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for v in (self.performance, self.fit, self.cost):
            if not math.isfinite(v) or v < 0:
                raise ValueError("candidate scores must be finite and >= 0")


@dataclass(frozen=True)
class DecisionWeights:
    performance: float = 1.0
    fit: float = 1.0
    cost: float = 1.0

    def __post_init__(self):
        if min(self.performance, self.fit, self.cost) < 0:
            raise ValueError("decision weights must be >= 0")

    def as_tuple(self):
        return (self.performance, self.fit, self.cost)


def mode_score(candidate: ModeCandidate, weights: DecisionWeights) -> float:
    return (
        weights.performance * candidate.performance
        + weights.fit * candidate.fit
        - weights.cost * candidate.cost
    )


def decide_mode(candidates, weights: DecisionWeights) -> str:
    """Highest weighted score wins; exact ties resolve to merged mode
    (less runtime indirection)."""
    if not candidates:
        raise ValueError("no mode candidates")
    best = max(
        candidates,
        key=lambda c: (mode_score(c, weights), 1 if c.mode == "merged" else 0),
    )
    return best.mode


TUNE_BOUND = 2.0  # tune_weights searches decision weights in [0, TUNE_BOUND]^3


def tune_weights(history, objective, budget: int = 200, seed: int = 0) -> DecisionWeights:
    """Random search with local refinement; a desk-scale stand-in for
    Bayesian optimization of the decision weights.

    The incumbent starts from the best entry in history (default weights if
    empty), alternates uniform exploration over [0, TUNE_BOUND]^3 with Gaussian
    proposals around the incumbent at a shrinking radius, and returns the
    best weights ever observed. Deterministic given the seed.
    """
    best_w = DecisionWeights()
    best_score = -math.inf
    for w, score in history:
        if score > best_score:
            best_w, best_score = w, score
    if budget <= 0:
        return best_w
    if best_score == -math.inf:
        best_score = objective(best_w)

    rng = np.random.default_rng(seed)
    for i in range(budget):
        if i % 2 == 0:
            proposal = rng.uniform(0.0, TUNE_BOUND, size=3)
        else:
            radius = TUNE_BOUND * 0.5 * (1.0 - i / budget) + 1e-3
            proposal = np.clip(
                np.array(best_w.as_tuple()) + rng.normal(0.0, radius, size=3),
                0.0, TUNE_BOUND,
            )
        w = DecisionWeights(*map(float, proposal))
        score = objective(w)
        if score > best_score:
            best_w, best_score = w, score
    return best_w


# -- continuous batching simulator ----------------------------------------


@dataclass(frozen=True)
class GenRequest:
    id: str
    output_tokens: int

    def __post_init__(self):
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")


@dataclass(frozen=True)
class TickCostModel:
    """Tick wall time grows linearly with the active batch size."""

    base: float = 0.01
    per_active: float = 0.002


@dataclass
class BatchState:
    capacity: int
    active: dict[str, int] = field(default_factory=dict)  # id -> tokens left
    tick: int = 0
    elapsed: float = 0.0
    completions: dict[str, float] = field(default_factory=dict)


def continuous_batch_step(state: BatchState, pending: deque,
                          cost: TickCostModel = TickCostModel()) -> list[str]:
    """Advance one token tick under the continuous-admission policy.

    New requests join immediately up to capacity, every active sequence
    emits one token, and finished sequences leave at the end of the tick.
    Returns the ids active during the tick.
    """
    while pending and len(state.active) < state.capacity:
        req = pending.popleft()
        state.active[req.id] = req.output_tokens
    emitted = list(state.active)
    if not emitted:
        return emitted
    state.elapsed += cost.base + cost.per_active * len(emitted)
    state.tick += 1
    for rid in emitted:
        state.active[rid] -= 1
        if state.active[rid] == 0:
            del state.active[rid]
            state.completions[rid] = state.elapsed
    return emitted


def simulate_batching(requests, capacity: int, policy: str = "continuous",
                      cost: TickCostModel = TickCostModel()) -> BatchState:
    """Run a workload to completion under continuous or static batching.

    Static batching admits a new batch only once the previous batch has
    fully drained; continuous batching backfills at every tick. Both use
    the same tick cost model so makespans are comparable.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if policy not in ("continuous", "static"):
        raise ValueError(f"unknown policy {policy!r}")
    state = BatchState(capacity=capacity)
    pending = deque(requests)
    held_back = deque()  # static batching admits nothing while a batch runs
    while pending or state.active:
        admitting = policy == "continuous" or not state.active
        continuous_batch_step(state, pending if admitting else held_back, cost)
    return state
