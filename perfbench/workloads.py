"""Workload definitions and seeded input generation.

Everything the program receives is made here from ``--seed``: query
streams, the long-tail disk-log preload, and the model-prep manifest,
weights and placement instances. The same seed gives the same inputs.

Query construction guarantees the cache decisions the checks rely on. Pool
and preload queries are 7 distinct tokens and no two share more than 5, so
their token-set Jaccard is at most 5/9 and the blended similarity
0.3 * J + 0.7 * cos stays below the 0.92 hit bar whatever the cosine. A
novel query carries 3 tokens never used before, so it can share at most 4
of its 7 tokens with anything cached (J <= 0.4) and must miss. A paraphrase
is a reordering of its origin's tokens: same token multiset, same
embedding, similarity 1.0, so it must hit its origin's entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

QUERY_TOKENS = 7
MAX_SHARED = 5

# Category words (a subset of the packaged lexicon's keywords) and neutral
# filler words; queries mix both so every category is routed to.
CATEGORY_WORDS = (
    "dose", "dosage", "pill", "tablet", "aspirin", "ibuprofen", "insulin",
    "metformin", "statin", "antibiotic", "interaction", "prescription",
    "symptom", "symptoms", "cause", "causes", "test", "tests", "lab", "mri",
    "xray", "biopsy", "disease", "syndrome", "treatment", "therapy", "cure",
    "surgery", "rehab", "recovery", "manage", "procedure", "options",
    "prevent", "vaccine", "booster", "diet", "exercise", "hygiene", "risk",
    "checkup", "wellness", "urgent", "emergency", "seizure", "bleeding",
    "choking", "unconscious", "ambulance", "severe", "breathing", "poisoning",
)
FILLER_WORDS = (
    "what", "how", "should", "my", "for", "with", "after", "before", "can",
    "does", "child", "adult", "elderly", "pregnant", "patient", "daily",
    "weekly", "morning", "night", "mild", "chronic", "acute", "sudden",
    "persistent", "left", "right", "knee", "back", "skin", "stomach",
    "head", "throat", "ear", "eye", "lung", "kidney", "liver", "blood",
    "sugar", "pressure", "cholesterol", "fever", "rash", "cough", "fatigue",
    "dizziness", "nausea", "swelling", "infection", "allergy", "asthma",
    "diabetes", "hypertension", "migraine", "arthritis", "anemia", "flu",
    "bronchitis", "eczema", "gout", "pneumonia", "ulcer", "thyroid",
    "vitamin", "iron", "water", "sleep", "stress", "weight", "smoking",
    "alcohol", "coffee", "sports", "travel", "winter", "summer", "week",
    "month", "year", "safe", "normal", "high", "low", "best", "first",
    "long", "term", "older", "teen", "infant", "family", "history", "hot",
    "cold", "wound", "burn", "bone", "joint", "muscle", "nerve", "heartburn",
)
_SYLLABLES = ("zor", "vex", "qua", "lim", "dra", "kel", "pyx", "tov", "nur", "sab")

# Bodies the service must answer with 400 on the seed commit.
MALFORMED_BODIES = (
    b"not json at all",
    b"[1, 2, 3]",
    b'{"text": ""}',
    b'{"text": 42}',
    b'{"text": "   "}',
    b"\xff\xfe\xfa",
    b'{"query": "missing text key"}',
    b'{"text": "unterminated',
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "serving" | "modelprep"
    why: str
    open_rate: float = 0.0  # requests/s of the open-loop phase (serving)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "hot-repeat", "serving",
            "Zipf repeats of a 200-query pool: hits are cheap, so fixed "
            "per-request cost (HTTP, classify, exact lookup) dominates",
            open_rate=200.0,
        ),
        Workload(
            "long-tail", "serving",
            "90% novel queries over a 1000-entry disk log: the O(N) semantic "
            "scan, log replay and the unbounded disk index dominate",
            open_rate=25.0,
        ),
        Workload(
            "model-prep", "modelprep",
            "checkpoint write/read and placement solves, which no serving "
            "request touches, so serving changes read flat here",
        ),
    )
}


@dataclass(frozen=True)
class Request:
    kind: str  # "repeat" | "paraphrase" | "novel" | "malformed"
    group: str  # cache group: queries sharing one token multiset
    text: str  # query text ("" for malformed)
    body: bytes


def _body(text: str) -> bytes:
    return json.dumps({"text": text}).encode("utf-8")


def _query(rng) -> list[str]:
    n_cat = int(rng.integers(1, 3))
    cat = rng.choice(len(CATEGORY_WORDS), size=n_cat, replace=False)
    fill = rng.choice(len(FILLER_WORDS), size=QUERY_TOKENS - n_cat, replace=False)
    tokens = [CATEGORY_WORDS[i] for i in cat] + [FILLER_WORDS[i] for i in fill]
    rng.shuffle(tokens)
    return tokens


def query_pool(rng, n: int) -> list[list[str]]:
    """n token lists, pairwise sharing at most MAX_SHARED tokens."""
    pool: list[list[str]] = []
    seen: set[frozenset] = set()
    index: dict[str, list[int]] = {}
    while len(pool) < n:
        tokens = _query(rng)
        key = frozenset(tokens)
        if len(key) != QUERY_TOKENS or key in seen:
            continue
        shared: dict[int, int] = {}
        for tok in key:
            for other in index.get(tok, ()):
                shared[other] = shared.get(other, 0) + 1
        if shared and max(shared.values()) > MAX_SHARED:
            continue
        for tok in key:
            index.setdefault(tok, []).append(len(pool))
        seen.add(key)
        pool.append(tokens)
    return pool


def text_of(tokens) -> str:
    return " ".join(tokens) + "?"


def paraphrase(rng, tokens: list[str]) -> str:
    """A different ordering of the same tokens."""
    while True:
        order = list(rng.permutation(len(tokens)))
        if order != list(range(len(tokens))):
            return text_of([tokens[i] for i in order])


class NovelTokens:
    """Tokens that occur in no other query of the run."""

    def __init__(self, rng, tag: int):
        self.rng = rng
        self.tag = tag
        self.count = 0

    def query(self) -> str:
        fresh = []
        for _ in range(3):
            syl = _SYLLABLES[int(self.rng.integers(len(_SYLLABLES)))]
            fresh.append(f"{syl}{self.tag}x{self.count}")
            self.count += 1
        cat = CATEGORY_WORDS[int(self.rng.integers(len(CATEGORY_WORDS)))]
        fill = self.rng.choice(len(FILLER_WORDS), size=QUERY_TOKENS - 4, replace=False)
        tokens = fresh + [cat] + [FILLER_WORDS[i] for i in fill]
        self.rng.shuffle(tokens)
        return text_of(tokens)


# -- serving streams ------------------------------------------------------


POOL_SIZE = 200
ZIPF_S = 1.1
PRELOAD_SIZE = 1000


class ServingInputs:
    """Seeded inputs of a serving workload.

    Each phase runs against a fresh server and draws its warm-up and timed
    requests from one generator, so novel tokens never repeat within a
    server's life.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        if workload.name == "hot-repeat":
            self.origins = query_pool(rng, POOL_SIZE)
            ranks = np.arange(1, POOL_SIZE + 1, dtype=np.float64)
            weights = ranks ** -ZIPF_S
            self.popularity = weights / weights.sum()
            self.preload: list[str] = []
        else:
            self.origins = query_pool(rng, PRELOAD_SIZE)
            self.popularity = np.full(PRELOAD_SIZE, 1.0 / PRELOAD_SIZE)
            self.preload = [text_of(t) for t in self.origins]

    def _generator(self, phase: int):
        rng = np.random.default_rng([self.seed, 1, phase])
        novel = NovelTokens(rng, phase)
        hot = self.workload.name == "hot-repeat"
        # (malformed, novel, paraphrase) cumulative shares; the rest repeat
        cuts = (0.01, 0.03, 0.11) if hot else (0.0, 0.90, 0.95)
        n = len(self.origins)
        while True:
            # draw in blocks: per-request rng calls would dominate generation
            us = rng.random(1024)
            picks = (rng.choice(n, size=1024, p=self.popularity) if hot
                     else rng.integers(n, size=1024))
            for u, i in zip(us, picks):
                if u < cuts[0]:
                    body = MALFORMED_BODIES[int(i) % len(MALFORMED_BODIES)]
                    yield Request("malformed", "", "", body)
                elif u < cuts[1]:
                    text = novel.query()
                    yield Request("novel", "n:" + text, text, _body(text))
                elif u < cuts[2]:
                    text = paraphrase(rng, self.origins[i])
                    yield Request("paraphrase", f"g{i}", text, _body(text))
                else:
                    text = text_of(self.origins[i])
                    yield Request("repeat", f"g{i}", text, _body(text))

    def phase(self, phase: int, warmup: int, timed: int) -> tuple[list[Request], list[Request]]:
        """(warm-up requests, timed requests) of one phase.

        On hot-repeat the warm-up sends every pool query once, most popular
        first, so the timed part finds the cache filled.
        """
        gen = self._generator(phase)
        warm = []
        if self.workload.name == "hot-repeat":
            for i in np.argsort(-self.popularity, kind="stable"):
                text = text_of(self.origins[int(i)])
                warm.append(Request("repeat", f"g{int(i)}", text, _body(text)))
        warm += [next(gen) for _ in range(warmup)]
        return warm, [next(gen) for _ in range(timed)]

    def preload_groups(self) -> dict[str, str]:
        return {f"g{i}": text for i, text in enumerate(self.preload)}


# -- model-prep -----------------------------------------------------------


# A scaled 7B shape: all four layer classes, so NF4 and INT8 both run.
SCALED_MANIFEST = dict(blocks=2, hidden=256, ffn=512, vocab=1024)
EXACT_LAYERS = 24


class ModelPrepInputs:
    """Seeded model-prep inputs: weights for the scaled manifest, a 24-layer
    / 2-device placement instance (solved exactly by auto mode) and the
    packaged 7B shape on 4 devices (sent to greedy by auto mode).
    """

    def __init__(self, seed: int):
        from medserve.config import packaged_data
        from medserve.quantizer import PrecisionPolicy, load_manifest, synthetic_7b_manifest

        self.seed = seed
        self.policy = PrecisionPolicy()
        self.manifest = synthetic_7b_manifest(**SCALED_MANIFEST)
        self.manifest_7b = load_manifest(packaged_data("manifest_7b.json"))

    def build(self):
        """Weights and placement instances (benchmark-side input making)."""
        from medserve.placement import DeviceSpec

        rng = np.random.default_rng([self.seed, 2])
        self.weights = {
            layer.name: (rng.standard_normal(layer.shape, dtype=np.float32) * 0.02)
            for layer in self.manifest.layers
        }
        profiles_7b = layer_profiles(self.manifest_7b, self.policy)
        total = sum(p.weight_bytes for p in profiles_7b)
        # One exact instance. The seed picks its 24-layer window; the device
        # specs are fixed because branch-and-bound time swings by +-15% under
        # 2% changes to them, which would swamp the run-to-run bound.
        start = 1 + 7 * int(rng.integers(0, 28))  # a block boundary
        layers = [
            _reorder(p, i) for i, p in enumerate(profiles_7b[start:start + EXACT_LAYERS])
        ]
        part = sum(p.weight_bytes for p in layers)
        devices = [
            DeviceSpec("acc0", int(part * 0.62), 3.6e11, 1.0e9),
            DeviceSpec("acc1", int(part * 0.62), 3.0e11, 1.0e9),
        ]
        self.instances = [("exact", layers, devices)]
        devices_7b = [
            DeviceSpec(f"acc{d}", int(total * rng.uniform(0.27, 0.30)),
                       3.0e11 * rng.uniform(0.8, 1.6), 1.0e9 * rng.uniform(0.8, 1.2))
            for d in range(4)
        ]
        self.instances.append(("7b", profiles_7b, devices_7b))
        return self


def layer_profiles(manifest, policy):
    """Placement profiles: quantized bytes from apply_policy, 2 x params flops."""
    from medserve.placement import LayerProfile
    from medserve.quantizer import apply_policy

    plan = apply_policy(manifest, policy)
    hidden = manifest.layers[0].shape[-1]
    return [
        LayerProfile(id=lp.name, order=i, flops=2.0 * lp.params,
                     weight_bytes=lp.total_bytes, activation_bytes=2 * hidden)
        for i, lp in enumerate(plan.layers)
    ]


def _reorder(profile, order):
    from medserve.placement import LayerProfile

    return LayerProfile(id=profile.id, order=order, flops=profile.flops,
                        weight_bytes=profile.weight_bytes,
                        activation_bytes=profile.activation_bytes)
