"""Knowledge-transfer machinery at toy scale.

Covers the cosine learning-rate schedule, the four-term distillation loss
(cross-entropy, temperature-softened KL, hidden-state MSE, and an
entity-probability term that penalizes drift on tagged token groups), a grid
search over loss weights, and a deterministic progressive-batch training
loop over small dense teacher/student networks with hand-derived gradients.

The loss and its logits gradient come from one body with four softmaxes
(student and teacher, at T=1 and at the temperature). The training loop
runs the frozen teacher once per batch, before its first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TrainingSchedule:
    """Single stretched cosine arc from eta_max down to eta_min.

    The restart count enters the denominator of the cosine argument, so it
    lengthens the arc rather than producing cyclic restarts; lr_at is
    monotone non-increasing over [0, total_steps * restarts].
    """

    eta_min: float
    eta_max: float
    total_steps: int
    restarts: int = 1

    def __post_init__(self):
        if self.eta_min < 0:
            raise ValueError("eta_min must be >= 0")
        if self.eta_max <= self.eta_min:
            raise ValueError("eta_max must exceed eta_min")
        if self.total_steps < 1 or self.restarts < 1:
            raise ValueError("total_steps and restarts must be >= 1")

    @property
    def horizon(self) -> int:
        return self.total_steps * self.restarts


def lr_at(schedule: TrainingSchedule, t: float) -> float:
    """eta_min + (eta_max - eta_min)/2 * (1 + cos(t*pi / horizon))."""
    if t < 0 or t > schedule.horizon:
        raise ValueError(f"step {t} outside [0, {schedule.horizon}]")
    span = schedule.eta_max - schedule.eta_min
    return schedule.eta_min + 0.5 * span * (1.0 + math.cos(t * math.pi / schedule.horizon))


@dataclass(frozen=True)
class DistillLossWeights:
    ce: float
    kl: float
    mse: float
    entity: float

    def __post_init__(self):
        vals = (self.ce, self.kl, self.mse, self.entity)
        if any(v < 0 for v in vals):
            raise ValueError("loss weights must be non-negative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True)
class Entity:
    """A tagged group of vocabulary tokens with an importance weight."""

    name: str
    token_ids: tuple[int, ...]
    weight: float = 2.0

    def __post_init__(self):
        if self.weight <= 0 or not math.isfinite(self.weight):
            raise ValueError("entity weight must be finite and positive")
        if not self.token_ids:
            raise ValueError("entity needs at least one token id")


@dataclass
class LogitsBatch:
    """Aligned student/teacher logits, labels, and equal-width hidden states."""

    student_logits: np.ndarray
    teacher_logits: np.ndarray
    labels: np.ndarray
    student_hidden: np.ndarray
    teacher_hidden: np.ndarray

    def __post_init__(self):
        self.student_logits = np.asarray(self.student_logits, dtype=np.float64)
        self.teacher_logits = np.asarray(self.teacher_logits, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.student_hidden = np.asarray(self.student_hidden, dtype=np.float64)
        self.teacher_hidden = np.asarray(self.teacher_hidden, dtype=np.float64)
        n, v = self.student_logits.shape
        if self.teacher_logits.shape != (n, v):
            raise ValueError("student/teacher logits shapes differ")
        if self.student_hidden.shape != self.teacher_hidden.shape:
            raise ValueError("hidden states must be pre-projected to equal width")
        _check_rows(self.labels, v, self.student_logits, self.teacher_logits,
                    self.student_hidden, self.teacher_hidden)


def _check_rows(labels: np.ndarray, v: int, *arrays: np.ndarray) -> None:
    """Raise ValueError unless labels holds one id in [0, v) per row of the
    arrays and every array is finite."""
    if labels.shape != (len(arrays[0]),):
        raise ValueError("labels must be one int per row")
    if np.any(labels < 0) or np.any(labels >= v):
        raise ValueError("labels out of vocabulary range")
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise ValueError("non-finite values in batch")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_grad(
    s_logits: np.ndarray,
    t_logits: np.ndarray,
    labels: np.ndarray,
    s_hidden: np.ndarray,
    t_hidden: np.ndarray,
    entities: list[Entity],
    weights: DistillLossWeights,
    temperature: float,
) -> tuple[float, tuple[float, float, float, float], np.ndarray]:
    """(total, (ce, kl, mse, entity), d total / d student logits) for the
    arrays of a LogitsBatch."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    n, v = s_logits.shape
    rows = np.arange(n)
    scaled = s_logits / temperature
    p = _softmax(s_logits)
    s = _softmax(scaled)
    q = _softmax(t_logits / temperature)
    p_teacher = _softmax(t_logits)

    ce = float(-np.log(np.clip(p[rows, labels], 1e-300, None)).mean())

    log_s = scaled - scaled.max(axis=1, keepdims=True)
    log_s = log_s - np.log(np.exp(log_s).sum(axis=1, keepdims=True))
    log_q = np.log(np.clip(q, 1e-300, None))
    kl = float((q * (log_q - log_s)).sum(axis=1).mean())

    mse = float(((s_hidden - t_hidden) ** 2).mean())

    grad = np.zeros((n, v))
    if weights.ce:
        onehot = np.zeros((n, v))
        onehot[rows, labels] = 1.0
        grad += weights.ce * (p - onehot) / n
    if weights.kl:
        grad += weights.kl * (s - q) / (n * temperature)

    ent = 0.0
    for e in entities:
        ids = list(e.token_ids)
        per_row = p[:, ids].sum(axis=1)
        gap = float(per_row.mean()) - float(p_teacher[:, ids].sum(axis=1).mean())
        ent += e.weight * abs(gap)
        if weights.entity:
            mask = np.zeros(v)
            mask[ids] = 1.0
            sign = math.copysign(1.0, gap) if gap != 0.0 else 0.0
            # d mean_n sum_{v in e} p_nv / d z = p * (mask - per_row) / n
            grad += weights.entity * e.weight * sign * (
                p * (mask[None, :] - per_row[:, None]) / n
            )

    total = weights.ce * ce + weights.kl * kl + weights.mse * mse + weights.entity * ent
    return total, (ce, kl, mse, float(ent)), grad


def distill_loss(
    batch: LogitsBatch,
    entities: list[Entity],
    weights: DistillLossWeights,
    temperature: float = 2.0,
) -> tuple[float, tuple[float, float, float, float]]:
    """Weighted sum of the four transfer terms, each mean-reduced over the batch.

    Returns (total, (ce, kl, mse, entity)) with the components unweighted.
    KL direction is teacher || student at the shared temperature.
    """
    total, parts, _ = _loss_and_grad(
        batch.student_logits, batch.teacher_logits, batch.labels,
        batch.student_hidden, batch.teacher_hidden, entities, weights, temperature,
    )
    return total, parts


def distill_loss_grad_logits(
    batch: LogitsBatch,
    entities: list[Entity],
    weights: DistillLossWeights,
    temperature: float = 2.0,
) -> np.ndarray:
    """Analytic gradient of the total loss w.r.t. the student logits.

    The hidden-MSE term has no logits dependence and contributes nothing
    here; its hidden-state gradient lives in the training loop.
    """
    return _loss_and_grad(
        batch.student_logits, batch.teacher_logits, batch.labels,
        batch.student_hidden, batch.teacher_hidden, entities, weights, temperature,
    )[2]


def grid_search_lambdas(candidates, evaluate) -> DistillLossWeights:
    """Return the candidate with the highest validation score; ties keep the
    first listed."""
    if not candidates:
        raise ValueError("grid search needs at least one candidate")
    best = candidates[0]
    best_score = evaluate(best)
    for cand in candidates[1:]:
        score = evaluate(cand)
        if score > best_score:
            best, best_score = cand, score
    return best


RARE_BELOW = 5  # corpus frequency under which complexity_score counts a token rare


def complexity_score(text: str, frequencies) -> float:
    """Token count plus 3 per token whose corpus frequency is below RARE_BELOW.

    Tokens absent from the frequency table count as rare.
    """
    from .query_pipeline import tokenize

    tokens = tokenize(text)
    rare = sum(1 for t in tokens if frequencies.get(t, 0) < RARE_BELOW)
    return float(len(tokens) + 3 * rare)


@dataclass(frozen=True)
class TrainingSample:
    features: np.ndarray
    target: int
    complexity: float

    def __post_init__(self):
        if not math.isfinite(self.complexity) or self.complexity < 0:
            raise ValueError("complexity must be finite and >= 0")


def make_progressive_batches(samples, batch_size: int):
    """Batch samples in ascending complexity order; stable on ties."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ordered = sorted(samples, key=lambda s: s.complexity)
    return [ordered[i:i + batch_size] for i in range(0, len(ordered), batch_size)]


class DenseNet:
    """Two-layer tanh network: logits = W2 @ tanh(W1 @ x + b1) + b2."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator):
        scale1 = 1.0 / math.sqrt(in_dim)
        scale2 = 1.0 / math.sqrt(hidden)
        self.w1 = rng.normal(0.0, scale1, size=(hidden, in_dim))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, scale2, size=(out_dim, hidden))
        self.b2 = np.zeros(out_dim)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (hidden, logits) for a batch of rows."""
        hidden = np.tanh(x @ self.w1.T + self.b1)
        logits = hidden @ self.w2.T + self.b2
        return hidden, logits

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class ToyDistillConfig:
    """Everything the deterministic toy distillation run needs."""

    teacher_width: int = 32
    student_width: int = 16
    input_dim: int = 8
    num_classes: int = 3
    dataset_size: int = 256
    steps: int = 500
    batch_size: int = 64
    seed: int = 7
    eta_min: float = 0.05
    eta_max: float = 2.0
    restarts: int = 1
    temperature: float = 1.0
    g_max: float = 20.0
    weights: DistillLossWeights = field(
        default_factory=lambda: DistillLossWeights(ce=0.2, kl=1.0, mse=0.02, entity=0.2)
    )

    def __post_init__(self):
        if self.teacher_width < self.student_width:
            raise ValueError("teacher width must be >= student width")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class StepRecord:
    step: int
    lr: float
    total: float
    ce: float
    kl: float
    mse: float
    entity: float


@dataclass
class DistillReport:
    steps: list[StepRecord]
    initial_kl: float
    final_kl: float
    diverged: bool = False
    diverged_step: int | None = None

    def lines(self):
        """Line-delimited metric records suitable for plotting."""
        for r in self.steps:
            yield (
                f"{r.step}\t{r.lr:.8g}\t{r.total:.8g}\t{r.ce:.8g}\t"
                f"{r.kl:.8g}\t{r.mse:.8g}\t{r.entity:.8g}"
            )


def _eval_kl(student: DenseNet, teacher: DenseNet, x: np.ndarray) -> float:
    _, sl = student.forward(x)
    _, tl = teacher.forward(x)
    q = _softmax(tl)
    p = np.clip(_softmax(sl), 1e-300, None)
    return float((q * (np.log(np.clip(q, 1e-300, None)) - np.log(p))).sum(axis=1).mean())


def train_toy_distill(config: ToyDistillConfig) -> DistillReport:
    """Progressive-batch distillation of a frozen teacher into a student.

    Samples are ordered by ascending complexity (teacher predictive entropy
    stands in for concept complexity on the synthetic task), the learning
    rate follows the cosine schedule, gradients are analytic, and the global
    gradient norm is clipped to g_max. Deterministic for a fixed config.
    """
    rng = np.random.default_rng(config.seed)
    teacher = DenseNet(config.input_dim, config.teacher_width, config.num_classes, rng)
    student = DenseNet(config.input_dim, config.student_width, config.num_classes, rng)
    # Fixed, never-trained projection aligning teacher hidden width to the
    # student's for the MSE term.
    proj = rng.normal(
        0.0, 1.0 / math.sqrt(config.teacher_width),
        size=(config.student_width, config.teacher_width),
    )

    x = rng.normal(size=(config.dataset_size, config.input_dim))
    _, t_logits_all = teacher.forward(x)
    labels_all = t_logits_all.argmax(axis=1)
    probs = _softmax(t_logits_all)
    entropy = -(probs * np.log(np.clip(probs, 1e-300, None))).sum(axis=1)

    samples = [
        TrainingSample(features=x[i], target=int(labels_all[i]), complexity=float(entropy[i]))
        for i in range(config.dataset_size)
    ]
    # The teacher is frozen, so each batch's teacher outputs are built and
    # checked once. The student's outputs have their shapes by construction;
    # each step checks that they are finite.
    batches = []
    for batch_samples in make_progressive_batches(samples, config.batch_size):
        xb = np.stack([s.features for s in batch_samples])
        t_hidden, t_logits = teacher.forward(xb)
        t_hidden = t_hidden @ proj.T
        labels = np.array([s.target for s in batch_samples])
        _check_rows(labels, config.num_classes, t_logits, t_hidden)
        batches.append((xb, labels, t_hidden, t_logits))

    entities = [
        Entity(name=f"class-{c}", token_ids=(c,), weight=2.0)
        for c in range(config.num_classes)
    ]
    schedule = TrainingSchedule(
        eta_min=config.eta_min, eta_max=config.eta_max,
        total_steps=config.steps, restarts=config.restarts,
    )

    initial_kl = _eval_kl(student, teacher, x)
    records: list[StepRecord] = []

    # A runaway update overflows before the explicit finiteness checks
    # trip; suppress numpy warning noise for the whole loop since every
    # non-finite outcome is detected and reported as divergence.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(config.steps):
            xb, labels, t_hidden, t_logits = batches[step % len(batches)]
            s_hidden, s_logits = student.forward(xb)
            if not (np.all(np.isfinite(s_logits)) and np.all(np.isfinite(s_hidden))):
                return DistillReport(
                    steps=records, initial_kl=initial_kl, final_kl=math.inf,
                    diverged=True, diverged_step=step,
                )
            total, (ce, kl, mse, ent), g_logits = _loss_and_grad(
                s_logits, t_logits, labels, s_hidden, t_hidden,
                entities, config.weights, config.temperature,
            )
            lr = lr_at(schedule, step)
            records.append(StepRecord(step, lr, total, ce, kl, mse, ent))
            if not math.isfinite(total):
                return DistillReport(
                    steps=records, initial_kl=initial_kl,
                    final_kl=_eval_kl(student, teacher, x),
                    diverged=True, diverged_step=step,
                )

            g_hidden = g_logits @ student.w2
            g_hidden += config.weights.mse * 2.0 * (s_hidden - t_hidden) / s_hidden.size
            g_pre = g_hidden * (1.0 - s_hidden ** 2)

            grads = [
                g_pre.T @ xb,              # w1
                g_pre.sum(axis=0),         # b1
                g_logits.T @ s_hidden,     # w2
                g_logits.sum(axis=0),      # b2
            ]
            norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads))
            if norm > config.g_max:
                grads = [g * (config.g_max / norm) for g in grads]
            for param, grad in zip(student.params(), grads):
                param -= lr * grad

    return DistillReport(
        steps=records, initial_kl=initial_kl,
        final_kl=_eval_kl(student, teacher, x),
    )
