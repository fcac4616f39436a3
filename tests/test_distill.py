"""Tests for the schedule, composite loss, grid search, and toy trainer."""

import dataclasses
import math

import numpy as np
import pytest

from medserve.distill import (
    DistillLossWeights,
    Entity,
    LogitsBatch,
    ToyDistillConfig,
    TrainingSample,
    TrainingSchedule,
    complexity_score,
    distill_loss,
    distill_loss_grad_logits,
    grid_search_lambdas,
    lr_at,
    make_progressive_batches,
    train_toy_distill,
)
from oracles import separate_distill_grad, separate_distill_loss


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        s = TrainingSchedule(eta_min=1e-5, eta_max=5e-5, total_steps=100, restarts=2)
        assert lr_at(s, 0) == pytest.approx(5e-5, abs=1e-12)
        assert lr_at(s, s.horizon) == pytest.approx(1e-5, abs=1e-12)
        assert lr_at(s, s.horizon / 2) == pytest.approx(3e-5, abs=1e-12)

    def test_bounds_and_monotone(self):
        s = TrainingSchedule(eta_min=0.1, eta_max=1.0, total_steps=50, restarts=3)
        values = [lr_at(s, t) for t in range(s.horizon + 1)]
        assert all(s.eta_min <= v <= s.eta_max for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        s = TrainingSchedule(eta_min=0.0, eta_max=1.0, total_steps=10)
        with pytest.raises(ValueError):
            lr_at(s, -1)
        with pytest.raises(ValueError):
            lr_at(s, 11)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            TrainingSchedule(eta_min=1.0, eta_max=0.5, total_steps=10)


def uniform_batch(n=2, v=2, h=3):
    return LogitsBatch(
        student_logits=np.zeros((n, v)),
        teacher_logits=np.zeros((n, v)),
        labels=np.zeros(n, dtype=int),
        student_hidden=np.ones((n, h)),
        teacher_hidden=np.ones((n, h)),
    )


def logits_for_probs(probs):
    return np.log(np.asarray(probs, dtype=np.float64))


class TestDistillLoss:
    def test_identical_models_zero_transfer_terms(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        hidden = rng.normal(size=(3, 5))
        batch = LogitsBatch(
            student_logits=logits, teacher_logits=logits.copy(),
            labels=logits.argmax(axis=1),
            student_hidden=hidden, teacher_hidden=hidden.copy(),
        )
        weights = DistillLossWeights(1, 1, 1, 1)
        entities = [Entity("e0", (0, 1), 2.0)]
        _, (ce, kl, mse, ent) = distill_loss(batch, entities, weights)
        assert kl == pytest.approx(0.0, abs=1e-12)
        assert mse == 0.0
        assert ent == pytest.approx(0.0, abs=1e-12)
        assert ce > 0

    def test_uniform_cross_entropy_is_ln2(self):
        total, (ce, _, _, _) = distill_loss(
            uniform_batch(), [], DistillLossWeights(1, 0, 0, 0)
        )
        assert total == pytest.approx(math.log(2), abs=1e-12)
        assert ce == pytest.approx(math.log(2), abs=1e-12)

    def test_entity_term_hand_value(self):
        # student softmax (0.4, 0.4, 0.2): P_S(entity {2}) = 0.2
        # teacher softmax (0.25, 0.25, 0.5): P_T = 0.5 -> 2 * |0.2 - 0.5| = 0.6
        batch = LogitsBatch(
            student_logits=logits_for_probs([[0.4, 0.4, 0.2]]),
            teacher_logits=logits_for_probs([[0.25, 0.25, 0.5]]),
            labels=np.array([0]),
            student_hidden=np.zeros((1, 2)),
            teacher_hidden=np.zeros((1, 2)),
        )
        entities = [Entity("critical", (2,), 2.0)]
        total, (_, _, _, ent) = distill_loss(
            batch, entities, DistillLossWeights(0, 0, 0, 1)
        )
        assert total == pytest.approx(0.6, abs=1e-12)
        assert ent == pytest.approx(0.6, abs=1e-12)

    def test_components_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, v, h = rng.integers(1, 5), rng.integers(2, 6), rng.integers(1, 4)
            batch = LogitsBatch(
                student_logits=rng.normal(size=(n, v)),
                teacher_logits=rng.normal(size=(n, v)),
                labels=rng.integers(0, v, size=n),
                student_hidden=rng.normal(size=(n, h)),
                teacher_hidden=rng.normal(size=(n, h)),
            )
            entities = [Entity("e", (0,), 1.5)]
            total, comps = distill_loss(batch, entities, DistillLossWeights(1, 1, 1, 1))
            assert all(c >= 0 for c in comps)
            assert total >= 0

    def test_entity_term_bounded_by_weight_sum(self):
        rng = np.random.default_rng(2)
        entities = [Entity("a", (0,), 2.0), Entity("b", (1, 2), 3.0)]
        for _ in range(20):
            batch = LogitsBatch(
                student_logits=rng.normal(size=(3, 4)),
                teacher_logits=rng.normal(size=(3, 4)),
                labels=rng.integers(0, 4, size=3),
                student_hidden=np.zeros((3, 2)),
                teacher_hidden=np.zeros((3, 2)),
            )
            _, (_, _, _, ent) = distill_loss(batch, entities, DistillLossWeights(0, 0, 0, 1))
            assert ent <= 2.0 + 3.0 + 1e-12

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            distill_loss(uniform_batch(), [], DistillLossWeights(1, 0, 0, 0), temperature=0)

    @pytest.mark.parametrize("temperature", [0, -1, math.nan])
    def test_loss_and_gradient_refuse_the_same_temperatures(self, temperature):
        for fn in (distill_loss, distill_loss_grad_logits):
            with pytest.raises(ValueError, match="temperature must be positive"):
                fn(uniform_batch(), [], DistillLossWeights(1, 1, 0, 0), temperature=temperature)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LogitsBatch(
                student_logits=np.array([[np.nan, 0.0]]),
                teacher_logits=np.zeros((1, 2)),
                labels=np.array([0]),
                student_hidden=np.zeros((1, 1)),
                teacher_hidden=np.zeros((1, 1)),
            )


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(3)
        weights = DistillLossWeights(0.7, 1.3, 0.4, 0.9)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            v = int(rng.integers(2, 7))
            entities = [
                Entity("e0", (0,), 2.0),
                Entity("e1", tuple(range(1, v)), 1.0),
            ]
            batch = LogitsBatch(
                student_logits=rng.normal(size=(n, v)),
                teacher_logits=rng.normal(size=(n, v)),
                labels=rng.integers(0, v, size=n),
                student_hidden=rng.normal(size=(n, 3)),
                teacher_hidden=rng.normal(size=(n, 3)),
            )
            analytic = distill_loss_grad_logits(batch, entities, weights, temperature=2.0)
            eps = 1e-6
            numeric = np.zeros_like(analytic)
            for i in range(n):
                for j in range(v):
                    plus = batch.student_logits.copy()
                    plus[i, j] += eps
                    minus = batch.student_logits.copy()
                    minus[i, j] -= eps
                    bp = dataclasses.replace(batch, student_logits=plus)
                    bm = dataclasses.replace(batch, student_logits=minus)
                    lp, _ = distill_loss(bp, entities, weights, temperature=2.0)
                    lm, _ = distill_loss(bm, entities, weights, temperature=2.0)
                    numeric[i, j] = (lp - lm) / (2 * eps)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale <= 1e-5, trial


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestSeparateReference:
    """One set of softmaxes gives the loss and gradient of the earlier
    separate functions to the bit."""

    @pytest.mark.parametrize("weights", [
        DistillLossWeights(0.7, 1.3, 0.4, 0.9),
        DistillLossWeights(0, 1, 0, 0),
        DistillLossWeights(1, 0, 0.5, 0),
        DistillLossWeights(0, 0, 0, 2),
    ])
    def test_bit_equal_on_random_batches(self, weights):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, v, h = (int(x) for x in rng.integers([1, 2, 1], [9, 9, 5]))
            scale = 10.0 ** rng.uniform(-1, 1.5)
            entities = []
            for i in range(int(rng.integers(0, 4))):
                ids = rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)
                entities.append(
                    Entity(f"e{i}", tuple(int(t) for t in ids), float(rng.uniform(0.5, 3))))
            batch = LogitsBatch(
                student_logits=rng.normal(size=(n, v)) * scale,
                teacher_logits=rng.normal(size=(n, v)) * scale,
                labels=rng.integers(0, v, size=n),
                student_hidden=rng.normal(size=(n, h)),
                teacher_hidden=rng.normal(size=(n, h)),
            )
            temperature = float(rng.choice([1.0, 0.5, 2.0, 3.7]))
            total, parts = distill_loss(batch, entities, weights, temperature)
            ref_total, ref_parts = separate_distill_loss(batch, entities, weights, temperature)
            assert np.array_equal(_bits([total, *parts]), _bits([ref_total, *ref_parts]))
            grad = distill_loss_grad_logits(batch, entities, weights, temperature)
            ref = separate_distill_grad(batch, entities, weights, temperature)
            assert np.array_equal(_bits(grad), _bits(ref))

    def test_four_softmaxes_per_training_step(self, monkeypatch):
        from medserve import distill

        calls = []
        softmax = distill._softmax
        monkeypatch.setattr(distill, "_softmax", lambda z: calls.append(1) or softmax(z))
        counts = []
        for steps in (5, 9):
            calls.clear()
            train_toy_distill(ToyDistillConfig(steps=steps))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 4 * 4

    def test_frozen_teacher_runs_once_per_batch(self, monkeypatch):
        from medserve.distill import DenseNet

        config = ToyDistillConfig()
        widths = []
        forward = DenseNet.forward

        def counting_forward(self, x):
            widths.append(self.w1.shape[0])
            return forward(self, x)

        monkeypatch.setattr(DenseNet, "forward", counting_forward)
        train_toy_distill(config)
        batches = -(-config.dataset_size // config.batch_size)
        # once for the labels, once per batch, and once in each of the two
        # KL evaluations
        assert widths.count(config.teacher_width) == 1 + batches + 2 == 7


class TestGridSearch:
    def test_single_candidate(self):
        only = DistillLossWeights(1, 2, 3, 4)
        assert grid_search_lambdas([only], lambda w: 0.0) is only

    def test_monotone_oracle(self):
        cands = [DistillLossWeights(l1, 1, 0, 0) for l1 in (3.0, 1.0, 2.0)]
        best = grid_search_lambdas(cands, lambda w: -w.ce)
        assert best.ce == 1.0

    def test_grid_peak_found(self):
        grid = [
            DistillLossWeights(l1, l2, 0, 0)
            for l1 in (0.5, 1.0, 1.5)
            for l2 in (0.25, 0.5, 0.75)
        ]
        best = grid_search_lambdas(
            grid, lambda w: -((w.ce - 1.0) ** 2 + (w.kl - 0.5) ** 2)
        )
        assert (best.ce, best.kl) == (1.0, 0.5)

    def test_tie_keeps_first(self):
        cands = [DistillLossWeights(1, 0, 0, 0), DistillLossWeights(2, 0, 0, 0)]
        assert grid_search_lambdas(cands, lambda w: 42.0) is cands[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grid_search_lambdas([], lambda w: 0.0)


class TestComplexity:
    def test_empty_text(self):
        assert complexity_score("", {}) == 0.0

    def test_all_common(self):
        freq = {w: 100 for w in ("one", "two", "three", "four", "five")}
        assert complexity_score("one two three four five", freq) == 5.0

    def test_rare_tokens_weighted(self):
        freq = {"common": 100, "also": 50}
        # 4 tokens, 2 rare -> 4 + 3*2 = 10
        assert complexity_score("common also exotica arcana", freq) == 10.0


class TestProgressiveBatches:
    def test_sorted_ascending_and_stable(self):
        samples = [
            TrainingSample(np.zeros(1), 0, complexity=c)
            for c in (3.0, 1.0, 2.0, 1.0, 0.5)
        ]
        batches = make_progressive_batches(samples, batch_size=2)
        flat = [s for b in batches for s in b]
        assert [s.complexity for s in flat] == [0.5, 1.0, 1.0, 2.0, 3.0]
        # stability: the first 1.0 in input order comes out first
        assert flat[1] is samples[1]
        assert flat[2] is samples[3]

    def test_batch_sizes(self):
        samples = [TrainingSample(np.zeros(1), 0, complexity=float(i)) for i in range(5)]
        batches = make_progressive_batches(samples, batch_size=2)
        assert [len(b) for b in batches] == [2, 2, 1]


class TestToyTrainer:
    def test_student_equal_to_teacher_is_a_fixed_point(self):
        # With the KL-only loss, a student that equals the teacher sees zero
        # gradient, so one update step leaves its parameters untouched.
        from medserve.distill import DenseNet

        rng = np.random.default_rng(0)
        net = DenseNet(4, 8, 3, rng)
        x = rng.normal(size=(6, 4))
        hidden, logits = net.forward(x)
        batch = LogitsBatch(
            student_logits=logits, teacher_logits=logits.copy(),
            labels=logits.argmax(axis=1),
            student_hidden=hidden, teacher_hidden=hidden.copy(),
        )
        weights = DistillLossWeights(0, 1, 0, 0)
        _, (_, kl, _, _) = distill_loss(batch, [], weights)
        assert kl == pytest.approx(0.0, abs=1e-15)
        grad = distill_loss_grad_logits(batch, [], weights)
        assert np.abs(grad).max() == pytest.approx(0.0, abs=1e-15)

    def test_default_run_converges(self):
        report = train_toy_distill(ToyDistillConfig())
        assert not report.diverged
        assert report.final_kl <= 0.1 * report.initial_kl

    def test_deterministic_given_seed(self):
        cfg = ToyDistillConfig(steps=60)
        r1 = train_toy_distill(cfg)
        r2 = train_toy_distill(cfg)
        assert [rec.total for rec in r1.steps] == [rec.total for rec in r2.steps]
        assert r1.final_kl == r2.final_kl

    def test_default_batch_size_is_64(self):
        assert ToyDistillConfig().batch_size == 64

    def test_metric_lines_format(self):
        report = train_toy_distill(ToyDistillConfig(steps=3))
        lines = list(report.lines())
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 7 for line in lines)

    def test_teacher_narrower_than_student_rejected(self):
        with pytest.raises(ValueError):
            ToyDistillConfig(teacher_width=8, student_width=16)

    def test_divergence_reported_with_step_index(self):
        cfg = ToyDistillConfig(steps=80, eta_max=1e307, eta_min=1e306, g_max=1e9)
        report = train_toy_distill(cfg)
        assert report.diverged
        assert report.diverged_step is not None
        assert report.diverged_step < 80
