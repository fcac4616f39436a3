"""Tests for the plan cache, attention kernels, engine selection, mode
decision, weight tuning, and the batching simulator."""

import math
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from medserve.runtime import (
    BatchState,
    DecisionWeights,
    EngineProfile,
    GenRequest,
    HardwareEnv,
    ModeCandidate,
    NoFeasibleEngineError,
    PlanCache,
    ShapeKey,
    TickCostModel,
    WorkloadProfile,
    continuous_batch_step,
    decide_mode,
    naive_attention,
    score_engine,
    select_engine,
    shape_bucket,
    simulate_batching,
    tiled_attention,
    tune_weights,
)
from oracles import reference_attention

GIB = 2**30


def hardware(accel=8 * GIB):
    return HardwareEnv(accelerator_memory_bytes=accel)


def workload(prompt=100.0, output=100.0):
    return WorkloadProfile(mean_prompt_tokens=prompt,
                           mean_output_tokens=output)


def engine(eid, rate, overhead, memory):
    return EngineProfile(id=eid,
                         base_rate_tokens_per_s=rate,
                         request_overhead_s=overhead, memory_bytes=memory)


class TestShapeBucket:
    def test_rounds_up(self):
        assert shape_bucket(130, 4, 32) == ShapeKey(160, 4)

    def test_exact_multiple_unpadded(self):
        assert shape_bucket(128, 4, 32) == ShapeKey(128, 4)

    def test_identity_granularity(self):
        assert shape_bucket(77, 2, 1) == ShapeKey(77, 2)

    @given(st.integers(1, 5000), st.integers(1, 64), st.integers(1, 128))
    def test_bucket_invariants(self, seq, batch, g):
        key = shape_bucket(seq, batch, g)
        assert key.seq_len >= seq
        assert key.seq_len - seq < g
        assert key.seq_len % g == 0


class TestPlanCache:
    def test_one_build_then_hits(self):
        cache = PlanCache()
        calls = []
        build = lambda key: calls.append(key) or f"plan-{key.seq_len}"
        key = shape_bucket(100, 1, 32)
        first = cache.get_or_build(key, build)
        second = cache.get_or_build(key, build)
        assert first == second == "plan-128"
        assert len(calls) == 1
        assert cache.stats.builds == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_bucketed_lengths_share_plan(self):
        cache = PlanCache()
        builds = []
        for seq in (130, 140):
            key = shape_bucket(seq, 1, 32)
            cache.get_or_build(key, lambda k: builds.append(k) or "p")
        assert len(builds) == 1

    def test_warm_up_gives_full_hit_rate(self):
        cache = PlanCache()
        shapes = [shape_bucket(s, 1, 32) for s in (10, 50, 100, 200)]
        cache.warm_up(shapes, lambda k: "p")
        builds_after_warmup = cache.stats.builds
        for s in (10, 50, 100, 200):
            cache.get_or_build(shape_bucket(s, 1, 32), lambda k: "p")
        assert cache.stats.builds == builds_after_warmup
        assert cache.stats.hits >= 4

    def test_failed_build_leaves_key_uncached(self):
        cache = PlanCache()
        key = ShapeKey(32, 1)

        def explode(_):
            raise RuntimeError("no backend")

        with pytest.raises(RuntimeError):
            cache.get_or_build(key, explode)
        assert cache.get_or_build(key, lambda k: "ok") == "ok"

    def test_single_flight_under_concurrency(self):
        cache = PlanCache()
        key = ShapeKey(64, 2)
        builds = []
        gate = threading.Event()

        def slow_build(k):
            gate.wait(timeout=5)
            builds.append(k)
            return "plan"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get_or_build(key, slow_build)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert results == ["plan"] * 8
        assert len(builds) == 1

    def test_builds_equal_distinct_keys_over_random_sequences(self):
        rng = np.random.default_rng(21)
        cache = PlanCache()
        seen = set()
        for _ in range(500):
            seq = int(rng.integers(1, 1000))
            batch = int(rng.integers(1, 9))
            key = shape_bucket(seq, batch, 32)
            seen.add(key)
            cache.get_or_build(key, lambda k: object())
        assert cache.stats.builds == len(seen)


class TestAttention:
    def test_single_position(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.5, -1.0]])
        v = np.array([[3.0, 4.0, 5.0]])
        assert np.allclose(tiled_attention(q, k, v, tile=1), v)
        assert np.allclose(naive_attention(q, k, v), v)

    def test_matches_naive_and_reference_on_random_shapes(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n, m = rng.integers(1, 17, size=2)
            d, e = rng.integers(1, 9, size=2)
            q = rng.normal(size=(n, d))
            k = rng.normal(size=(m, d))
            v = rng.normal(size=(m, e))
            base = naive_attention(q, k, v)
            assert np.allclose(base, reference_attention(q, k, v), atol=1e-11)
            for tile in range(1, m + 1):
                assert np.abs(tiled_attention(q, k, v, tile) - base).max() <= 1e-9

    def test_tile_size_invariance(self):
        rng = np.random.default_rng(23)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(12, 4))
        v = rng.normal(size=(12, 3))
        full = tiled_attention(q, k, v, tile=12)
        single = tiled_attention(q, k, v, tile=1)
        assert np.abs(full - single).max() <= 1e-12

    def test_row_stochastic_weights(self):
        # with V = I the output rows are exactly the attention weights
        rng = np.random.default_rng(24)
        q = rng.normal(size=(5, 3))
        k = rng.normal(size=(7, 3))
        weights = naive_attention(q, k, np.eye(7))
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights >= 0)
        tiled = tiled_attention(q, k, np.eye(7), tile=3)
        assert np.allclose(tiled.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tiled_attention(np.ones((2, 3)), np.ones((4, 2)), np.ones((4, 2)), tile=2)


class TestEngineScoring:
    def test_memory_filter(self):
        too_big = engine("big", 200.0, 0.01, 20 * GIB)
        assert score_engine(too_big, hardware(), workload()) == -math.inf

    def test_faster_base_rate_scores_higher(self):
        slow = engine("slow", 100.0, 0.05, 4 * GIB)
        fast = engine("fast", 150.0, 0.05, 4 * GIB)
        hw, load = hardware(), workload()
        assert score_engine(fast, hw, load) > score_engine(slow, hw, load)

    def test_three_engine_fixture_hand_values(self):
        hw, load = hardware(), workload()
        a = engine("a", 100.0, 0.05, 4 * GIB)
        b = engine("b", 150.0, 0.10, 6 * GIB)
        c = engine("c", 200.0, 0.01, 20 * GIB)
        # hand arithmetic with tokens = 200
        lat_a = 0.05 + 200 / 100.0
        s_a = 1.0 * (100 / lat_a) - 0.5 * lat_a - 0.2 * (4 / 8)
        lat_b = 0.10 + 200 / 150.0
        s_b = 1.0 * (100 / lat_b) - 0.5 * lat_b - 0.2 * (6 / 8)
        assert score_engine(a, hw, load) == pytest.approx(s_a)
        assert score_engine(b, hw, load) == pytest.approx(s_b)
        assert score_engine(c, hw, load) == -math.inf
        assert select_engine([a, b, c], hw, load) == ("b" if s_b > s_a else "a")

    def test_select_single_feasible(self):
        only = engine("only", 100.0, 0.05, 4 * GIB)
        assert select_engine([only], hardware(), workload()) == "only"

    def test_select_matches_bruteforce(self):
        rng = np.random.default_rng(25)
        hw, load = hardware(), workload()
        for _ in range(50):
            engines = [
                engine(f"e{i}", float(rng.uniform(50, 400)),
                       float(rng.uniform(0, 0.3)),
                       int(rng.integers(1, 12) * GIB))
                for i in range(int(rng.integers(1, 6)))
            ]
            scores = {e.id: score_engine(e, hw, load) for e in engines}
            feasible = {k: v for k, v in scores.items() if v > -math.inf}
            if not feasible:
                with pytest.raises(NoFeasibleEngineError):
                    select_engine(engines, hw, load)
                continue
            expected = min(
                k for k, v in feasible.items() if v == max(feasible.values())
            )
            assert select_engine(engines, hw, load) == expected

    def test_all_infeasible_raises(self):
        engines = [engine("x", 100.0, 0.0, 20 * GIB)]
        with pytest.raises(NoFeasibleEngineError):
            select_engine(engines, hardware(), workload())

    def test_memory_scale_invariance(self):
        rng = np.random.default_rng(26)
        load = workload()
        for _ in range(100):
            engines = [
                engine(f"e{i}", float(rng.uniform(50, 400)),
                       float(rng.uniform(0, 0.3)),
                       int(rng.integers(1, 12) * GIB))
                for i in range(3)
            ]
            hw = hardware()
            try:
                base_choice = select_engine(engines, hw, load)
            except NoFeasibleEngineError:
                base_choice = None
            for k in (3, 1024):
                scaled_engines = [
                    EngineProfile(
                        id=e.id,
                        base_rate_tokens_per_s=e.base_rate_tokens_per_s,
                        request_overhead_s=e.request_overhead_s,
                        memory_bytes=e.memory_bytes * k,
                    )
                    for e in engines
                ]
                scaled_hw = HardwareEnv(
                    accelerator_memory_bytes=hw.accelerator_memory_bytes * k,
                )
                try:
                    scaled_choice = select_engine(scaled_engines, scaled_hw, load)
                except NoFeasibleEngineError:
                    scaled_choice = None
                assert scaled_choice == base_choice


class TestModeDecision:
    def test_lower_cost_wins_when_rest_equal(self):
        adapter = ModeCandidate("adapter", 0.8, 0.8, 0.5)
        merged = ModeCandidate("merged", 0.8, 0.8, 0.2)
        assert decide_mode([adapter, merged], DecisionWeights(1, 1, 1)) == "merged"

    def test_performance_only_weights(self):
        adapter = ModeCandidate("adapter", 0.9, 0.1, 0.9)
        merged = ModeCandidate("merged", 0.8, 1.0, 0.0)
        assert decide_mode([adapter, merged], DecisionWeights(1, 0, 0)) == "adapter"

    def test_hand_fixture(self):
        adapter = ModeCandidate("adapter", 0.8, 0.9, 0.3)  # D = 1.4
        merged = ModeCandidate("merged", 0.9, 0.6, 0.2)    # D = 1.3
        assert decide_mode([adapter, merged], DecisionWeights(1, 1, 1)) == "adapter"

    def test_exact_tie_prefers_merged(self):
        adapter = ModeCandidate("adapter", 0.5, 0.5, 0.5)
        merged = ModeCandidate("merged", 0.5, 0.5, 0.5)
        assert decide_mode([adapter, merged], DecisionWeights(1, 1, 1)) == "merged"

    def test_dominance_property(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            p, f, c = rng.uniform(0, 1, size=3)
            dp, df, dc = rng.uniform(0, 0.5, size=3)
            if dp == df == dc == 0:
                continue
            dominant = ModeCandidate("adapter", p + dp, f + df, max(c - dc, 0.0))
            other = ModeCandidate("merged", p, f, c)
            weights = DecisionWeights(*rng.uniform(0.1, 2.0, size=3))
            assert decide_mode([dominant, other], weights) == "adapter"


class TestTuneWeights:
    W_STAR = (1.2, 0.7, 0.4)

    @staticmethod
    def objective(w):
        ws = TestTuneWeights.W_STAR
        return -((w.performance - ws[0]) ** 2 + (w.fit - ws[1]) ** 2
                 + (w.cost - ws[2]) ** 2)

    def test_finds_quadratic_peak_within_tolerance(self):
        w = tune_weights([], self.objective, budget=200, seed=0)
        # frozen from the committed deterministic run
        assert w.performance == pytest.approx(1.1836852132691957, abs=1e-12)
        assert w.fit == pytest.approx(0.6916481916865325, abs=1e-12)
        assert w.cost == pytest.approx(0.4086013214856207, abs=1e-12)
        assert abs(w.performance - self.W_STAR[0]) < 0.1
        assert abs(w.fit - self.W_STAR[1]) < 0.1
        assert abs(w.cost - self.W_STAR[2]) < 0.1

    def test_zero_budget_returns_defaults(self):
        assert tune_weights([], self.objective, budget=0) == DecisionWeights()

    def test_history_optimum_never_lost(self):
        best = DecisionWeights(*self.W_STAR)
        history = [(best, self.objective(best)), (DecisionWeights(0, 0, 0), -10.0)]
        tuned = tune_weights(history, self.objective, budget=50, seed=1)
        assert self.objective(tuned) >= self.objective(best)


class TestBatchingSimulator:
    def test_single_request_takes_output_length_ticks(self):
        state = simulate_batching([GenRequest("a", 17)], capacity=4)
        assert state.tick == 17
        assert set(state.completions) == {"a"}

    def test_equal_requests_finish_together(self):
        state = simulate_batching(
            [GenRequest("a", 9), GenRequest("b", 9)], capacity=2
        )
        assert state.completions["a"] == state.completions["b"]

    def test_step_emits_active_ids(self):
        state = BatchState(capacity=2)
        pending = deque([GenRequest("a", 2), GenRequest("b", 1), GenRequest("c", 1)])
        emitted = continuous_batch_step(state, pending)
        assert emitted == ["a", "b"]
        emitted = continuous_batch_step(state, pending)
        assert set(emitted) == {"a", "c"}

    def test_continuous_beats_static_on_mixed_lengths(self):
        rng = np.random.default_rng(28)
        requests = [
            GenRequest(f"r{i}", int(rng.integers(10, 201))) for i in range(100)
        ]
        cost = TickCostModel()
        cont = simulate_batching(requests, capacity=8, policy="continuous", cost=cost)
        stat = simulate_batching(requests, capacity=8, policy="static", cost=cost)
        assert cont.elapsed <= stat.elapsed
        assert set(cont.completions) == set(stat.completions)

    def test_capacity_respected(self):
        state = BatchState(capacity=3)
        pending = deque(GenRequest(f"r{i}", 5) for i in range(10))
        emitted = continuous_batch_step(state, pending)
        assert len(emitted) == 3