"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import json
import math
import shutil
import time

import numpy as np
import pytest

from oracles import brute_force_placement, singular_values


def _report(number: int, title: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status} [{elapsed:.2f}s] {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def test_criterion_01_memory_reduction_ratio():
    started = time.perf_counter()
    from medserve.quantizer import PrecisionPolicy, apply_policy, synthetic_7b_manifest

    plan = apply_policy(synthetic_7b_manifest(), PrecisionPolicy())
    ratio = plan.total_bytes / plan.fp16_bytes
    _report(1, "mixed-precision 7B footprint <= 40% of FP16", ratio <= 0.40,
            started, f"ratio={ratio:.4f}, reduction={plan.reduction * 100:.1f}%")


def test_criterion_02_nf4_beats_uniform_absmax():
    started = time.perf_counter()
    from medserve.quantizer import dequantize, quantize_tensor

    uniform = np.linspace(-1.0, 1.0, 16)
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(10_000)
        qt = quantize_tensor(x, "nf4", 64)
        nf4_mse = float(((dequantize(qt) - x) ** 2).mean())
        restored = np.empty_like(x)
        for start in range(0, x.size, 64):
            block = x[start:start + 64]
            scale = np.abs(block).max()
            codes = np.argmin(np.abs((block / scale)[:, None] - uniform[None, :]), axis=1)
            restored[start:start + block.size] = uniform[codes] * scale
        if nf4_mse < float(((restored - x) ** 2).mean()):
            wins += 1
    _report(2, "NF4 round-trip MSE beats uniform 4-bit in >= 95/100 trials",
            wins >= 95, started, f"wins={wins}/100")


def test_criterion_03_merge_adapter_equivalence():
    started = time.perf_counter()
    from medserve.adapters import LoraAdapter, lora_forward, merge_adapter

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        d, k = rng.integers(1, 33, size=2)
        rank = int(rng.integers(1, min(d, k) + 1))
        w0 = rng.normal(size=(d, k))
        adapter = LoraAdapter(
            b=rng.normal(size=(d, rank)), a=rng.normal(size=(rank, k)),
            rank=rank, alpha=float(rng.uniform(0.5, 64)),
        )
        x = rng.normal(size=k)
        dev = np.abs(merge_adapter(w0, adapter) @ x - lora_forward(w0, adapter, x)).max()
        worst = max(worst, float(dev))
    _report(3, "merge/adapter equivalence on 200 random cases (<= 1e-9)",
            worst <= 1e-9, started, f"max deviation={worst:.2e}")


def test_criterion_04_stable_svd_tail_energy():
    started = time.perf_counter()
    from medserve.adapters import StableSvdConfig, stable_svd_update

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, 8))
        inner = int(rng.integers(1, 6))
        b = rng.normal(size=(d, inner))
        a = rng.normal(size=(inner, k))
        r = int(rng.integers(1, min(d, k) + 1))
        delta = stable_svd_update(b, a, StableSvdConfig(rank=r, lambda0=0.0))
        sv = singular_values(b @ a)  # independent Jacobi oracle
        tail = float((sv[r:] ** 2).sum())
        err_sq = float(np.linalg.norm(delta - b @ a) ** 2)
        worst = max(worst, abs(err_sq - tail))
    _report(4, "StableSVD reconstruction error^2 equals discarded energy (<= 1e-9)",
            worst <= 1e-9, started, f"max |err^2 - tail|={worst:.2e}")


def test_criterion_05_scheduler_exactness():
    started = time.perf_counter()
    from medserve.distill import TrainingSchedule, lr_at

    s = TrainingSchedule(eta_min=1e-5, eta_max=5e-5, total_steps=400, restarts=2)
    checks = [
        abs(lr_at(s, 0) - 5e-5),
        abs(lr_at(s, s.horizon / 2) - 3e-5),
        abs(lr_at(s, s.horizon) - 1e-5),
    ]
    _report(5, "cosine schedule hits eta_max, midpoint, eta_min (<= 1e-12)",
            max(checks) <= 1e-12, started, f"max err={max(checks):.2e}")


def test_criterion_06_distill_loss_gradient_check():
    started = time.perf_counter()
    import dataclasses

    from medserve.distill import (
        DistillLossWeights,
        Entity,
        LogitsBatch,
        distill_loss,
        distill_loss_grad_logits,
    )

    rng = np.random.default_rng(13)
    weights = DistillLossWeights(0.8, 1.2, 0.5, 0.7)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(1, 5))
        v = int(rng.integers(2, 7))
        entities = [Entity("e0", (0,), 2.0), Entity("rest", tuple(range(1, v)), 1.0)]
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
                lp, _ = distill_loss(dataclasses.replace(batch, student_logits=plus),
                                     entities, weights, temperature=2.0)
                lm, _ = distill_loss(dataclasses.replace(batch, student_logits=minus),
                                     entities, weights, temperature=2.0)
                numeric[i, j] = (lp - lm) / (2 * eps)
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, float(rel))
    _report(6, "analytic distill-loss gradient matches central differences (<= 1e-5)",
            worst <= 1e-5, started, f"max rel err={worst:.2e}")


def test_criterion_07_toy_distillation_convergence():
    started = time.perf_counter()
    from medserve.distill import ToyDistillConfig, train_toy_distill

    report = train_toy_distill(ToyDistillConfig(seed=7, steps=500))
    ratio = report.final_kl / report.initial_kl
    ok = not report.diverged and ratio <= 0.10
    _report(7, "toy distillation cuts student-teacher KL by >= 90% (seed 7)",
            ok, started,
            f"initial={report.initial_kl:.4f} final={report.final_kl:.4f} ratio={ratio:.4f}")


def test_criterion_08_placement_optimality():
    started = time.perf_counter()
    from medserve.placement import (
        DeviceSpec,
        LayerProfile,
        estimate_latency,
        solve_placement,
    )

    rng = np.random.default_rng(17)
    mismatches = 0
    greedy_violations = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        layers = [
            LayerProfile(id=f"l{i}", order=i,
                         flops=float(rng.uniform(1e8, 5e9)),
                         weight_bytes=int(rng.integers(1, 2 * 10**8)),
                         activation_bytes=int(rng.integers(0, 10**7)))
            for i in range(n)
        ]
        devices = sorted(
            (DeviceSpec(id=f"d{j}",
                        memory_bytes=int(rng.integers(10**8, 10**9)),
                        throughput_flops=float(rng.uniform(5e8, 5e9)),
                        bandwidth_bytes=float(rng.uniform(1e7, 1e9)))
             for j in range(m)),
            key=lambda d: d.id,
        )
        best, _ = brute_force_placement(layers, devices, estimate_latency)
        plan = solve_placement(layers, devices, mode="exact")
        if best is None:
            if plan.feasible:
                mismatches += 1
        elif not plan.feasible or abs(plan.latency - best) > 1e-9 * max(best, 1.0):
            mismatches += 1
        greedy = solve_placement(layers, devices, mode="greedy")
        if greedy.feasible:
            for dev in devices:
                if greedy.memory_per_device[dev.id] > dev.memory_bytes:
                    greedy_violations += 1
    ok = mismatches == 0 and greedy_violations == 0
    _report(8, "exact placement equals brute force on 300 instances; greedy feasible",
            ok, started, f"mismatches={mismatches} greedy_violations={greedy_violations}")


def test_criterion_09_attention_oracle_equivalence():
    started = time.perf_counter()
    from medserve.runtime import naive_attention, tiled_attention

    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        n, m = rng.integers(1, 17, size=2)
        d, e = rng.integers(1, 9, size=2)
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(m, d))
        v = rng.normal(size=(m, e))
        base = naive_attention(q, k, v)
        for tile in range(1, m + 1):
            dev = float(np.abs(tiled_attention(q, k, v, tile) - base).max())
            worst = max(worst, dev)
    _report(9, "tiled attention equals naive oracle for all tile sizes (<= 1e-9)",
            worst <= 1e-9, started, f"max deviation={worst:.2e}")


def test_criterion_10_plan_cache_single_build():
    started = time.perf_counter()
    from medserve.runtime import PlanCache, shape_bucket

    exact = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cache = PlanCache()
        distinct = set()
        for _ in range(400):
            key = shape_bucket(int(rng.integers(1, 2000)), int(rng.integers(1, 16)), 32)
            distinct.add(key)
            cache.get_or_build(key, lambda k: object())
        if cache.stats.builds != len(distinct):
            exact = False
    _report(10, "plan cache builds exactly once per distinct bucketed key",
            exact, started)


def test_criterion_11_cache_semantics(tmp_path):
    started = time.perf_counter()
    from medserve.cache import CacheEntry, TwoLevelCache, decode_records, encode_record

    # exact-repeat hit rate 100%
    exact_ok = True
    with TwoLevelCache(capacity=8, disk_dir=tmp_path / "a") as cache:
        queries = [f"unique question number {i}" for i in range(20)]
        for q in queries:
            cache.insert(q, f"answer for {q}", "diagnosis")
        exact_ok = all(cache.lookup(q) is not None for q in queries)

    # LRU eviction recoverable from the disk tier
    with TwoLevelCache(capacity=2, disk_dir=tmp_path / "b") as cache:
        cache.insert("first", "r1", "x")
        cache.insert("second", "r2", "x")
        cache.insert("third", "r3", "x")
        hit = cache.lookup("first")
        lru_ok = hit is not None and hit.tier == "disk"

    # crash recovery over 50 random truncation points
    entries = [
        CacheEntry.build(f"crash query {i}", f"resp {i}", "x", timestamp=float(i))
        for i in range(10)
    ]
    blob = b"".join(encode_record(e) for e in entries)
    boundaries, total = [], 0
    for e in entries:
        total += len(encode_record(e))
        boundaries.append(total)
    rng = np.random.default_rng(23)
    crash_ok = True
    for _ in range(50):
        cut = int(rng.integers(0, len(blob) + 1))
        decoded, _ = decode_records(blob[:cut])
        expected = sum(1 for b in boundaries if b <= cut)
        if len(decoded) != expected or [d.query for d in decoded] != [
            e.query for e in entries[:expected]
        ]:
            crash_ok = False
    ok = exact_ok and lru_ok and crash_ok
    _report(11, "exact repeats always hit; evictions recoverable; crash-safe prefix",
            ok, started, f"exact={exact_ok} lru={lru_ok} crash={crash_ok}")


def test_criterion_12_continuous_batching_makespan():
    started = time.perf_counter()
    from medserve.runtime import GenRequest, TickCostModel, simulate_batching

    rng = np.random.default_rng(28)
    requests = [GenRequest(f"r{i}", int(rng.integers(10, 201))) for i in range(100)]
    cost = TickCostModel()
    cont = simulate_batching(requests, capacity=8, policy="continuous", cost=cost)
    stat = simulate_batching(requests, capacity=8, policy="static", cost=cost)
    _report(12, "continuous batching makespan <= static on the seeded workload",
            cont.elapsed <= stat.elapsed, started,
            f"continuous={cont.elapsed:.3f}s static={stat.elapsed:.3f}s")


def test_criterion_13_argmax_properties():
    started = time.perf_counter()
    from medserve.runtime import (
        DecisionWeights,
        EngineProfile,
        HardwareEnv,
        ModeCandidate,
        WorkloadProfile,
        decide_mode,
        score_engine,
        select_engine,
        NoFeasibleEngineError,
    )

    rng = np.random.default_rng(31)
    load = WorkloadProfile(mean_prompt_tokens=80.0,
                           mean_output_tokens=120.0)
    dominance_ok = True
    for _ in range(1000):
        p, f, c = rng.uniform(0, 1, size=3)
        dp, df, dc = rng.uniform(1e-6, 0.5, size=3)
        dominant = ModeCandidate("adapter", p + dp, f + df, max(c - dc, 0.0))
        other = ModeCandidate("merged", p, f, c)
        weights = DecisionWeights(*rng.uniform(0.1, 2.0, size=3))
        if decide_mode([dominant, other], weights) != "adapter":
            dominance_ok = False

    filter_ok = True
    gib = 2**30
    for _ in range(1000):
        hw = HardwareEnv(accelerator_memory_bytes=int(rng.integers(2, 12)) * gib)
        engines = [
            EngineProfile(id=f"e{i}",
                          base_rate_tokens_per_s=float(rng.uniform(50, 400)),
                          request_overhead_s=float(rng.uniform(0, 0.3)),
                          memory_bytes=int(rng.integers(1, 16)) * gib)
            for i in range(int(rng.integers(1, 6)))
        ]
        feasible = [e.id for e in engines if e.memory_bytes <= hw.accelerator_memory_bytes]
        infeasible_scores = [
            score_engine(e, hw, load) for e in engines
            if e.memory_bytes > hw.accelerator_memory_bytes
        ]
        if any(s != -math.inf for s in infeasible_scores):
            filter_ok = False
        try:
            chosen = select_engine(engines, hw, load)
            if chosen not in feasible:
                filter_ok = False
        except NoFeasibleEngineError:
            if feasible:
                filter_ok = False
    ok = dominance_ok and filter_ok
    _report(13, "mode dominance and engine feasibility-filter argmax invariants",
            ok, started, f"dominance={dominance_ok} filter={filter_ok}")


def test_criterion_14_bench_byte_identical(tmp_path):
    started = time.perf_counter()
    from medserve.bench import BenchSpec, run_bench
    from medserve.config import default_config_path, load_config

    doc = json.loads(default_config_path().read_text())
    doc["cache"]["disk_dir"] = str(tmp_path / "cache")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = load_config(path)

    spec = BenchSpec(requests=100, unique=40, seed=7)
    first = run_bench(config, spec).text().encode()
    shutil.rmtree(config.cache.disk_dir)
    second = run_bench(config, spec).text().encode()
    _report(14, "bench report byte-identical across two runs",
            first == second, started, f"{len(first)} bytes")