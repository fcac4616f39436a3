"""Output checks. Each failed check counts as a failed operation.

Serving: every 200 carries the category ``classify`` gives its text; a miss
carries ``mock_engine_generate`` of its own prompt; a hit carries the answer
cached for its group (the query it repeats or paraphrases), and a query
whose group was answered before it was sent must hit; a novel query must
miss; malformed bodies get 400; anything else fails.

Model prep: sampled checkpoint blocks match NF4 nearest-level codes (lower
index on ties) and INT8 round-to-nearest codes computed here; read-back
values stay within half a level gap times the block scale; placement plans
fit device memory and their latency matches a recomputation done here.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np


class AnswerOracle:
    """What the service must answer, from the package's public functions."""

    def __init__(self):
        from medserve.config import load_config, packaged_data
        from medserve.query_pipeline import load_lexicon, load_templates

        config = load_config()
        self.lexicon = load_lexicon(packaged_data("lexicon.json"))
        self.templates = load_templates(packaged_data("templates.json"))
        self.engine_seed = config.mock_engine.seed
        self._memo: dict[str, tuple[str, str]] = {}

    def __call__(self, text: str) -> tuple[str, str]:
        """(category, answer on a miss) for a query text."""
        out = self._memo.get(text)
        if out is None:
            from medserve.engines import mock_engine_generate
            from medserve.query_pipeline import build_prompt, classify

            classified = classify(text, self.lexicon)
            category = classified.category.value
            prompt = build_prompt(classified, self.templates)
            out = (category, mock_engine_generate(prompt, self.engine_seed, category))
            self._memo[text] = out
        return out


def check_serving(oracle: AnswerOracle, requests, results, preload: dict[str, str]) -> list:
    """Check one server's (or one replay's) responses.

    requests[i] pairs with results[i] = (status, payload, sent, done), or
    None when it was never sent. Returns, per request, None when it passed
    (or was not sent) and otherwise the reason it failed.
    """
    answers: dict[str, set[str]] = {g: {oracle(t)[1]} for g, t in preload.items()}
    answered_at: dict[str, float] = {g: -math.inf for g in preload}
    for req, res in zip(requests, results):
        if res is None or res[0] != 200 or not isinstance(res[1], dict):
            continue
        if res[1].get("cache") == "miss":
            answers.setdefault(req.group, set()).add(res[1].get("answer"))
            answered_at[req.group] = min(answered_at.get(req.group, math.inf), res[3])
    return [
        None if res is None else _verdict(oracle, req, res, answers, answered_at)
        for req, res in zip(requests, results)
    ]


def _verdict(oracle, req, res, answers, answered_at):
    status, payload, sent, _ = res
    if status == 0:
        return f"{req.kind} request got no response"
    if req.kind == "malformed":
        return None if status == 400 else f"malformed body {req.body[:30]!r} got {status}"
    if status != 200 or not isinstance(payload, dict):
        return f"{req.kind} query got status {status}"
    category, fresh_answer = oracle(req.text)
    tier = payload.get("cache")
    if payload.get("category") != category:
        return f"category {payload.get('category')!r} != {category!r} for {req.text!r}"
    if tier == "miss":
        if payload.get("answer") != fresh_answer:
            return f"miss answer differs from mock_engine_generate for {req.text!r}"
        if answered_at.get(req.group, math.inf) < sent:
            return f"{req.kind} {req.text!r} missed after its group was cached"
        return None
    if tier in ("memory", "disk"):
        if req.kind == "novel":
            return f"novel query {req.text!r} answered as a {tier} hit"
        if payload.get("answer") not in answers.get(req.group, ()):
            return f"hit for {req.text!r} carries another query's answer"
        return None
    return f"unknown cache tier {tier!r}"


# -- model prep -----------------------------------------------------------


SAMPLED_BLOCKS = 64


def _checkpoint_segments(path):
    """Parse the container independently: header and raw per-layer bytes."""
    blob = open(path, "rb").read()
    if blob[:8] != b"MSQCKPT1":
        raise ValueError("bad checkpoint magic")
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len])
    offset = 12 + header_len
    out = {}
    for entry in header["layers"]:
        codes = blob[offset:offset + entry["codes_len"]]
        offset += entry["codes_len"]
        scales = np.frombuffer(blob[offset:offset + entry["scales_len"]], dtype="<f4")
        offset += entry["scales_len"]
        out[entry["name"]] = (entry["bits"], codes, scales)
    if offset != len(blob):
        raise ValueError("checkpoint has trailing or missing bytes")
    return header, out


def check_checkpoint(inputs, ref, rng) -> list[str]:
    from medserve.quantizer import NF4_LEVELS

    levels = np.array(NF4_LEVELS, dtype=np.float64)
    half_gap = {4: float(np.max(np.diff(levels))) / 2.0, 8: 0.5 / 127.0}
    reasons = []
    header, segments = _checkpoint_segments(ref["path"])
    block = header["block_size"]
    for layer in inputs.manifest.layers:
        bits, codes, scales = segments[layer.name]
        w = np.asarray(inputs.weights[layer.name], dtype=np.float64).ravel()
        n_blocks = (w.size + block - 1) // block
        if scales.size != n_blocks:
            reasons.append(f"{layer.name}: {scales.size} scales for {n_blocks} blocks")
            continue
        if bits == 4:
            raw = np.frombuffer(codes, dtype=np.uint8)
            all_codes = np.empty(raw.size * 2, dtype=np.uint8)
            all_codes[0::2], all_codes[1::2] = raw & 0x0F, raw >> 4
        else:
            all_codes = np.frombuffer(codes, dtype=np.int8)
        for b in rng.choice(n_blocks, size=min(SAMPLED_BLOCKS, n_blocks), replace=False):
            x = w[b * block:(b + 1) * block]
            scale = float(np.max(np.abs(x)))
            got = all_codes[b * block:b * block + x.size]
            if scales[b] != np.float32(scale):
                reasons.append(f"{layer.name} block {b}: scale {scales[b]} != {scale}")
            elif scale == 0.0:
                continue
            elif bits == 4:
                dist = np.abs(x[:, None] / scale - levels[None, :])
                want = np.argmin(dist, axis=1)  # first minimum: lower index on ties
                if not np.array_equal(got.astype(np.int64), want):
                    reasons.append(f"{layer.name} block {b}: NF4 codes differ")
            elif not np.array_equal(
                got.astype(np.int64), np.clip(np.round(x / scale * 127.0), -127, 127)
            ):
                reasons.append(f"{layer.name} block {b}: INT8 codes differ")
        # read-back error bound, on every value
        back = np.asarray(ref["weights"][layer.name], dtype=np.float64).ravel()
        bound = np.repeat(scales.astype(np.float64), block)[:w.size] * half_gap[bits]
        if back.shape != w.shape or np.any(np.abs(back - w) > bound * (1 + 1e-6) + 1e-12):
            reasons.append(f"{layer.name}: read-back error exceeds half a level gap")
    return reasons


def plan_latency(assignment: dict[str, str], layers, devices) -> float:
    """Seconds per token, recomputed: compute plus boundary transfers."""
    dev = {d.id: d for d in devices}
    ordered = sorted(layers, key=lambda l: l.order)
    total = sum(l.flops / dev[assignment[l.id]].throughput_flops for l in ordered)
    for a, b in zip(ordered, ordered[1:]):
        da, db = dev[assignment[a.id]], dev[assignment[b.id]]
        if da.id != db.id:
            total += a.activation_bytes / min(da.bandwidth_bytes, db.bandwidth_bytes)
    return total


def check_plan(kind, plan, layers, devices) -> list[str]:
    if not plan.feasible:
        return [f"{kind}: no feasible plan"]
    if set(plan.assignment) != {l.id for l in layers}:
        return [f"{kind}: plan does not cover every layer"]
    used = {d.id: 0 for d in devices}
    for layer in layers:
        used[plan.assignment[layer.id]] += layer.weight_bytes
    reasons = [
        f"{kind}: {d.id} holds {used[d.id]} > {d.memory_bytes} bytes"
        for d in devices if used[d.id] > d.memory_bytes
    ]
    want = plan_latency(plan.assignment, layers, devices)
    if not math.isclose(plan.latency, want, rel_tol=1e-9):
        reasons.append(f"{kind}: plan latency {plan.latency} != recomputed {want}")
    return reasons


def plan_gap(layers, devices, plan) -> float:
    """Plan latency over the sum of per-layer minimum compute times."""
    floor = sum(min(l.flops / d.throughput_flops for d in devices) for l in layers)
    return plan.latency / floor


def check_modelprep(inputs, ref) -> list[str]:
    rng = np.random.default_rng([inputs.seed, 3])
    reasons = check_checkpoint(inputs, ref, rng)
    for (kind, layers, devices), plan in zip(inputs.instances, ref["plans"]):
        reasons += check_plan(kind, plan, layers, devices)
    return reasons
