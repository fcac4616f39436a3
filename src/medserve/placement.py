"""Layer-to-device assignment under memory constraints.

The exact solver runs depth-first branch-and-bound over assignments,
pruning on memory, on a transfer-aware lower bound and on memoized state
dominance. A greedy fallback walks layers in order, giving each the first
device with room in its affinity order (a per-layer ranking by compute
speed, lowest device index first among equals). The latency model sums one
step per layer in layer order, compute plus a transfer where the device
changes; the exact solver minimizes that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_MAX_LAYERS = 20
EXACT_MAX_DEVICES = 3


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    memory_bytes: int
    throughput_flops: float
    bandwidth_bytes: float

    def __post_init__(self):
        if self.memory_bytes < 0:
            raise ValueError("memory must be >= 0")
        if self.throughput_flops <= 0:
            raise ValueError("throughput must be positive")
        if self.bandwidth_bytes <= 0:
            raise ValueError("bandwidth must be positive")
        if not (math.isfinite(self.throughput_flops) and math.isfinite(self.bandwidth_bytes)):
            raise ValueError("throughput and bandwidth must be finite")


@dataclass(frozen=True)
class LayerProfile:
    id: str
    order: int
    flops: float
    weight_bytes: int
    activation_bytes: int

    def __post_init__(self):
        if self.flops < 0 or self.weight_bytes < 0 or self.activation_bytes < 0:
            raise ValueError("layer profile fields must be non-negative")
        if not math.isfinite(self.flops):
            raise ValueError("layer flops must be finite")


@dataclass(frozen=True)
class PlacementPlan:
    """Layer -> device assignment with feasibility and predicted latency."""

    assignment: dict[str, str]
    feasible: bool
    latency: float
    memory_per_device: dict[str, int]
    mode: str  # "exact" | "greedy"


def _ordered(layers) -> list[LayerProfile]:
    ordered = sorted(layers, key=lambda l: l.order)
    if [l.order for l in ordered] != list(range(len(ordered))):
        raise ValueError("layer order indices must be contiguous from 0")
    return ordered


def _check_unique_ids(kind: str, items) -> None:
    # A plan maps ids, so a shared id would merge two layers or two devices.
    seen = set()
    for item in items:
        if item.id in seen:
            raise ValueError(f"duplicate {kind} id {item.id!r}")
        seen.add(item.id)


def build_affinity(layers, devices) -> np.ndarray:
    """Per-layer min-max scaled speed scores in [0, 1]; higher is better.

    A layer's fastest device scores 1.0 and its slowest 0.0; with a single
    candidate (or equal times) every score is 1.0.
    """
    layers = _ordered(layers)
    if not layers or not devices:
        raise ValueError("need at least one layer and one device")
    # one broadcast division: the same IEEE quotient as flops / throughput
    times = (np.array([layer.flops for layer in layers], dtype=np.float64)[:, None]
             / np.array([dev.throughput_flops for dev in devices], dtype=np.float64))
    slowest = times.max(axis=1, keepdims=True)
    spread = slowest - times.min(axis=1, keepdims=True)
    return np.divide(slowest - times, spread, out=np.ones_like(times), where=spread > 0)


def _step_cost(layers, devices, i: int, p: int, d: int) -> float:
    """Seconds for layer i on device d after layer i-1 on device p.

    Layer i's compute on d, plus, when p != d, layer i-1's activation bytes
    over the slower of the two links. Layer 0 is passed with p == d.
    """
    cost = layers[i].flops / devices[d].throughput_flops
    if p != d:
        cost += layers[i - 1].activation_bytes / min(
            devices[p].bandwidth_bytes, devices[d].bandwidth_bytes)
    return cost


def _path_latency(assignment: list[int], layers, devices) -> float:
    """Each layer's _step_cost, summed in layer order; layers are ordered."""
    total = 0.0
    for i, d in enumerate(assignment):
        total += _step_cost(layers, devices, i, assignment[i - 1] if i else d, d)
    return total


def estimate_latency(assignment: list[int], layers, devices) -> float:
    """Seconds per token: each layer's _step_cost, summed in layer order.

    assignment[i] is the device index for the layer with order index i.
    """
    layers = _ordered(layers)
    if len(assignment) != len(layers):
        raise ValueError("assignment must cover every layer")
    return _path_latency(assignment, layers, devices)


def _plan(solution: tuple[list[int], float] | None, layers, devices,
          mode: str) -> PlacementPlan:
    """The plan of a solver's (assignment, latency), or an infeasible one;
    layers are ordered."""
    if solution is None:
        return PlacementPlan(
            assignment={}, feasible=False, latency=math.inf,
            memory_per_device={d.id: 0 for d in devices}, mode=mode,
        )
    assignment, latency = solution
    usage = {d.id: 0 for d in devices}
    for layer, d in zip(layers, assignment):
        usage[devices[d].id] += layer.weight_bytes
    return PlacementPlan(
        assignment={layer.id: devices[d].id for layer, d in zip(layers, assignment)},
        feasible=True,
        latency=latency,
        memory_per_device=usage,
        mode=mode,
    )


def _solve_exact(layers, devices) -> tuple[list[int], float] | None:
    """Exact branch-and-bound over per-layer device choices; returns the
    best assignment and its cost, or None when nothing fits.

    A path's cost is the forward sum of its _step_cost steps, which is
    estimate_latency of the path to the bit. Two rules prune:

    - Bound. lb[i][p] is the cheapest cost of layers i..n-1 given layer i-1
      on device p, counting compute and transfers but not memory. A child
      is cut when its cost plus its bound exceeds the incumbent by more
      than a relative 1e-12, which covers the ulp drift between the
      backward bound sum and the forward path sum.
    - Dominance. A node's state is (layer, previous device, memory left on
      every device); it is cut when an earlier prefix reached the same
      state at a cost no higher. The same completion then costs no more
      after the earlier prefix, because float addition is monotone.

    Children are visited in device-index order, so leaves arrive in
    lexicographic order and every earlier prefix is lexicographically
    smaller: neither rule can cut the lexicographically smallest optimal
    plan, and the first optimum found is it. Equal-latency plans thus
    resolve to the lowest device index tuple, i.e. lowest device id first.
    """
    n, m = len(layers), len(devices)
    weights = [layer.weight_bytes for layer in layers]
    step = [None] + [  # step[i][p][d]
        [[_step_cost(layers, devices, i, p, d) for d in range(m)] for p in range(m)]
        for i in range(1, n)
    ]
    lb = [[0.0] * m for _ in range(n + 1)]
    for i in range(n - 1, 0, -1):
        lb[i] = [min(s + rest for s, rest in zip(step[i][p], lb[i + 1])) for p in range(m)]

    best_cost = cutoff = math.inf  # cutoff: best_cost with the 1e-12 margin
    best_assign: list[int] | None = None
    remaining = [d.memory_bytes for d in devices]
    seen: dict[tuple, float] = {}
    # Depth-first over an explicit stack, one frame per layer: assign[:i] is
    # the current prefix, cost[i] its path cost, row[i] the step costs of
    # layer i after it, and tried[i] the next device to try at layer i, so
    # children are visited in device-index order as a recursion would.
    assign = [0] * n
    cost = [0.0] * n
    row = [[_step_cost(layers, devices, 0, d, d) for d in range(m)]] * n
    tried = [0] * n
    i = 0
    while i >= 0:
        d = tried[i]
        if d == m:  # every child of this prefix is done: backtrack
            i -= 1
            if i >= 0:
                remaining[assign[i]] += weights[i]
            continue
        tried[i] = d + 1
        w = weights[i]
        if w > remaining[d]:
            continue
        child = cost[i] + row[i][d]
        if child + lb[i + 1][d] > cutoff:
            continue
        remaining[d] -= w
        key = (i, d, tuple(remaining))
        if seen.get(key, math.inf) > child:
            seen[key] = child
            assign[i] = d
            if i + 1 < n:  # descend; remaining[d] stays taken until backtrack
                i += 1
                cost[i], row[i], tried[i] = child, step[i][d], 0
                continue
            if child < best_cost:
                best_cost, best_assign = child, list(assign)
                cutoff = best_cost * (1 + 1e-12)
        remaining[d] += w
    return None if best_assign is None else (best_assign, best_cost)


def _solve_greedy(layers, devices, affinity) -> tuple[list[int], float] | None:
    """Each layer in order takes the first device with room in its affinity
    order: highest affinity first, lowest device index among equals.
    Returns the assignment and its latency, or None when a layer fits
    nowhere."""
    assign = []
    remaining = [d.memory_bytes for d in devices]
    preferences = np.argsort(-affinity, axis=1, kind="stable").tolist()
    for layer, order in zip(layers, preferences):
        w = layer.weight_bytes
        for d in order:
            if w <= remaining[d]:
                break
        else:
            return None
        assign.append(d)
        remaining[d] -= w
    return assign, _path_latency(assign, layers, devices)


def solve_placement(layers, devices, mode: str = "auto") -> PlacementPlan:
    """Assign every layer to a device, minimizing predicted latency.

    mode "auto" runs the exact solver on desk-scale instances (at most
    EXACT_MAX_LAYERS layers or EXACT_MAX_DEVICES devices) and greedy
    otherwise. Infeasible instances yield a plan with feasible=False, never
    a silent partial assignment. The layers are ordered and checked here
    once; every private step after this takes them in order.
    """
    layers = _ordered(layers)
    # Index order follows id order so index tie-breaks realize the
    # documented lowest-device-id rule.
    devices = sorted(devices, key=lambda d: d.id)
    if not layers or not devices:
        raise ValueError("need at least one layer and one device")
    _check_unique_ids("layer", layers)
    _check_unique_ids("device", devices)
    if mode not in ("auto", "exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")

    total_weights = sum(l.weight_bytes for l in layers)
    if total_weights > sum(d.memory_bytes for d in devices):
        return _plan(None, layers, devices, mode if mode != "auto" else "exact")

    if mode == "auto":
        mode = (
            "exact"
            if len(layers) <= EXACT_MAX_LAYERS or len(devices) <= EXACT_MAX_DEVICES
            else "greedy"
        )
    if mode == "exact":
        return _plan(_solve_exact(layers, devices), layers, devices, "exact")
    # build_affinity orders and checks the layers again: it is public
    affinity = build_affinity(layers, devices)
    return _plan(_solve_greedy(layers, devices, affinity), layers, devices, "greedy")
