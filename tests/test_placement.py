"""Tests for affinity construction, the latency model, and both solvers."""

import gc
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from medserve.cli import main as cli_main
from medserve.config import packaged_data
from medserve.placement import (
    DeviceSpec,
    LayerProfile,
    build_affinity,
    estimate_latency,
    solve_placement,
)
from medserve.quantizer import PrecisionPolicy, apply_policy, load_manifest
from oracles import (
    branch_and_bound_placement,
    brute_force_placement,
    greedy_placement,
    row_affinity,
)


def device(idx, memory=10**9, throughput=1e9, bandwidth=1e8):
    return DeviceSpec(id=f"d{idx}", memory_bytes=memory,
                      throughput_flops=throughput, bandwidth_bytes=bandwidth)


def layer(idx, flops=1e9, weight=10**6, activation=10**4):
    return LayerProfile(id=f"l{idx}", order=idx, flops=flops,
                        weight_bytes=weight, activation_bytes=activation)


def random_instance(rng, max_layers=6, max_devices=3):
    n = int(rng.integers(1, max_layers + 1))
    m = int(rng.integers(1, max_devices + 1))
    layers = [
        LayerProfile(
            id=f"l{i}", order=i,
            flops=float(rng.uniform(1e8, 5e9)),
            weight_bytes=int(rng.integers(1, 2 * 10**8)),
            activation_bytes=int(rng.integers(0, 10**7)),
        )
        for i in range(n)
    ]
    devices = [
        DeviceSpec(
            id=f"d{j}",
            memory_bytes=int(rng.integers(10**8, 10**9)),
            throughput_flops=float(rng.uniform(5e8, 5e9)),
            bandwidth_bytes=float(rng.uniform(1e7, 1e9)),
        )
        for j in range(m)
    ]
    return layers, devices


class TestAffinity:
    def test_single_device_all_ones(self):
        aff = build_affinity([layer(0), layer(1)], [device(0)])
        assert np.all(aff == 1.0)

    def test_faster_device_strictly_better(self):
        devs = [device(0, throughput=1e9), device(1, throughput=2e9)]
        aff = build_affinity([layer(0), layer(1, flops=3e9)], devs)
        assert np.all(aff[:, 1] > aff[:, 0])

    def test_hand_case_matches_formula(self):
        layers = [layer(0, flops=2e9), layer(1, flops=4e9)]
        devs = [device(0, throughput=1e9), device(1, throughput=2e9),
                device(2, throughput=4e9)]
        aff = build_affinity(layers, devs)
        for i, l in enumerate(layers):
            times = [l.flops / d.throughput_flops for d in devs]
            lo, hi = min(times), max(times)
            for j in range(3):
                assert aff[i, j] == pytest.approx((hi - times[j]) / (hi - lo))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            layers, devices = random_instance(rng)
            aff = build_affinity(layers, devices)
            assert np.all(aff >= 0.0) and np.all(aff <= 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bit_identical_to_row_loop(self, data):
        # Shared throughputs and zero flops give rows with no spread.
        speeds = st.one_of(st.sampled_from([1e9, 2e9, 3.7e9]), st.floats(5e8, 5e9))
        flops = st.one_of(st.sampled_from([0.0, 1e9, 2.5e9]), st.floats(0.0, 5e9))
        layers = [layer(i, flops=data.draw(flops))
                  for i in range(data.draw(st.integers(1, 6)))]
        devices = [device(j, throughput=data.draw(speeds))
                   for j in range(data.draw(st.integers(1, 4)))]
        times = np.array([[l.flops / d.throughput_flops for d in devices] for l in layers])
        assert build_affinity(layers, devices).tobytes() == row_affinity(times).tobytes()


class TestLatencyModel:
    def test_single_device_no_transfers(self):
        layers = [layer(0, flops=1e9), layer(1, flops=2e9)]
        devs = [device(0, throughput=1e9)]
        assert estimate_latency([0, 0], layers, devs) == pytest.approx(3.0)

    def test_one_boundary_crossing(self):
        layers = [layer(0, flops=1e9, activation=10**6), layer(1, flops=2e9)]
        devs = [device(0, throughput=1e9, bandwidth=1e6),
                device(1, throughput=2e9, bandwidth=2e6)]
        # compute: 1.0 + 1.0; transfer: 1e6 / min(1e6, 2e6) = 1.0
        assert estimate_latency([0, 1], layers, devs) == pytest.approx(3.0)

    def test_device_label_permutation_invariance(self):
        layers = [layer(0), layer(1, flops=2e9), layer(2, flops=5e8)]
        devs = [device(0, throughput=1e9), device(1, throughput=3e9)]
        swapped = [devs[1], devs[0]]
        direct = estimate_latency([0, 1, 0], layers, devs)
        relabeled = estimate_latency([1, 0, 1], layers, swapped)
        assert direct == pytest.approx(relabeled)

    def test_no_layers_cost_nothing(self):
        assert estimate_latency([], [], [device(0)]) == 0.0

    @pytest.mark.parametrize("assignment", [[0], [0, 0, 0]])
    def test_wrong_length_assignment_rejected(self, assignment):
        with pytest.raises(ValueError, match="assignment must cover every layer"):
            estimate_latency(assignment, [layer(0), layer(1)], [device(0)])


class TestSolver:
    def test_single_device_takes_everything(self):
        layers = [layer(i, flops=(i + 1) * 1e9) for i in range(3)]
        devs = [device(0, memory=10**9, throughput=1e9)]
        plan = solve_placement(layers, devs)
        assert plan.feasible
        assert set(plan.assignment.values()) == {"d0"}
        assert plan.latency == pytest.approx(6.0)

    def test_exhaustive_small_case(self):
        rng = np.random.default_rng(1)
        layers, devices = random_instance(rng, max_layers=3, max_devices=2)
        plan = solve_placement(layers, devices, mode="exact")
        best, _ = brute_force_placement(
            layers, sorted(devices, key=lambda d: d.id), estimate_latency
        )
        if best is None:
            assert not plan.feasible
        else:
            assert plan.feasible
            assert plan.latency == pytest.approx(best)

    def test_zero_capacity_infeasible(self):
        layers = [layer(0, weight=100)]
        devs = [DeviceSpec(id="d0", memory_bytes=0, throughput_flops=1e9,
                           bandwidth_bytes=1e8)]
        plan = solve_placement(layers, devs)
        assert not plan.feasible
        assert plan.assignment == {}

    def test_exact_matches_bruteforce_on_300_instances(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 300:
            layers, devices = random_instance(rng)
            devices = sorted(devices, key=lambda d: d.id)
            best, best_assign = brute_force_placement(layers, devices, estimate_latency)
            plan = solve_placement(layers, devices, mode="exact")
            if best is None:
                assert not plan.feasible
            else:
                assert plan.feasible
                assert plan.latency == pytest.approx(best, rel=1e-12)
            checked += 1

    def test_greedy_feasible_and_never_better_than_exact(self):
        rng = np.random.default_rng(3)
        compared = 0
        for _ in range(200):
            layers, devices = random_instance(rng)
            greedy = solve_placement(layers, devices, mode="greedy")
            exact = solve_placement(layers, devices, mode="exact")
            if not greedy.feasible:
                continue
            for dev in devices:
                assert greedy.memory_per_device[dev.id] <= dev.memory_bytes
            assert exact.feasible
            assert greedy.latency >= exact.latency - 1e-12
            compared += 1
        assert compared > 100

    def test_deterministic_replay(self):
        rng = np.random.default_rng(4)
        layers, devices = random_instance(rng, max_layers=5, max_devices=3)
        p1 = solve_placement(layers, devices)
        p2 = solve_placement(layers, devices)
        assert p1 == p2

    def test_tie_breaks_to_lowest_device_id(self):
        # two identical devices: every assignment of all layers to one device
        # has equal latency; d0 must win
        layers = [layer(0), layer(1)]
        devs = [device(1), device(0)]  # intentionally unsorted input
        plan = solve_placement(layers, devs, mode="exact")
        assert plan.feasible
        assert set(plan.assignment.values()) == {"d0"}

    def test_greedy_mode_for_large_instances(self):
        rng = np.random.default_rng(5)
        layers = [
            LayerProfile(id=f"l{i}", order=i, flops=1e9,
                         weight_bytes=10**6, activation_bytes=10**3)
            for i in range(25)
        ]
        devices = [device(j, memory=10**8) for j in range(4)]
        plan = solve_placement(layers, devices)
        assert plan.mode == "greedy"
        assert plan.feasible

def greedy_instance(data):
    """Up to 12 layers on 1-4 devices. Shared throughputs tie affinities,
    zero-memory devices and zero-byte layers test the room check at its
    edge, and small memories fill devices part-way through the layers."""
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 12))
    speeds = st.one_of(st.sampled_from([1e9, 3e9]), st.floats(5e8, 5e9))
    layers = [
        LayerProfile(id=f"l{i}", order=i,
                     flops=data.draw(st.one_of(st.sampled_from([0.0, 1e9]), st.floats(0.0, 5e9))),
                     weight_bytes=data.draw(st.integers(0, 4)), activation_bytes=10**4)
        for i in range(n)
    ]
    devices = [
        DeviceSpec(id=f"d{j}", memory_bytes=data.draw(st.integers(0, 14)),
                   throughput_flops=data.draw(speeds), bandwidth_bytes=1e8)
        for j in range(m)
    ]
    return layers, devices


class TestGreedySolver:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_greedy_oracle(self, data):
        layers, devices = greedy_instance(data)
        plan = solve_placement(layers, devices, mode="greedy")
        reference = greedy_placement(layers, devices)
        if reference is None:
            assert not plan.feasible and plan.assignment == {}
        else:
            assert plan.feasible and plan.mode == "greedy"
            assert plan.assignment == {
                layers[i].id: devices[d].id for i, d in enumerate(reference)
            }
            assert plan.latency == estimate_latency(reference, layers, devices)

    @pytest.mark.parametrize("memories,speeds,weights,want", [
        # equal throughput: every affinity is 1.0, so the lowest id with room
        ([2, 2, 2], [1e9, 1e9, 1e9], [1, 1, 1, 1, 1], "00112"),
        # the fastest device holds nothing; a zero-byte layer still fits it
        ([0, 9], [4e9, 1e9], [1, 0, 2], "101"),
        # the fast device fills part-way through and the rest spill over
        ([3, 10], [4e9, 1e9], [1, 1, 1, 1, 1], "00011"),
        # the first layer's greedy choice strands the last, though l0 on d1,
        # l1 on d0 and l2 on d1 would fit: no plan
        ([2, 3], [4e9, 1e9], [1, 2, 2], None),
    ])
    def test_hand_cases(self, memories, speeds, weights, want):
        layers = [layer(i, weight=w) for i, w in enumerate(weights)]
        devices = [device(j, memory=mem, throughput=speed)
                   for j, (mem, speed) in enumerate(zip(memories, speeds))]
        plan = solve_placement(layers, devices, mode="greedy")
        reference = greedy_placement(layers, devices)
        if want is None:
            assert reference is None and not plan.feasible
        else:
            assert "".join(map(str, reference)) == want
            assert plan.assignment == {f"l{i}": f"d{d}" for i, d in enumerate(map(int, want))}


def window_7b(start, count):
    """A window of the packaged 7B manifest on two devices holding 0.62 of
    its bytes each: quantized bytes, 2 x params flops, 2 x hidden activations."""
    manifest = load_manifest(packaged_data("manifest_7b.json"))
    plan = apply_policy(manifest, PrecisionPolicy())
    hidden = manifest.layers[0].shape[-1]
    layers = [
        LayerProfile(id=lp.name, order=i, flops=2.0 * lp.params,
                     weight_bytes=lp.total_bytes, activation_bytes=2 * hidden)
        for i, lp in enumerate(plan.layers[start:start + count])
    ]
    part = sum(l.weight_bytes for l in layers)
    devices = [
        DeviceSpec("acc0", int(part * 0.62), 3.6e11, 1.0e9),
        DeviceSpec("acc1", int(part * 0.62), 3.0e11, 1.0e9),
    ]
    return layers, devices


def dyadic_instance(draw_int, n, m, identical_devices=False):
    """Every flop count, throughput, bandwidth and activation size is a small
    multiple of a power of two, so every latency sum is exact in float."""
    layers = [
        LayerProfile(id=f"l{i}", order=i, flops=float(draw_int(0, 4) * 2**30),
                     weight_bytes=draw_int(1, 4),
                     activation_bytes=draw_int(0, 3) * 2**18)
        for i in range(n)
    ]
    specs = [(draw_int(3, 14), 2.0 ** draw_int(29, 31), 2.0 ** draw_int(20, 21))
             for _ in range(m)]
    if identical_devices:
        specs = specs[:1] * m
    devices = [DeviceSpec(f"d{j}", *spec) for j, spec in enumerate(specs)]
    return layers, devices


def forward_latency(assignment, layers, devices):
    """The exact solver's objective, written out independently: per layer,
    compute plus the transfer into it, summed in layer order. estimate_latency
    sums the same steps in the same order, so the two agree to the bit."""
    total = 0.0
    for i, d in enumerate(assignment):
        step = layers[i].flops / devices[d].throughput_flops
        if i and assignment[i - 1] != d:
            p = assignment[i - 1]
            step += layers[i - 1].activation_bytes / min(
                devices[p].bandwidth_bytes, devices[d].bandwidth_bytes)
        total += step
    return total


def lexicographic_optimum(layers, devices, estimate=estimate_latency):
    _, best = brute_force_placement(layers, devices, estimate)
    return None if best is None else {layers[i].id: devices[d].id for i, d in enumerate(best)}


def near_tie_instance(data):
    """Up to 10 layers on 1-4 devices. Small weights and memories make
    different prefixes meet in the same (layer, device, memory left) state;
    repeated values make near-ties."""
    def value(lo, hi, common):
        return data.draw(st.one_of(st.sampled_from(common), st.floats(lo, hi)))

    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, {1: 10, 2: 10, 3: 7, 4: 5}[m]))
    layers = [
        LayerProfile(id=f"l{i}", order=i, flops=value(0.0, 5e9, [1e9, 3e9, 7e8]),
                     weight_bytes=data.draw(st.integers(1, 4)),
                     activation_bytes=data.draw(st.sampled_from([0, 10**4, 10**8])))
        for i in range(n)
    ]
    devices = [
        DeviceSpec(id=f"d{j}", memory_bytes=data.draw(st.integers(0, 14)),
                   throughput_flops=value(5e8, 5e9, [1e9, 3e9]),
                   bandwidth_bytes=value(1e7, 1e9, [1e8, 3e8]))
        for j in range(m)
    ]
    return layers, devices


class TestExactSolver:
    @pytest.mark.parametrize("start", [1, 1 + 7 * 13, 1 + 7 * 27])
    def test_matches_bb_oracle_on_7b_windows(self, start):
        layers, devices = window_7b(start, 24)
        plan = solve_placement(layers, devices)
        reference = branch_and_bound_placement(layers, devices)
        assert plan.mode == "exact"
        assert plan.assignment == {
            layers[i].id: devices[d].id for i, d in enumerate(reference)
        }
        assert plan.latency == estimate_latency(reference, layers, devices)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_up_to_10_layers(self, data):
        layers, devices = near_tie_instance(data)
        best, _ = brute_force_placement(layers, devices, estimate_latency)
        plan = solve_placement(layers, devices, mode="exact")
        if best is None:
            assert not plan.feasible
        else:
            assert plan.feasible
            assert plan.latency == pytest.approx(best, rel=1e-12)
            assert plan.assignment == lexicographic_optimum(layers, devices, forward_latency)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reports_brute_force_optimum_to_the_bit(self, data):
        # The plan's latency is the sum the search minimized, and brute force
        # ranks by the same estimate_latency, so both agree exactly.
        layers, devices = near_tie_instance(data)
        best, _ = brute_force_placement(layers, devices, estimate_latency)
        plan = solve_placement(layers, devices, mode="exact")
        assert plan.feasible == (best is not None)
        if best is not None:
            assert plan.latency == best
            assert plan.assignment == lexicographic_optimum(layers, devices)

    def test_near_tie_regression(self):
        # Summing every compute term before the transfers made brute force's
        # optimum here 5.619047619047619 against the plan's 5.6190476190476195,
        # and brute force chose a different assignment.
        layers = [LayerProfile(f"l{i}", i, *spec) for i, spec in enumerate([
            (3e9, 2, 10**8), (1e9, 3, 0), (1e9, 4, 10**8), (3e9, 4, 0), (2e9, 2, 10**4)])]
        devices = [DeviceSpec(f"d{j}", *spec) for j, spec in enumerate([
            (7, 3e8, 1e8), (14, 7e9, 1e8), (8, 3e8, 1e8)])]
        best, _ = brute_force_placement(layers, devices, estimate_latency)
        plan = solve_placement(layers, devices, mode="exact")
        assert plan.latency == best
        assert plan.assignment == lexicographic_optimum(layers, devices)
        assert plan.assignment == {"l0": "d1", "l1": "d1", "l2": "d0", "l3": "d1", "l4": "d1"}

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_exact_ties_break_lexicographically(self, data, identical):
        m = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 7))
        layers, devices = dyadic_instance(
            lambda lo, hi: data.draw(st.integers(lo, hi)), n, m, identical)
        plan = solve_placement(layers, devices, mode="exact")
        assert plan.assignment == (lexicographic_optimum(layers, devices) or {})

    def test_three_identical_devices_tie_to_lowest_ids(self):
        layers = [layer(i, flops=2.0**30, weight=2, activation=2**18) for i in range(5)]
        devices = [DeviceSpec(id=f"d{j}", memory_bytes=4, throughput_flops=2.0**30,
                              bandwidth_bytes=2.0**20) for j in (2, 0, 1)]
        plan = solve_placement(layers, devices, mode="exact")
        assert plan.assignment == {"l0": "d0", "l1": "d0", "l2": "d1", "l3": "d1",
                                   "l4": "d2"}
        assert plan.assignment == lexicographic_optimum(layers, sorted(devices, key=lambda d: d.id))

    @pytest.mark.parametrize("layer_specs, device_specs", [
        ([(1e9, 3, 0), (3e9, 1, 0), (1e9, 2, 0), (1e9, 4, 10**4)],
         [(6, 3e8, 1e8), (7, 3e9, 3e8)]),
        ([(3e9, 2, 3 * 10**4), (7e8, 1, 3 * 10**4), (3e9, 4, 10**8), (1e8, 4, 3 * 10**4),
          (1e8, 2, 0)],
         [(11, 7e9, 3e8), (10, 3e8, 1e8), (5, 7e9, 1e8)]),
    ])
    def test_tied_optimum_survives_bound_drift(self, layer_specs, device_specs):
        # A bound summed backward in float rounds above the optimum's forward
        # path sum here: compared with no margin it cuts the optimum and
        # returns a plan one ulp dearer or lexicographically larger.
        layers = [LayerProfile(f"l{i}", i, *spec) for i, spec in enumerate(layer_specs)]
        devices = [DeviceSpec(f"d{j}", *spec) for j, spec in enumerate(device_specs)]
        plan = solve_placement(layers, devices, mode="exact")
        assert plan.assignment == lexicographic_optimum(layers, devices, forward_latency)

    def test_memo_freed_on_return(self):
        layers, devices = window_7b(1, 24)
        gc.collect()
        gc.disable()
        try:
            solve_placement(layers, devices, mode="exact")
            assert gc.collect() == 0  # nothing left to the cycle collector
        finally:
            gc.enable()

    def test_1200_layers_on_one_device(self):
        # deeper than the interpreter's default recursion limit
        layers = [layer(i, weight=10) for i in range(1200)]
        plan = solve_placement(layers, [device(0, memory=12_000)], mode="exact")
        assert plan.feasible
        assert set(plan.assignment.values()) == {"d0"}
        assert len(plan.assignment) == 1200
        assert plan.latency == estimate_latency([0] * 1200, layers, [device(0)])

    def test_cli_exact_40_layer_window_under_a_second(self, tmp_path, capsys):
        layers, devices = window_7b(1, 40)
        lpath, dpath = tmp_path / "layers.json", tmp_path / "devices.json"
        lpath.write_text(json.dumps([vars(l) for l in layers]))
        dpath.write_text(json.dumps([vars(d) for d in devices]))
        started = time.perf_counter()
        code = cli_main(["place", "--layers", str(lpath), "--devices", str(dpath),
                         "--mode", "exact", "--json"])
        elapsed = time.perf_counter() - started
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] and doc["mode"] == "exact"
        assert len(doc["assignment"]) == 40
        assert elapsed < 1.0


def assignment_indices(plan, layers, devices):
    """plan.assignment as estimate_latency takes it: per layer in order, the
    index of its device in devices as given."""
    index = {d.id: j for j, d in enumerate(devices)}
    return [index[plan.assignment[l.id]] for l in sorted(layers, key=lambda l: l.order)]


class TestInputOrder:
    """solve_placement orders the layers itself and ranks devices by id, so
    the order of either list must not matter, and a plan's latency is
    estimate_latency of its own assignment."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([near_tie_instance, greedy_instance]),
           st.sampled_from(["exact", "greedy", "auto"]))
    def test_shuffled_lists_give_the_same_plan(self, data, instance, mode):
        layers, devices = instance(data)
        shuffled_layers = data.draw(st.permutations(layers))
        shuffled_devices = data.draw(st.permutations(devices))
        plan = solve_placement(layers, devices, mode=mode)
        shuffled = solve_placement(shuffled_layers, shuffled_devices, mode=mode)
        assert shuffled.feasible == plan.feasible and shuffled.mode == plan.mode
        assert shuffled.assignment == plan.assignment
        assert shuffled.latency.hex() == plan.latency.hex()
        assert shuffled.memory_per_device == plan.memory_per_device
        if plan.feasible:
            assert list(shuffled.assignment) == [l.id for l in layers]
            indices = assignment_indices(shuffled, shuffled_layers, shuffled_devices)
            assert estimate_latency(indices, shuffled_layers, shuffled_devices) == plan.latency

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_7b_window_latency_is_estimate_of_assignment(self, mode):
        layers, devices = window_7b(1 + 7 * 5, 24)
        plan = solve_placement(layers[::-1], devices[::-1], mode=mode)
        assert plan.feasible and list(plan.assignment) == [l.id for l in layers]
        indices = assignment_indices(plan, layers, devices)
        assert plan.latency == estimate_latency(indices, layers, devices)


class TestPlaceInputTypes:
    """medserve place takes integer fields as JSON integers and float fields
    as JSON numbers; anything else exits 3 naming the file, entry and key."""

    def run(self, tmp_path, layers, devices):
        lpath, dpath = tmp_path / "layers.json", tmp_path / "devices.json"
        lpath.write_text(json.dumps(layers))
        dpath.write_text(json.dumps(devices))
        return cli_main(["place", "--layers", str(lpath), "--devices", str(dpath), "--json"])

    @pytest.mark.parametrize("doc,key,value,why", [
        ("layers", "order", 1.7, "1.7 is not a JSON integer"),
        ("layers", "weight_bytes", 10.9, "10.9 is not a JSON integer"),
        ("layers", "weight_bytes", True, "True is not a JSON integer"),
        ("layers", "activation_bytes", "8", "'8' is not a JSON integer"),
        ("layers", "activation_bytes", 8e9, "8000000000.0 is not a JSON integer"),
        ("layers", "flops", "1e9", "'1e9' is not a JSON number"),
        ("layers", "flops", False, "False is not a JSON number"),
        ("devices", "memory_bytes", 11.99, "11.99 is not a JSON integer"),
        ("devices", "throughput_flops", True, "True is not a JSON number"),
        ("devices", "bandwidth_bytes", None, "None is not a JSON number"),
    ])
    def test_mistyped_field_exits_three(self, tmp_path, capsys, doc, key, value, why):
        docs = {"layers": [vars(layer(0, weight=4)), vars(layer(1, weight=4))],
                "devices": [vars(device(0, memory=12))]}
        docs[doc][1 if doc == "layers" else 0][key] = value
        assert self.run(tmp_path, docs["layers"], docs["devices"]) == 3
        entry = 1 if doc == "layers" else 0
        assert f"{doc}.json: entry {entry} {key!r}: " in (err := capsys.readouterr().err)
        assert why in err

    def test_flops_beyond_float_range_exits_three(self, tmp_path, capsys):
        layers = [vars(layer(0))]
        layers[0]["flops"] = 10**400
        assert self.run(tmp_path, layers, [vars(device(0))]) == 3
        assert "entry 0 'flops': 1000" in (err := capsys.readouterr().err)
        assert err.rstrip().endswith("is beyond the float range")

    def test_truncated_fields_get_no_plan(self, tmp_path, capsys):
        # cast with int(), these were 10 + 1 weight bytes on an 11-byte
        # device: a feasible plan
        layers = [{"id": "l0", "order": 0, "flops": 1e9, "weight_bytes": 10.9,
                   "activation_bytes": 8},
                  {"id": "l1", "order": 1.7, "flops": 1e9, "weight_bytes": True,
                   "activation_bytes": "8"}]
        devices = [{"id": "d0", "memory_bytes": 11.99, "throughput_flops": 1e9,
                    "bandwidth_bytes": 1e8}]
        assert self.run(tmp_path, layers, devices) == 3
        assert "entry 0 'weight_bytes': 10.9 is not a JSON integer" in capsys.readouterr().err

    def test_integer_rates_and_flops_are_numbers(self, tmp_path, capsys):
        layers = [vars(layer(i)) for i in range(3)]
        devices = [vars(device(j, throughput=(j + 1) * 1e9)) for j in range(2)]
        assert self.run(tmp_path, layers, devices) == 0
        as_floats = capsys.readouterr().out
        for doc in layers + devices:
            for key in ("flops", "throughput_flops", "bandwidth_bytes"):
                if key in doc:
                    doc[key] = int(doc[key])
        assert self.run(tmp_path, layers, devices) == 0
        assert capsys.readouterr().out == as_floats


class TestProfileValidation:
    @pytest.mark.parametrize("flops", [float("inf"), float("nan")])
    def test_non_finite_flops_rejected(self, flops):
        with pytest.raises(ValueError, match="finite"):
            layer(0, flops=flops)

    @pytest.mark.parametrize("field", ["throughput", "bandwidth"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_device_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            device(0, **{field: value})


class TestDuplicateIds:
    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError, match="duplicate device id 'd0'"):
            solve_placement([layer(0, weight=100), layer(1, weight=100)],
                            [device(0, memory=100), device(0, memory=100)])

    def test_duplicate_layer_rejected(self):
        layers = [LayerProfile("a", 0, 1e9, 1, 1), LayerProfile("a", 1, 1e9, 1, 1)]
        with pytest.raises(ValueError, match="duplicate layer id 'a'"):
            solve_placement(layers, [device(0)], mode="greedy")

    def test_cli_exits_three_naming_duplicate(self, tmp_path, capsys):
        lpath, dpath = tmp_path / "layers.json", tmp_path / "devices.json"
        lpath.write_text(json.dumps([vars(layer(0)), vars(layer(1))]))
        dpath.write_text(json.dumps([vars(device(0)), vars(device(0))]))
        assert cli_main(["place", "--layers", str(lpath), "--devices", str(dpath)]) == 3
        assert "duplicate device id 'd0'" in capsys.readouterr().err
