"""Tests for NF4/INT8 quantization, packing, policy planning, and the
checkpoint container."""

import hashlib
import importlib.util
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from medserve.quantizer import (
    _NF4_THRESHOLDS,
    _as_float,
    _TILE_VALUES,
    CHECKPOINT_MAGIC,
    NF4_LEVELS,
    LayerClass,
    LayerSpec,
    ModelManifest,
    PrecisionPolicy,
    QuantizedTensor,
    apply_policy,
    dequantize,
    load_manifest,
    nf4_levels,
    pack_nf4,
    quant_error_report,
    quantize_tensor,
    read_checkpoint,
    synthetic_7b_manifest,
    write_checkpoint,
)
from oracles import int8_codes, nearest_level_codes, unpack_nf4

REPO_ROOT = Path(__file__).resolve().parent.parent


def quantize_one_block(values, kind):
    """Quantize values as a single block: (codes, scale, dequantized)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    qt = quantize_tensor(values, kind, block_size=values.size)
    if kind == "nf4":
        codes = unpack_nf4(qt.data, values.size)
    else:
        codes = np.frombuffer(qt.data, dtype=np.int8)
    return codes, float(qt.scales[0]), dequantize(qt)


def _tie_values() -> list[float]:
    """Values within a few ulps of each NF4 midpoint that sit at exactly equal
    float64 distance from both neighbouring levels."""
    levels = nf4_levels()
    ties = []
    for lo, hi in zip(levels[:-1], levels[1:]):
        v = (lo + hi) / 2
        for _ in range(40):
            v = np.nextafter(v, -2.0)
        for _ in range(80):
            if abs(v - lo) == abs(v - hi):
                ties.append(float(v))
            v = np.nextafter(v, 2.0)
    return ties


TIE_VALUES = _tie_values()


class TestNF4Levels:
    def test_span_and_zero(self):
        levels = nf4_levels()
        assert levels[0] == -1.0
        assert levels[15] == 1.0
        assert 0.0 in levels

    def test_strictly_increasing(self):
        levels = nf4_levels()
        assert np.all(np.diff(levels) > 0)

    def test_frozen_table_matches_generator_script(self):
        mpmath = pytest.importorskip("mpmath")
        spec = importlib.util.spec_from_file_location(
            "gen_nf4", REPO_ROOT / "scripts" / "generate_nf4_levels.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        regenerated = [float(v) for v in module.nf4_table()]
        assert len(regenerated) == 16
        assert list(NF4_LEVELS) == regenerated


def _closer_to_lower(lo: float, hi: float, x: float) -> bool:
    return abs(lo - x) <= abs(hi - x)


def _boundary_values() -> list[float]:
    """Every level, every midpoint and every threshold, each +-1 ulp, and
    +-0.0 and +-1.0."""
    levels = list(NF4_LEVELS)
    centres = levels + [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]
    centres += [float(t) for t in _NF4_THRESHOLDS]
    values = [0.0, -0.0, 1.0, -1.0]
    for c in centres:
        values += [math.nextafter(c, -2.0), c, math.nextafter(c, 2.0)]
    return [v for v in values if -1.0 <= v <= 1.0]


BOUNDARY_VALUES = _boundary_values()


class TestNF4Thresholds:
    def test_rederived_by_brute_force(self):
        levels = list(NF4_LEVELS)
        assert len(_NF4_THRESHOLDS) == 15
        for i, (lo, hi) in enumerate(zip(levels, levels[1:])):
            # scan 200 ulps each side of the midpoint; the flip must lie inside
            x = (lo + hi) / 2
            for _ in range(200):
                x = math.nextafter(x, lo)
            window = []
            for _ in range(401):
                window.append(x)
                x = math.nextafter(x, hi)
            assert _closer_to_lower(lo, hi, window[0])
            assert not _closer_to_lower(lo, hi, window[-1])
            brute = max(v for v in window if _closer_to_lower(lo, hi, v))
            assert _NF4_THRESHOLDS[i] == brute
            assert _closer_to_lower(lo, hi, brute)
            assert not _closer_to_lower(lo, hi, math.nextafter(brute, 2.0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(BOUNDARY_VALUES), min_size=1, max_size=80),
           st.integers(-60, 60))
    @example(BOUNDARY_VALUES, 0)
    def test_codes_match_oracle_at_boundaries(self, values, exponent):
        # a leading +-1 pins the absmax, and a power-of-two scale divides out
        # exactly, so the scaled block is the sampled values themselves
        block = np.array([1.0] + values) * 2.0 ** exponent
        codes, _, _ = quantize_one_block(block, "nf4")
        assert list(codes) == nearest_level_codes([1.0] + values, list(NF4_LEVELS))


class TestBlockQuantization:
    def test_constant_block_hits_top_level(self):
        codes, scale, restored = quantize_one_block([2.5, 2.5, 2.5], "nf4")
        assert scale == 2.5
        assert list(codes) == [15, 15, 15]
        assert np.allclose(restored, 2.5)

    def test_zero_block(self):
        codes, scale, restored = quantize_one_block(np.zeros(4), "nf4")
        assert scale == 0.0
        assert np.all(restored == 0.0)

    def test_negative_absmax_and_half(self):
        codes, scale, _ = quantize_one_block([-2.0, 1.0], "nf4")
        assert scale == 2.0
        assert codes[0] == 0  # -2 / 2 = -1.0 exactly, the bottom level
        expected = nearest_level_codes([0.5], list(nf4_levels()))[0]
        assert codes[1] == expected

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(10)
        levels = list(nf4_levels())
        for _ in range(50):
            block = rng.normal(size=int(rng.integers(1, 65)))
            codes, _, _ = quantize_one_block(block, "nf4")
            # codes come from the float64 absmax; the stored scale is float32
            expected = nearest_level_codes(list(block / np.abs(block).max()), levels)
            assert list(codes) == expected

    def test_int8_zeros(self):
        codes, scale, _ = quantize_one_block(np.zeros(3), "int8")
        assert scale == 0.0
        assert np.all(codes == 0)

    def test_int8_absmax_is_127(self):
        codes, scale, restored = quantize_one_block([-1.0, 0.5, 1.0], "int8")
        assert scale == 1.0
        assert codes[0] == -127
        assert codes[2] == 127
        assert codes[1] in (63, 64)
        err = np.abs(restored - np.array([-1.0, 0.5, 1.0]))
        assert np.all(err <= scale / 254 + 1e-12)

    def test_int8_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            block = rng.normal(size=int(rng.integers(1, 33)))
            codes, _, _ = quantize_one_block(block, "int8")
            scale = np.abs(block).max()
            expected = int8_codes(list(block), scale)
            # np.round is banker's rounding; exact .5 boundaries may differ by
            # one code with identical error, so compare reconstruction error.
            ours = np.abs(codes * scale / 127.0 - block)
            oracle = np.abs(np.array(expected) * scale / 127.0 - block)
            assert np.all(ours <= oracle + 1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.array([1.0, np.inf]), "nf4")

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_bad_block_size_rejected(self, block_size):
        with pytest.raises(ValueError, match="block size"):
            quantize_tensor(np.ones(3), "nf4", block_size)

    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    @pytest.mark.parametrize("values,dtype", [
        pytest.param(np.array([1.0 + 2.0j, 3.0j]), "complex128", id="complex"),
        pytest.param(np.array(["1.5", "2"]), "<U3", id="text"),
        pytest.param(np.array([1.0, None]), "object", id="object"),
    ])
    def test_non_real_dtype_rejected(self, kind, values, dtype):
        with pytest.raises(ValueError, match=f"dtype {dtype}"):
            quantize_tensor(values, kind)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.int64])
    def test_bool_and_integer_quantized_as_float64(self, dtype):
        x = np.array([3, 0, 1, 2, 7], dtype=dtype)
        for kind in ("nf4", "int8"):
            ours = quantize_tensor(x, kind, 2)
            want = quantize_tensor(x.astype(np.float64), kind, 2)
            assert ours.data == want.data
            assert ours.scales.tobytes() == want.scales.tobytes()

    def test_absmax_beyond_float32_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            quantize_tensor(np.array([1e39]), "int8")
        with pytest.raises(ValueError, match="float32"):
            quantize_tensor(np.array([0.5, -1e39, 2.0]), "nf4", block_size=2)
        quantize_tensor(np.array([float(np.finfo(np.float32).max)]), "nf4")


@st.composite
def blocked_tensors(draw):
    """(tensor, block_size) with random shape and block size, optional all-zero
    blocks, short tail blocks, and values at exact NF4 level midpoints."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    n = int(np.prod(shape))
    block_size = draw(st.integers(1, 130))
    exponent = draw(st.integers(-60, 60))
    special = [0.0, 1.0] + list(NF4_LEVELS) + TIE_VALUES
    special += [-v for v in special]
    values = draw(st.lists(
        st.one_of(st.floats(-1.0, 1.0, allow_subnormal=False), st.sampled_from(special)),
        min_size=n, max_size=n,
    ))
    x = np.array(values) * 2.0 ** exponent
    if draw(st.booleans()):
        x[::block_size] = 2.0 ** exponent  # absmax 1 after scaling: ties stay exact
    zero_block = draw(st.integers(0, (n - 1) // block_size))
    if draw(st.booleans()):
        x[zero_block * block_size:(zero_block + 1) * block_size] = 0.0
    return x.reshape(shape), block_size


class TestArrayPathMatchesOracles:
    @settings(max_examples=100, deadline=None)
    @given(blocked_tensors())
    def test_nf4_block_by_block(self, case):
        x, block_size = case
        qt = quantize_tensor(x, "nf4", block_size)
        codes = unpack_nf4(qt.data, x.size)
        restored = dequantize(qt).ravel()
        levels = nf4_levels()
        flat = x.ravel()
        for b, start in enumerate(range(0, flat.size, block_size)):
            block = flat[start:start + block_size]
            scale = np.abs(block).max()
            expected = nearest_level_codes(list(block / (scale or 1.0)), list(levels))
            assert list(codes[start:start + block_size]) == expected
            assert qt.scales[b] == np.float32(scale)
            want = levels[expected] * np.float64(qt.scales[b])
            assert restored[start:start + block_size].tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(blocked_tensors())
    def test_int8_block_by_block(self, case):
        x, block_size = case
        qt = quantize_tensor(x, "int8", block_size)
        codes = np.frombuffer(qt.data, dtype=np.int8).astype(np.int64)
        restored = dequantize(qt).ravel()
        flat = x.ravel()
        for b, start in enumerate(range(0, flat.size, block_size)):
            block = flat[start:start + block_size]
            ours = codes[start:start + block_size]
            scale = np.abs(block).max()
            assert qt.scales[b] == np.float32(scale)
            if scale == 0.0:
                assert np.all(ours == 0)  # every code reconstructs 0 exactly
            else:
                expected = np.array(int8_codes(list(block), scale))
                # a value at a code midpoint can round either way: equal error
                assert np.all(np.abs(ours - expected) <= 1)
                err = np.abs(ours * scale / 127.0 - block)
                oracle = np.abs(expected * scale / 127.0 - block)
                assert np.all(err <= oracle + 1e-12 * scale)
            want = ours.astype(np.float64) * np.float64(qt.scales[b]) / 127.0
            assert restored[start:start + block_size].tobytes() == want.tobytes()


def _tile_sizes():
    """(block_size, n): one tile -1, 0 and +1 values, and one tile plus a
    short tail block, for a block size that divides the tile and one that
    does not."""
    for block_size in (64, 48):
        tile = (_TILE_VALUES // block_size) * block_size
        for n in (tile - 1, tile, tile + 1, tile + block_size // 3):
            yield block_size, n


class TestTileBoundaries:
    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    @pytest.mark.parametrize("block_size,n", list(_tile_sizes()))
    def test_blocks_match_oracles(self, kind, block_size, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        x[rng.integers(0, n, 500)] = rng.choice(TIE_VALUES, 500)
        x[block_size:2 * block_size] = 0.0
        qt = quantize_tensor(x, kind, block_size)
        if kind == "nf4":
            codes = unpack_nf4(qt.data, n).astype(np.int64)
        else:
            codes = np.frombuffer(qt.data, dtype=np.int8).astype(np.int64)
        nblocks = -(-n // block_size)
        tile_rows = _TILE_VALUES // block_size
        # every block codes as it does alone, in a one-tile call
        for b in range(nblocks):
            block = x[b * block_size:(b + 1) * block_size]
            alone = quantize_tensor(block, kind, block_size)
            assert qt.scales[b] == alone.scales[0]
            assert qt.scales[b] == np.float32(np.abs(block).max())
            if kind == "nf4":
                want = unpack_nf4(alone.data, block.size)
            else:
                want = np.frombuffer(alone.data, dtype=np.int8)
            assert np.array_equal(codes[b * block_size:b * block_size + block.size], want)
        # and the blocks on both sides of the tile edge, and the tail, match
        # the per-element oracles
        for b in {0, 1, tile_rows - 1, tile_rows, nblocks - 1} & set(range(nblocks)):
            block = x[b * block_size:(b + 1) * block_size]
            got = codes[b * block_size:b * block_size + block.size]
            scale = np.abs(block).max()
            if scale == 0.0:
                assert np.all(got == (7 if kind == "nf4" else 0))
            elif kind == "nf4":
                assert list(got) == nearest_level_codes(list(block / scale), list(NF4_LEVELS))
            else:
                expected = np.array(int8_codes(list(block), scale))
                assert np.all(np.abs(got - expected) <= 1)
                err = np.abs(got * scale / 127.0 - block)
                oracle = np.abs(expected * scale / 127.0 - block)
                assert np.all(err <= oracle + 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    def test_float32_input_matches_float64(self, kind):
        x = np.random.default_rng(17).standard_normal(_TILE_VALUES + 100, dtype=np.float32)
        a = quantize_tensor(x, kind)
        b = quantize_tensor(x.astype(np.float64), kind)
        assert a.data == b.data
        assert a.scales.tobytes() == b.scales.tobytes()

    def test_non_finite_in_a_later_tile_rejected(self):
        x = np.ones(3 * _TILE_VALUES)
        x[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            quantize_tensor(x, "nf4")


class TestPacking:
    def test_all_codes_roundtrip(self):
        codes = np.arange(16, dtype=np.uint8)
        assert list(unpack_nf4(pack_nf4(codes), 16)) == list(range(16))

    def test_odd_length(self):
        codes = np.array([15, 7, 3], dtype=np.uint8)
        packed = pack_nf4(codes)
        assert len(packed) == 2
        assert list(unpack_nf4(packed, 3)) == [15, 7, 3]

    def test_all_pairs_exhaustive(self):
        for a in range(16):
            for b in range(16):
                codes = np.array([a, b], dtype=np.uint8)
                assert list(unpack_nf4(pack_nf4(codes), 2)) == [a, b]


F32_MAX = float(np.finfo(np.float32).max)


def _assert_blocks_match_oracles(x, block_size):
    """NF4 and INT8 codes, scales and dequantized bytes of x against the
    per-element oracles, block by block."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    levels = nf4_levels()
    nf4 = quantize_tensor(x, "nf4", block_size)
    int8 = quantize_tensor(x, "int8", block_size)
    nf4_codes = unpack_nf4(nf4.data, flat.size)
    int8_codes_ = np.frombuffer(int8.data, dtype=np.int8).astype(np.int64)
    nf4_out, int8_out = dequantize(nf4), dequantize(int8)
    assert nf4_out.shape == int8_out.shape == np.shape(x)
    nf4_out, int8_out = nf4_out.ravel(), int8_out.ravel()
    for b, start in enumerate(range(0, flat.size, block_size)):
        block = flat[start:start + block_size]
        part = slice(start, start + block.size)
        scale = np.abs(block).max()
        # bytes, so that a -0.0 scale does not pass for +0.0
        assert nf4.scales[b].tobytes() == int8.scales[b].tobytes() == np.float32(scale).tobytes()
        scaled = list(block / (scale or 1.0))
        expected = nearest_level_codes(scaled, list(levels))
        assert list(nf4_codes[part]) == expected
        want = levels[expected] * np.float64(nf4.scales[b])
        assert nf4_out[part].tobytes() == want.tobytes()
        # the INT8 oracle runs on the scaled block, where subnormal inputs
        # are normal numbers; a code midpoint can round either way
        ours = int8_codes_[part]
        oracle = np.array(int8_codes(scaled, 1.0))
        assert np.all(np.abs(ours - oracle) <= 1)
        assert np.all(np.abs(ours / 127.0 - scaled) <= np.abs(oracle / 127.0 - scaled) + 1e-12)
        want = ours.astype(np.float64) * np.float64(int8.scales[b]) / 127.0
        assert int8_out[part].tobytes() == want.tobytes()


class TestKernelEdgeCases:
    """Inputs the hypothesis strategies never draw: subnormals, -0.0, the
    float32 scale limit, and odd sizes that fill their last block."""

    @pytest.mark.parametrize("x,block_size", [
        (np.array([5e-324, -2.5e-320, 1e-310, -0.0, 3e-315, -5e-324]), 3),
        (np.array([1e-40, -3e-41, 7e-45, 0.0, -1.4e-45, 2e-39, 1e-44]), 4),
        (np.array([0.5, -1.0, 1e-320, -3e-321]), 2),
        (np.array([-0.0, -0.0, 0.0, -0.0, 1.5, -0.0]), 2),
        (np.full(5, -0.0), 5),
        (np.array([F32_MAX, -F32_MAX / 3, 1.0, -F32_MAX]), 2),
        (np.array([0.3, -1.2, 0.7]), 1),
        (np.linspace(-2.0, 1.0, 9).reshape(3, 3), 3),
    ])
    def test_blocks_match_oracles(self, x, block_size):
        _assert_blocks_match_oracles(x, block_size)

    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_absmax_one_ulp_beyond_float32_rejected(self, kind, sign):
        x = np.ones(2 * _TILE_VALUES)
        x[-1] = sign * math.nextafter(F32_MAX, math.inf)
        with pytest.raises(ValueError, match="float32"):
            quantize_tensor(x, kind)

    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -math.nan])
    def test_non_finite_in_a_later_tile_rejected(self, kind, value):
        x = np.full(2 * _TILE_VALUES + 5, -2.0)
        x[_TILE_VALUES + 7] = value
        with pytest.raises(ValueError, match="non-finite"):
            quantize_tensor(x, kind)

    @pytest.mark.parametrize("count", [512, 511])
    def test_every_byte_decodes_as_its_nibbles(self, count):
        scales = np.random.default_rng(18).random(8).astype(np.float32)
        qt = QuantizedTensor(kind="nf4", data=bytes(range(256)), scales=scales,
                             shape=(count,), block_size=64)
        levels = nf4_levels()[unpack_nf4(qt.data, count)]
        want = levels * np.repeat(scales.astype(np.float64), 64)[:count]
        assert dequantize(qt).tobytes() == want.tobytes()


SOURCE_DTYPES = [np.float16, np.float32, np.float64, ">f4", np.longdouble]


def _width_case(dtype):
    """Blocks of 4 in dtype: subnormals with a -0.0, an all-zero block, an
    all -0.0 block, ordinary values, then a partial last block. Subnormals
    are the dtype's own, or float64's for longdouble, so every value is
    exact in float64."""
    finfo = np.finfo(dtype if np.dtype(dtype).itemsize <= 8 else np.float64)
    tiny = float(finfo.smallest_subnormal)
    values = [tiny, -3 * tiny, -0.0, 5 * tiny,
              0.0, 0.0, 0.0, 0.0,
              -0.0, -0.0, -0.0, -0.0,
              0.75, -1.5, 0.1, -0.0,
              1e4, -2.0]
    return np.array(values, dtype=dtype)


class TestSourceWidths:
    """The absmax is read at the width _as_float gives the source: its own
    for float16/32/64 in either byte order, float64 for longdouble; codes
    and scales must not differ from the float64 input's."""

    @pytest.mark.parametrize("dtype", SOURCE_DTYPES)
    @pytest.mark.parametrize("block_size", [4, 3])
    def test_blocks_match_oracles(self, dtype, block_size):
        _assert_blocks_match_oracles(_width_case(dtype), block_size)

    @pytest.mark.parametrize("dtype", SOURCE_DTYPES)
    @pytest.mark.parametrize("value", [-0.0, 2.5, -6e-8])
    def test_one_element(self, dtype, value):
        _assert_blocks_match_oracles(np.array([value], dtype=dtype), 64)

    @pytest.mark.parametrize("dtype", SOURCE_DTYPES)
    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    def test_same_bytes_as_float64_across_tiles(self, dtype, kind):
        x = np.random.default_rng(19).standard_normal(_TILE_VALUES + 100).astype(dtype)
        x[64:128] = 0.0
        ours = quantize_tensor(x, kind)
        want = quantize_tensor(x.astype(np.float64), kind)
        assert ours.data == want.data
        assert ours.scales.tobytes() == want.scales.tobytes()

    def test_strided_source(self):
        x = np.random.default_rng(20).standard_normal(2 * 1000, dtype=np.float32)[::2]
        for kind in ("nf4", "int8"):
            ours = quantize_tensor(x, kind, 48)
            want = quantize_tensor(np.ascontiguousarray(x, dtype=np.float64), kind, 48)
            assert ours.data == want.data
            assert ours.scales.tobytes() == want.scales.tobytes()

    @pytest.mark.parametrize("dtype", SOURCE_DTYPES)
    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -math.nan])
    def test_non_finite_rejected(self, dtype, kind, value):
        x = np.full(2 * _TILE_VALUES + 5, -2.0, dtype=dtype)
        x[_TILE_VALUES + 7] = value
        with pytest.raises(ValueError, match="tensor contains non-finite values"):
            quantize_tensor(x, kind)


class TestTensorRoundTrip:
    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    def test_idempotent(self, kind):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(7, 13))
        qt1 = quantize_tensor(x, kind, block_size=16)
        once = dequantize(qt1)
        qt2 = quantize_tensor(once, kind, block_size=16)
        assert qt1.data == qt2.data
        assert np.array_equal(qt1.scales, qt2.scales)

    @pytest.mark.parametrize("kind", ["nf4", "int8"])
    def test_absmax_element_exact(self, kind):
        # scales are stored as float32, so exactness is checked on inputs
        # already representable at that precision
        rng = np.random.default_rng(13)
        x = rng.normal(size=130).astype(np.float32).astype(np.float64)
        qt = quantize_tensor(x, kind, block_size=64)
        restored = dequantize(qt)
        for start in range(0, x.size, 64):
            block = x[start:start + 64]
            idx = int(np.abs(block).argmax()) + start
            assert restored[idx] == x[idx]

    def test_fixed_point_of_scaled_levels(self):
        levels = nf4_levels()
        block = levels * 3.0
        qt = quantize_tensor(block, "nf4", block_size=16)
        assert np.array_equal(dequantize(qt), block)

    def test_shape_restored(self):
        x = np.random.default_rng(14).normal(size=(3, 5, 2))
        qt = quantize_tensor(x, "nf4", block_size=8)
        assert dequantize(qt).shape == (3, 5, 2)

    def test_corrupt_code_range_rejected(self):
        qt = QuantizedTensor(
            kind="int8", data=np.array([5], dtype=np.int8).tobytes(),
            scales=np.array([1.0], dtype=np.float32), shape=(1,), block_size=64,
        )
        bad = QuantizedTensor(
            kind="nf4", data=b"\xff", scales=np.array([1.0], dtype=np.float32),
            shape=(1,), block_size=64,
        )
        dequantize(qt)
        # a lone 0xff byte decodes to two nibbles 15,15; only the first is
        # used, which is in range: unpacked codes cannot exceed 15, so the
        # range check lives where codes enter a byte, in pack_nf4
        with pytest.raises(ValueError):
            pack_nf4(np.array([16]))
        assert dequantize(bad).shape == (1,)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_scale_rejected(self, value):
        with pytest.raises(ValueError, match="scales must be finite and non-negative"):
            QuantizedTensor(
                kind="int8", data=bytes(3),
                scales=np.array([1.0, value], dtype=np.float32), shape=(3,), block_size=2,
            )

    @pytest.mark.parametrize("kind,length", [("nf4", 1), ("nf4", 3), ("int8", 2), ("int8", 4)])
    def test_code_length_checked(self, kind, length):
        # three values need exactly 2 nf4 bytes or 3 int8 bytes
        with pytest.raises(ValueError, match="code bytes"):
            QuantizedTensor(
                kind=kind, data=bytes(length),
                scales=np.array([1.0], dtype=np.float32), shape=(3,), block_size=64,
            )


class TestNF4Superiority:
    def test_beats_uniform_absmax_on_gaussian(self):
        uniform = np.linspace(-1.0, 1.0, 16)
        wins = 0
        trials = 30
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(4096)
            qt = quantize_tensor(x, "nf4", 64)
            nf4_mse = float(((dequantize(qt) - x) ** 2).mean())
            restored = np.empty_like(x)
            for start in range(0, x.size, 64):
                block = x[start:start + 64]
                scale = np.abs(block).max()
                codes = np.argmin(np.abs((block / scale)[:, None] - uniform[None, :]), axis=1)
                restored[start:start + 64] = uniform[codes] * scale
            uni_mse = float(((restored - x) ** 2).mean())
            if nf4_mse < uni_mse:
                wins += 1
        assert wins >= int(trials * 0.95)


class TestPolicyPlanning:
    def test_single_feedforward_layer_arithmetic(self):
        manifest = ModelManifest((LayerSpec("ffn", LayerClass.FEEDFORWARD, (4096, 4096)),))
        policy = PrecisionPolicy(block_size=64)
        plan = apply_policy(manifest, policy)
        layer = plan.layers[0]
        assert layer.params == 16_777_216
        assert layer.code_bytes == 8_388_608
        assert layer.scale_bytes == 1_048_576

    def test_params_beyond_int64(self):
        layer = LayerSpec("wide", LayerClass.FEEDFORWARD, (2**32, 2**32))
        assert layer.params == 2**64
        plan = apply_policy(ModelManifest((layer,)), PrecisionPolicy())
        assert plan.layers[0].code_bytes == 2**63

    def test_all_fp16_equals_baseline(self):
        manifest = synthetic_7b_manifest(blocks=2)
        policy = PrecisionPolicy(bits={c: 16 for c in LayerClass})
        plan = apply_policy(manifest, policy)
        assert plan.total_bytes == plan.fp16_bytes

    def test_seven_b_manifest_reduction(self):
        manifest = synthetic_7b_manifest()
        attention = sum(
            l.params for l in manifest.layers if l.layer_class is LayerClass.ATTENTION
        )
        assert 0.25 <= attention / manifest.total_params <= 0.35
        plan = apply_policy(manifest, PrecisionPolicy())
        assert plan.reduction >= 0.60

    def test_unmapped_layer_class_rejected(self):
        manifest = ModelManifest((LayerSpec("x", LayerClass.OUTPUT, (8, 8)),))
        policy = PrecisionPolicy()
        object.__setattr__(policy, "bits", {LayerClass.ATTENTION: 8})
        with pytest.raises(ValueError):
            apply_policy(manifest, policy)

    def test_footprint_monotone_in_bits(self):
        manifest = synthetic_7b_manifest(blocks=1)
        for cls in LayerClass:
            for hi, lo in ((16, 8), (8, 4), (16, 4)):
                bits_hi = dict(PrecisionPolicy().bits)
                bits_lo = dict(bits_hi)
                bits_hi[cls] = hi
                bits_lo[cls] = lo
                total_hi = apply_policy(manifest, PrecisionPolicy(bits=bits_hi)).total_bytes
                total_lo = apply_policy(manifest, PrecisionPolicy(bits=bits_lo)).total_bytes
                assert total_lo <= total_hi

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError):
            ModelManifest((
                LayerSpec("same", LayerClass.ATTENTION, (2, 2)),
                LayerSpec("same", LayerClass.OUTPUT, (2, 2)),
            ))


class TestErrorReport:
    def test_rows_and_fp16_zero(self):
        manifest = ModelManifest((
            LayerSpec("attn", LayerClass.ATTENTION, (8, 16)),
            LayerSpec("ffn", LayerClass.FEEDFORWARD, (8, 16)),
            LayerSpec("out", LayerClass.OUTPUT, (8, 16)),
        ))
        policy = PrecisionPolicy(bits={
            LayerClass.ATTENTION: 8, LayerClass.FEEDFORWARD: 4,
            LayerClass.EMBEDDING: 4, LayerClass.OUTPUT: 16,
        })
        rng = np.random.default_rng(15)
        weights = {l.name: rng.normal(size=l.shape) for l in manifest.layers}
        rows = quant_error_report(weights, manifest, policy)
        assert len(rows) == 3
        by_name = {name: (bits, mse) for name, bits, mse in rows}
        assert by_name["out"] == (16, 0.0)
        assert by_name["ffn"][1] > 0

    def test_4bit_noisier_than_8bit_paired(self):
        manifest8 = ModelManifest((LayerSpec("l", LayerClass.ATTENTION, (16, 32)),))
        wins = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            weights = {"l": rng.normal(size=(16, 32))}
            p4 = PrecisionPolicy(bits={c: 4 for c in LayerClass})
            p8 = PrecisionPolicy(bits={c: 8 for c in LayerClass})
            mse4 = quant_error_report(weights, manifest8, p4)[0][2]
            mse8 = quant_error_report(weights, manifest8, p8)[0][2]
            if mse4 >= mse8:
                wins += 1
        assert wins >= int(trials * 0.95)

    def test_missing_weight_named(self):
        manifest = ModelManifest((LayerSpec("o", LayerClass.OUTPUT, (2, 2)),))
        with pytest.raises(ValueError, match="o: no weight"):
            quant_error_report({}, manifest, PrecisionPolicy())

    @pytest.mark.parametrize("bad,match", [
        pytest.param(lambda w: w + 1j, "dtype complex128", id="complex"),
        pytest.param(lambda w: w.astype(str), "dtype <U", id="text"),
        pytest.param(lambda w: w[:3], "weight size 3 != manifest 4", id="size"),
    ])
    def test_refuses_what_write_checkpoint_refuses(self, bad, match):
        manifest = ModelManifest((LayerSpec("attn", LayerClass.ATTENTION, (2, 2)),))
        weights = {"attn": bad(np.array([0.5, -1.5, 2.0, 0.25]))}
        with pytest.raises(ValueError, match=f"attn: .*{match}"):
            quant_error_report(weights, manifest, PrecisionPolicy())

    def test_float32_rows_equal_float64_rows(self):
        manifest = ModelManifest((
            LayerSpec("attn", LayerClass.ATTENTION, (8, 16)),
            LayerSpec("ffn", LayerClass.FEEDFORWARD, (16, 8)),
            LayerSpec("embed", LayerClass.EMBEDDING, (5, 13)),
            LayerSpec("out", LayerClass.OUTPUT, (8, 16)),
        ))
        rng = np.random.default_rng(21)
        weights = {l.name: rng.standard_normal(l.shape, dtype=np.float32) * 0.02
                   for l in manifest.layers}
        wide = {name: w.astype(np.float64) for name, w in weights.items()}
        rows = quant_error_report(weights, manifest, PrecisionPolicy())
        want = quant_error_report(wide, manifest, PrecisionPolicy())
        assert [(n, b, m.hex()) for n, b, m in rows] == [(n, b, m.hex()) for n, b, m in want]
        assert all(mse > 0 for _, _, mse in rows)


class TestAsFloat:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_native_float_passed_as_is(self, dtype):
        x = np.arange(12, dtype=dtype).reshape(3, 4)[:, ::2]
        assert _as_float(x) is x

    def test_mapped_layer_not_copied(self, tmp_path):
        # the float32 layer views medserve quantize makes of a mapped file
        path = tmp_path / "weights.bin"
        np.arange(40, dtype="<f4").tofile(path)
        raw = np.memmap(path, dtype="<f4", mode="r")
        layer = raw[8:32].reshape(4, 6)
        assert np.shares_memory(_as_float(layer), raw)

    def test_other_byte_order_copied_at_its_width(self):
        x = np.array([1.5, -0.0, 3e-45], dtype=">f4")
        got = _as_float(x)
        assert got.dtype == np.float32 and got.dtype.isnative
        assert got.tobytes() == x.astype("=f4").tobytes()

    @pytest.mark.parametrize("dtype", [np.longdouble, bool, np.int8, np.uint64])
    def test_longdouble_bool_and_integer_become_float64(self, dtype):
        x = np.array([1, 0, 1], dtype=dtype)
        got = _as_float(x)
        assert got.dtype == np.float64 and got.tolist() == [1.0, 0.0, 1.0]


class TestCheckpointContainer:
    def test_round_trip(self, tmp_path):
        manifest = ModelManifest((
            LayerSpec("attn", LayerClass.ATTENTION, (8, 8)),
            LayerSpec("ffn", LayerClass.FEEDFORWARD, (8, 8)),
            LayerSpec("head", LayerClass.OUTPUT, (4, 8)),
        ))
        policy = PrecisionPolicy(block_size=16)
        rng = np.random.default_rng(16)
        weights = {l.name: rng.normal(size=l.shape) for l in manifest.layers}
        path = tmp_path / "model.msq"
        write_checkpoint(path, manifest, policy, weights)

        header, restored = read_checkpoint(path)
        assert header["manifest_digest"] == manifest.digest()
        assert header["block_size"] == 16
        assert set(restored) == {"attn", "ffn", "head"}
        for layer in manifest.layers:
            kind = "nf4" if policy.bits[layer.layer_class] == 4 else "int8"
            qt = quantize_tensor(weights[layer.name], kind, 16)
            assert np.allclose(restored[layer.name], dequantize(qt))

    @staticmethod
    def _pinned_case():
        manifest = ModelManifest((
            LayerSpec("embed", LayerClass.EMBEDDING, (37, 11)),
            LayerSpec("attn", LayerClass.ATTENTION, (13, 9)),
            LayerSpec("ffn", LayerClass.FEEDFORWARD, (5, 7, 3)),
            LayerSpec("head", LayerClass.OUTPUT, (3, 10)),
        ))
        policy = PrecisionPolicy(bits={
            LayerClass.ATTENTION: 8, LayerClass.FEEDFORWARD: 4,
            LayerClass.EMBEDDING: 4, LayerClass.OUTPUT: 16,
        }, block_size=24)
        rng = np.random.default_rng(2024)
        weights = {l.name: rng.normal(size=l.shape) for l in manifest.layers}
        weights["ffn"].reshape(-1)[24:48] = 0.0  # an all-zero nf4 block
        weights["attn"].reshape(-1)[:24] = 0.0  # an all-zero int8 block
        return manifest, policy, weights

    def test_bytes_pinned(self, tmp_path):
        # digest of the per-block reference implementation's output; every
        # layer has a short tail block and the fp16 path is included
        path = tmp_path / "model.msq"
        write_checkpoint(path, *self._pinned_case())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "05e4aceb78d653ff6fae12cfc09931d119da2e75b8a15d609cc5bc6d963067eb"

    def test_missing_weight_named(self, tmp_path):
        manifest, policy, weights = self._pinned_case()
        del weights["ffn"]
        with pytest.raises(ValueError, match="ffn"):
            write_checkpoint(tmp_path / "model.msq", manifest, policy, weights)

    @pytest.mark.parametrize("value", [1e5, -65520.0, np.inf, np.nan])
    def test_fp16_layer_out_of_range_rejected(self, tmp_path, value):
        manifest, policy, weights = self._pinned_case()
        weights["head"].reshape(-1)[7] = value
        with pytest.raises(ValueError, match="head: .*float16 range"):
            write_checkpoint(tmp_path / "model.msq", manifest, policy, weights)

    def test_fp16_layer_range_edge_kept(self, tmp_path):
        manifest, policy, weights = self._pinned_case()
        weights["head"].reshape(-1)[:2] = [65504.0, -65504.0]
        path = tmp_path / "model.msq"
        write_checkpoint(path, manifest, policy, weights)
        assert list(read_checkpoint(path)[1]["head"].reshape(-1)[:2]) == [65504.0, -65504.0]

    def _written(self, tmp_path) -> bytes:
        path = tmp_path / "model.msq"
        write_checkpoint(path, *self._pinned_case())
        return path.read_bytes()

    @pytest.mark.parametrize("cut", ["prefix", "header", "segments", "trailing"])
    def test_truncated_or_overlong_rejected(self, tmp_path, cut):
        blob = self._written(tmp_path)
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        bad = {
            "prefix": blob[:10],
            "header": blob[:header_end - 1],
            "segments": blob[:-1],
            "trailing": blob + b"\x00",
        }[cut]
        path = tmp_path / "bad.msq"
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="bad.msq"):
            read_checkpoint(path)

    def test_failed_write_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "model.msq"
        path.write_bytes(b"old bytes")
        manifest, policy, weights = self._pinned_case()
        weights["head"].reshape(-1)[7] = 1e5  # the last layer fails
        with pytest.raises(ValueError, match="head: .*float16 range"):
            write_checkpoint(path, manifest, policy, weights)
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["model.msq"]

    @pytest.mark.parametrize("name", ["attn", "head"])  # 8-bit, then 16-bit
    @pytest.mark.parametrize("bad,dtype", [
        pytest.param(lambda w: w + 1j, "complex128", id="complex"),
        pytest.param(lambda w: w.astype(str), "<U", id="text"),
    ])
    def test_non_real_weights_rejected(self, tmp_path, name, bad, dtype):
        path = tmp_path / "model.msq"
        path.write_bytes(b"old bytes")
        manifest, policy, weights = self._pinned_case()
        weights[name] = bad(weights[name])
        with pytest.raises(ValueError, match=f"{name}: .*dtype {dtype}"):
            write_checkpoint(path, manifest, policy, weights)
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["model.msq"]

    @pytest.mark.parametrize("dtype", SOURCE_DTYPES)
    def test_source_width_writes_float64_bytes(self, tmp_path, dtype):
        manifest, policy, weights = self._pinned_case()
        weights = {k: v.astype(dtype) for k, v in weights.items()}
        ours, want = tmp_path / "ours.msq", tmp_path / "want.msq"
        write_checkpoint(ours, manifest, policy, weights)
        write_checkpoint(want, manifest, policy,
                         {k: v.astype(np.float64) for k, v in weights.items()})
        assert ours.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("dtype", SOURCE_DTYPES)
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected_at_every_width(self, tmp_path, dtype, value):
        manifest, policy, weights = self._pinned_case()
        weights = {k: v.astype(dtype) for k, v in weights.items()}
        weights["ffn"].reshape(-1)[50] = value
        with pytest.raises(ValueError, match="tensor contains non-finite values"):
            write_checkpoint(tmp_path / "model.msq", manifest, policy, weights)
        assert list(tmp_path.iterdir()) == []

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        manifest, policy, weights = self._pinned_case()
        weights["ffn"].reshape(-1)[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            write_checkpoint(tmp_path / "model.msq", manifest, policy, weights)
        assert list(tmp_path.iterdir()) == []

    def test_rewrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "model.msq"
        path.write_bytes(b"x" * 100_000)  # longer than the checkpoint
        write_checkpoint(path, *self._pinned_case())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "05e4aceb78d653ff6fae12cfc09931d119da2e75b8a15d609cc5bc6d963067eb"
        assert [p.name for p in tmp_path.iterdir()] == ["model.msq"]

    @staticmethod
    def _with_header(blob: bytes, edit) -> bytes:
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:header_end])
        edit(header)
        raw = json.dumps(header).encode()
        return blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[header_end:]

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["layers"][1].update(bits=5), "bits 5 is not 4, 8 or 16"),
        (lambda h: h["layers"][1].update(bits=4), "codes_len 117 .* disagree with 4 bits"),
        (lambda h: h["layers"][1].pop("shape"), "entry has no shape"),
        (lambda h: h["layers"][1].update(shape=[13, -9]), "shape .* non-negative"),
        (lambda h: h["layers"][1].update(codes_len=116, scales_len=24),
         "codes_len 116 and scales_len 24 disagree .* give 117 and 20"),
        (lambda h: h["layers"][1].update(codes_len=117.0), "codes_len 117.0 is not an integer"),
        (lambda h: h["layers"][2].update(name="attn"), "name repeats an earlier entry's"),
    ])
    def test_bad_layer_entry_named(self, tmp_path, edit, message):
        # layer 1 is "attn", an 8-bit (13, 9) layer: 117 code and 20 scale bytes
        path = tmp_path / "bad.msq"
        tmp_path.joinpath("w").mkdir()
        path.write_bytes(self._with_header(self._written(tmp_path / "w"), edit))
        with pytest.raises(ValueError, match=f"bad.msq: layer 'attn': {message}"):
            read_checkpoint(path)

    @pytest.mark.parametrize("block_size", [0, -24, 2.5, None])
    def test_bad_block_size_named_at_first_quantized_layer(self, tmp_path, block_size):
        path = tmp_path / "bad.msq"
        tmp_path.joinpath("w").mkdir()
        blob = self._with_header(self._written(tmp_path / "w"),
                                 lambda h: h.update(block_size=block_size))
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.msq: layer 'embed': block size .* not a "
                                             "positive integer"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_bad_scale_named(self, tmp_path, value):
        # layer 1 is "attn": its scales follow layer 0's segments and its codes
        blob = bytearray(self._written(tmp_path))
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        embed, attn = json.loads(blob[12:header_end])["layers"][:2]
        at = header_end + embed["codes_len"] + embed["scales_len"] + attn["codes_len"]
        blob[at:at + 4] = struct.pack("<f", value)
        path = tmp_path / "bad.msq"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.msq: layer 'attn': scales must be "
                                             "finite and non-negative"):
            read_checkpoint(path)

    @pytest.mark.parametrize("raw", [b'{"layers": "\xff"}', b'{"layers": [', b"\x00"])
    def test_unreadable_header_named(self, tmp_path, raw):
        path = tmp_path / "bad.msq"
        path.write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(4, "little") + raw)
        with pytest.raises(ValueError, match="bad.msq: header is not UTF-8 JSON"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fp16_weight_named(self, tmp_path, value):
        # layer 3, "head", is the 16-bit layer and the last in the file
        blob = bytearray(self._written(tmp_path))
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        head = json.loads(blob[12:header_end])["layers"][3]
        at = len(blob) - head["codes_len"] + 2 * 7
        blob[at:at + 2] = struct.pack("<e", value)
        path = tmp_path / "bad.msq"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.msq: layer 'head': 16-bit weights "
                                             "must be finite"):
            read_checkpoint(path)

    # sha256 of every layer's decoded float64 bytes, in table order
    DECODED_DIGEST = "cffcb060c94b738e49ff04cac059879b4b17c06f4b9388f0b92c2887d52f55b0"

    @staticmethod
    def _decoded_digest(header, weights) -> str:
        blob = b"".join(weights[e["name"]].tobytes() for e in header["layers"])
        return hashlib.sha256(blob).hexdigest()

    def test_decoded_layers_pinned(self, tmp_path):
        path = tmp_path / "model.msq"
        write_checkpoint(path, *self._pinned_case())
        header, weights = read_checkpoint(path)
        assert list(weights) == [e["name"] for e in header["layers"]]
        assert self._decoded_digest(header, weights) == self.DECODED_DIGEST

    def test_layer_at_a_time_read_is_bounded(self, tmp_path):
        # eight 4-bit (512, 1024) layers: 2.25 MiB on disk, 4 MiB each decoded
        shape = (512, 1024)
        manifest = ModelManifest(tuple(
            LayerSpec(f"ffn{i}", LayerClass.FEEDFORWARD, shape) for i in range(8)
        ))
        w = np.random.default_rng(17).standard_normal(shape, dtype=np.float32)
        path = tmp_path / "model.msq"
        write_checkpoint(path, manifest, PrecisionPolicy(), {l.name: w for l in manifest.layers})
        del w
        tracemalloc.start()
        try:
            _, weights = read_checkpoint(path)
            for name in weights:
                assert weights[name].shape == shape
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * math.prod(shape) * 8

    def test_open_mapping_outlives_rewrite(self, tmp_path):
        path = tmp_path / "model.msq"
        manifest, policy, weights = self._pinned_case()
        write_checkpoint(path, manifest, policy, weights)
        old_header, old = read_checkpoint(path)
        write_checkpoint(path, manifest, policy, {k: 2 * v for k, v in weights.items()})
        assert self._decoded_digest(old_header, old) == self.DECODED_DIGEST
        _, new = read_checkpoint(path)
        for name in old:
            assert np.array_equal(new[name], 2 * old[name])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.msq"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty.msq: not a quantized checkpoint"):
            read_checkpoint(path)

    def test_weights_read_only(self, tmp_path):
        path = tmp_path / "model.msq"
        write_checkpoint(path, *self._pinned_case())
        _, weights = read_checkpoint(path)
        with pytest.raises(TypeError):
            weights["x"] = np.zeros(1)
        with pytest.raises(TypeError):
            del weights["attn"]
        assert len(weights) == 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.msq"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_checkpoint(path)

    @pytest.mark.parametrize("shape,match", [
        ([2.9, "3"], "entry 1 'shape': 2.9 is not a JSON integer"),
        ([4, "3"], "entry 1 'shape': '3' is not a JSON integer"),
        ([4, True], "entry 1 'shape': True is not a JSON integer"),
        ([4, 8e9], "entry 1 'shape': 8000000000.0 is not a JSON integer"),
        (12, "entry 1 'shape': 12 is not a JSON list"),
    ])
    def test_manifest_shape_takes_json_integers_only(self, tmp_path, shape, match):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([
            {"name": "a", "class": "attention", "shape": [4, 4]},
            {"name": "b", "class": "feedforward", "shape": shape},
        ]))
        with pytest.raises(ValueError, match=f"manifest.json: {match}"):
            load_manifest(path)

    def test_manifest_json_loader(self, tmp_path):
        doc = [
            {"name": "a", "class": "attention", "shape": [4, 4]},
            {"name": "b", "class": "feedforward", "shape": [4, 8]},
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        manifest = load_manifest(path)
        assert manifest.total_params == 16 + 32
        assert manifest.layers[1].layer_class is LayerClass.FEEDFORWARD
