"""Blockwise NF4/INT8 weight quantization with a mixed-precision layer policy.

Weights are flattened, cut into fixed-size blocks, and each block is scaled
by its absolute maximum. NF4 blocks store 4-bit indices into a 16-level
codebook placed at standard-normal quantiles; INT8 blocks store symmetric
absmax codes. A precision policy maps layer classes to bit widths, and the
memory planner prices a model manifest against the FP16 baseline.

Exactness contract: codes are computed in float64 from each block divided by
its absmax; scales are stored as float32, so a tensor whose absmax exceeds
the float32 range is rejected. An NF4 value equidistant from two levels takes
the lower index, as a first-minimum argmin over all 16 distances would. The
literal per-element loops in tests/oracles.py (nearest_level_codes,
int8_codes, unpack_nf4) are the reference the array path is tested against.

Threshold rule: for each pair of neighbouring levels L[i] < L[i+1], t[i] is
the largest float64 x with |L[i] - x| <= |L[i+1] - x|. On [L[i], L[i+1]]
that predicate is true up to t[i] and false above it, because correctly
rounded subtraction is monotone, so the nearest level of a scaled value x in
[-1, 1] (lower index on ties) is the number of thresholds below x. The
thresholds are derived from NF4_LEVELS at import.

Tiling: quantize_tensor walks the blocks in tiles of whole block rows, about
1 MiB of float64 each, so the tile stays in a 2 MiB per-core L2 cache from
the float64 cast to the codes. Every block is still scaled, divided and
coded with the same float64 operations as the whole array would be, so
tiling changes no byte.

Normalization: every entry point (quantize_tensor, write_checkpoint,
quant_error_report) takes weights through _as_float, which yields a
native-order float16, float32 or float64 array. Native arrays of those
dtypes pass as they are, never copied, so a float32 layer mapped from a
file is read in place. Only two kinds of float input are copied whole: one
in another byte order (such as >f4), at its own width, and longdouble, as
float64; bool and integer arrays become float64 too. Complex, text and
object arrays are refused.

Kernels: a block's absmax is the largest sign-cleared bit pattern of its
values read as integers of their own width (int16, int32 or int64 for
float16, float32 or float64), because non-negative IEEE floats order as
their bit patterns do, inf above every finite value and NaN above inf. It
is read from the source slice, not from the tile's float64 copy, so a
float32 tensor is scanned as 4-byte words; the value is the same, since
float64 holds every narrower float exactly. Codes are uint8 and each
threshold's compare mask is added in as uint8. Packing reads each code pair
as one little-endian uint16. Decoding gathers both values of a byte at once
from a 256-entry table of level pairs viewed as complex128.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import secrets
import struct
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .jsonio import loads, read_json_records, typed_fields

# Frozen 16-level codebook at standard-normal quantiles, normalized per half
# so the span is exactly [-1, +1] with an exact 0 at index 7. Generated by
# scripts/generate_nf4_levels.py (50-digit mpmath); a test re-derives it.
NF4_LEVELS = (
    -1.0,
    -0.6961928056323434,
    -0.5250729594465009,
    -0.3949174259199073,
    -0.28444130892108227,
    -0.18477340280045576,
    -0.09104997598578049,
    0.0,
    0.07958031495840913,
    0.16093014438029082,
    0.24611225134745957,
    0.337915136713128,
    0.44070973186421647,
    0.5626168879699852,
    0.7229566441594738,
    1.0,
)

DEFAULT_BLOCK_SIZE = 64
SCALE_BYTES = 4  # one float32 scale per block
_F32_MAX = float(np.finfo(np.float32).max)
# Values per tile: 128K float64 values are 1 MiB, which stays in a 2 MiB
# per-core L2 cache together with the tile's sign-cleared bits (at most
# 1 MiB), its codes and its compare mask. On a 2-vCPU x86 VM with 2 MiB of
# L2 per core, tiles of 64K-256K values quantized equally fast and tiles of
# 16K-32K values more slowly.
_TILE_VALUES = 1 << 17


def nf4_levels() -> np.ndarray:
    """The 16 NF4 codebook levels, ascending, as float64."""
    return np.array(NF4_LEVELS, dtype=np.float64)


def _nf4_thresholds(levels) -> np.ndarray:
    """t[i]: the largest float64 x with |L[i] - x| <= |L[i+1] - x|."""
    thresholds = []
    for lo, hi in zip(levels[:-1], levels[1:]):
        x = np.float64((lo + hi) / 2)
        while not abs(lo - x) <= abs(hi - x):
            x = np.nextafter(x, lo)
        while abs(lo - (up := np.nextafter(x, hi))) <= abs(hi - up):
            x = up
        thresholds.append(x)
    return np.array(thresholds, dtype=np.float64)


_NF4_THRESHOLDS = _nf4_thresholds(NF4_LEVELS)


def _nf4_byte_table(levels) -> np.ndarray:
    """Entry b: (level of b's low nibble, level of its high nibble) as one
    complex128, so one gather decodes a packed byte into two float64."""
    byte = np.arange(256)
    pairs = np.stack([levels[byte & 0x0F], levels[byte >> 4]], axis=1)
    return pairs.reshape(-1).view(np.complex128)


_NF4_BYTE_LEVELS = _nf4_byte_table(nf4_levels())


class LayerClass(Enum):
    ATTENTION = "attention"
    FEEDFORWARD = "feedforward"
    EMBEDDING = "embedding"
    OUTPUT = "output"


@dataclass(frozen=True)
class LayerSpec:
    name: str
    layer_class: LayerClass
    shape: tuple[int, ...]

    @property
    def params(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class ModelManifest:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    def digest(self) -> str:
        doc = [
            {"name": l.name, "class": l.layer_class.value, "shape": list(l.shape)}
            for l in self.layers
        ]
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class PrecisionPolicy:
    """Bit width per layer class; 16 means keep at baseline precision."""

    bits: dict[LayerClass, int] = field(
        default_factory=lambda: {
            LayerClass.ATTENTION: 8,
            LayerClass.FEEDFORWARD: 4,
            LayerClass.EMBEDDING: 4,
            LayerClass.OUTPUT: 8,
        }
    )
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        missing = [c for c in LayerClass if c not in self.bits]
        if missing:
            raise ValueError(f"policy missing layer classes: {[c.value for c in missing]}")
        bad = {b for b in self.bits.values() if b not in (4, 8, 16)}
        if bad:
            raise ValueError(f"unsupported bit widths: {sorted(bad)}")
        if self.block_size < 1:
            raise ValueError("block size must be >= 1")


@dataclass(frozen=True)
class QuantizedTensor:
    """Packed codes plus per-block absmax scales for one tensor."""

    kind: str  # "nf4" | "int8"
    data: bytes | memoryview
    scales: np.ndarray  # float32, one per block
    shape: tuple[int, ...]
    block_size: int

    def __post_init__(self):
        if self.kind not in ("nf4", "int8"):
            raise ValueError(f"unknown quantization kind {self.kind!r}")
        n = math.prod(self.shape)
        data_len = (n + 1) // 2 if self.kind == "nf4" else n
        if len(self.data) != data_len:
            raise ValueError(f"expected {data_len} {self.kind} code bytes, got {len(self.data)}")
        expected = (n + self.block_size - 1) // self.block_size
        if self.scales.shape != (expected,):
            raise ValueError(f"expected {expected} scales, got {self.scales.shape}")
        # a NaN minimum fails the compare too
        if self.scales.size and not (self.scales.min() >= 0
                                     and math.isfinite(self.scales.max())):
            raise ValueError("scales must be finite and non-negative")


def pack_nf4(codes: np.ndarray) -> bytes:
    """Two 4-bit codes per byte, low nibble first; odd tail padded with 0."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8).reshape(-1)
    if codes.size and codes.max() > 15:
        raise ValueError("nf4 code out of range")
    if codes.size % 2:
        codes = np.append(codes, np.uint8(0))
    # pair (a, b) reads as a | b << 8; adding b << 4 puts b in the high
    # nibble of the low byte, which is all the uint8 cast keeps
    pairs = codes.view("<u2")
    packed = pairs >> 4
    packed |= pairs
    return packed.astype(np.uint8).tobytes()


def _as_float(values) -> np.ndarray:
    """values as a native-order float16, float32 or float64 array: a native
    one as it is, another byte order copied at its own width, and bool,
    integer and longdouble arrays copied as float64. Any other dtype
    (complex, text, object, ...) raises ValueError, since casting it would
    drop or invent values."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"weights must be real numbers; got dtype {arr.dtype}")
    if arr.dtype.kind == "f" and arr.dtype.itemsize in (2, 4, 8):
        return arr if arr.dtype.isnative else arr.astype(arr.dtype.newbyteorder("="))
    return arr.astype(np.float64)


def _layer_weight(weights: Mapping[str, np.ndarray], name: str, params: int) -> np.ndarray:
    """weights[name] through _as_float, holding the manifest's params values;
    every error names the layer."""
    if name not in weights:
        raise ValueError(f"{name}: no weight given for this layer")
    try:
        w = _as_float(weights[name])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if w.size != params:
        raise ValueError(f"{name}: weight size {w.size} != manifest {params}")
    return w


def quantize_tensor(values, kind: str, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedTensor:
    """Blockwise quantization of an arbitrary-shape array.

    The flat tensor is cut into (nblocks, block_size) rows, the last one
    zero-padded; the padding leaves its absmax unchanged and its codes are
    dropped. Rows are processed a tile at a time in float64, whatever the
    input's float dtype, so a native float tensor is never widened whole.
    """
    arr = _as_float(values)
    if arr.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if kind not in ("nf4", "int8"):
        raise ValueError(f"unknown quantization kind {kind!r}")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    flat = arr.reshape(-1)
    n = flat.size
    nblocks = -(-n // block_size)
    rows = min(nblocks, max(1, _TILE_VALUES // block_size))
    # absmax is read at the source's own width, as same-width integers
    as_bits = np.dtype(f"i{flat.dtype.itemsize}")
    sign_clear = as_bits.type(np.iinfo(as_bits).max)
    tile = np.empty((rows, block_size))
    magnitudes = np.empty(rows * block_size, dtype=as_bits)
    scales = np.empty(nblocks, dtype=np.float32)
    # one spare code, to pad an odd count to whole pairs
    codes = np.empty(nblocks * block_size + 1, dtype=np.uint8 if kind == "nf4" else np.int8)
    above = np.empty((rows, block_size), dtype=bool) if kind == "nf4" else None
    for first in range(0, nblocks, rows):
        blocks = tile[:min(rows, nblocks - first)]
        start = first * block_size
        count = min(blocks.size, n - start)
        source = flat[start:start + count]
        padded = blocks.reshape(-1)
        padded[:count] = source
        padded[count:] = 0.0
        bits = magnitudes[:blocks.size]
        np.bitwise_and(source.view(as_bits), sign_clear, out=bits[:count])
        bits[count:] = 0  # the bits of +0.0
        absmax = bits.reshape(blocks.shape).max(axis=1).view(flat.dtype)  # NaN and inf survive
        if not np.all(np.isfinite(absmax)):
            raise ValueError("tensor contains non-finite values")
        absmax = absmax.astype(np.float64)
        if np.any(absmax > _F32_MAX):
            raise ValueError("tensor absmax exceeds the float32 scale range")
        scales[first:first + len(blocks)] = absmax
        # all-zero rows divide by 1 and so land on the exact-zero level / code
        blocks /= np.where(absmax > 0.0, absmax, 1.0)[:, None]
        out = codes[start:start + blocks.size].reshape(blocks.shape)
        if kind == "nf4":
            mask = above[:len(blocks)]
            np.greater(blocks, _NF4_THRESHOLDS[0], out=out.view(bool))
            for t in _NF4_THRESHOLDS[1:]:
                out += np.greater(blocks, t, out=mask).view(np.uint8)
        else:
            # |x / absmax| <= 1 under correctly rounded division, so the
            # rounded codes already lie in [-127, 127]
            blocks *= 127.0
            out[...] = np.rint(blocks, out=blocks)
    if kind == "nf4":
        codes[n] = 0
        data = pack_nf4(codes[:n + n % 2])
    else:
        data = codes[:n].tobytes()
    return QuantizedTensor(
        kind=kind, data=data, scales=scales, shape=arr.shape, block_size=block_size,
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Inverse of quantize_tensor; restores the original shape."""
    n = math.prod(qt.shape)
    size = qt.scales.size * qt.block_size
    if qt.kind == "nf4":
        raw = np.frombuffer(qt.data, dtype=np.uint8)
        # a byte decodes to two values, so an odd n gets one past its end,
        # which lies beyond size when the block size divides n
        out = np.empty(max(size, 2 * raw.size))
        # bytes index all 256 entries, so "clip" never clips; it just lets
        # take() skip a buffer
        np.take(_NF4_BYTE_LEVELS, raw, out=out[:2 * raw.size].view(np.complex128), mode="clip")
    else:
        out = np.empty(size)
        out[:n] = np.frombuffer(qt.data, dtype=np.int8)
    out[n:size] = 0.0
    blocks = out[:size].reshape(qt.scales.size, qt.block_size)
    blocks *= qt.scales.astype(np.float64)[:, None]
    if qt.kind == "int8":
        blocks /= 127.0
    return out[:n].reshape(qt.shape)


@dataclass(frozen=True)
class LayerPlan:
    name: str
    layer_class: LayerClass
    params: int
    bits: int
    code_bytes: int
    scale_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.code_bytes + self.scale_bytes


@dataclass(frozen=True)
class QuantizationPlan:
    layers: tuple[LayerPlan, ...]
    block_size: int

    @property
    def total_bytes(self) -> int:
        return sum(l.total_bytes for l in self.layers)

    @property
    def fp16_bytes(self) -> int:
        return sum(l.params * 2 for l in self.layers)

    @property
    def reduction(self) -> float:
        """Fraction of the FP16 footprint saved."""
        return 1.0 - self.total_bytes / self.fp16_bytes


def _segment_lengths(params: int, bits: int, block_size: int) -> tuple[int, int]:
    """(code bytes, scale bytes) of one layer's checkpoint segment."""
    if bits == 16:
        return params * 2, 0
    return (params * bits + 7) // 8, -(-params // block_size) * SCALE_BYTES


def apply_policy(manifest: ModelManifest, policy: PrecisionPolicy) -> QuantizationPlan:
    """Price every layer under the policy.

    4/8-bit layers pay ceil(params * bits / 8) code bytes plus one float32
    scale per block; 16-bit layers stay at the FP16 baseline with no scale
    overhead.
    """
    plans = []
    for layer in manifest.layers:
        if layer.layer_class not in policy.bits:
            raise ValueError(f"policy does not map layer class {layer.layer_class!r}")
        bits = policy.bits[layer.layer_class]
        code_bytes, scale_bytes = _segment_lengths(layer.params, bits, policy.block_size)
        plans.append(LayerPlan(
            name=layer.name, layer_class=layer.layer_class, params=layer.params,
            bits=bits, code_bytes=code_bytes, scale_bytes=scale_bytes,
        ))
    return QuantizationPlan(layers=tuple(plans), block_size=policy.block_size)


def quant_error_report(weights: dict[str, np.ndarray], manifest: ModelManifest,
                       policy: PrecisionPolicy) -> list[tuple[str, int, float]]:
    """Per-layer round-trip MSE under the plan; 16-bit layers report 0."""
    plan = apply_policy(manifest, policy)
    rows = []
    for layer_plan in plan.layers:
        w = _layer_weight(weights, layer_plan.name, layer_plan.params)
        if layer_plan.bits == 16:
            mse = 0.0
        else:
            kind = "nf4" if layer_plan.bits == 4 else "int8"
            qt = quantize_tensor(w, kind, policy.block_size)
            mse = float(((dequantize(qt) - w) ** 2).mean())
        rows.append((layer_plan.name, layer_plan.bits, mse))
    return rows


def synthetic_7b_manifest(blocks: int = 32, hidden: int = 4096,
                          ffn: int = 11008, vocab: int = 32000) -> ModelManifest:
    """A 7B-shaped transformer manifest for footprint planning.

    Attention projections come to roughly 30% of parameters, feed-forward
    plus embedding to roughly 70%, mirroring the usual decoder layout.
    """
    layers = [LayerSpec("embed.tokens", LayerClass.EMBEDDING, (vocab, hidden))]
    for i in range(blocks):
        for proj in ("q", "k", "v", "o"):
            layers.append(LayerSpec(
                f"block{i}.attn.{proj}", LayerClass.ATTENTION, (hidden, hidden)
            ))
        for proj in ("gate", "up"):
            layers.append(LayerSpec(
                f"block{i}.ffn.{proj}", LayerClass.FEEDFORWARD, (ffn, hidden)
            ))
        layers.append(LayerSpec(f"block{i}.ffn.down", LayerClass.FEEDFORWARD, (hidden, ffn)))
    layers.append(LayerSpec("output.proj", LayerClass.OUTPUT, (vocab, hidden)))
    return ModelManifest(tuple(layers))


def load_manifest(path) -> ModelManifest:
    """Read a manifest JSON file: [{"name", "class", "shape"}, ...]."""
    raw = read_json_records(path, {"name": str, "class": str, "shape": list[int]})
    layers = []
    for i, item in enumerate(raw):
        if any(dim < 0 for dim in item["shape"]):
            raise ValueError(f"{path}: entry {i} 'shape': {item['shape']} has a negative dim")
        try:
            layer_class = LayerClass(item["class"])
        except ValueError as exc:
            raise ValueError(f"{path}: entry {i} 'class': {exc}") from None
        layers.append(LayerSpec(
            name=item["name"],
            layer_class=layer_class,
            shape=tuple(item["shape"]),
        ))
    return ModelManifest(tuple(layers))


# Quantized checkpoint container: 8-byte magic, u32 little-endian header
# length, UTF-8 JSON header (manifest digest, policy, block size, per-layer
# segment table), then the per-layer code and scale segments in table order.
CHECKPOINT_MAGIC = b"MSQCKPT1"
F16_MAX = float(np.finfo(np.float16).max)  # 65504; 16-bit layers are stored as float16


def write_checkpoint(path, manifest: ModelManifest, policy: PrecisionPolicy,
                     weights: dict[str, np.ndarray]) -> QuantizationPlan:
    """Quantize every layer under the policy and write the container.

    The segment table comes from apply_policy, so the header is written
    first and each layer's segment as soon as it is quantized; no more than
    one layer's codes are held at a time. The bytes go to a temporary file
    beside path, which replaces path only once complete: on any error the
    temporary file is removed and a file already at path is left as it was.
    """
    plan = apply_policy(manifest, policy)
    header = json.dumps({
        "manifest_digest": manifest.digest(),
        "policy": {c.value: b for c, b in policy.bits.items()},
        "block_size": policy.block_size,
        "layers": [
            {"name": lp.name, "bits": lp.bits, "shape": list(spec.shape),
             "codes_len": lp.code_bytes, "scales_len": lp.scale_bytes}
            for spec, lp in zip(manifest.layers, plan.layers)
        ],
    }, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for spec, layer_plan in zip(manifest.layers, plan.layers):
                _write_layer(fh, spec, layer_plan.bits, policy.block_size, weights)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return plan


def _write_layer(fh, spec: LayerSpec, bits: int, block_size: int,
                 weights: dict[str, np.ndarray]) -> None:
    w = _layer_weight(weights, spec.name, spec.params)
    if bits == 16:
        # NaN fails the compare too; float16 would store inf or NaN.
        if not np.all(np.abs(w) <= F16_MAX):
            raise ValueError(f"{spec.name}: weight is non-finite or beyond "
                             f"the float16 range (+-{F16_MAX:g})")
        fh.write(w.astype("<f2").tobytes())
    elif w.size:  # an empty layer has no codes and no scales
        qt = quantize_tensor(w, "nf4" if bits == 4 else "int8", block_size)
        fh.write(qt.data)
        fh.write(qt.scales.astype("<f4").tobytes())


def _layer_table(path, header) -> list[dict]:
    """The header's layer entries, each checked against the format: a name
    no other entry has, 4, 8 or 16 bits, a shape of non-negative integers,
    and integer segment lengths equal to what those and the block size give."""
    typed_fields(header, {"layers": list[object]}, f"{path}: header")
    names = set()
    for i, entry in enumerate(header["layers"]):
        typed_fields(entry, {"name": str}, f"{path}: layer {i}")
        where = f"{path}: layer {entry['name']!r}"
        if entry["name"] in names:
            raise ValueError(f"{where}: name repeats an earlier entry's")
        names.add(entry["name"])
        typed_fields(entry, {"bits": int, "shape": list[int], "codes_len": int,
                             "scales_len": int}, where)
        bits, shape = entry["bits"], entry["shape"]
        if bits not in (4, 8, 16):
            raise ValueError(f"{where}: bits {bits!r} is not 4, 8 or 16")
        if any(d < 0 for d in shape):
            raise ValueError(f"{where}: shape {shape!r} is not a list of non-negative integers")
        block_size = header.get("block_size")
        if bits != 16 and not (type(block_size) is int and block_size >= 1):
            raise ValueError(f"{where}: block size {block_size!r} is not a positive integer")
        want = _segment_lengths(math.prod(shape), bits, block_size)
        if (entry["codes_len"], entry["scales_len"]) != want:
            raise ValueError(
                f"{where}: codes_len {entry['codes_len']!r} and scales_len "
                f"{entry['scales_len']!r} disagree with {bits} bits, shape {shape} "
                f"and block size {block_size}, which give {want[0]} and {want[1]}"
            )
    return header["layers"]


class CheckpointWeights(Mapping):
    """A read checkpoint's layers by name, in table order. Each lookup
    decodes its layer afresh from the mapped file into a new float64 array
    and keeps nothing, so a caller that takes one layer at a time holds one
    decoded layer at a time."""

    def __init__(self, layers: dict[str, QuantizedTensor | np.ndarray]):
        self._layers = layers  # a QuantizedTensor, or a float16 array view

    def __getitem__(self, name: str) -> np.ndarray:
        layer = self._layers[name]
        if isinstance(layer, QuantizedTensor):
            return dequantize(layer)
        return layer.astype(np.float64)

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


def read_checkpoint(path) -> tuple[dict, CheckpointWeights]:
    """Returns (header dict, the layers as a read-only CheckpointWeights).

    The file is mapped read-only, not read, and checked in full before this
    returns: the magic, the lengths, the header, every table entry, every
    layer's scales and every 16-bit weight, so a lookup never raises. Codes
    and scales stay in the map until a layer is looked up. write_checkpoint
    only ever renames a new file over path, so a mapping keeps decoding the
    bytes it was opened on; truncating the file in place under a live
    mapping is not supported. Each live mapping holds one duplicated file
    descriptor until it is dropped.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap refuses an empty file
            raise ValueError(f"{path}: not a quantized checkpoint")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if mapped[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a quantized checkpoint")
    if len(mapped) < 12:
        raise ValueError(f"{path}: truncated checkpoint: no header length")
    (header_len,) = struct.unpack("<I", mapped[8:12])
    offset = 12 + header_len
    if offset > len(mapped):
        raise ValueError(f"{path}: truncated checkpoint: header runs past end of file")
    try:
        header = loads(mapped[12:offset])
    except ValueError as exc:
        raise ValueError(f"{path}: header is not UTF-8 JSON: {exc}") from None
    table = _layer_table(path, header)
    segments = sum(e["codes_len"] + e["scales_len"] for e in table)
    if segments != len(mapped) - offset:
        raise ValueError(
            f"{path}: segments total {segments} bytes but {len(mapped) - offset} follow the header"
        )
    view = memoryview(mapped)  # segments are sliced without a copy
    layers = {}
    for entry in table:
        codes = view[offset:offset + entry["codes_len"]]
        offset += entry["codes_len"]
        scales = view[offset:offset + entry["scales_len"]]
        offset += entry["scales_len"]
        shape = tuple(entry["shape"])
        if entry["bits"] == 16:
            layer = np.frombuffer(codes, dtype="<f2").reshape(shape)
            if not np.isfinite(layer).all():
                raise ValueError(f"{path}: layer {entry['name']!r}: 16-bit weights "
                                 "must be finite")
            layers[entry["name"]] = layer
            continue
        try:
            layers[entry["name"]] = QuantizedTensor(
                kind="nf4" if entry["bits"] == 4 else "int8", data=codes,
                scales=np.frombuffer(scales, dtype="<f4"),
                shape=shape, block_size=header["block_size"],
            )
        except ValueError as exc:
            raise ValueError(f"{path}: layer {entry['name']!r}: {exc}") from None
    return header, CheckpointWeights(layers)
