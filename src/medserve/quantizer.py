"""Blockwise NF4/INT8 weight quantization with a mixed-precision layer policy.

Weights are flattened, cut into fixed-size blocks, and each block is scaled
by its absolute maximum. NF4 blocks store 4-bit indices into a 16-level
codebook placed at standard-normal quantiles; INT8 blocks store symmetric
absmax codes. A precision policy maps layer classes to bit widths, and the
memory planner prices a model manifest against the FP16 baseline.

Exactness contract: codes are computed in float64 on the whole padded block
array at once; scales are stored as float32, so a tensor whose absmax exceeds
the float32 range is rejected. An NF4 value equidistant from two levels takes
the lower index, as a first-minimum argmin over all 16 distances would. The
literal per-element loops in tests/oracles.py (nearest_level_codes,
int8_codes) are the reference the array path is tested against.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

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


def nf4_levels() -> np.ndarray:
    """The 16 NF4 codebook levels, ascending, as float64."""
    return np.array(NF4_LEVELS, dtype=np.float64)


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
        return int(np.prod(self.shape))


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
    data: bytes
    scales: np.ndarray  # float32, one per block
    shape: tuple[int, ...]
    block_size: int

    def __post_init__(self):
        if self.kind not in ("nf4", "int8"):
            raise ValueError(f"unknown quantization kind {self.kind!r}")
        n = int(np.prod(self.shape))
        data_len = (n + 1) // 2 if self.kind == "nf4" else n
        if len(self.data) != data_len:
            raise ValueError(f"expected {data_len} {self.kind} code bytes, got {len(self.data)}")
        expected = (n + self.block_size - 1) // self.block_size
        if self.scales.shape != (expected,):
            raise ValueError(f"expected {expected} scales, got {self.scales.shape}")
        if np.any(self.scales < 0):
            raise ValueError("scales must be non-negative")


def pack_nf4(codes: np.ndarray) -> bytes:
    """Two 4-bit codes per byte, low nibble first; odd tail padded with 0."""
    codes = np.asarray(codes, dtype=np.uint8)
    if np.any(codes > 15):
        raise ValueError("nf4 code out of range")
    if codes.size % 2:
        codes = np.append(codes, np.uint8(0))
    return (codes[0::2] | (codes[1::2] << 4)).tobytes()


def unpack_nf4(data: bytes, count: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(raw.size * 2, dtype=np.uint8)
    out[0::2] = raw & 0x0F
    out[1::2] = raw >> 4
    return out[:count]


def quantize_tensor(values, kind: str, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedTensor:
    """Blockwise quantization of an arbitrary-shape array.

    The flat tensor is zero-padded to (nblocks, block_size); the padding
    leaves each row's absmax unchanged and its codes are dropped.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    if kind not in ("nf4", "int8"):
        raise ValueError(f"unknown quantization kind {kind!r}")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    n = arr.size
    blocks = np.zeros((-(-n // block_size), block_size))
    blocks.reshape(-1)[:n] = arr.reshape(-1)
    scales = np.abs(blocks).max(axis=1)
    if np.any(scales > np.finfo(np.float32).max):
        raise ValueError("tensor absmax exceeds the float32 scale range")
    # all-zero rows divide by 1 and so land on the exact-zero level / code
    blocks /= np.where(scales > 0.0, scales, 1.0)[:, None]
    if kind == "nf4":
        levels = nf4_levels()
        hi = np.searchsorted(levels, blocks)
        hi = np.clip(hi, 1, len(levels) - 1, out=hi).astype(np.uint8)
        # the nearest level is hi - 1 or hi; <= keeps the lower index on ties
        codes = hi - (np.abs(levels[hi - 1] - blocks) <= np.abs(levels[hi] - blocks))
        data = pack_nf4(codes.reshape(-1)[:n])
    else:
        codes = np.clip(np.round(blocks * 127.0), -127, 127).astype(np.int8)
        data = codes.reshape(-1)[:n].tobytes()
    return QuantizedTensor(
        kind=kind, data=data, scales=scales.astype(np.float32),
        shape=arr.shape, block_size=block_size,
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Inverse of quantize_tensor; restores the original shape."""
    n = int(np.prod(qt.shape))
    out = np.zeros(qt.scales.size * qt.block_size)
    if qt.kind == "nf4":
        # nibbles are 0..15, so "clip" never clips; it just lets take() skip a buffer
        np.take(nf4_levels(), unpack_nf4(qt.data, n), out=out[:n], mode="clip")
    else:
        out[:n] = np.frombuffer(qt.data, dtype=np.int8)
    blocks = out.reshape(qt.scales.size, qt.block_size)
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
        if bits == 16:
            code_bytes = layer.params * 2
            scale_bytes = 0
        else:
            code_bytes = (layer.params * bits + 7) // 8
            blocks = (layer.params + policy.block_size - 1) // policy.block_size
            scale_bytes = blocks * SCALE_BYTES
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
        if layer_plan.name not in weights:
            raise ValueError(f"{layer_plan.name}: no weight given for this layer")
        w = np.asarray(weights[layer_plan.name], dtype=np.float64)
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
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ValueError(f"{path}: manifest must be a JSON list of layers")
    layers = []
    for item in raw:
        layers.append(LayerSpec(
            name=item["name"],
            layer_class=LayerClass(item["class"]),
            shape=tuple(int(d) for d in item["shape"]),
        ))
    return ModelManifest(tuple(layers))


# Quantized checkpoint container: 8-byte magic, u32 little-endian header
# length, UTF-8 JSON header (manifest digest, policy, block size, per-layer
# segment table), then the per-layer code and scale segments in table order.
CHECKPOINT_MAGIC = b"MSQCKPT1"
F16_MAX = float(np.finfo(np.float16).max)  # 65504; 16-bit layers are stored as float16


def write_checkpoint(path, manifest: ModelManifest, policy: PrecisionPolicy,
                     weights: dict[str, np.ndarray]) -> QuantizationPlan:
    plan = apply_policy(manifest, policy)
    segments = []
    table = []
    for spec, layer_plan in zip(manifest.layers, plan.layers):
        if spec.name not in weights:
            raise ValueError(f"{spec.name}: no weight given for this layer")
        w = np.asarray(weights[spec.name], dtype=np.float64)
        if w.size != spec.params:
            raise ValueError(f"{spec.name}: weight size {w.size} != manifest {spec.params}")
        if layer_plan.bits == 16:
            # NaN fails the compare too; float16 would store inf or NaN.
            if not np.all(np.abs(w) <= F16_MAX):
                raise ValueError(f"{spec.name}: weight is non-finite or beyond "
                                 f"the float16 range (+-{F16_MAX:g})")
            codes = w.astype("<f2").tobytes()
            scales = b""
        else:
            kind = "nf4" if layer_plan.bits == 4 else "int8"
            qt = quantize_tensor(w, kind, policy.block_size)
            codes = qt.data
            scales = qt.scales.astype("<f4").tobytes()
        segments.append(codes + scales)
        table.append({
            "name": layer_plan.name,
            "bits": layer_plan.bits,
            "shape": list(spec.shape),
            "codes_len": len(codes),
            "scales_len": len(scales),
        })
    header = json.dumps({
        "manifest_digest": manifest.digest(),
        "policy": {c.value: b for c, b in policy.bits.items()},
        "block_size": policy.block_size,
        "layers": table,
    }, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for seg in segments:
            fh.write(seg)
    return plan


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header dict, dequantized weights per layer)."""
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a quantized checkpoint")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated checkpoint: no header length")
    (header_len,) = struct.unpack("<I", blob[8:12])
    offset = 12 + header_len
    if offset > len(blob):
        raise ValueError(f"{path}: truncated checkpoint: header runs past end of file")
    header = json.loads(blob[12:offset].decode("utf-8"))
    segments = sum(e["codes_len"] + e["scales_len"] for e in header["layers"])
    if segments != len(blob) - offset:
        raise ValueError(
            f"{path}: segments total {segments} bytes but {len(blob) - offset} follow the header"
        )
    weights = {}
    for entry in header["layers"]:
        codes = blob[offset:offset + entry["codes_len"]]
        offset += entry["codes_len"]
        scales = blob[offset:offset + entry["scales_len"]]
        offset += entry["scales_len"]
        shape = tuple(entry["shape"])
        n = int(np.prod(shape))
        if entry["bits"] == 16:
            weights[entry["name"]] = np.frombuffer(codes, dtype="<f2").astype(np.float64).reshape(shape)
        else:
            kind = "nf4" if entry["bits"] == 4 else "int8"
            qt = QuantizedTensor(
                kind=kind, data=codes,
                scales=np.frombuffer(scales, dtype="<f4").astype(np.float32),
                shape=shape, block_size=header["block_size"],
            )
            weights[entry["name"]] = dequantize(qt)
    return header, weights
