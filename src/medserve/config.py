"""Service configuration: one versioned JSON document drives everything.

The packaged defaults carry cache, quantization, hardware, workload,
engine, and deployment-mode settings. Unknown schema versions and missing
required keys are rejected with the offending key named; unknown sections
are ignored.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field
from pathlib import Path

from .cache import SimilarityConfig
from .quantizer import LayerClass, PrecisionPolicy
from .runtime import (
    DecisionWeights,
    EngineProfile,
    HardwareEnv,
    ModeCandidate,
    WorkloadProfile,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CacheSettings:
    capacity: int
    similarity: SimilarityConfig
    disk_dir: str | None


@dataclass(frozen=True)
class RuntimeSettings:
    """Plan-cache bucketing granularity and the warm-up shape list."""

    plan_bucket: int = 32
    warmup_shapes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.plan_bucket < 1:
            raise ValueError("plan_bucket must be >= 1")


@dataclass(frozen=True)
class MockEngineSettings:
    seed: int = 0
    mean_delay_ms: float = 0.0


@dataclass(frozen=True)
class RemoteEngineSettings:
    endpoint: str
    model: str
    timeout_s: float = 10.0
    retry_backoff_s: float = 0.2


@dataclass(frozen=True)
class ServiceConfig:
    lexicon_path: str | None
    templates_path: str | None
    cache: CacheSettings
    quantization: PrecisionPolicy
    hardware: HardwareEnv
    workload: WorkloadProfile
    engines: tuple[EngineProfile, ...]
    decision_weights: DecisionWeights
    mode_candidates: tuple[ModeCandidate, ModeCandidate]
    host: str = "127.0.0.1"
    port: int = 8632
    runtime: RuntimeSettings = field(default_factory=RuntimeSettings)
    mock_engine: MockEngineSettings = field(default_factory=MockEngineSettings)
    remote_engine: RemoteEngineSettings | None = None


def packaged_data(name: str) -> Path:
    """Path of a fixture file shipped inside the package."""
    return Path(str(importlib.resources.files("medserve") / "data" / name))


def default_config_path() -> Path:
    return packaged_data("default_config.json")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required config key {key!r}")
    return doc[key]


def _parse(doc: dict) -> ServiceConfig:
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")

    cache_doc = _require(doc, "cache")
    try:
        cache = CacheSettings(
            capacity=int(_require(cache_doc, "capacity")),
            similarity=SimilarityConfig(
                alpha=float(cache_doc.get("alpha", 0.3)),
                tau=float(cache_doc.get("tau", 0.92)),
            ),
            disk_dir=cache_doc.get("disk_dir"),
        )

        quant_doc = doc.get("quantization", {})
        bits_doc = quant_doc.get("bits", {})
        bits = {
            cls: int(bits_doc.get(cls.value, PrecisionPolicy().bits[cls]))
            for cls in LayerClass
        }
        quantization = PrecisionPolicy(
            bits=bits, block_size=int(quant_doc.get("block_size", 64))
        )

        hw_doc = _require(doc, "hardware")
        hardware = HardwareEnv(
            accelerator_memory_bytes=int(_require(hw_doc, "accelerator_memory_bytes")),
            host_memory_bytes=int(_require(hw_doc, "host_memory_bytes")),
            cores=int(_require(hw_doc, "cores")),
            disk_read_bytes_per_s=float(_require(hw_doc, "disk_read_bytes_per_s")),
        )

        wl_doc = _require(doc, "workload")
        workload = WorkloadProfile(
            request_rate=float(_require(wl_doc, "request_rate")),
            mean_prompt_tokens=float(_require(wl_doc, "mean_prompt_tokens")),
            mean_output_tokens=float(_require(wl_doc, "mean_output_tokens")),
            category_mix=tuple(float(x) for x in _require(wl_doc, "category_mix")),
        )

        engines = tuple(
            EngineProfile(
                id=str(_require(e, "id")),
                supported_bits=tuple(int(b) for b in e.get("supported_bits", [4, 8, 16])),
                base_rate_tokens_per_s=float(_require(e, "base_rate_tokens_per_s")),
                request_overhead_s=float(_require(e, "request_overhead_s")),
                memory_bytes=int(_require(e, "memory_bytes")),
            )
            for e in _require(doc, "engines")
        )
        if not engines:
            raise ConfigError("config key 'engines' must list at least one engine")

        dw_doc = doc.get("decision_weights", {})
        weights = DecisionWeights(
            performance=float(dw_doc.get("performance", 1.0)),
            fit=float(dw_doc.get("fit", 1.0)),
            cost=float(dw_doc.get("cost", 1.0)),
        )

        mc_doc = _require(doc, "mode_candidates")
        candidates = tuple(
            ModeCandidate(
                mode=mode,
                performance=float(_require(_require(mc_doc, mode), "performance")),
                fit=float(_require(mc_doc[mode], "fit")),
                cost=float(_require(mc_doc[mode], "cost")),
            )
            for mode in ("adapter", "merged")
        )

        listen = doc.get("listen", {})
        rt_doc = doc.get("runtime", {})
        runtime = RuntimeSettings(
            plan_bucket=int(rt_doc.get("plan_bucket", 32)),
            warmup_shapes=tuple(
                (int(seq), int(batch)) for seq, batch in rt_doc.get("warmup_shapes", [])
            ),
        )
        mock_doc = doc.get("mock_engine", {})
        mock = MockEngineSettings(
            seed=int(mock_doc.get("seed", 0)),
            mean_delay_ms=float(mock_doc.get("mean_delay_ms", 0.0)),
        )
        remote = None
        if doc.get("remote_engine"):
            r = doc["remote_engine"]
            remote = RemoteEngineSettings(
                endpoint=str(_require(r, "endpoint")),
                model=str(_require(r, "model")),
                timeout_s=float(r.get("timeout_s", 10.0)),
                retry_backoff_s=float(r.get("retry_backoff_s", 0.2)),
            )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    return ServiceConfig(
        lexicon_path=doc.get("lexicon_path"),
        templates_path=doc.get("templates_path"),
        cache=cache,
        quantization=quantization,
        hardware=hardware,
        workload=workload,
        engines=engines,
        decision_weights=weights,
        mode_candidates=candidates,
        host=str(listen.get("host", "127.0.0.1")),
        port=int(listen.get("port", 8632)),
        runtime=runtime,
        mock_engine=mock,
        remote_engine=remote,
    )


def load_config(path=None) -> ServiceConfig:
    """Load and validate a service config; None loads the packaged defaults."""
    path = default_config_path() if path is None else Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _parse(doc)
