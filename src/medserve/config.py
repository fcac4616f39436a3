"""Service configuration: one versioned JSON document drives everything.

The packaged defaults carry cache, quantization, hardware, workload,
engine, and deployment-mode settings. Each setting's default is declared
once, on its dataclass; a key the document leaves out takes it. Unknown
schema versions, missing required keys and sections that are not JSON
objects are rejected with the offending key named; unknown keys and
sections are ignored.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field
from pathlib import Path

from .cache import SimilarityConfig
from .engines import MockEngine
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
        if any(min(shape) < 1 for shape in self.warmup_shapes):
            raise ValueError("warmup_shapes seq_len and batch must be >= 1")


@dataclass(frozen=True)
class RemoteEngineSettings:
    endpoint: str
    model: str
    timeout_s: float = 10.0
    retry_backoff_s: float = 0.2

    def __post_init__(self):
        if not (self.timeout_s > 0 and self.retry_backoff_s >= 0):
            raise ValueError("remote timeout_s must be > 0 and retry_backoff_s >= 0")


@dataclass(frozen=True)
class ServiceConfig:
    cache: CacheSettings
    quantization: PrecisionPolicy
    hardware: HardwareEnv
    workload: WorkloadProfile
    engines: tuple[EngineProfile, ...]
    decision_weights: DecisionWeights
    mode_candidates: tuple[ModeCandidate, ModeCandidate]
    lexicon_path: Path = field(default_factory=lambda: packaged_data("lexicon.json"))
    templates_path: Path = field(default_factory=lambda: packaged_data("templates.json"))
    host: str = "127.0.0.1"
    port: int = 8632
    runtime: RuntimeSettings = field(default_factory=RuntimeSettings)
    mock_engine: MockEngine = field(default_factory=MockEngine)
    remote_engine: RemoteEngineSettings | None = None

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError("listen port must lie in [0, 65535]")


def packaged_data(name: str) -> Path:
    """Path of a fixture file shipped inside the package."""
    return Path(str(importlib.resources.files("medserve") / "data" / name))


def default_config_path() -> Path:
    return packaged_data("default_config.json")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required config key {key!r}")
    return doc[key]


def _section(doc: dict, key: str, required: bool = False) -> dict:
    """The JSON object under key; an absent optional section reads as {}."""
    section = _require(doc, key) if required else doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object")
    return section


def _given(section: dict, **convert) -> dict:
    """The converted values of the keys the section gives. Keys it leaves out
    are not passed on, so they take the defaults their dataclass declares."""
    return {key: conv(section[key]) for key, conv in convert.items() if key in section}


def _parse(doc: dict) -> ServiceConfig:
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")

    try:
        cache_doc = _section(doc, "cache", required=True)
        cache = CacheSettings(
            capacity=int(_require(cache_doc, "capacity")),
            similarity=SimilarityConfig(**_given(cache_doc, alpha=float, tau=float)),
            disk_dir=cache_doc.get("disk_dir"),
        )

        quant_doc = _section(doc, "quantization")
        bits_doc = _section(quant_doc, "bits")
        default_bits = PrecisionPolicy().bits
        quantization = PrecisionPolicy(
            bits={cls: int(bits_doc.get(cls.value, default_bits[cls])) for cls in LayerClass},
            **_given(quant_doc, block_size=int),
        )

        hw_doc = _section(doc, "hardware", required=True)
        hardware = HardwareEnv(
            accelerator_memory_bytes=int(_require(hw_doc, "accelerator_memory_bytes")),
        )

        wl_doc = _section(doc, "workload", required=True)
        workload = WorkloadProfile(
            mean_prompt_tokens=float(_require(wl_doc, "mean_prompt_tokens")),
            mean_output_tokens=float(_require(wl_doc, "mean_output_tokens")),
        )

        engines_doc = _require(doc, "engines")
        if not isinstance(engines_doc, list) or not all(isinstance(e, dict) for e in engines_doc):
            raise ConfigError("config key 'engines' must be a JSON list of objects")
        engines = tuple(
            EngineProfile(
                id=str(_require(e, "id")),
                base_rate_tokens_per_s=float(_require(e, "base_rate_tokens_per_s")),
                request_overhead_s=float(_require(e, "request_overhead_s")),
                memory_bytes=int(_require(e, "memory_bytes")),
            )
            for e in engines_doc
        )
        if not engines:
            raise ConfigError("config key 'engines' must list at least one engine")

        weights = DecisionWeights(**_given(
            _section(doc, "decision_weights"), performance=float, fit=float, cost=float,
        ))

        mc_doc = _section(doc, "mode_candidates", required=True)
        candidates = tuple(
            ModeCandidate(
                mode=mode,
                performance=float(_require(_require(mc_doc, mode), "performance")),
                fit=float(_require(mc_doc[mode], "fit")),
                cost=float(_require(mc_doc[mode], "cost")),
            )
            for mode in ("adapter", "merged")
        )

        paths = {key: Path(doc[key]) for key in ("lexicon_path", "templates_path")
                 if doc.get(key) is not None}
        runtime = RuntimeSettings(**_given(
            _section(doc, "runtime"), plan_bucket=int,
            warmup_shapes=lambda pairs: tuple((int(s), int(b)) for s, b in pairs),
        ))
        mock = MockEngine(**_given(_section(doc, "mock_engine"),
                                   seed=int, mean_delay_ms=float))
        remote = None
        if doc.get("remote_engine"):
            r = _section(doc, "remote_engine")
            remote = RemoteEngineSettings(
                endpoint=str(_require(r, "endpoint")),
                model=str(_require(r, "model")),
                **_given(r, timeout_s=float, retry_backoff_s=float),
            )

        return ServiceConfig(
            cache=cache,
            quantization=quantization,
            hardware=hardware,
            workload=workload,
            engines=engines,
            decision_weights=weights,
            mode_candidates=candidates,
            runtime=runtime,
            mock_engine=mock,
            remote_engine=remote,
            **paths,
            **_given(_section(doc, "listen"), host=str, port=int),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


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
