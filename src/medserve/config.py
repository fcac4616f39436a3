"""Service configuration: one versioned JSON document drives everything.

The packaged defaults carry cache, quantization, hardware, workload,
engine, and deployment-mode settings. Each setting's default is declared
once, on its dataclass; a key the document leaves out takes it. Unknown
schema versions, missing required keys, sections that are not JSON
objects and values of the wrong JSON type are rejected with the offending
key named; values are type-checked, never cast. Unknown keys and sections
are ignored.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

from .cache import SimilarityConfig
from .engines import MockEngine
from .jsonio import read_file, typed
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

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if not (self.disk_dir is None or isinstance(self.disk_dir, str)):
            raise ValueError(f"cache disk_dir must be a string or null, not {self.disk_dir!r}")


@dataclass(frozen=True)
class RuntimeSettings:
    """Plan-cache bucketing granularity and the warm-up shape list."""

    plan_bucket: int = 32
    warmup_shapes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.plan_bucket < 1:
            raise ValueError("plan_bucket must be >= 1")
        shapes = tuple(tuple(shape) for shape in self.warmup_shapes)
        if any(len(shape) != 2 or min(shape) < 1 for shape in shapes):
            raise ValueError("warmup_shapes must be [seq_len, batch] pairs, each >= 1")
        object.__setattr__(self, "warmup_shapes", shapes)


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


def _typed(doc: dict, key: str, kind):
    """doc[key] checked to be a JSON value of kind (see jsonio.typed)."""
    try:
        return typed(doc[key], kind)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _require(doc: dict, key: str, kind=object):
    if key not in doc:
        raise ConfigError(f"missing required config key {key!r}")
    return _typed(doc, key, kind)


def _section(doc: dict, key: str, required: bool = False) -> dict:
    """The JSON object under key; an absent optional section reads as {}."""
    section = _require(doc, key) if required else doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object")
    return section


def _given(section: dict, **kinds) -> dict:
    """The type-checked values of the keys the section gives. Keys it leaves
    out are not passed on, so they take the defaults their dataclass
    declares."""
    return {key: _typed(section, key, kind) for key, kind in kinds.items() if key in section}


def _parse(doc: dict) -> ServiceConfig:
    version = _require(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")

    try:
        cache_doc = _section(doc, "cache", required=True)
        cache = CacheSettings(
            capacity=_require(cache_doc, "capacity", int),
            similarity=SimilarityConfig(**_given(cache_doc, alpha=float, tau=float)),
            disk_dir=cache_doc.get("disk_dir"),
        )

        quant_doc = _section(doc, "quantization")
        bits = _given(_section(quant_doc, "bits"), **{cls.value: int for cls in LayerClass})
        default_bits = PrecisionPolicy().bits
        quantization = PrecisionPolicy(
            bits={cls: bits.get(cls.value, default_bits[cls]) for cls in LayerClass},
            **_given(quant_doc, block_size=int),
        )

        hw_doc = _section(doc, "hardware", required=True)
        hardware = HardwareEnv(
            accelerator_memory_bytes=_require(hw_doc, "accelerator_memory_bytes", int),
        )

        wl_doc = _section(doc, "workload", required=True)
        workload = WorkloadProfile(
            mean_prompt_tokens=_require(wl_doc, "mean_prompt_tokens", float),
            mean_output_tokens=_require(wl_doc, "mean_output_tokens", float),
        )

        engines_doc = _require(doc, "engines")
        if not isinstance(engines_doc, list) or not all(isinstance(e, dict) for e in engines_doc):
            raise ConfigError("config key 'engines' must be a JSON list of objects")
        engines = tuple(
            EngineProfile(
                id=_require(e, "id", str),
                base_rate_tokens_per_s=_require(e, "base_rate_tokens_per_s", float),
                request_overhead_s=_require(e, "request_overhead_s", float),
                memory_bytes=_require(e, "memory_bytes", int),
            )
            for e in engines_doc
        )
        if not engines:
            raise ConfigError("config key 'engines' must list at least one engine")

        weights = DecisionWeights(**_given(
            _section(doc, "decision_weights"), performance=float, fit=float, cost=float,
        ))

        mc_doc = _section(doc, "mode_candidates", required=True)
        candidates = []
        for mode in ("adapter", "merged"):
            m_doc = _section(mc_doc, mode, required=True)
            candidates.append(ModeCandidate(
                mode=mode,
                performance=_require(m_doc, "performance", float),
                fit=_require(m_doc, "fit", float),
                cost=_require(m_doc, "cost", float),
            ))

        paths = {key: Path(_typed(doc, key, str)) for key in ("lexicon_path", "templates_path")
                 if doc.get(key) is not None}
        runtime = RuntimeSettings(**_given(
            _section(doc, "runtime"), plan_bucket=int, warmup_shapes=list[list[int]],
        ))
        mock = MockEngine(**_given(_section(doc, "mock_engine"),
                                   seed=int, mean_delay_ms=float))
        remote = None
        if doc.get("remote_engine"):
            r = _section(doc, "remote_engine")
            remote = RemoteEngineSettings(
                endpoint=_require(r, "endpoint", str),
                model=_require(r, "model", str),
                **_given(r, timeout_s=float, retry_backoff_s=float),
            )

        return ServiceConfig(
            cache=cache,
            quantization=quantization,
            hardware=hardware,
            workload=workload,
            engines=engines,
            decision_weights=weights,
            mode_candidates=tuple(candidates),
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
    doc = read_file(path, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _parse(doc)
