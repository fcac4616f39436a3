"""Low-rank adapter arithmetic: forward pass, merging, and stabilized SVD.

Adapters hold a factor pair (B: d x r, A: r x k) whose product, scaled by
alpha/rank, is the weight increment applied on top of a frozen base matrix.
The stabilized-SVD update rebuilds that increment from its truncated
singular decomposition plus a condition-number-adaptive ridge term, which
keeps the increment numerically tame when the factor product is poorly
conditioned. It takes one SVD of the product: the kept triplets and the
condition number both come from it.

All matrices are 2-D float64 numpy arrays; operations are pure. The JSON
adapter container is read with every field type-checked, never cast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonio import read_file, typed_fields

# Relative singular-value cutoff: components below sigma_max * EPS_TRUNC are
# treated as numerically insignificant and dropped from the reconstruction.
EPS_TRUNC = 1e-10

# Singular values below this are indistinguishable from zero in float64;
# condition numbers involving them are reported as +inf.
SIGMA_FLOOR = 1e-300


class DimensionError(ValueError):
    """Raised when matrix/vector shapes are incompatible."""


def _as_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class LoraAdapter:
    """Low-rank factor pair with rank and scale; increment is (alpha/rank)*B@A."""

    b: np.ndarray
    a: np.ndarray
    rank: int
    alpha: float

    def __post_init__(self):
        b = _as_matrix(self.b, "B")
        a = _as_matrix(self.a, "A")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        if self.rank <= 0:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if b.shape[1] != self.rank or a.shape[0] != self.rank:
            raise DimensionError(
                f"factor shapes {b.shape} x {a.shape} inconsistent with rank {self.rank}"
            )
        d, k = b.shape[0], a.shape[1]
        if self.rank > min(d, k):
            raise DimensionError(f"rank {self.rank} exceeds min dim of {d}x{k} target")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def delta(self) -> np.ndarray:
        """Scaled weight increment (alpha/rank) * B @ A."""
        return self.scaling * (self.b @ self.a)


@dataclass(frozen=True)
class StableSvdConfig:
    """Truncation rank plus the adaptive-ridge knobs."""

    rank: int
    lambda0: float = 1e-6
    kappa_max: float = 1e6

    def __post_init__(self):
        if self.rank <= 0:
            raise ValueError("rank must be positive")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be >= 0")
        if self.kappa_max <= 1:
            raise ValueError("kappa_max must be > 1")


def _fitted(w0, adapter: LoraAdapter) -> np.ndarray:
    """W0 as a matrix, checked to have the adapter's d x k shape."""
    w0 = _as_matrix(w0, "W0")
    if adapter.b.shape[0] != w0.shape[0] or adapter.a.shape[1] != w0.shape[1]:
        raise DimensionError(
            f"adapter {adapter.b.shape[0]}x{adapter.a.shape[1]} does not fit W0 {w0.shape}"
        )
    return w0


def lora_forward(w0, adapter: LoraAdapter, x) -> np.ndarray:
    """h = W0 @ x + (alpha/rank) * B @ (A @ x), without forming B @ A."""
    w0 = _fitted(w0, adapter)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"x must be a vector, got shape {x.shape}")
    if x.shape[0] != w0.shape[1]:
        raise DimensionError(f"x length {x.shape[0]} != W0 cols {w0.shape[1]}")
    return w0 @ x + adapter.scaling * (adapter.b @ (adapter.a @ x))


def merge_adapter(w0, adapter: LoraAdapter) -> np.ndarray:
    """W_merged = W0 + (alpha/rank) * B @ A."""
    return _fitted(w0, adapter) + adapter.delta()


def _kappa(sigma: np.ndarray) -> float:
    """sigma_max / sigma_min over the nonzero entries of a descending
    singular-value vector; +inf when there are none or the smallest
    underflows SIGMA_FLOOR."""
    nonzero = sigma[sigma > 0.0]
    if nonzero.size == 0 or nonzero[-1] < SIGMA_FLOOR:
        return math.inf
    return float(nonzero[0] / nonzero[-1])


def condition_number(m) -> float:
    """sigma_max / sigma_min over the nonzero singular values of m.

    Returns +inf when the smallest nonzero singular value underflows the
    float64 floor. The zero matrix is rejected.
    """
    sigma = np.linalg.svd(_as_matrix(m, "M"), compute_uv=False)
    if not sigma.any():
        raise ValueError("condition number of the zero matrix is undefined")
    return _kappa(sigma)


def stable_svd_update(b, a, cfg: StableSvdConfig) -> np.ndarray:
    """Rebuild the increment B @ A from its truncated SVD plus a ridge term.

    Keeps the top cfg.rank singular triplets, discards components below
    sigma_max * EPS_TRUNC, and adds lambda * I where
    lambda = lambda0 * min(kappa(BA), kappa_max) / kappa_max, with kappa
    taken from the same SVD (+inf for the zero product). For rectangular
    products the identity has ones on the main diagonal.
    """
    b = _as_matrix(b, "B")
    a = _as_matrix(a, "A")
    if b.shape[1] != a.shape[0]:
        raise DimensionError(f"inner dims differ: B {b.shape} vs A {a.shape}")
    product = b @ a
    d, k = product.shape
    if cfg.rank > min(d, k):
        raise DimensionError(f"rank {cfg.rank} exceeds min dim of {d}x{k} product")

    u, sigma, vt = np.linalg.svd(product, full_matrices=False)
    # sigma is descending, so the kept triplets are a prefix of the top rank.
    r = int(np.count_nonzero(sigma[:cfg.rank] > sigma[0] * EPS_TRUNC))
    delta = (u[:, :r] * sigma[:r]) @ vt[:r]
    if cfg.lambda0 > 0:
        lam = cfg.lambda0 * min(_kappa(sigma), cfg.kappa_max) / cfg.kappa_max
        delta += lam * np.eye(d, k)
    return delta


# Text container for adapter save/load. Entries are serialized through
# Python float repr, which round-trips float64 exactly at <= 17 significant
# digits.
ADAPTER_FORMAT = "lora-adapter/1"


def save_adapter(adapter: LoraAdapter, path) -> None:
    """Write an adapter to a JSON container; round-trips bit-exact."""
    payload = {
        "format": ADAPTER_FORMAT,
        "d": adapter.b.shape[0],
        "k": adapter.a.shape[1],
        "rank": adapter.rank,
        "alpha": adapter.alpha,
        "b": adapter.b.tolist(),
        "a": adapter.a.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_adapter(path) -> LoraAdapter:
    """Read an adapter container; every field is type-checked, not cast.

    Raises ValueError naming the file, and the key at fault.
    """
    payload = read_file(path)
    typed_fields(payload, {"format": object}, f"{path}: adapter container")
    if payload["format"] != ADAPTER_FORMAT:
        raise ValueError(f"{path}: unrecognized adapter container format")
    typed_fields(payload, {
        "d": int, "k": int, "rank": int, "alpha": float,
        "b": list[list[float]], "a": list[list[float]],
    }, f"{path}: adapter container")
    try:
        adapter = LoraAdapter(
            b=payload["b"], a=payload["a"], rank=payload["rank"], alpha=payload["alpha"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if adapter.b.shape != (payload["d"], payload["rank"]):
        raise ValueError(f"{path}: B shape disagrees with header dims")
    if adapter.a.shape != (payload["rank"], payload["k"]):
        raise ValueError(f"{path}: A shape disagrees with header dims")
    return adapter
