"""Generation backends: a deterministic mock and an HTTP chat-completion client.

The mock derives its answer text and simulated service delay purely from
the prompt digest and a seed, so identical requests produce identical
responses and latencies regardless of call order. The remote client speaks
an OpenAI-compatible chat-completion API with a bounded timeout and one
backoff retry; each failure class raises its own exception type.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

from .jsonio import loads, typed


class RemoteEngineError(RuntimeError):
    """Base class for remote-generation failures."""


class RemoteEngineTimeout(RemoteEngineError):
    pass


class RemoteEngineHTTPError(RemoteEngineError):
    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"remote engine returned HTTP {status} {detail}".rstrip())
        self.status = status


class RemoteEngineProtocolError(RemoteEngineError):
    pass


def mock_engine_generate(prompt: str, seed: int = 0, category: str = "") -> str:
    """Deterministic answer text tagged with the query category.

    The body is a hex digest of (seed, prompt), so distinct prompts collide
    only with negligible probability and repeat calls are byte-identical.
    """
    digest = hashlib.sha256(f"{seed}:{prompt}".encode("utf-8")).hexdigest()
    tag = category or "general"
    return f"[category:{tag}] mock-answer:{digest[:24]}"


def mock_engine_delay_s(prompt: str, seed: int, mean_delay_ms: float) -> float:
    """Simulated service time for the mock engine, in seconds.

    Drawn from an exponential with the configured mean, using the prompt
    digest as the randomness source so the value is a pure function of
    (prompt, seed). A zero mean yields exactly zero delay.
    """
    if mean_delay_ms <= 0:
        return 0.0
    digest = hashlib.sha256(f"delay:{seed}:{prompt}".encode("utf-8")).digest()
    u = (int.from_bytes(digest[:8], "little") + 1) / (2**64 + 2)
    return (mean_delay_ms / 1000.0) * -math.log(1.0 - u)


@dataclass(frozen=True)
class MockEngine:
    """Test double standing in for a local inference engine."""

    seed: int = 0
    mean_delay_ms: float = 0.0

    def generate(self, prompt: str, category: str = "") -> tuple[str, float]:
        """Returns (answer text, simulated delay in seconds)."""
        delay = mock_engine_delay_s(prompt, self.seed, self.mean_delay_ms)
        return mock_engine_generate(prompt, self.seed, category), delay


def remote_engine_generate(prompt: str, endpoint: str, model: str,
                           timeout_s: float = 10.0,
                           retry_backoff_s: float = 0.2) -> str:
    """One chat-completion round trip with a single retry.

    POSTs to {endpoint}/v1/chat/completions and extracts
    choices[0].message.content. Timeouts, non-2xx statuses, and malformed
    bodies raise RemoteEngineTimeout, RemoteEngineHTTPError, and
    RemoteEngineProtocolError respectively; the first failure of any kind
    triggers exactly one backoff retry.
    """
    # Imported here: at module level, urllib.request would add ssl, http.client
    # and email (about 3 MB) to every process that loads a config.
    import urllib.error
    import urllib.request

    url = endpoint.rstrip("/") + "/v1/chat/completions"
    body = json.dumps({
        "model": model,
        "messages": [{"role": "user", "content": prompt}],
    }).encode("utf-8")

    last_error: RemoteEngineError | None = None
    for attempt in range(2):
        if attempt:
            time.sleep(retry_backoff_s)
        try:
            request = urllib.request.Request(
                url, data=body, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(request, timeout=timeout_s) as response:
                payload = response.read()
        except urllib.error.HTTPError as exc:
            last_error = RemoteEngineHTTPError(exc.code, exc.reason or "")
        except TimeoutError:
            last_error = RemoteEngineTimeout(f"no response within {timeout_s}s")
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                last_error = RemoteEngineTimeout(f"no response within {timeout_s}s")
            else:
                last_error = RemoteEngineError(f"connection failed: {exc.reason}")
        except OSError as exc:
            last_error = RemoteEngineError(f"connection failed: {exc}")
        else:
            try:
                return typed(loads(payload)["choices"][0]["message"]["content"], str)
            except (ValueError, LookupError, TypeError):  # InvalidJSON is a ValueError
                last_error = RemoteEngineProtocolError("response body is not a chat completion")
    raise last_error
