"""End-to-end query service: classify, prompt, cache, generate, respond.

MedService wires the pipeline together behind one handle_query call; the
HTTP layer is a thin stdlib server exposing POST /v1/query, GET /v1/metrics,
and GET /healthz. Engine choice and deployment mode are decided once at
startup (and again on explicit reload), not per request.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .cache import TwoLevelCache
from .config import ServiceConfig
from .engines import RemoteEngineError, remote_engine_generate
from .query_pipeline import (
    KeywordLexicon,
    PromptTemplate,
    build_prompt,
    classify,
    load_lexicon,
    load_templates,
    tokenize,
)
from .runtime import PlanCache, decide_mode, select_engine, shape_bucket

log = logging.getLogger(__name__)

MAX_BODY_BYTES = 64 * 1024


class BadRequest(ValueError):
    """Client-side error; maps to HTTP 400."""


class EngineFailure(RuntimeError):
    """Generation backend failed; maps to HTTP 502."""


@dataclass(frozen=True)
class QueryResponse:
    answer: str
    category: str
    cache_tier: str  # "memory" | "disk" | "miss"
    latency_ms: float
    engine_id: str
    mode: str
    simulated_ms: float  # deterministic service time (mock delay; 0 on hits)

    def as_dict(self) -> dict:
        return {
            "answer": self.answer,
            "category": self.category,
            "cache": self.cache_tier,
            "latency_ms": self.latency_ms,
            "engine": self.engine_id,
            "mode": self.mode,
        }


class MedService:
    """The serving pipeline with a pluggable generation backend."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.lexicon: KeywordLexicon = load_lexicon(config.lexicon_path)
        self.templates: PromptTemplate = load_templates(config.templates_path)
        self.cache = TwoLevelCache(
            capacity=config.cache.capacity,
            disk_dir=config.cache.disk_dir,
            config=config.cache.similarity,
        )
        self._metrics_lock = threading.Lock()
        self.request_count = 0
        self.category_counts: dict[str, int] = {}
        self.engine_id = ""
        self.mode = ""
        # Execution plans are opaque tokens keyed by padded prompt shape;
        # warm-up shapes come from config, new shapes extend the cache.
        self.plans = PlanCache()
        self.plans.warm_up(
            (shape_bucket(seq, batch, config.runtime.plan_bucket)
             for seq, batch in config.runtime.warmup_shapes),
            self._build_plan,
        )
        self.reload_decisions()

    @staticmethod
    def _build_plan(key):
        return f"plan:{key.seq_len}x{key.batch}"

    def reload_decisions(self):
        """Re-run engine selection and the deployment-mode decision."""
        self.engine_id = select_engine(
            self.config.engines, self.config.hardware, self.config.workload
        )
        self.mode = decide_mode(self.config.mode_candidates, self.config.decision_weights)

    def _generate(self, prompt: str, category: str) -> tuple[str, float]:
        remote = self.config.remote_engine
        if remote is not None:
            try:
                return remote_engine_generate(
                    prompt, remote.endpoint, remote.model,
                    timeout_s=remote.timeout_s,
                    retry_backoff_s=remote.retry_backoff_s,
                ), 0.0
            except RemoteEngineError as exc:
                raise EngineFailure(str(exc)) from exc
        return self.config.mock_engine.generate(prompt, category)

    def handle_query(self, text: str) -> QueryResponse:
        """classify -> prompt -> cache lookup -> generate on miss -> insert."""
        start = time.perf_counter()
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("request text must be a non-empty string")

        classified = classify(text, self.lexicon)
        category = classified.category.value
        with self._metrics_lock:
            self.request_count += 1
            self.category_counts[category] = self.category_counts.get(category, 0) + 1

        hit = self.cache.lookup(text)
        if hit is not None:
            answer, tier, delay_s = hit.response, hit.tier, 0.0
        else:
            prompt = build_prompt(classified, self.templates)
            key = shape_bucket(
                max(len(tokenize(prompt)), 1), 1, self.config.runtime.plan_bucket
            )
            self.plans.get_or_build(key, self._build_plan)
            answer, delay_s = self._generate(prompt, category)
            tier = "miss"
            # Insert only after a successful generation so backend failures
            # cannot poison the cache.
            self.cache.insert(text, answer, category)
        return QueryResponse(
            answer=answer,
            category=category,
            cache_tier=tier,
            latency_ms=(time.perf_counter() - start) * 1000.0,
            engine_id=self.engine_id,
            mode=self.mode,
            simulated_ms=delay_s * 1000.0,
        )

    def metrics(self) -> dict:
        with self._metrics_lock:
            return {
                "requests": self.request_count,
                "cache": self.cache.metrics(),
                "categories": dict(sorted(self.category_counts.items())),
                "plans": asdict(self.plans.stats),
                "engine": self.engine_id,
                "mode": self.mode,
            }

    def close(self):
        self.cache.close()


class _Handler(BaseHTTPRequestHandler):
    service: MedService = None  # set by make_server
    timeout = 10.0  # seconds a client may stall on the socket mid-request

    def _send(self, status: int, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # client went away; nothing to deliver
            pass

    def do_GET(self):
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        elif self.path == "/v1/metrics":
            self._send(200, self.service.metrics())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        if self.path != "/v1/query":
            self._send(404, {"error": "not found"})
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
            return
        if int(length) > MAX_BODY_BYTES:
            self._send(413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
            return
        try:
            body = self.rfile.read(int(length))
        except TimeoutError:
            self._send(408, {"error": "request body not received in time"})
            return
        try:
            doc = json.loads(body.decode("utf-8"))
            if not isinstance(doc, dict):
                raise BadRequest("request body must be a JSON object")
            response = self.service.handle_query(doc.get("text", ""))
        except (json.JSONDecodeError, UnicodeDecodeError, BadRequest) as exc:
            self._send(400, {"error": str(exc)})
        except EngineFailure as exc:
            self._send(502, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unhandled error")
            self._send(500, {"error": str(exc)})
        else:
            self._send(200, response.as_dict())

    def log_message(self, fmt, *args):
        log.debug("http: " + fmt, *args)


def make_server(service: MedService, host: str | None = None,
                port: int | None = None) -> ThreadingHTTPServer:
    """Bind the HTTP server; port 0 picks a free port (server_address[1])."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    address = (host or service.config.host,
               service.config.port if port is None else port)
    return ThreadingHTTPServer(address, handler)


def serve_forever(config: ServiceConfig, host: str | None = None,
                  port: int | None = None):
    service = MedService(config)
    server = make_server(service, host, port)
    log.info("serving on %s:%d (engine=%s mode=%s)",
             *server.server_address[:2], service.engine_id, service.mode)

    # SIGHUP re-runs engine selection and the mode decision without restart.
    try:
        import signal

        signal.signal(signal.SIGHUP, lambda *_: service.reload_decisions())
    except (ValueError, AttributeError, OSError):
        pass  # non-main thread or platform without SIGHUP

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("shutting down")
    finally:
        server.server_close()
        service.close()
