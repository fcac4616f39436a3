"""End-to-end query service: classify, prompt, cache, generate, respond.

MedService wires the pipeline together behind one handle_query call; the
HTTP layer is a thin stdlib server exposing POST /v1/query, GET /v1/metrics,
and GET /healthz. Engine choice and deployment mode are decided once at
startup (and again on explicit reload), not per request.

The server accepts connections and receives their requests on one thread,
then hands each received request to a fixed pool of POOL_WORKERS threads;
see PooledHTTPServer for the bounds and the 503.
"""

from __future__ import annotations

import io
import json
import logging
import queue
import re
import selectors
import socket
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer

from .cache import QueryFeatures, TwoLevelCache
from .config import ServiceConfig
from .engines import RemoteEngineError, remote_engine_generate
from .query_pipeline import (
    KeywordLexicon,
    PromptTemplate,
    build_prompt,
    classify,
    load_lexicon,
    load_templates,
    prompt_token_count,
)
from .runtime import PlanCache, decide_mode, select_engine, shape_bucket

log = logging.getLogger(__name__)

MAX_BODY_BYTES = 64 * 1024
_MAX_BODY_DIGITS = len(str(MAX_BODY_BYTES))
POOL_WORKERS = 16  # request threads; also the most engine calls in flight
INTAKE_SLOTS = 128  # connections whose request is still arriving
QUEUE_SLOTS = 64  # received requests waiting for a worker


def _content_length(value: str) -> int | None:
    """A Content-Length header value as a byte count, or None unless it is
    ASCII digits once stripped. int() refuses strings of over 4,300 digits,
    so a count with more digits than MAX_BODY_BYTES reads as
    MAX_BODY_BYTES + 1 without being converted."""
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    digits = value.lstrip("0") or "0"
    if len(digits) > _MAX_BODY_DIGITS:
        return MAX_BODY_BYTES + 1
    return int(digits)


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

        features = QueryFeatures(text, classified.tokens)
        hit = self.cache.lookup(text, features)
        if hit is not None:
            answer, tier, delay_s = hit.response, hit.tier, 0.0
        else:
            prompt = build_prompt(classified, self.templates)
            prompt_tokens = prompt_token_count(classified, self.templates)
            key = shape_bucket(max(prompt_tokens, 1), 1, self.config.runtime.plan_bucket)
            self.plans.get_or_build(key, self._build_plan)
            answer, delay_s = self._generate(prompt, category)
            tier = "miss"
            # Insert only after a successful generation so backend failures
            # cannot poison the cache.
            self.cache.insert(text, answer, category, features)
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
    timeout = 10.0  # seconds from accept for a request to arrive; also the send timeout

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
        length = _content_length(self.headers.get("Content-Length", "0"))
        if length is None:
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
            return
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
            return
        try:
            body = self.rfile.read(length)
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


_BUSY_BODY = json.dumps({"error": "server busy"}).encode("utf-8")
_BUSY_RESPONSE = (
    "HTTP/1.0 503 Service Unavailable\r\n"
    "Content-Type: application/json\r\n"
    f"Content-Length: {len(_BUSY_BODY)}\r\n"
    "Connection: close\r\n\r\n"
).encode("ascii") + _BUSY_BODY

_RECV_BYTES = 64 * 1024
_MAX_HEAD_BYTES = 64 * 1024  # request line and headers the intake waits for
_HEAD_END = re.compile(rb"\n\r?\n")
_CONTENT_LENGTH = re.compile(rb"^content-length:([^\r\n]*)", re.IGNORECASE | re.MULTILINE)


class _Arrival:
    """An accepted connection and the bytes of its request received so far.

    The request handler takes it for the socket: reads replay the received
    bytes (see _Replay), everything else goes to the socket.
    """

    def __init__(self, sock: socket.socket, client_address, deadline: float):
        self.sock = sock
        self.client_address = client_address
        self.deadline = deadline
        self.received = bytearray()
        self.size: int | None = None  # bytes the request spans, once its head is in
        self.cut_off = False  # the deadline or the head cap ended the intake

    def take(self, data: bytes) -> bool:
        """Add received bytes; True once the request is in or is cut off."""
        self.received += data
        if self.size is None:
            end = _HEAD_END.search(self.received)
            if end is None:
                self.cut_off = len(self.received) > _MAX_HEAD_BYTES
                return self.cut_off
            self.size = end.end() + self._body_length(end.end())
        return len(self.received) >= self.size

    def _body_length(self, head_end: int) -> int:
        """The body _Handler.do_POST reads: a Content-Length of digits up to
        MAX_BODY_BYTES, else none (it answers 400 or 413 from the head)."""
        match = _CONTENT_LENGTH.search(
            self.received, self.received.index(b"\n") + 1, head_end)
        if match is None:
            return 0
        # http.client decodes header lines as latin-1
        length = _content_length(match.group(1).decode("latin-1"))
        return length if length is not None and length <= MAX_BODY_BYTES else 0

    def makefile(self, mode="rb", buffering=None):
        return _Replay(self.received, self.cut_off)

    def __getattr__(self, name):
        return getattr(self.sock, name)


class _Replay(io.BytesIO):
    """A request's received bytes, read the way the handler reads a socket.

    Reading past them ends the stream, or raises TimeoutError when the intake
    was cut off, as a stalled socket would: the handler then answers 408 or
    closes, exactly as for a socket timeout.
    """

    def __init__(self, data: bytes, cut_off: bool):
        super().__init__(data)
        self._cut_off = cut_off

    def read(self, size=-1):
        data = super().read(size)
        if self._cut_off and (size is None or size < 0 or len(data) < size):
            raise TimeoutError("request not received in time")
        return data

    def readline(self, size=-1):
        line = super().readline(size)
        if (self._cut_off and not line.endswith(b"\n")
                and (size is None or size < 0 or len(line) < size)):
            raise TimeoutError("request not received in time")
        return line


class PooledHTTPServer(HTTPServer):
    """An HTTPServer that reads each request in full on the accept thread,
    then runs it on one of POOL_WORKERS threads started with the server.

    serve_forever() accepts connections and receives their requests through
    one selector; at most INTAKE_SLOTS connections may be arriving, each
    for at most the handler's timeout from its accept, and a connection cut
    off by that deadline is handed on to get its 408. A received request
    waits for a worker in a queue; at most POOL_WORKERS + QUEUE_SLOTS are
    queued or in a worker's hands at once. No worker ever
    waits on a client's input, so idle or trickling clients cannot hold the
    pool. A connection that finds the intake or the queue full is answered
    503 and closed without blocking. server_close() closes the connections
    still arriving or queued and stops the workers once they finish the
    requests in hand.
    """

    def __init__(self, server_address, RequestHandlerClass):
        super().__init__(server_address, RequestHandlerClass)
        self._selector = selectors.DefaultSelector()
        # in accept order, so in deadline order; touched by serve_forever only
        self._arriving: dict[socket.socket, _Arrival] = {}
        self._ready: queue.SimpleQueue = queue.SimpleQueue()
        # one per request queued or in a worker's hands: the queue length
        # alone would count requests that idle workers have yet to take
        self._slots = threading.BoundedSemaphore(POOL_WORKERS + QUEUE_SLOTS)
        self._stop = False
        self._stopped = threading.Event()
        self._workers = [
            threading.Thread(target=self._work, name=f"http-worker-{i}", daemon=True)
            for i in range(POOL_WORKERS)
        ]
        for worker in self._workers:
            worker.start()

    def serve_forever(self, poll_interval=0.5):
        """Accept and receive requests until shutdown(), which it checks every
        poll_interval seconds."""
        self._stopped.clear()
        self._selector.register(self, selectors.EVENT_READ)
        try:
            while not self._stop:
                for key, _ in self._selector.select(self._wait(poll_interval)):
                    if key.data is None:
                        self._handle_request_noblock()  # accept -> process_request
                    elif self._receive(key.data):
                        self._leave_intake(key.data)
                self._expire()
                self.service_actions()
        finally:
            self._selector.unregister(self)
            self._stop = False
            self._stopped.set()

    def shutdown(self):
        """Stop serve_forever() and wait until it returns."""
        self._stop = True
        self._stopped.wait()

    def _wait(self, poll_interval: float) -> float:
        if not self._arriving:
            return poll_interval
        first = next(iter(self._arriving.values()))
        return min(poll_interval, max(0.0, first.deadline - time.monotonic()))

    def process_request(self, request, client_address):
        if len(self._arriving) >= INTAKE_SLOTS:
            self._refuse(request)
            return
        request.setblocking(False)
        arrival = _Arrival(request, client_address,
                           time.monotonic() + self.RequestHandlerClass.timeout)
        # the request has often come by the time its connection is accepted
        if not self._receive(arrival):
            self._selector.register(request, selectors.EVENT_READ, arrival)
            self._arriving[request] = arrival

    def _receive(self, arrival: _Arrival) -> bool:
        """Read what has come; True once the connection is handed on or closed."""
        try:
            data = arrival.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return False
        except OSError:
            self.shutdown_request(arrival.sock)
            return True
        # at end of input the handler gets what came, as from a closed socket
        if data and not arrival.take(data):
            return False
        self._hand_over(arrival)
        return True

    def _expire(self):
        now = time.monotonic()
        while self._arriving:
            arrival = next(iter(self._arriving.values()))
            if arrival.deadline > now:
                return
            self._leave_intake(arrival)
            arrival.cut_off = True
            self._hand_over(arrival)

    def _leave_intake(self, arrival: _Arrival):
        self._selector.unregister(arrival.sock)
        del self._arriving[arrival.sock]

    def _hand_over(self, arrival: _Arrival):
        if self._slots.acquire(blocking=False):
            self._ready.put(arrival)
        else:
            self._refuse(arrival.sock)

    def _refuse(self, sock: socket.socket):
        """Send a 503 without blocking and close. Best effort: the answer is
        lost to a full send buffer, and may be lost to a reset when request
        bytes arrive after the one read that drains them."""
        try:
            sock.setblocking(False)
            sock.send(_BUSY_RESPONSE)
            sock.recv(_RECV_BYTES)
        except OSError:
            pass  # nothing sent or nothing to drain
        self.shutdown_request(sock)

    def _work(self):
        while (arrival := self._ready.get()) is not None:
            try:
                self.finish_request(arrival, arrival.client_address)
            except Exception:
                self.handle_error(arrival, arrival.client_address)
            finally:
                self.shutdown_request(arrival)
                self._slots.release()

    def server_close(self):
        super().server_close()
        self._selector.close()
        for sock in self._arriving:
            self.shutdown_request(sock)
        self._arriving.clear()
        while True:
            try:
                arrival = self._ready.get_nowait()
            except queue.Empty:
                break
            self.shutdown_request(arrival)
        for _ in self._workers:
            self._ready.put(None)
        for worker in self._workers:
            worker.join()


def make_server(service: MedService, host: str | None = None,
                port: int | None = None) -> PooledHTTPServer:
    """Bind the HTTP server; port 0 picks a free port (server_address[1])."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    address = (host or service.config.host,
               service.config.port if port is None else port)
    return PooledHTTPServer(address, handler)


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
