"""End-to-end query service: classify, prompt, cache, generate, respond.

MedService wires the pipeline together behind one handle_query call, which
is two halves split at the engine call: lookup_query (validate, classify,
count, look up) and, on a miss, generate_answer (prompt, plan, generate,
insert). The HTTP layer, on the stdlib's socket and selectors alone,
exposes POST /v1/query, GET /v1/metrics, and GET /healthz. Engine choice
and deployment mode are decided once at startup, not per request.

The server speaks HTTP/1.0, one request per connection. One intake thread
accepts connections, receives their requests, parses each request head
once, as it comes in, and frames the body from that parse. It answers
every request that needs no engine itself, in one non-blocking send:
refused heads, 400, 404, 408, 413, /healthz, /v1/metrics and cache hits.
Only a cache miss goes to the fixed pool of POOL_WORKERS threads, which
generate and answer it in one write, so at most POOL_WORKERS generations
are in flight and hits never wait on them. Identical misses in flight
share one generation. See PooledHTTPServer for the bounds and the 503, and
_parse_head for the answers to malformed heads.
"""

from __future__ import annotations

import functools
import json
import logging
import queue
import re
import selectors
import socket
import threading
import time
from dataclasses import asdict, dataclass
from http import HTTPStatus

from .cache import QueryFeatures, TwoLevelCache
from .config import ServiceConfig
from .engines import RemoteEngineError, remote_engine_generate
from .jsonio import InvalidJSON, loads
from .query_pipeline import (
    ClassifiedQuery,
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
POOL_WORKERS = 16  # threads that answer cache misses; the most engine calls in flight
INTAKE_SLOTS = 128  # connections whose request is still arriving
QUEUE_SLOTS = 64  # misses (or unsent answer rests) waiting for a worker


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


@dataclass(frozen=True)
class PendingMiss:
    """A query the cache could not answer, with what the back half needs to
    generate its answer."""

    start: float  # perf_counter() when the front half began
    text: str
    classified: ClassifiedQuery
    category: str
    features: QueryFeatures


class _Generation:
    """One engine call that identical misses in flight share."""

    def __init__(self):
        self.done = threading.Event()
        self.result: tuple[str, float] | None = None  # (answer, delay_s)
        self.error: BaseException | None = None


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
        self.engine_id = select_engine(config.engines, config.hardware, config.workload)
        self.mode = decide_mode(config.mode_candidates, config.decision_weights)
        # Execution plans are opaque tokens keyed by padded prompt shape;
        # warm-up shapes come from config, new shapes extend the cache.
        self.plans = PlanCache()
        self.plans.warm_up(
            (shape_bucket(seq, batch, config.runtime.plan_bucket)
             for seq, batch in config.runtime.warmup_shapes),
            self._build_plan,
        )
        # query text -> the generation in flight for it
        self._generations: dict[str, _Generation] = {}
        self._generations_lock = threading.Lock()

    @staticmethod
    def _build_plan(key):
        return f"plan:{key.seq_len}x{key.batch}"

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
        """classify -> cache lookup -> on a miss, prompt -> generate -> insert."""
        answered = self.lookup_query(text)
        if isinstance(answered, PendingMiss):
            return self.generate_answer(answered)
        return answered

    def lookup_query(self, text: str) -> QueryResponse | PendingMiss:
        """The front half of handle_query, which never calls the engine:
        validate, classify, count and look up. Returns the cache's answer,
        or the pending miss for generate_answer."""
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
        if hit is None:
            return PendingMiss(start, text, classified, category, features)
        return self._response(start, hit.response, category, hit.tier, 0.0)

    def generate_answer(self, miss: PendingMiss) -> QueryResponse:
        """The back half of handle_query: build the prompt, get the plan,
        generate and insert. Identical misses in flight share one generation;
        the others get its answer, or its EngineFailure."""
        with self._generations_lock:
            generation = self._generations.get(miss.text)
            leading = generation is None
            if leading:
                generation = self._generations[miss.text] = _Generation()
        if leading:
            try:
                generation.result = self._generate_and_insert(miss)
            except BaseException as exc:
                generation.error = exc
                raise
            finally:
                with self._generations_lock:
                    del self._generations[miss.text]
                generation.done.set()
        else:
            generation.done.wait()
            error = generation.error
            if error is not None:
                shared = EngineFailure if isinstance(error, EngineFailure) else RuntimeError
                raise shared(str(error)) from error
        answer, delay_s = generation.result
        return self._response(miss.start, answer, miss.category, "miss", delay_s)

    def _generate_and_insert(self, miss: PendingMiss) -> tuple[str, float]:
        prompt = build_prompt(miss.classified, self.templates)
        prompt_tokens = prompt_token_count(miss.classified, self.templates)
        key = shape_bucket(max(prompt_tokens, 1), 1, self.config.runtime.plan_bucket)
        self.plans.get_or_build(key, self._build_plan)
        answer, delay_s = self._generate(prompt, miss.category)
        # Insert only after a successful generation so backend failures
        # cannot poison the cache.
        self.cache.insert(miss.text, answer, miss.category, miss.features)
        return answer, delay_s

    def _response(self, start: float, answer: str, category: str, tier: str,
                  delay_s: float) -> QueryResponse:
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


_RECV_BYTES = 64 * 1024
_MAX_LINE_BYTES = 64 * 1024  # the request line with its line end; 414 past it
_MAX_HEAD_BYTES = 64 * 1024  # request line and headers the intake waits for; 431 past it
_MAX_FIELDS = 100  # header field lines; 431 past it
_HEAD_END = re.compile(rb"\n\r?\n")
_VERSION = re.compile(rb"HTTP/([0-9])\.[0-9]")
# field-name ":" OWS field-value OWS (RFC 9112 §5.1): the name a token, the
# value free of control characters other than HTAB
_FIELD = re.compile(rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):([^\x00-\x08\x0a-\x1f\x7f]*)")


class _Refused(Exception):
    """A request head answered with an error status (str() is the error)."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


@dataclass(frozen=True)
class _Head:
    method: str  # "GET" or "POST"
    target: str
    length: int  # Content-Length, 0 when absent


def _parse_head(received: bytearray, end: int) -> _Head:
    """Parse the request head received[:end] (RFC 9112 §2-§6). end is just
    past the head's blank line or, for a head cut off at _MAX_HEAD_BYTES,
    len(received), which always raises 414 or 431.

    Raises _Refused with 414 for a request line over _MAX_LINE_BYTES; 431
    for a head over _MAX_HEAD_BYTES or over _MAX_FIELDS field lines; 400
    unless the request line is three words ending in HTTP/1.x; 505 for
    HTTP/2 and above; 501 for a method other than GET and POST; 400 for an
    obs-folded, colonless or otherwise malformed field line, for differing
    Content-Length fields, for a repeated Host field or, in HTTP/1.1, none
    (§3.2); 400 for Transfer-Encoding in HTTP/1.0 or without chunked last,
    and 501 for any other, since no transfer coding is implemented (§6.1);
    400 or 413 for a bad or too large Content-Length.
    """
    if received.find(b"\n", 0, _MAX_LINE_BYTES) < 0:
        raise _Refused(414, f"request line exceeds {_MAX_LINE_BYTES} bytes")
    if end > _MAX_HEAD_BYTES:
        raise _Refused(431, f"request head exceeds {_MAX_HEAD_BYTES} bytes")
    # a CR belongs to a line end only before LF; the blank line leaves two
    # empty strings at the end
    line, *lines = received[:end].replace(b"\r\n", b"\n").split(b"\n")[:-2]

    words = line.split()
    version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
    if version is None or version[1] == b"0":
        raise _Refused(400, "request line must be 'method target HTTP/1.x'")
    if version[1] != b"1":
        raise _Refused(505, "HTTP version not supported; send HTTP/1.0 or HTTP/1.1")
    # http.client reads heads as latin-1 too
    method, target = words[0].decode("latin-1"), words[1].decode("latin-1")
    if method not in ("GET", "POST"):
        raise _Refused(501, f"method {method!r} not implemented")

    if len(lines) > _MAX_FIELDS:
        raise _Refused(431, f"more than {_MAX_FIELDS} header fields")
    fields: dict[str, str] = {}  # lower-cased name -> value, repeats joined with ", "
    for line in lines:
        field = _FIELD.fullmatch(line)
        if field is None:
            raise _Refused(400, "obsolete line folding in the request head"
                           if line[:1] in (b" ", b"\t") else "malformed header field line")
        name = field[1].decode("ascii").lower()
        value = field[2].strip(b" \t").decode("latin-1")
        if name in fields:
            if name == "content-length":
                if _content_length(value) != _content_length(fields[name]):
                    raise _Refused(400, "conflicting Content-Length fields")
                continue
            if name == "host":
                raise _Refused(400, "more than one Host field")
            value = f"{fields[name]}, {value}"
        fields[name] = value

    http10 = words[2] == b"HTTP/1.0"
    if not http10 and "host" not in fields:
        raise _Refused(400, "an HTTP/1.1 request must carry a Host field")
    if "transfer-encoding" in fields:
        # the body's length cannot be known, so the framing is faulty
        if http10 or fields["transfer-encoding"].rsplit(",", 1)[-1].strip().lower() != "chunked":
            raise _Refused(400, "Transfer-Encoding in an HTTP/1.0 request or without "
                                "chunked last")
        raise _Refused(501, "Transfer-Encoding not implemented; send Content-Length")
    length = _content_length(fields.get("content-length", "0"))
    if length is None:
        raise _Refused(400, "Content-Length must be a non-negative integer")
    if length > MAX_BODY_BYTES:
        raise _Refused(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    return _Head(method, target, length)


_STATUS_LINES = {status.value: f"HTTP/1.0 {status.value} {status.phrase}\r\n"
                 for status in HTTPStatus}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
# No answer holds NaN or Infinity (RFC 8259 §6). Built once: a keyword to
# json.dumps would build an encoder on every call.
_ENCODER = json.JSONEncoder(allow_nan=False)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """A Unix time in whole seconds as an IMF-fixdate (RFC 9110 §5.6.7),
    with English names whatever the locale."""
    t = time.gmtime(second)
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _reply(status: int, payload: dict, fields: str = "") -> bytes:
    """A whole HTTP/1.0 response with payload as its JSON body; fields are
    more header lines, each ending in CRLF."""
    body = _ENCODER.encode(payload).encode("utf-8")
    return (
        f"{_STATUS_LINES[status]}Server: medserve\r\n"
        f"Date: {_http_date(int(time.time()))}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{fields}\r\n"
    ).encode("ascii") + body


def _close(sock: socket.socket):
    """Send FIN at once, then close the socket."""
    try:
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the connection is already gone
    sock.close()


class _Arrival:
    """An accepted connection and the bytes of its request received so far,
    with its head parsed once the head is in."""

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.deadline = deadline
        self.received = bytearray()
        self.head: _Head | None = None
        self.refused: _Refused | None = None  # the head's error answer, if it gets one
        self.size: int | None = None  # bytes the request spans, once its head is in
        self.cut_off = False  # the deadline ended the intake

    def take(self, data: bytes) -> bool:
        """Add received bytes; True once the request is in or its head is
        refused. A refused head's body, if any, is not waited for."""
        start = len(self.received)
        self.received += data
        if self.size is None:
            # only the new bytes, and the two before them, can complete the
            # head's end, so a head trickled a byte at a time costs linear time
            end = _HEAD_END.search(self.received, max(0, start - 2))
            if end is not None:
                self.size = end.end()
            elif len(self.received) > _MAX_HEAD_BYTES:
                self.size = len(self.received)  # the parse refuses it, 414 or 431
            else:
                return False
            try:
                self.head = _parse_head(self.received, self.size)
            except _Refused as refused:
                self.refused = refused
            else:
                self.size += self.head.length
        return len(self.received) >= self.size


class PooledHTTPServer:
    """An HTTP server that reads each request in full on its intake thread,
    answers there every request that needs no engine, and hands only cache
    misses to one of POOL_WORKERS threads started with the server.

    serve_forever() accepts connections and receives their requests through
    one selector; at most INTAKE_SLOTS connections may be arriving, each
    for at most `timeout` seconds from its accept. Once a request is in, its
    head refused, its input ended or its deadline passed, the intake thread
    answers it, running the front half of the query
    (MedService.lookup_query) for a POST to /v1/query, and sends every
    answer that needs no engine with one non-blocking send: refused heads,
    400, 404, 408, 413, /healthz, /v1/metrics and cache hits. A pending miss
    waits for a worker in a queue; at most POOL_WORKERS + QUEUE_SLOTS are
    queued or in a worker's hands at once. The worker runs the back half
    (MedService.generate_answer) and answers 200, 502 or 500 in one write.
    An answer that the socket does not take whole in that one send also
    goes to a worker, which sends the rest, or is cut off by closing the
    connection when the queue is full. No thread ever waits on a
    client's input, and hits never wait on engine calls. A miss that finds
    the queue full, or a connection that finds the intake full, is answered
    503 and closed without blocking. server_close() closes the connections
    still arriving or queued and stops the workers once they finish the
    requests in hand.
    """

    timeout = 10.0  # seconds from accept for a request to arrive; also the send timeout

    def __init__(self, service: MedService, address):
        self.service = service
        # SO_REUSEADDR is set; a failed bind raises before any worker starts
        self._listener = socket.create_server(address, backlog=5)
        self.server_address = self._listener.getsockname()
        self._selector = selectors.DefaultSelector()
        # in accept order, so in deadline order; touched by serve_forever only
        self._arriving: dict[socket.socket, _Arrival] = {}
        # (arrival, its PendingMiss or the bytes of its answer left to send)
        self._ready: queue.SimpleQueue = queue.SimpleQueue()
        # one per job queued or in a worker's hands: the queue length alone
        # would count jobs that idle workers have yet to take
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
        """Accept, receive and answer requests until shutdown(), which it
        checks every poll_interval seconds."""
        self._stopped.clear()
        self._selector.register(self._listener, selectors.EVENT_READ)
        try:
            while not self._stop:
                for key, _ in self._selector.select(self._wait(poll_interval)):
                    if key.data is None:
                        self._accept()
                    elif self._receive(key.data):
                        self._leave_intake(key.data)
                        self._dispatch(key.data)
                self._expire()
        finally:
            self._selector.unregister(self._listener)
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

    def _accept(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # e.g. the client reset the connection before the accept
        if len(self._arriving) >= INTAKE_SLOTS:
            self._refuse(sock)
            return
        sock.setblocking(False)
        arrival = _Arrival(sock, time.monotonic() + self.timeout)
        # the request has often come by the time its connection is accepted
        if self._receive(arrival):
            self._dispatch(arrival)
        else:
            self._selector.register(sock, selectors.EVENT_READ, arrival)
            self._arriving[sock] = arrival

    @staticmethod
    def _receive(arrival: _Arrival) -> bool:
        """Read what has come; True once there is nothing more to wait for."""
        try:
            data = arrival.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return False
        except OSError:
            return True  # the connection failed: what came is all there is
        # at end of input the answer is to what came
        return not data or arrival.take(data)

    def _expire(self):
        now = time.monotonic()
        while self._arriving:
            arrival = next(iter(self._arriving.values()))
            if arrival.deadline > now:
                return
            self._leave_intake(arrival)
            arrival.cut_off = True
            self._dispatch(arrival)

    def _leave_intake(self, arrival: _Arrival):
        self._selector.unregister(arrival.sock)
        del self._arriving[arrival.sock]

    def _dispatch(self, arrival: _Arrival):
        """Answer a request that has left the intake, or queue its miss for a
        worker. Nothing it meets leaves serve_forever."""
        try:
            answer = self._answer(arrival)
            if isinstance(answer, PendingMiss):
                if not self._queue(arrival, answer):
                    self._refuse(arrival.sock)
                return
            if answer is not None:
                rest = self._send_now(arrival.sock, self._encode(arrival, answer))
                if rest and self._queue(arrival, rest):
                    return  # a worker sends the rest
        except Exception:
            log.exception("error answering a request")
        _close(arrival.sock)

    @staticmethod
    def _send_now(sock: socket.socket, data: bytes) -> bytes:
        """Send without blocking; returns what the socket did not take, which
        is nothing once the client has gone."""
        try:
            return data[sock.send(data):]
        except BlockingIOError:
            return data
        except OSError:
            return b""  # the client went away; nothing to deliver

    def _queue(self, arrival: _Arrival, job: PendingMiss | bytes) -> bool:
        """Hand a job to the workers; False when the queue is full."""
        if not self._slots.acquire(blocking=False):
            return False
        self._ready.put((arrival, job))
        return True

    def _refuse(self, sock: socket.socket):
        """Send a 503 without blocking and close. Best effort: the answer is
        lost to a full send buffer, and may be lost to a reset when request
        bytes arrive after the one read that drains them."""
        try:
            sock.setblocking(False)
            sock.send(_reply(503, {"error": "server busy"}, "Connection: close\r\n"))
            sock.recv(_RECV_BYTES)
        except OSError:
            pass  # nothing sent or nothing to drain
        _close(sock)

    def _work(self):
        while (job := self._ready.get()) is not None:
            arrival, work = job
            try:
                if isinstance(work, PendingMiss):
                    work = self._encode(arrival, self._generate(work))
                self._send_all(arrival.sock, work)
            except Exception:
                log.exception("error answering a request")
            finally:
                _close(arrival.sock)
                self._slots.release()

    def _send_all(self, sock: socket.socket, data: bytes):
        try:
            sock.settimeout(self.timeout)
            sock.sendall(data)
        except OSError:
            pass  # the client went away or stopped reading; nothing to deliver

    @staticmethod
    def _encode(arrival: _Arrival, answer: tuple[int, dict]) -> bytes:
        status, payload = answer
        if arrival.head is not None:
            log.debug("http: %s %s %d", arrival.head.method, arrival.head.target, status)
        return _reply(status, payload)

    def _answer(self, arrival: _Arrival) -> tuple[int, dict] | PendingMiss | None:
        """The answer that needs no engine, or the request's pending miss."""
        if arrival.refused is not None:
            return arrival.refused.status, {"error": str(arrival.refused)}
        head = arrival.head
        if head is None:
            if arrival.cut_off or not arrival.received:
                return None
            return 400, {"error": "request head incomplete"}  # input ended inside it
        if len(arrival.received) < arrival.size:
            if arrival.cut_off:
                return 408, {"error": "request body not received in time"}
            return 400, {"error": "request body incomplete"}

        if head.method == "GET":
            if head.target == "/healthz":
                return 200, {"status": "ok"}
            if head.target == "/v1/metrics":
                return 200, self.service.metrics()
            return 404, {"error": "not found"}
        if head.target != "/v1/query":
            return 404, {"error": "not found"}
        body = arrival.received[arrival.size - head.length:arrival.size]
        try:
            doc = loads(body)
            if not isinstance(doc, dict):
                raise BadRequest("request body must be a JSON object")
            answered = self.service.lookup_query(doc.get("text", ""))
        except (InvalidJSON, BadRequest) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:
            log.exception("unhandled error")
            return 500, {"error": str(exc)}
        if isinstance(answered, PendingMiss):
            return answered
        return 200, answered.as_dict()

    def _generate(self, miss: PendingMiss) -> tuple[int, dict]:
        try:
            return 200, self.service.generate_answer(miss).as_dict()
        except EngineFailure as exc:
            return 502, {"error": str(exc)}
        except Exception as exc:
            log.exception("unhandled error")
            return 500, {"error": str(exc)}

    def server_close(self):
        self._listener.close()
        self._selector.close()
        for sock in self._arriving:
            _close(sock)
        self._arriving.clear()
        while True:
            try:
                arrival, _ = self._ready.get_nowait()
            except queue.Empty:
                break
            _close(arrival.sock)
        for _ in self._workers:
            self._ready.put(None)
        for worker in self._workers:
            worker.join()


def make_server(service: MedService, host: str | None = None,
                port: int | None = None) -> PooledHTTPServer:
    """Bind the HTTP server; port 0 picks a free port (server_address[1])."""
    return PooledHTTPServer(service, (host or service.config.host,
                                      service.config.port if port is None else port))


def serve_forever(config: ServiceConfig, host: str | None = None,
                  port: int | None = None):
    service = MedService(config)
    try:
        server = make_server(service, host, port)
    except OSError:
        service.close()
        raise
    log.info("serving on %s:%d (engine=%s mode=%s)",
             *server.server_address[:2], service.engine_id, service.mode)

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("shutting down")
    finally:
        server.server_close()
        service.close()
