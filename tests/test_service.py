"""Tests for config loading, engines, the service pipeline, HTTP API, and CLI."""

import dataclasses
import email.utils
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from medserve import cache as cache_module, query_pipeline, service as service_module
from medserve.bench import BenchSpec, run_bench, synthetic_queries
from medserve.cache import DiskLog
from medserve.cli import main as cli_main
from medserve.config import (
    ConfigError,
    _parse,
    default_config_path,
    load_config,
    packaged_data,
)
from medserve.engines import (
    MockEngine,
    RemoteEngineHTTPError,
    RemoteEngineProtocolError,
    RemoteEngineTimeout,
    mock_engine_generate,
    remote_engine_generate,
)
from medserve.quantizer import PrecisionPolicy
from medserve.query_pipeline import tokenize
from medserve.service import (
    MAX_BODY_BYTES,
    BadRequest,
    EngineFailure,
    MedService,
    make_server,
)


@pytest.fixture()
def config(tmp_path):
    doc = json.loads(default_config_path().read_text())
    doc["cache"]["disk_dir"] = str(tmp_path / "cache")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


class TestConfig:
    def test_packaged_defaults_load(self, tmp_path):
        cfg = load_config()
        assert cfg.cache.capacity == 128
        assert cfg.quantization == PrecisionPolicy()
        # configs written with the retired lora/distill sections still load
        doc = json.loads(default_config_path().read_text())
        doc["lora"] = {"rank": 16, "alpha": 32}
        doc["distill"] = {"lr_min": 1e-5, "lr_max": 5e-5, "batch_size": 64, "epochs": 3}
        doc["hardware"].update(host_memory_bytes=2**35, cores=8,
                               disk_read_bytes_per_s=5e8)
        doc["workload"].update(request_rate=4.0, category_mix=[0.2] * 5)
        for engine, bits in zip(doc["engines"], ([4, 8], [8, 16], [16])):
            engine["supported_bits"] = bits
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(doc))
        assert load_config(path) == cfg

    def test_every_packaged_key_is_read(self):
        class Recorder(dict):
            def __init__(self, pairs):
                super().__init__(pairs)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        doc = json.loads(default_config_path().read_text(), object_pairs_hook=Recorder)
        _parse(doc)
        unread, stack = [], [("", doc)]
        while stack:
            where, node = stack.pop()
            if isinstance(node, Recorder):
                unread += [f"{where}.{k}" for k in node.keys() - node.read]
                stack += [(f"{where}.{k}", v) for k, v in node.items()]
            elif isinstance(node, list):
                stack += [(f"{where}[{i}]", v) for i, v in enumerate(node)]
        assert unread == []

    def test_missing_required_key_named(self, tmp_path):
        doc = json.loads(default_config_path().read_text())
        del doc["hardware"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="hardware"):
            load_config(path)

    def test_bad_schema_version(self, tmp_path):
        doc = json.loads(default_config_path().read_text())
        doc["schema_version"] = 99
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestMetricsGauges:
    def test_failed_append_shows_degraded(self, config, monkeypatch):
        release = threading.Event()

        def failing_append(self, entry):
            release.wait(timeout=10)
            raise OSError("disk full")

        monkeypatch.setattr(DiskLog, "append", failing_append)
        service = MedService(config)
        try:
            assert service.metrics()["cache"]["degraded"] is False
            for text in ("dose of insulin", "treat asthma", "prevent flu"):
                service.handle_query(text)
            assert service.metrics()["cache"]["queue_depth"] >= 2
            release.set()
            service.cache.flush()
            cache = service.metrics()["cache"]
            assert cache["degraded"] is True
            assert cache["queue_depth"] == 0
        finally:
            release.set()
            service.close()

    def test_memory_only_is_degraded(self, config):
        config = dataclasses.replace(
            config, cache=dataclasses.replace(config.cache, disk_dir=None))
        service = MedService(config)
        try:
            assert service.metrics()["cache"]["degraded"] is True
        finally:
            service.close()


class TestMockEngine:
    def test_deterministic(self):
        a = mock_engine_generate("prompt text", seed=3, category="medication")
        b = mock_engine_generate("prompt text", seed=3, category="medication")
        assert a == b
        assert a.startswith("[category:medication]")

    def test_distinct_prompts_distinct_answers(self):
        seen = {mock_engine_generate(f"prompt {i}", seed=0) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_zero_mean_delay_is_zero(self):
        engine = MockEngine(seed=0, mean_delay_ms=0.0)
        _, delay = engine.generate("anything")
        assert delay == 0.0

    def test_delay_depends_only_on_prompt_and_seed(self):
        engine = MockEngine(seed=5, mean_delay_ms=10.0)
        _, d1 = engine.generate("a prompt")
        engine2 = MockEngine(seed=5, mean_delay_ms=10.0)
        _, d2 = engine2.generate("a prompt")
        assert d1 == d2 > 0


class _StubHandler(BaseHTTPRequestHandler):
    script: list = []  # (status, body_bytes, delay_s)
    lock = threading.Lock()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.lock:
            status, body, delay = (
                self.script.pop(0) if self.script else (200, _chat_body("fallback"), 0.0)
            )
        if delay:
            import time

            time.sleep(delay)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client timed out and hung up; expected in timeout tests

    def log_message(self, *args):
        pass


def _chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}"
    yield endpoint
    server.shutdown()
    server.server_close()


class TestRemoteEngine:
    def test_extracts_text(self, stub_server):
        _StubHandler.script = [(200, _chat_body("hello"), 0.0)]
        assert remote_engine_generate("q", stub_server, "m") == "hello"

    def test_retry_after_500(self, stub_server):
        _StubHandler.script = [
            (500, b"oops", 0.0),
            (200, _chat_body("recovered"), 0.0),
        ]
        got = remote_engine_generate("q", stub_server, "m", retry_backoff_s=0.01)
        assert got == "recovered"

    def test_http_error_after_two_failures(self, stub_server):
        _StubHandler.script = [(503, b"x", 0.0), (503, b"x", 0.0)]
        with pytest.raises(RemoteEngineHTTPError) as err:
            remote_engine_generate("q", stub_server, "m", retry_backoff_s=0.01)
        assert err.value.status == 503

    def test_timeout(self, stub_server):
        _StubHandler.script = [
            (200, _chat_body("slow"), 0.5),
            (200, _chat_body("slow"), 0.5),
        ]
        with pytest.raises(RemoteEngineTimeout):
            remote_engine_generate("q", stub_server, "m",
                                   timeout_s=0.1, retry_backoff_s=0.01)

    def test_malformed_body(self, stub_server):
        # nested past the recursion limit, a reply once escaped the retry as RecursionError
        for first in (b"not json", b"[" * 60_000):
            _StubHandler.script = [
                (200, first, 0.0),
                (200, b'{"weird": true}', 0.0),
            ]
            with pytest.raises(RemoteEngineProtocolError):
                remote_engine_generate("q", stub_server, "m", retry_backoff_s=0.01)


class TestServicePipeline:
    def test_repeat_query_hits_cache_with_identical_answer(self, config):
        service = MedService(config)
        try:
            first = service.handle_query("what is the dose of aspirin")
            second = service.handle_query("what is the dose of aspirin")
            assert first.cache_tier == "miss"
            assert second.cache_tier == "memory"
            assert second.answer == first.answer
        finally:
            service.close()

    def test_empty_text_rejected(self, config):
        service = MedService(config)
        try:
            with pytest.raises(BadRequest):
                service.handle_query("")
            with pytest.raises(BadRequest):
                service.handle_query("   ")
        finally:
            service.close()

    def test_medication_query_tagged(self, config):
        service = MedService(config)
        try:
            response = service.handle_query("what dose of ibuprofen is safe")
            assert response.category == "medication"
            assert "[category:medication]" in response.answer
        finally:
            service.close()

    def test_features_computed_once_per_request(self, config, monkeypatch):
        service = MedService(config)
        calls = {"tokenize": 0, "embed": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        counting_tokenize = counted("tokenize", tokenize)
        for module in (query_pipeline, cache_module):
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
        monkeypatch.setattr(cache_module, "embed", counted("embed", cache_module.embed))
        try:
            # (query, tier): a miss, an exact hit, then a reordered paraphrase
            for text, tier, tokenized, embedded in [
                ("what dose of aspirin helps a headache", "miss", 1, 1),
                ("what dose of aspirin helps a headache", "memory", 1, 0),
                ("a headache helps what dose of aspirin", "memory", 1, 1),
            ]:
                calls.update(tokenize=0, embed=0)
                assert service.handle_query(text).cache_tier == tier
                assert calls == {"tokenize": tokenized, "embed": embedded}, text
        finally:
            service.close()

    def test_plan_cache_warmed_from_config_and_extended(self, config):
        service = MedService(config)
        try:
            warmed = len(config.runtime.warmup_shapes)
            assert service.plans.stats.builds >= 1
            baseline = service.plans.stats.builds
            assert baseline <= warmed  # shapes may share a bucket
            service.handle_query("what dose of aspirin helps a headache")
            service.handle_query("what dose of aspirin helps a fever too")
            # both prompts land in the same 32-token bucket: one build at most
            assert service.plans.stats.builds <= baseline + 1
            metrics = service.metrics()
            assert metrics["plans"]["builds"] == service.plans.stats.builds
        finally:
            service.close()

    def test_startup_decisions(self, config):
        service = MedService(config)
        try:
            # compact-int4 and balanced-int8 fit in 8 GiB; fp16 does not
            assert service.engine_id in ("compact-int4", "balanced-int8")
            # adapter: 0.8+0.9-0.3=1.4 vs merged: 0.9+0.6-0.2=1.3
            assert service.mode == "adapter"
        finally:
            service.close()

    def test_deterministic_response_sequence(self, config):
        queries = ["chest pain now", "how to prevent flu", "chest pain now"]

        def run():
            service = MedService(config)
            try:
                # every field except measured wall latency must replay exactly
                return [
                    (r.answer, r.category, r.cache_tier, r.engine_id, r.mode,
                     r.simulated_ms)
                    for r in map(service.handle_query, queries)
                ]
            finally:
                service.close()

        first = run()
        # fresh cache dir for a clean second run
        import shutil

        shutil.rmtree(config.cache.disk_dir)
        second = run()
        assert first == second

    def test_shared_generations_under_thread_churn(self, config, monkeypatch):
        import sys

        service = MedService(config)
        # every thread asks each query in turn, so each is a miss that
        # several threads share
        texts = [f"zq{i}x{i * 7919}" for i in range(40)]

        def generate(prompt, category):
            time.sleep(0.001)  # keep generations in flight long enough to join
            return "A:" + prompt.rsplit("\n", 1)[-1], 0.0

        monkeypatch.setattr(service, "_generate", generate)
        wrong = []

        def client():
            for text in texts:
                try:
                    answer = service.handle_query(text).answer
                except Exception as exc:
                    answer = repr(exc)
                if answer != "A:" + text:
                    wrong.append((text, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, daemon=True) for _ in range(8)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert wrong == []
        assert service._generations == {}
        assert service.request_count == 8 * len(texts)

    def test_engine_failure_does_not_poison_cache(self, config, stub_server):
        import dataclasses

        from medserve.config import RemoteEngineSettings

        _StubHandler.script = [(500, b"x", 0.0), (500, b"x", 0.0)]
        remote_cfg = dataclasses.replace(
            config,
            remote_engine=RemoteEngineSettings(
                endpoint=stub_server, model="m", timeout_s=1.0, retry_backoff_s=0.01
            ),
        )
        service = MedService(remote_cfg)
        try:
            with pytest.raises(EngineFailure):
                service.handle_query("what is sepsis")
            assert service.cache.lookup("what is sepsis") is None
            # back to success: query now completes and caches
            _StubHandler.script = [(200, _chat_body("recovered answer"), 0.0)]
            response = service.handle_query("what is sepsis")
            assert response.answer == "recovered answer"
            assert service.cache.lookup("what is sepsis") is not None
        finally:
            service.close()


class TestHTTPAPI:
    @pytest.fixture()
    def server(self, config, request):
        service = MedService(config)
        httpd = make_server(service, port=0)
        if hasattr(request, "param"):  # server socket timeout, seconds
            httpd.timeout = request.param
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}", service
        httpd.shutdown()
        httpd.server_close()
        service.close()

    def _post(self, base, payload, raw=None):
        body = raw if raw is not None else json.dumps(payload).encode()
        req = urllib.request.Request(
            base + "/v1/query", data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=5) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_healthz(self, server):
        base, _ = server
        with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
            assert resp.status == 200
            assert json.loads(resp.read()) == {"status": "ok"}

    def test_query_roundtrip_and_metrics(self, server):
        base, service = server
        status, doc = self._post(base, {"text": "is chest pain an emergency"})
        assert status == 200
        assert doc["category"] == "emergency"
        assert doc["cache"] == "miss"
        assert doc["latency_ms"] >= 0

        status, doc2 = self._post(base, {"text": "is chest pain an emergency"})
        assert status == 200
        assert doc2["cache"] == "memory"
        assert doc2["answer"] == doc["answer"]

        with urllib.request.urlopen(base + "/v1/metrics", timeout=5) as resp:
            metrics = json.loads(resp.read())
        assert metrics["requests"] == 2
        assert metrics["cache"]["memory_hits"] == 1
        assert metrics["categories"]["emergency"] == 2

    def test_empty_text_is_400(self, server):
        base, _ = server
        status, doc = self._post(base, {"text": ""})
        assert status == 400
        assert "error" in doc

    def test_malformed_json_is_400(self, server):
        base, _ = server
        # nested past the recursion limit, the body once raised RecursionError: a 500
        for raw in (b"{nope", b"[" * 60_000, b'{"text": NaN}'):
            status, doc = self._post(base, None, raw=raw)
            assert status == 400, doc

    @staticmethod
    def _raw_post(base, headers: str, body: bytes = b"") -> int:
        """Send a hand-built POST; returns the status, or fails after 5 s."""
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(f"POST /v1/query HTTP/1.1\r\nHost: x\r\n{headers}\r\n".encode()
                         + body)
            status_line = sock.makefile("rb").readline()
        return int(status_line.split()[1])

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5", "", "0x10"])
    def test_bad_content_length_is_400(self, server, length):
        base, _ = server
        assert self._raw_post(base, f"Content-Length: {length}\r\n") == 400

    def test_oversized_body_is_413(self, server):
        base, _ = server
        headers = f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
        assert self._raw_post(base, headers) == 413

    def test_5000_digit_content_length_is_413(self, server):
        # int() refuses strings of over 4,300 digits
        base, _ = server
        assert self._raw_post(base, f"Content-Length: {'9' * 5000}\r\n") == 413

    def test_zero_padded_content_length_is_served(self, server):
        base, _ = server
        body = b'{"text": "fever"}'
        headers = f"Content-Length: {'0' * 5000}{len(body)}\r\n"
        assert self._raw_post(base, headers, body) == 200

    def test_body_at_cap_is_served(self, server):
        base, _ = server
        body = b'{"text": "fever"}'.ljust(MAX_BODY_BYTES)
        headers = f"Content-Length: {len(body)}\r\n"
        assert self._raw_post(base, headers, body) == 200

    @pytest.mark.parametrize("server", [0.3], indirect=True)
    def test_stalled_body_times_out_with_408(self, server):
        base, _ = server
        assert self._raw_post(base, "Content-Length: 10\r\n", b'{"te') == 408

    def test_unknown_path_is_404(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(base + "/nope", timeout=5)
        err.value.close()
        assert err.value.code == 404

    def test_front_half_error_is_500_and_server_stays_up(self, server, monkeypatch):
        base, service = server

        def failing_lookup(text, features=None):
            raise RuntimeError("lookup broke")

        monkeypatch.setattr(service.cache, "lookup", failing_lookup)
        assert self._post(base, {"text": "what is a fever"}) == (500, {"error": "lookup broke"})
        with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
            assert resp.status == 200

    @staticmethod
    def _stub_engine(service, monkeypatch, text: str, script: list) -> list:
        """Replace the engine with one that takes (followers, result) from
        script for each call: it holds the call until that many more
        requests for text wait on it, then returns result, or raises it if
        it is an exception. Returns the list of prompts it was called with."""
        calls = []

        class CountedEvent(threading.Event):
            """An Event that counts the calls to wait(); a request that waits
            on a generation has joined it."""

            def __init__(self):
                super().__init__()
                self.waiters = 0
                self._count_lock = threading.Lock()

            def wait(self, timeout=None):
                with self._count_lock:
                    self.waiters += 1
                return super().wait(timeout)

        class CountedGeneration(service_module._Generation):
            def __init__(self):
                super().__init__()
                self.done = CountedEvent()

        def generate(prompt, category):
            calls.append(prompt)
            followers, result = script.pop(0)
            _wait_until(lambda: service._generations[text].done.waiters == followers)
            if isinstance(result, Exception):
                raise result
            return result, 0.0

        monkeypatch.setattr(service_module, "_Generation", CountedGeneration)
        monkeypatch.setattr(service, "_generate", generate)
        return calls

    @staticmethod
    def _concurrent_queries(base, text: str, count: int) -> list:
        host, port = base.removeprefix("http://").split(":")
        socks = [socket.create_connection((host, int(port)), timeout=5) for _ in range(count)]
        try:
            for sock in socks:
                sock.sendall(_request_bytes(text))
            return [_read_reply(sock) for sock in socks]
        finally:
            for sock in socks:
                sock.close()

    def test_identical_misses_share_one_generation(self, server, monkeypatch):
        base, service = server
        text = "what is the dose of insulin"
        calls = self._stub_engine(service, monkeypatch, text, [(3, "one answer")])
        replies = self._concurrent_queries(base, text, 4)
        assert len(calls) == 1
        assert [(status, doc["answer"], doc["cache"]) for status, doc in replies] == (
            [(200, "one answer", "miss")] * 4)
        assert self._post(base, {"text": text})[1]["cache"] == "memory"

    def test_shared_engine_failure_is_502_for_all_then_retried(self, server, monkeypatch):
        base, service = server
        text = "what is the dose of insulin"
        calls = self._stub_engine(service, monkeypatch, text,
                                  [(3, EngineFailure("engine down")), (0, "recovered")])
        assert self._concurrent_queries(base, text, 4) == [(502, {"error": "engine down"})] * 4
        assert len(calls) == 1
        # the failure cached nothing, so the next request calls the engine again
        status, doc = self._post(base, {"text": text})
        assert (status, doc["answer"], doc["cache"]) == (200, "recovered", "miss")
        assert len(calls) == 2

    def test_busy_port_names_the_bind_error(self, config):
        service = MedService(config)
        busy = socket.create_server(("127.0.0.1", 0))
        threads = threading.active_count()
        try:
            with pytest.raises(OSError, match="Address already in use"):
                make_server(service, "127.0.0.1", busy.getsockname()[1])
            assert threading.active_count() == threads  # no worker started
        finally:
            busy.close()
            service.close()

    def test_port_rebinds_at_once_after_close(self, config):
        service = MedService(config)
        try:
            httpd = make_server(service, "127.0.0.1", 0)
            thread = threading.Thread(target=httpd.serve_forever, args=(0.02,), daemon=True)
            thread.start()
            port = httpd.server_address[1]
            # the server closes first, so its end of the connection is left in TIME_WAIT
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5) as resp:
                assert resp.status == 200
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
            again = make_server(service, "127.0.0.1", port)
            assert again.server_address[1] == port
            again.server_close()
        finally:
            service.close()


def _wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def _request_bytes(text: str) -> bytes:
    body = json.dumps({"text": text}).encode()
    return (b"POST /v1/query HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body)) + body


def _read_reply(sock) -> tuple[int, dict]:
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestWorkerPool:
    """The pool shrunk to 2 workers, a queue of 1 and an intake of 4, against
    clients that send nothing, trickle their request or hold a worker in the
    engine call (a miss whose text starts "hold") until released."""

    @pytest.fixture()
    def pool(self, config, monkeypatch):
        monkeypatch.setattr(service_module, "POOL_WORKERS", 2)
        monkeypatch.setattr(service_module, "QUEUE_SLOTS", 1)
        monkeypatch.setattr(service_module, "INTAKE_SLOTS", 4)
        service = MedService(config)
        release = threading.Event()
        held = []
        generate = service._generate

        def holding_generate(prompt, category):
            text = prompt.rsplit("\n", 1)[-1]  # the prompt ends with the query
            if text.startswith("hold"):
                held.append(text)
                release.wait(timeout=10)
            return generate(prompt, category)

        service._generate = holding_generate
        httpd = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        clients = []

        def connect(sent=b""):
            sock = socket.create_connection(httpd.server_address, timeout=5)
            clients.append(sock)
            sock.sendall(sent)
            return sock

        yield httpd, connect, held
        release.set()
        for sock in clients:
            sock.close()
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    @staticmethod
    def _healthz_fast(httpd):
        start = time.monotonic()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
            assert resp.status == 200
        assert time.monotonic() - start < 1.0

    @staticmethod
    def _miss_fast(connect, text):
        start = time.monotonic()
        status, doc = _read_reply(connect(_request_bytes(text)))
        assert (status, doc["cache"]) == (200, "miss")
        assert time.monotonic() - start < 1.0

    def test_idle_and_trickling_clients_hold_no_worker(self, pool):
        httpd, connect, held = pool
        connect()
        connect()
        request = _request_bytes("what is a fever")
        trickler = connect(request[:10])
        _wait_until(lambda: len(httpd._arriving) == 3)
        for k in range(10, 13):
            self._healthz_fast(httpd)
            trickler.sendall(request[k:k + 1])
        self._healthz_fast(httpd)
        assert httpd._ready.qsize() == 0
        # with one worker held, the other is still free for a miss
        connect(_request_bytes("hold 1"))
        _wait_until(lambda: len(held) == 1)
        self._miss_fast(connect, "what is a cough")
        trickler.sendall(request[13:])
        assert _read_reply(trickler)[0] == 200

    def test_free_worker_serves_healthz(self, pool):
        httpd, connect, held = pool
        connect(_request_bytes("hold 1"))
        _wait_until(lambda: len(held) == 1)
        self._healthz_fast(httpd)
        self._miss_fast(connect, "what is a cough")

    def test_hit_and_healthz_pass_held_workers(self, pool):
        httpd, connect, held = pool
        assert _read_reply(connect(_request_bytes("what is a fever")))[1]["cache"] == "miss"
        connect(_request_bytes("hold 1"))
        connect(_request_bytes("hold 2"))
        _wait_until(lambda: len(held) == 2)
        start = time.monotonic()
        status, doc = _read_reply(connect(_request_bytes("what is a fever")))
        assert (status, doc["cache"]) == (200, "memory")
        assert time.monotonic() - start < 1.0
        self._healthz_fast(httpd)

    def test_full_queue_answers_503_fast(self, pool):
        httpd, connect, held = pool
        connect(_request_bytes("hold 1"))
        connect(_request_bytes("hold 2"))
        _wait_until(lambda: len(held) == 2)
        connect(_request_bytes("hold 3"))
        _wait_until(lambda: httpd._ready.qsize() == 1)
        start = time.monotonic()
        # this client sends its whole request before reading the answer
        refused = connect(_request_bytes("what is a fever"))
        assert _read_reply(refused) == (503, {"error": "server busy"})
        assert time.monotonic() - start < 1.0

    def test_full_intake_answers_503_fast(self, pool):
        httpd, connect, _ = pool
        for _ in range(4):
            connect()
        _wait_until(lambda: len(httpd._arriving) == 4)
        start = time.monotonic()
        # read without sending, so closing with unread input cannot reset the answer away
        assert _read_reply(connect()) == (503, {"error": "server busy"})
        assert time.monotonic() - start < 1.0

    def test_trickled_body_cut_off_at_deadline(self, pool):
        httpd, connect, _ = pool
        httpd.timeout = 0.5
        start = time.monotonic()
        sock = connect(b"POST /v1/query HTTP/1.0\r\nContent-Length: 10\r\n\r\n")
        # a byte every 0.1 s: no gap between bytes reaches the timeout, but
        # the whole request does
        for byte in b'{"te':
            sock.sendall(bytes([byte]))
            time.sleep(0.1)
        assert _read_reply(sock)[0] == 408
        assert time.monotonic() - start < 0.8

    def test_huge_content_length_keeps_server_up(self, pool):
        httpd, connect, _ = pool
        head = b"POST /v1/query HTTP/1.0\r\nContent-Length: " + b"9" * 5000 + b"\r\n"
        sock = connect(head)  # the head's end comes in a later read
        _wait_until(lambda: len(httpd._arriving) == 1)
        sock.sendall(b"\r\n")
        _wait_until(lambda: not httpd._arriving)
        self._healthz_fast(httpd)

    def test_thread_count_flat_across_connections(self, pool):
        httpd, _, _ = pool
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        before = threading.active_count()
        for _ in range(20):
            with urllib.request.urlopen(base + "/healthz", timeout=5) as resp:
                assert resp.status == 200
            assert threading.active_count() == before

    def test_server_close_returns_while_clients_stall(self, pool):
        httpd, connect, _ = pool
        stalled = [connect(), connect(), connect(b"GET /healthz HTTP/1.0\r\n")]
        _wait_until(lambda: len(httpd._arriving) == 3)
        start = time.monotonic()
        httpd.shutdown()
        httpd.server_close()
        assert time.monotonic() - start < httpd.timeout / 2
        assert not any(worker.is_alive() for worker in httpd._workers)
        for sock in stalled:
            assert sock.recv(1) == b""  # closed by the server, unanswered


_QUERY = b'{"text": "what is a fever"}'


def _post_head(*fields: bytes, body: bytes = _QUERY, end: bytes = b"\r\n",
               version: bytes = b"HTTP/1.0") -> bytes:
    return (b"POST /v1/query " + version + end + b"".join(f + end for f in fields) + end
            + body)


_CL = b"Content-Length: %d" % len(_QUERY)

# (raw request, status, a fragment of the JSON error; status None: closed
# unanswered). "was:" gives the answer of the BaseHTTPRequestHandler server
# this parser replaced, on the rows it answered otherwise; on the Host and
# Transfer-Encoding rows, this parser gave the same until it checked them.
RAW_HEADS = [
    # request line
    pytest.param(b"GET /healthz HTTP/x\r\n\r\n", 400, "request line",
                 id="version-not-http"),  # was: HTML page, no status line
    pytest.param(b"GET /healthz HTTP/2.0\r\n\r\n", 505, "version",
                 id="http-2"),  # was: HTML page, no status line
    pytest.param(b"GET /healthz HTTP/1.0 x\r\n\r\n", 400, "request line",
                 id="four-words"),  # was: HTML page, no status line
    pytest.param(b"GET /healthz\r\n\r\n", 400, "request line",
                 id="http-0.9"),  # was: a bare {"status": "ok"}
    pytest.param(b"GET /healthz HTTP/0.9\r\n\r\n", 400, "request line",
                 id="version-0.9"),  # was: HTML page, no status line
    pytest.param(b"PUT /v1/query HTTP/1.0\r\n" + _CL + b"\r\n\r\n" + _QUERY, 501, "PUT",
                 id="put"),  # was: 501 with an HTML page
    pytest.param(b"GET /" + b"a" * (64 * 1024 + 1), 414, "request line",
                 id="request-line-over-64k"),  # was: 414 with an HTML page
    # header fields
    pytest.param(b"GET /healthz HTTP/1.0\r\n" + b"X: y\r\n" * 101 + b"\r\n", 431, "header",
                 id="101-fields"),  # was: 431 with an HTML page
    pytest.param(b"GET /healthz HTTP/1.0\r\nX: " + b"a" * (64 * 1024), 431, "head",
                 id="head-cut-off-at-64k"),  # was: 431 with an HTML page
    pytest.param(_post_head(b"Content-Length : %d" % len(_QUERY)), 400, "header",
                 id="space-before-colon"),  # was: 400 "Expecting value", body unread
    pytest.param(_post_head(b"Host: x", b" " + _CL), 400, "folding",
                 id="obs-fold"),  # was: 400 "Expecting value", body unread
    pytest.param(_post_head(b"bogus line", _CL), 400, "header",
                 id="no-colon"),  # was: 400 "Expecting value", body unread
    pytest.param(_post_head(_CL, b"Content-Length: 3"), 400, "Content-Length",
                 id="differing-content-lengths"),  # was: 200 from the first
    pytest.param(_post_head(b"X: a\x01b", _CL), 400, "header",
                 id="control-character-in-value"),  # was: 200
    pytest.param(b"GET /healthz HTTP/1.1\r\n\r\n", 400, "Host",
                 id="http-1.1-without-host"),  # was: 200
    pytest.param(b"GET /healthz HTTP/1.0\r\nHost: a\r\nHost: b\r\n\r\n", 400, "Host",
                 id="two-hosts"),  # was: 200
    pytest.param(b"GET /healthz HTTP/1.1\r\nHost: a\r\nHost: a\r\n\r\n", 400, "Host",
                 id="two-identical-hosts-http-1.1"),  # was: 200
    pytest.param(_post_head(b"Host: a", _CL, version=b"HTTP/1.1"), 200, None,
                 id="http-1.1-with-host"),
    pytest.param(_post_head(b"Host: a", b"Transfer-Encoding: chunked", version=b"HTTP/1.1",
                            body=b"%x\r\n%s\r\n0\r\n\r\n" % (len(_QUERY), _QUERY)),
                 501, "Transfer-Encoding",
                 id="chunked-http-1.1"),  # was: 400 "Expecting value", chunks unread
    pytest.param(_post_head(b"Host: a", b"Transfer-Encoding: chunked, gzip", _CL,
                            version=b"HTTP/1.1"), 400, "Transfer-Encoding",
                 id="chunked-not-last-http-1.1"),  # was: 200 from the length
    pytest.param(_post_head(b"Transfer-Encoding: chunked", _CL), 400, "Transfer-Encoding",
                 id="transfer-encoding-and-length-http-1.0"),  # was: 200 from the length
    pytest.param(_post_head(_CL, _CL), 200, None, id="identical-content-lengths"),
    pytest.param(_post_head(_CL, end=b"\n"), 200, None, id="lf-line-ends"),
    # body framing and the existing cases
    *(pytest.param(_post_head(b"Content-Length: " + value.encode(), body=b""), 400,
                   "Content-Length", id=f"content-length-{value or 'empty'}")
      for value in ["-1", "abc", "1.5", "", "0x10"]),
    pytest.param(_post_head(b"Content-Length: 65537", body=b""), 413, "exceeds",
                 id="body-over-cap"),
    pytest.param(_post_head(b"Content-Length: " + b"9" * 5000, body=b""), 413, "exceeds",
                 id="5000-digit-content-length"),
    pytest.param(_post_head(b"Content-Length: " + b"0" * 5000 + b"%d" % len(_QUERY)), 200,
                 None, id="zero-padded-content-length"),
    pytest.param(_post_head(b"Content-Length: 6", body=b"{nope}"), 400, "Expecting",
                 id="malformed-json"),
    pytest.param(_post_head(b"Content-Length: 12", body=b'{"text": ""}'), 400, "text",
                 id="empty-text"),
    pytest.param(_post_head(b"Content-Length: 29", body=b'{"text": "chest \\ud800 pain"}'),
                 400, "string at $['text'] holds an unpaired surrogate",
                 id="unpaired-surrogate"),  # was: 500, the engine could not encode it
    pytest.param(_post_head(b"Content-Length: 35",
                            body=b'{"text": "chest \\ud83d\\ude00 pain"}'), 200, None,
                 id="paired-surrogates"),
    pytest.param(b"GET /nope HTTP/1.0\r\n\r\n", 404, "not found", id="unknown-path"),
    pytest.param(_post_head(b"Content-Length: 10", body=b'{"te'), 408, "in time",
                 id="stalled-body"),
    pytest.param(b"GET /healthz HTTP/1.0\r\n", None, None, id="stalled-head"),
]


class _WriteCounter:
    """A socket that records each send and sendall by name, and refuses
    every other write."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def send(self, data):
        self.writes.append(("send", bytes(data)))
        return self.sock.send(data)

    def sendall(self, data):
        self.writes.append(("sendall", bytes(data)))
        self.sock.sendall(data)

    def __getattr__(self, name):
        assert not name.startswith("send") and name != "makefile", name
        return getattr(self.sock, name)


class TestRawHeads:
    """Hand-built request heads, answered by a server whose requests must
    arrive within 0.3 s."""

    @pytest.fixture()
    def port(self, config):
        service = MedService(config)
        httpd = make_server(service, "127.0.0.1", 0)
        httpd.timeout = 0.3
        # a short poll interval, so that shutdown() returns at once
        thread = threading.Thread(target=httpd.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        yield httpd.server_address[1]
        httpd.shutdown()
        httpd.server_close()
        service.close()

    @pytest.mark.parametrize("raw, status, error", RAW_HEADS)
    def test_answer(self, port, raw, status, error):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        if status is None:
            assert reply == b""
            return
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *fields = head.decode("ascii").split("\r\n")
        assert status_line.startswith(f"HTTP/1.0 {status} ")
        assert "Content-Type: application/json" in fields
        assert f"Content-Length: {len(body)}" in fields
        doc = json.loads(body)
        if error is None:
            assert "answer" in doc
        else:
            assert error in doc["error"]

    @pytest.mark.parametrize("raw, error", [
        (b"GET /healthz HTTP/1.0\r\n", "head incomplete"),
        (_post_head(b"Content-Length: 40"), "body incomplete"),
    ])
    def test_input_ending_early_is_400(self, port, raw, error):
        # was: 200 for both, the short body parsed as if whole
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            status, doc = _read_reply(sock)
        assert status == 400
        assert error in doc["error"]

    @pytest.mark.parametrize("raw, cut_off, status", [
        (_post_head(_CL), False, 200),
        (b"GET /healthz HTTP/x\r\n\r\n", False, 400),
        (b"GET /nope HTTP/1.0\r\n\r\n", False, 404),
        (_post_head(b"Content-Length: 10", body=b'{"te'), True, 408),
        (_post_head(b"Content-Length: 65537", body=b""), False, 413),
        (b"DELETE /v1/query HTTP/1.0\r\n\r\n", False, 501),
    ])
    def test_answer_is_one_sendall(self, config, raw, cut_off, status):
        # the request as the intake leaves it: an engine-free answer goes out
        # in one non-blocking send, a miss (the 200) in a worker's one sendall
        service = MedService(config)
        httpd = make_server(service, "127.0.0.1", 0)
        server_end, client_end = socket.socketpair()
        try:
            server_end.setblocking(False)
            client_end.settimeout(5)
            sock = _WriteCounter(server_end)
            arrival = service_module._Arrival(sock, time.monotonic() + 5)
            arrival.take(raw)
            arrival.cut_off = cut_off
            httpd._dispatch(arrival)
            assert _read_reply(client_end)[0] == status
            assert [call for call, _ in sock.writes] == (
                ["sendall"] if status == 200 else ["send"])
            assert sock.writes[0][1].startswith(b"HTTP/1.0 %d " % status)
        finally:
            client_end.close()
            httpd.server_close()
            service.close()

    def test_hit_is_one_send(self, config):
        service = MedService(config)
        service.handle_query(json.loads(_QUERY)["text"])
        httpd = make_server(service, "127.0.0.1", 0)
        server_end, client_end = socket.socketpair()
        try:
            server_end.setblocking(False)
            client_end.settimeout(5)
            sock = _WriteCounter(server_end)
            arrival = service_module._Arrival(sock, time.monotonic() + 5)
            arrival.take(_post_head(_CL))
            httpd._dispatch(arrival)
            status, doc = _read_reply(client_end)
            assert (status, doc["cache"]) == (200, "memory")
            assert [call for call, _ in sock.writes] == ["send"]
        finally:
            client_end.close()
            httpd.server_close()
            service.close()

    def test_short_send_finished_by_a_worker(self, config):
        class ShortSend:
            """A socket whose send takes at most 10 bytes."""

            def __init__(self, sock):
                self.sock = sock

            def send(self, data):
                return self.sock.send(data[:10])

            def __getattr__(self, name):
                return getattr(self.sock, name)

        service = MedService(config)
        httpd = make_server(service, "127.0.0.1", 0)
        server_end, client_end = socket.socketpair()
        try:
            arrival = service_module._Arrival(ShortSend(server_end), time.monotonic() + 5)
            arrival.take(b"GET /healthz HTTP/1.0\r\n\r\n")
            httpd._dispatch(arrival)
            client_end.settimeout(5)
            assert _read_reply(client_end) == (200, {"status": "ok"})
        finally:
            client_end.close()
            httpd.server_close()
            service.close()

    @pytest.mark.parametrize("raw", [
        _post_head(_CL), _post_head(_CL, end=b"\n"), b"GET /healthz HTTP/1.0\n\r\n",
    ])
    def test_head_trickled_a_byte_at_a_time(self, raw):
        whole = service_module._Arrival(None, 0.0)
        assert whole.take(raw)
        trickled = service_module._Arrival(None, 0.0)
        assert not any(trickled.take(raw[k:k + 1]) for k in range(len(raw) - 1))
        assert trickled.take(raw[-1:])
        assert (trickled.head, trickled.size) == (whole.head, whole.size) != (None, None)

    def test_date_field(self):
        for t in (0, 951782400, 1_700_000_000, 4_102_444_799):
            assert service_module._http_date(t) == email.utils.formatdate(t, usegmt=True)
        head = service_module._reply(200, {}).split(b"\r\n\r\n")[0].decode("ascii")
        date = head.split("\r\nDate: ")[1].split("\r\n")[0]
        assert abs(email.utils.parsedate_to_datetime(date).timestamp() - time.time()) < 2


class TestBench:
    def test_workload_is_seeded_and_bounded(self):
        spec = BenchSpec(requests=50, unique=10, seed=3)
        q1 = synthetic_queries(spec)
        q2 = synthetic_queries(spec)
        assert q1 == q2
        assert len(q1) == 50
        assert len(set(q1)) <= 10

    def test_unique_bounded_by_the_query_pool(self):
        # was: synthetic_queries looped forever looking for a 121st query
        with pytest.raises(ValueError, match="unique must be <= 120"):
            BenchSpec(unique=121)

    def test_all_duplicate_workload_hit_rate(self, config):
        report = run_bench(config, BenchSpec(requests=20, unique=1, seed=0))
        assert report.misses == 1
        assert report.hit_rate == pytest.approx(19 / 20)

    def test_byte_identical_reports(self, config):
        import shutil

        spec = BenchSpec(requests=60, unique=25, seed=11)
        r1 = run_bench(config, spec).text()
        shutil.rmtree(config.cache.disk_dir)
        r2 = run_bench(config, spec).text()
        assert r1.encode() == r2.encode()

    def test_continuous_not_slower_in_report(self, config):
        report = run_bench(config, BenchSpec(requests=40, unique=20, seed=2))
        assert report.continuous_makespan_s <= report.static_makespan_s

    def test_cached_cheaper_than_uncached_with_delay(self, tmp_path):
        doc = json.loads(default_config_path().read_text())
        doc["cache"]["disk_dir"] = str(tmp_path / "cache")
        doc["mock_engine"]["mean_delay_ms"] = 25.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = load_config(path)

        service = MedService(config)
        try:
            miss = service.handle_query("what is the dose of insulin")
            hit = service.handle_query("what is the dose of insulin")
            assert miss.simulated_ms > 0
            assert hit.simulated_ms == 0.0
            assert hit.simulated_ms < miss.simulated_ms
        finally:
            service.close()


class TestCLI:
    def test_classify_exit_zero(self, capsys):
        assert cli_main(["classify", "what dose of aspirin", "--prompt"]) == 0
        out = capsys.readouterr().out
        assert "category: medication" in out
        assert "prompt:" in out

    def test_usage_error_exit_one(self):
        assert cli_main([]) == 1
        assert cli_main(["classify"]) == 1
        assert cli_main(["no-such-command"]) == 1

    @pytest.mark.parametrize("argv", [
        ["bench", "--requests", "0"],
        ["bench", "--unique", "0"],
        ["bench", "--unique", "121", "--requests", "5"],
        ["distill-demo", "--steps", "0"],
        ["distill-demo", "--steps", "-3"],
        ["bench", "--seed", "-1", "--requests", "2"],
        ["distill-demo", "--seed", "-1", "--steps", "2"],
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
    ], ids=" ".join)
    def test_out_of_range_number_is_usage_error(self, capsys, argv):
        # was: exit 3 from the library check (--unique 121: a hang)
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: medserve {argv[0]} ")
        assert f"medserve {argv[0]}: error: argument {argv[1]}: must be " in err

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli_main(["bench", "--config", str(bad)]) == 2

    @staticmethod
    def _config_with(tmp_path, change) -> str:
        doc = json.loads(default_config_path().read_text())
        doc["cache"]["disk_dir"] = str(tmp_path / "cache")
        change(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("change, refused", [
        (lambda d: d["cache"].update(capacity=1.7), "'capacity': 1.7 is not a JSON integer"),
        (lambda d: d["cache"].update(capacity=True), "'capacity': True is not a JSON integer"),
        (lambda d: d["listen"].update(port="80"), "'port': '80' is not a JSON integer"),
        (lambda d: d["mock_engine"].update(seed=2.9), "'seed': 2.9 is not a JSON integer"),
        (lambda d: d["runtime"].update(warmup_shapes=[[32.9, 1]]),
         "'warmup_shapes': 32.9 is not a JSON integer"),
        (lambda d: d["quantization"]["bits"].update(attention=8.9),
         "'attention': 8.9 is not a JSON integer"),
        (lambda d: d["hardware"].update(accelerator_memory_bytes="8589934592"),
         "'accelerator_memory_bytes': '8589934592' is not a JSON integer"),
        (lambda d: d["hardware"].update(accelerator_memory_bytes=8e9),
         "'accelerator_memory_bytes': 8000000000.0 is not a JSON integer"),
        (lambda d: d["engines"][0].update(id=5), "'id': 5 is not a JSON string"),
        (lambda d: d["workload"].update(mean_prompt_tokens="96"),
         "'mean_prompt_tokens': '96' is not a JSON number"),
        (lambda d: d.update(schema_version=True), "'schema_version': True is not a JSON integer"),
        (lambda d: d.update(lexicon_path=7), "'lexicon_path': 7 is not a JSON string"),
    ])
    def test_mistyped_value_exit_two_naming_the_key(self, tmp_path, capsys, change, refused):
        path = self._config_with(tmp_path, change)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"config key {refused}"
        assert cli_main(["classify", "dose of aspirin", "--config", path]) == 2
        assert f"config error: config key {refused}" in capsys.readouterr().err

    def test_integer_values_where_floats_are_taken(self, tmp_path):
        path = self._config_with(tmp_path, lambda d: d["workload"].update(
            mean_prompt_tokens=96, mean_output_tokens=160))
        workload = load_config(path).workload
        assert (workload.mean_prompt_tokens, workload.mean_output_tokens) == (96.0, 160.0)
        assert type(workload.mean_prompt_tokens) is float

    @pytest.mark.parametrize("shapes", [[[32]], [[32, 1, 1]]])
    def test_warmup_shape_not_a_pair_exit_two(self, tmp_path, capsys, shapes):
        path = self._config_with(
            tmp_path, lambda d: d["runtime"].update(warmup_shapes=shapes))
        assert cli_main(["classify", "dose of aspirin", "--config", path]) == 2
        assert "warmup_shapes must be [seq_len, batch] pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["abc", 70000])
    def test_bad_listen_port_exit_two(self, tmp_path, capsys, port):
        path = self._config_with(tmp_path, lambda d: d["listen"].update(port=port))
        assert cli_main(["classify", "dose of aspirin", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [
        "runtime", "quantization", "bits", "mock_engine", "decision_weights", "listen",
    ])
    def test_non_object_section_exit_two(self, tmp_path, capsys, section):
        def change(doc):
            owner = doc["quantization"] if section == "bits" else doc
            owner[section] = [1, 2]

        path = self._config_with(tmp_path, change)
        assert cli_main(["classify", "dose of aspirin", "--config", path]) == 2
        assert f"config section {section!r} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("engines", [
        {"compact": {"id": "compact"}}, ["compact"],
    ])
    def test_engines_not_a_list_of_objects_exit_two(self, tmp_path, capsys, engines):
        path = self._config_with(tmp_path, lambda d: d.update(engines=engines))
        assert cli_main(["classify", "dose of aspirin", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config key 'engines': " in err and " is not a JSON " in err

    @pytest.mark.parametrize("key", ["lexicon_path", "templates_path"])
    def test_missing_lexicon_or_templates_exit_two(self, tmp_path, capsys, key):
        # was: exit 3 with a raw "[Errno 2] No such file or directory"
        absent = tmp_path / "absent.json"
        path = self._config_with(tmp_path, lambda d: d.update({key: str(absent)}))
        assert cli_main(["classify", "aspirin dose", "--prompt", "--config", path]) == 2
        assert f"config error: {absent}: file not found" in capsys.readouterr().err

    def test_negative_remote_timeout_exit_two(self, tmp_path, capsys):
        remote = {"endpoint": "http://127.0.0.1:9", "model": "m", "timeout_s": -1}
        path = self._config_with(tmp_path, lambda d: d.update(remote_engine=remote))
        assert cli_main(["bench", "--config", path, "--requests", "2"]) == 2
        assert "timeout_s" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"capacity": 0}, "capacity must be >= 1"),
        ({"disk_dir": 5}, "config key 'disk_dir': 5 is not a JSON string"),
    ])
    def test_bad_cache_setting_exit_two(self, tmp_path, capsys, change, message):
        path = self._config_with(tmp_path, lambda d: d["cache"].update(change))
        assert cli_main(["classify", "dose of aspirin", "--config", path]) == 2
        assert message in capsys.readouterr().err

    def test_serve_on_busy_port_names_the_bind_error(self, tmp_path, capsys):
        path = self._config_with(tmp_path, lambda d: None)
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = str(busy.getsockname()[1])
            assert cli_main(["serve", "--config", path, "--host", "127.0.0.1",
                             "--port", port]) == 3
        assert "Address already in use" in capsys.readouterr().err

    def test_zero_warmup_shape_exit_two(self, tmp_path, capsys):
        path = self._config_with(
            tmp_path, lambda d: d["runtime"].update(warmup_shapes=[[0, 1]]))
        assert cli_main(["bench", "--config", path, "--requests", "2"]) == 2
        assert "warmup_shapes" in capsys.readouterr().err

    def test_bench_cli_runs(self, tmp_path, capsys):
        doc = json.loads(default_config_path().read_text())
        doc["cache"]["disk_dir"] = str(tmp_path / "cache")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["bench", "--config", str(path),
                         "--requests", "10", "--unique", "5"]) == 0
        out = capsys.readouterr().out
        assert "medserve bench report" in out
        assert "batching:" in out

    def test_quantize_plan_output(self, tmp_path, capsys):
        manifest = [
            {"name": "a", "class": "attention", "shape": [64, 64]},
            {"name": "f", "class": "feedforward", "shape": [64, 128]},
        ]
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert cli_main(["quantize", "--manifest", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out

    def test_quantize_negative_shape_dim_exit_three(self, tmp_path, capsys):
        manifest = [
            {"name": "a", "class": "attention", "shape": [2, 2]},
            {"name": "f", "class": "feedforward", "shape": [-2, 4]},
        ]
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert cli_main(["quantize", "--manifest", str(mpath)]) == 3
        captured = capsys.readouterr()
        assert "total:" not in captured.out
        assert f"{mpath}: entry 1 'shape': [-2, 4] has a negative dim" in captured.err

    def test_quantize_checkpoint_roundtrip(self, tmp_path, capsys):
        import numpy as np

        manifest = [
            {"name": "a", "class": "attention", "shape": [8, 16]},
            {"name": "f", "class": "feedforward", "shape": [16, 16]},
        ]
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        rng = np.random.default_rng(0)
        weights = rng.normal(size=8 * 16 + 16 * 16).astype("<f4")
        wpath = tmp_path / "weights.bin"
        weights.tofile(wpath)
        out_path = tmp_path / "model.msq"
        assert cli_main(["quantize", "--manifest", str(mpath),
                         "--weights", str(wpath), "--out", str(out_path)]) == 0
        from medserve.quantizer import read_checkpoint

        header, restored = read_checkpoint(out_path)
        assert set(restored) == {"a", "f"}

    @staticmethod
    def _manifest(tmp_path, count, shape):
        classes = ["attention", "feedforward", "embedding", "output"]
        doc = [{"name": f"l{i}", "class": classes[i % 4], "shape": list(shape)}
               for i in range(count)]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("size,holds", [
        (0, "holds 0 values,"),
        (4 * 256 + 2, "holds 256 values and 2 trailing bytes,"),
        (4 * 255, "holds 255 values,"),
        (4 * 257, "holds 257 values,"),
    ])
    def test_quantize_weight_file_size_checked(self, tmp_path, capsys, size, holds):
        mpath = self._manifest(tmp_path, 2, (8, 16))
        wpath = tmp_path / "weights.bin"
        wpath.write_bytes(b"\x00" * size)
        out_path = tmp_path / "model.msq"
        assert cli_main(["quantize", "--manifest", str(mpath),
                         "--weights", str(wpath), "--out", str(out_path)]) == 3
        assert f"weight file {holds} manifest expects 256" in capsys.readouterr().err
        assert not out_path.exists()

    def test_quantize_weights_memory_bounded_by_a_layer(self, tmp_path, capsys):
        import tracemalloc

        import numpy as np

        from medserve.quantizer import read_checkpoint

        shape = (512, 1024)  # 2 MiB of float32 per layer, 16 MiB in all
        mpath = self._manifest(tmp_path, 8, shape)
        wpath = tmp_path / "weights.bin"
        rng = np.random.default_rng(5)
        with open(wpath, "wb") as fh:
            for _ in range(8):
                rng.standard_normal(shape, dtype=np.float32).tofile(fh)
        layer_bytes = 4 * shape[0] * shape[1]
        out_path = tmp_path / "model.msq"
        tracemalloc.start()
        try:
            code = cli_main(["quantize", "--manifest", str(mpath),
                             "--weights", str(wpath), "--out", str(out_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # the model is 8 layers, 16 as float64; one layer's codes and the
        # quantizer's fixed 1 MiB tile buffers come to under 3
        assert peak < 3 * layer_bytes
        _, restored = read_checkpoint(out_path)
        assert sorted(restored) == [f"l{i}" for i in range(8)]

    def test_place_cli(self, tmp_path, capsys):
        layers = [
            {"id": "l0", "order": 0, "flops": 1e9, "weight_bytes": 100,
             "activation_bytes": 10},
            {"id": "l1", "order": 1, "flops": 2e9, "weight_bytes": 100,
             "activation_bytes": 10},
        ]
        devices = [
            {"id": "gpu", "memory_bytes": 1000, "throughput_flops": 2e9,
             "bandwidth_bytes": 1e8},
            {"id": "cpu", "memory_bytes": 1000, "throughput_flops": 5e8,
             "bandwidth_bytes": 1e7},
        ]
        lpath = tmp_path / "layers.json"
        dpath = tmp_path / "devices.json"
        lpath.write_text(json.dumps(layers))
        dpath.write_text(json.dumps(devices))
        assert cli_main(["place", "--layers", str(lpath),
                         "--devices", str(dpath), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert set(doc["assignment"]) == {"l0", "l1"}

    def test_place_cli_text_lists_layers_in_order(self, tmp_path, capsys):
        layers = [
            {"id": f"l{i}", "order": i, "flops": 1e9 * (i + 1), "weight_bytes": 100,
             "activation_bytes": 10}
            for i in (2, 0, 3, 1)
        ]
        devices = [
            {"id": "gpu", "memory_bytes": 1000, "throughput_flops": 2e9,
             "bandwidth_bytes": 1e8},
        ]
        lpath = tmp_path / "layers.json"
        dpath = tmp_path / "devices.json"
        lpath.write_text(json.dumps(layers))
        dpath.write_text(json.dumps(devices))
        assert cli_main(["place", "--layers", str(lpath), "--devices", str(dpath)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out if "->" in line] == ["l0", "l1", "l2", "l3"]

    _LAYER = {"id": "l0", "order": 0, "flops": 1e9, "weight_bytes": 100,
              "activation_bytes": 10}
    _DEVICE = {"id": "gpu", "memory_bytes": 1000, "throughput_flops": 2e9,
               "bandwidth_bytes": 1e8}

    @pytest.mark.parametrize("command, docs, fault", [
        ("place", {"layers": {"l0": _LAYER}, "devices": [_DEVICE]},
         "layers.json: expected a JSON list of objects, got dict"),
        ("place", {"layers": [_LAYER, {k: v for k, v in _LAYER.items() if k != "flops"}],
                   "devices": [_DEVICE]},
         "layers.json: entry 1 has no 'flops'"),
        ("place", {"layers": [_LAYER], "devices": [_DEVICE, 7]},
         "devices.json: entry 1 is not a JSON object"),
        ("quantize", {"manifest": [{"name": "a", "class": "attention"}]},
         "manifest.json: entry 0 has no 'shape'"),
    ])
    def test_input_file_fault_named(self, tmp_path, capsys, command, docs, fault):
        argv = [command]
        for flag, doc in docs.items():
            path = tmp_path / f"{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [f"--{flag}", str(path)]
        assert cli_main(argv) == 3
        assert fault in capsys.readouterr().err

    def test_distill_demo_cli(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.tsv"
        assert cli_main(["distill-demo", "--steps", "30",
                         "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("step\t")
        assert len(lines) == 31