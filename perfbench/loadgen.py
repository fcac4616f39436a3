"""HTTP load generation: one client process, at most two threads and two
connections at a time.

The service speaks HTTP/1.0 and closes each connection after its response,
so every request opens its own connection; a minimal socket client keeps
the generator's own CPU cost low. Every request has a socket timeout and
every phase a deadline, so a hung server costs a bounded wait and its
outstanding requests count as failed.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass

CLIENTS = 2
REQUEST_TIMEOUT_S = 5.0


@dataclass
class Result:
    status: int  # HTTP status; 0 when the request failed in transport
    payload: dict | None
    due: float
    sent: float
    done: float


@dataclass
class Phase:
    results: list  # Result, or None when never sent
    start: float = 0.0
    elapsed: float = 0.0
    cpu_s: float = 0.0

    @property
    def completed(self) -> list:
        return [r for r in self.results if r is not None and r.status]

    @property
    def cpu_share(self) -> float:
        """Client CPU seconds per wall second (1.0 is one busy core)."""
        return self.cpu_s / self.elapsed if self.elapsed > 0 else 0.0


def _recv_all(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def request(port: int, method: str, path: str, body: bytes = b"",
            timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, dict | None]:
    """One request on its own connection -> (status, decoded JSON body).

    Transport failures (refused, reset, timeout, unparsable reply) return
    status 0.
    """
    head = (f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(head.encode("ascii") + body)
            reply = _recv_all(sock)
        header, _, payload = reply.partition(b"\r\n\r\n")
        status = int(header.split(b" ", 2)[1])
    except (OSError, ValueError, IndexError):
        return 0, None
    try:
        return status, json.loads(payload)
    except ValueError:
        return status, None


def _run(port: int, bodies: list, schedule, deadline_s: float) -> Phase:
    """Send bodies from CLIENTS threads; schedule(k) is the due time of
    request k (None: send as soon as a thread is free, i.e. closed loop).
    Sending stops at deadline_s after the start; threads still busy a grace
    period later are abandoned and their requests count as failed.
    """
    phase = Phase([None] * len(bodies))
    counter = itertools.count()
    start = phase.start = time.perf_counter()
    stop_at = start + deadline_s

    def worker():
        while True:
            k = next(counter)
            if k >= len(bodies):
                return
            due = schedule(k, start)
            now = time.perf_counter()
            if due is None:
                due = now
            elif due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            if sent > stop_at:
                return
            # mark as sent before the request so an abandoned one counts
            phase.results[k] = Result(0, None, due, sent, 0.0)
            status, payload = request(port, "POST", "/v1/query", bodies[k])
            phase.results[k] = Result(status, payload, due, sent, time.perf_counter())

    cpu0 = time.process_time()
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(0.0, stop_at - time.perf_counter()) + REQUEST_TIMEOUT_S + 1.0)
    done = [r.done for r in phase.results if r is not None and r.status]
    phase.elapsed = (max(done) if done else time.perf_counter()) - start
    phase.cpu_s = time.process_time() - cpu0
    return phase


def closed_loop(port: int, bodies: list, deadline_s: float) -> Phase:
    return _run(port, bodies, lambda k, start: None, deadline_s)


def open_loop(port: int, bodies: list, rate: float) -> Phase:
    """Requests due at a fixed rate; latency counts from the due time."""
    span = len(bodies) / rate
    return _run(port, bodies, lambda k, start: start + k / rate, span + 1.0)


def window_rates(done_times, start: float, elapsed: float, width: float = 0.5) -> list:
    """Completion rate in each whole width-second window of a phase (the
    mean rate when the phase is too short or slow for whole windows).

    Within a window the rate is completions after the first over the time
    from the first to the last, so it is not quantized to whole counts.
    Callers report the median over windows, so a burst of host contention
    in one window does not move the figure.
    """
    windows: list[list[float]] = [[] for _ in range(int(elapsed // width))]
    for t in done_times:
        k = int((t - start) // width)
        if 0 <= k < len(windows):
            windows[k].append(t)
    rates = [(len(w) - 1) / (max(w) - min(w)) for w in windows if len(w) > 2]
    return rates or [len(done_times) / elapsed]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
