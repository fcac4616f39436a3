"""medserve benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {hot-repeat|long-tail|model-prep} \
        --seed N --seconds S --trace {0|1}

Serving workloads run the real HTTP path: ``MedService`` behind
``make_server`` in a child process (mock engine, zero delay), driven by one
client process with at most two threads and two connections. ``model-prep``
runs checkpoint write/read and placement solves in single-thread worker
processes. The package under ``src/`` is used as checked out; the benchmark
only calls its public functions and, in traced runs, wraps them from outside.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, as BENCHMARK.json lists them (README.md says what each one measures
on each workload). A metric the run did not measure prints as absent. Either
way the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import loadgen
from tracing import by_name, load_spans, self_times
from workloads import WORKLOADS, ServingInputs

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # whole-run watchdog, under the 180 s a run may take
READY_TIMEOUT_S = 60.0
WARMUP_DEADLINE_S = 20.0

# Share of --seconds given to each kind of timed phase, spread over rounds
# so that host contention in one stretch of a run moves the medians little.
SERVING_ROUNDS = 4
MODELPREP_ROUNDS = 3
SERVING_SPLIT = {"closed": 0.3, "open": 0.35, "inproc": 0.35}
# Set-up-only spawns of the model-prep worker, beside one per round, so that
# setup_s is a median of several samples.
MODELPREP_SETUP_SPAWNS = 4
# Model-prep passes are timed in host-speed-adjusted seconds: each pass is
# followed by a fixed reference task (child.host_reference) and its wall time
# is scaled by REF_S over that task's time. On a shared VM the CPU speed
# shifts by up to 1.5x for minutes at a time and moves every part of a pass
# alike; over 11 minutes on a 2-vCPU VM the quartile spread of 30-pass
# medians was 0.24 raw and 0.05 adjusted. REF_S is the task's median time on
# that VM, so the adjusted figures read as ms and op/s there.
REF_S = 0.15
# Warm-up requests sent untimed before each timed serving phase (hot-repeat
# also sends its whole pool once first).
WARMUP = {"hot-repeat": 100, "long-tail": 40}
# Upper bound on closed-loop request rates, used to size the request lists.
MAX_RATE = {"hot-repeat": 5000.0, "long-tail": 400.0}

class Failure(Exception):
    """The run cannot produce a result (program missing or not starting)."""


class Hung(Exception):
    """A server, replay or solver stopped answering; the run stops early and
    reports what it sent, with the outstanding operations as failed."""


# -- child processes --------------------------------------------------------


class Child:
    """A benchmark child process speaking READY/DONE lines on stdout."""

    live: list["Child"] = []

    def __init__(self, mode: str, args: dict, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env,
            text=True,
        )
        Child.live.append(self)
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, tag: str, timeout: float) -> dict:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise Failure(f"child gave no {tag} within {timeout:.0f}s") from None
            if line is None:
                raise Failure(f"child exited (code {self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def send(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float) -> dict:
        """Ask a server to stop (a no-op for other children) and collect DONE."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            return self.expect("DONE", timeout)
        except Failure as exc:
            raise Hung(str(exc)) from None
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self in Child.live:
            Child.live.remove(self)

    @classmethod
    def kill_all(cls):
        for child in list(cls.live):
            child.kill()


def start_server(root: Path, disk_dir: Path, trace: bool = False, spans: str = ""):
    """Spawn a server; returns (child, port, setup seconds to first /healthz 200)."""
    child = Child("serve", {"disk_dir": str(disk_dir), "trace": trace, "spans": spans}, root)
    ready = child.expect("READY", READY_TIMEOUT_S)
    status, _ = loadgen.request(ready["port"], "GET", "/healthz")
    if status != 200:
        raise Failure(f"/healthz answered {status}")
    return child, ready, time.perf_counter() - child.started


# -- serving workloads ------------------------------------------------------


def write_preload(inputs, oracle, directory: Path):
    """The long-tail disk log, written through the cache's own insert/close."""
    from medserve.cache import TwoLevelCache

    cache = TwoLevelCache(capacity=128, disk_dir=directory)
    for text in inputs.preload:
        category, answer = oracle(text)
        cache.insert(text, answer, category)
    cache.close()


class ServingRun:
    def __init__(self, workload, seed: int, seconds: float, root: Path, work: Path):
        self.workload, self.seconds, self.root, self.work = workload, seconds, root, work
        self.inputs = ServingInputs(workload, seed)
        self.oracle = checks.AnswerOracle()
        self.preload_dir = work / "preload"
        self.preload_dir.mkdir(parents=True)
        if self.inputs.preload:
            write_preload(self.inputs, self.oracle, self.preload_dir)
        self.groups = self.inputs.preload_groups()
        self.phases: list[tuple[str, int, int, int]] = []  # name, sent, ok, failed
        self.reasons: list[str] = []
        self.setup: list[float] = []
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        target = self.work / f"cache{self._dirs}"
        shutil.copytree(self.preload_dir, target)
        return target

    def requests(self, phase: int, timed: int):
        return self.inputs.phase(phase, WARMUP[self.workload.name], timed)

    def account(self, name, requests, results, warm: int):
        """Check one server's responses; record operation counts for its
        warm-up (the first ``warm`` requests) and timed phases."""
        verdicts = checks.check_serving(self.oracle, requests, results, self.groups)
        for phase, part, res in ((f"{name}-warmup", verdicts[:warm], results[:warm]),
                                 (name, verdicts[warm:], results[warm:])):
            sent = sum(1 for r in res if r is not None)
            failed = sum(1 for v in part if v is not None)
            self.phases.append((phase, sent, sent - failed, failed))
            self.reasons += [f"{phase}: {v}" for v in part if v is not None][:3]

    def _server_phase(self, tag: int, name: str, timed_count: int, drive,
                      trace: bool = False, spans: str = ""):
        """Fresh server: warm-up, timed phase via drive(port, bodies), stop."""
        child, ready, setup = start_server(self.root, self.fresh_dir(), trace, spans)
        self.setup.append(setup)
        warm, timed = self.requests(tag, timed_count)
        warm_phase = loadgen.closed_loop(ready["port"], [r.body for r in warm],
                                         WARMUP_DEADLINE_S)
        stats = {}
        if trace:
            before = loadgen.request(ready["port"], "GET", "/v1/metrics")[1]
            child.send("trace on")
        phase = drive(ready["port"], [r.body for r in timed])
        if trace:
            after = loadgen.request(ready["port"], "GET", "/v1/metrics")[1]
            stats["metrics"] = _delta(after, before)
        results = [_as_tuple(r) for r in warm_phase.results + phase.results]
        self.account(f"{name}{tag}{'-traced' if trace else ''}", warm + timed, results,
                     len(warm))
        try:
            stats.update(child.finish(timeout=60.0))
        except Hung:
            # the server never sent DONE: count the stop as a failed operation
            self.phases.append((f"{name}{tag}-stop", 1, 0, 1))
            raise
        stats["missing"] = ready.get("missing", [])
        if any(r is not None and r[0] == 0 for r in results):
            raise Hung(f"{name}{tag}: requests got no response")
        return phase, stats

    def closed(self, tag: int, secs: float, **kw):
        """Closed loop over 2 connections -> (phase, server stats, window rates)."""
        count = int(MAX_RATE[self.workload.name] * secs) + 1
        phase, stats = self._server_phase(
            tag, "closed", count,
            lambda port, bodies: loadgen.closed_loop(port, bodies, secs), **kw)
        rates = loadgen.window_rates([r.done for r in phase.completed], phase.start,
                                     phase.elapsed)
        return phase, stats, rates

    def open(self, tag: int, secs: float):
        rate = self.workload.open_rate
        count = max(1, int(rate * secs))
        return self._server_phase(
            tag, "open", count,
            lambda port, bodies: loadgen.open_loop(port, bodies, rate))

    def inproc(self, tag: int, secs: float) -> list:
        """Replay through MedService.handle_query in a fresh process; returns
        the window rates."""
        results_path = self.work / f"inproc{tag}.json"
        count = int(MAX_RATE[self.workload.name] * secs) + 1
        child = Child("inproc", {
            "workload": self.workload.name, "seed": self.inputs.seed, "phase": tag,
            "warmup": WARMUP[self.workload.name], "requests": count, "seconds": secs,
            "disk_dir": str(self.fresh_dir()), "results": str(results_path),
        }, self.root)
        child.expect("READY", READY_TIMEOUT_S)
        try:
            done = child.finish(timeout=secs + 30.0)
        except Hung:
            self.phases.append((f"inproc{tag}", 1, 0, 1))
            raise
        replay = json.loads(results_path.read_text())
        warm, timed = self.requests(tag, count)
        requests = warm + timed
        results: list = [None] * len(requests)
        for part, offset in (("warm", 0), ("timed", len(warm))):
            for index, status, payload, sent, end in replay[part]:
                results[offset + index] = (status, payload, sent, end)
        self.account(f"inproc{tag}", requests, results, len(warm))
        return loadgen.window_rates([r[4] for r in replay["timed"]], replay["start"],
                                    done["elapsed"])

    # -- the two run kinds --------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """SERVING_ROUNDS rounds of (closed, open, in-process), each against a
        fresh server or process; rates are medians over the pooled windows,
        latency percentiles are over the pooled open-loop samples and peak
        RSS is the median over the servers (one server's peak varies by
        several MB from run to run), so host contention in one stretch of the
        run moves the figures little."""
        closed_rates, inproc_rates, latencies, lags, rss = [], [], [], [], []
        secs = {kind: self.seconds * share / SERVING_ROUNDS
                for kind, share in SERVING_SPLIT.items()}
        for r in range(SERVING_ROUNDS):
            _, stats, rates = self.closed(3 * r + 1, secs["closed"])
            closed_rates += rates
            rss.append(stats["peak_rss_mb"])
            opened, stats = self.open(3 * r + 2, secs["open"])
            rss.append(stats["peak_rss_mb"])
            latencies += [(x.done - x.due) * 1000.0 for x in opened.completed]
            lags += [(x.sent - x.due) * 1000.0 for x in opened.completed]
            inproc_rates += self.inproc(3 * r + 3, secs["inproc"])
        metrics = {
            "setup_s": statistics.median(self.setup),
            "throughput_ops_s": statistics.median(closed_rates),
            "latency_p50_ms": loadgen.percentile(latencies, 50),
            "peak_rss_mb": statistics.median(rss),
        }
        # measured and printed every run, but too noisy on a small shared
        # host to gate on (see README.md)
        notes = {
            "inproc_ops_s": statistics.median(inproc_rates),
            "latency_p95_ms": loadgen.percentile(latencies, 95),
            "latency_p99_ms": loadgen.percentile(latencies, 99),
            "open_rate_rps": self.workload.open_rate,
            "open_samples": len(latencies),
            "loadgen.lag_p99_ms": loadgen.percentile(lags, 99),
            "throughput_windows": len(closed_rates),
            "inproc_windows": len(inproc_rates),
            "setup_samples_s": [round(x, 4) for x in self.setup],
        }
        return metrics, notes

    def traced(self, spans_path: Path) -> tuple[dict, dict]:
        secs = self.seconds / 3.0
        untraced, _, untraced_rates = self.closed(1, secs)
        opened, _ = self.open(2, secs)
        # same requests as the untraced closed loop, for the tracing overhead
        traced, stats, traced_rates = self.closed(1, secs, trace=True, spans=str(spans_path))
        spans = load_spans(spans_path)
        named = by_name(spans)
        selfs = self_times(spans)

        def us(name):
            return [(s["end"] - s["start"]) * 1e6 for s in named.get(name, ())]

        def pct(values, q):
            return loadgen.percentile(values, q) if values else None

        handle = us("service.handle_query")
        client = [(r.done - r.sent) * 1e6 for r in traced.completed]
        cache = (stats.get("metrics") or {}).get("cache", {})
        plans = (stats.get("metrics") or {}).get("plans", {})
        lookups = cache.get("memory_hits", 0) + cache.get("disk_hits", 0) + cache.get("misses", 0)
        m = {
            "service.handle_query_us.p50": pct(handle, 50),
            "service.handle_query_us.p99": pct(handle, 99),
            "service.handle_query_self_us.p50": pct(
                [selfs[s["id"]] * 1e6 for s in named.get("service.handle_query", ())], 50),
            "service.http_overhead_us.mean": (
                statistics.fmean(client) - statistics.fmean(handle) if handle and client else None),
            "query_pipeline.classify_us.p50": pct(us("query_pipeline.classify"), 50),
            "query_pipeline.build_prompt_us.p50": pct(us("query_pipeline.build_prompt"), 50),
            "cache.lookup_miss_us.p50": pct(us("cache.lookup_miss"), 50),
            "cache.lookup_miss_us.p99": pct(us("cache.lookup_miss"), 99),
            "cache.lookup_hit_us.p50": pct(us("cache.lookup_hit"), 50),
            "cache.embed_us.p50": pct(us("cache.embed"), 50),
            "cache.insert_us.p50": pct(us("cache.insert"), 50),
            "cache.flush_ms": stats["flush_ms"],
            "cache.log_bytes": stats["log_bytes"],
            "cache.hit_ratio": (
                (cache["memory_hits"] + cache["disk_hits"]) / lookups if lookups else None),
            "cache.memory_hits": cache.get("memory_hits"),
            "cache.disk_hits": cache.get("disk_hits"),
            "cache.misses": cache.get("misses"),
            "cache.evictions": cache.get("evictions"),
            "cache.inserts": cache.get("inserts"),
            "runtime.plan_get_us.p50": pct(us("runtime.plan_get"), 50),
            "runtime.plan_builds": plans.get("builds"),
            "engines.generate_us.p50": pct(us("engines.generate"), 50),
            "engines.generate_calls": (
                None if "medserve.engines.MockEngine.generate" in stats["missing"]
                else len(named.get("engines.generate", ()))),
            "loadgen.lag_p99_ms": pct([(r.sent - r.due) * 1000.0 for r in opened.completed], 99),
            "loadgen.cpu_share": untraced.cpu_share,
            "trace.overhead_pct": (
                statistics.median(untraced_rates) / statistics.median(traced_rates) - 1.0) * 100.0,
        }
        return m, {"missing_targets": stats["missing"], "spans": len(spans)}


def _delta(after, before):
    """Numeric leaves of /v1/metrics after minus before (the timed part)."""
    if isinstance(after, dict) and isinstance(before, dict):
        return {k: _delta(v, before.get(k)) for k, v in after.items()}
    if isinstance(after, (int, float)) and isinstance(before, (int, float)):
        return after - before
    return after


def _as_tuple(result):
    if result is None:
        return None
    return (result.status, result.payload, result.sent, result.done)


# -- model prep ---------------------------------------------------------------


class ModelPrepRun:
    def __init__(self, workload, seed: int, seconds: float, root: Path, work: Path):
        self.seed, self.seconds, self.root, self.work = seed, seconds, root, work
        self.phases: list[tuple[str, int, int, int]] = []
        self.reasons: list[str] = []
        self.setup: list[float] = []

    def _worker(self, name: str, seconds: float, trace=False, spans=""):
        child = Child("modelprep", {
            "seed": self.seed, "seconds": seconds,
            "workdir": str(self.work), "trace": trace, "spans": spans,
        }, self.root)
        ready = child.expect("READY", READY_TIMEOUT_S)
        self.setup.append(time.perf_counter() - child.started)
        try:
            done = child.finish(timeout=seconds + 30.0)
        except Hung:
            # a hung solver: its outstanding passes count as failed
            self.phases.append((name, 1, 0, 1))
            raise
        done["missing"] = ready.get("missing", [])
        failed = done["failed"] + (1 if done["check_failures"] else 0)
        self.phases.append((name, done["sent"] + 1, done["sent"] + 1 - failed, failed))
        self.reasons += done["check_failures"][:5]
        return done

    def setup_only(self):
        child = Child("modelprep", {"seed": self.seed, "setup_only": True, "trace": False},
                      self.root)
        child.expect("READY", READY_TIMEOUT_S)
        self.setup.append(time.perf_counter() - child.started)
        try:
            child.finish(timeout=60.0)
        except Hung:
            self.phases.append(("setup-only", 1, 0, 1))
            raise

    def end_to_end(self) -> tuple[dict, dict]:
        """MODELPREP_ROUNDS single-thread workers, each a fresh process, plus
        MODELPREP_SETUP_SPAWNS set-up-only spawns."""
        single, rss = [], []
        for r in range(MODELPREP_ROUNDS):
            one = self._worker(f"passes{r + 1}", self.seconds / MODELPREP_ROUNDS)
            single += one["records"]
            rss.append(one["peak_rss_mb"])
        for _ in range(MODELPREP_SETUP_SPAWNS):
            self.setup_only()
        if not single:  # every pass failed; the phase counts say so
            return {}, {"passes": 0}
        passes = [s * 1000.0 for s in _adjusted(single)]
        raw = [r["pass_s"] * 1000.0 for r in single]
        mparam = one["params"] / 1e6

        def med(key):
            return statistics.median(r[key] for r in single)

        metrics = {
            "setup_s": statistics.median(self.setup),
            "throughput_ops_s": len(passes) / sum(passes) * 1000.0,
            "latency_p50_ms": loadgen.percentile(passes, 50),
            "peak_rss_mb": statistics.median(rss),
        }
        notes = {
            "latency_p95_ms": loadgen.percentile(passes, 95),
            "raw_throughput_ops_s": len(raw) / sum(raw) * 1000.0,
            "raw_latency_p50_ms": loadgen.percentile(raw, 50),
            "host_reference_s": med("ref_s"),
            "ckpt_write_mparam_s": mparam / med("write_s"),
            "ckpt_read_mparam_s": mparam / med("read_s"),
            "place_exact_s": med("place_exact_s"),
            "place_7b_s": med("place_7b_s"),
            "place_exact_plan_ms": one["plan_ms"]["exact"],
            "place_7b_plan_ms": one["plan_ms"]["7b"],
            "params": one["params"],
            "passes": len(single),
            "setup_samples_s": [round(x, 4) for x in self.setup],
        }
        return metrics, notes

    def traced(self, spans_path: Path) -> tuple[dict, dict]:
        done = self._worker("traced", self.seconds, trace=True, spans=str(spans_path))
        spans = load_spans(spans_path)
        named = by_name(spans)
        selfs = self_times(spans)

        def rate(name, kind=None):
            sel = [s for s in named.get(name, ()) if kind is None or s["note"]["kind"] == kind]
            if not sel:
                return None
            return sum(s["note"]["n"] for s in sel) / sum(s["end"] - s["start"] for s in sel) / 1e6

        def med_self(name):
            sel = named.get(name)
            return statistics.median(selfs[s["id"]] for s in sel) if sel else None

        def med_dur(name, scale, pick=None):
            sel = named.get(name, ())
            if pick is not None:
                sel = sel[pick::2]
            return statistics.median((s["end"] - s["start"]) * scale for s in sel) if sel else None

        mparam = done["params"] / 1e6
        recs, split = done["records"], done["untraced_passes"]
        m = {
            "quantizer.quantize_nf4_mparam_s": rate("quantizer.quantize_tensor", "nf4"),
            "quantizer.quantize_int8_mparam_s": rate("quantizer.quantize_tensor", "int8"),
            "quantizer.write_checkpoint_self_s": med_self("quantizer.write_checkpoint"),
            "quantizer.dequantize_mparam_s": rate("quantizer.dequantize"),
            "quantizer.read_checkpoint_self_s": med_self("quantizer.read_checkpoint"),
            "quantizer.ckpt_write_mparam_s": mparam / statistics.median(r["write_s"] for r in recs),
            "quantizer.ckpt_read_mparam_s": mparam / statistics.median(r["read_s"] for r in recs),
            "placement.build_affinity_ms": med_dur("placement.build_affinity", 1e3),
            # solve_placement spans alternate: exact instance, then 7B
            "placement.solve_exact_ms": med_dur("placement.solve_placement", 1e3, 0),
            "placement.solve_7b_ms": med_dur("placement.solve_placement", 1e3, 1),
            "placement.exact_plan_ms": done["plan_ms"]["exact"],
            "placement.plan_7b_ms": done["plan_ms"]["7b"],
            "placement.plan_7b_gap": done["plan_7b_gap"],
            "trace.overhead_pct": (
                statistics.fmean(_adjusted(recs[split:]))
                / statistics.fmean(_adjusted(recs[:split])) - 1.0) * 100.0
            if 0 < split < len(recs) else None,
        }
        return m, {"missing_targets": done["missing"], "spans": len(spans)}


def _adjusted(records) -> list[float]:
    """Pass wall times in seconds, scaled to the host speed REF_S stands for."""
    return [r["pass_s"] * REF_S / r["ref_s"] for r in records]


# -- entry point --------------------------------------------------------------


def _watchdog(signum, frame):
    raise Failure(f"run exceeded {RUN_LIMIT_S}s")


def run(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"run-{os.getpid()}"
    spans_dir = root / ".perfbench" / "spans"
    work.mkdir(parents=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    kind = ServingRun if workload.kind == "serving" else ModelPrepRun
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        bench = kind(workload, args.seed, args.seconds, root, work)
        try:
            if args.trace:
                spans_path = spans_dir / f"{workload.name}-seed{args.seed}.jsonl"
                values, notes = bench.traced(spans_path)
                notes["span_file"] = str(spans_path.relative_to(root))
            else:
                values, notes = bench.end_to_end()
        except Hung as exc:
            # whatever phase hung, the run's outputs are incomplete
            values, notes = {}, {"stopped_early": str(exc)}
            bench.reasons.append(f"stopped early: {exc}")
        phases, reasons = bench.phases, bench.reasons
    finally:
        Child.kill_all()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {workload.why}")
    for name, sent, ok, failed in phases:
        print(f"  phase {name:<16} sent={sent:<7} succeeded={ok:<7} failed={failed}")
    for why in reasons:
        print(f"  check failed: {why}")
    for name, value in notes.items():
        print(f"  note {name} = {value}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        print(f"  metric {name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
        metrics[name] = {"value": 0.0 if value is None else float(value), "unit": unit}
    attempted = sum(p[1] for p in phases)
    failed = sum(p[3] for p in phases)
    correct = failed == 0 and not reasons
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "medserve" / "__init__.py").is_file() or not (
            root / "BENCHMARK.json").is_file():
        print("perfbench: run from a medserve checkout (src/medserve or BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(RUN_LIMIT_S)
    try:
        return run(args, root)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        Child.kill_all()


if __name__ == "__main__":
    sys.exit(main())
