"""Processes the benchmark starts: the HTTP server, the in-process replay
and the model-prep worker.

Usage: python3 perfbench/child.py {serve|inproc|modelprep} '<json args>'

Each prints ``READY <json>`` on stdout once it can take work and ``DONE
<json>`` with its results before it exits. The server then waits for
commands on stdin (``trace on``, ``stop``); end of input also stops it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np


def say(tag: str, doc: dict):
    sys.stdout.write(f"{tag} {json.dumps(doc)}\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def service_config(disk_dir: str):
    from medserve.config import load_config

    config = load_config()
    return dataclasses.replace(
        config, cache=dataclasses.replace(config.cache, disk_dir=disk_dir)
    )


# -- HTTP server ----------------------------------------------------------


def serve(args: dict):
    from tracing import SERVING_TARGETS, Tracer

    tracer = Tracer()
    if args["trace"]:
        tracer.install(SERVING_TARGETS)
    from medserve.service import MedService, make_server

    service = MedService(service_config(args["disk_dir"]))
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    say("READY", {"port": server.server_address[1], "missing": tracer.missing})

    for line in sys.stdin:
        command = line.strip()
        if command == "trace on":
            tracer.enabled = True
        elif command == "stop":
            break
    tracer.enabled = False
    server.shutdown()
    server.server_close()
    start = time.perf_counter()
    service.cache.flush()
    flush_ms = (time.perf_counter() - start) * 1000.0
    service.close()
    log_path = Path(args["disk_dir"]) / "cache.log"
    if args["trace"]:
        tracer.dump(args["spans"])
    say("DONE", {
        "peak_rss_mb": peak_rss_mb(),
        "flush_ms": flush_ms,
        "log_bytes": log_path.stat().st_size if log_path.exists() else 0,
    })


# -- in-process replay ----------------------------------------------------


def inproc(args: dict):
    from workloads import WORKLOADS, ServingInputs

    from medserve.service import BadRequest, MedService

    inputs = ServingInputs(WORKLOADS[args["workload"]], args["seed"])
    warm, timed = inputs.phase(args["phase"], args["warmup"], args["requests"])
    service = MedService(service_config(args["disk_dir"]))
    say("READY", {})

    def replay(requests, deadline):
        out = []
        for index, req in enumerate(requests):
            if req.kind == "malformed":
                continue  # never reaches handle_query over HTTP either
            sent = time.perf_counter()
            if sent > deadline:
                break
            try:
                r = service.handle_query(req.text)
            except BadRequest:
                out.append((index, 400, None, sent, time.perf_counter()))
                continue
            except Exception as exc:  # counted as a failed operation
                out.append((index, 500, {"error": repr(exc)}, sent, time.perf_counter()))
                continue
            out.append((index, 200, r.as_dict(), sent, time.perf_counter()))
        return out

    warm_out = replay(warm, float("inf"))
    start = time.perf_counter()
    timed_out = replay(timed, start + args["seconds"])
    elapsed = (timed_out[-1][4] if timed_out else time.perf_counter()) - start
    service.close()
    with open(args["results"], "w", encoding="utf-8") as fh:
        json.dump({"warm": warm_out, "timed": timed_out, "start": start}, fh)
    say("DONE", {"elapsed": elapsed, "peak_rss_mb": peak_rss_mb()})


# -- model prep -----------------------------------------------------------


def host_reference(data) -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work. Run after
    every model-prep pass, it gauges how fast the host is at that moment."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    values = data.copy()
    for _ in range(60):
        values = np.abs(np.round(values * 1.01))
        values.sort()
    return time.perf_counter() - start


def modelprep(args: dict):
    from tracing import MODELPREP_TARGETS, Tracer

    tracer = Tracer()
    if args["trace"]:
        tracer.install(MODELPREP_TARGETS)
    import medserve.placement as placement
    import medserve.quantizer as quantizer
    from workloads import ModelPrepInputs

    inputs = ModelPrepInputs(args["seed"])  # manifests loaded: set-up ends
    say("READY", {"missing": tracer.missing})
    if args.get("setup_only"):
        say("DONE", {"peak_rss_mb": peak_rss_mb()})
        return
    import checks

    inputs.build()
    workdir = Path(args["workdir"])

    def one_pass(tag) -> tuple[dict, dict]:
        """write -> read -> solve each instance; returns (times, outputs)."""
        path = workdir / f"ckpt-{tag}.msq"
        times = {}
        t0 = time.perf_counter()
        quantizer.write_checkpoint(path, inputs.manifest, inputs.policy, inputs.weights)
        t1 = time.perf_counter()
        header, weights = quantizer.read_checkpoint(path)
        t2 = time.perf_counter()
        plans = []
        for kind, layers, devices in inputs.instances:
            s = time.perf_counter()
            plans.append(placement.solve_placement(layers, devices))
            times[f"place_{kind}_s"] = time.perf_counter() - s
        times.update(write_s=t1 - t0, read_s=t2 - t1, pass_s=time.perf_counter() - t0)
        return times, {"path": path, "header": header, "weights": weights, "plans": plans}

    # Warm-up pass, fully checked; later passes must reproduce it exactly.
    _, ref = one_pass("ref")
    failures = checks.check_modelprep(inputs, ref)
    ref_digest = hashlib.sha256(ref["path"].read_bytes()).hexdigest()
    ref_plans = [(p.assignment, p.latency) for p in ref["plans"]]

    def same_as_ref(out) -> bool:
        return (
            hashlib.sha256(out["path"].read_bytes()).hexdigest() == ref_digest
            and all(
                (p.assignment, p.latency) == r for p, r in zip(out["plans"], ref_plans)
            )
            and all(
                out["weights"][k].tobytes() == v.tobytes() for k, v in ref["weights"].items()
            )
        )

    reference_data = np.random.default_rng(0).standard_normal(400_000).astype(np.float32)
    records: list[dict] = []
    counts = {"sent": 0, "failed": 0}

    def run(seconds):
        """Passes until the deadline, each followed by the host reference."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            counts["sent"] += 1
            try:
                times, out = one_pass("run")
                ok = same_as_ref(out)
            except Exception:  # counted as a failed pass
                traceback.print_exc()
                ok = False
            if ok:
                records.append(dict(times, ref_s=host_reference(reference_data)))
            else:
                counts["failed"] += 1

    result = {}
    if args["trace"]:
        # untraced then traced, same work, for the tracing overhead
        run(args["seconds"] / 2)
        result["untraced_passes"] = len(records)
        tracer.enabled = True
        run(args["seconds"] / 2)
        tracer.enabled = False
        tracer.dump(args["spans"])
    else:
        run(args["seconds"])
    result["plan_ms"] = {
        kind: plan.latency * 1000.0
        for (kind, _, _), plan in zip(inputs.instances, ref["plans"])
    }
    result["plan_7b_gap"] = checks.plan_gap(*inputs.instances[-1][1:], ref["plans"][-1])
    result.update(
        records=records, sent=counts["sent"], failed=counts["failed"],
        check_failures=failures, params=inputs.manifest.total_params,
        peak_rss_mb=peak_rss_mb(),
    )
    say("DONE", result)


def main():
    # perfbench/ is on sys.path as the script's directory; src/ comes in
    # through PYTHONPATH from run.py
    mode, args = sys.argv[1], json.loads(sys.argv[2])
    {"serve": serve, "inproc": inproc, "modelprep": modelprep}[mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
