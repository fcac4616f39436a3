"""Run every workload over several seeds and record medians and quartiles.

Usage (from the repository root):

    python3 perfbench/record.py --label seed-7628c2a --seeds 1-10 \
        --out perfbench/results/BENCH_0.json

Each (workload, seed) is one ``run.py --trace 0`` run of BENCHMARK.json's
``run_seconds``. The output keeps every run's values next to the median,
the quartiles and the quartile spread as a share of the median, which is
the figure a change is judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="", help="comma list; default all")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    runner = Path(__file__).resolve().parent / "run.py"
    record = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(runner), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode or doc is None or not doc["correct"]:
                ok = False
                print(f"{workload} seed {seed}: failed (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            runs.append({"seed": seed, "attempted": doc["attempted"], "failed": doc["failed"]})
            for name, metric in doc["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in doc["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": vals}
            print(f"  {workload} {name}: median={med:.5g} spread={summary[name]['spread']:.4f}")
        record["workloads"][workload] = {"runs": runs, "metrics": summary}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
