"""Command-line entry point.

Subcommands: serve, classify, quantize, place, bench, distill-demo.
Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .query_pipeline import LexiconError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="medserve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the HTTP query service")
    p.add_argument("--config", help="service config JSON (packaged defaults if omitted)")
    p.add_argument("--host", help="override listen host")
    p.add_argument("--port", type=int, help="override listen port")

    p = sub.add_parser("classify", help="classify a query and show the prompt")
    p.add_argument("text", help="query text")
    p.add_argument("--config", help="service config JSON")
    p.add_argument("--prompt", action="store_true", help="also print the composed prompt")

    p = sub.add_parser("quantize", help="plan or produce a quantized checkpoint")
    p.add_argument("--manifest", required=True, help="model manifest JSON")
    p.add_argument("--weights", help="raw float32 little-endian weights, manifest order")
    p.add_argument("--out", help="output checkpoint path (requires --weights)")
    p.add_argument("--config", help="service config JSON supplying the policy")

    p = sub.add_parser("place", help="solve layer-to-device placement")
    p.add_argument("--layers", required=True, help="layer profiles JSON")
    p.add_argument("--devices", required=True, help="device specs JSON")
    p.add_argument("--mode", choices=["auto", "exact", "greedy"], default="auto")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("bench", help="replay a seeded workload and print the report")
    p.add_argument("--config", help="service config JSON")
    p.add_argument("--requests", type=int, default=100)
    p.add_argument("--unique", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("distill-demo", help="run the toy distillation loop")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="write per-step metrics to this file")
    return parser


def _cmd_serve(args) -> int:
    from .service import serve_forever

    config = load_config(args.config)
    serve_forever(config, host=args.host, port=args.port)
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .query_pipeline import build_prompt, classify, load_lexicon, load_templates

    config = load_config(args.config)
    lexicon = load_lexicon(config.lexicon_path)
    classified = classify(args.text, lexicon)
    print(f"category: {classified.category.value}")
    scores = " ".join(f"{c.value}={classified.scores[c]}" for c in classified.scores)
    print(f"scores: {scores}")
    if args.prompt:
        templates = load_templates(config.templates_path)
        print("prompt:")
        print(build_prompt(classified, templates))
    return EXIT_OK


def _cmd_quantize(args) -> int:
    from .quantizer import apply_policy, load_manifest, write_checkpoint

    config = load_config(args.config)
    manifest = load_manifest(args.manifest)
    policy = config.quantization
    plan = apply_policy(manifest, policy)

    if args.weights:
        if not args.out:
            print("medserve quantize: --weights requires --out", file=sys.stderr)
            return EXIT_USAGE
        size = os.path.getsize(args.weights)
        expected = manifest.total_params
        if size != 4 * expected:
            tail = f" and {size % 4} trailing bytes" if size % 4 else ""
            raise ValueError(
                f"weight file holds {size // 4} values{tail}, manifest expects {expected}"
            )
        # Mapped, not read: each layer is a float32 view that the quantizer
        # casts a tile at a time, so memory stays bounded by one layer.
        raw = np.memmap(args.weights, dtype="<f4", mode="r") if size else np.empty(0, "<f4")
        weights = {}
        offset = 0
        for layer in manifest.layers:
            weights[layer.name] = raw[offset:offset + layer.params].reshape(layer.shape)
            offset += layer.params
        write_checkpoint(args.out, manifest, policy, weights)
        print(f"wrote checkpoint: {args.out}")

    print(f"{'layer':<28} {'class':<12} {'bits':>4} {'params':>12} {'bytes':>14}")
    for lp in plan.layers:
        print(f"{lp.name:<28} {lp.layer_class.value:<12} {lp.bits:>4} "
              f"{lp.params:>12} {lp.total_bytes:>14}")
    print(f"total: {plan.total_bytes} bytes "
          f"({plan.total_bytes / 2**30:.3f} GiB), fp16 baseline "
          f"{plan.fp16_bytes} bytes, reduction {plan.reduction * 100:.1f}%")
    return EXIT_OK


def _cmd_place(args) -> int:
    from .placement import DeviceSpec, LayerProfile, solve_placement
    from .jsonio import read_json_records

    layers_doc = read_json_records(args.layers, {
        "id": str, "order": int, "flops": float, "weight_bytes": int,
        "activation_bytes": int,
    })
    devices_doc = read_json_records(args.devices, {
        "id": str, "memory_bytes": int, "throughput_flops": float,
        "bandwidth_bytes": float,
    })
    layers = [
        LayerProfile(
            id=l["id"], order=l["order"], flops=l["flops"],
            weight_bytes=l["weight_bytes"], activation_bytes=l["activation_bytes"],
        )
        for l in layers_doc
    ]
    devices = [
        DeviceSpec(
            id=d["id"], memory_bytes=d["memory_bytes"],
            throughput_flops=d["throughput_flops"], bandwidth_bytes=d["bandwidth_bytes"],
        )
        for d in devices_doc
    ]
    plan = solve_placement(layers, devices, mode=args.mode)
    if args.json:
        print(json.dumps({
            "feasible": plan.feasible,
            "mode": plan.mode,
            "latency_s_per_token": plan.latency if plan.feasible else None,
            "assignment": plan.assignment,
            "memory_per_device": plan.memory_per_device,
        }, indent=2, sort_keys=True, allow_nan=False))
        return EXIT_OK if plan.feasible else EXIT_RUNTIME
    if not plan.feasible:
        print("placement infeasible: total weights exceed device capacities")
        return EXIT_RUNTIME
    print(f"mode: {plan.mode}")
    for layer, device in plan.assignment.items():  # already in layer order
        print(f"  {layer} -> {device}")
    print(f"predicted latency: {plan.latency:.6e} s/token")
    for dev, used in plan.memory_per_device.items():
        print(f"  {dev}: {used} bytes used")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import BenchSpec, run_bench

    config = load_config(args.config)
    spec = BenchSpec(requests=args.requests, unique=args.unique, seed=args.seed)
    report = run_bench(config, spec)
    print(report.text(), end="")
    return EXIT_OK


def _cmd_distill_demo(args) -> int:
    from .distill import ToyDistillConfig, train_toy_distill

    config = ToyDistillConfig(steps=args.steps, seed=args.seed)
    report = train_toy_distill(config)
    lines = "\n".join(report.lines()) + "\n"
    if args.out:
        Path(args.out).write_text(
            "step\tlr\ttotal\tce\tkl\tmse\tentity\n" + lines, encoding="utf-8"
        )
        print(f"wrote metrics: {args.out}")
    else:
        print("step\tlr\ttotal\tce\tkl\tmse\tentity")
        print(lines, end="")
    if report.diverged:
        print(f"diverged at step {report.diverged_step}", file=sys.stderr)
        return EXIT_RUNTIME
    ratio = report.final_kl / report.initial_kl if report.initial_kl else 0.0
    print(f"initial_kl={report.initial_kl:.6f} final_kl={report.final_kl:.6f} "
          f"ratio={ratio:.4f}")
    return EXIT_OK


_COMMANDS = {
    "serve": _cmd_serve,
    "classify": _cmd_classify,
    "quantize": _cmd_quantize,
    "place": _cmd_place,
    "bench": _cmd_bench,
    "distill-demo": _cmd_distill_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, LexiconError) as exc:
        print(f"medserve: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"medserve: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
