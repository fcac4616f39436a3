"""Span recording around calls into medserve, installed from outside.

The benchmark never edits the package: it replaces module and class
attributes with wrappers that record one span per call. A span holds its
name, start and end (perf_counter seconds), the id of the enclosing span on
the same thread, and the request id of the outermost span it belongs to.
Spans stay in memory until ``dump`` writes them out as JSON lines.

A target that no longer exists (renamed or moved) is skipped and listed in
``Tracer.missing``; the metrics built on it then read as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

import numpy as np

# (span name, module, attribute path). A span name may be refined per call
# by the wrapper (cache lookups split into hit and miss).
SERVING_TARGETS = (
    ("service.handle_query", "medserve.service", "MedService.handle_query"),
    ("query_pipeline.classify", "medserve.service", "classify"),
    ("query_pipeline.build_prompt", "medserve.service", "build_prompt"),
    ("cache.lookup", "medserve.cache", "TwoLevelCache.lookup"),
    ("cache.insert", "medserve.cache", "TwoLevelCache.insert"),
    ("cache.embed", "medserve.cache", "embed"),
    ("runtime.plan_get", "medserve.runtime", "PlanCache.get_or_build"),
    ("engines.generate", "medserve.engines", "MockEngine.generate"),
)

MODELPREP_TARGETS = (
    ("quantizer.write_checkpoint", "medserve.quantizer", "write_checkpoint"),
    ("quantizer.read_checkpoint", "medserve.quantizer", "read_checkpoint"),
    ("quantizer.quantize_tensor", "medserve.quantizer", "quantize_tensor"),
    ("quantizer.dequantize", "medserve.quantizer", "dequantize"),
    ("placement.solve_placement", "medserve.placement", "solve_placement"),
    ("placement.build_affinity", "medserve.placement", "build_affinity"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, extra)
        self.enabled = False
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, extra=None):
        """Run fn inside a span; ``extra(result, args)``, when given, returns
        the span's final name and a small annotation."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1]
        else:
            parent, request = 0, next(self._requests)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        note = None
        if extra is not None:
            name, note = extra(result, args)
        self.spans.append((span_id, name, start, end, parent, request, note))
        return result

    # -- installation ---------------------------------------------------

    def install(self, targets):
        """Wrap every target that exists; remember the rest as missing."""
        for name, module_name, attr in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, _EXTRAS.get(name))
            setattr(owner, leaf, wrapper)

    def _wrap(self, name, original, extra):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, extra)

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request, note in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "note": note,
                }) + "\n")


def _lookup_extra(result, args):
    return ("cache.lookup_hit" if result is not None else "cache.lookup_miss"), None


def _quantize_extra(result, args):
    # annotation: kind and element count, so rates can be computed per kind
    kind = getattr(result, "kind", "?")
    shape = getattr(result, "shape", ())
    return "quantizer.quantize_tensor", {"kind": kind, "n": int(np.prod(shape))}


def _dequantize_extra(result, args):
    return "quantizer.dequantize", {"n": int(np.size(result))}


_EXTRAS = {
    "cache.lookup": _lookup_extra,
    "quantizer.quantize_tensor": _quantize_extra,
    "quantizer.dequantize": _dequantize_extra,
}


# -- analysis -------------------------------------------------------------


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def by_name(spans: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out
