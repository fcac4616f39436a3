"""Tests for the JSON input boundary: strict decoding, typing, and the
guard that keeps every reader on it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medserve
from medserve.adapters import LoraAdapter, load_adapter, save_adapter
from medserve.cli import main as cli_main
from medserve.config import ConfigError, default_config_path, load_config
from medserve.jsonio import InvalidJSON, loads, typed

# The float fields of every reader, each as (where in the document, key).
CONFIG_FLOATS = [
    (("cache",), "alpha"), (("cache",), "tau"),
    (("workload",), "mean_prompt_tokens"), (("workload",), "mean_output_tokens"),
    (("engines", 0), "base_rate_tokens_per_s"), (("engines", 0), "request_overhead_s"),
    *((("decision_weights",), key) for key in ("performance", "fit", "cost")),
    *((("mode_candidates", mode), key) for mode in ("adapter", "merged")
      for key in ("performance", "fit", "cost")),
    (("mock_engine",), "mean_delay_ms"),
    (("remote_engine",), "timeout_s"), (("remote_engine",), "retry_backoff_s"),
]
ADAPTER_FLOATS = [((), "alpha"), (("a", 0), 1), (("b", 1), 0)]
PLACE_FLOATS = [("layers", "flops"), ("devices", "throughput_flops"),
                ("devices", "bandwidth_bytes")]
# RFC 8259 allows none of these; Python's json reads them as nan, -inf, inf
NON_FINITE = ["NaN", "-Infinity", "1e400"]
_SLOT = "non-finite value goes here"


def _write_with(path: Path, doc, where, key, literal: str) -> None:
    """Write doc with doc[*where][key] set to the JSON text literal."""
    node = doc
    for step in where:
        node = node[step]
    node[key] = _SLOT
    path.write_text(json.dumps(doc).replace(json.dumps(_SLOT), literal))


class TestNonFiniteRefusedEverywhere:
    @pytest.mark.parametrize("literal", NON_FINITE)
    @pytest.mark.parametrize("where, key", CONFIG_FLOATS)
    def test_config(self, tmp_path, capsys, where, key, literal):
        doc = json.loads(default_config_path().read_text())
        doc["remote_engine"] = {"endpoint": "http://127.0.0.1:9", "model": "m"}
        path = tmp_path / "c.json"
        _write_with(path, doc, where, key, literal)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        message = str(info.value)
        if literal == "1e400":  # typed: a key error, which names no file
            assert message == f"config key {key!r}: inf is beyond the float range"
        else:
            keys = "$" + "".join(f"[{step!r}]" for step in (*where, key))
            assert message == (f"{path}: invalid JSON: {literal} at {keys} "
                               "is not a JSON number")
        assert cli_main(["bench", "--requests", "2", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("literal", NON_FINITE)
    @pytest.mark.parametrize("where, key", ADAPTER_FLOATS)
    def test_adapter(self, tmp_path, where, key, literal):
        path = tmp_path / "adapter.json"
        rng = np.random.default_rng(5)
        save_adapter(LoraAdapter(rng.normal(size=(3, 2)), rng.normal(size=(2, 3)), 2, 2.0),
                     path)
        _write_with(path, json.loads(path.read_text()), where, key, literal)
        with pytest.raises(ValueError) as info:
            load_adapter(path)
        field = where[0] if where else key
        if literal == "1e400":
            assert str(info.value) == (f"{path}: adapter container {field!r}: "
                                       "inf is beyond the float range")
        else:
            keys = "$" + "".join(f"[{step!r}]" for step in (*where, key))
            assert str(info.value) == (f"{path}: invalid JSON: {literal} at {keys} "
                                       "is not a JSON number")

    @pytest.mark.parametrize("literal", NON_FINITE)
    @pytest.mark.parametrize("doc, key", PLACE_FLOATS)
    def test_place(self, tmp_path, capsys, doc, key, literal):
        docs = {"layers": [{"id": "l0", "order": 0, "flops": 1e9, "weight_bytes": 10,
                            "activation_bytes": 1}],
                "devices": [{"id": "d0", "memory_bytes": 100, "throughput_flops": 1e9,
                             "bandwidth_bytes": 1e8}]}
        paths = {name: tmp_path / f"{name}.json" for name in docs}
        for name, records in docs.items():
            paths[name].write_text(json.dumps(records))
        _write_with(paths[doc], docs[doc], (0,), key, literal)
        argv = ["place", "--layers", str(paths["layers"]),
                "--devices", str(paths["devices"]), "--json"]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        if literal == "1e400":
            assert f"{paths[doc]}: entry 0 {key!r}: inf is beyond the float range" in err
        else:
            assert (f"{paths[doc]}: invalid JSON: {literal} at $[0][{key!r}] "
                    "is not a JSON number") in err


class TestLoads:
    @pytest.mark.parametrize("data", [
        b"{nope", b"[" * 60_000, b"\xff", b'{"a": 1} x', b"", b"\xef\xbb\xbf{}",
    ])
    def test_refused_as_one_error(self, data):
        with pytest.raises(InvalidJSON):
            loads(data)

    @pytest.mark.parametrize("data, message", [
        (b"NaN", "NaN at $ is not a JSON number"),
        (b'{"a": [1, {"b": -Infinity}]}', "-Infinity at $['a'][1]['b'] is not a JSON number"),
    ])
    def test_literal_located(self, data, message):
        with pytest.raises(InvalidJSON) as info:
            loads(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("data, message", [
        (b'"\\ud800"', "string at $ holds an unpaired surrogate"),
        (b'{"text": "chest \\ud800 pain"}', "string at $['text'] holds an unpaired surrogate"),
        (b'{"a": [1, "x\\udfff"]}', "string at $['a'][1] holds an unpaired surrogate"),
        (b'["\\ude00\\ud83d"]', "string at $[0] holds an unpaired surrogate"),
        (b'{"k\\udc80": 1}', "string at $['k\\udc80'] holds an unpaired surrogate"),
    ])
    def test_unpaired_surrogate_located(self, data, message):
        # I-JSON (RFC 7493 section 2.1): such a string has no UTF-8 encoding
        with pytest.raises(InvalidJSON) as info:
            loads(data)
        assert str(info.value) == message

    def test_paired_surrogates_decode(self):
        assert loads(b'{"t": "\\ud83d\\ude00 \\\\ud800"}') == {"t": "\U0001f600 \\ud800"}

    def test_valid_document(self):
        assert loads(b'{"text": "NaN \\u00e9", "n": [1, 2.5, null, true]}') == {
            "text": "NaN é", "n": [1, 2.5, None, True]}


class TestTyped:
    def test_dict_of_kind_names_the_key(self):
        assert typed({"a": ["x"], "b": []}, dict[str, list[str]]) == {"a": ["x"], "b": []}
        with pytest.raises(ValueError) as info:
            typed({"a": ["x"], "b": [3]}, dict[str, list[str]])
        assert str(info.value) == "key 'b': 3 is not a JSON string"
        with pytest.raises(ValueError, match=r"\[1\] is not a JSON object"):
            typed([1], dict[str, str])

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), 10**400])
    def test_float_beyond_range_refused(self, value):
        with pytest.raises(ValueError, match="is beyond the float range"):
            typed(value, float)


_MANIFEST = {"name": "a", "class": "attention", "shape": [2, 2]}
_LAYER = {"id": "l0", "order": 0, "flops": 1e9, "weight_bytes": 10, "activation_bytes": 1}
_DEVICE = {"id": "d0", "memory_bytes": 100, "throughput_flops": 1e9, "bandwidth_bytes": 1e8}
_CONFIG = json.loads(default_config_path().read_text())
_NOT_AN_OBJECT = "config section 'remote_engine' must be a JSON object"


@pytest.mark.parametrize("command, docs, code, fault", [
    (["quantize"], {"manifest": [{**_MANIFEST, "name": 5}]}, 3,
     "manifest.json: entry 0 'name': 5 is not a JSON string"),
    (["quantize"], {"manifest": [{**_MANIFEST, "name": True}, {**_MANIFEST, "name": 1}]}, 3,
     "manifest.json: entry 0 'name': True is not a JSON string"),
    (["quantize"], {"manifest": [{**_MANIFEST, "class": "mlp"}]}, 3,
     "manifest.json: entry 0 'class': 'mlp' is not a valid LayerClass"),
    (["quantize"], {"manifest": [{**_MANIFEST, "class": ["x"]}]}, 3,
     "manifest.json: entry 0 'class': ['x'] is not a JSON string"),
    (["place"], {"layers": [{**_LAYER, "id": 5}], "devices": [_DEVICE]}, 3,
     "layers.json: entry 0 'id': 5 is not a JSON string"),
    (["place"], {"layers": [{**_LAYER, "id": [1]}], "devices": [_DEVICE]}, 3,
     "layers.json: entry 0 'id': [1] is not a JSON string"),
    (["place"], {"layers": [_LAYER], "devices": [{**_DEVICE, "id": None}]}, 3,
     "devices.json: entry 0 'id': None is not a JSON string"),
    (["classify", "dose of aspirin"], {"config": {**_CONFIG, "remote_engine": {}}}, 2,
     "missing required config key 'endpoint'"),
    *((["classify", "dose of aspirin"], {"config": {**_CONFIG, "remote_engine": value}}, 2,
       _NOT_AN_OBJECT) for value in ([], False, 0, "")),
])
def test_field_of_wrong_type_refused(tmp_path, capsys, command, docs, code, fault):
    """A manifest name or class, a placement id, or a remote_engine that is
    not an object or null, is refused with its key named: never cast to a
    string, and never read as absent."""
    argv = list(command)
    for flag, doc in docs.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{flag}", str(path)]
    if command == ["quantize"]:
        weights = tmp_path / "weights.bin"
        weights.write_bytes(bytes(16 * len(docs["manifest"])))  # 4 float32 per layer
        argv += ["--weights", str(weights), "--out", str(tmp_path / "model.msq")]
    inputs = sorted(tmp_path.iterdir())
    assert cli_main(argv) == code
    assert fault in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs  # no checkpoint, not even a temporary one


def test_one_json_boundary():
    """Only jsonio decodes JSON, and no module imports another's private name."""
    decoders = ("load", "loads", "JSONDecoder")
    faults = []
    for path in sorted(Path(medserve.__file__).parent.glob("*.py")):
        boundary = path.name == "jsonio.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    private = alias.name.startswith("_") and not alias.name.startswith("__")
                    decoder = node.module == "json" and alias.name in decoders
                    if private or (decoder and not boundary):
                        faults.append(f"{path.name}:{node.lineno} imports {alias.name}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "json" and node.attr in decoders and not boundary):
                faults.append(f"{path.name}:{node.lineno} uses json.{node.attr}")
    assert faults == []


SERVING_MODULES = {f"medserve.{name}" for name in (
    "cache", "engines", "runtime", "query_pipeline", "service")}


@pytest.mark.parametrize("statement, check", [
    ("import medserve.config",
     lambda loaded: loaded == {"medserve", "medserve.config", "medserve.jsonio"}),
    ("import medserve.cli",
     lambda loaded: loaded == {"medserve", "medserve.cli", "medserve.config", "medserve.jsonio"}),
    ("import medserve.quantizer, medserve.placement, medserve.config",
     lambda loaded: loaded.isdisjoint(SERVING_MODULES)),
], ids=["config", "cli", "model-prep"])
def test_start_up_import_graph(statement, check):
    """Importing the config or the CLI loads neither numpy nor the serving
    stack, and model prep loads no serving module; a config parsed
    afterwards still gives the packaged defaults."""
    code = "\n".join([
        "import sys",
        statement,
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('medserve', 'numpy')))",
        "from medserve.config import load_config",
        "print(repr(load_config()))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(medserve.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert check(set(ast.literal_eval(out[0]))), out[0]
    assert out[1] == repr(load_config())
