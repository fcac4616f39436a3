"""Tests for the JSON input boundary: strict decoding, typing, and the
guard that keeps every reader on it."""

import ast
import json
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
