"""The JSON input boundary: every JSON document medserve reads is decoded by
loads and typed by typed. RFC 8259 §6 allows no NaN or Infinity, but
Python's json reads the literals NaN, Infinity and -Infinity, and 1e400 as
inf: loads refuses the literals, and float typing refuses inf. I-JSON (RFC
7493 §2.1) allows no unpaired surrogate either, which Python's json reads
from an escape such as "\\ud800" into a string UTF-8 cannot encode: loads
refuses it too.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import get_args, get_origin


class InvalidJSON(ValueError):
    """Bytes that are not one UTF-8 I-JSON text; also what the decoder
    raises, and the locator returns, at NaN or Infinity."""


def _refuse(name: str):
    raise InvalidJSON(name)


# Built once: a keyword to json.loads would build a decoder on every call.
_DECODER = json.JSONDecoder(parse_constant=_refuse)
_LOCATOR = json.JSONDecoder(parse_constant=InvalidJSON)
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # decoded, a paired escape is one code point


def _literal(node) -> bool:
    return isinstance(node, InvalidJSON)


def _unpaired(node) -> bool:
    return isinstance(node, str) and _SURROGATE.search(node) is not None


def _trail(node, bad, where="$"):
    """The JSONPath (RFC 9535) of the first value or object key in node that
    bad accepts (a key by its member's path), or None."""
    if bad(node):
        return where
    pairs = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in pairs:
        path = f"{where}[{key!r}]"
        found = path if bad(key) else _trail(value, bad, path)
        if found is not None:
            return found
    return None


def loads(data: bytes):
    """The JSON value in the UTF-8 bytes data. Raises InvalidJSON for bytes
    that are not UTF-8 or not JSON, nest past the recursion limit, or hold a
    NaN, Infinity or -Infinity or a string with an unpaired surrogate, which
    it names with the keys leading to it."""
    try:
        text = data.decode("utf-8")
        try:
            value = _DECODER.decode(text)
        except InvalidJSON as exc:  # a literal: decode again to find it
            where = _trail(_LOCATOR.decode(text), _literal) or "$"
            raise ValueError(f"{exc} at {where} is not a JSON number") from None
        # only a \u escape decodes to a surrogate
        if "\\u" in text and (where := _trail(value, _unpaired)) is not None:
            raise ValueError(f"string at {where} holds an unpaired surrogate")
        return value
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidJSON(str(exc)) from None


def read_file(path, error=ValueError):
    """The JSON value in the file at path. A missing file, or one loads
    refuses, raises error naming the file."""
    try:
        return loads(Path(path).read_bytes())
    except FileNotFoundError:
        raise error(f"{path}: file not found") from None
    except InvalidJSON as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None


def typed(value, kind):
    """value as a JSON value of kind: int takes a JSON integer only (not 8e9),
    float a JSON number within the float range (as a float), str a string,
    list[kind] and dict[str, kind] a list and an object of values of kind,
    object any value. Bools and numeric strings are neither integers nor
    numbers. Raises ValueError naming the refused value and its object key."""
    if kind is object or (kind in (int, str) and type(value) is kind):
        return value
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a JSON list")
        return [typed(item, *get_args(kind)) for item in value]
    if get_origin(kind) is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{value!r} is not a JSON object")
        typed_fields(value, dict.fromkeys(value, get_args(kind)[1]), "key")
        return value
    if kind is float and type(value) in (int, float):
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:
            pass
        raise ValueError(f"{value!r} is beyond the float range")
    expected = {int: "integer", float: "number", str: "string"}[kind]
    raise ValueError(f"{value!r} is not a JSON {expected}")


def typed_fields(obj: dict, fields, where: str) -> None:
    """Type each key in fields of the JSON object obj in place (see typed);
    a missing or refused key raises ValueError prefixed by where."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, kind in fields.items():
        if key not in obj:
            raise ValueError(f"{where} has no {key!r}")
        try:
            obj[key] = typed(obj[key], kind)
        except ValueError as exc:
            raise ValueError(f"{where} {key!r}: {exc}") from None


def read_json_records(path, fields) -> list[dict]:
    """A JSON file's list of objects, each typed by typed_fields; a fault
    raises ValueError naming the file, and the entry index and key at fault."""
    raw = read_file(path)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON list of objects, got {type(raw).__name__}")
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: entry {i} is not a JSON object")
        typed_fields(item, fields, f"{path}: entry {i}")
    return raw
