"""Field tables for the JSON input documents (config and scenario).

An input dataclass declares each field with `entry`, which keeps the field's
JSON key and bounds in its `dataclasses.field` metadata, next to its default;
the field's annotation gives its type. `read`, `write` and `check` walk that
table, so a document read from JSON and a dataclass built in Python pass the
same rules:

- an int rejects booleans and non-integral numbers, and reads 8.0 as 8;
- a float rejects booleans and must be finite;
- a bool accepts only a JSON boolean, a str only a JSON string;
- a list must be a nonempty JSON array, and the bounds apply to its items;
- a nested object must be a JSON object with no unknown keys.

A field spread over several keys of its document instead carries metadata
`{"keys": ..., "read": ..., "write": ...}`: `read` takes the whole document
and `write` returns those keys. Every error is one `ConfigError` line naming
the dotted key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import operator
import sys
import typing
from pathlib import Path


class ConfigError(ValueError):
    """An invalid config or scenario (CLI exit code 2)."""


_OPS = {"ge": (">=", operator.ge), "gt": (">", operator.gt), "le": ("<=", operator.le)}


def entry(key: str, default=dataclasses.MISSING, *, ge=None, gt=None, le=None):
    """A dataclass field stored under JSON `key`, bounded by ge <= v, gt < v, v <= le."""
    bounds = {name: b for name, b in (("ge", ge), ("gt", gt), ("le", le)) if b is not None}
    return dataclasses.field(default=default, metadata={"key": key, "bounds": bounds})


@functools.cache
def _table(cls) -> list:
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name], f.metadata) for f in dataclasses.fields(cls)
            if "key" in f.metadata or "keys" in f.metadata]


def write(value):
    """`value` as JSON: a dataclass becomes an object with its table's keys in field order."""
    if isinstance(value, (list, tuple)):
        return [write(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    doc = {}
    for name, _, meta in _table(type(value)):
        v = getattr(value, name)
        doc.update(meta["write"](v) if "write" in meta else {meta["key"]: write(v)})
    return doc


def read(cls, doc, label: str, base=None, prefix: str = ""):
    """Build `cls` from the JSON object `doc`, which messages call `label`.

    An omitted key keeps its value in `base`; with no base every key is
    required. `prefix` is prepended to the keys that messages name.
    """
    values = _values(cls, doc, label, base, prefix)
    return cls(**values) if base is None else dataclasses.replace(base, **values)


def load(path, from_json):
    """`from_json` of the JSON document in the file at `path`; a document
    nested deeper than Python's recursion limit is a ConfigError as well."""
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError:
        raise ConfigError(f"{path} is nested too deeply to read") from None
    return from_json(doc)


def check(obj, label: str, prefix: str = "") -> None:
    """Apply `obj`'s table to a dataclass built in Python."""
    _values(type(obj), write(obj), label, None, prefix)


def _values(cls, doc, label, base, prefix) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(doc).__name__}")
    table = _table(cls)
    known = [k for _, _, meta in table for k in meta.get("keys", (meta.get("key"),))]
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"unknown {label} key {unknown[0]!r}")
    values = {}
    for name, kind, meta in table:
        if "read" in meta:
            values[name] = meta["read"](doc)
        elif meta["key"] in doc:
            values[name] = parse(kind, doc[meta["key"]], prefix + meta["key"],
                                 getattr(base, name, None), **meta["bounds"])
        elif base is None:
            raise ConfigError(f"{prefix + meta['key']} is required")
    return values


def parse(kind, v, key: str, base=None, **bounds):
    """The JSON value `v` of the document key `key` as a `kind`, within `bounds`."""
    if dataclasses.is_dataclass(kind):
        return read(kind, v, key, base, key + ".")
    origin = typing.get_origin(kind)
    if origin in (list, tuple):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{key} must be a nonempty JSON array, got {v!r}")
        item = typing.get_args(kind)[0]
        return origin(parse(item, x, f"{key}[{i}]", **bounds) for i, x in enumerate(v))
    if kind is bool or kind is str:
        if not isinstance(v, kind):
            raise ConfigError(f"{key} must be a JSON {'boolean' if kind is bool else 'string'}"
                              f", got {v!r}")
        return v
    number = isinstance(v, numbers.Real) and not isinstance(v, bool)
    if kind is int:
        if not (number and (isinstance(v, numbers.Integral) or float(v).is_integer())):
            raise ConfigError(f"{key} must be an integer, got {v!r}")
        v = int(v)
    elif number and -sys.float_info.max <= v <= sys.float_info.max:
        v = float(v)
    else:
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    if not all(_OPS[name][1](v, b) for name, b in bounds.items()):
        rule = " and ".join(f"{_OPS[name][0]} {b}" for name, b in bounds.items())
        raise ConfigError(f"{key} must be {rule}, got {v!r}")
    return v
