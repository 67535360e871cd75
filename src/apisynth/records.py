"""Dataclasses as JSON: one codec derived from the fields, type-checked on decode."""

from __future__ import annotations

import functools
import json
import os
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path

T = typing.TypeVar("T")
_SCALARS = {str: "a string", bool: "a boolean", int: "an integer", float: "a number"}


class DecodeError(ValueError):
    """JSON data does not fit the dataclass; the message leads with the JSON path."""

    # Each enclosing level puts its step in front as the error passes, so no
    # path is built unless decoding fails.
    path = ""

    def __str__(self) -> str:
        return f"{self.path.lstrip('.')}: {self.args[0]}" if self.path else self.args[0]


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if is_dataclass(value):
        return to_json_dict(value)
    return value


def to_json_dict(obj) -> dict:
    """A dataclass as JSON-ready data in field order, keyed by ``metadata["json"]`` or the name."""
    return {f.metadata.get("json", f.name): _encode(getattr(obj, f.name)) for f in fields(obj)}


def _items(item, value) -> list:
    if type(value) is not list:
        raise DecodeError("expected an array")
    out = []
    try:
        for element in value:
            out.append(item(element))
    except DecodeError as exc:
        exc.path = f"[{len(out)}]{exc.path}"
        raise
    return out


def _decoder(hint):
    """A function that checks a JSON value against the annotation and rebuilds it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        decode = _decoder(inner)
        return lambda value: None if value is None else decode(value)
    if origin in (tuple, frozenset):
        item = _decoder(args[0])
        return lambda value: origin(_items(item, value))
    if is_dataclass(hint):
        return functools.partial(from_json_dict, hint)
    if issubclass(hint, Enum):
        message = "expected one of " + ", ".join(repr(m.value) for m in hint)

        def member(value):
            try:
                return hint(value)
            except ValueError:
                raise DecodeError(message) from None

        return member
    # Exact types: JSON true decodes to a bool, which is no int.
    allowed = (int, float) if hint is float else (hint,)
    message = "expected " + _SCALARS[hint]

    def scalar(value):
        if type(value) in allowed:
            return value
        raise DecodeError(message)

    return scalar


@functools.cache
def _field_decoders(cls) -> tuple[tuple[str, str, typing.Callable, bool], ...]:
    """(name, JSON key, decoder, required) per field; type hints resolve once per class."""
    hints = typing.get_type_hints(cls)
    decoders = []
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        decoders.append((f.name, f.metadata.get("json", f.name), _decoder(hints[f.name]), required))
    return tuple(decoders)


def from_json_dict(cls: type[T], data) -> T:
    """Inverse of to_json_dict; a missing key of a field with a default takes that default.

    A value that does not fit its annotation, or a missing required key, raises DecodeError.
    """
    if type(data) is not dict:
        raise DecodeError("expected an object")
    kwargs = {}
    for name, key, decode, required in _field_decoders(cls):
        try:
            if key in data:
                kwargs[name] = decode(data[key])
            elif required:
                raise DecodeError("missing required field")
        except DecodeError as exc:
            exc.path = f".{key}{exc.path}"
            raise
    return cls(**kwargs)


def save_json(obj, path: Path) -> None:
    """Write a dataclass as JSON; dying mid-write leaves the old file or none."""
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(to_json_dict(obj), indent=2) + "\n", encoding="utf-8")
    os.replace(partial, path)
