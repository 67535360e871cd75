"""Dataclasses as JSON: one codec derived from the fields, type-checked on decode.

Task files and records are read with ``read_text``, and a task file or a
mock script is decoded with ``loads_unicode``. A suite's task files are what
``tasks.task_files`` lists: every entry directly in the directory whose name
ends in ``.json``, case-sensitive and dot-files included.
"""

from __future__ import annotations

import functools
import json
import os
import re
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


def _items(item, allowed, value) -> list:
    if type(value) is not list:
        raise DecodeError("expected an array")
    if allowed.issuperset(map(type, value)):  # only admitted scalars: one pass, no call per element
        return value
    out = []
    try:
        for element in value:
            out.append(item(element))
    except DecodeError as exc:
        exc.path = f"[{len(out)}]{exc.path}"
        raise
    return out


def _scalar_types(hint) -> frozenset:
    """The exact types a scalar or optional scalar annotation admits; empty for any other."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return _scalar_types(inner) | {type(None)} if inner in _SCALARS else frozenset()
    # Exact types: JSON true decodes to a bool, which is no int.
    return frozenset((int, float) if hint is float else (hint,)) if hint in _SCALARS else frozenset()


def _decoder(hint):
    """A function that checks a JSON value against the annotation and rebuilds it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        decode = _decoder(inner)
        return lambda value: None if value is None else decode(value)
    if origin in (tuple, frozenset):
        item, allowed = _decoder(args[0]), _scalar_types(args[0])
        return lambda value: origin(_items(item, allowed, value))
    if is_dataclass(hint):
        return _object_decoder(hint)
    if issubclass(hint, Enum):
        message = "expected one of " + ", ".join(repr(m.value) for m in hint)
        members = {m.value: m for m in hint}

        def member(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an array or object is no key
                raise DecodeError(message) from None

        return member
    allowed, message = _scalar_types(hint), "expected " + _SCALARS[hint]

    def scalar(value):
        if type(value) in allowed:
            return value
        raise DecodeError(message)

    return scalar


@functools.cache
def _object_decoder(cls):
    """One dataclass's decoder, built once; a scalar of an admitted type is taken as it is."""
    hints = typing.get_type_hints(cls)
    plan = tuple(
        (f.name, f.metadata.get("json", f.name), _scalar_types(hints[f.name]),
         _decoder(hints[f.name]), f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )

    def decode(data):
        if type(data) is not dict:
            raise DecodeError("expected an object")
        kwargs = {}
        for name, key, allowed, decode_field, required in plan:
            try:
                if key in data:
                    value = data[key]
                    kwargs[name] = value if type(value) in allowed else decode_field(value)
                elif required:
                    raise DecodeError("missing required field")
            except DecodeError as exc:
                exc.path = f".{key}{exc.path}"
                raise
        return cls(**kwargs)

    return decode


def from_json_dict(cls: type[T], data) -> T:
    """Inverse of to_json_dict; a missing key of a field with a default takes that default.

    A value that does not fit its annotation, or a missing required key, raises DecodeError.
    """
    return _object_decoder(cls)(data)


def read_text(path: str | Path) -> str:
    """The file as ``Path.read_text(encoding="utf-8")`` reads it, from one read of its bytes."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# The escape of a UTF-16 surrogate, the one way JSON text can put a surrogate in a string.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def loads_unicode(text: str):
    """``json.loads``, refusing a lone surrogate such as ``"\\ud800"`` with UnicodeError: no UTF-8 file can hold one."""
    data = json.loads(text)
    if _SURROGATE_ESCAPE_RE.search(text):  # a pair decodes to one character, which encodes
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise UnicodeError(f"lone surrogate {exc.object[exc.start]!r} is not Unicode text") from None
    return data


def save_json(obj, path: Path) -> None:
    """Write a dataclass as JSON; dying mid-write leaves the old file or none."""
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(to_json_dict(obj), indent=2) + "\n", encoding="utf-8")
    os.replace(partial, path)
