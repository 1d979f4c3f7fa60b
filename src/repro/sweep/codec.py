"""The one sweep result codec: typed results to JSON and back.

A sweep worker is an experiment's own point function, and its result
(a dataclass, usually) has to cross a process boundary and live in the
cache byte-stably.  :func:`encode` turns it into a JSON-safe tree on
the worker side, so the serial path, the pool path and the cache store
all carry the same payload.  :func:`decode` rebuilds the result from
the worker's return annotation (:func:`result_type`), for fresh
results and cache hits alike, so a hit decodes to exactly what a fresh
run returns.  The payload names no class: decoding never imports
anything.

Encoded forms: a dataclass becomes a ``{field: value}`` dict, an enum
its value, a tuple or list a list, a mapping a dict with string keys,
an ``np.ndarray`` ``{"dtype", "shape", "data"}``, and a numpy scalar
its Python equivalent.  Scalars pass through exactly as JSON gives
them (no int→float coercion).  The decoder understands ``tuple``
(fixed and ``...``), ``list``, ``dict`` (``int`` or ``str`` keys),
``Optional``, enums, nested dataclasses and ``np.ndarray``; any other
annotation, or none, returns the JSON unchanged.  A dataclass payload
with a missing or an unknown field raises :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from typing import Any, Callable, Mapping

import numpy as np


def encode(value: Any) -> Any:
    """The JSON-safe tree of ``value`` (see the module docstring)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return encode(value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": value.ravel().tolist(),
        }
    if isinstance(value, Mapping):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(
        f"cannot encode {type(value).__qualname__!r} as a sweep result"
    )


@functools.cache
def _hints(obj: Any) -> dict[str, Any]:
    return typing.get_type_hints(obj)


def result_type(worker: Callable[..., Any]) -> Any:
    """``worker``'s resolved return annotation (``Any`` when absent)."""
    return _hints(worker).get("return", Any)


def decode(tp: Any, data: Any) -> Any:
    """Rebuild a value of annotation ``tp`` from its :func:`encode` tree."""
    return _decoder(tp)(data)


def _identity(data: Any) -> Any:
    return data


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The decoding function for annotation ``tp``, built once per type,
    so decoding a result walks its data and never its annotations."""
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        inner = _decoder(next(a for a in args if a is not type(None)))
        return lambda data: None if data is None else inner(data)
    if tp is tuple or origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            item = _decoder(args[0])
            return lambda data: tuple(map(item, data))
        if args:
            items = tuple(_decoder(a) for a in args)
            return lambda data: tuple(
                f(v) for f, v in zip(items, data, strict=True)
            )
        return tuple
    if origin is list and args:
        item = _decoder(args[0])
        return lambda data: list(map(item, data))
    if origin is dict and args:
        key = int if args[0] is int else _identity
        value = _decoder(args[1])
        return lambda data: {key(k): value(v) for k, v in data.items()}
    if isinstance(tp, type):
        if issubclass(tp, enum.Enum):
            return tp
        if dataclasses.is_dataclass(tp):
            return _dataclass_decoder(tp)
        if issubclass(tp, np.ndarray):
            return _decode_array
    return _identity


def _decode_array(data: Mapping[str, Any]) -> np.ndarray:
    return np.array(data["data"], dtype=data["dtype"]).reshape(data["shape"])


def _dataclass_decoder(cls: type) -> Callable[[Mapping[str, Any]], Any]:
    hints = _hints(cls)
    fields = [
        (f.name, _decoder(hints[f.name])) for f in dataclasses.fields(cls)
    ]
    names = [n for n, _f in fields]
    expected = frozenset(names)

    def decode_dataclass(data: Mapping[str, Any]) -> Any:
        if data.keys() != expected:
            missing = [n for n in names if n not in data]
            unknown = sorted(set(data) - expected)
            raise TypeError(
                f"{cls.__qualname__} payload: missing fields {missing}, "
                f"unknown fields {unknown}"
            )
        return cls(**{n: f(data[n]) for n, f in fields})

    return decode_dataclass


__all__ = ["decode", "encode", "result_type"]
