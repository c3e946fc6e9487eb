"""One JSON codec for the typed records: specs, traces, updates, results.

:func:`to_json` walks dataclass fields in declaration order, lists,
tuples and mappings, and turns numpy scalars into Python scalars.
:func:`from_json` decodes a payload by a type hint (a dataclass,
``Optional``, ``List``, ``Tuple[X, ...]``, ``Dict``, ``int``, ``float``,
``bool``, ``str`` or ``Any``).  Unknown keys, missing keys and values of
the wrong type raise :class:`SpecError` with the dotted path of the value
(``effort.termination[1].kind``); an int passes for a float, a bool never
for a number, and nothing is converted.  A :class:`ReproError` raised by a
record's constructor becomes a ``SpecError`` at that record's path.  A
class with ``to_list()`` and a ``from_list(values)`` classmethod (weights,
groundings) is a leaf whose JSON form is a bare list.  Hints and field
lists are resolved once per class.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Callable, Dict, Mapping

import numpy as np

from repro.errors import ReproError, SpecError

_Codec = Callable[[Any], Any]

#: Value types that already are JSON scalars.
_PLAIN = frozenset({int, float, str, bool, type(None)})
_ENCODERS: Dict[type, _Codec] = {}
_DECODERS: Dict[Any, _Codec] = {}
_NESTED: Dict[type, tuple] = {}


def to_json(value: Any) -> Any:
    """JSON-compatible form of a record, list, tuple, mapping or scalar."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    encode = _ENCODERS.get(kind)
    if encode is None:
        encode = _ENCODERS[kind] = _encoder(kind)
    return encode(value)


def from_json(hint: Any, payload: Any, path: str = "") -> Any:
    """Decode ``payload`` as ``hint``; errors name ``path`` plus the
    location inside ``payload``."""
    try:
        return _decoder(hint)(payload)
    except SpecError as exc:
        if not path:
            raise
        raise exc.with_prefix(path) from None


def coerce_fields(record: Any) -> None:
    """Decode the fields of a frozen ``record`` that hold nested records.

    Called first in ``__post_init__``, so a nested record may be given as
    a mapping (``SessionSpec(inference={...})``) and a tuple of records
    as a list.
    """
    kind = type(record)
    if kind not in _NESTED:
        hints = typing.get_type_hints(kind)
        _NESTED[kind] = tuple(
            (f.name, hints[f.name])
            for f in dataclasses.fields(kind)
            if _holds_record(hints[f.name])
        )
    for name, hint in _NESTED[kind]:
        value = getattr(record, name)
        decoded = from_json(hint, value, name)
        if decoded is not value:
            object.__setattr__(record, name, decoded)


class JsonRecord:
    """Mixin: ``to_dict``/``from_dict`` derived from the dataclass fields."""

    def to_dict(self) -> dict:
        """The record as a JSON-compatible dictionary."""
        return to_json(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        """Inverse of :meth:`to_dict`; a malformed payload is a SpecError."""
        return from_json(cls, payload)


def _holds_record(hint: Any) -> bool:
    return dataclasses.is_dataclass(hint) or any(
        _holds_record(arg) for arg in typing.get_args(hint)
    )


def _encoder(kind: type) -> _Codec:
    if issubclass(kind, np.generic):
        return lambda value: value.item()
    if hasattr(kind, "to_list"):
        return kind.to_list
    if dataclasses.is_dataclass(kind):
        names = tuple(f.name for f in dataclasses.fields(kind))
        return lambda record: {name: to_json(getattr(record, name)) for name in names}
    if issubclass(kind, (list, tuple)):
        return lambda items: [to_json(value) for value in items]
    if issubclass(kind, Mapping):
        return lambda mapping: {key: to_json(value) for key, value in mapping.items()}
    raise TypeError(f"no JSON form for {kind.__name__} values")


def _wrong(what: str, value: Any) -> SpecError:
    return SpecError(f"expected {what}, got {type(value).__name__} {value!r:.60}")


def _decoder(hint: Any) -> _Codec:
    decode = _DECODERS.get(hint)
    if decode is None:
        decode = _DECODERS[hint] = _build_decoder(hint)
    return decode


def _build_decoder(hint: Any) -> _Codec:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is Any:
        return lambda value: value
    if hint in (int, float, bool, str):
        accepted = (int, float) if hint is float else hint

        def decode_scalar(value):
            if isinstance(value, accepted) and (
                hint is bool or not isinstance(value, bool)
            ):
                return value
            raise _wrong(hint.__name__, value)

        return decode_scalar
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda value: None if value is None else inner(value)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        item = _decoder(args[0])

        def decode_list(payload):
            if not isinstance(payload, (list, tuple)):
                raise _wrong("a list", payload)
            values = []
            for index, value in enumerate(payload):
                try:
                    values.append(item(value))
                except SpecError as exc:
                    raise exc.with_prefix(f"[{index}]") from None
            return values if origin is list else tuple(values)

        return decode_list
    if origin is dict:
        key, item = _decoder(args[0]), _decoder(args[1])

        def decode_dict(payload):
            if not isinstance(payload, Mapping):
                raise _wrong("a mapping", payload)
            values = {}
            for name, value in payload.items():
                try:
                    values[key(name)] = item(value)
                except SpecError as exc:
                    raise exc.with_prefix(str(name)) from None
            return values

        return decode_dict
    if isinstance(hint, type) and hasattr(hint, "from_list"):
        return _leaf_decoder(hint)
    if dataclasses.is_dataclass(hint):
        return _record_decoder(hint)
    raise TypeError(f"no JSON decoder for type hint {hint!r}")


def _leaf_decoder(kind: type) -> _Codec:
    def decode(payload):
        if not isinstance(payload, list):
            raise _wrong("a list", payload)
        try:
            return kind.from_list(payload)
        except (ReproError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid {kind.__name__}: {exc}") from exc

    return decode


def _record_decoder(kind: type) -> _Codec:
    hints = typing.get_type_hints(kind)
    fields = [f for f in dataclasses.fields(kind) if f.init]
    decoders = {f.name: _decoder(hints[f.name]) for f in fields}
    required = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }

    def decode(payload):
        if isinstance(payload, kind):
            return payload
        if not isinstance(payload, Mapping):
            raise _wrong(f"a {kind.__name__} mapping", payload)
        unknown = sorted(payload.keys() - decoders.keys(), key=str)
        if unknown:
            raise SpecError(
                f"{kind.__name__} does not accept {unknown}; "
                f"known fields: {sorted(decoders)}",
                field=str(unknown[0]),
            )
        missing = sorted(required - payload.keys())
        if missing:
            raise SpecError(f"{kind.__name__} needs {missing}", field=missing[0])
        values = {}
        for name, value in payload.items():
            try:
                values[name] = decoders[name](value)
            except SpecError as exc:
                raise exc.with_prefix(name) from None
        try:
            return kind(**values)
        except SpecError:
            raise
        except ReproError as exc:
            raise SpecError(str(exc), field=exc.field) from exc

    return decode
