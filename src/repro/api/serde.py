"""Generic, lossless (de)serialization for frozen spec dataclasses.

The scenario API's promise is that *every* knob of the system serializes
for free: a new field added to :class:`~repro.engine.params.
ExecutionParams` (or any dataclass nested below a spec) becomes part of
the JSON surface without touching this module.  The codec therefore
works from the dataclass *type structure*, not from per-class encoders:

* ``encode`` walks dataclass fields recursively, turning nested
  dataclasses into dicts and tuples into lists; only JSON scalars remain
  at the leaves.
* ``decode`` walks the declared field types (``typing.get_type_hints``)
  and rebuilds the exact object tree, running every ``__post_init__``
  validator on the way up — a decoded spec is as validated as a
  constructed one.

Strictness is the point: unknown keys, wrong shapes and wrong scalar
types are hard :class:`SpecError`\\ s carrying the dotted path of the
offending entry, never silent drops — a typo'd knob in a scenario file
must not silently run the default.

Losslessness: floats survive the round trip exactly (``json`` emits
``repr``-precision floats), ints stay ints, and ``Optional`` fields
distinguish ``null`` from a value — ``decode(type(x), encode(x)) == x``
for every spec tree built from supported field types (scalars,
``Optional``, dataclasses, homogeneous ``tuple[T, ...]`` and
fixed-arity ``tuple[A, B, ...]``).

Every JSON document the API emits — a spec, a sweep, a run result —
goes through one writer, :func:`dumps`.  Its text is byte-identical to
``json.dumps(obj, indent=indent, default=list) + "\n"``, but it writes a
row of scalars (a run's ``per_query`` and ``shed`` entries) as one
string, encoding each value at C level, instead of holding the document
as a list of every token.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from functools import lru_cache

__all__ = ["SpecError", "encode", "decode", "dumps", "to_json", "from_json"]


class SpecError(ValueError):
    """A spec tree could not be (de)serialized; the message names the path."""


def encode(value: typing.Any) -> typing.Any:
    """Turn a spec tree into JSON-compatible plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: encode(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(
        f"cannot serialize {type(value).__name__!r} values; spec trees "
        "hold dataclasses, tuples and JSON scalars only",
    )


@lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, typing.Any]:
    """Resolved (non-string) annotations of a dataclass, cached."""
    return typing.get_type_hints(cls)


def decode(tp: typing.Any, data: typing.Any, path: str = "$") -> typing.Any:
    """Rebuild a value of declared type ``tp`` from plain data.

    Raises :class:`SpecError` on unknown keys, arity or scalar-type
    mismatches; a dataclass ``__post_init__`` validation failure is
    re-raised as a :class:`SpecError` prefixed with the dotted path of
    the offending object (including the ``[index]`` of a tuple element).
    """
    origin = typing.get_origin(tp)
    # Both union spellings: typing.Optional[X] and PEP 604's ``X | None``.
    if origin is typing.Union or origin is types.UnionType:
        args = typing.get_args(tp)
        if data is None:
            if type(None) in args:
                return None
            raise SpecError(f"{path}: null is not allowed here")
        concrete = [arg for arg in args if arg is not type(None)]
        if len(concrete) != 1:
            raise SpecError(f"{path}: unsupported union type {tp!r}")
        return decode(concrete[0], data, path)
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, data, path)
    if origin is tuple:
        return _decode_tuple(tp, data, path)
    return _decode_scalar(tp, data, path)


def _decode_dataclass(tp: type, data: typing.Any, path: str) -> typing.Any:
    if not isinstance(data, dict):
        raise SpecError(
            f"{path}: expected an object for {tp.__name__}, "
            f"got {type(data).__name__}",
        )
    fields = {field.name: field for field in dataclasses.fields(tp)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise SpecError(
            f"{path}: unknown key(s) {unknown} for {tp.__name__}; "
            f"known: {sorted(fields)}",
        )
    types = _field_types(tp)
    kwargs = {
        name: decode(types[name], value, f"{path}.{name}")
        for name, value in data.items()
    }
    try:
        return tp(**kwargs)
    except SpecError:
        raise
    except TypeError as exc:  # a required field was missing
        raise SpecError(f"{path}: cannot build {tp.__name__}: {exc}") from exc
    except ValueError as exc:  # __post_init__ validation failed
        # Carry the dotted path (including any [index] of a tuple
        # element) so "which entry of the list was bad" is in the error.
        raise SpecError(f"{path}: invalid {tp.__name__}: {exc}") from exc


def _decode_tuple(tp: typing.Any, data: typing.Any, path: str) -> tuple:
    if not isinstance(data, (list, tuple)):
        raise SpecError(f"{path}: expected an array, got {type(data).__name__}")
    args = typing.get_args(tp)
    if not args:
        raise SpecError(f"{path}: untyped tuples are not supported")
    if len(args) == 2 and args[1] is Ellipsis:
        return tuple(
            decode(args[0], item, f"{path}[{index}]")
            for index, item in enumerate(data)
        )
    if len(data) != len(args):
        raise SpecError(f"{path}: expected {len(args)} entries, got {len(data)}")
    return tuple(
        decode(arg, item, f"{path}[{index}]")
        for index, (arg, item) in enumerate(zip(args, data))
    )


def _decode_scalar(tp: typing.Any, data: typing.Any, path: str) -> typing.Any:
    if tp is float:
        # JSON has one number type; accept ints where floats are declared.
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            return float(data)
    elif tp is int:
        if isinstance(data, int) and not isinstance(data, bool):
            return data
    elif tp is bool:
        if isinstance(data, bool):
            return data
    elif tp is str:
        if isinstance(data, str):
            return data
    elif tp is typing.Any:
        return data
    else:
        raise SpecError(f"{path}: unsupported field type {tp!r}")
    raise SpecError(
        f"{path}: expected {tp.__name__}, got {type(data).__name__} "
        f"({data!r})",
    )


#: ``json``'s spelling of the floats whose ``repr`` is not JSON.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


#: the scalar encoders, keyed by *exact* type: a subclass (an ``IntEnum``,
#: say) is not a row item and takes ``json``'s own path.
_SCALAR: dict[type, typing.Callable[[typing.Any], str]] = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
}


def dumps(obj: typing.Any, indent: typing.Optional[int] = 2) -> str:
    """``json.dumps(obj, indent=indent, default=list) + "\\n"``, byte for byte.

    Dicts with ``str`` keys, lists and tuples are walked here; a list or
    tuple of exact scalars is encoded as one string.  Any other value is
    handed to ``json.dumps`` and re-indented to its depth (JSON text
    holds no raw newline outside its layout), so the output is ``json``'s
    whatever the tree holds.  ``indent=None`` is ``json``'s one-line
    layout, delegated whole.
    """
    if indent is None:
        return json.dumps(obj, default=list) + "\n"
    out: list[str] = []
    _write(obj, out, "\n", " " * indent)
    # A tree built for this call is freed before the text is joined, so
    # the two never peak together.
    del obj
    out.append("\n")
    return "".join(out)


def _row(items: typing.Any, newline: str, step: str) -> typing.Optional[str]:
    """A list or tuple of exact scalars as one string; None otherwise."""
    try:
        parts = [_SCALAR[type(item)](item) for item in items]
    except KeyError:
        return None
    if not parts:
        return "[]"
    inner = newline + step
    return "".join(("[", inner, ("," + inner).join(parts), newline, "]"))


def _write(value: typing.Any, out: list, newline: str, step: str) -> None:
    """Append ``value``'s text at the depth ``newline`` indents to."""
    kind = type(value)
    if kind is list or kind is tuple:
        row = _row(value, newline, step)
        if row is not None:
            out.append(row)
            return
        inner = newline + step
        comma = "," + inner  # one object, shared by every item's entry
        items = ["[" + inner]
        for index, item in enumerate(value):
            if index:
                items.append(comma)
            _write(item, items, inner, step)
        items.append(newline + "]")
        out.append("".join(items))
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + step
        separator = "{" + inner
        for key, item in value.items():
            out.append(separator + json.encoder.encode_basestring_ascii(key) + ": ")
            separator = "," + inner
            _write(item, out, inner, step)
        out.append(newline + "}")
    elif kind in _SCALAR:
        out.append(_SCALAR[kind](value))
    else:
        text = json.dumps(value, indent=len(step), default=list)
        out.append(text.replace("\n", newline))


def to_json(value: typing.Any, indent: int = 2) -> str:
    """``encode`` then :func:`dumps` — the canonical on-disk spec format."""
    return dumps(encode(value), indent=indent)


def from_json(tp: typing.Any, text: str) -> typing.Any:
    """Parse JSON text and ``decode`` it as a ``tp``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    return decode(tp, data)
