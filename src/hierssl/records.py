"""The envelope shared by every ``hierssl-* v1`` text artifact, and the
one spelling of a typed value inside it.

An artifact is UTF-8 text: a magic line naming the format and its
version, then one record per line, each line newline-terminated. This is
the only module that opens files. A write goes to a sibling temporary
file that is renamed over the target, so a reader never sees half an
artifact. A read checks the magic line, decodes the file one line at a
time as it is parsed, and reports every parse failure as a ``ParseError``
carrying the line number.

Config files, reports and checkpoint headers spell a value by the type
of the dataclass field that holds it: "none" is None, booleans are
"true" or "false", tuples are comma-joined, integers are in canonical
decimal form, and floats are finite, in shortest-exact form. A reader
accepts only these spellings, except that a float may also take any
other ASCII form without underscores that Python reads, such as "2" or
"1e160". A writer refuses a non-finite float.
"""

from __future__ import annotations

import math
import os
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import fields

from .errors import DataError, EmptyInput, ParseError


def write_record(path, magic: str, lines) -> None:
    """Write ``magic`` and ``lines`` to ``path``, or leave ``path`` untouched.
    Each line is written as ``lines`` yields it, so a generator of lines is
    never held whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{magic}\n")
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Body(Iterator):
    """The non-blank lines after the magic line as (line number, line), read
    once from the binary file ``fh``: each line is decoded as it is read and
    split as ``str.splitlines`` splits text. ``line`` is the number of the
    line read last."""

    def __init__(self, fh):
        self.line = 0
        self.lines = self._decode(fh)  # every line, the magic line first
        self.texts = filter(str.strip, self.lines)

    def _decode(self, fh):
        for raw in fh:
            try:
                texts = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason}", line=self.line + 1) from None
            for self.line, text in enumerate(texts, start=self.line + 1):
                yield text

    def __next__(self):
        text = next(self.texts)
        return self.line, text


@contextmanager
def read_record(path, magic: str):
    """Yield the body of the artifact at ``path`` after checking its magic line.

    A ValueError, IndexError or KeyError raised while the body is parsed
    becomes a ParseError at the line read last.
    """
    with open(path, "rb") as fh:
        body = _Body(fh)
        first = next(body.lines, None)
        if first is None:
            raise EmptyInput(f"{path} is empty")
        if first.strip() != magic:
            raise ParseError(f"expected header {magic!r}", line=1)
        try:
            yield body
        except (ValueError, IndexError, KeyError) as exc:
            why = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ParseError(why, line=body.line) from None


def _int(s: str) -> int:
    if str(value := int(s)) != s:
        raise ValueError(f"not a canonical integer: {s!r}")
    return value


def _finite(s: str) -> float:
    if not s.isascii() or "_" in s or s.strip() != s:
        raise ValueError(f"not a float: {s!r}")
    if not math.isfinite(value := float(s)):
        raise ValueError(f"not a finite float: {s!r}")
    return value


def _bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(f"not true or false: {s!r}")
    return s == "true"


def value_parser(hint):
    """The string parser of one field type; the inverse of ``value_text``."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        inner = value_parser(args[0])
        return lambda s: None if s == "none" else inner(s)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...] or a fixed count of T
        item = value_parser(args[0])
        size = None if args[-1] is Ellipsis else len(args)

        def parse_tuple(s: str) -> tuple:
            out = tuple(item(v) for v in s.split(","))
            if size is not None and len(out) != size:
                raise ValueError(s)
            return out
        return parse_tuple
    return {int: _int, float: _finite, str: str, bool: _bool}[hint]


def value_text(value) -> str:
    """The canonical text of a value; the inverse of ``value_parser``."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # a numpy float prints shortest-exact too
        if not math.isfinite(value):
            raise DataError(f"cannot write a non-finite float: {value!r}")
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(value_text(v) for v in value)
    return str(value)


def field_keys(cls, **renames: str) -> dict:
    """Key -> (field name, parser) for each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return {renames.get(f.name, f.name): (f.name, value_parser(hints[f.name]))
            for f in fields(cls)}


def field_texts(keys: dict, obj) -> dict[str, str]:
    """Key -> text of each field of ``obj`` that ``keys`` names."""
    return {key: value_text(getattr(obj, name)) for key, (name, _) in keys.items()}


def parse_fields(keys: dict, tokens) -> list:
    """The typed values, in the order of ``keys``, of ``key value key value
    ...`` tokens that name every key of ``keys`` exactly once."""
    values = {}
    tokens = iter(tokens)
    for key in tokens:
        if key not in keys or key in values:
            raise ValueError(f"{'repeated' if key in values else 'unknown'} key {key!r}")
        text = next(tokens, None)
        if text is None:
            raise ValueError(f"no value for key {key!r}")
        values[key] = keys[key][1](text)
    if missing := [key for key in keys if key not in values]:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    return [values[key] for key in keys]
