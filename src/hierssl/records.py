"""The envelope shared by every ``hierssl-*`` text artifact, and the one
spelling of a typed value inside it.

An artifact is UTF-8 text: a magic line naming the format and its
version, then one record per line, each line newline-terminated. This is
the only module that opens files. A write goes to a sibling temporary
file that is renamed over the target, so a reader never sees half an
artifact. A read checks the magic line, decodes the file 4 KiB of whole
lines at a time as it is parsed, and reports every parse failure as a
``ParseError`` carrying the line number.

Config files, reports and checkpoint headers spell a value by the type
of the dataclass field that holds it: "none" is None, booleans are
"true" or "false", tuples are comma-joined, integers are in canonical
decimal form, and floats are finite, in shortest-exact form. A reader
accepts only these spellings, except that a float may also take any
other ASCII form without underscores that Python reads, such as "2" or
"1e160". A writer refuses a non-finite float. A report, or the header of
a checkpoint or a dataset, names each key once, in its writer's order,
and its reader takes the keys in that order (``parse_fields``,
``parse_lines``); config files alone are user-written, in any order.

Float64 arrays (a checkpoint's parameters, a dataset row's features) are
one field each: the base64 of their little-endian float64 bytes, which
round-trips every value bit for bit. One encoder and one decoder code a
block of fields in one call, a parameter or a lone row being a block of one.
"""

from __future__ import annotations

import binascii
import math
import os
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError, EmptyInput, ParseError


def write_record(path, magic: str, lines) -> None:
    """Write ``magic`` and ``lines`` to ``path``, or leave ``path`` untouched.
    Each item, a line or lines joined by newlines, is written as ``lines``
    yields it, so a generator of lines is never held whole."""
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
    once from the binary file ``fh`` and split as ``str.splitlines`` splits
    text, ``chunk`` bytes of whole lines at a time; ``pieces`` gives the rest
    a list at a time. ``line`` is the number of the line iterated last;
    ``version`` the format version the magic line names."""

    chunk = 4096  # a read holds a few chunks

    def __init__(self, fh):
        self.fh, self.version = fh, None
        self.line = self.read = 0  # the numbers of the lines iterated and read last
        self.fault = None  # why the line after ``read`` is not UTF-8
        self.rest = iter(())  # the (number, line) pairs read but not yet iterated
        self.lines = self._lines()  # every line, the magic line first
        self.texts = filter(str.strip, self.lines)

    def _lines(self):
        for piece in self.pieces(self.chunk):
            self.rest = iter(piece)
            for self.line, text in self.rest:
                yield text

    def pieces(self, size: int):
        """Every line not yet iterated, blank or not, as lists of (line number,
        line): the rest of the piece read last, then about ``size`` bytes of
        whole lines at a time. A line not UTF-8 raises after those before it."""
        yield list(self.rest)
        while self.fault is None and (raw := b"".join(self.fh.readlines(size))):
            try:
                texts = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                texts = raw[:raw.rfind(b"\n", 0, exc.start) + 1].decode("utf-8").splitlines()
                self.fault = f"not UTF-8: {exc.reason}"
            first, self.read = self.read + 1, self.read + len(texts)
            yield list(enumerate(texts, first))
        if self.fault is not None:
            raise ParseError(self.fault, line=self.read + 1)

    def __next__(self):
        text = next(self.texts)
        return self.line, text


@contextmanager
def read_record(path, name: str, versions: tuple[int, ...]):
    """Yield the body of the artifact at ``path`` after checking that its
    magic line is ``"{name} v{version}"`` for one of ``versions``; the
    body's ``version`` is the one it names.

    A ValueError or IndexError raised while the body is parsed becomes a
    ParseError at the line read last, and so does a ConfigError: a config
    rule broken by an artifact's value is a fault of the artifact.
    """
    with open(path, "rb") as fh:
        body = _Body(fh)
        first = next(body.lines, None)
        if first is None:
            raise EmptyInput(f"{path} is empty")
        magics = {f"{name} v{version}": version for version in versions}
        body.version = magics.get(first.strip())
        if body.version is None:
            raise ParseError(f"expected header {' or '.join(map(repr, magics))}",
                             line=1)
        try:
            yield body
        except (ValueError, IndexError, ConfigError) as exc:
            raise ParseError(str(exc), line=body.line) from None


def float64_texts(rows) -> list[str]:
    """The one spelling of a float64 array: the base64 of each row of a 2-D
    array as little-endian float64 bytes, in one call. Each row is
    zero-padded to whole 3-byte groups, whose pad digits become '='."""
    rows = np.ascontiguousarray(rows, dtype="<f8")
    n, size = len(rows), 8 * rows.shape[1]
    pad = -size % 3
    raw = np.zeros((n, size + pad), np.uint8)
    raw[:, :size] = rows.view(np.uint8)
    text = binascii.b2a_base64(raw, newline=False).decode()
    width = 4 * (size + pad) // 3
    return [text[i * width:(i + 1) * width - pad] + "=" * pad for i in range(n)]


def _stray(texts: list[str]) -> str | None:
    """The fault of the first character of ``texts`` outside base64 and '=', or None."""
    char = next((c for c in "".join(texts) if not (c.isascii() and c.isalnum() or c in "+/=")),
                None)
    return char and f"{char!r} is not a base64 character"


def float64_bytes(texts: list[str], count: int) -> bytes:
    """The little-endian bytes of the ``count`` float64 values that each of
    ``texts`` spells, joined, in one call: the inverse of ``float64_texts``.
    Any other text is a ValueError naming its fault. The caller checks that
    the values are finite, a whole array at once."""
    size, pad = 8 * count, -8 * count % 3
    width = 4 * (size + pad) // 3
    if (got := next((len(t) for t in texts if len(t) != width), width)) != width:
        raise ValueError(f"expected {width} base64 characters for {count} float64 values, "
                         f"got {got}")
    chars = bytearray("".join(texts), "ascii", "replace")  # a non-ASCII character becomes '?'
    digits = np.frombuffer(chars, np.uint8).reshape(len(texts), width)
    if chars.count(b"=") != pad * len(texts) or (digits[:, width - pad:] != ord("=")).any():
        raise ValueError(_stray(texts) or "'=' must be exactly the field's padding")
    digits[:, width - pad:] = ord("A")  # zero digits: the pad bytes
    try:  # a skipped character leaves a ragged group, or too few bytes to reshape
        raw = np.frombuffer(binascii.a2b_base64(chars), np.uint8).reshape(len(texts), size + pad)
    except ValueError:
        raise ValueError(_stray(texts)) from None
    if raw[:, size:].any():
        raise ValueError("the pad bits of the field's last digit are set")
    return raw[:, :size].tobytes()


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


def bounded(hint, lo, hi=math.inf):
    """``value_parser(hint)``, refusing a value outside [lo, hi]; None passes."""
    parse = value_parser(hint)

    def parse_bounded(s: str):
        if (value := parse(s)) is not None and not lo <= value <= hi:
            raise ValueError(f"not in [{lo}, {hi}]: {s!r}")
        return value
    return parse_bounded


def parse_fields(keys: dict, tokens: list[str]) -> list:
    """The typed values of one line's tokens, ``key value key value ...``,
    which name each key of ``keys`` once, in its order, and nothing more."""
    if tokens[::2] != list(keys) or len(tokens) != 2 * len(keys):
        expected = " ".join(f"{key} VALUE" for key in keys)
        raise ValueError(f"expected {expected!r}, got {' '.join(tokens)!r}")
    return [parse(text) for (_, parse), text in zip(keys.values(), tokens[1::2])]


def parse_lines(keys: dict, body):
    """The typed value of each key of ``keys``, in its order, from one
    ``key value`` line of ``body`` each. A value is yielded once its line is
    read, so ``body.line`` is then that value's line."""
    for key, spec in keys.items():
        _, line = next(body, (None, ""))
        yield parse_fields({key: spec}, line.split())[0]
