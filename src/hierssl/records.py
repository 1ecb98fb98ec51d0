"""The envelope shared by every ``hierssl-* v1`` text artifact.

An artifact is UTF-8 text: a magic line naming the format and its
version, then one record per line, each line newline-terminated. This is
the only module that opens files. A write goes to a sibling temporary
file that is renamed over the target, so a reader never sees half an
artifact. A read checks the magic line and reports every parse failure
as a ``ParseError`` carrying the line number.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import EmptyInput, ParseError


def write_record(path, magic: str, lines) -> None:
    """Write ``magic`` and ``lines`` to ``path``, or leave ``path`` untouched."""
    text = "\n".join([magic, *lines]) + "\n"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Body:
    """The non-blank lines after the magic line as (line number, line);
    ``line`` is the number of the line read last."""

    def __init__(self, raw: list[str]):
        self.raw = raw
        self.line = 1

    def __iter__(self):
        for self.line, text in enumerate(self.raw[1:], start=2):
            if text.strip():
                yield self.line, text


@contextmanager
def read_record(path, magic: str):
    """Yield the body of the artifact at ``path`` after checking its magic line.

    A ValueError, IndexError or KeyError raised while the body is parsed
    becomes a ParseError at the line read last.
    """
    with open(path, "rb") as fh:
        try:
            raw = fh.read().decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason}",
                             line=exc.object.count(b"\n", 0, exc.start) + 1) from None
    if not raw:
        raise EmptyInput(f"{path} is empty")
    if raw[0].strip() != magic:
        raise ParseError(f"expected header {magic!r}", line=1)
    body = _Body(raw)
    try:
        yield body
    except (ValueError, IndexError, KeyError) as exc:
        why = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(why, line=body.line) from None
