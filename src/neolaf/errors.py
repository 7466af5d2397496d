"""Common exception root for the package, and the one reader of its input files.

Every package-specific exception derives from :class:`NeolafError`, so
callers that want blanket handling (the CLI, the eval harness) can catch
one type. Domain-specific exceptions live next to the code that raises
them.

Every file the package reads, whole by ``read_json`` or line by line by
``read_lines``, fails naming the file (and line) when it does not decode or
its caller refuses the value, also when it nests too deeply to decode.
"""

import json
import os
from typing import Any, Callable, Iterator, Optional


class NeolafError(Exception):
    """Base class for all package exceptions."""


class FormatError(NeolafError, ValueError):
    """A bad input file, as ``<file>: <detail>`` or ``<file>:<line>: <detail>``."""

    def __init__(self, detail, file, line: Optional[int] = None):
        location = file if line is None else f"{file}:{line}"
        super().__init__(f"{location}: {detail}")
        self.file, self.line = str(file), line


# What decoding bad input raises: not UTF-8 or not JSON (ValueError), nested
# past the decoder's recursion limit, or of a shape its builder refuses.
BAD_INPUT = (NeolafError, ValueError, KeyError, TypeError, AttributeError, RecursionError)


def read_json(path, build: Callable[[Any], Any]) -> Any:
    """``build`` of the JSON value in ``path``, read as UTF-8; a value that
    fails, or that ``build`` refuses, raises FormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except BAD_INPUT as exc:
        raise FormatError(exc, path) from exc


def read_lines(path, decode: Callable[[str], Any], fail: Callable[[Any, int], Exception],
               missing_ok: bool = False) -> Iterator[tuple[int, Any]]:
    """The number and ``decode`` of each non-blank line of ``path``, decoded
    from bytes one at a time so that a bad byte names its line. A line that
    fails raises ``fail(exc, number)``. A missing file has no lines if
    ``missing_ok``, as a store's files may not exist yet."""
    if missing_ok and not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                if not (line := raw.decode("utf-8").strip()):
                    continue
                value = decode(line)
            except BAD_INPUT as exc:
                raise fail(exc, number) from exc
            yield number, value
