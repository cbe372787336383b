"""The one place that decides how ldcnet reads and writes text.

It decides how a path or an open handle is opened (UTF-8, ``newline=""``, a
leading byte-order mark skipped on read, a handle passed in is left open),
the one CSV dialect every table is written in (header first, minimal
quoting, ``\\n`` line ends), the one format of a published number (12
significant digits, blank for a missing value), and the one JSON layout
(indent 2, sorted keys, trailing newline).
Graph weights are not published numbers: their writer prints them with
``repr`` so that they round-trip bit-exactly.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

PathOrFile = Union[str, os.PathLike, IO[str]]


@contextlib.contextmanager
def open_text(target: PathOrFile, mode: str) -> Iterator[IO[str]]:
    """Yield ``target`` itself when it is an open handle, else open it.

    Paths are opened as UTF-8 with ``newline=""`` (the csv module's
    convention) and closed on exit; a handle passed in is left open. A path
    read skips a leading UTF-8 byte-order mark; writes never emit one.
    """
    if hasattr(target, "read") or hasattr(target, "write"):
        yield target  # type: ignore[misc]
        return
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    with open(target, mode, encoding=encoding, newline="") as fh:
        yield fh


def format_number(value: Optional[float]) -> str:
    """A published number at 12 significant digits; ``None`` is blank."""
    return "" if value is None else format(value, ".12g")


def write_csv(dest: PathOrFile, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``header``, then ``rows``, as CSV with ``\\n`` line ends."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(payload, dest: PathOrFile) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, trailing newline."""
    with open_text(dest, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
