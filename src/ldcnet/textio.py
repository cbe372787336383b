"""The one place that decides how a path or an open text file is read or written."""

from __future__ import annotations

import contextlib
import json
import os
from typing import IO, Iterator, Union

PathOrFile = Union[str, os.PathLike, IO[str]]


@contextlib.contextmanager
def open_text(target: PathOrFile, mode: str) -> Iterator[IO[str]]:
    """Yield ``target`` itself when it is an open handle, else open it.

    Paths are opened as UTF-8 with ``newline=""`` (the csv module's
    convention) and closed on exit; a handle passed in is left open.
    """
    if hasattr(target, "read") or hasattr(target, "write"):
        yield target  # type: ignore[misc]
        return
    with open(target, mode, encoding="utf-8", newline="") as fh:
        yield fh


def write_json(payload, dest: PathOrFile) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, trailing newline."""
    with open_text(dest, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
