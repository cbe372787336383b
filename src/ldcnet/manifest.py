"""Run manifests: reproducibility metadata written alongside every CLI run."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional

from .textio import write_json


def file_digest(path: str | os.PathLike) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    """What a command ran on, with content digests of everything it wrote.

    Re-running a command with the same inputs, parameters, and seed must
    reproduce the ``outputs`` digest map exactly; only the timestamps may
    differ.
    """

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    seed: Optional[int] = None
    version: str = ""
    started_at: str = ""
    finished_at: str = ""
    outputs: dict[str, str] = field(default_factory=dict)

    def add_input(self, path: str | os.PathLike) -> str:
        """Record an input file's digest and return it."""
        digest = self.inputs[str(path)] = file_digest(path)
        return digest

    def add_output(
        self, path: str | os.PathLike, root: Optional[str] = None, digest: Optional[str] = None
    ) -> None:
        """Record an output file under its path relative to ``root``.

        ``digest``, when given, is the file's digest already taken by the
        caller, so the file is not read again.
        """
        key = os.path.relpath(path, root) if root else str(path)
        self.outputs[key] = digest if digest is not None else file_digest(path)

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: str | os.PathLike) -> None:
        self.finished_at = utc_now()
        write_json(self.to_dict(), path)


def load_manifest(path: str | os.PathLike) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
