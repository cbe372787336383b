"""Seeded synthetic transcript corpora for the benchmark.

Kept apart from the test helpers on purpose: editing a test must never
change the bytes a benchmark run measures. The same (shape, seed) always
gives the same CSV bytes, so the corpus sha256 recorded with every result
shows whether two commits ran identical inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class CorpusShape:
    """Subjects, words per subject, vocabulary size and draw law."""

    subjects: int
    list_len: int
    vocab: int
    zipf: bool

    def describe(self) -> str:
        law = "Zipf 1/rank" if self.zipf else "uniform"
        return f"{self.subjects} subjects x {self.list_len} words, {law} vocabulary of {self.vocab}"


def generate(shape: CorpusShape, seed: int) -> bytes:
    """Transcript CSV (``subject,word,onset_seconds``) drawn from ``seed``.

    Words are i.i.d. draws from the vocabulary; with ``zipf`` the draw
    weight of rank i is 1/(i+1), sampled by bisecting the cumulative
    weights. Onsets rise by U(0.5, 2.0) s per word, so a list of up to 30
    words stays inside the parser's [0, 60] s range.
    """
    if shape.list_len * 2.0 > 60.0:
        raise ValueError("list_len too long for the [0, 60] s onset range")
    rng = random.Random(seed)
    vocab = [f"v{i:04d}" for i in range(shape.vocab)]
    cum: list[float] = []
    total = 0.0
    for i in range(shape.vocab):
        total += 1.0 / (i + 1)
        cum.append(total)
    lines = ["subject,word,onset_seconds"]
    for s in range(shape.subjects):
        t = 0.0
        for _ in range(shape.list_len):
            if shape.zipf:
                idx = min(bisect.bisect_left(cum, rng.random() * total), shape.vocab - 1)
            else:
                idx = rng.randrange(shape.vocab)
            t += rng.uniform(0.5, 2.0)
            lines.append(f"s{s:05d},{vocab[idx]},{t!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
