"""Fluency transcript parsing and semantic graph construction.

A transcript is a CSV stream with header ``subject,word,onset_seconds``:
one row per produced word, rows grouped by subject and ordered by onset,
onsets in seconds within [0, 60]. A second loader accepts the released-data
layout: a JSON object mapping each subject id to parallel ``words`` and
``timestamps`` lists.

Graph construction follows the windowed median-traversal-time rule: an arc
(a, b) exists when strictly more than ``ms`` subjects produced ``b`` within
``ws`` positions after ``a``, and its weight is the median of those
subjects' normalized onset differences.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Optional, Sequence, Union

from .errors import (
    EmptyRecord,
    MalformedLine,
    NonMonotoneTimestamp,
    NoRecords,
)
from .graph import WeightedDigraph
from .textio import PathOrFile, open_text

CORPUS_CSV_HEADER = ("subject", "word", "onset_seconds")


@dataclass(frozen=True)
class FluencyRecord:
    """One participant's ordered word list with onset timestamps."""

    subject_id: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple((w, float(t)) for w, t in self.entries)
        )
        previous = -math.inf
        for word, onset in self.entries:
            if not word:
                raise ValueError(f"subject {self.subject_id!r}: empty word")
            if onset <= previous:
                raise NonMonotoneTimestamp(self.subject_id)
            previous = onset

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.entries)

    @property
    def onsets(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DistanceFunctionParams:
    """Window size (max positional gap) and strict minimum subject count."""

    ws: int
    ms: int

    def __post_init__(self) -> None:
        if int(self.ws) != self.ws or self.ws < 1:
            raise ValueError(f"ws must be a positive integer, got {self.ws!r}")
        if int(self.ms) != self.ms or self.ms < 1:
            raise ValueError(f"ms must be a positive integer, got {self.ms!r}")


def _clean_word(raw: str) -> str:
    return raw.strip().lower()


def parse_corpus(source: PathOrFile) -> list[FluencyRecord]:
    """Parse transcript CSV into one record per subject, in file order.

    Raises MalformedLine for format violations and NonMonotoneTimestamp when
    a subject's onsets fail to increase strictly.
    """
    with open_text(source, "r") as fh:
        return _parse_csv(fh)


def _parse_csv(fh: IO[str]) -> list[FluencyRecord]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(header) != CORPUS_CSV_HEADER:
        raise MalformedLine(1, f"expected header {','.join(CORPUS_CSV_HEADER)!r}")

    records: list[FluencyRecord] = []
    finished: set[str] = set()
    current: str | None = None
    entries: list[tuple[str, float]] = []

    def close_current() -> None:
        nonlocal current, entries
        if current is not None:
            records.append(FluencyRecord(current, tuple(entries)))
            finished.add(current)
        current, entries = None, []

    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedLine(line_no, f"expected 3 fields, got {len(row)}")
        subject, raw_word, raw_onset = row
        if not subject:
            raise MalformedLine(line_no, "empty subject id")
        word = _clean_word(raw_word)
        if not word:
            raise MalformedLine(line_no, "empty word")
        try:
            onset = float(raw_onset)
        except ValueError:
            raise MalformedLine(line_no, f"bad onset {raw_onset!r}") from None
        if not math.isfinite(onset) or not 0.0 <= onset <= 60.0:
            raise MalformedLine(line_no, f"onset out of [0, 60]: {raw_onset!r}")

        if subject != current:
            if subject in finished:
                raise MalformedLine(line_no, f"subject {subject!r} rows are not contiguous")
            close_current()
            current = subject
        if entries and onset <= entries[-1][1]:
            raise NonMonotoneTimestamp(subject, f"onset {onset} after {entries[-1][1]}")
        entries.append((word, onset))
    close_current()
    return records


def emit_corpus(records: Sequence[FluencyRecord], dest: PathOrFile) -> None:
    """Write records back to transcript CSV; onsets keep full precision."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CORPUS_CSV_HEADER)
        for record in records:
            for word, onset in record.entries:
                writer.writerow((record.subject_id, word, repr(onset)))


def parse_corpus_osf(source: PathOrFile) -> list[FluencyRecord]:
    """Load the released-data layout: {subject: {"words": [...], "timestamps": [...]}}."""
    with open_text(source, "r") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedLine(exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise MalformedLine(0, "expected a JSON object keyed by subject id")
    records = []
    for subject, payload in data.items():
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("words"), list)
            and isinstance(payload.get("timestamps"), list)
        ):
            raise MalformedLine(0, f"subject {subject!r}: need 'words' and 'timestamps' lists")
        words = payload["words"]
        try:
            onsets = [float(t) for t in payload["timestamps"]]
        except (TypeError, ValueError):
            raise MalformedLine(0, f"subject {subject!r}: non-numeric timestamp") from None
        if len(words) != len(onsets):
            raise MalformedLine(0, f"subject {subject!r}: words/timestamps length mismatch")
        cleaned = [_clean_word(str(w)) for w in words]
        if any(not w for w in cleaned):
            raise MalformedLine(0, f"subject {subject!r}: empty word")
        if any(not math.isfinite(t) or not 0.0 <= t <= 60.0 for t in onsets):
            raise MalformedLine(0, f"subject {subject!r}: onset out of [0, 60]")
        records.append(FluencyRecord(str(subject), tuple(zip(cleaned, onsets))))
    return records


def load_corpus(path: PathOrFile, input_format: str = "csv") -> list[FluencyRecord]:
    """Dispatch to the loader named by ``input_format`` ("csv" or "osf-json")."""
    if input_format == "csv":
        return parse_corpus(path)
    if input_format == "osf-json":
        return parse_corpus_osf(path)
    raise ValueError(f"unknown corpus format {input_format!r}")


def normalize_record(record: FluencyRecord) -> FluencyRecord:
    """Divide every onset by the record's word count.

    The raw record stays useful on its own: the retrieval-time statistics
    must be computed from un-normalized onsets.
    """
    if len(record) == 0:
        raise EmptyRecord(f"subject {record.subject_id!r} has no entries")
    count = len(record)
    return FluencyRecord(
        record.subject_id, tuple((w, t / count) for w, t in record.entries)
    )


def collapse_first_occurrence(record: FluencyRecord) -> FluencyRecord:
    """Drop repeated words, keeping each word's first occurrence."""
    seen: set[str] = set()
    kept = []
    for word, onset in record.entries:
        if word not in seen:
            seen.add(word)
            kept.append((word, onset))
    return FluencyRecord(record.subject_id, tuple(kept))


class EncodedCorpus:
    """A record list with its words interned to ids and each record collapsed once.

    Every graph and covariates table built from it shares that one pass:
    :func:`build_graph` and :func:`ldcnet.metrics.covariates` take it in place
    of the records and give the same results. ``words[i]`` is the word with id
    ``i``. For each non-empty record, in record order, ``ids[k]`` holds the ids
    of its first occurrences, ``onsets[k]`` their raw onsets and
    ``normalized[k]`` those onsets divided by the record's raw word count.
    ``len()`` counts every record given, empty ones included.

    The corpus memoises what depends only on it: ``covariates_table``, which
    :func:`ldcnet.metrics.covariates` fills on first use, and the pair
    medians of the last window size asked for. Pickling drops both, so
    a corpus sent to a worker carries only the encoding.
    """

    def __init__(self, records: Sequence[FluencyRecord]):
        index: dict[str, int] = {}
        self.ids: list[tuple[int, ...]] = []
        self.onsets: list[tuple[float, ...]] = []
        self.normalized: list[tuple[float, ...]] = []
        self._size = len(records)
        for record in records:
            count = len(record)
            if count == 0:
                continue
            first: dict[str, float] = {}
            for word, onset in record.entries:
                first.setdefault(word, onset)
            self.ids.append(tuple(index.setdefault(word, len(index)) for word in first))
            onsets = tuple(first.values())
            self.onsets.append(onsets)
            self.normalized.append(tuple(t / count for t in onsets))
        self.words: tuple[str, ...] = tuple(index)
        self.covariates_table: Optional[dict] = None
        self._window: Optional[tuple[int, tuple[tuple[int, int, int, float], ...]]] = None

    def __len__(self) -> int:
        return self._size

    def __getstate__(self) -> dict:
        return {**self.__dict__, "covariates_table": None, "_window": None}

    def pair_medians(self, ws: int) -> tuple[tuple[int, int, int, float], ...]:
        """``(count, u, v, median)`` for every id pair at most ``ws`` positions apart.

        ``count`` is the number of records holding the ordered pair (after
        collapsing, a record holds a pair at most once) and ``median`` the
        median of their normalized onset differences, which does not depend
        on ``ms``. Entries run from the highest count down, so the arcs of
        any ``ms`` are a prefix. Pairs held by one record are left out, since
        an arc needs more than ``ms >= 1`` of them. Only the last window's
        list is kept, and it is freed before the next one is built, so a
        sweep over several windows holds one at a time.
        """
        if self._window is None or self._window[0] != ws:
            self._window = None
            traversals: dict[tuple[int, int], list[float]] = {}
            for ids, onsets in zip(self.ids, self.normalized):
                for gap in range(1, ws + 1):
                    for u, v, start, end in zip(ids, ids[gap:], onsets, onsets[gap:]):
                        traversals.setdefault((u, v), []).append(end - start)
            ranked = [
                (len(times), u, v, statistics.median(times))
                for (u, v), times in traversals.items()
                if len(times) > 1
            ]
            ranked.sort(key=itemgetter(0), reverse=True)
            self._window = (ws, tuple(ranked))
        return self._window[1]


Corpus = Union[Sequence[FluencyRecord], EncodedCorpus]


def encode(records: Corpus) -> EncodedCorpus:
    """The :class:`EncodedCorpus` of ``records``; an encoded corpus is returned as is."""
    if isinstance(records, EncodedCorpus):
        return records
    return EncodedCorpus(records)


def build_graph(records: Corpus, params: DistanceFunctionParams) -> WeightedDigraph:
    """Construct the semantic graph from fluency records.

    Each record is normalized by its own word count, then collapsed to first
    occurrences. For every ordered word pair within a positional gap of at
    most ``ws``, each subject contributes one normalized onset difference;
    the arc exists iff the pair collected strictly more than ``ms``
    contributions, weighted by their median. Vertices with no incident arcs
    are dropped.

    ``records`` may be an :class:`EncodedCorpus`. Graphs built from one
    encoded corpus reuse its single collapse, and successive graphs at the
    same ``ws`` reuse one table of pair medians.
    """
    corpus = encode(records)
    if not corpus:
        raise NoRecords("cannot build a graph from zero records")
    words = corpus.words
    arcs = []
    for count, u, v, median in corpus.pair_medians(params.ws):
        if count <= params.ms:
            break
        arcs.append((words[u], words[v], median))
    return WeightedDigraph(arcs)


def shuffle_records(
    records: Sequence[FluencyRecord], seed: int
) -> list[FluencyRecord]:
    """Permute each record's words uniformly while its onsets stay in place.

    Word counts and word multisets are preserved; output is deterministic
    under ``seed``.
    """
    rng = random.Random(seed)
    shuffled = []
    for record in records:
        words = list(record.words)
        rng.shuffle(words)
        shuffled.append(
            FluencyRecord(record.subject_id, tuple(zip(words, record.onsets)))
        )
    return shuffled
