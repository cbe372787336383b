"""Fluency transcript parsing and semantic graph construction.

A transcript is a CSV stream with header ``subject,word,onset_seconds``:
one row per produced word, rows grouped by subject and ordered by onset,
onsets in seconds within [0, 60]. A second loader accepts the released-data
layout: a JSON object mapping each subject id to parallel ``words`` and
``timestamps`` lists.

Each format has one row validator, which checks and converts every row once.
It feeds ``load_corpus``, which interns the rows straight into an
:class:`EncodedCorpus`: words as ids, the records collapsed once when first
used and still readable as a sequence. ``parse_corpus`` and
``parse_corpus_osf`` are the list of its records. The commands run on that
encoded corpus from the parser to the correlation table and the permutation
draws, and ``shuffle_records`` shuffles ids, whatever kind of corpus it is
given. A permutation round collapses the shuffles of all its draws in one pass and
builds each draw's graph from one pair table (``collapse_draws``,
``draw_graphs``); a loaded corpus is the one-draw case.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import MalformedLine, NonMonotoneTimestamp, NoRecords
from .graph import WeightedDigraph, _radix_order
from .textio import PathOrFile, open_text

CORPUS_CSV_HEADER = ("subject", "word", "onset_seconds")

#: Each subject's id, words and onsets, checked and converted, in file order.
Rows = list[tuple[str, list[str], list[float]]]


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


def _csv_rows(fh: IO[str]) -> Rows:
    """Check and convert transcript CSV rows, grouped by subject in file order."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(header) != CORPUS_CSV_HEADER:
        raise MalformedLine(1, f"expected header {','.join(CORPUS_CSV_HEADER)!r}")

    rows: Rows = []
    started: set[str] = set()
    current: str | None = None
    words: list[str] = []
    onsets: list[float] = []
    previous = 0.0
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedLine(line_no, f"expected 3 fields, got {len(row)}")
        subject, raw_word, raw_onset = row
        if not subject:
            raise MalformedLine(line_no, "empty subject id")
        word = raw_word.strip().lower()
        if not word:
            raise MalformedLine(line_no, "empty word")
        try:
            onset = float(raw_onset)
        except ValueError:
            raise MalformedLine(line_no, f"bad onset {raw_onset!r}") from None
        if not 0.0 <= onset <= 60.0:  # also true for nan
            raise MalformedLine(line_no, f"onset out of [0, 60]: {raw_onset!r}")

        if subject != current:
            if subject in started:
                raise MalformedLine(line_no, f"subject {subject!r} rows are not contiguous")
            started.add(subject)
            current, words, onsets = subject, [], []
            rows.append((subject, words, onsets))
        elif onset <= previous:
            raise NonMonotoneTimestamp(subject, f"onset {onset} after {previous}")
        words.append(word)
        onsets.append(onset)
        previous = onset
    return rows


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """One JSON object; a repeated key raises, where ``json`` would keep the last value."""
    data: dict[str, object] = {}
    for key, value in pairs:
        if key in data:
            raise MalformedLine(0, f"repeated JSON key {key!r}")
        data[key] = value
    return data


def _osf_rows(fh: IO[str]) -> Rows:
    """Check and convert the released-data layout, one row per subject."""
    try:
        data = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise MalformedLine(exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise MalformedLine(0, "expected a JSON object keyed by subject id")
    rows: Rows = []
    for subject, payload in data.items():
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("words"), list)
            and isinstance(payload.get("timestamps"), list)
        ):
            raise MalformedLine(0, f"subject {subject!r}: need 'words' and 'timestamps' lists")
        words, stamps = payload["words"], payload["timestamps"]
        try:
            if any(isinstance(t, bool) for t in stamps):
                raise TypeError  # float() would take JSON true and false as 1.0 and 0.0
            onsets = [float(t) for t in stamps]
        except (TypeError, ValueError):
            raise MalformedLine(0, f"subject {subject!r}: non-numeric timestamp") from None
        if len(words) != len(onsets):
            raise MalformedLine(0, f"subject {subject!r}: words/timestamps length mismatch")
        if not all(isinstance(w, str) for w in words):
            raise MalformedLine(0, f"subject {subject!r}: non-string word")
        cleaned = [w.strip().lower() for w in words]
        if any(not w for w in cleaned):
            raise MalformedLine(0, f"subject {subject!r}: empty word")
        if any(not 0.0 <= t <= 60.0 for t in onsets):  # also true for nan
            raise MalformedLine(0, f"subject {subject!r}: onset out of [0, 60]")
        subject = str(subject)
        if any(later <= earlier for earlier, later in zip(onsets, onsets[1:])):
            raise NonMonotoneTimestamp(subject)
        rows.append((subject, cleaned, onsets))
    return rows


#: The row validator of each ``input_format``.
_ROW_READERS: dict[str, Callable[[IO[str]], Rows]] = {"csv": _csv_rows, "osf-json": _osf_rows}


def parse_corpus(source: PathOrFile) -> list[FluencyRecord]:
    """Parse transcript CSV into one record per subject, in file order.

    Raises MalformedLine for format violations and NonMonotoneTimestamp when
    a subject's onsets fail to increase strictly.
    """
    return list(load_corpus(source, "csv"))


def parse_corpus_osf(source: PathOrFile) -> list[FluencyRecord]:
    """Load the released-data layout: {subject: {"words": [...], "timestamps": [...]}}."""
    return list(load_corpus(source, "osf-json"))


def load_corpus(path: PathOrFile, input_format: str = "csv") -> EncodedCorpus:
    """Load a corpus in ``input_format`` ("csv" or "osf-json"), one record per subject.

    The result is an :class:`EncodedCorpus`: a read-only sequence of the
    file's :class:`FluencyRecord` objects, in file order, that the graph,
    covariates and permutation code take as is. The format's row validator
    feeds the encoding directly, and a record is built only when one is read
    from the sequence; :func:`parse_corpus` and :func:`parse_corpus_osf` are
    ``list(load_corpus(...))``.
    """
    reader = _ROW_READERS.get(input_format)
    if reader is None:
        raise ValueError(f"unknown corpus format {input_format!r}")
    with open_text(path, "r") as fh:
        rows = reader(fh)
    return EncodedCorpus(*_intern(rows))


def _intern(
    rows: Sequence[tuple[str, Sequence[str], Sequence[float]]],
) -> tuple[tuple[str, ...], tuple[str, ...], list[list[int]], list[tuple[float, ...]]]:
    """Each row's subject, the word table in order of first appearance, each row's ids and onsets."""
    words = tuple(dict.fromkeys(chain.from_iterable(row[1] for row in rows)))
    index = {word: i for i, word in enumerate(words)}.__getitem__
    subjects = tuple(subject for subject, _, _ in rows)
    raw_ids = [list(map(index, row_words)) for _, row_words, _ in rows]
    return subjects, words, raw_ids, [tuple(onsets) for _, _, onsets in rows]


class EncodedCorpus(Sequence[FluencyRecord]):
    """A corpus with its words interned to ids, collapsed once on first use.

    The constructor takes interned records (each record's subject, the word
    table, each record's ids and onsets) and keeps them as they are; the
    collapse pass runs when :attr:`collapse` is first read. :func:`encode`
    interns a record list, :func:`load_corpus` the parser's checked rows, and
    :func:`shuffle_records` passes permuted ids; every graph and covariates
    table made from a corpus shares its pass: :func:`build_graph` and
    :func:`ldcnet.metrics.covariates` take it in place of the records and
    give the same results.

    It is also a read-only sequence of its records: ``corpus[k]`` builds the
    :class:`FluencyRecord` of record ``k`` from the ids, so code written for
    record lists reads it unchanged.

    ``words[i]`` is the word with id ``i``. For every record, empty ones
    included, ``subjects[k]`` is its subject id, ``raw_ids[k]`` the ids of
    all its words and ``raw_onsets[k]`` their onsets.

    The corpus memoises what depends only on it: its :class:`Collapse`, the
    ``labels`` order of its word ids, ``covariates_table``, which
    :func:`ldcnet.metrics.covariates` fills on first use, and the pair
    medians of the last window size asked for. Pickling drops them all, so
    a corpus sent to a worker carries only the encoding.
    """

    def __init__(
        self,
        subjects: tuple[str, ...],
        words: tuple[str, ...],
        raw_ids: list[list[int]],
        raw_onsets: list[tuple[float, ...]],
    ):
        self.subjects = subjects
        self.words = words
        self.raw_ids = raw_ids
        self.raw_onsets = raw_onsets
        self.covariates_table: Optional[dict] = None
        self._window: Optional[tuple[int, tuple[np.ndarray, ...]]] = None

    def __len__(self) -> int:
        return len(self.subjects)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        words = map(self.words.__getitem__, self.raw_ids[index])
        return FluencyRecord(self.subjects[index], tuple(zip(words, self.raw_onsets[index])))

    def __getstate__(self) -> dict:
        return {"subjects": self.subjects, "words": self.words,
                "raw_ids": self.raw_ids, "raw_onsets": self.raw_onsets}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    @cached_property
    def collapse(self) -> Collapse:
        """The corpus's records collapsed: its one draw."""
        return collapse_draws(self, [self])

    @cached_property
    def labels(self) -> np.ndarray:
        """Every word id, in the order of its word: the order of a graph's vertices."""
        return np.array(sorted(range(len(self.words)), key=self.words.__getitem__), dtype=np.intp)

    def pair_medians(self, ws: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, sources, targets, medians)`` of :func:`pair_table` for this corpus.

        Entries run from the highest count down, so the arcs of any ``ms``
        are a prefix. Only the last window's arrays are kept, and they are
        freed before the next ones are built, so a sweep over several
        windows holds one set at a time.
        """
        if self._window is None or self._window[0] != ws:
            self._window = None
            counts, _, sources, targets, medians = pair_table(self.collapse, ws)
            top = int(counts.max(initial=0))
            rank = _radix_order(top - counts, top + 1)
            self._window = (ws, (counts[rank], sources[rank], targets[rank], medians[rank]))
        return self._window[1]


class Collapse(NamedTuple):
    """First occurrences of the records of one or more draws, laid end to end.

    A draw is a run of one corpus's records, each with its own order of
    ids: a corpus's collapse has its one draw, and a permutation round
    stacks one shuffle per pending repetition. The flat arrays hold one
    entry per kept position, in (draw, record, position) order: ``ids`` the
    id of each first occurrence, ``record`` the index of its record in the
    stack (``d * len(corpus) + k`` for record ``k`` of draw ``d``), ``draw``
    that ``d``, ``onsets`` its raw onset and ``normalized`` that onset
    divided by the record's raw word count. ``words`` and ``labels`` are
    the corpus's.
    """

    words: tuple[str, ...]
    labels: np.ndarray
    draws: int
    ids: np.ndarray
    record: np.ndarray
    draw: np.ndarray
    onsets: np.ndarray
    normalized: np.ndarray


def collapse_draws(corpus: EncodedCorpus, draws: Sequence[EncodedCorpus]) -> Collapse:
    """One :class:`Collapse` of ``draws``, each a corpus of ``corpus``'s records.

    Every draw holds ``corpus``'s records in order, with their word counts
    and onsets; only the order of each record's ids may differ, as in a
    :func:`shuffle_records` draw. Only the draws' ids are read, so no draw
    collapses by itself. A stable sort on (draw, record, id), the key
    ``record * len(words) + id`` over the stack, radix-sorted, puts each
    record's first occurrence of an id first in its run; a mask of the kept
    positions restores their order.
    """
    lengths = np.fromiter(map(len, corpus.raw_ids), dtype=np.intp, count=len(corpus))
    total = int(lengths.sum())
    onsets = np.fromiter(chain.from_iterable(corpus.raw_onsets), dtype=np.float64, count=total)
    raw = chain.from_iterable(chain.from_iterable(draw.raw_ids for draw in draws))
    ids = np.fromiter(raw, dtype=np.intp, count=total * len(draws))
    lengths = np.tile(lengths, len(draws))
    record = np.repeat(np.arange(lengths.size), lengths)
    key = record * len(corpus.words) + ids
    order = _radix_order(key, lengths.size * len(corpus.words))
    keep = np.zeros(key.size, dtype=bool)
    keep[order[np.diff(key[order], prepend=-1) != 0]] = True
    first = np.flatnonzero(keep)
    record = record[first]
    onsets = np.tile(onsets, len(draws))[first]
    return Collapse(
        corpus.words, corpus.labels, len(draws), ids[first], record,
        record // max(len(corpus), 1), onsets,
        onsets / lengths[record],  # the float division ``t / count`` of each record's onsets
    )


def pair_table(
    stack: Collapse, ws: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, draw, sources, targets, medians)`` of every id pair at most ``ws`` apart.

    One entry per draw and ordered id pair, in (draw, source, target)
    order: ``counts`` is the number of the draw's records holding the pair
    (after collapsing, a record holds a pair at most once) and ``medians``
    the median of their normalized onset differences, which does not depend
    on ``ms``. Pairs held by one record are left out, since an arc needs
    more than ``ms >= 1`` of them.

    Each gap takes one slice of the flat arrays, keeping the positions whose
    two ends lie in the same record, so no pair spans two records or two
    draws. The differences are sorted, then radix-sorted stably on (draw,
    pair), which groups each pair's differences in order; every difference
    is > 0 and equal ones are interchangeable, so their order within a group
    changes no median. The median is the middle one, or ``(a + b) / 2`` of
    the middle two as in ``statistics.median``.
    """
    size = len(stack.words)
    ids, onsets, record = stack.ids, stack.normalized, stack.record
    keys, deltas = [], []
    for gap in range(1, ws + 1):
        same = record[gap:] == record[:-gap]
        pair = ids[:-gap][same] * size + ids[gap:][same]
        keys.append(stack.draw[gap:][same] * (size * size) + pair)
        deltas.append(onsets[gap:][same] - onsets[:-gap][same])
    key, delta = np.concatenate(keys), np.concatenate(deltas)
    del keys, deltas
    order = _radix_order(key, stack.draws * size * size, np.argsort(delta))
    key, delta = key[order], delta[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(starts, append=key.size)
    pairs = key[starts]
    shared = counts > 1
    starts, counts = starts[shared], counts[shared]
    upper = starts + counts // 2
    medians = np.where(counts % 2 == 1, delta[upper], (delta[upper - 1] + delta[upper]) / 2)
    draw, pair = np.divmod(pairs[shared], size * size)
    sources, targets = np.divmod(pair, size)
    return counts, draw, sources, targets, medians


def draw_graphs(
    stack: Collapse, params: DistanceFunctionParams
) -> list[tuple[np.ndarray, WeightedDigraph]]:
    """Each draw's vertex ids and graph: the graph :func:`build_graph` builds from the draw."""
    counts, draw, sources, targets, medians = pair_table(stack, params.ws)
    kept = counts > params.ms
    return _assemble(stack, draw[kept], sources[kept], targets[kept], medians[kept])


def _assemble(
    stack: Collapse, draw: np.ndarray, sources: np.ndarray, targets: np.ndarray,
    weights: np.ndarray,
) -> list[tuple[np.ndarray, WeightedDigraph]]:
    """Each draw's vertex ids and graph, from the arcs of every draw as parallel arrays.

    A draw's vertices are the ids its arcs touch, ranked in ``labels``
    order: one mask over the word table per draw, read in that order, so
    no set order reaches a graph. One radix sort on (draw, tail, head)
    orders every arc, and each draw's graph takes its slice of the sorted
    arrays.
    """
    present = np.zeros((stack.draws, len(stack.words)), dtype=bool)
    present[draw, sources] = True
    present[draw, targets] = True
    present = present[:, stack.labels]
    rank = np.empty(present.shape, dtype=np.int32)
    rank[:, stack.labels] = np.cumsum(present, axis=1) - 1
    tails, heads = rank[draw, sources], rank[draw, targets]
    size = len(stack.words)
    arcs = _radix_order((draw * size + tails) * size + heads, stack.draws * size * size)
    tails, heads, weights = tails[arcs], heads[arcs], weights[arcs]
    bounds = np.searchsorted(draw[arcs], np.arange(stack.draws + 1)).tolist()
    graphs = []
    for d, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        ids = stack.labels[present[d]]
        names = tuple(map(stack.words.__getitem__, ids.tolist()))
        graph = WeightedDigraph._from_arrays(names, tails[lo:hi], heads[lo:hi], weights[lo:hi])
        graphs.append((ids, graph))
    return graphs


#: Anything a graph, covariates table or draw is built from.
Corpus = Sequence[FluencyRecord]


def encode(records: Corpus) -> EncodedCorpus:
    """The :class:`EncodedCorpus` of ``records``; an encoded corpus is returned as is."""
    if isinstance(records, EncodedCorpus):
        return records
    return EncodedCorpus(*_intern([(r.subject_id, r.words, r.onsets) for r in records]))


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
    same ``ws`` reuse one table of pair medians. The graph is the one-draw
    case of :func:`draw_graphs`.
    """
    corpus = encode(records)
    if not corpus:
        raise NoRecords("cannot build a graph from zero records")
    counts, sources, targets, medians = corpus.pair_medians(params.ws)
    kept = int(np.count_nonzero(counts > params.ms))
    draw = np.zeros(kept, dtype=np.intp)
    [(_, graph)] = _assemble(corpus.collapse, draw, sources[:kept], targets[:kept], medians[:kept])
    return graph


def shuffle_records(records: Corpus, seed: int) -> Corpus:
    """Permute each record's words uniformly while its onsets stay in place.

    Word counts and word multisets are preserved; output is deterministic
    under ``seed``. The records are encoded, and each record's ids are
    shuffled in record order, one ``rng.shuffle`` each; a shuffle's random
    calls depend only on the length, so this is the draw a shuffle of each
    record's word list makes. An :class:`EncodedCorpus` gives the shuffled
    encoded corpus, with the same word ids; a record list gives the list of
    its records. The shuffled corpus collapses only when it is read as a
    corpus: a permutation round reads just its ids (see :func:`collapse_draws`).
    """
    corpus = encode(records)
    rng = random.Random(seed)
    shuffled = []
    for raw in corpus.raw_ids:
        ids = raw.copy()
        rng.shuffle(ids)
        shuffled.append(ids)
    result = EncodedCorpus(corpus.subjects, corpus.words, shuffled, corpus.raw_onsets)
    return result if isinstance(records, EncodedCorpus) else list(result)
