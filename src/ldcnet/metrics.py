"""Per-word retrieval-speed statistics and control covariates.

All statistics here use raw (un-normalized) onsets and operate on records
collapsed to first word occurrences, so a word occurs at most once per
record and "paths containing the word" coincides with "occurrences".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .corpus import Collapse, Corpus, EncodedCorpus, encode
from .errors import NoEligibleOccurrence, NoRecords
from .textio import PathOrFile, format_number, write_csv

STATS_CSV_HEADER = (
    "word",
    "frequency",
    "log_frequency",
    "avg_location",
    "dt_to",
    "dt_from",
    "n_to",
    "n_from",
)


@dataclass(frozen=True)
class RetrievalStats:
    """Covariates and retrieval times for one word.

    ``dt_to``/``dt_from`` are None (never 0) when no occurrence has the
    required neighbour; ``n_to``/``n_from`` count the eligible occurrences
    behind each mean.
    """

    word: str
    frequency: int
    log_frequency: float
    avg_location: float
    dt_to: Optional[float]
    dt_from: Optional[float]
    n_to: int
    n_from: int


def dt_to(records: Corpus, word: str) -> float:
    """Mean raw time into ``word``: onset(word) - onset(previous word).

    Occurrences where the word opens a record are skipped and do not count
    toward the divisor.
    """
    return _retrieval_time(records, word, "dt_to", "predecessor")


def dt_from(records: Corpus, word: str) -> float:
    """Mean raw time out of ``word``: onset(next word) - onset(word).

    Reported as a positive duration; occurrences where the word closes a
    record are skipped.
    """
    return _retrieval_time(records, word, "dt_from", "successor")


def _retrieval_time(
    records: Corpus, word: str, statistic: str, neighbour: str
) -> float:
    """One word's ``statistic`` as :func:`covariates` computes it."""
    stat = covariates(records).get(word)
    value = None if stat is None else getattr(stat, statistic)
    if value is None:
        raise NoEligibleOccurrence(f"{word!r} never has a {neighbour}")
    return value


def covariates(records: Corpus) -> dict[str, RetrievalStats]:
    """Frequency, log-frequency, mean 1-based position, and retrieval times.

    Returns a dict keyed by word, in sorted word order. Words lacking an
    eligible occurrence for a retrieval statistic carry None there.

    ``records`` may be an :class:`~ldcnet.corpus.EncodedCorpus`: the table is
    then computed from its single collapse once and kept with it, and every
    later call returns a fresh dict over the same entries.
    """
    corpus = encode(records)
    if not corpus:
        raise NoRecords("cannot compute covariates from zero records")
    if corpus.covariates_table is None:
        corpus.covariates_table = _tabulate(corpus)
    return dict(corpus.covariates_table)


def _tabulate(corpus: EncodedCorpus) -> dict[str, RetrievalStats]:
    size = len(corpus.words)
    ids = corpus.collapse.ids
    index = np.arange(ids.size)
    starts = np.diff(corpus.collapse.record, prepend=-1) != 0
    opens = np.maximum.accumulate(np.where(starts, index, 0))
    frequency = np.bincount(ids, minlength=size).tolist()
    position_sum = np.bincount(ids, weights=index - opens + 1, minlength=size).tolist()
    dt_to, to_count = _mean_gaps(corpus, "dt_to")
    dt_from, from_count = _mean_gaps(corpus, "dt_from")

    stats: dict[str, RetrievalStats] = {}
    for word_id in sorted(range(size), key=corpus.words.__getitem__):
        word = corpus.words[word_id]
        freq = frequency[word_id]
        stats[word] = RetrievalStats(
            word=word,
            frequency=freq,
            log_frequency=math.log(freq),
            avg_location=position_sum[word_id] / freq,
            dt_to=dt_to[word_id],
            dt_from=dt_from[word_id],
            n_to=to_count[word_id],
            n_from=from_count[word_id],
        )
    return stats


def _mean_gaps(corpus: EncodedCorpus, statistic: str) -> tuple[list[Optional[float]], list[int]]:
    """Per word id, the mean gap of :func:`gap_means`, None where it has none, and its count."""
    means, counts = gap_means(corpus.collapse, statistic)
    counts = counts[0].tolist()
    return [mean if n else None for mean, n in zip(means[0].tolist(), counts)], counts


def gap_means(stack: Collapse, statistic: str) -> tuple[np.ndarray, np.ndarray]:
    """Per draw and word id, the mean gap into (``dt_to``) or out of (``dt_from``) it; its count.

    Both are ``(draws, len(words))`` arrays; the mean is 0.0 where the word
    has no neighbour on that side in the draw. Each gap is keyed on its
    (draw, id), so one :func:`_ordered_sums` pass serves every draw.
    """
    size = len(stack.words)
    same = stack.record[1:] == stack.record[:-1]  # position i + 1 follows i in one record
    later, earlier = stack.onsets[1:][same], stack.onsets[:-1][same]
    word = stack.ids[1:][same] if statistic == "dt_to" else stack.ids[:-1][same]
    sums, counts = _ordered_sums(stack.draw[1:][same] * size + word, later, earlier,
                                 stack.draws * size)
    means = np.divide(sums, counts, out=np.zeros(sums.shape), where=counts > 0)
    return means.reshape(stack.draws, size), counts.reshape(stack.draws, size)


def _ordered_sums(
    key: np.ndarray, later: np.ndarray, earlier: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per key below ``size``, ``(sum + later) - earlier`` over its entries in order, and their count.

    ``bincount`` adds its weights in input order, so feeding it
    ``later, -earlier`` per entry, with the key twice, adds left to
    right exactly as the loop ``sum = sum + later - earlier`` does
    (``x + (-y)`` is ``x - y``). ``sum += later - earlier`` rounds
    differently and would change the published tables.
    """
    weights = np.column_stack((later, -earlier)).ravel()
    sums = np.bincount(np.repeat(key, 2), weights=weights, minlength=size)
    return sums, np.bincount(key, minlength=size)


def write_stats_csv(
    stats: Mapping[str, RetrievalStats],
    dest: PathOrFile,
    ldc_scores: Optional[Mapping[str, float]] = None,
) -> None:
    """Write the per-word stats table; missing retrieval times stay blank.

    When ``ldc_scores`` is given an ``ldc`` column is appended, producing
    the joined table the downstream regressions consume.
    """
    header = STATS_CSV_HEADER if ldc_scores is None else STATS_CSV_HEADER + ("ldc",)
    rows = []
    for word in sorted(stats):
        s = stats[word]
        numbers = (s.log_frequency, s.avg_location, s.dt_to, s.dt_from)
        row = [s.word, str(s.frequency), *map(format_number, numbers), str(s.n_to), str(s.n_from)]
        if ldc_scores is not None:
            row.append(format_number(ldc_scores.get(word)))
        rows.append(row)
    write_csv(dest, header, rows)
