"""Correlation sweep, outlier exclusion, and permutation significance test.

Grid cells and batches of permutation repetitions are independent jobs:
per-draw seeds derive from the master seed, the repetition index and the
attempt alone, so the work can fan out across processes without changing
any result.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics as pystats
import sys
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np
from scipy.stats import t as t_dist

from .centrality import (
    MEASURES,
    CentralityVector,
    PageRankParams,
    compute_all,
    fan_out,
    ldc_vector,
    ldc_vectors,
)
from .corpus import (
    Corpus,
    DistanceFunctionParams,
    EncodedCorpus,
    build_graph,
    collapse_draws,
    draw_graphs,
    encode,
    shuffle_records,
)
from .errors import (
    InsufficientData,
    LdcnetError,
    NoRecords,
    UndefinedActualCorrelation,
    ZeroVariance,
)
from .graph import WeightedDigraph
from .metrics import covariates, gap_means
from .textio import PathOrFile, format_number, write_csv

#: Correlated variables per grid cell: the seven measures plus covariates.
VARIABLES = MEASURES + ("log_frequency", "avg_location")

#: The full 90-cell analysis grid exposed as the "paper" preset in the CLI.
FULL_GRID_WS_VALUES = tuple(range(1, 10))
FULL_GRID_MS_VALUES = tuple(range(3, 22, 2))

#: Convention recorded in output metadata: the outlier band uses population SD.
SD_CONVENTION = "population"

#: Half-width of the outlier band, in population SDs about the mean.
OUTLIER_SDS = 2.5

#: Times a permutation repetition is redrawn after its first draw fails.
MAX_RETRIES = 3

#: Consecutive repetitions per permutation task; a task scores its draws together.
PERMUTATION_BATCH = 50


# -- rank correlation -------------------------------------------------------


def average_ranks(values: Sequence[float], kept: Optional[np.ndarray] = None) -> np.ndarray:
    """1-based ranks along the last axis; tied values share the mean of their rank range.

    Each row ranks only its positions in ``kept`` (a boolean mask of the same
    shape; every position when None), and the positions outside it rank
    after every kept one. One lexsort on (value, not kept) puts a row's kept
    values first; a tie group starts where a value, or its kept flag,
    differs from the one before it, and ``maximum.accumulate``/``minimum.accumulate`` give each
    position its group's ``start`` and (exclusive) ``end``. The group's mean
    rank is ``0.5 * (start + end + 1)``, the same float formula as
    ``scipy.stats.rankdata(method="average")``. A kept nan raises
    ValueError, since its place in a sort is not a rank.
    """
    values = np.asarray(values, dtype=np.float64)
    outside = np.zeros(values.shape, dtype=bool) if kept is None else ~np.asarray(kept)
    if np.isnan(values).any(where=~outside):
        raise ValueError("nan has no rank; mark a missing value with None or the mask")
    order = np.lexsort((values, outside))
    ordered = np.take_along_axis(values, order, -1)
    outside = np.take_along_axis(outside, order, -1)
    width = values.shape[-1]
    first = np.ones(values.shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    first[..., 1:] |= outside[..., 1:] != outside[..., :-1]
    last = np.ones(values.shape, dtype=bool)
    last[..., :-1] = first[..., 1:]
    position = np.arange(width)
    start = np.maximum.accumulate(np.where(first, position, 0), axis=-1)
    end = np.minimum.accumulate(np.where(last, position + 1, width)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, 0.5 * (start + end + 1), -1)
    return ranks


def _masked(
    series: Sequence[Sequence[Optional[float]]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of optional floats as a ``(rows, width)`` array, padded with 0.0, and their mask.

    A None, like the padding, is 0.0 in the array and False in the mask.
    """
    values = np.zeros((len(series), width))
    kept = np.zeros(values.shape, dtype=bool)
    for row, items in enumerate(series):
        kept[row, : len(items)] = [v is not None for v in items]
        values[row, : len(items)] = [0.0 if v is None else v for v in items]
    return values, kept


def spearman(
    x: Sequence[Optional[float]], y: Sequence[Optional[float]], kept: Optional[np.ndarray] = None
) -> float | np.ndarray:
    """Rank correlation of paired series; ties receive the mean of their rank range.

    Without ``kept``, ``x`` and ``y`` are two series; pairs with a missing
    value (None) on either side are dropped. Raises InsufficientData below 3
    usable pairs and ZeroVariance when either side is constant.

    With ``kept``, ``x`` and ``y`` are float arrays of shape ``(rows, n)`` and
    ``kept`` a boolean mask of that shape; the result holds one rho per row,
    over that row's kept pairs, and nan for a row with fewer than 3 of them
    or a constant side. Two series are the one-row case of this stacked pass.

    A nan value raises ValueError either way (see :func:`average_ranks`):
    None and the mask are the only marks of a missing value. Centred ranks ``rank - (k + 1) / 2`` are
    multiples of one half, so the three totals are exact in any order.
    """
    single = kept is None
    if single:
        if len(x) != len(y):
            raise ValueError("series must be paired")
        values, present = _masked([x, y], len(x))
        x, y, kept = values[:1], values[1:], present[:1] & present[1:]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kept = np.asarray(kept, dtype=bool)
    if not x.shape == y.shape == kept.shape:
        raise ValueError("series and mask must be paired")
    count = np.count_nonzero(kept, axis=-1)
    centre = 0.5 * (count + 1)[..., None]
    rx = np.where(kept, average_ranks(x, kept) - centre, 0.0)
    ry = np.where(kept, average_ranks(y, kept) - centre, 0.0)
    sxx = (rx * rx).sum(axis=-1)
    syy = (ry * ry).sum(axis=-1)
    defined = (count >= 3) & (sxx != 0.0) & (syy != 0.0)
    rho = np.divide((rx * ry).sum(axis=-1), np.sqrt(sxx * syy), out=np.full(count.shape, np.nan),
                    where=defined)
    if not single:
        return rho
    if count[0] < 3:
        raise InsufficientData(f"need >= 3 paired observations, got {count[0]}")
    if not defined[0]:
        raise ZeroVariance("a constant series has no rank correlation")
    return float(rho[0])


def spearman_pvalue(rho: float, n: int) -> float:
    """Two-sided parametric p-value via the Student-t approximation."""
    if n < 3:
        raise InsufficientData("p-value needs >= 3 observations")
    if abs(rho) >= 1.0:
        return 0.0
    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * t_dist.sf(abs(t_stat), n - 2))


#: Bits of the round-to-odd integer square root in :func:`population_sd`: two
#: more than twice the float precision leave one correct rounding to float.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """Correctly rounded float square root of ``n / m`` for integers ``n >= 0``, ``m > 0``.

    The integer square root of ``n / m`` scaled by ``4**-q`` is rounded to odd
    (its last bit set when inexact), which keeps enough information for the
    one rounding of the final division, as in ``statistics._float_sqrt_of_frac``.
    """
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def population_sd(values: Sequence[float]) -> float:
    """Population standard deviation: the correctly rounded root of the exact variance.

    The values are scaled to integers over one common denominator, so the
    variance is an exact ratio of integers; the result is the value
    ``statistics.pstdev`` gives on Python 3.11 and later, on every Python.
    A nan or infinite value gives nan.
    """
    if not values:
        raise pystats.StatisticsError("population_sd requires at least one data point")
    if not all(map(math.isfinite, values)):
        return math.nan
    ratios = [v.as_integer_ratio() for v in values]
    common = math.lcm(*(d for _, d in ratios))
    scaled = [n * (common // d) for n, d in ratios]
    size = len(scaled)
    total = sum(scaled)
    variance = size * sum(x * x for x in scaled) - total * total
    return _sqrt_of_ratio(variance, size * size * common * common)


def exclude_outliers(
    x: Mapping[str, float],
    y: Optional[Mapping[str, float]] = None,
) -> set[str]:
    """Words whose values stay within mean +/- :data:`OUTLIER_SDS` SDs on every given series.

    The band uses population SD and is computed once from the full common
    word set, not iteratively. A zero-variance series excludes nothing, and
    so does a series holding a nan or an infinite value.
    """
    series = [x] if y is None else [x, y]
    words = set(series[0])
    for s in series[1:]:
        words &= set(s)
    if len(words) < 2:
        raise InsufficientData(f"need >= 2 words, got {len(words)}")
    retained = set(words)
    for s in series:
        values = [s[w] for w in words]
        mean = pystats.fmean(values)
        sd = population_sd(values)
        if sd == 0.0:
            continue
        retained -= {w for w in words if abs(s[w] - mean) > OUTLIER_SDS * sd}
    return retained


# -- grid sweep --------------------------------------------------------------


@dataclass(frozen=True)
class SpearmanEntry:
    """One pairwise correlation and the word count that survived exclusion."""

    rho: float
    n: int


@dataclass
class GridResult:
    """Everything computed for one (ws, ms) cell.

    ``status`` is "ok", "empty" (graph had no arcs), or "error" (a measure
    raised); ``table`` maps canonical variable pairs to entries, None where
    the correlation is undefined.
    """

    ws: int
    ms: int
    status: str
    error: Optional[str] = None
    n_vertices: int = 0
    graph: Optional[WeightedDigraph] = None
    measures: Optional[dict[str, CentralityVector]] = None
    table: Optional[dict[tuple[str, str], Optional[SpearmanEntry]]] = None


def variable_pairs() -> list[tuple[str, str]]:
    """Canonically ordered variable pairs for tables and summary columns."""
    return list(itertools.combinations(VARIABLES, 2))


def table_entry(cell: GridResult, a: str, b: str) -> Optional[SpearmanEntry]:
    """Look up a pair in a cell's table regardless of argument order."""
    if cell.table is None:
        return None
    if a == b:
        raise ValueError("diagonal entries are 1 by definition")
    if VARIABLES.index(a) > VARIABLES.index(b):
        a, b = b, a
    return cell.table.get((a, b))


def evaluate_cell(
    records: Corpus,
    ws: int,
    ms: int,
    pagerank_params: Optional[PageRankParams] = None,
) -> GridResult:
    """Build one cell's graph, measures, covariates, and Spearman table.

    Cells evaluated on one :class:`~ldcnet.corpus.EncodedCorpus` share its
    collapse, its covariates and, at equal ``ws``, its pair medians.
    """
    corpus = encode(records)
    graph = build_graph(corpus, DistanceFunctionParams(ws, ms))
    if graph.vertex_count == 0:
        return GridResult(ws=ws, ms=ms, status="empty")
    try:
        measures = compute_all(graph, pagerank_params)
    except LdcnetError as exc:
        return GridResult(
            ws=ws,
            ms=ms,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            n_vertices=graph.vertex_count,
            graph=graph,
        )
    word_stats = covariates(corpus)
    words = graph.vertices
    columns = [[measures[name].scores[w] for w in words] for name in MEASURES]
    columns.append([word_stats[w].log_frequency for w in words])
    columns.append([word_stats[w].avg_location for w in words])

    table = _spearman_table(words, columns)
    return GridResult(
        ws=ws,
        ms=ms,
        status="ok",
        n_vertices=graph.vertex_count,
        graph=graph,
        measures=measures,
        table=table,
    )


def _spearman_table(
    words: Sequence[str], columns: Sequence[Sequence[float]]
) -> dict[tuple[str, str], Optional[SpearmanEntry]]:
    """Each variable pair's correlation over the words inside both outlier bands.

    ``columns[i]`` holds variable ``VARIABLES[i]`` of each word in ``words``,
    in that order. Every variable is keyed on the same words (the graph's
    vertices), so a pair's joint band, ``exclude_outliers(x, y)``, is the
    intersection of the two variables' own bands: one band per variable, as
    a mask over ``words``, serves every pair. The pairs are one stacked
    :func:`spearman` pass, a row per pair with the mask ``band[a] & band[b]``;
    a nan row is an undefined pair, and ``n`` is the count of its mask.
    Every band is defined: betweenness has scored the graph, so it has >= 3
    vertices.
    """
    bands = [exclude_outliers(dict(zip(words, column))) for column in columns]
    masks = np.array([[w in band for w in words] for band in bands])
    values = np.array(columns, dtype=np.float64)
    first, second = np.array(list(itertools.combinations(range(len(columns)), 2))).T
    kept = masks[first] & masks[second]
    rhos = spearman(values[first], values[second], kept).tolist()
    counts = np.count_nonzero(kept, axis=1).tolist()
    return {
        pair: None if math.isnan(rho) else SpearmanEntry(rho=rho, n=n)
        for pair, rho, n in zip(variable_pairs(), rhos, counts)
    }


def _cell_task(args: tuple) -> GridResult:
    corpus, ws, ms, pagerank_params = args
    return evaluate_cell(corpus, ws, ms, pagerank_params)


def evaluate_cells(
    records: Corpus,
    cells: Sequence[tuple[int, int]],
    pagerank_params: Optional[PageRankParams] = None,
    jobs: int = 1,
) -> Iterator[GridResult]:
    """Evaluate an explicit cell list, yielding each cell in order as it is done.

    The records are encoded, and checked, once for every cell before this
    returns. A worker's run of cells shares one copy, without memoised tables.
    """
    corpus = encode(records)
    if not corpus:
        raise NoRecords("cannot sweep zero records")
    return fan_out(_cell_task, [(corpus, ws, ms, pagerank_params) for ws, ms in cells], jobs)


def grid_sweep(
    records: Corpus,
    ws_values: Iterable[int] = FULL_GRID_WS_VALUES,
    ms_values: Iterable[int] = FULL_GRID_MS_VALUES,
    pagerank_params: Optional[PageRankParams] = None,
    jobs: int = 1,
) -> list[GridResult]:
    """Evaluate every (ws, ms) cell; cell order is ws-major, then ms.

    Cell results are independent of evaluation order and of ``jobs``.
    """
    grid = [(ws, ms) for ws in ws_values for ms in ms_values]
    return list(evaluate_cells(records, grid, pagerank_params, jobs=jobs))


def correlation_distance_matrix(cell: GridResult) -> tuple[tuple[str, ...], list[list[float]]]:
    """Measure-by-measure distances 1 - |rho| for a completed cell.

    Zero diagonal, symmetric. Raises InsufficientData when any measure pair
    in the cell's table is undefined.
    """
    if cell.status != "ok" or cell.table is None:
        raise InsufficientData(f"cell ws={cell.ws} ms={cell.ms} has no Spearman table")
    size = len(MEASURES)
    rows = [[0.0] * size for _ in range(size)]
    for i, a in enumerate(MEASURES):
        for j in range(i + 1, size):
            entry = table_entry(cell, a, MEASURES[j])
            if entry is None:
                raise InsufficientData(
                    f"cell ws={cell.ws} ms={cell.ms}: pair ({a}, {MEASURES[j]}) undefined"
                )
            d = 1.0 - abs(entry.rho)
            rows[i][j] = d
            rows[j][i] = d
    return MEASURES, rows


# -- grid exports ------------------------------------------------------------


def cell_dir_name(ws: int, ms: int) -> str:
    return f"ws{ws}_ms{ms}"


def summary_columns() -> list[str]:
    return ["ws", "ms", "n_vertices", "status"] + [
        f"rho_{a}__{b}" for a, b in variable_pairs()
    ]


def _published_rho(cell: GridResult, a: str, b: str) -> str:
    """The pair's rho as a published number, blank where it is undefined."""
    entry = table_entry(cell, a, b)
    return format_number(None if entry is None else entry.rho)


def summary_row(cell: GridResult) -> dict[str, str]:
    row = {
        "ws": str(cell.ws),
        "ms": str(cell.ms),
        "n_vertices": str(cell.n_vertices),
        "status": cell.status if cell.error is None else f"error: {cell.error}",
    }
    for a, b in variable_pairs():
        row[f"rho_{a}__{b}"] = _published_rho(cell, a, b)
    return row


def write_grid_summary(rows: Iterable[Mapping[str, str]], dest: PathOrFile) -> None:
    """Top-level grid summary: one :func:`summary_row` per cell in sweep order."""
    columns = summary_columns()
    write_csv(dest, columns, ([row[c] for c in columns] for row in rows))


def write_spearman_csv(cell: GridResult, dest: PathOrFile) -> None:
    """Square correlation matrix over all nine variables; blanks where undefined."""
    rows = ([a] + ["1" if a == b else _published_rho(cell, a, b) for b in VARIABLES]
            for a in VARIABLES)
    write_csv(dest, ("variable",) + VARIABLES, rows)


def write_distance_csv(cell: GridResult, dest: PathOrFile) -> None:
    """Square 1 - |rho| matrix over the seven measures."""
    labels, rows = correlation_distance_matrix(cell)
    write_csv(dest, ("measure",) + labels,
              ([label] + [format_number(v) for v in row] for label, row in zip(labels, rows)))


# -- permutation test --------------------------------------------------------


@dataclass(frozen=True)
class PermutationConfig:
    """Shape of one permutation run against a target retrieval statistic."""

    ws: int
    ms: int
    target: str = "dt_from"
    repetitions: int = 5000
    seed: int = 0
    alpha: float = 0.05
    alternative: str = "two-sided"

    def __post_init__(self) -> None:
        if self.target not in ("dt_to", "dt_from"):
            raise ValueError(f"target must be 'dt_to' or 'dt_from', got {self.target!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.alternative not in ("two-sided", "greater", "less"):
            raise ValueError(f"unknown alternative {self.alternative!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class PermutationOutcome:
    """Actual correlation, permutation p, and a summary of the null draws."""

    ws: int
    ms: int
    target: str
    seed: int
    alpha: float
    alternative: str
    n_words: int
    actual_rho: float
    parametric_p: float
    p_value: float
    repetitions: int
    n_effective: int
    n_failed: int
    null_mean: Optional[float]
    null_sd: Optional[float]
    null_quantiles: dict[str, float] = field(default_factory=dict)

    @property
    def significant(self) -> bool:
        return self.parametric_p <= self.alpha

    @property
    def nontrivial(self) -> bool:
        return self.p_value <= self.alpha

    @property
    def significant_and_nontrivial(self) -> bool:
        return self.significant and self.nontrivial

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "significant": self.significant,
            "nontrivial": self.nontrivial,
            "significant_and_nontrivial": self.significant_and_nontrivial,
        }


def derive_seed(master: int, *parts: object) -> int:
    """Stable per-task seed from the master seed and task coordinates."""
    payload = ":".join([str(master)] + [str(p) for p in parts]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def ldc_dt_correlation(
    records: Corpus, ws: int, ms: int, target: str
) -> tuple[float, int]:
    """Rank correlation between the detour score and one retrieval statistic.

    Returns (rho, number of paired words). Raises the underlying error when
    the graph is empty or too few words carry both values. The graph and
    the retrieval statistic come from one encoding of the records.
    """
    corpus = encode(records)
    graph = build_graph(corpus, DistanceFunctionParams(ws, ms))
    if graph.vertex_count == 0:
        raise InsufficientData(f"graph at ws={ws} ms={ms} is empty")
    word_stats = covariates(corpus)
    scores = ldc_vector(graph).scores
    times = [getattr(word_stats[word], target) for word in graph.vertices]
    rho = spearman([scores[word] for word in graph.vertices], times)
    return rho, len(times) - times.count(None)


def _permutation_batch(args: tuple) -> list[Optional[float]]:
    """Null correlations of a run of repetitions, None where every attempt failed.

    Each round shuffles every pending repetition at its next attempt, one
    :func:`shuffle_records` call each, and handles the round's draws
    together: one :func:`collapse_draws` pass, one pair table and one arc
    sort for every draw's graph (:func:`draw_graphs`), one retrieval-time
    pass (:func:`gap_means`), one :func:`ldc_vectors` call and one stacked
    :func:`spearman` pass: a row per draw over its vertices, padded to the
    widest, with the words that have no retrieval time masked out. A draw
    whose graph is empty, or whose row is nan, is pending in the next round,
    up to :data:`MAX_RETRIES` redraws; the batch stops once none is pending.
    """
    corpus, params, target, master_seed, reps = args
    null: dict[int, Optional[float]] = dict.fromkeys(reps)
    pending = list(reps)
    for attempt in range(MAX_RETRIES + 1):
        if not pending:
            break
        seeds = [derive_seed(master_seed, rep, attempt) for rep in pending]
        stack = collapse_draws(corpus, [shuffle_records(corpus, seed) for seed in seeds])
        means, counts = gap_means(stack, target)
        built = draw_graphs(stack, params)  # (vertex ids, graph) of each draw
        kept = [d for d, (_, graph) in enumerate(built) if graph.vertex_count]
        graphs = [built[d][1] for d in kept]
        scores = [[vector.scores[word] for word in graph.vertices]
                  for graph, vector in zip(graphs, ldc_vectors(graphs))]
        x, _ = _masked(scores, max((graph.vertex_count for graph in graphs), default=0))
        y, timed = np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
        for row, d in enumerate(kept):
            ids = built[d][0]
            y[row, : ids.size] = means[d, ids]
            timed[row, : ids.size] = counts[d, ids] > 0
        for d, rho in zip(kept, spearman(x, y, timed).tolist()):
            if not math.isnan(rho):
                null[pending[d]] = rho
        pending = [rep for rep in pending if null[rep] is None]
    return [null[rep] for rep in reps]


def _null_draws(corpus: EncodedCorpus, config: PermutationConfig, jobs: int) -> list[Optional[float]]:
    """Every repetition's null correlation, in order; None where it failed."""
    params = DistanceFunctionParams(config.ws, config.ms)
    reps = range(config.repetitions)
    tasks = [(corpus, params, config.target, config.seed, reps[i : i + PERMUTATION_BATCH])
             for i in range(0, len(reps), PERMUTATION_BATCH)]
    return [rho for batch in fan_out(_permutation_batch, tasks, jobs) for rho in batch]


def permutation_test(
    records: Corpus,
    config: PermutationConfig,
    jobs: int = 1,
) -> PermutationOutcome:
    """Shuffle-rebuild-recorrelate significance test for the detour score.

    Each repetition shuffles every record's word order (onsets fixed),
    rebuilds the graph at (ws, ms), and recomputes the detour score and the
    target retrieval statistic on the shuffled corpus. The reported p-value
    uses the add-one estimator over the null draws; repetitions whose
    shuffled corpus cannot produce a correlation are redrawn up to
    :data:`MAX_RETRIES` times and counted as failed afterwards.

    The records are encoded once; every draw shuffles the encoded corpus.
    The repetitions run in batches of :data:`PERMUTATION_BATCH` consecutive
    ones, one task each (see :func:`_permutation_batch`); a draw's seed
    depends only on its repetition and attempt, so neither the batches nor
    ``jobs`` change a result.
    """
    corpus = encode(records)
    if not corpus:
        raise NoRecords("cannot run a permutation test on zero records")
    try:
        actual_rho, n_words = ldc_dt_correlation(corpus, config.ws, config.ms, config.target)
    except LdcnetError as exc:
        raise UndefinedActualCorrelation(
            f"actual-order correlation undefined at ws={config.ws} ms={config.ms}: {exc}"
        ) from exc
    parametric_p = spearman_pvalue(actual_rho, n_words)

    draws = _null_draws(corpus, config, jobs)

    null = [rho for rho in draws if rho is not None]
    n_failed = len(draws) - len(null)
    if config.alternative == "two-sided":
        extreme = sum(1 for rho in null if abs(rho) >= abs(actual_rho))
    elif config.alternative == "greater":
        extreme = sum(1 for rho in null if rho >= actual_rho)
    else:
        extreme = sum(1 for rho in null if rho <= actual_rho)
    p_value = (1 + extreme) / (len(null) + 1)

    quantiles: dict[str, float] = {}
    null_mean: Optional[float] = None
    null_sd: Optional[float] = None
    if null:
        arr = np.asarray(null)
        null_mean = float(arr.mean())
        null_sd = float(arr.std())
        for label, q in (
            ("min", 0.0),
            ("p2.5", 2.5),
            ("p25", 25.0),
            ("p50", 50.0),
            ("p75", 75.0),
            ("p97.5", 97.5),
            ("max", 100.0),
        ):
            quantiles[label] = float(np.percentile(arr, q))

    return PermutationOutcome(
        ws=config.ws,
        ms=config.ms,
        target=config.target,
        seed=config.seed,
        alpha=config.alpha,
        alternative=config.alternative,
        n_words=n_words,
        actual_rho=actual_rho,
        parametric_p=parametric_p,
        p_value=p_value,
        repetitions=config.repetitions,
        n_effective=len(null),
        n_failed=n_failed,
        null_mean=null_mean,
        null_sd=null_sd,
        null_quantiles=quantiles,
    )
