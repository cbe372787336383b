"""Local detour centrality and the six baseline centrality measures.

Every measure is a pure function of an immutable :class:`WeightedDigraph`.
Per-vertex detour contexts are independent work units, so the detour score
can be evaluated for many vertices in parallel with results identical to a
sequential pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import add
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyGraph, NoConvergence
from .graph import WeightedDigraph, finite_or_zero
from .textio import PathOrFile, format_number, write_csv

_INF = math.inf

#: Pagerank's stopping rule: it stops at the first sweep that moves no score by
#: the tolerance or more, and raises NoConvergence after the most sweeps allowed.
PAGERANK_TOLERANCE = 1e-10
PAGERANK_MAX_ITERATIONS = 1000

#: The one list of measures: tag -> scorer(graph, pagerank params, jobs), in
#: canonical output order. Each scorer looks its function up by module-level
#: name when called, so rebinding that name (for instance to wrap it) reaches
#: every caller.
SCORERS: dict[str, Callable[..., CentralityVector]] = {
    "ldc": lambda graph, params, jobs: ldc_vector(graph, jobs=jobs),
    "in_degree": lambda graph, params, jobs: degree(graph, "in"),
    "out_degree": lambda graph, params, jobs: degree(graph, "out"),
    "closeness": lambda graph, params, jobs: closeness(graph),
    "triangles": lambda graph, params, jobs: triangles(graph),
    "pagerank": lambda graph, params, jobs: pagerank(graph, params),
    "betweenness": lambda graph, params, jobs: betweenness(graph),
}

#: Measure tags in canonical output order.
MEASURES = tuple(SCORERS)


@dataclass(frozen=True)
class PageRankParams:
    """Pagerank's damping factor, in (0, 1); the stopping rule is the ``PAGERANK_*`` constants."""

    alpha: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class CentralityVector:
    """One measure's score for every vertex of one graph."""

    measure: str
    scores: Mapping[str, float]


@dataclass(frozen=True, eq=False)
class NeighborhoodContext:
    """Per-vertex bundle backing the detour computation.

    ``with_distances[i, j]`` is the shortest-path length from ``members[i]``
    to ``members[j]`` on the original graph, a slice of its one cached
    all-pairs array. ``without_distances`` holds the same lengths on the
    reweighted graph in which every arc touching the center costs the graph's
    maximum arc weight. Both are ``float64`` arrays, ``inf`` when the target
    is unreachable, from the one shortest-path kernel (csgraph Dijkstra),
    whose lengths are exact minima of left-to-right float sums. A row of
    ``without_distances`` is a kernel row only when an arc out of the center
    lies on a shortest path from that member; otherwise it equals the row of
    ``with_distances``, bit for bit, since the detour cannot change it.
    ``without_distances`` is read-only: the graph's detour stack holds it.
    ``with_matrix``/``without_matrix`` are the same tables as tuples of rows,
    None for unreachable, built only when read.
    """

    center: str
    r: float
    members: tuple[str, ...]
    with_distances: np.ndarray
    without_distances: np.ndarray
    max_weight: float

    with_matrix = property(lambda self: _rows_or_none(self.with_distances))
    without_matrix = property(lambda self: _rows_or_none(self.without_distances))


def _rows_or_none(table: np.ndarray) -> tuple[tuple[Optional[float], ...], ...]:
    return tuple(tuple(None if d == _INF else d for d in row) for row in table.tolist())


def build_context(graph: WeightedDigraph, vertex: str, r: float) -> NeighborhoodContext:
    """Assemble the neighborhood matrices used by the detour score.

    The neighborhood contains every other vertex within threshold ``r`` of
    ``vertex`` in either direction. Both matrices are computed over full
    graph paths (not paths confined to the neighborhood); the second one
    runs on the reweighted graph where arcs into or out of ``vertex`` are
    inflated to the maximum arc weight. The graph computes that one for a
    stack of consecutive centres in at most one kernel call, running only
    the rows a centre's arcs can change, so walking the centres in index
    order computes each stack once.
    """
    members, without = graph._detour(graph._vertex_index(vertex), r)
    return NeighborhoodContext(
        center=vertex,
        r=r,
        members=tuple(graph.vertices[i] for i in members.tolist()),
        with_distances=graph._apsp_table()[np.ix_(members, members)],
        without_distances=without,
        max_weight=graph.max_arc_weight,
    )


def ldc_from_context(ctx: NeighborhoodContext) -> float:
    """Detour score from a prepared context.

    Sums, over all ordered neighbor pairs, the excess of the center-inflated
    distance over the unrestricted distance, divided by the neighborhood
    size. Pairs unreachable in the unrestricted matrix contribute 0. The
    excesses (all >= 0) add left to right in row-major order, so the zeroed
    diagonal and unreachable pairs leave the total a plain double loop gives.
    """
    k = len(ctx.members)
    if k == 0:
        return 0.0
    counted = ctx.with_distances != _INF
    np.fill_diagonal(counted, False)
    excess = np.zeros((k, k))
    np.subtract(ctx.without_distances, ctx.with_distances, out=excess, where=counted)
    return float(np.cumsum(excess)[-1]) / k


def ldc(graph: WeightedDigraph, vertex: str, r: Optional[float] = None) -> float:
    """Local detour centrality of one vertex.

    When ``r`` is omitted it defaults to the graph's mean pairwise distance.
    """
    if r is None:
        r = graph.mean_pairwise_distance()
    return ldc_from_context(build_context(graph, vertex, r))


def fan_out(fn: Callable, tasks: Sequence, jobs: int) -> Iterator:
    """``fn(task)`` for each task, yielded in order: the package's one worker pool.

    ``jobs <= 1`` or one task runs in this process. Otherwise ``min(jobs, len(tasks))``
    workers take runs of ``max(1, len(tasks) // (workers * 4))`` tasks, sent in one pickle.
    """
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks, chunksize=max(1, len(tasks) // (workers * 4)))


def _ldc_scores_for(args: tuple[WeightedDigraph, float, Sequence[str]]) -> list[float]:
    graph, r, names = args
    return [ldc_from_context(build_context(graph, v, r)) for v in names]


def ldc_vector(
    graph: WeightedDigraph, r: Optional[float] = None, jobs: int = 1
) -> CentralityVector:
    """Detour score for every vertex; parallel evaluation matches sequential."""
    if graph.vertex_count == 0:
        raise EmptyGraph("graph has no vertices")
    if r is None:
        r = graph.mean_pairwise_distance()
    names = graph.vertices
    # one task per detour stack, so no stack is computed twice
    stack = graph._stack_size()
    tasks = [(graph, r, names[i : i + stack]) for i in range(0, len(names), stack)]
    scores = [s for part in fan_out(_ldc_scores_for, tasks, jobs) for s in part]
    return CentralityVector("ldc", dict(zip(names, scores)))


def degree(graph: WeightedDigraph, direction: str) -> CentralityVector:
    """Arc counts per vertex; ``direction`` is "in" or "out"."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    ends = graph._heads if direction == "in" else graph._tails
    counts = np.bincount(ends, minlength=graph.vertex_count).tolist()
    return CentralityVector(f"{direction}_degree", dict(zip(graph.vertices, map(float, counts))))


def closeness(graph: WeightedDigraph) -> CentralityVector:
    """Reachable-set closeness: (reachable count - 1) / sum of distances.

    The count includes the vertex itself and the sum runs over the vertices
    it can reach. A vertex reaching nothing scores 0, as does the degenerate
    case of a zero distance sum, so scores stay finite.
    """
    if graph.vertex_count < 2:
        raise EmptyGraph("closeness needs at least 2 vertices")
    table = graph._apsp_table()
    reachable = np.count_nonzero(table != _INF, axis=1).tolist()
    totals = np.cumsum(finite_or_zero(table), axis=1)[:, -1].tolist()  # left to right
    return CentralityVector("closeness", {
        name: (count - 1) / total if total > 0.0 else 0.0
        for name, count, total in zip(graph.vertices, reachable, totals)
    })


def triangles(graph: WeightedDigraph) -> CentralityVector:
    """Number of undirected 3-cliques through each vertex.

    The graph is symmetrized first: two vertices are adjacent when an arc
    exists in either direction.
    """
    n = graph.vertex_count
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in zip(graph._tails.tolist(), graph._heads.tolist()):
        nbrs[i].add(j)
        nbrs[j].add(i)
    scores: dict[str, float] = {}
    for i, name in enumerate(graph.vertices):
        count = 0
        for a in nbrs[i]:
            count += len(nbrs[i] & nbrs[a])
        scores[name] = count / 2.0  # each closing pair counted from both endpoints
    return CentralityVector("triangles", scores)


def _pagerank_iterate(
    graph: WeightedDigraph, params: PageRankParams
) -> tuple[list[float], list[float], int]:
    """Normalized power iteration of the pagerank update.

    The raw update adds (1 - alpha) of teleport mass per sweep, so it has no
    unnormalized fixed point; each iterate is rescaled to sum to 1 and the
    stopping rule applies to the rescaled vectors. Returns (normalized
    vector, last raw update, iterations used).
    """
    n = graph.vertex_count
    if n == 0:
        raise EmptyGraph("pagerank needs at least 1 vertex")
    out_deg = np.bincount(graph._tails, minlength=n).tolist()
    dangling_vertices = [u for u in range(n) if out_deg[u] == 0]
    # the arcs are sorted by (tail, head), so each head lists its tails in order
    in_sources: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(graph._tails.tolist(), graph._heads.tolist()):
        in_sources[v].append(u)
    x = [1.0 / n] * n
    teleport = (1.0 - params.alpha) / n
    # totals add left to right: builtin sum compensates floats from Python 3.12
    for iteration in range(1, PAGERANK_MAX_ITERATIONS + 1):
        base = teleport + reduce(add, [x[u] for u in dangling_vertices], 0.0) / n
        share = [x[u] / d if d else 0.0 for u, d in enumerate(out_deg)]
        raw = [base + reduce(add, [share[u] for u in row], 0.0) for row in in_sources]
        total = reduce(add, raw, 0.0)
        new = [value / total for value in raw]
        diff = max(abs(new[v] - x[v]) for v in range(n))
        x = new
        if diff < PAGERANK_TOLERANCE:
            return x, raw, iteration
    raise NoConvergence(f"pagerank did not converge within {PAGERANK_MAX_ITERATIONS} iterations")


def pagerank(graph: WeightedDigraph, params: Optional[PageRankParams] = None) -> CentralityVector:
    """Feedback centrality; dangling vertices spread their mass uniformly."""
    vector, _, _ = _pagerank_iterate(graph, params or PageRankParams())
    return CentralityVector("pagerank", dict(zip(graph.vertices, vector)))


def pagerank_with_raw(
    graph: WeightedDigraph, params: Optional[PageRankParams] = None
) -> tuple[CentralityVector, dict[str, float], int]:
    """Pagerank plus the raw (pre-normalization) update and iteration count."""
    vector, raw, iterations = _pagerank_iterate(graph, params or PageRankParams())
    names = graph.vertices
    return (
        CentralityVector("pagerank", dict(zip(names, vector))),
        dict(zip(names, raw)),
        iterations,
    )


def betweenness(graph: WeightedDigraph) -> CentralityVector:
    """Shortest-path betweenness over weighted directed paths.

    Accumulates, for every ordered pair (i, j) with i != v != j, the
    fraction of shortest i->j paths passing through v, via Brandes-style
    dependency accumulation on a Dijkstra traversal per source.
    """
    n = graph.vertex_count
    if n < 3:
        raise EmptyGraph("betweenness needs at least 3 vertices")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in zip(graph._tails.tolist(), graph._heads.tolist(), graph._weights.tolist()):
        adj[u].append((v, w))
    bc = [0.0] * n
    for s in range(n):
        dist = [_INF] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0.0
        sigma[s] = 1.0
        settled: list[int] = []
        seen = [False] * n
        heap = [(0.0, s)]
        while heap:
            d, u = heappop(heap)
            if seen[u]:
                continue
            seen[u] = True
            settled.append(u)
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heappush(heap, (nd, v))
                elif nd == dist[v] and not seen[v]:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * n
        for w_idx in reversed(settled):
            for u in preds[w_idx]:
                delta[u] += sigma[u] / sigma[w_idx] * (1.0 + delta[w_idx])
            if w_idx != s:
                bc[w_idx] += delta[w_idx]
    return CentralityVector("betweenness", dict(zip(graph.vertices, bc)))


def compute_all(
    graph: WeightedDigraph,
    pagerank_params: Optional[PageRankParams] = None,
    measures: Sequence[str] = MEASURES,
) -> dict[str, CentralityVector]:
    """The named measures (all seven by default), keyed in the order given.

    Every measure runs in this process. The measures share the graph's
    cached all-pairs table; each vector is identical to calling its measure
    alone, and errors from individual measures propagate.
    """
    return {m: SCORERS[m](graph, pagerank_params, 1) for m in measures}


def write_centrality_csv(
    table: Mapping[str, CentralityVector], dest: PathOrFile, layout: str = "wide"
) -> None:
    """Export centrality vectors as CSV, rows in vertex-index order.

    ``layout`` is "wide" (one column per measure) or "long"
    (word,measure,value rows).
    """
    if layout not in ("wide", "long"):
        raise ValueError(f"layout must be 'wide' or 'long', got {layout!r}")
    present = [m for m in MEASURES if m in table]
    if not present:
        raise ValueError("no measures to write")
    words = sorted(table[present[0]].scores)
    if layout == "wide":
        header = ["word"] + present
        rows = ([word] + [format_number(table[m].scores[word]) for m in present] for word in words)
    else:
        header = ["word", "measure", "value"]
        rows = ((word, m, format_number(table[m].scores[word])) for word in words for m in present)
    write_csv(dest, header, rows)
