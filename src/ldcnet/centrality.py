"""Local detour centrality and the six baseline centrality measures.

Every measure is a pure function of an immutable :class:`WeightedDigraph`.
Per-vertex detour contexts are independent work units, so the detour score
can be evaluated for many vertices in parallel with results identical to a
sequential pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import add
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyGraph, NoConvergence
from .graph import (
    DETOUR_VERTICES, WeightedDigraph, _radix_order, _Union, finite_or_zero, row_major_totals,
)
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

    ``members`` are the center's neighbours, in vertex-index order, and
    ``indices`` their vertex indices. ``ran`` holds the positions in
    ``members`` whose detour rows ran the kernel, ascending, and
    ``ran_rows[t]`` the lengths from ``members[ran[t]]`` to every member on
    the reweighted graph in which every arc touching the center costs the
    graph's maximum arc weight. A member's row runs only when an arc out of
    the center lies on a shortest path from it; every other detour row equals
    its row of ``apsp``, the graph's one cached all-pairs array, bit for bit,
    since the detour cannot change it, so the context holds only the rows
    that ran. Lengths are ``float64``, ``inf`` when the target is
    unreachable, from the one shortest-path kernel (csgraph Dijkstra), whose
    lengths are exact minima of left-to-right float sums.
    """

    center: str
    r: float
    members: tuple[str, ...]
    indices: np.ndarray
    ran: np.ndarray
    ran_rows: np.ndarray
    max_weight: float
    apsp: np.ndarray = field(repr=False)


def build_context(graph: WeightedDigraph, vertex: str, r: float) -> NeighborhoodContext:
    """Assemble the neighborhood and the detour rows that ran for the detour score.

    The neighborhood contains every other vertex within threshold ``r`` of
    ``vertex`` in either direction. Distances are over full graph paths
    (not paths confined to the neighborhood); the detour rows run on the
    reweighted graph where arcs into or out of ``vertex`` are inflated to
    the maximum arc weight. The graph computes them for a stack of
    consecutive centres in at most one kernel call, running only the rows a
    centre's arcs can change, so walking the centres in index order computes
    each stack once; the stack comes from the engine that also scores
    :func:`ldc_vectors`' chunks (see :meth:`ldcnet.graph._Union.detours`).
    The context keeps only those rows. A negative or nan ``r`` raises ValueError.
    """
    indices, ran, rows = graph._detour(graph._vertex_index(vertex), r)
    return NeighborhoodContext(
        center=vertex,
        r=r,
        members=tuple(map(graph.vertices.__getitem__, indices.tolist())),
        indices=indices,
        ran=ran,
        ran_rows=rows,
        max_weight=graph.max_arc_weight,
        apsp=graph._apsp_table(),
    )


def ldc_from_context(ctx: NeighborhoodContext) -> float:
    """Detour score from a prepared context.

    Sums, over all ordered neighbor pairs, the excess of the center-inflated
    distance over the unrestricted distance, divided by the neighborhood
    size. Pairs unreachable in the unrestricted matrix contribute 0. Only
    the rows that ran are totalled: every other row's excesses are 0.0, and
    adding 0.0 to the running total (>= 0) leaves it unchanged, bit for bit.
    """
    if not ctx.ran.size:
        return 0.0
    plain = ctx.apsp[ctx.indices[ctx.ran]][:, ctx.indices]
    counted = plain != _INF
    counted[np.arange(ctx.ran.size), ctx.ran] = False
    return float(_excess_totals(ctx.ran_rows, plain, counted)) / len(ctx.members)


def _excess_totals(without: np.ndarray, plain: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """:func:`_excess_rows` totalled over the last two axes.

    The excesses (all >= 0) add left to right in row-major order and every
    pair not counted adds 0.0, so each total is the one a plain double loop
    over the counted pairs gives.
    """
    return row_major_totals(_excess_rows(without, plain, counted))


def _excess_rows(without: np.ndarray, plain: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """``without - plain`` over the ``counted`` pairs, 0.0 elsewhere."""
    excess = np.zeros(counted.shape)
    np.subtract(without, plain, out=excess, where=counted)
    return excess


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
    stack = graph._layout().copies
    tasks = [(graph, r, names[i : i + stack]) for i in range(0, len(names), stack)]
    scores = [s for part in fan_out(_ldc_scores_for, tasks, jobs) for s in part]
    return CentralityVector("ldc", dict(zip(names, scores)))


def ldc_vectors(graphs: Sequence[WeightedDigraph]) -> list[CentralityVector]:
    """``[ldc_vector(g) for g in graphs]``, with runs of graphs scored together.

    Consecutive graphs form a chunk while its padded union, ``M`` vertices
    per graph once each is padded to the chunk's largest vertex count ``M``,
    holds at most :data:`~ldcnet.graph.DETOUR_VERTICES` vertices; a graph
    above the bound is a chunk of one. A chunk is one union of graphs: one
    kernel call gives their all-pairs tables, and it is scored stack by
    stack, as one graph is (see :func:`_score_chunk`), so a chunk of one
    makes the kernel calls of ``ldc_vector``. A graph of fewer than two
    vertices goes to ``ldc_vector``, which rejects it.
    """
    vectors: list[CentralityVector] = []
    chunk: list[WeightedDigraph] = []
    largest = 0
    for graph in graphs:
        n = graph.vertex_count
        if n < 2:
            ldc_vector(graph)  # raises EmptyGraph
        if chunk and (len(chunk) + 1) * max(largest, n) > DETOUR_VERTICES:
            vectors += _score_chunk(chunk)
            chunk, largest = [], 0
        chunk.append(graph)
        largest = max(largest, n)
    if chunk:
        vectors += _score_chunk(chunk)
    return vectors


def _score_chunk(chunk: list[WeightedDigraph]) -> Iterator[CentralityVector]:
    """Every graph's detour scores from the stacks over their union, at its mean distance.

    The stacks are those of one graph (see :meth:`ldcnet.graph._Union.detours`),
    each with its centre of every graph, at most one kernel call each. Each
    row that ran adds its excesses over its centre's members to the centre's
    slot, one ``size * size`` table of rows per centre, and the slots total
    left to right: the total :func:`ldc_from_context` takes, as every other
    excess is 0.0.
    """
    union = _Union(chunk)
    plain = union.distances()
    tight = union.tight(plain)
    r = row_major_totals(finite_or_zero(plain)) / [g.vertex_count for g in chunk]
    totals = np.zeros((union.count, union.size))
    members = np.zeros((union.count, union.size), dtype=np.intp)
    for first in range(0, union.size, union.copies):
        near, runs, rows = union.detours(plain, tight, r[:, None, None], first)
        owner, centre, source = np.nonzero(runs)
        ran = np.arange(owner.size)
        before = plain[owner, source]
        counted = near[owner, centre] & (before != _INF)
        counted[ran, source] = False
        excess = np.zeros(runs.shape + runs.shape[-1:])
        excess[owner, centre, source] = _excess_rows(rows[ran, centre, owner], before, counted)
        stop = first + near.shape[1]
        totals[:, first:stop] = row_major_totals(excess)
        members[:, first:stop] = np.count_nonzero(near, axis=-1)
    scores = np.divide(totals, members, out=np.zeros_like(totals), where=members > 0).tolist()
    for graph, row in zip(chunk, scores):
        yield CentralityVector("ldc", dict(zip(graph.vertices, row)))


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
    fraction of shortest i->j paths passing through v, by Brandes's
    dependency accumulation (J. Math. Sociol. 2001). It reads the graph's
    cached all-pairs table and the tight-arc table the detour stacks read
    (see :func:`_betweenness_levels`): over the arcs tight from each source,
    the path counts come one settle position at a time, first to last, and
    the dependencies last to first, as in the two passes of a heap Dijkstra
    per source (:func:`_betweenness_heap`), whose scores it equals float for
    float. That heap loop runs instead only where
    an arc on a shortest path adds nothing to a finite distance (a
    zero-effect arc), since the heap's tie order then decides.
    """
    if graph.vertex_count < 3:
        raise EmptyGraph("betweenness needs at least 3 vertices")
    scores = _betweenness_levels(graph)
    if scores is None:
        scores = _betweenness_heap(graph)
    return CentralityVector("betweenness", dict(zip(graph.vertices, scores)))


#: The bound on betweenness's tables: a block of sources holds at most this many
#: (source, vertex) nodes, so each float table of one takes at most 512 KiB.
_BLOCK = 1 << 16


def _betweenness_levels(graph: WeightedDigraph) -> Optional[list[float]]:
    """:func:`_betweenness_heap`'s scores from the all-pairs table, or None.

    The sources run in blocks of :data:`_BLOCK` nodes (see
    :func:`_dependencies`). ``bc`` is a ``np.cumsum`` over sources of their
    dependencies, which adds them source by source as the heap loop does:
    it adds a settled vertex's dependency and skips the source, and a
    vertex it never settles, like the source, adds 0.0 here. Returns None,
    for the heap loop to decide, when a block has a zero-effect tight arc.
    """
    d, tight = graph._apsp_table(), graph._tight_table()
    n = d.shape[0]
    step = max(1, _BLOCK // n)
    bc = np.zeros((1, n))
    for first in range(0, n, step):
        rows = d[first : first + step]
        arcs = _tight_arcs(rows, tight[first : first + step], graph._tails, graph._heads)
        if arcs is None:
            return None
        bc = np.cumsum(np.vstack([bc, _dependencies(rows, first, *arcs)]), axis=0)[-1:]
    return bc[0].tolist()


def _tight_arcs(rows: np.ndarray, tight: np.ndarray, tails: np.ndarray,
                heads: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Every arc tight from a source of ``rows``, as nodes ``i * V + u`` -> ``i * V + v``, or None.

    ``rows`` are the all-pairs rows of a block of sources, ``i`` the
    position of a source in the block, and ``tight`` the graph's tight-arc
    table over those sources (see :meth:`WeightedDigraph._tight_table`):
    ``D[i, u]`` is finite and ``D[i, u] + w == D[i, v]``. Returns None when
    a tight arc leaves its distance unchanged, ``D[i, u] == D[i, v]``: a
    zero-effect arc.
    """
    source, arc = np.divmod(np.flatnonzero(tight), tails.size)  # faster than np.nonzero
    tail, head = tails[arc], heads[arc]
    if (rows[source, tail] == rows[source, head]).any():
        return None
    source *= rows.shape[1]
    return source + tail, source + head


def _dependencies(rows: np.ndarray, first: int, tail: np.ndarray,
                  head: np.ndarray) -> np.ndarray:
    """The heap loop's dependencies ``delta`` of a block of sources.

    ``rows`` are the all-pairs rows ``D`` of sources ``first`` onward, and
    ``tail -> head`` their tight arcs (see :func:`_tight_arcs`). When every
    tight arc raises a finite distance, the heap loop's predecessor lists
    are exactly the tight arcs, and it settles vertices in ``(D[s, v], v)``
    order, since every entry it pushes then exceeds the one it popped. So
    both its passes go one settle position at a time: the forward pass
    takes the arcs by their tail's position, first to last, each adding
    ``sigma[u]`` to its head's path count ``sigma[w]``; the backward pass
    by their head's position, last to first, each adding
    ``sigma[u] / sigma[w] * (1.0 + delta[w])`` to its tail. A position
    holds one vertex per source, a tail's arcs have distinct heads and a
    head's distinct tails, so one fancy-index update per position is exact,
    and every node adds its terms in the heap loop's order, at any size.
    A count is at most 2**(V - 2); past float range, at 1,026 or more
    vertices, it is inf in both loops, with equal shares (0.0 or nan) and
    numpy's warning.

    Returns ``delta`` as ``(sources, V)``, each source's own entry 0.0.
    """
    count, n = rows.shape
    sources = np.arange(count) * n + np.arange(first, first + count)
    settle = np.empty(rows.shape, dtype=np.intp)
    np.put_along_axis(settle, np.argsort(rows, axis=1, kind="stable"), np.arange(n)[None], axis=1)
    sigma = np.zeros(count * n)
    sigma[sources] = 1.0
    tail, head, runs = _by_position(settle.ravel()[tail], n, tail, head)
    for lo, hi in runs:
        u, w = tail[lo:hi], head[lo:hi]
        sigma[w] = sigma[w] + sigma[u]
    tail, head, runs = _by_position(settle.ravel()[head], n, tail, head)
    share = sigma[tail] / sigma[head]
    delta = np.zeros(count * n)
    for lo, hi in reversed(runs):
        u, w = tail[lo:hi], head[lo:hi]
        delta[u] = delta[u] + share[lo:hi] * (1.0 + delta[w])
    delta[sources] = 0.0
    return delta.reshape(count, n)


def _by_position(position: np.ndarray, n: int, tail: np.ndarray,
                 head: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """The arcs ``tail -> head`` sorted by ``position``, each below ``n``, and each position's run.

    A run is the ``(start, stop)`` of the sorted arcs at one position.
    """
    # radix-sorted; the order within a position changes no sum
    order = _radix_order(position, n)
    # a run starts where the sorted positions change; -1 on either side marks both ends
    bounds = np.flatnonzero(np.diff(position[order], prepend=-1, append=-1)).tolist()
    return tail[order], head[order], list(zip(bounds[:-1], bounds[1:]))


def _betweenness_heap(graph: WeightedDigraph) -> list[float]:
    """Betweenness by a heap Dijkstra from every source, with Brandes's dependency pass."""
    n = graph.vertex_count
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
    return bc


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
