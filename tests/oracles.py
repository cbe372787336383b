"""Independent brute-force oracles used to check the library's algorithms.

Everything here deliberately avoids the library's shortest-path machinery:
distances come from Floyd-Warshall over a dense matrix or from a pure-Python
heap Dijkstra, path counts from exhaustive simple-path enumeration, ranks
from an O(n^2) scan, and the population variance from exact fractions.
Graphs, covariates and shuffles are rebuilt record by record from
``FluencyRecord`` objects, without the encoded corpus. The permutation null
is redrawn one repetition and one attempt at a time through the public
per-draw functions, without the batched engine.
:func:`reference_collapse_draws`, :func:`reference_pair_table` and
:func:`reference_pair_medians` are the library's array collapse and pair
table done with comparison sorts (``np.unique`` and stable ``argsort``), in
place of its radix passes. :func:`context_distances` and
:func:`context_rows` only lay out a library detour context's own fields as
the tables :func:`reference_context` gives. Arc weights and degrees are
read off ``graph.arcs()``.
"""

import math
import random
import statistics
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain

import numpy as np

from ldcnet import (
    FluencyRecord,
    LdcnetError,
    RetrievalStats,
    WeightedDigraph,
    shuffle_records,
)
from ldcnet.corpus import Collapse
from ldcnet.stats import MAX_RETRIES, derive_seed, ldc_dt_correlation

INF = math.inf


def arc_weight(graph, source, target):
    """The weight of the arc ``source -> target``, or None when there is none."""
    return next((w for u, v, w in graph.arcs() if (u, v) == (source, target)), None)


def out_degree(graph, vertex):
    return sum(1 for u, _, _ in graph.arcs() if u == vertex)


def in_degree(graph, vertex):
    return sum(1 for _, v, _ in graph.arcs() if v == vertex)


def fw_distances(graph):
    """Floyd-Warshall all-pairs distances keyed by (source, target)."""
    names = list(graph.vertices)
    dist = {(u, v): (0.0 if u == v else INF) for u in names for v in names}
    for u, v, w in graph.arcs():
        if w < dist[(u, v)]:
            dist[(u, v)] = w
    for k in names:
        for i in names:
            d_ik = dist[(i, k)]
            if d_ik == INF:
                continue
            for j in names:
                alt = d_ik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def fw_distances_from_arcs(vertices, arcs):
    names = list(vertices)
    dist = {(u, v): (0.0 if u == v else INF) for u in names for v in names}
    for u, v, w in arcs:
        if w < dist[(u, v)]:
            dist[(u, v)] = w
    for k in names:
        for i in names:
            d_ik = dist[(i, k)]
            if d_ik == INF:
                continue
            for j in names:
                alt = d_ik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def heap_dijkstra(vertices, arcs, source):
    """Reference single-source shortest paths: a pure-Python binary-heap Dijkstra.

    Each distance is the left-to-right float sum along a shortest path, so
    it equals the library's to the last bit. Returns a dict keyed by vertex,
    ``INF`` for unreachable targets.
    """
    adj = {u: [] for u in vertices}
    for u, v, w in arcs:
        adj[u].append((v, w))
    dist = {u: INF for u in vertices}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def inflated_arcs(graph, center):
    """The arcs of ``graph`` with every arc into or out of ``center`` at the maximum weight."""
    arcs = list(graph.arcs())
    max_w = max((w for _, _, w in arcs), default=0.0)
    return [(u, v, max_w if center in (u, v) else w) for u, v, w in arcs]


def _members(names, plain, center, r):
    """``center``'s neighbourhood from heap-Dijkstra rows: within ``r`` either way, bar itself."""
    return [u for u in names if u != center and min(plain[center][u], plain[u][center]) <= r]


def reference_context(graph, center, r):
    """(members, with_matrix, without_matrix) of the detour context, by heap Dijkstra.

    The neighbourhood is taken from the same heap-Dijkstra distances, so a
    member at distance exactly ``r`` is decided on the same floats.
    """
    names = graph.vertices
    arcs = list(graph.arcs())
    plain = {u: heap_dijkstra(names, arcs, u) for u in names}
    members = _members(names, plain, center, r)
    inflated = inflated_arcs(graph, center)
    with_rows, without_rows = [], []
    for i in members:
        detour = heap_dijkstra(names, inflated, i)
        with_rows.append(tuple(None if plain[i][j] == INF else plain[i][j] for j in members))
        without_rows.append(tuple(None if detour[j] == INF else detour[j] for j in members))
    return tuple(members), tuple(with_rows), tuple(without_rows)


def context_distances(ctx):
    """The member-to-member tables of a detour context, ``(with, without)``, as arrays.

    ``with`` is the all-pairs table over the members. ``without`` is that
    table with each row that ran replaced by its detour row, since every
    other detour row equals its all-pairs row.
    """
    with_table = ctx.apsp[np.ix_(ctx.indices, ctx.indices)]
    without_table = with_table.copy()
    without_table[ctx.ran] = ctx.ran_rows
    return with_table, without_table


def context_rows(ctx):
    """A detour context as :func:`reference_context` gives one: tables as row tuples, None for inf."""
    with_table, without_table = context_distances(ctx)
    return (ctx.members,) + tuple(
        tuple(tuple(None if d == INF else d for d in row) for row in table.tolist())
        for table in (with_table, without_table)
    )


def rows_to_run(graph, r):
    """Each centre's members from which some arc out of the centre is tight, by heap Dijkstra.

    An arc ``(c, v)`` of weight ``w`` is tight from ``i`` when
    ``dist[i][c] + w == dist[i][v]`` and that is finite: only then can a
    shortest path from ``i`` leave ``c``. Returns a dict from each centre to
    those members, in vertex order.
    """
    names = graph.vertices
    arcs = list(graph.arcs())
    plain = {u: heap_dijkstra(names, arcs, u) for u in names}
    return {
        c: [
            i
            for i in _members(names, plain, c, r)
            if any(u == c and plain[i][c] + w == plain[i][v] != INF for u, v, w in arcs)
        ]
        for c in names
    }


def left_to_right_detour(context):
    """Detour score summed pair by pair, row-major, over a :func:`reference_context` triple."""
    members, with_rows, without_rows = context
    k = len(members)
    if k == 0:
        return 0.0
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i != j and with_rows[i][j] is not None:
                total += without_rows[i][j] - with_rows[i][j]
    return total / k


def left_to_right_ldc(graph, center, r):
    """:func:`left_to_right_detour` over :func:`reference_context`."""
    return left_to_right_detour(reference_context(graph, center, r))


def left_to_right_mean_pairwise_distance(graph):
    """Finite heap-Dijkstra distances added one by one, row-major, over the vertex count."""
    names = graph.vertices
    arcs = list(graph.arcs())
    total = 0.0
    for source in names:
        dist = heap_dijkstra(names, arcs, source)
        for target in names:
            if dist[target] != INF:
                total += dist[target]
    return total / len(names)


def left_to_right_closeness(graph):
    """Reachable-set closeness with each row's distances added one by one."""
    names = graph.vertices
    arcs = list(graph.arcs())
    scores = {}
    for source in names:
        dist = heap_dijkstra(names, arcs, source)
        count, total = 0, 0.0
        for target in names:
            if dist[target] != INF:
                count += 1
                total += dist[target]
        scores[source] = (count - 1) / total if total > 0.0 else 0.0
    return scores


def left_to_right_pagerank(graph, alpha=0.85, tolerance=1e-10, max_iterations=1000):
    """Normalized pagerank power iteration, every total added one term at a time.

    Rebuilt from the arc list; ``arcs()`` yields sources in vertex order, so
    each vertex's in-arcs are added in source order.
    """
    names = list(graph.vertices)
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    out_count = [0] * n
    in_from = [[] for _ in range(n)]
    for u, v, _ in graph.arcs():
        out_count[index[u]] += 1
        in_from[index[v]].append(index[u])
    x = [1.0 / n] * n
    for _ in range(max_iterations):
        dangling = 0.0
        for u in range(n):
            if out_count[u] == 0:
                dangling += x[u]
        raw = []
        for v in range(n):
            incoming = 0.0
            for u in in_from[v]:
                incoming += x[u] / out_count[u]
            raw.append((1.0 - alpha) / n + dangling / n + incoming)
        total = 0.0
        for value in raw:
            total += value
        new = [value / total for value in raw]
        if max(abs(a - b) for a, b in zip(new, x)) < tolerance:
            return dict(zip(names, new))
        x = new
    raise AssertionError("reference pagerank did not converge")


def brute_threshold(graph):
    dist = fw_distances(graph)
    total = sum(d for d in dist.values() if d != INF)
    return total / graph.vertex_count


def brute_neighborhood(graph, center, r):
    dist = fw_distances(graph)
    return {
        u
        for u in graph.vertices
        if u != center and (dist[(center, u)] <= r or dist[(u, center)] <= r)
    }


def brute_ldc(graph, center, r=None):
    """Literal materialization of both neighborhood matrices, then subtraction."""
    if r is None:
        r = brute_threshold(graph)
    dist = fw_distances(graph)
    members = sorted(brute_neighborhood(graph, center, r))
    if not members:
        return 0.0
    max_w = max(w for _, _, w in graph.arcs())
    reweighted = [
        (u, v, max_w if (u == center or v == center) else w) for u, v, w in graph.arcs()
    ]
    dist_wo = fw_distances_from_arcs(graph.vertices, reweighted)
    total = 0.0
    k = len(members)
    for i in members:
        for j in members:
            if i == j:
                continue
            with_d = dist[(i, j)]
            without_d = dist_wo[(i, j)]
            if with_d == INF:
                continue
            if without_d == INF:
                total += max_w * k - with_d
            else:
                total += without_d - with_d
    return total / k


def enumerate_shortest_paths(graph, source, target):
    """All minimum-cost simple paths source -> target (list of vertex tuples).

    Requires strictly positive weights so shortest paths are simple. Exact
    float comparison: callers should use dyadic weights.
    """
    adj = {u: [] for u in graph.vertices}
    for u, v, w in graph.arcs():
        adj[u].append((v, w))
    best = [INF]
    paths = []

    def dfs(node, cost, path):
        if cost > best[0]:
            return
        if node == target:
            if cost < best[0]:
                best[0] = cost
                paths.clear()
            if cost == best[0]:
                paths.append(tuple(path))
            return
        for nxt, w in adj[node]:
            if nxt in path_set:
                continue
            path.append(nxt)
            path_set.add(nxt)
            dfs(nxt, cost + w, path)
            path.pop()
            path_set.remove(nxt)

    path_set = {source}
    dfs(source, 0.0, [source])
    return paths


def brute_betweenness(graph):
    """Literal quotient definition over enumerated shortest paths."""
    scores = {v: 0.0 for v in graph.vertices}
    for s in graph.vertices:
        for t in graph.vertices:
            if s == t:
                continue
            paths = enumerate_shortest_paths(graph, s, t)
            sigma = len(paths)
            if sigma == 0:
                continue
            for v in graph.vertices:
                if v == s or v == t:
                    continue
                through = sum(1 for p in paths if v in p[1:-1])
                scores[v] += through / sigma
    return scores


def brandes_betweenness(graph, increasing=False):
    """Brandes's betweenness from :func:`heap_dijkstra` distances, one source at a time.

    Vertices settle in ``(distance, index)`` order and each vertex's
    predecessors are its tight in-arcs. A vertex's dependency adds its
    terms in decreasing settle position of their heads, the heap loop's
    order, or in increasing position with ``increasing``.
    """
    names = graph.vertices
    arcs = list(graph.arcs())
    index = {v: i for i, v in enumerate(names)}
    bc = dict.fromkeys(names, 0.0)
    for s in names:
        dist = heap_dijkstra(names, arcs, s)
        settled = sorted((v for v in names if dist[v] != INF), key=lambda v: (dist[v], index[v]))
        preds = {v: [u for u, h, w in arcs if h == v and dist[u] + w == dist[v]] for v in settled}
        sigma = dict.fromkeys(names, 0.0)
        sigma[s] = 1.0
        for v in settled:
            for u in preds[v]:
                sigma[v] += sigma[u]
        terms = {v: [] for v in names}  # each in decreasing settle position
        for w in reversed(settled):
            delta = 0.0
            for term in (reversed(terms[w]) if increasing else terms[w]):
                delta += term
            for u in preds[w]:
                terms[u].append(sigma[u] / sigma[w] * (1.0 + delta))
            if w != s:
                bc[w] += delta
    return [bc[v] for v in names]


def has_zero_effect_arc(graph):
    """Whether an arc on a shortest path leaves a finite distance unchanged.

    That is an arc ``(u, v, w)`` and a source ``s`` with ``D[s, u]`` finite
    and ``D[s, u] + w == D[s, v] == D[s, u]``, on left-to-right distances
    from :func:`heap_dijkstra`: there the heap's tie order decides
    betweenness's settle order.
    """
    arcs = list(graph.arcs())
    for s in graph.vertices:
        dist = heap_dijkstra(graph.vertices, arcs, s)
        if any(dist[u] != INF and dist[u] + w == dist[u] == dist[v] for u, v, w in arcs):
            return True
    return False


def brute_triangles(graph):
    names = list(graph.vertices)
    adjacent = set()
    for u, v, _ in graph.arcs():
        adjacent.add((u, v))
        adjacent.add((v, u))
    scores = {}
    for v in names:
        count = 0
        for i, a in enumerate(names):
            if a == v or (v, a) not in adjacent:
                continue
            for b in names[i + 1:]:
                if b == v or (v, b) not in adjacent:
                    continue
                if (a, b) in adjacent:
                    count += 1
        scores[v] = float(count)
    return scores


def brute_closeness(graph):
    dist = fw_distances(graph)
    scores = {}
    for v in graph.vertices:
        reachable = [dist[(v, u)] for u in graph.vertices if dist[(v, u)] != INF]
        total = sum(reachable)
        scores[v] = (len(reachable) - 1) / total if total > 0 else 0.0
    return scores


def pagerank_residual(graph, scores, alpha):
    """Max per-component gap between the vector and its normalized update.

    The update matrix is rebuilt here directly from the arc list; dangling
    vertices spread their mass uniformly.
    """
    names = list(graph.vertices)
    n = len(names)
    out_neighbors = {u: [] for u in names}
    for u, v, _ in graph.arcs():
        out_neighbors[u].append(v)
    x = {v: scores[v] for v in names}
    dangling = sum(x[u] for u in names if not out_neighbors[u])
    update = {v: (1 - alpha) / n + dangling / n for v in names}
    for u in names:
        if out_neighbors[u]:
            share = x[u] / len(out_neighbors[u])
            for v in out_neighbors[u]:
                update[v] += share
    total = sum(update.values())
    return max(abs(x[v] - update[v] / total) for v in names)


def naive_average_ranks(values):
    """O(n^2) tie-averaged ranks: count_below + (count_equal + 1) / 2."""
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(below + (equal + 1) / 2)
    return ranks


def exact_population_variance(values):
    """Population variance of ``values`` as an exact Fraction."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact, Fraction(0)) / len(exact)
    return sum(((v - mean) ** 2 for v in exact), Fraction(0)) / len(exact)


def is_nearest_root(root, square):
    """Whether the float ``root`` is a nearest float to the square root of Fraction ``square``.

    The exact squares of the midpoints from ``root`` to its two float
    neighbours (``math.nextafter``) must bracket ``square``; the check works
    with exact fractions, so it holds on every interpreter.
    """
    if root == 0.0:
        return square == 0
    below = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2
    above = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    return below * below <= square <= above * above


def naive_spearman(xs, ys):
    rx = naive_average_ranks(xs)
    ry = naive_average_ranks(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def normalize_record(record):
    """The record with every onset divided by its word count."""
    count = len(record)
    return FluencyRecord(record.subject_id, tuple((w, t / count) for w, t in record.entries))


def collapse_first_occurrence(record):
    """The record without repeated words, each kept at its first occurrence."""
    seen = set()
    kept = []
    for word, onset in record.entries:
        if word not in seen:
            seen.add(word)
            kept.append((word, onset))
    return FluencyRecord(record.subject_id, tuple(kept))


def reference_build_graph(records, params):
    """Per-record graph construction: normalize, collapse, then gather each pair's gaps."""
    traversals = {}
    for record in records:
        if len(record) == 0:
            continue
        collapsed = collapse_first_occurrence(normalize_record(record))
        words = collapsed.words
        onsets = collapsed.onsets
        length = len(words)
        for i in range(length):
            for j in range(i + 1, min(i + params.ws, length - 1) + 1):
                traversals.setdefault((words[i], words[j]), []).append(onsets[j] - onsets[i])
    return WeightedDigraph([
        (u, v, statistics.median(times))
        for (u, v), times in traversals.items()
        if len(times) > params.ms
    ])


def reference_collapse_draws(corpus, draws):
    """:func:`ldcnet.corpus.collapse_draws` by comparison sorts: a stable ``argsort`` of the key.

    A stable sort on (draw, record, id), the key ``record * len(words) + id``
    over the stack, puts each record's first occurrence of an id first in
    its run, and ``np.sort`` of the kept positions restores their order.
    """
    lengths = np.fromiter(map(len, corpus.raw_ids), dtype=np.intp, count=len(corpus))
    total = int(lengths.sum())
    onsets = np.fromiter(chain.from_iterable(corpus.raw_onsets), dtype=np.float64, count=total)
    raw = chain.from_iterable(chain.from_iterable(draw.raw_ids for draw in draws))
    ids = np.fromiter(raw, dtype=np.intp, count=total * len(draws))
    lengths = np.tile(lengths, len(draws))
    record = np.repeat(np.arange(lengths.size), lengths)
    key = record * len(corpus.words) + ids
    order = np.argsort(key, kind="stable")
    first = np.sort(order[np.diff(key[order], prepend=-1) != 0])
    record = record[first]
    onsets = np.tile(onsets, len(draws))[first]
    return Collapse(
        corpus.words, corpus.labels, len(draws), ids[first], record,
        record // max(len(corpus), 1), onsets, onsets / lengths[record],
    )


def reference_pair_table(stack, ws):
    """:func:`ldcnet.corpus.pair_table` by ``np.unique`` and comparison sorts.

    Each entry gets one distinct integer in (key, difference) order: the
    rank of its (draw, pair) key among the distinct ones, then the rank of
    its difference; one ``argsort`` of those groups each pair's differences
    in order.
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
    pairs, group, counts = np.unique(key, return_inverse=True, return_counts=True)
    group *= key.size
    group[np.argsort(delta)] += np.arange(key.size)
    delta = delta[np.argsort(group)]
    starts = np.cumsum(counts) - counts
    shared = counts > 1
    starts, counts = starts[shared], counts[shared]
    upper = starts + counts // 2
    medians = np.where(counts % 2 == 1, delta[upper], (delta[upper - 1] + delta[upper]) / 2)
    draw, pair = np.divmod(pairs[shared], size * size)
    sources, targets = np.divmod(pair, size)
    return counts, draw, sources, targets, medians


def reference_pair_medians(corpus, ws):
    """:meth:`ldcnet.corpus.EncodedCorpus.pair_medians` by a stable sort on minus the counts."""
    stack = reference_collapse_draws(corpus, [corpus])
    counts, _, sources, targets, medians = reference_pair_table(stack, ws)
    rank = np.argsort(-counts, kind="stable")
    return counts[rank], sources[rank], targets[rank], medians[rank]


def reference_covariates(records):
    """Per-record covariates over first occurrences, keyed by word in sorted order."""
    frequency, position_sum = {}, {}
    to_sum, to_count, from_sum, from_count = {}, {}, {}, {}
    for record in map(collapse_first_occurrence, records):
        onsets = record.onsets
        words = record.words
        last = len(words) - 1
        for position, word in enumerate(words):
            frequency[word] = frequency.get(word, 0) + 1
            position_sum[word] = position_sum.get(word, 0) + position + 1
            if position >= 1:
                to_sum[word] = to_sum.get(word, 0.0) + onsets[position] - onsets[position - 1]
                to_count[word] = to_count.get(word, 0) + 1
            if position < last:
                from_sum[word] = from_sum.get(word, 0.0) + onsets[position + 1] - onsets[position]
                from_count[word] = from_count.get(word, 0) + 1
    stats = {}
    for word in sorted(frequency):
        freq = frequency[word]
        n_to = to_count.get(word, 0)
        n_from = from_count.get(word, 0)
        stats[word] = RetrievalStats(
            word=word,
            frequency=freq,
            log_frequency=math.log(freq),
            avg_location=position_sum[word] / freq,
            dt_to=(to_sum[word] / n_to) if n_to else None,
            dt_from=(from_sum[word] / n_from) if n_from else None,
            n_to=n_to,
            n_from=n_from,
        )
    return stats


def reference_shuffle(records, seed):
    """Each record's word list shuffled in place, one ``rng.shuffle`` per record in order."""
    rng = random.Random(seed)
    shuffled = []
    for record in records:
        words = list(record.words)
        rng.shuffle(words)
        shuffled.append(FluencyRecord(record.subject_id, tuple(zip(words, record.onsets))))
    return shuffled


def reference_null(records, config):
    """Each repetition's null correlation, in order, None where every attempt failed.

    Repetition ``rep`` tries attempts 0 to ``MAX_RETRIES`` in turn, each
    through ``shuffle_records`` and ``ldc_dt_correlation`` on its own.
    """
    null = []
    for rep in range(config.repetitions):
        rho = None
        for attempt in range(MAX_RETRIES + 1):
            shuffled = shuffle_records(records, derive_seed(config.seed, rep, attempt))
            try:
                rho, _ = ldc_dt_correlation(shuffled, config.ws, config.ms, config.target)
                break
            except LdcnetError:
                continue
        null.append(rho)
    return null
