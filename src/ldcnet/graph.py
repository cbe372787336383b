"""Weighted directed graph with deterministic shortest-path machinery.

The graph is immutable after construction: every operation below is a pure
read, so a single instance can be shared freely across worker processes.
What it caches (the all-pairs table, the CSR skeleton, the current stack of
detour rows) is derived from the arcs and never changes an answer.
Vertex labels are interned strings; each vertex receives a stable integer
index (its lexicographic rank at construction time) and all internal tables
are indexed by that integer. The arcs are kept once, as three arrays sorted
by (tail, head): tails, heads and weights; every reader works from them.
The constructor checks every arc it is given; ``build_graph`` instead passes
those arrays ready made to a private, unchecked array constructor, since its
pair table already holds what the checks enforce.

Every shortest-path length comes from one kernel, :func:`_kernel`, which
runs ``scipy.sparse.csgraph.dijkstra`` over disjoint copies of arcs in one
block-diagonal CSR matrix, each copy with its own weights. It runs on one of
two kinds of skeleton. A graph builds its own once: the detour rows stack
one copy per centre, each with that centre's arcs inflated, so a small graph
pays csgraph's fixed per-call cost once for many centres, and the all-pairs
table runs in copy 0 with every copy carrying the original weights (``sssp``
reads its row). A chunk of small graphs, such as the draws of a permutation
test, is laid out as one disjoint union: one call over the union gives every
graph's all-pairs table, and one over a copy of the union per centre index
gives their detour rows (see :func:`_batch_detours`). A source never leaves
its copy, so its row equals a call on that copy alone.
A detour row from ``i`` runs only when some arc ``(c, v)`` out of its centre
is tight from ``i``, ``D[i, c] + w == D[i, v]`` on the all-pairs table ``D``;
every other detour row is ``D``'s row, bit for bit (see :func:`_rows_to_run`),
so a centre keeps only the rows that ran, over its members' columns, and never
a table of all its members. A Dijkstra distance is the minimum, over paths, of
the left-to-right float sum of the arc weights: rounding is monotone, so
extending the shortest prefix never loses to extending a longer one. That
minimum does not depend on the order in which the priority queue settles
ties, so every result is exact, reproducible and independent of arc
insertion order. Betweenness alone runs its own Dijkstra, for path counts:
it needs its heap's settle order, which zero-weight arcs can make differ
from an order read off the table.

The all-pairs table is one cached, read-only ``float64`` array from a single
kernel call, ``inf`` where unreachable; every reader works on it. Totals over
it add strictly left to right (:func:`row_major_totals`, a ``np.cumsum``),
never pairwise (``np.sum``) or compensated (builtin ``sum`` from Python 3.12).
"""
from __future__ import annotations

import csv
import math
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import EmptyGraph, MalformedLine, UnknownVertex
from .textio import PathOrFile, open_text, write_csv

Arc = tuple[str, str, float]

GRAPH_CSV_HEADER = ("source", "target", "weight")

_INF = math.inf

#: Most vertices one stacked detour call holds: a graph of V vertices gets the
#: detour rows of ``min(V, max(1, _STACK_VERTICES // V))`` centres per kernel
#: call, so above 64 vertices every centre has a call of its own.
_STACK_VERTICES = 128

#: One centre's detour: its members' vertex indices, the positions of the
#: members whose rows ran, and those rows (see :meth:`WeightedDigraph._detour`).
_Detour = tuple[np.ndarray, np.ndarray, np.ndarray]


def _kernel(arcs: csr_matrix, sources: Sequence[int]) -> np.ndarray:
    """The one shortest-path kernel: a row of lengths from each source, ``inf`` when unreachable.

    ``arcs`` is a block-diagonal skeleton of disjoint copies; a source never
    leaves its copy, so within it the row equals a call on that copy alone,
    bit for bit.
    """
    return dijkstra(arcs, directed=True, indices=sources)


def _block_diagonal(tails: np.ndarray, heads: np.ndarray, weights: np.ndarray,
                    size: int) -> csr_matrix:
    """Arcs ``tails[k] -> heads[k]`` of weight ``weights[k]`` over ``size`` vertices, as CSR.

    ``tails`` must be ascending, so ``data`` holds the weights in the order
    given. Zero-weight arcs are explicit entries, which csgraph keeps as arcs.
    """
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=size), out=indptr[1:])
    return csr_matrix((weights, heads, indptr), shape=(size, size))


def _copies(tails: np.ndarray, heads: np.ndarray, count: int,
            size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of ``count`` disjoint copies of arcs over ``size`` vertices.

    Vertex ``v`` of copy ``i`` is ``i * size + v``; copy after copy, so
    ascending tails stay ascending.
    """
    offsets = np.arange(0, count * size, size, dtype=np.int32)[:, None]
    return (tails + offsets).ravel(), (heads + offsets).ravel()


def _inflate(centres: np.ndarray, tails: np.ndarray, heads: np.ndarray, weights: np.ndarray,
             top: float | np.ndarray) -> np.ndarray:
    """One weight row per centre: every arc into or out of it costs ``top``.

    ``top`` is the maximum arc weight, one value or one per arc. A centre no
    arc touches keeps the weights as they are.
    """
    ends = centres[:, None]
    return np.where((tails == ends) | (heads == ends), top, weights)


def _within(d: np.ndarray, centres: np.ndarray, r: float | np.ndarray) -> np.ndarray:
    """One mask row per centre: the vertices within ``r`` of it either way, bar itself.

    ``r`` is one threshold or a column of one per centre.
    """
    near = (d[centres] <= r) | (d[:, centres].T <= r)
    near[np.arange(centres.size), centres] = False
    return near


def _rows_to_run(d: np.ndarray, near: np.ndarray, first: int, tails: np.ndarray,
                 heads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mask of the detour rows that can differ from the all-pairs rows of ``d``.

    ``near`` holds one neighbourhood row per centre ``first``, ``first + 1``,
    ...; the arcs given are every arc out of those centres. A member row
    runs Dijkstra only when some arc ``(c, v)`` out of its centre ``c`` is
    tight from it: ``D[i, c] + w == D[i, v]`` with ``D[i, v]`` finite. Every
    other row is ``D``'s row, bit for bit. Raising weights never lowers a
    path's left-to-right float sum, since rounding is monotone, so a detour
    length is at least ``D[i, j]``. csgraph sets each final distance from
    an already-settled vertex, so the Dijkstra tree path from ``i`` to any
    ``j != c`` is made of tight arcs and its sum is ``D[i, j]``. With no
    tight arc out of ``c``, that path never passes through ``c`` (``i`` is a
    member, never ``c``), keeps its sum on the reweighted graph, and so the
    detour length is also at most ``D[i, j]``.
    """
    reached = d[:, heads]
    tight = (d[:, tails] + weights == reached) & (reached != _INF)
    origins, arcs = np.nonzero(tight)
    runs = np.zeros_like(near)
    runs[tails[arcs] - first, origins] = True
    return runs & near


def row_major_totals(tables: np.ndarray) -> np.ndarray:
    """The total of each table over the last two axes, added strictly left to right, row-major."""
    return np.cumsum(tables.reshape(*tables.shape[:-2], -1), axis=-1)[..., -1]


def finite_or_zero(table: np.ndarray) -> np.ndarray:
    """``table`` with ``inf`` as 0.0, which leaves a left-to-right total unchanged."""
    return np.where(table == _INF, 0.0, table)


class DistanceMatrix:
    """Dense all-pairs shortest-path table, indexed by vertex label."""

    def __init__(self, names: tuple[str, ...], table: np.ndarray):
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._table = table

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._names

    def distance(self, source: str, target: str) -> Optional[float]:
        """Shortest-path length, or None when target is unreachable."""
        try:
            d = float(self._table[self._index[source], self._index[target]])
        except KeyError as exc:
            raise UnknownVertex(str(exc.args[0])) from None
        return None if d == _INF else d

    def row(self, source: str) -> dict[str, Optional[float]]:
        if source not in self._index:
            raise UnknownVertex(source)
        raw = self._table[self._index[source]].tolist()
        return {name: (None if raw[i] == _INF else raw[i]) for i, name in enumerate(self._names)}


class WeightedDigraph:
    """Directed graph whose arcs carry non-negative finite weights.

    Construction rejects self-arcs, duplicate ordered pairs, and invalid
    weights. Asymmetry is allowed: an arc (u, v) may exist without (v, u),
    and when both exist their weights may differ.
    """

    def __init__(self, arcs: Iterable[Arc] = (), vertices: Iterable[str] = ()):
        weights: dict[tuple[str, str], float] = {}
        names = {sys.intern(v) for v in vertices}
        for u, v, w in arcs:
            u, v = sys.intern(u), sys.intern(v)
            w = float(w)
            if u == v:
                raise ValueError(f"self-arc not allowed: {u!r}")
            if (u, v) in weights:
                raise ValueError(f"duplicate arc: {u!r} -> {v!r}")
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"arc weight must be finite and >= 0, got {w!r}")
            weights[(u, v)] = w
            names.add(u)
            names.add(v)
        if "" in names:
            raise ValueError("empty vertex label")

        ordered = tuple(sorted(names))
        index = {name: i for i, name in enumerate(ordered)}
        arcs = sorted((index[u], index[v], w) for (u, v), w in weights.items())
        self._set_arcs(
            ordered,
            np.array([u for u, _, _ in arcs], dtype=np.int32),
            np.array([v for _, v, _ in arcs], dtype=np.int32),
            np.array([w for _, _, w in arcs], dtype=np.float64),
        )

    @classmethod
    def _from_arrays(
        cls, names: tuple[str, ...], tails: np.ndarray, heads: np.ndarray, weights: np.ndarray
    ) -> "WeightedDigraph":
        """A graph from vertex names in label order and arcs as index arrays, unchecked.

        The caller vouches for what the constructor checks: the names are
        sorted and distinct, ``tails`` and ``heads`` are ``int32`` ranks into
        ``names`` sorted by (tail, head) with no self-arc and no repeated
        pair, and every weight is a finite ``float64`` >= 0. :func:`ldcnet.corpus.build_graph` holds them: a
        collapsed record holds each id once, the pair table has one entry
        per pair, and a median of positive gaps is finite and >= 0.
        """
        graph = cls.__new__(cls)
        graph._set_arcs(names, tails, heads, weights)
        return graph

    def _set_arcs(
        self, names: tuple[str, ...], tails: np.ndarray, heads: np.ndarray, weights: np.ndarray
    ) -> None:
        self._names: tuple[str, ...] = tuple(map(sys.intern, names))
        self._index: dict[str, int] = {name: i for i, name in enumerate(self._names)}
        self._tails = tails
        self._heads = heads
        self._weights = weights
        self._max_weight: float = float(weights.max()) if weights.size else 0.0
        self._apsp: Optional[np.ndarray] = None
        self._csr: Optional[csr_matrix] = None
        self._stack: Optional[tuple[float, dict[int, _Detour]]] = None

    def __getstate__(self) -> dict:
        # a graph sent to or from a worker leaves its detour stack behind
        return {**self.__dict__, "_stack": None}

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._names

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def arc_count(self) -> int:
        return self._heads.size

    @property
    def max_arc_weight(self) -> float:
        """Largest arc weight in the graph (0.0 when there are no arcs)."""
        return self._max_weight

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._index

    def arcs(self) -> Iterator[Arc]:
        """All arcs as (source, target, weight), sorted by vertex index."""
        names = self._names
        for u, v, w in zip(self._tails.tolist(), self._heads.tolist(), self._weights.tolist()):
            yield (names[u], names[v], w)

    def weight(self, source: str, target: str) -> Optional[float]:
        tail, head = self._vertex_index(source), self._vertex_index(target)
        arc = np.flatnonzero((self._tails == tail) & (self._heads == head))
        return float(self._weights[arc[0]]) if arc.size else None

    def out_degree(self, vertex: str) -> int:
        return int(np.count_nonzero(self._tails == self._vertex_index(vertex)))

    def in_degree(self, vertex: str) -> int:
        return int(np.count_nonzero(self._heads == self._vertex_index(vertex)))

    def _vertex_index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertex(vertex) from None

    # -- shortest paths -----------------------------------------------------

    def sssp(self, source: str) -> dict[str, Optional[float]]:
        """Shortest-path lengths from ``source``, None if unreachable: its :meth:`apsp` row."""
        return self.apsp().row(source)

    def apsp(self) -> DistanceMatrix:
        """All-pairs shortest paths; computed once and cached."""
        return DistanceMatrix(self._names, self._apsp_table())

    def _apsp_table(self) -> np.ndarray:
        """All-pairs lengths (``inf`` when unreachable), one kernel call, cached read-only.

        The sources are copy 0's vertices. Every copy carries the original
        weights, so its first ``V`` columns are the lengths on the graph.
        """
        if self._apsp is None:
            n = self.vertex_count
            # a graph with no vertices has no copies to run on
            table = self._distances(range(n), self._weights[None])[:, :n] if n else np.empty((0, 0))
            table.flags.writeable = False
            self._apsp = table
        return self._apsp

    def _skeleton(self) -> csr_matrix:
        """:meth:`_stack_size` disjoint copies of the arcs as one block-diagonal CSR matrix; cached.

        ``data`` is the copies' weight rows laid end to end. It starts as
        zeros and every kernel call overwrites it.
        """
        if self._csr is None:
            copies, n = self._stack_size(), self.vertex_count
            tails, heads = _copies(self._tails, self._heads, copies, n)
            self._csr = _block_diagonal(tails, heads, np.zeros(tails.size), copies * n)
        return self._csr

    def _distances(self, sources: Sequence[int], weights: np.ndarray) -> np.ndarray:
        """The shortest-path kernel over the :meth:`_stack_size` copies of the skeleton.

        ``weights[i]`` holds copy ``i``'s arc weights in vertex-index arc
        order (a single row is every copy's), and source ``i * V + v`` is
        vertex ``v`` of copy ``i``. Returns
        one row of lengths per source over the vertices of every copy,
        ``inf`` when unreachable. A source never leaves its copy, so within
        it the row equals a call on that copy alone, bit for bit.
        """
        arcs = self._skeleton()
        arcs.data.reshape(self._stack_size(), -1)[...] = weights
        return _kernel(arcs, sources)

    def _detour(self, center: int, r: float) -> _Detour:
        """``center``'s neighbourhood, the members whose detour rows ran, and those rows.

        Returns ``(members, ran, rows)``: the members' vertex indices in
        ascending order, the positions in ``members`` whose rows ran, and
        ``rows[t]``, the lengths from ``members[ran[t]]`` to every member on
        the graph in which every arc into or out of ``center`` costs the
        maximum arc weight, read-only. Every other member's detour row is its
        all-pairs row, bit for bit (see :func:`_rows_to_run`). The rows are
        computed for a stack of consecutive centres at once (see
        :meth:`_stacked_detours`). The graph keeps only the current stack,
        keyed on ``r`` and its centres; on a miss it computes the stack that
        starts at ``center``.
        """
        stack = self._stack
        if stack is None or stack[0] != r or center not in stack[1]:
            stack = self._stack = (r, self._stacked_detours(center, r))
        return stack[1][center]

    def _stack_size(self) -> int:
        """Centres per stacked detour call (see :data:`_STACK_VERTICES`)."""
        n = self.vertex_count
        return min(n, max(1, _STACK_VERTICES // n))

    def _stacked_detours(self, first: int, r: float) -> dict[int, _Detour]:
        """:meth:`_detour` for ``first`` and the centres after it, in at most one kernel call.

        Only the rows :func:`_rows_to_run` picks run, in one kernel call, one
        copy per centre; a stack with none makes no call. No centre gets a
        table of all its members: each keeps only its rows that ran.
        """
        n = self.vertex_count
        copies = self._stack_size()
        d = self._apsp_table()
        centres = np.arange(first, min(n, first + copies))
        near = self._near(centres, r)
        # the stack's out-arcs are one slice, since the arcs are sorted by tail
        lo, hi = np.searchsorted(self._tails, (first, centres[-1] + 1))
        runs = _rows_to_run(d, near, first, self._tails[lo:hi], self._heads[lo:hi],
                            self._weights[lo:hi])
        copy, source = np.nonzero(runs)  # copy by copy, each copy's sources ascending
        rows = np.empty((0, copies * n))
        if copy.size:
            # copy i inflates centre first + i; a centre past the last vertex touches no arc
            weights = _inflate(np.arange(first, first + copies), self._tails, self._heads,
                               self._weights, self._max_weight)
            rows = self._distances(copy * n + source, weights)
        counts = np.count_nonzero(runs, axis=1).tolist()
        stack, start = {}, 0
        for i, c in enumerate(centres.tolist()):
            members = near[i].nonzero()[0]
            # the centre's rows that ran, over its copy's member columns
            table = rows[start : start + counts[i], i * n + members]
            table.flags.writeable = False
            stack[c] = (members, runs[i, members].nonzero()[0], table)
            start += counts[i]
        return stack

    def mean_pairwise_distance(self) -> float:
        """Sum of all finite ordered-pair distances divided by the vertex count.

        The divisor is the number of vertices, not the number of ordered
        pairs; unreachable pairs are excluded from the sum, which adds the
        finite entries left to right in row-major order.
        """
        if self.vertex_count < 2:
            raise EmptyGraph("mean pairwise distance needs at least 2 vertices")
        return float(row_major_totals(finite_or_zero(self._apsp_table()))) / self.vertex_count

    def local_neighborhood(self, vertex: str, r: float) -> set[str]:
        """Vertices within distance ``r`` of ``vertex`` in either direction.

        The vertex itself is excluded.
        """
        near = self._near(np.array([self._vertex_index(vertex)]), r)[0]
        return {self._names[i] for i in np.flatnonzero(near).tolist()}

    def _near(self, centres: np.ndarray, r: float) -> np.ndarray:
        """One mask row per centre: the vertices within ``r`` of it either way, bar itself."""
        if not r >= 0.0:  # also true for nan
            raise ValueError(f"threshold must be >= 0, got {r!r}")
        return _within(self._apsp_table(), centres, r)

    # -- serialization ------------------------------------------------------

    def to_csv(self, dest: PathOrFile) -> None:
        """Write ``source,target,weight`` rows in vertex-index order.

        Weights are emitted with ``repr`` so that parse/emit round-trips are
        bit-exact.
        """
        write_csv(dest, GRAPH_CSV_HEADER, ((u, v, repr(w)) for u, v, w in self.arcs()))

    @classmethod
    def from_csv(cls, source: PathOrFile) -> "WeightedDigraph":
        """Parse a graph from its CSV form; raises MalformedLine on bad rows."""
        with open_text(source, "r") as fh:
            reader = csv.reader(fh)
            arcs: list[Arc] = []
            seen: set[tuple[str, str]] = set()
            header = next(reader, None)
            if header is None or tuple(header) != GRAPH_CSV_HEADER:
                raise MalformedLine(1, f"expected header {','.join(GRAPH_CSV_HEADER)!r}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise MalformedLine(line_no, f"expected 3 fields, got {len(row)}")
                u, v, raw_w = row[0], row[1], row[2]
                if not u or not v:
                    raise MalformedLine(line_no, "empty vertex label")
                if u == v:
                    raise MalformedLine(line_no, f"self-arc on {u!r}")
                if (u, v) in seen:
                    raise MalformedLine(line_no, f"duplicate arc {u!r} -> {v!r}")
                try:
                    w = float(raw_w)
                except ValueError:
                    raise MalformedLine(line_no, f"bad weight {raw_w!r}") from None
                if not math.isfinite(w) or w < 0.0:
                    raise MalformedLine(line_no, f"weight must be finite and >= 0, got {raw_w!r}")
                seen.add((u, v))
                arcs.append((u, v, w))
        return cls(arcs)


def _batch_detours(graphs: Sequence[WeightedDigraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs tables, neighbourhoods and detour tables of a chunk of graphs, in two kernel calls.

    Every graph is padded with isolated vertices to the chunk's largest
    vertex count ``M``, and the ``G`` graphs are laid out as one union
    graph, vertex ``v`` of graph ``g`` at ``g * M + v``. The first call runs
    every source of the union; its diagonal blocks are the graphs' all-pairs
    tables, and each graph's threshold is its :meth:`~WeightedDigraph.mean_pairwise_distance`.
    The second call runs over ``M`` copies of the union, copy ``c`` with
    centre ``c`` of every graph inflated to its graph's maximum weight, and
    only the rows :func:`_rows_to_run` picks; it is skipped when there are
    none. A padding vertex reaches nothing, is in no neighbourhood and
    adds 0.0 to a total.

    Returns ``(d, near, without)``: ``d[g]`` is graph ``g``'s ``(M, M)``
    all-pairs table, ``near[g, c]`` the neighbourhood mask of its centre
    ``c``, and ``without[g, c, i]`` the lengths from ``i`` with ``c``'s arcs
    inflated, for every member ``i`` of ``c``, and the all-pairs row of
    ``i`` otherwise.
    """
    count = len(graphs)
    size = max(g.vertex_count for g in graphs)
    n = count * size
    arc_graph = np.repeat(np.arange(count), [g.arc_count for g in graphs])
    tails = np.concatenate([g._tails for g in graphs])
    heads = np.concatenate([g._heads for g in graphs])
    weights = np.concatenate([g._weights for g in graphs])
    union_tails, union_heads = tails + arc_graph * size, heads + arc_graph * size
    union = _kernel(_block_diagonal(union_tails, union_heads, weights, n), np.arange(n))
    blocks = np.arange(count)
    d = union.reshape(count, size, count, size)[blocks, :, blocks]
    r = row_major_totals(finite_or_zero(d)) / [g.vertex_count for g in graphs]
    near = _within(union, np.arange(n), np.repeat(r, size)[:, None])
    centre, source = np.nonzero(_rows_to_run(union, near, 0, union_tails, union_heads, weights))
    without = np.repeat(d[:, None], size, axis=1)
    if centre.size:
        copy_tails, copy_heads = _copies(union_tails, union_heads, size, n)
        top = np.array([g.max_arc_weight for g in graphs])[arc_graph]
        inflated = _inflate(np.arange(size), tails, heads, weights, top)
        copy = centre % size
        rows = _kernel(_block_diagonal(copy_tails, copy_heads, inflated.ravel(), size * n),
                       copy * n + source)
        # each row that ran replaces its all-pairs row with its graph's columns of its copy
        columns = (copy * n + centre - copy)[:, None] + np.arange(size)
        without[centre // size, copy, source % size] = np.take_along_axis(rows, columns, axis=1)
    near = near.reshape(count, size, count, size)[blocks, :, blocks]
    return d, near, without
