"""Weighted directed graph with deterministic shortest-path machinery.

The graph is immutable after construction: every operation below is a pure
read, so a single instance can be shared freely across threads and worker
processes. What it caches (the all-pairs table, its kernel layout, and each
thread's current stack of detour rows) is derived from the arcs, never written
once built, and never changes an answer; two threads that fill a cache at
once build equal values.
Vertex labels are interned strings; each vertex receives a stable integer
index (its lexicographic rank at construction time) and all internal tables
are indexed by that integer. The arcs are kept once, as three arrays sorted
by (tail, head): tails, heads and weights; every reader works from them.
The constructor checks every arc it is given; ``build_graph`` instead passes
those arrays ready made to a private, unchecked array constructor, since its
pair table already holds what the checks enforce.

Every shortest-path length comes from one kernel, :func:`_kernel`, which
runs ``scipy.sparse.csgraph.dijkstra`` over disjoint copies of arcs in one
block-diagonal CSR matrix. The layout is a :class:`_Union` of graphs, vertex
``v`` of graph ``g`` at ``g * size + v``, each graph padded with isolated
vertices to the largest, ``size``: a graph is a union of one, built once and
cached, and a chunk of graphs, such as the draws of a permutation test, a
union of many, at most :data:`DETOUR_VERTICES` vertices in all. A union
builds its CSR index arrays once; each kernel call wraps its own weights
around them, so nothing a call reads is written after it is built. One call
over copy 0 gives every graph's all-pairs table. One engine,
:meth:`_Union.detours`, gives the detour rows of a stack of consecutive
centre indices in at most one call over copies of the union, copy ``k`` with
centre ``first + k`` of every graph inflated; its out-arcs are every graph's
arcs out of those centres. A union of one graph and a chunk are scored alike,
stack by stack. Every call holds the same copies of the union: at most
:data:`DETOUR_VERTICES` vertices when the union holds at most that many, and
one copy, all of its vertices, when a single graph holds more. A source never
leaves its copy, so its row equals a call on that copy alone.
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
import threading
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import EmptyGraph, MalformedLine, UnknownVertex
from .textio import PathOrFile, open_text, write_csv

Arc = tuple[str, str, float]

GRAPH_CSV_HEADER = ("source", "target", "weight")

_INF = math.inf

#: The one bound on a detour kernel call: a union of ``n`` vertices, ``size``
#: per graph, stacks ``min(size, max(1, DETOUR_VERTICES // n))`` centre indices
#: per call, a copy of the union each: all of a graph of up to 22 vertices, and
#: one of a union above 256, such as a round of 50 ten-vertex draws. A call so
#: holds at most this many vertices while ``n`` does; a graph above it is a
#: chunk of one and runs one centre per call over all of its ``n`` vertices. A
#: chunk of graphs holds at most this many vertices in its padded union. A call
#: returns a row as wide as itself for every row it runs.
DETOUR_VERTICES = 512

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


def _within(d: np.ndarray, first: int, stop: int, r: float | np.ndarray) -> np.ndarray:
    """The neighbourhood rule: the vertices within ``r`` of a centre either way, bar itself.

    ``d`` holds all-pairs tables, ``(graphs, V, V)``, the centres are
    ``first`` to ``stop - 1``, and ``r`` is one threshold or one per graph,
    shaped to broadcast over ``(graphs, 1, 1)``. Returns one mask per graph
    and centre, ``(graphs, stop - first, V)``.
    """
    near = (d[:, first:stop] <= r) | (d[:, :, first:stop].transpose(0, 2, 1) <= r)
    near[:, np.arange(stop - first), np.arange(first, stop)] = False
    return near


def _rows_to_run(d: np.ndarray, near: np.ndarray, first: int, graph: np.ndarray,
                 tails: np.ndarray, heads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mask of the detour rows that can differ from the all-pairs rows of ``d``.

    ``near[g, k]`` holds the neighbourhood of centre ``first + k`` of graph
    ``g``; the arcs given, with their graphs, are every arc out of those
    centres, sorted by (graph, tail). A member row runs Dijkstra only when
    some arc ``(c, v)`` out of its centre ``c`` is tight from it:
    ``D[i, c] + w == D[i, v]`` with ``D[i, v]`` finite. Every other row is ``D``'s row, bit for bit. Raising
    weights never lowers a path's left-to-right float sum, since rounding is
    monotone, so a detour length is at least ``D[i, j]``. csgraph sets each
    final distance from an already-settled vertex, so the Dijkstra tree path
    from ``i`` to any ``j != c`` is made of tight arcs and its sum is
    ``D[i, j]``. With no tight arc out of ``c``, that path never passes
    through ``c`` (``i`` is a member, never ``c``), keeps its sum on the
    reweighted graph, and so the detour length is also at most ``D[i, j]``.
    """
    reached = d[graph, :, heads]
    tight = (d[graph, :, tails] + weights[:, None] == reached) & (reached != _INF)
    runs = np.zeros(near.shape, dtype=bool)
    if graph.size:
        # the arcs are sorted by (graph, tail), so each centre's arcs are one run:
        # a row runs when any arc of its centre's run is tight from it
        centre = graph * near.shape[1] + tails - first
        starts = np.flatnonzero(np.diff(centre, prepend=-1))
        runs.reshape(-1, near.shape[-1])[centre[starts]] = np.logical_or.reduceat(
            tight, starts, axis=0)
    return runs & near


class _Union:
    """Graphs side by side as one kernel layout: vertex ``v`` of graph ``g`` is ``g * size + v``.

    Every graph is padded with isolated vertices to the largest vertex count,
    ``size``; a padding vertex reaches nothing, is in no neighbourhood and
    adds 0.0 to a total. The arcs are kept in union order, each with its
    graph, its graph-local tail and head, its weight and its graph's maximum
    weight. The CSR index arrays of :attr:`copies` disjoint copies of the
    union are built here, once; every kernel call wraps its own weights
    around them, so nothing a call reads is written after it is built.
    """

    def __init__(self, graphs: Sequence["WeightedDigraph"]):
        self.count = len(graphs)
        self.size = max(g.vertex_count for g in graphs)
        n = self.count * self.size
        # centre indices per detour stack, a copy of the union each: every centre
        # of a union of up to DETOUR_VERTICES / size vertices, one above half the bound
        self.copies = min(self.size, max(1, DETOUR_VERTICES // n))
        arcs = [g.arc_count for g in graphs]
        self.graph = np.repeat(np.arange(self.count, dtype=np.int32), arcs)
        self.tails = np.concatenate([g._tails for g in graphs])
        self.heads = np.concatenate([g._heads for g in graphs])
        self.weights = np.concatenate([g._weights for g in graphs])
        self.tops = np.repeat([g.max_arc_weight for g in graphs], arcs)
        offset = self.graph * np.int32(self.size)
        # vertex v of copy i is i * n + v: copy after copy, so the tails stay ascending
        shift = np.arange(0, self.copies * n, n, dtype=np.int32)[:, None]
        self.indices = (self.heads + offset + shift).ravel()
        self.indptr = np.zeros(self.copies * n + 1, dtype=np.int32)
        tails = (self.tails + offset + shift).ravel()
        np.cumsum(np.bincount(tails, minlength=self.copies * n), out=self.indptr[1:])

    def _run(self, weights: np.ndarray, sources: Sequence[int]) -> np.ndarray:
        """:func:`_kernel` over the copies, each copy's arc weights a row of ``weights``.

        Source ``(i * count + g) * size + v`` is vertex ``v`` of graph ``g``
        in copy ``i``. Zero-weight arcs are explicit entries, which csgraph
        keeps as arcs.
        """
        n = self.indptr.size - 1
        arcs = csr_matrix((weights.ravel(), self.indices, self.indptr), shape=(n, n), copy=False)
        return _kernel(arcs, sources)

    def distances(self) -> np.ndarray:
        """Every graph's all-pairs table, ``(count, size, size)``, in one kernel call.

        The sources are copy 0's vertices. Every copy carries the original
        weights, so its first ``count * size`` columns are the lengths on the
        union.
        """
        n = self.count * self.size
        table = self._run(np.tile(self.weights, self.copies), np.arange(n))[:, :n]
        graphs = np.arange(self.count)
        return table.reshape(self.count, self.size, self.count, self.size)[graphs, :, graphs]

    def detours(self, d: np.ndarray, r: float | np.ndarray,
                first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The detour engine: the stack of centres from ``first``, in at most one kernel call.

        ``d`` holds the graphs' all-pairs tables (see :meth:`distances`) and
        ``r`` their threshold (see :func:`_within`). The stack takes up to
        :attr:`copies` centres, copy ``k`` of the union with centre
        ``first + k`` of every graph inflated to its graph's maximum weight,
        and runs only the rows :func:`_rows_to_run` picks; a stack with none
        makes no call. Returns ``(near, runs, rows)``: ``near[g, k]`` is the
        neighbourhood mask of centre ``first + k`` of graph ``g``, ``runs``
        the mask of its members whose rows ran, and ``rows[t, k, g]`` the
        ``t``-th row that ran, in the order of ``np.nonzero(runs)``, over
        the columns of graph ``g`` in copy ``k``.
        """
        stop = min(self.size, first + self.copies)
        near = _within(d, first, stop, r)
        # every graph's arcs out of the stack's centres, still sorted by (graph, tail)
        arcs = (first <= self.tails) & (self.tails < stop)
        runs = _rows_to_run(d, near, first, self.graph[arcs], self.tails[arcs],
                            self.heads[arcs], self.weights[arcs])
        graph, copy, source = np.nonzero(runs)
        rows = np.empty((0, self.copies, self.count, self.size))
        if graph.size:
            # copy k's arcs into or out of centre first + k cost their graph's maximum
            # weight; a copy past the last centre touches no arc
            ends = np.arange(first, first + self.copies)[:, None]
            weights = np.where((self.tails == ends) | (self.heads == ends), self.tops, self.weights)
            sources = (copy * self.count + graph) * self.size + source
            rows = self._run(weights, sources).reshape(
                -1, self.copies, self.count, self.size)
        return near, runs, rows


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
        """Shortest-path lengths from ``source``, None where unreachable."""
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
        pair, and every weight is a finite ``float64`` >= 0. The graphs of
        :func:`ldcnet.corpus.build_graph` and :func:`ldcnet.corpus.draw_graphs`
        hold them: a collapsed record holds each id once, the pair table has
        one entry per draw and pair, and a median of positive gaps is finite
        and >= 0.
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
        self._union: Optional[_Union] = None
        # each thread's current detour stack, as ``.current``: (r, stack)
        self._stacks = threading.local()

    def __getstate__(self) -> dict:
        # a graph sent to or from a worker leaves its detour stacks behind
        state = dict(self.__dict__)
        del state["_stacks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stacks = threading.local()

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

    def apsp(self) -> DistanceMatrix:
        """All-pairs shortest paths; computed once and cached."""
        return DistanceMatrix(self._names, self._apsp_table())

    def _apsp_table(self) -> np.ndarray:
        """All-pairs lengths (``inf`` when unreachable), one kernel call, cached read-only."""
        if self._apsp is None:
            # a graph with no vertices has no layout to run on
            table = self._layout().distances()[0] if self._names else np.empty((0, 0))
            table.flags.writeable = False
            self._apsp = table
        return self._apsp

    def _layout(self) -> _Union:
        """The graph as a union of one, its kernel layout; built once and cached."""
        if self._union is None:
            self._union = _Union([self])
        return self._union

    def _detour(self, center: int, r: float) -> _Detour:
        """``center``'s neighbourhood, the members whose detour rows ran, and those rows.

        Returns ``(members, ran, rows)``: the members' vertex indices in
        ascending order, the positions in ``members`` whose rows ran, and
        ``rows[t]``, the lengths from ``members[ran[t]]`` to every member on
        the graph in which every arc into or out of ``center`` costs the
        maximum arc weight, read-only. Every other member's detour row is its
        all-pairs row, bit for bit (see :func:`_rows_to_run`). The rows are
        computed for a stack of consecutive centres at once (see
        :meth:`_stacked_detours`). The graph keeps one current stack per
        thread, keyed on ``r`` and its centres, so threads at different
        thresholds do not evict each other's; on a miss it computes the stack
        that starts at ``center``.
        """
        stack = getattr(self._stacks, "current", None)
        if stack is None or stack[0] != r or center not in stack[1]:
            stack = self._stacks.current = (r, self._stacked_detours(center, r))
        return stack[1][center]

    def _stacked_detours(self, first: int, r: float) -> dict[int, _Detour]:
        """:meth:`_detour` for ``first`` and the centres after it: one :meth:`_Union.detours` stack.

        No centre gets a table of all its members: each keeps only its rows
        that ran, over its members' columns.
        """
        if not r >= 0.0:  # also true for nan
            raise ValueError(f"threshold must be >= 0, got {r!r}")
        near, runs, rows = self._layout().detours(self._apsp_table()[None], r, first)
        counts = np.count_nonzero(runs[0], axis=1).tolist()
        stack, start = {}, 0
        for k, mask in enumerate(near[0]):
            members = mask.nonzero()[0]
            table = rows[start : start + counts[k], k, 0, members]
            table.flags.writeable = False
            stack[first + k] = (members, runs[0, k, members].nonzero()[0], table)
            start += counts[k]
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

