"""Weighted directed graph with deterministic shortest-path machinery.

The graph is immutable after construction: every operation below is a pure
read, so a single instance can be shared freely across worker processes.
What it caches (the all-pairs table, the CSR skeleton, the current stack of
detour tables) is derived from the arcs and never changes an answer.
Vertex labels are interned strings; each vertex receives a stable integer
index (its lexicographic rank at construction time) and all internal tables
are indexed by that integer. The arcs are kept once, as three arrays sorted
by (tail, head): tails, heads and weights; every reader works from them.
The constructor checks every arc it is given; ``build_graph`` instead passes
those arrays ready made to a private, unchecked array constructor, since its
pair table already holds what the checks enforce.

Every shortest-path length comes from one kernel, :meth:`WeightedDigraph._distances`,
which runs ``scipy.sparse.csgraph.dijkstra`` over disjoint copies of the arcs
in one block-diagonal CSR matrix, each copy with its own weights. A graph
builds that matrix once: the detour tables stack one copy per centre, each
with that centre's arcs inflated, so a small graph pays csgraph's fixed
per-call cost once for many centres, and the all-pairs table runs in copy 0
with every copy carrying the original weights (``sssp`` reads its row). A
source never leaves its copy, so its row equals a call on that copy alone.
A detour row from ``i`` runs only when some arc ``(c, v)`` out of its centre
is tight from ``i``, ``D[i, c] + w == D[i, v]`` on the all-pairs table ``D``;
every other detour row is ``D``'s row, bit for bit (see
:meth:`WeightedDigraph._stacked_detours`). A
Dijkstra distance is the minimum, over paths, of the left-to-right float sum
of the arc weights: rounding is monotone, so extending the shortest prefix
never loses to extending a longer one. That minimum does not depend on the
order in which the priority queue settles ties, so every result is exact,
reproducible and independent of arc insertion order. Betweenness alone runs
its own Dijkstra, for path counts: it needs its heap's settle order, which
zero-weight arcs can make differ from an order read off the table.

The all-pairs table is one cached, read-only ``float64`` array from a single
kernel call, ``inf`` where unreachable; every reader works on it. Totals over
it add strictly left to right (``np.cumsum(...)[-1]``), never pairwise
(``np.sum``) or compensated (builtin ``sum`` from Python 3.12).
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
#: detour tables of ``min(V, max(1, _STACK_VERTICES // V))`` centres per kernel
#: call, so above 64 vertices every centre has a call of its own.
_STACK_VERTICES = 128


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
        self._stack: Optional[tuple[float, dict[int, tuple[np.ndarray, np.ndarray]]]] = None

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

        Vertex ``v`` of copy ``i`` is row and column ``i * V + v``. Each copy
        stores its arcs in vertex-index order, copy after copy, so ``data``
        is the copies' weight rows laid end to end. Only the index arrays
        matter: ``data`` starts as zeros and every kernel call overwrites it.
        Zero-weight arcs are explicit entries, which csgraph keeps as arcs.
        """
        if self._csr is None:
            size = self._stack_size() * self.vertex_count
            offsets = np.arange(0, size, self.vertex_count, dtype=np.int32)[:, None]
            indptr = np.zeros(size + 1, dtype=np.int32)
            np.cumsum(np.bincount((self._tails + offsets).ravel(), minlength=size), out=indptr[1:])
            indices = (self._heads + offsets).ravel()
            data = np.zeros(indices.size)
            self._csr = csr_matrix((data, indices, indptr), shape=(size, size))
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
        return dijkstra(arcs, directed=True, indices=sources)

    def _detour(self, center: int, r: float) -> tuple[np.ndarray, np.ndarray]:
        """``center``'s neighbourhood and its member-to-member detour lengths.

        The lengths are shortest paths on the graph in which every arc into
        or out of ``center`` costs the maximum arc weight, one row per
        member, read-only. They are computed for a stack of consecutive
        centres at once (see :meth:`_stacked_detours`). The graph keeps only
        the current stack, keyed on ``r`` and its centres; on a miss it
        computes the stack that starts at ``center``.
        """
        stack = self._stack
        if stack is None or stack[0] != r or center not in stack[1]:
            stack = self._stack = (r, self._stacked_detours(center, r))
        return stack[1][center]

    def _stack_size(self) -> int:
        """Centres per stacked detour call (see :data:`_STACK_VERTICES`)."""
        n = self.vertex_count
        return min(n, max(1, _STACK_VERTICES // n))

    def _stacked_detours(self, first: int, r: float) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """:meth:`_detour` for ``first`` and the centres after it, in at most one kernel call.

        A member row runs Dijkstra only when some arc ``(c, v)`` out of its
        centre ``c`` is tight from it: ``D[i, c] + w == D[i, v]`` with
        ``D[i, v]`` finite, ``D`` the all-pairs table. Every other row is
        ``D``'s row, bit for bit. Raising weights never lowers a path's
        left-to-right float sum, since rounding is monotone, so a detour
        length is at least ``D[i, j]``. csgraph sets each final distance from
        an already-settled vertex, so the Dijkstra tree path from ``i`` to
        any ``j != c`` is made of tight arcs and its sum is ``D[i, j]``. With
        no tight arc out of ``c``, that path never passes through ``c``
        (``i`` is a member, never ``c``), keeps its sum on the reweighted
        graph, and so the detour length is also at most ``D[i, j]``. The
        rows that run go in one kernel call, one copy per centre; a stack
        with none makes no call.
        """
        n = self.vertex_count
        copies = self._stack_size()
        d = self._apsp_table()
        centres = np.arange(first, min(n, first + copies))
        near = self._near(centres, r)
        # the stack's out-arcs are one slice, since the arcs are sorted by tail
        lo, hi = np.searchsorted(self._tails, (first, centres[-1] + 1))
        tails, heads = self._tails[lo:hi], self._heads[lo:hi]
        reached = d[:, heads]
        tight = (d[:, tails] + self._weights[lo:hi] == reached) & (reached != _INF)
        origins, arcs = np.nonzero(tight)
        runs = np.zeros_like(near)
        runs[tails[arcs] - first, origins] = True
        runs &= near
        copy, source = np.nonzero(runs)  # copy by copy, each copy's sources ascending
        rows = np.empty((0, copies * n))
        if copy.size:
            # copy i inflates centre first + i; a centre past the last vertex touches no arc
            ends = np.arange(first, first + copies)[:, None]
            touches = (self._tails == ends) | (self._heads == ends)
            weights = np.where(touches, self._max_weight, self._weights)
            rows = self._distances(copy * n + source, weights)
        counts = np.count_nonzero(runs, axis=1).tolist()
        stack, start = {}, 0
        for i, c in enumerate(centres.tolist()):
            members = near[i].nonzero()[0]
            table = d[members]
            # each row that ran replaces its all-pairs row with its copy's columns
            table[runs[i, members]] = rows[start : start + counts[i], i * n : (i + 1) * n]
            table = table[:, members]
            table.flags.writeable = False
            stack[c] = (members, table)
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
        return float(np.cumsum(finite_or_zero(self._apsp_table()))[-1]) / self.vertex_count

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
        d = self._apsp_table()
        near = (d[centres] <= r) | (d[:, centres].T <= r)
        near[np.arange(centres.size), centres] = False
        return near

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
