import math
import pickle
import random
import sys
import threading

import numpy as np
import pytest

from ldcnet import (
    MEASURES,
    PageRankParams,
    WeightedDigraph,
    betweenness,
    build_context,
    closeness,
    compute_all,
    degree,
    ldc,
    ldc_vector,
    pagerank,
    triangles,
)
import ldcnet.centrality as centrality_module
from ldcnet.centrality import ldc_from_context, ldc_vectors, write_centrality_csv
from ldcnet.corpus import DistanceFunctionParams, build_graph, encode, shuffle_records
from ldcnet.errors import EmptyGraph, NoConvergence, UnknownVertex
from ldcnet.graph import DETOUR_VERTICES
from ldcnet.stats import PERMUTATION_BATCH

import oracles
from corpora import (
    complete_graph,
    exact_sum_graphs,
    kernel_edge_graphs,
    random_graph,
    random_records,
    scale_weights,
    tie_heavy_graph,
)


def detour_toy(detour_cost):
    """Route B->A->C at unit cost plus a two-arc detour B->D->C."""
    return WeightedDigraph(
        [
            ("B", "A", 1.0),
            ("A", "C", 1.0),
            ("B", "D", detour_cost),
            ("D", "C", detour_cost),
        ]
    )


class TestBuildContext:
    def test_toy_detour_matrices_match_hand_dijkstra(self):
        # D has no arc to or from A, so only B and C are A's neighbors.
        g = detour_toy(3.0)
        ctx = build_context(g, "A", r=10.0)
        members, with_rows, without_rows = oracles.context_rows(ctx)
        assert members == ("B", "C")
        assert ctx.max_weight == 3.0
        b, c = 0, 1
        assert with_rows[b][c] == 2.0
        # inflating A's arcs to 3 makes B->A->C cost 6, same as the detour
        assert without_rows[b][c] == 6.0
        assert with_rows[c][b] is None
        assert without_rows[c][b] is None

    def test_member_distances_may_route_outside_the_neighborhood(self):
        # B->D->C stays available when computing distances among {B, C}.
        g = detour_toy(1.5)
        members, _, without_rows = oracles.context_rows(build_context(g, "A", r=10.0))
        assert members == ("B", "C")
        assert without_rows[0][1] == 3.0  # detour beats the inflated route

    def test_empty_neighborhood_gives_empty_matrices(self):
        g = WeightedDigraph([("a", "b", 5.0)], vertices=["lone"])
        assert oracles.context_rows(build_context(g, "lone", r=0.5)) == ((), (), ())

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            build_context(detour_toy(3.0), "Z", r=1.0)

    def test_without_matrix_matches_reweighted_apsp_oracle(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, 10, p=0.3)
            if g.arc_count == 0:
                continue
            r = rng.uniform(0.5, 4.0)
            max_w = g.max_arc_weight
            for v in g.vertices:
                members, _, without_rows = oracles.context_rows(build_context(g, v, r))
                reweighted = [
                    (a, b, max_w if v in (a, b) else w) for a, b, w in g.arcs()
                ]
                fw = oracles.fw_distances_from_arcs(g.vertices, reweighted)
                for i, u in enumerate(members):
                    for j, t in enumerate(members):
                        expected = fw[(u, t)]
                        got = without_rows[i][j]
                        if expected == math.inf:
                            assert got is None
                        else:
                            assert got == pytest.approx(expected, abs=1e-12)

    def test_matrices_equal_heap_dijkstra_reference_exactly(self):
        # exact ==: the csgraph kernel must reproduce the heap Dijkstra's floats
        rng = random.Random(43)
        graphs = kernel_edge_graphs(rng)
        assert any(g.arc_count and g.max_arc_weight == 0.0 for g in graphs)
        for g in graphs:
            thresholds = [rng.uniform(0.5, 4.0), math.inf]
            if g.vertex_count >= 2:
                thresholds.append(g.mean_pairwise_distance())
            for r in thresholds:
                for v in g.vertices:
                    got = oracles.context_rows(build_context(g, v, r))
                    members, with_rows, without_rows = oracles.reference_context(g, v, r)
                    assert got[0] == members
                    assert got[1] == with_rows
                    assert got[2] == without_rows

    def test_with_never_exceeds_without(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, 8, p=0.4)
            if g.vertex_count < 2 or g.arc_count == 0:
                continue
            r = g.mean_pairwise_distance()
            for v in g.vertices:
                _, with_rows, without_rows = oracles.context_rows(build_context(g, v, r))
                for wr, wor in zip(with_rows, without_rows):
                    for a, b in zip(wr, wor):
                        if a is not None and b is not None:
                            assert a <= b + 1e-12


def assert_contexts_match_reference(g, r, order):
    for v in order:
        got = oracles.context_rows(build_context(g, v, r))
        assert got == oracles.reference_context(g, v, r), v


def sources_per_call(kernel_calls):
    """The source count of each kernel call recorded by the ``kernel_calls`` fixture."""
    return [len(sources) for _, sources in kernel_calls]


def vertices_per_call(kernel_calls):
    """The skeleton vertex count of each kernel call: copies times the vertices of a copy."""
    return [arcs.shape[0] for arcs, _ in kernel_calls]


def index_structures(kernel_calls):
    """How many distinct CSR index arrays the recorded kernel calls read."""
    seen = []
    for arcs, _ in kernel_calls:
        if not any(np.shares_memory(arcs.indices, indices) for indices in seen):
            seen.append(arcs.indices)
    return len(seen)


def complete_dag(n):
    """Arcs from each vertex to every later one, each shorter than any two-arc path."""
    names = [f"w{i:02d}" for i in range(n)]
    return WeightedDigraph(
        (u, v, 1.0 + (j - i) / 16)
        for i, u in enumerate(names)
        for j, v in enumerate(names)
        if i < j
    )


class TestStackedKernel:
    """At most one kernel call computes the detour tables of a stack of centres.

    Each centre gets a disjoint copy of the graph with its arcs inflated, so
    every table must equal a heap Dijkstra on that centre's reweighted graph
    alone, with ``==``, whatever the stack it came from. A member row runs
    only when an arc out of the centre is tight from it; every other row is
    the all-pairs row, and a stack with no row to run makes no call.
    """

    # (vertices, centres per stack), min(V, DETOUR_VERTICES // V): several
    # copies with a short tail stack, 22 centres and a tail of 1 at 23
    # vertices, and every centre in one stack
    SHAPES = [(66, 7), (40, 12), (23, 22), (12, 12), (10, 10)]

    @pytest.mark.parametrize("n, copies", SHAPES)
    def test_one_kernel_call_per_stack(self, n, copies, kernel_calls):
        g = random_graph(random.Random(n), n, p=0.2)
        r = g.mean_pairwise_distance()
        ldc_vector(g, r)
        runs = [len(rows) for rows in oracles.rows_to_run(g, r).values()]
        per_stack = [sum(runs[i : i + copies]) for i in range(0, n, copies)]
        # the all-pairs table from every vertex of copy 0, then one call per stack
        assert sources_per_call(kernel_calls) == [n] + [count for count in per_stack if count]
        assert vertices_per_call(kernel_calls) == [copies * n] * len(kernel_calls)

    def test_a_stack_with_no_row_to_run_makes_no_call(self, kernel_calls):
        # nothing reaches the last vertex of a tie-heavy graph, so no arc out of it is tight
        g = tie_heavy_graph(random.Random(8), 66, p=0.15)
        last, r = g.vertices[-1], g.mean_pairwise_distance()
        del kernel_calls[:]
        assert build_context(g, last, r).members and kernel_calls == []
        assert_contexts_match_reference(g, r, [last])
        # one stack of eight centres whose members each reach every later vertex by a direct arc
        g = complete_dag(8)
        assert ldc_vector(g, math.inf).scores == dict.fromkeys(g.vertices, 0.0)
        assert_contexts_match_reference(g, math.inf, g.vertices)
        assert sources_per_call(kernel_calls) == [8]  # the all-pairs table

    def test_skipped_rows_on_the_hard_shapes_equal_the_reference(self):
        rng = random.Random(73)
        graphs = exact_sum_graphs(rng) + [tie_heavy_graph(rng, 66, p=0.15)]
        ran = members = 0
        for g in graphs:
            # a few centres of the 66-vertex graph suffice
            order = g.vertices if g.vertex_count < 66 else g.vertices[::9] + g.vertices[-1:]
            for r in (g.mean_pairwise_distance(), math.inf):
                scores = ldc_vector(g, r).scores
                for v in order:
                    ctx = build_context(g, v, r)
                    reference = oracles.reference_context(g, v, r)
                    assert oracles.context_rows(ctx) == reference, v
                    assert scores[v] == oracles.left_to_right_detour(reference), v
                    members += len(ctx.members)
                runs = oracles.rows_to_run(g, r)
                ran += sum(len(runs[v]) for v in order)
        assert 0 < ran < members / 2

    @pytest.mark.parametrize("n, copies", SHAPES)
    def test_one_csr_skeleton_per_graph(self, n, copies, kernel_calls):
        rng = random.Random(n)
        g = random_graph(rng, n, p=0.2)
        ldc_vector(g, g.mean_pairwise_distance())
        g.apsp().row(g.vertices[-1])
        assert index_structures(kernel_calls) == 1
        assert max(vertices_per_call(kernel_calls)) == copies * n
        # a chunk as large as the bound allows, of graphs of up to n vertices, builds one too
        size = min(n, math.isqrt(DETOUR_VERTICES))
        chunk = [random_graph(rng, size - i % 3, p=0.3)
                 for i in range(DETOUR_VERTICES // size ** 2)]
        del kernel_calls[:]
        ldc_vectors(chunk)
        assert len(kernel_calls) == 2 and index_structures(kernel_calls) == 1

    @pytest.mark.parametrize("n, copies", SHAPES)
    def test_every_stack_shape_equals_the_reference(self, n, copies):
        rng = random.Random(100 + n)
        for g in (random_graph(rng, n, p=0.15), tie_heavy_graph(rng, n, p=0.15)):
            # a few centres of the 66-vertex graphs suffice
            order = g.vertices if n < 66 else g.vertices[::13]
            for r in (g.mean_pairwise_distance(), math.inf):
                assert_contexts_match_reference(g, r, order)

    def test_zero_weight_and_edge_graphs_equal_the_reference(self):
        rng = random.Random(71)
        for g in kernel_edge_graphs(rng):
            for r in (rng.uniform(0.5, 4.0), math.inf):
                assert_contexts_match_reference(g, r, g.vertices)

    @pytest.mark.parametrize("n", [12, 40])
    def test_any_centre_order_gives_the_contexts_of_index_order(self, n):
        rng = random.Random(n)
        g = tie_heavy_graph(rng, n, p=0.2)
        r = g.mean_pairwise_distance()
        expected = {v: oracles.context_rows(build_context(g, v, r))[2] for v in g.vertices}
        shuffled = list(g.vertices)
        rng.shuffle(shuffled)
        for order in (g.vertices[::-1], shuffled):
            fresh = WeightedDigraph(g.arcs(), vertices=g.vertices)
            assert {v: oracles.context_rows(build_context(fresh, v, r))[2]
                    for v in order} == expected
        assert_contexts_match_reference(g, r, shuffled[:5])

    def test_a_second_threshold_recomputes_the_stack(self, kernel_calls):
        g = tie_heavy_graph(random.Random(5), 12, p=0.3)
        small, large = g.mean_pairwise_distance() / 2, math.inf
        first = g.vertices[0]
        for r in (small, large, small):
            del kernel_calls[:]
            ctx = build_context(g, first, r)
            assert vertices_per_call(kernel_calls) == [12 * 12]
            assert oracles.context_rows(ctx)[::2] == oracles.reference_context(g, first, r)[::2]
        assert len(build_context(g, first, large).members) > len(
            build_context(g, first, small).members)

    def test_threads_that_share_one_graph_get_the_sequential_scores(self):
        # nothing a kernel call reads may be written by another call on the same graph
        g = random_graph(random.Random(80), 80, p=0.2)
        r = g.mean_pairwise_distance()
        thresholds = (r, 0.8 * r) * 2
        expected = [ldc_vector(fresh(g), t).scores for t in thresholds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared, scores = fresh(g), [None] * len(thresholds)
                start = threading.Barrier(len(thresholds))

                def run(i):
                    start.wait()
                    scores[i] = ldc_vector(shared, thresholds[i]).scores

                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(len(thresholds))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert scores == expected
        finally:
            sys.setswitchinterval(interval)

    def test_pickled_graph_leaves_its_stack_behind(self):
        g = random_graph(random.Random(3), 10, p=0.4)
        scores = ldc_vector(g).scores
        assert g._stacks.current is not None
        assert "_stacks" not in g.__getstate__()
        copy = pickle.loads(pickle.dumps(g))
        assert not hasattr(copy._stacks, "current")
        assert ldc_vector(copy).scores == scores

    def test_threads_at_two_thresholds_keep_their_own_stacks(self, kernel_calls):
        # each thread keeps its own stack, so neither recomputes one the other evicted
        g = random_graph(random.Random(80), 80, p=0.2)
        r = g.mean_pairwise_distance()
        thresholds = (r, 0.8 * r)

        def calls(run):
            shared = fresh(g)
            shared.mean_pairwise_distance()
            del kernel_calls[:]
            run(shared)
            return sorted((arcs.shape, sources.tolist()) for arcs, sources in kernel_calls)

        def one_after_the_other(shared):
            for t in thresholds:
                ldc_vector(shared, t)

        def side_by_side(shared):
            start = threading.Barrier(len(thresholds))

            def run(t):
                start.wait()
                ldc_vector(shared, t)

            threads = [threading.Thread(target=run, args=(t,)) for t in thresholds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()

        expected = calls(one_after_the_other)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert calls(side_by_side) == expected
        finally:
            sys.setswitchinterval(interval)


class TestOneBound:
    """``DETOUR_VERTICES`` alone sets the skeleton of every detour call, graph or chunk.

    A call holds at most the bound while the union does; a graph above it is
    a chunk of one and runs one centre per call over all of its vertices.
    """

    def test_a_22_vertex_graph_is_laid_out_as_a_chunk_of_one(self, kernel_calls):
        g = random_graph(random.Random(22), 22, p=0.3)
        assert 22 ** 2 <= DETOUR_VERTICES < 23 ** 2
        calls = []
        for score in (lambda h: [ldc_vector(h)], lambda h: ldc_vectors([h])):
            del kernel_calls[:]
            calls.append((score(fresh(g)), vertices_per_call(kernel_calls),
                          [sources.tolist() for _, sources in kernel_calls]))
        assert calls[0] == calls[1]
        # the all-pairs table, then every centre's rows that ran in one call
        assert calls[0][1] == [22 * 22] * 2

    def test_a_graph_of_any_size_is_scored_as_a_chunk_of_one(self, kernel_calls):
        rng = random.Random(23)
        for n in list(range(2, 30)) + list(range(30, 81, 5)):
            g = random_graph(rng, n, p=rng.uniform(0.1, 0.5))
            calls = []
            for score in (lambda h: [ldc_vector(h)], lambda h: ldc_vectors([h])):
                del kernel_calls[:]
                calls.append((score(fresh(g)), vertices_per_call(kernel_calls),
                              [sources.tolist() for _, sources in kernel_calls]))
            assert calls[0] == calls[1], n

    def test_every_detour_call_holds_at_most_the_bound(self, kernel_calls):
        rng = random.Random(37)
        graphs = [random_graph(rng, n, p=rng.uniform(0.1, 0.5)) for n in range(2, 81, 3)]
        for g in graphs:
            n = g.vertex_count
            del kernel_calls[:]
            ldc_vector(g)
            copies = min(n, DETOUR_VERTICES // n)
            assert set(vertices_per_call(kernel_calls)[1:]) <= {copies * n}, n
        graphs += [tie_heavy_graph(rng, rng.randint(2, 22), p=0.3) for _ in range(20)]
        rng.shuffle(graphs)
        del kernel_calls[:]
        ldc_vectors(graphs)
        assert max(vertices_per_call(kernel_calls)) <= DETOUR_VERTICES

    def test_a_graph_above_the_bound_runs_one_centre_per_call_over_all_of_it(self, kernel_calls):
        component = random_graph(random.Random(520), 12, p=0.4)
        isolated = [f"x{i:03d}" for i in range(508)]
        g = WeightedDigraph(component.arcs(), vertices=component.vertices + tuple(isolated))
        assert g.vertex_count == 520 > DETOUR_VERTICES
        # a finite threshold: at r = inf an unreachable vertex is a member too, as inf <= inf
        scores = ldc_vector(g, 1e9).scores
        assert len(kernel_calls) > 2
        assert vertices_per_call(kernel_calls) == [520] * len(kernel_calls)
        alone = ldc_vector(component, 1e9).scores
        assert any(alone.values())
        assert scores == {**dict.fromkeys(isolated, 0.0), **alone}


def whole_table_score(ctx):
    """The detour score totalled over the whole member tables, every row counted."""
    k = len(ctx.members)
    if k == 0:
        return 0.0
    with_table, without_table = oracles.context_distances(ctx)
    counted = with_table != math.inf
    np.fill_diagonal(counted, False)
    totals = centrality_module._excess_totals(without_table, with_table, counted)
    return float(totals) / k


def star(leaves):
    """A hub with an arc to and from each leaf: from every leaf, an arc out of the hub is tight."""
    names = [f"leaf{j}" for j in range(leaves)]
    return WeightedDigraph([("hub", v, 1.0 + j / 4) for j, v in enumerate(names)]
                           + [(v, "hub", 0.5) for v in names])


class TestRowsThatRan:
    """A context holds only the member rows that ran, and the score totals only those.

    A row that did not run is the all-pairs row, so each of its excesses is
    0.0 and leaving it out changes no bit: every score must equal the total
    over the whole member tables and the pair-by-pair reference. The rows
    that ran, and the all-pairs table the others are read from, are read-only.
    """

    def assert_rows_that_ran(self, g, r):
        runs = oracles.rows_to_run(g, r)
        for v in g.vertices:
            ctx = build_context(g, v, r)
            reference = oracles.reference_context(g, v, r)
            assert oracles.context_rows(ctx) == reference, v
            assert [ctx.members[i] for i in ctx.ran.tolist()] == runs[v], v
            assert ctx.ran_rows.shape == (len(runs[v]), len(ctx.members))
            for table in (ctx.apsp, ctx.ran_rows):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[...] = 0.0
            score = ldc_from_context(ctx)
            assert score == whole_table_score(ctx) == oracles.left_to_right_detour(reference), v
        return runs

    def test_a_centre_with_no_members(self):
        g = WeightedDigraph([("a", "b", 5.0)], vertices=["lone"])
        ctx = build_context(g, "lone", 0.5)
        assert ctx.members == () and ctx.ran.size == 0
        assert ctx.ran_rows.shape == oracles.context_distances(ctx)[0].shape == (0, 0)
        assert ldc_from_context(ctx) == 0.0
        assert ldc_vector(g).scores["lone"] == 0.0
        # an infinite threshold takes in even the vertices it cannot reach
        for r in (0.5, math.inf):
            self.assert_rows_that_ran(g, r)

    def test_members_but_no_row_that_ran(self):
        g = complete_dag(8)
        for r in (g.mean_pairwise_distance(), math.inf):
            runs = self.assert_rows_that_ran(g, r)
            assert not any(runs.values())
            assert all(build_context(g, v, r).members for v in g.vertices)

    def test_every_row_ran(self):
        g = star(5)
        for r in (g.mean_pairwise_distance(), math.inf):
            self.assert_rows_that_ran(g, r)
            ctx = build_context(g, "hub", r)
            assert ctx.ran.tolist() == list(range(5))
            assert ldc_from_context(ctx) > 0.0

    def test_zero_weight_and_edge_graphs(self):
        rng = random.Random(97)
        graphs = kernel_edge_graphs(rng)
        assert any(g.arc_count and g.max_arc_weight == 0.0 for g in graphs)
        for g in graphs:
            thresholds = [rng.uniform(0.5, 4.0), math.inf]
            if g.vertex_count >= 2:
                thresholds.append(g.mean_pairwise_distance())
            for r in thresholds:
                self.assert_rows_that_ran(g, r)

    def test_an_infinite_threshold(self):
        rng = random.Random(101)
        ran = members = 0
        for g in (tie_heavy_graph(rng, 14, p=0.3), random_graph(rng, 12, p=0.3)):
            runs = self.assert_rows_that_ran(g, math.inf)
            scores = ldc_vector(g, math.inf).scores
            assert scores == {v: ldc_from_context(build_context(g, v, math.inf))
                              for v in g.vertices}
            ran += sum(map(len, runs.values()))
            members += sum(len(build_context(g, v, math.inf).members) for v in g.vertices)
        assert 0 < ran < members


class TestHundredsOfVertices:
    def test_a_zipf_cell_equals_the_reference_and_its_jobs_2_run(self):
        records = random_records(random.Random(1), n_subjects=1000, list_len=25, vocab_size=400,
                                 zipf=True)
        g = build_graph(encode(records), DistanceFunctionParams(3, 3))
        assert 250 <= g.vertex_count <= 300
        r = g.mean_pairwise_distance()
        scores = ldc_vector(g).scores
        assert ldc_vector(fresh(g), jobs=2).scores == scores
        # the three most frequent words, whose rows run, and the last vertex
        sampled = g.vertices[:3] + g.vertices[-1:]
        for v in sampled:
            assert scores[v] == oracles.left_to_right_ldc(g, v, r), v
        contexts = [build_context(g, v, r) for v in sampled]
        assert all(ctx.ran.size for ctx in contexts[:3])
        assert sum(ctx.ran.size for ctx in contexts) < sum(len(ctx.members) for ctx in contexts)


def draw_graphs(seed, count):
    """Permutation-draw graphs of criterion 8's shape: 25 ten-word records, ws=2, ms=3."""
    corpus = encode(random_records(random.Random(seed), n_subjects=25, list_len=10,
                                   vocab_size=10))
    graphs = (build_graph(shuffle_records(corpus, seed * 1000 + i), DistanceFunctionParams(2, 3))
              for i in range(count))
    return [g for g in graphs if g.vertex_count]


def fresh(graph):
    """The graph rebuilt from its arcs, with nothing cached."""
    return WeightedDigraph(graph.arcs(), vertices=graph.vertices)


class TestLdcVectors:
    """``ldc_vectors(graphs) == [ldc_vector(g) for g in graphs]``, float for float."""

    def assert_batch_equals_one_by_one(self, graphs):
        expected = [ldc_vector(fresh(g)) for g in graphs]
        assert ldc_vectors([fresh(g) for g in graphs]) == expected
        for g, vector in zip(graphs, expected):
            assert ldc_vectors([fresh(g)]) == [vector]

    def test_zero_weight_edge_and_exact_sum_graphs(self):
        rng = random.Random(79)
        graphs = kernel_edge_graphs(rng) + exact_sum_graphs(rng)
        # centres with no members and pairs reachable one way only are among them
        assert any(not build_context(g, v, g.mean_pairwise_distance()).members
                   for g in graphs for v in g.vertices)
        assert any(math.inf in g._apsp_table() for g in graphs)
        self.assert_batch_equals_one_by_one(graphs)

    def test_tie_heavy_and_random_graphs_up_to_40_vertices(self):
        rng = random.Random(83)
        graphs = [tie_heavy_graph(rng, n, p=rng.uniform(0.15, 0.5)) for n in range(3, 41, 3)]
        graphs += [random_graph(rng, n, p=rng.uniform(0.1, 0.6)) for n in range(2, 41, 2)]
        self.assert_batch_equals_one_by_one(graphs)

    def test_permutation_draw_graphs(self):
        self.assert_batch_equals_one_by_one(draw_graphs(3, 40) + draw_graphs(4, 40))

    def test_chunks_of_mixed_sizes_and_a_graph_above_the_bound(self):
        rng = random.Random(89)
        above = math.isqrt(DETOUR_VERTICES) + 1
        graphs = [tie_heavy_graph(rng, rng.randint(2, 24), p=0.3) for _ in range(30)]
        graphs.insert(12, random_graph(rng, above, p=0.2))
        assert sum(g.vertex_count ** 2 for g in graphs) > 3 * DETOUR_VERTICES
        self.assert_batch_equals_one_by_one(graphs)

    def test_a_chunk_makes_one_call_for_its_tables_and_one_for_its_detours(self, kernel_calls):
        graphs = draw_graphs(5, 12)[:3]
        sizes = [g.vertex_count for g in graphs]
        ldc_vectors(graphs)
        # every vertex of the padded union, then the rows that run
        assert len(kernel_calls) == 2
        assert sources_per_call(kernel_calls)[0] == len(graphs) * max(sizes)
        runs = sum(len(rows) for g in graphs
                   for rows in oracles.rows_to_run(g, g.mean_pairwise_distance()).values())
        assert sources_per_call(kernel_calls)[1] == runs
        # no arc out of any centre is tight, so no detour row runs
        del kernel_calls[:]
        scored = ldc_vectors([complete_dag(8), complete_dag(5)])
        assert sources_per_call(kernel_calls) == [16]
        assert scored == [ldc_vector(complete_dag(8)), ldc_vector(complete_dag(5))]

    @pytest.mark.parametrize("count, copies", [(20, 1), (10, 2)])
    def test_a_chunk_of_several_stacks(self, count, copies, kernel_calls):
        rng = random.Random(97 + count)
        graphs = [tie_heavy_graph(rng, 24, p=0.3)]
        graphs += [tie_heavy_graph(rng, rng.randint(12, 23), p=0.3) for _ in range(count - 3)]
        # a zero-weight arc and an isolated vertex among the middle graphs
        graphs[count // 2 : count // 2] = kernel_edge_graphs(rng)[12:14]
        assert len(graphs) == count and count * 24 <= DETOUR_VERTICES
        # the middle graphs hold arcs out of centres past the first stack
        assert all((g._tails >= copies).any() for g in graphs[1:-1])
        self.assert_batch_equals_one_by_one(graphs)
        runs = sum(len(rows) for g in graphs
                   for rows in oracles.rows_to_run(g, g.mean_pairwise_distance()).values())
        del kernel_calls[:]
        ldc_vectors([fresh(g) for g in graphs])
        # one union: its all-pairs table, then at most one call per stack of centres,
        # which runs only the rows that can differ from the all-pairs rows
        assert sources_per_call(kernel_calls)[0] == count * 24
        assert 2 < len(kernel_calls) <= 1 + math.ceil(24 / copies)
        assert vertices_per_call(kernel_calls) == [copies * count * 24] * len(kernel_calls)
        assert sum(sources_per_call(kernel_calls)[1:]) == runs

    def test_a_round_of_ten_vertex_draws_is_one_union(self, kernel_calls):
        graphs = [g for g in draw_graphs(6, 2 * PERMUTATION_BATCH) if g.vertex_count == 10]
        graphs = graphs[:PERMUTATION_BATCH]
        assert len(graphs) == PERMUTATION_BATCH
        ldc_vectors(graphs)
        # the all-pairs tables of all draws, then at most one call per centre index
        assert sources_per_call(kernel_calls)[0] == PERMUTATION_BATCH * 10
        assert len(kernel_calls) <= 1 + 10
        assert max(vertices_per_call(kernel_calls)) <= DETOUR_VERTICES

    def test_empty_input_and_rejected_graphs(self):
        assert ldc_vectors([]) == []
        with pytest.raises(EmptyGraph):
            ldc_vectors([complete_graph(4), WeightedDigraph()])
        with pytest.raises(EmptyGraph):
            ldc_vectors([complete_graph(4), WeightedDigraph(vertices=["lone"])])


class TestLdc:
    def test_complete_uniform_digraph_scores_zero(self):
        g = complete_graph(5)
        for v in g.vertices:
            assert ldc(g, v) == 0.0

    def test_cheap_detour_scores_below_expensive_detour(self):
        cheap = ldc(detour_toy(1.5), "A")
        expensive = ldc(detour_toy(3.0), "A")
        assert cheap < expensive

    def test_matches_matrix_materialization_oracle(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(5, 9), p=0.4)
            if g.vertex_count < 2 or g.arc_count == 0:
                continue
            r = g.mean_pairwise_distance()
            for v in g.vertices:
                assert ldc(g, v, r) == pytest.approx(
                    oracles.brute_ldc(g, v, r), abs=1e-10
                )
                checked += 1
        assert checked > 100

    def test_nonnegative(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_graph(rng, 8, p=0.35)
            if g.vertex_count < 2:
                continue
            r = g.mean_pairwise_distance()
            assert all(s >= 0.0 for s in ldc_vector(g, r).scores.values())

    def test_weight_scaling_scales_scores_linearly(self):
        rng = random.Random(41)
        g = random_graph(rng, 8, p=0.5)
        base = ldc_vector(g).scores
        for factor in (0.1, 3.0, 10.0):
            scaled = ldc_vector(scale_weights(g, factor)).scores
            for v, s in base.items():
                assert scaled[v] == pytest.approx(factor * s, rel=1e-9, abs=1e-12)
            order = sorted(base, key=lambda v: (base[v], v))
            scaled_order = sorted(scaled, key=lambda v: (scaled[v], v))
            assert order == scaled_order

    @pytest.mark.parametrize("n", [9, 30])  # one stack, and pieces of several stacks
    def test_parallel_matches_sequential_bitwise(self, n):
        rng = random.Random(43)
        g = random_graph(rng, n, p=0.5)
        sequential = ldc_vector(g, jobs=1).scores
        parallel = ldc_vector(g, jobs=2).scores
        assert sequential == parallel

    def test_empty_neighborhood_scores_zero(self):
        g = WeightedDigraph([("a", "b", 1.0)], vertices=["lone"])
        assert ldc(g, "lone") == 0.0

    def test_nan_threshold_raises(self):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            ldc_vector(complete_graph(4), math.nan)


class TestLeftToRightTotals:
    """Exact == against oracles that add one float at a time, in row-major order.

    A pairwise (``np.sum``) or compensated (``math.fsum``, builtin ``sum`` on
    Python 3.12) total differs from these in the last place on some graphs.
    """

    def test_ldc_vector_equals_left_to_right_sum_over_reference_context(self):
        largest = 0
        for g in exact_sum_graphs(random.Random(59)):
            r = oracles.left_to_right_mean_pairwise_distance(g)
            for threshold in (None, math.inf):
                expected = {
                    v: oracles.left_to_right_ldc(g, v, r if threshold is None else threshold)
                    for v in g.vertices
                }
                assert ldc_vector(g, threshold).scores == expected
            largest = max(largest, max(len(build_context(g, v, r).members) for v in g.vertices))
        assert largest >= 8

    def test_closeness_equals_left_to_right_oracle(self):
        for g in exact_sum_graphs(random.Random(61)):
            assert closeness(g).scores == oracles.left_to_right_closeness(g)

    def test_pagerank_equals_left_to_right_oracle(self):
        for g in exact_sum_graphs(random.Random(67)):
            assert pagerank(g).scores == oracles.left_to_right_pagerank(g)


class TestDegree:
    def test_star(self):
        g = WeightedDigraph([("c", f"x{i}", 1.0) for i in range(4)])
        assert degree(g, "out").scores["c"] == 4
        assert degree(g, "in").scores["c"] == 0
        assert degree(g, "in").scores["x0"] == 1

    def test_empty_graph_all_zero(self):
        g = WeightedDigraph(vertices=["a", "b", "c"])
        assert set(degree(g, "out").scores.values()) == {0.0}
        assert set(degree(g, "in").scores.values()) == {0.0}

    def test_matches_adjacency_counts(self):
        rng = random.Random(47)
        # kernel_edge_graphs add an isolated vertex, zero-weight arcs and one-way pairs
        for g in [random_graph(rng, 10, p=0.4)] + kernel_edge_graphs(rng):
            arcs = list(g.arcs())
            for v in g.vertices:
                assert degree(g, "out").scores[v] == sum(1 for u, _, _ in arcs if u == v)
                assert degree(g, "in").scores[v] == sum(1 for _, t, _ in arcs if t == v)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            degree(complete_graph(3), "sideways")


class TestCloseness:
    def test_complete_unit_digraph_all_one(self):
        for n in (3, 5):
            scores = closeness(complete_graph(n)).scores
            assert all(s == pytest.approx(1.0) for s in scores.values())

    def test_chain_start(self):
        g = WeightedDigraph([("a", "b", 1.0), ("b", "c", 1.0)])
        assert closeness(g).scores["a"] == pytest.approx(2 / 3)
        assert closeness(g).scores["c"] == 0.0

    def test_requires_two_vertices(self):
        with pytest.raises(EmptyGraph):
            closeness(WeightedDigraph(vertices=["a"]))

    def test_matches_ratio_oracle(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_graph(rng, 8, p=0.5)
            expected = oracles.brute_closeness(g)
            got = closeness(g).scores
            for v in g.vertices:
                assert got[v] == pytest.approx(expected[v], rel=1e-12, abs=1e-12)

    def test_scales_inversely_with_weights(self):
        rng = random.Random(59)
        g = random_graph(rng, 8, p=0.6)
        base = closeness(g).scores
        tripled = closeness(scale_weights(g, 3.0)).scores
        for v in g.vertices:
            assert tripled[v] == pytest.approx(base[v] / 3.0, rel=1e-12)


class TestTriangles:
    def test_directed_three_cycle(self):
        g = WeightedDigraph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        assert all(s == 1.0 for s in triangles(g).scores.values())

    def test_tree_has_none(self):
        g = WeightedDigraph([("r", "a", 1.0), ("r", "b", 1.0), ("a", "c", 1.0)])
        assert all(s == 0.0 for s in triangles(g).scores.values())

    def test_matches_triple_enumeration(self):
        rng = random.Random(61)
        for g in [random_graph(rng, 9, p=0.4) for _ in range(20)] + kernel_edge_graphs(rng):
            assert triangles(g).scores == oracles.brute_triangles(g)

    def test_invariant_under_weight_scaling(self):
        rng = random.Random(67)
        g = random_graph(rng, 8, p=0.5)
        assert triangles(g).scores == triangles(scale_weights(g, 7.0)).scores


class TestPagerank:
    def test_directed_ring_is_uniform(self):
        for n in (3, 6):
            names = [f"w{i:02d}" for i in range(n)]
            g = WeightedDigraph(
                [(names[i], names[(i + 1) % n], 1.0) for i in range(n)]
            )
            scores = pagerank(g).scores
            assert all(s == pytest.approx(1 / n, abs=1e-9) for s in scores.values())

    def test_single_vertex(self):
        g = WeightedDigraph(vertices=["only"])
        assert pagerank(g).scores["only"] == pytest.approx(1.0)

    def test_scores_sum_to_one(self):
        rng = random.Random(71)
        for _ in range(10):
            g = random_graph(rng, 12, p=0.3)
            assert sum(pagerank(g).scores.values()) == pytest.approx(1.0, abs=1e-8)

    def test_residual_of_normalized_update_is_tiny(self):
        rng = random.Random(73)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 20), p=0.3)
            scores = pagerank(g).scores
            assert oracles.pagerank_residual(g, scores, 0.85) < 1e-8

    def test_no_convergence_raises(self):
        # a 3-cycle fed by one arc barely damps at this alpha, so it oscillates
        g = WeightedDigraph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0), ("d", "a", 1.0)])
        with pytest.raises(NoConvergence, match="within 1000 iterations"):
            pagerank(g, PageRankParams(alpha=0.99999))


class TestBetweenness:
    def test_chain_middle(self):
        g = WeightedDigraph([("a", "b", 1.0), ("b", "c", 1.0)])
        scores = betweenness(g).scores
        assert scores == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_complete_unit_digraph_all_zero(self):
        for n in (4, 6):
            assert set(betweenness(complete_graph(n)).scores.values()) == {0.0}

    def test_requires_three_vertices(self):
        with pytest.raises(EmptyGraph):
            betweenness(WeightedDigraph([("a", "b", 1.0)]))

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(79)
        for _ in range(25):
            g = random_graph(rng, 8, p=0.4, weights="dyadic")
            expected = oracles.brute_betweenness(g)
            got = betweenness(g).scores
            for v in g.vertices:
                assert got[v] == pytest.approx(expected[v], abs=1e-9)

    def test_invariant_under_weight_scaling(self):
        rng = random.Random(83)
        g = random_graph(rng, 8, p=0.5, weights="dyadic")
        base = betweenness(g).scores
        scaled = betweenness(scale_weights(g, 4.0)).scores
        for v in g.vertices:
            assert scaled[v] == pytest.approx(base[v], abs=1e-9)


class TestComputeAll:
    def test_chain_composition(self):
        g = WeightedDigraph([("a", "b", 1.0), ("b", "c", 1.0)])
        table = compute_all(g)
        assert table["betweenness"].scores["b"] == 1.0
        assert table["out_degree"].scores["a"] == 1.0
        assert set(table["triangles"].scores.values()) == {0.0}

    def test_empty_vertex_set_raises(self):
        with pytest.raises(EmptyGraph):
            compute_all(WeightedDigraph())

    def test_columns_match_individual_operations(self):
        rng = random.Random(89)
        g = random_graph(rng, 9, p=0.5)
        table = compute_all(g)
        r = g.mean_pairwise_distance()
        assert table["ldc"].scores == ldc_vector(g, r).scores
        assert table["in_degree"].scores == degree(g, "in").scores
        assert table["out_degree"].scores == degree(g, "out").scores
        assert table["closeness"].scores == closeness(g).scores
        assert table["triangles"].scores == triangles(g).scores
        assert table["pagerank"].scores == pagerank(g).scores
        assert table["betweenness"].scores == betweenness(g).scores

    def test_measure_subset_keeps_requested_order(self):
        rng = random.Random(97)
        g = random_graph(rng, 7, p=0.5)
        table = compute_all(g, measures=("pagerank", "ldc"))
        assert list(table) == ["pagerank", "ldc"]
        full = compute_all(g)
        assert list(full) == list(MEASURES)
        assert table["ldc"].scores == full["ldc"].scores
        assert table["pagerank"].scores == full["pagerank"].scores

    def test_subset_without_ldc_accepts_empty_graph(self):
        table = compute_all(WeightedDigraph(), measures=("in_degree",))
        assert table["in_degree"].scores == {}


class TestWriteCentralityCsv:
    def test_bad_layout_leaves_destination_untouched(self, tmp_path):
        dest = tmp_path / "c.csv"
        dest.write_text("keep\n")
        table = compute_all(WeightedDigraph([("a", "b", 1.0)]), measures=("in_degree",))
        with pytest.raises(ValueError, match="layout"):
            write_centrality_csv(table, dest, layout="diagonal")
        assert dest.read_text() == "keep\n"
