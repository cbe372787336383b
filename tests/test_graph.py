import io
import math
import random
from pathlib import Path

import numpy as np
import pytest

import ldcnet
from ldcnet import WeightedDigraph
from ldcnet.centrality import build_context, closeness
from ldcnet.errors import EmptyGraph, MalformedLine, UnknownVertex
from ldcnet.graph import _radix_order

import oracles
from corpora import exact_sum_graphs, kernel_edge_graphs, random_graph


def chain_graph():
    return WeightedDigraph([("a", "b", 1.0), ("b", "c", 2.0)])


class TestConstruction:
    def test_rejects_self_arc(self):
        with pytest.raises(ValueError):
            WeightedDigraph([("a", "a", 1.0)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            WeightedDigraph([("a", "b", 1.0), ("a", "b", 2.0)])

    def test_rejects_negative_and_nonfinite_weights(self):
        with pytest.raises(ValueError):
            WeightedDigraph([("a", "b", -0.5)])
        with pytest.raises(ValueError):
            WeightedDigraph([("a", "b", math.inf)])

    @pytest.mark.parametrize("arcs, vertices", [
        ([("", "b", 1.0), ("b", "c", 2.0)], ()),
        ([("a", "", 1.0)], ()),
        ([("a", "b", 1.0)], ("",)),
    ], ids=["tail", "head", "isolated"])
    def test_rejects_empty_label(self, arcs, vertices):
        with pytest.raises(ValueError, match="empty vertex label"):
            WeightedDigraph(arcs, vertices=vertices)

    def test_asymmetric_weights_allowed(self):
        g = WeightedDigraph([("a", "b", 1.0), ("b", "a", 3.0)])
        assert oracles.arc_weight(g, "a", "b") == 1.0
        assert oracles.arc_weight(g, "b", "a") == 3.0

    def test_isolated_vertices_kept(self):
        g = WeightedDigraph([("a", "b", 1.0)], vertices=["z"])
        assert "z" in g
        assert g.vertex_count == 3

    def test_arc_readers_match_the_arcs_given(self):
        rng = random.Random(29)
        for base in kernel_edge_graphs(rng):
            given = list(base.arcs())
            rng.shuffle(given)
            g = WeightedDigraph(given, vertices=base.vertices)
            rank = {name: i for i, name in enumerate(sorted(g.vertices))}
            assert list(g.arcs()) == sorted(given, key=lambda a: (rank[a[0]], rank[a[1]]))
            assert g.arc_count == len(given)
            weights = {(u, v): w for u, v, w in given}
            for u in g.vertices:
                assert oracles.out_degree(g, u) == sum(1 for t, _ in weights if t == u)
                assert oracles.in_degree(g, u) == sum(1 for _, h in weights if h == u)
                for v in g.vertices:
                    assert oracles.arc_weight(g, u, v) == weights.get((u, v))


@pytest.mark.parametrize("bound", [1, 2**16, 2**16 + 1, 2**32 + 1])
def test_radix_order_is_the_stable_argsort(bound):
    rng = np.random.default_rng(bound)
    # few distinct keys, so most keys tie, with the largest key allowed among them
    values = np.append(rng.integers(0, bound, 12), bound - 1)
    for size in (0, 1, 2000):
        key = rng.choice(values, size)
        got = _radix_order(key, bound)
        assert got.dtype == np.intp
        assert got.tolist() == np.argsort(key, kind="stable").tolist()
        order = rng.permutation(size)
        expected = order[np.argsort(key[order], kind="stable")]
        assert _radix_order(key, bound, order).tolist() == expected.tolist()


def test_the_package_holds_one_shortest_path_kernel_call():
    # every shortest-path length goes through graph._kernel, the one csgraph call site
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(ldcnet.__file__).parent.glob("*.py")}
    assert {name: text.count("dijkstra(") for name, text in sources.items()
            if "dijkstra(" in text} == {"graph.py": 1}


class TestSssp:
    """Single-source rows of the all-pairs table, ``apsp().row``."""

    def test_chain_forward(self):
        assert chain_graph().apsp().row("a") == {"a": 0.0, "b": 1.0, "c": 3.0}

    def test_chain_no_incoming_reachability(self):
        assert chain_graph().apsp().row("c") == {"a": None, "b": None, "c": 0.0}

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            chain_graph().apsp().row("nope")

    def test_matches_floyd_warshall_on_random_graphs(self):
        for seed in range(50):
            rng = random.Random(seed)
            g = random_graph(rng, 10, p=0.3)
            fw = oracles.fw_distances(g)
            for u in g.vertices:
                row = g.apsp().row(u)
                for v in g.vertices:
                    expected = fw[(u, v)]
                    if expected == math.inf:
                        assert row[v] is None
                    else:
                        assert row[v] == pytest.approx(expected, abs=1e-12)

    def test_equals_heap_dijkstra_bit_for_bit(self):
        # exact ==: the kernel's floats are the reference's, not merely close;
        # V = 1, 2 and 11 stack V copies, 12 stacks 10, 64 stacks 2, 65 runs alone
        rng = random.Random(43)
        boundaries = [
            WeightedDigraph(random_graph(rng, n, p=min(1.0, 3.0 / n)).arcs(),
                            vertices=[f"w{i:02d}" for i in range(n)])
            for n in (1, 2, 11, 12, 64, 65)
        ]
        for g in kernel_edge_graphs(random.Random(41)) + boundaries:
            arcs = list(g.arcs())
            apsp = g.apsp()
            for u in g.vertices:
                ref = oracles.heap_dijkstra(g.vertices, arcs, u)
                expected = {v: (None if d == math.inf else d) for v, d in ref.items()}
                assert apsp.row(u) == expected

    def test_insertion_order_does_not_matter(self):
        arcs = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0), ("c", "d", 0.5)]
        g1 = WeightedDigraph(arcs)
        g2 = WeightedDigraph(list(reversed(arcs)))
        for v in g1.vertices:
            assert g1.apsp().row(v) == g2.apsp().row(v)

    def test_removing_an_arc_never_shortens_distances(self):
        rng = random.Random(99)
        for _ in range(20):
            g = random_graph(rng, 8, p=0.4)
            arcs = list(g.arcs())
            if not arcs:
                continue
            dropped = rng.choice(arcs)
            reduced = WeightedDigraph(
                [a for a in arcs if a != dropped], vertices=g.vertices
            )
            for u in g.vertices:
                full = g.apsp().row(u)
                partial = reduced.apsp().row(u)
                for v in g.vertices:
                    if partial[v] is None:
                        continue
                    assert full[v] is not None
                    assert full[v] <= partial[v] + 1e-12

    def test_every_finite_distance_has_a_witnessing_path(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(rng, 7, p=0.35, weights="dyadic")
            for u in g.vertices:
                row = g.apsp().row(u)
                for v in g.vertices:
                    if u == v or row[v] is None:
                        continue
                    paths = oracles.enumerate_shortest_paths(g, u, v)
                    assert paths, f"no path found for finite distance {u}->{v}"
                    # dyadic weights: the enumerated optimum is exact
                    cost = min(
                        sum(oracles.arc_weight(g, p[i], p[i + 1]) for i in range(len(p) - 1))
                        for p in paths
                    )
                    assert cost == row[v]


class TestDistanceMatrixInvariants:
    def test_zero_diagonal_and_triangle_inequality(self):
        rng = random.Random(11)
        g = random_graph(rng, 8, p=0.5)
        m = g.apsp()
        names = g.vertices
        for v in names:
            assert m.distance(v, v) == 0.0
        for a in names:
            for b in names:
                for c in names:
                    ab, bc, ac = m.distance(a, b), m.distance(b, c), m.distance(a, c)
                    if ab is not None and bc is not None:
                        assert ac is not None
                        assert ac <= ab + bc + 1e-12

    def test_distance_bounded_by_direct_arc(self):
        rng = random.Random(12)
        g = random_graph(rng, 8, p=0.5)
        m = g.apsp()
        for u, v, w in g.arcs():
            assert m.distance(u, v) <= w


class TestMeanPairwiseDistance:
    def test_two_cycle(self):
        g = WeightedDigraph([("a", "b", 1.0), ("b", "a", 1.0)])
        assert g.mean_pairwise_distance() == 1.0

    def test_complete_unit_digraph_on_four(self):
        names = ["a", "b", "c", "d"]
        g = WeightedDigraph([(u, v, 1.0) for u in names for v in names if u != v])
        assert g.mean_pairwise_distance() == 3.0

    def test_requires_two_vertices(self):
        with pytest.raises(EmptyGraph):
            WeightedDigraph(vertices=["a"]).mean_pairwise_distance()

    def test_empty_graph_has_an_empty_distance_matrix(self):
        g = WeightedDigraph()
        assert g.apsp().vertices == ()
        with pytest.raises(EmptyGraph):
            g.mean_pairwise_distance()
        with pytest.raises(EmptyGraph):
            closeness(g)

    def test_matches_brute_force(self):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            g = random_graph(rng, 8, p=0.35)
            assert g.mean_pairwise_distance() == pytest.approx(
                oracles.brute_threshold(g), rel=1e-12
            )

    def test_equals_left_to_right_sum_of_heap_dijkstra_rows(self):
        graphs = exact_sum_graphs(random.Random(71))
        assert any(g.vertex_count >= 12 for g in graphs)
        for g in graphs:
            expected = oracles.left_to_right_mean_pairwise_distance(g)
            assert g.mean_pairwise_distance() == expected


def neighborhood(graph, vertex, r):
    """The vertices within ``r`` of ``vertex`` either way, bar itself: its detour context's members."""
    return set(build_context(graph, vertex, r).members)


class TestLocalNeighborhood:
    def test_star_center(self):
        arcs = [("c", f"x{i}", 1.0) for i in range(4)]
        g = WeightedDigraph(arcs)
        assert neighborhood(g, "c", 1.0) == {"x0", "x1", "x2", "x3"}

    def test_isolated_vertex_has_empty_neighborhood(self):
        g = WeightedDigraph([("a", "b", 1.0)], vertices=["lone"])
        assert neighborhood(g, "lone", 100.0) == set()

    def test_matches_brute_force_both_directions(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph(rng, 9, p=0.3)
            r = rng.uniform(0.5, 6.0)
            for v in g.vertices:
                assert neighborhood(g, v, r) == oracles.brute_neighborhood(g, v, r)

    def test_nested_in_threshold(self):
        rng = random.Random(4)
        g = random_graph(rng, 9, p=0.4)
        for v in g.vertices:
            small = neighborhood(g, v, 1.0)
            large = neighborhood(g, v, 2.5)
            assert small <= large

    def test_rejects_negative_threshold(self):
        for r in (-1.0, math.nan):
            with pytest.raises(ValueError, match="threshold must be >= 0"):
                neighborhood(chain_graph(), "a", r)


class TestCsvRoundTrip:
    def test_round_trip_is_bit_exact(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_graph(rng, 8, p=0.4)
            buf = io.StringIO()
            g.to_csv(buf)
            text = buf.getvalue()
            g2 = WeightedDigraph.from_csv(io.StringIO(text))
            buf2 = io.StringIO()
            g2.to_csv(buf2)
            assert buf2.getvalue() == text
            assert list(g2.arcs()) == [a for a in g.arcs()]

    def test_any_constructible_graph_reads_back(self):
        labels = [" ", "a,b", 'say "hi"', "two\nlines", "ünï", "0"]
        g = WeightedDigraph(
            [(u, v, 0.1 * i) for i, (u, v) in enumerate(zip(labels, labels[1:] + labels[:1]))],
            vertices=["alone"],
        )
        buf = io.StringIO()
        g.to_csv(buf)
        back = WeightedDigraph.from_csv(io.StringIO(buf.getvalue()))
        # the CSV form holds arcs only, so an isolated vertex is not kept
        assert list(back.arcs()) == list(g.arcs())

    def test_header_enforced(self):
        with pytest.raises(MalformedLine):
            WeightedDigraph.from_csv(io.StringIO("a,b,c\nx,y,1\n"))

    def test_bad_rows_rejected_with_line_numbers(self):
        bad = "source,target,weight\nx,y,1.0\nx,y,2.0\n"
        with pytest.raises(MalformedLine) as err:
            WeightedDigraph.from_csv(io.StringIO(bad))
        assert err.value.line_no == 3
        with pytest.raises(MalformedLine):
            WeightedDigraph.from_csv(io.StringIO("source,target,weight\nx,x,1.0\n"))
        with pytest.raises(MalformedLine):
            WeightedDigraph.from_csv(io.StringIO("source,target,weight\nx,y,-2\n"))
        with pytest.raises(MalformedLine):
            WeightedDigraph.from_csv(io.StringIO("source,target,weight\nx,y,abc\n"))
