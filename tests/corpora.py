"""Random graph and synthetic corpus generators shared by the test modules."""

from ldcnet import FluencyRecord, WeightedDigraph
from ldcnet.corpus import CORPUS_CSV_HEADER
from ldcnet.textio import write_csv


def random_graph(rng, n, p=0.4, weights="uniform", max_weight=5.0):
    """Random digraph on w0..w{n-1}; arc probability p per ordered pair.

    ``weights`` is "uniform" for continuous weights in (0, max_weight] or
    "dyadic" for exact multiples of 1/16 (shortest-path sums stay exact,
    so tie detection is reproducible across algorithms).
    """
    names = [f"w{i:02d}" for i in range(n)]
    arcs = []
    for u in names:
        for v in names:
            if u == v or rng.random() >= p:
                continue
            if weights == "dyadic":
                w = rng.randrange(1, int(max_weight * 16) + 1) / 16.0
            else:
                w = max_weight * (1.0 - rng.random())
            arcs.append((u, v, w))
    return WeightedDigraph(arcs, vertices=names)


def kernel_edge_graphs(rng):
    """Random uniform-weight digraphs plus the shapes a shortest-path kernel can get wrong.

    The extra graphs hold a zero-weight arc, only zero-weight arcs (so the
    maximum arc weight is 0), an isolated vertex, and a pair reachable one
    way only.
    """
    graphs = [random_graph(rng, rng.randint(4, 10), p=rng.uniform(0.15, 0.5)) for _ in range(12)]
    base = random_graph(rng, 8, p=0.35)
    zero = (base.vertices[0], base.vertices[1], 0.0)
    arcs = [a for a in base.arcs() if a[:2] != zero[:2]] + [zero]
    graphs.append(WeightedDigraph(arcs, vertices=base.vertices))
    graphs.append(WeightedDigraph(
        [("a", "b", 0.0), ("b", "c", 0.0), ("c", "a", 0.0), ("c", "d", 0.0)], vertices=["e"]
    ))
    graphs.append(WeightedDigraph(random_graph(rng, 6, p=0.5).arcs(), vertices=["lone"]))
    graphs.append(WeightedDigraph(
        [("a", "b", 1.5), ("b", "c", 0.25), ("c", "d", 2.0), ("a", "d", 4.0), ("d", "b", 3.0)]
    ))
    return graphs


def tie_heavy_graph(rng, n, p=0.45):
    """Random digraph on w0..w{n-1} whose float sums tie, repeat and round.

    Half the weights come from a small set holding 0.0, 0.1, 0.3 and repeated
    values, the rest are uniform in (0, 5]; the two arcs of a pair are drawn
    independently, so many are one-way or differ in weight. No arc enters
    the last vertex, so nothing else reaches it.
    """
    names = [f"w{i:02d}" for i in range(n)]
    arcs = []
    for u in names:
        for v in names[:-1]:
            if u == v or rng.random() >= p:
                continue
            if rng.random() < 0.5:
                w = rng.choice((0.0, 0.1, 0.3, 0.5, 1.0, 1.0, 2.0))
            else:
                w = 5.0 * (1.0 - rng.random())
            arcs.append((u, v, w))
    return WeightedDigraph(arcs, vertices=names)


def exact_sum_graphs(rng):
    """:func:`kernel_edge_graphs` plus twelve :func:`tie_heavy_graph` of 9-14 vertices."""
    return kernel_edge_graphs(rng) + [tie_heavy_graph(rng, rng.randint(9, 14)) for _ in range(12)]


def complete_graph(n, weight=1.0):
    names = [f"w{i:02d}" for i in range(n)]
    return WeightedDigraph(
        [(u, v, weight) for u in names for v in names if u != v]
    )


def scale_weights(graph, factor):
    return WeightedDigraph(
        [(u, v, w * factor) for u, v, w in graph.arcs()], vertices=graph.vertices
    )


def make_record(subject, words, onsets=None):
    if onsets is None:
        onsets = [float(i + 1) for i in range(len(words))]
    return FluencyRecord(subject, tuple(zip(words, onsets)))


def random_records(rng, n_subjects=25, list_len=10, vocab_size=10, zipf=False):
    """Corpus of i.i.d. word draws with strictly increasing onsets.

    With ``zipf`` the draw weights follow 1/rank, so word frequency varies
    across the vocabulary.
    """
    vocab = [f"v{i:02d}" for i in range(vocab_size)]
    if zipf:
        cum = []
        total = 0.0
        for i in range(vocab_size):
            total += 1.0 / (i + 1)
            cum.append(total)
    records = []
    for s in range(n_subjects):
        words = []
        for _ in range(list_len):
            if zipf:
                x = rng.uniform(0.0, cum[-1])
                idx = next(i for i, c in enumerate(cum) if x <= c)
                words.append(vocab[idx])
            else:
                words.append(rng.choice(vocab))
        t = 0.0
        onsets = []
        for _ in words:
            t += rng.uniform(0.5, 2.0)
            onsets.append(t)
        records.append(FluencyRecord(f"s{s:03d}", tuple(zip(words, onsets))))
    return records


def ragged_records(rng, n_subjects, max_len, vocab_size):
    """Random records cut to lengths 0..max_len, so some are empty and lengths differ.

    A small ``vocab_size`` makes words repeat within a record.
    """
    records = random_records(rng, n_subjects, max_len, vocab_size)
    return [
        FluencyRecord(r.subject_id, r.entries[: rng.randint(0, max_len)]) for r in records
    ]


def boundary_records():
    """Four identical two-word subjects: the strict |P| > ms boundary fixture."""
    return [
        make_record(f"s{i}", ["cat", "dog"], [0.0, 1.0]) for i in range(4)
    ]


def emit_corpus(records, dest):
    """Write records as transcript CSV, a path or an open handle; onsets keep full precision.

    Onsets are written with ``repr``, so parsing the output gives back the
    records bit for bit. A record with no entries writes no row.
    """
    rows = ((record.subject_id, word, repr(onset))
            for record in records for word, onset in record.entries)
    write_csv(dest, CORPUS_CSV_HEADER, rows)
