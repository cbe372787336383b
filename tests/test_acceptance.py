"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; the data-scale
criteria use frozen seeds so the whole suite is deterministic.
"""

import os
import random
import time

import pytest

from ldcnet import (
    DistanceFunctionParams,
    PermutationConfig,
    WeightedDigraph,
    build_graph,
    compute_all,
    covariates,
    ldc,
    ldc_vector,
    pagerank,
    permutation_test,
    spearman,
)
from ldcnet.cli import main
from ldcnet.errors import LdcnetError, UndefinedActualCorrelation
from ldcnet.manifest import load_manifest
from ldcnet.stats import derive_seed, grid_sweep, table_entry

import oracles
from corpora import (
    complete_graph,
    emit_corpus,
    make_record,
    random_graph,
    random_records,
    scale_weights,
)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:>2} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_01_ldc_oracle_equivalence():
    started = time.time()
    rng = random.Random(1001)
    graphs = 0
    worst = 0.0
    while graphs < 200:
        n = rng.randint(5, 9)
        g = random_graph(rng, n, p=0.45)
        if g.arc_count == 0:
            continue
        graphs += 1
        r = g.mean_pairwise_distance()
        for v in g.vertices:
            got = ldc(g, v, r)
            expected = oracles.brute_ldc(g, v, r)
            worst = max(worst, abs(got - expected))
    elapsed = time.time() - started
    _report(
        1,
        "ldc oracle equivalence",
        worst <= 1e-9 and elapsed < 60.0,
        f"max |diff| = {worst:.2e} over 200 graphs in {elapsed:.1f}s",
    )


def test_criterion_02_toy_detour_ordering():
    def toy(detour_cost):
        return WeightedDigraph(
            [
                ("B", "A", 1.0),
                ("A", "C", 1.0),
                ("B", "D", detour_cost),
                ("D", "C", detour_cost),
            ]
        )

    cheap = ldc(toy(1.5), "A")
    expensive = ldc(toy(3.0), "A")
    _report(
        2,
        "toy detour ordering",
        cheap < expensive,
        f"cheap-detour {cheap:.6g} < expensive-detour {expensive:.6g}",
    )


def test_criterion_03_baseline_oracles():
    started = time.time()
    rng = random.Random(3003)
    worst = {"betweenness": 0.0, "closeness": 0.0, "triangles": 0.0, "pagerank": 0.0}
    graphs = 0
    while graphs < 100:
        n = rng.randint(4, 8)
        g = random_graph(rng, n, p=0.4, weights="dyadic")
        if g.vertex_count < 3:
            continue
        graphs += 1
        table = compute_all(g)
        expected_b = oracles.brute_betweenness(g)
        expected_c = oracles.brute_closeness(g)
        expected_t = oracles.brute_triangles(g)
        for v in g.vertices:
            worst["betweenness"] = max(
                worst["betweenness"], abs(table["betweenness"].scores[v] - expected_b[v])
            )
            worst["closeness"] = max(
                worst["closeness"], abs(table["closeness"].scores[v] - expected_c[v])
            )
            worst["triangles"] = max(
                worst["triangles"], abs(table["triangles"].scores[v] - expected_t[v])
            )
        worst["pagerank"] = max(
            worst["pagerank"], oracles.pagerank_residual(g, table["pagerank"].scores, 0.85)
        )
    elapsed = time.time() - started
    ok = (
        worst["betweenness"] <= 1e-9
        and worst["closeness"] <= 1e-9
        and worst["triangles"] == 0.0
        and worst["pagerank"] < 1e-8
        and elapsed < 120.0
    )
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    _report(3, "baseline oracles", ok, detail)


def test_criterion_04_complete_graph_null():
    ok = True
    for n in range(4, 9):
        g = complete_graph(n)
        scores = ldc_vector(g).scores
        table = compute_all(g)
        if any(s != 0.0 for s in scores.values()):
            ok = False
        if any(s != 0.0 for s in table["betweenness"].scores.values()):
            ok = False
    _report(4, "complete-graph null", ok, "ldc and betweenness exactly 0 for n=4..8")


def test_criterion_05_scaling_law():
    rng = random.Random(5005)
    ok = True
    details = []
    for trial in range(5):
        g = random_graph(rng, rng.randint(6, 9), p=0.5)
        if g.arc_count == 0:
            continue
        base = ldc_vector(g).scores
        base_order = sorted(base, key=lambda v: (base[v], v))
        for factor in (0.1, 3.0, 10.0):
            scaled = ldc_vector(scale_weights(g, factor)).scores
            for v, s in base.items():
                expected = factor * s
                err = abs(scaled[v] - expected) / expected if expected != 0.0 else abs(scaled[v])
                if err > 1e-9:
                    ok = False
                    details.append(f"trial {trial} c={factor} {v}: rel err {err:.2e}")
            scaled_order = sorted(scaled, key=lambda v: (scaled[v], v))
            if scaled_order != base_order:
                ok = False
                details.append(f"trial {trial} c={factor}: rank order changed")
    _report(5, "scaling law", ok, "; ".join(details) or "c in {0.1, 3, 10}")


def test_criterion_06_distance_function_boundary():
    records = [make_record(f"s{i}", ["cat", "dog"], [0.0, 1.0]) for i in range(4)]
    with_arc = build_graph(records, DistanceFunctionParams(ws=1, ms=3))
    without_arc = build_graph(records, DistanceFunctionParams(ws=1, ms=4))
    ok = (
        list(with_arc.arcs()) == [("cat", "dog", 0.5)]
        and without_arc.vertex_count == 0
    )
    _report(6, "distance-function boundary", ok, "ms=3 gives weight 0.5, ms=4 gives no arc")


def test_criterion_07_grid_shape(tmp_path):
    rng = random.Random(7007)
    records = random_records(rng, n_subjects=25, list_len=10, vocab_size=10)
    corpus = tmp_path / "corpus.csv"
    emit_corpus(records, corpus)
    out = tmp_path / "grid"
    code = main(["sweep", str(corpus), "--grid", "paper", "-o", str(out)])
    with open(out / "grid_summary.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    header = rows[0].split(",")
    cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
    ok = code == 0 and len(cells) == 90
    by_ws = {}
    for cell in cells:
        by_ws.setdefault(int(cell["ws"]), []).append((int(cell["ms"]), int(cell["n_vertices"])))
    for ws, row in by_ws.items():
        counts = [n for _, n in sorted(row)]
        if counts != sorted(counts, reverse=True):
            ok = False
    _report(7, "grid shape", ok, f"{len(cells)} cells, vertex count non-increasing in ms")


def test_criterion_08_permutation_calibration():
    started = time.time()
    base = 20260809
    trials = 200
    hits = 0
    undefined = 0
    for trial in range(trials):
        rng = random.Random(derive_seed(base, "corpus", trial))
        records = random_records(rng, n_subjects=25, list_len=10, vocab_size=10)
        config = PermutationConfig(
            ws=2, ms=3, target="dt_from", repetitions=200,
            seed=derive_seed(base, "perm", trial),
        )
        try:
            outcome = permutation_test(records, config)
        except UndefinedActualCorrelation:
            undefined += 1
            continue
        if outcome.p_value <= 0.05:
            hits += 1
    elapsed = time.time() - started
    fraction = hits / trials
    ok = abs(fraction - 0.05) <= 0.03 and undefined == 0 and elapsed < 600.0
    _report(
        8,
        "permutation calibration",
        ok,
        f"p<=0.05 in {fraction:.3f} of {trials} trials, {elapsed:.0f}s",
    )


def test_criterion_09_degree_frequency_coupling():
    base = 424242
    wins = 0
    comparisons = 0
    for trial in range(50):
        rng = random.Random(derive_seed(base, "zipf", trial))
        records = random_records(
            rng, n_subjects=100, list_len=12, vocab_size=20, zipf=True
        )
        try:
            graph = build_graph(records, DistanceFunctionParams(2, 3))
            table = compute_all(graph)
            stats = covariates(records)
            words = graph.vertices
            log_freq = [stats[w].log_frequency for w in words]
            rho_degree = spearman(
                [table["out_degree"].scores[w] for w in words], log_freq
            )
            rho_ldc = spearman([table["ldc"].scores[w] for w in words], log_freq)
        except LdcnetError as exc:
            pytest.fail(f"corpus {trial} failed: {exc}")
        comparisons += 1
        if rho_degree > rho_ldc:
            wins += 1
    ok = comparisons == 50 and wins >= 45
    _report(
        9,
        "degree-frequency coupling",
        ok,
        f"degree beat ldc in {wins}/50 frequency-weighted corpora",
    )


def test_criterion_10_released_corpus_reproduction():
    path = os.environ.get("LDC_OSF_CORPUS")
    if not path:
        print("[acceptance] criterion 10 released-corpus reproduction: SKIP "
              "(set LDC_OSF_CORPUS to the released corpus file)")
        pytest.skip("LDC_OSF_CORPUS not set")
    from ldcnet import load_corpus

    input_format = "osf-json" if path.endswith(".json") else "csv"
    records = load_corpus(path, input_format)
    cells = grid_sweep(records)
    degree_rhos = []
    ldc_rhos = []
    for cell in cells:
        if cell.status != "ok":
            continue
        deg = table_entry(cell, "out_degree", "log_frequency")
        ld = table_entry(cell, "ldc", "log_frequency")
        if deg is not None:
            degree_rhos.append(deg.rho)
        if ld is not None:
            ldc_rhos.append(ld.rho)
    mean_degree = sum(degree_rhos) / len(degree_rhos)
    mean_ldc = sum(ldc_rhos) / len(ldc_rhos)
    ok = mean_degree >= 0.95 and abs(mean_ldc - 0.58) <= 0.20
    _report(
        10,
        "released-corpus reproduction",
        ok,
        f"mean degree rho {mean_degree:.3f}, mean ldc rho {mean_ldc:.3f}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    rng = random.Random(1111)
    records = random_records(rng, n_subjects=25, list_len=10, vocab_size=10)
    corpus = tmp_path / "corpus.csv"
    emit_corpus(records, corpus)
    ok = True
    details = []

    # three consecutive seeded permtest runs must be byte-identical
    reports = []
    for i in range(3):
        out = tmp_path / f"perm{i}.json"
        code = main(["permtest", str(corpus), "--ws", "2", "--ms", "3",
                     "--n", "30", "--seed", "7", "-o", str(out)])
        if code != 0:
            ok = False
            details.append(f"permtest run {i} exited {code}")
        with open(out, "rb") as fh:
            reports.append(fh.read())
    if len(set(reports)) != 1:
        ok = False
        details.append("permtest bytes differ across runs")

    # three consecutive build runs
    digests = []
    for i in range(3):
        out = tmp_path / f"graph{i}.csv"
        main(["build", str(corpus), "--ws", "2", "--ms", "3", "-o", str(out)])
        digests.append(tuple(load_manifest(f"{out}.manifest.json")["outputs"].values()))
    if len(set(digests)) != 1:
        ok = False
        details.append("build digests differ across runs")

    # sweep with 1 worker vs 8 workers
    sweep_digests = []
    for jobs in ("1", "8", "1"):
        out = tmp_path / f"sweep_j{jobs}_{len(sweep_digests)}"
        main(["sweep", str(corpus), "--grid", "ws=1..3,ms=3..5", "--jobs", jobs,
              "--seed", "7", "-o", str(out)])
        sweep_digests.append(
            tuple(sorted(load_manifest(out / "manifest.json")["outputs"].items()))
        )
    if len(set(sweep_digests)) != 1:
        ok = False
        details.append("sweep digests differ between --jobs 1 and --jobs 8")

    _report(11, "cli determinism", ok, "; ".join(details) or
            "3 reruns and jobs 1 vs 8 byte-identical")
