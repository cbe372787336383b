import itertools
import json
import random
import subprocess
import sys

import pytest

import ldcnet.centrality
import ldcnet.cli
import ldcnet.manifest
import ldcnet.stats
from ldcnet.cli import main
from ldcnet.graph import WeightedDigraph
from ldcnet.errors import (
    EmptyGraph,
    MalformedLine,
    NoConvergence,
    NonMonotoneTimestamp,
    NoRecords,
    UndefinedActualCorrelation,
)
from ldcnet.manifest import load_manifest

from corpora import boundary_records, random_graph, random_records, write_corpus_csv


@pytest.fixture
def boundary_corpus(tmp_path):
    path = tmp_path / "corpus.csv"
    write_corpus_csv(boundary_records(), path)
    return str(path)


@pytest.fixture
def rich_corpus(tmp_path):
    rng = random.Random(7)
    records = random_records(rng, n_subjects=25, list_len=10, vocab_size=10)
    path = tmp_path / "rich.csv"
    write_corpus_csv(records, path)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestBuild:
    def test_boundary_fixture_builds_one_arc_graph(self, boundary_corpus, tmp_path):
        out = tmp_path / "graph.csv"
        assert main(["build", boundary_corpus, "--ws", "1", "--ms", "3", "-o", str(out)]) == 0
        assert read(out) == b"source,target,weight\ncat,dog,0.5\n"
        manifest = load_manifest(f"{out}.manifest.json")
        assert manifest["command"] == "build"
        assert "graph.csv" in next(iter(manifest["outputs"]))

    def test_ms_above_subject_count_exits_3(self, boundary_corpus, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert main(["build", boundary_corpus, "--ws", "1", "--ms", "4", "-o", str(out)]) == 3
        assert "empty graph" in capsys.readouterr().err

    def test_byte_identical_reruns(self, rich_corpus, tmp_path):
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        main(["build", rich_corpus, "--ws", "2", "--ms", "3", "-o", str(out1)])
        main(["build", rich_corpus, "--ws", "2", "--ms", "3", "-o", str(out2)])
        assert read(out1) == read(out2)
        d1 = load_manifest(f"{out1}.manifest.json")["outputs"]
        d2 = load_manifest(f"{out2}.manifest.json")["outputs"]
        assert list(d1.values()) == list(d2.values())

    def test_missing_corpus_exits_2(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.csv"), "--ws", "1", "--ms", "3",
                     "-o", str(tmp_path / "g.csv")]) == 2

    def test_malformed_corpus_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,word,onset_seconds\ns1,cat,notanumber\n")
        assert main(["build", str(bad), "--ws", "1", "--ms", "3",
                     "-o", str(tmp_path / "g.csv")]) == 2

    def test_latin1_corpus_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("subject,word,onset_seconds\ns1,café,1.0\n".encode("latin-1"))
        assert main(["build", str(bad), "--ws", "1", "--ms", "3",
                     "-o", str(tmp_path / "g.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_corpus_path_below_a_file_exits_2(self, boundary_corpus, tmp_path):
        assert main(["build", f"{boundary_corpus}/x", "--ws", "1", "--ms", "3",
                     "-o", str(tmp_path / "g.csv")]) == 2

    def test_empty_corpus_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("subject,word,onset_seconds\n")
        assert main(["build", str(empty), "--ws", "1", "--ms", "3",
                     "-o", str(tmp_path / "g.csv")]) == 3
        assert "zero records" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"s1": {"words": ["cat", "dog"], "timestamps": [0.0, 1.0]',
        '{"s1": {"words": ["cat", "dog"], "timestamps": [0.0, "x"]}}',
        '{"s1": {"words": ["cat", "dog"], "timestamps": [0.0, null]}}',
        '{"s1": {"words": "ab", "timestamps": [0.0, 1.0]}}',
        '{"s1": {"words": ["cat", "dog"], "timestamps": [0.0, true]}}',
        '{"s1": {"words": ["cat", null], "timestamps": [0.0, 1.0]}}',
        '{"s1": {"words": ["cat", 3], "timestamps": [0.0, 1.0]}}',
        '{"s1": {"words": ["cat", ["x"]], "timestamps": [0.0, 1.0]}}',
    ],
    ids=["truncated", "string-timestamp", "null-timestamp", "words-not-a-list",
         "bool-timestamp", "null-word", "number-word", "list-word"],
)
def test_malformed_osf_json_exits_2(text, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(text)
    assert main(["build", str(corpus), "--input-format", "osf-json", "--ws", "1",
                 "--ms", "1", "-o", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "line " in err


@pytest.fixture
def chain_graph_csv(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("source,target,weight\na,b,1.0\nb,c,1.0\n")
    return str(path)


class TestCentrality:
    def test_betweenness_row(self, chain_graph_csv, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["centrality", chain_graph_csv, "--measure", "betweenness",
                     "-o", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert lines[0] == "word,betweenness"
        assert "b,1" in lines

    def test_unknown_measure_exits_1(self, chain_graph_csv, tmp_path, capsys):
        code = main(["centrality", chain_graph_csv, "--measure", "sideways",
                     "-o", str(tmp_path / "c.csv")])
        assert code == 1
        assert "unknown measure" in capsys.readouterr().err

    def test_all_equals_concatenated_single_measure_runs(self, chain_graph_csv, tmp_path):
        wide = tmp_path / "all.csv"
        main(["centrality", chain_graph_csv, "--measure", "all", "-o", str(wide)])
        header, *rows = read(wide).decode().splitlines()
        columns = header.split(",")
        table = {row.split(",")[0]: dict(zip(columns[1:], row.split(",")[1:])) for row in rows}
        for measure in columns[1:]:
            single = tmp_path / f"{measure}.csv"
            main(["centrality", chain_graph_csv, "--measure", measure, "-o", str(single)])
            for row in read(single).decode().splitlines()[1:]:
                word, value = row.split(",")
                assert table[word][measure] == value

    def test_long_layout_and_json_format(self, chain_graph_csv, tmp_path):
        long_out = tmp_path / "long.csv"
        main(["centrality", chain_graph_csv, "--layout", "long", "-o", str(long_out)])
        lines = read(long_out).decode().splitlines()
        assert lines[0] == "word,measure,value"
        assert any(line.startswith("b,betweenness,") for line in lines)
        json_out = tmp_path / "c.json"
        main(["centrality", chain_graph_csv, "--format", "json", "-o", str(json_out)])
        payload = json.loads(read(json_out))
        assert payload["b"]["betweenness"] == 1.0

    def test_malformed_graph_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("source,target,weight\nx,x,1.0\n")
        assert main(["centrality", str(bad), "-o", str(tmp_path / "c.csv")]) == 2

    def test_latin1_graph_exits_2(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("source,target,weight\ncafé,dog,1.0\n".encode("latin-1"))
        assert main(["centrality", str(bad), "-o", str(tmp_path / "c.csv")]) == 2

    def test_graph_too_small_for_measure_exits_3(self, tmp_path, capsys):
        graph = tmp_path / "one_arc.csv"
        graph.write_text("source,target,weight\ncat,dog,0.5\n")
        out = tmp_path / "c.csv"
        assert main(["centrality", str(graph), "--measure", "betweenness",
                     "-o", str(out)]) == 3
        assert "ldcnet: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_measure_selection_exits_1_before_reading(self, fmt, tmp_path, capsys):
        out = tmp_path / "c.out"
        code = main(["centrality", str(tmp_path / "absent.csv"), "--measure", "",
                     "--format", fmt, "-o", str(out)])
        assert code == 1
        assert "no measures" in capsys.readouterr().err
        assert not out.exists()

    def test_subset_passes_jobs_to_ldc(self, chain_graph_csv, tmp_path, monkeypatch):
        seen = []
        original = ldcnet.centrality.ldc_vector

        def spy(graph, r=None, jobs=1):
            seen.append(jobs)
            return original(graph, r, jobs=jobs)

        monkeypatch.setattr(ldcnet.centrality, "ldc_vector", spy)
        assert main(["centrality", chain_graph_csv, "--measure", "ldc", "--jobs", "2",
                     "-o", str(tmp_path / "c.csv")]) == 0
        assert seen == [2]

    def test_jobs_4_writes_the_bytes_of_jobs_1(self, tmp_path):
        graph = tmp_path / "g.csv"
        random_graph(random.Random(73), 48, p=0.15).to_csv(graph)
        tables = []
        for jobs in ("1", "4"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(["centrality", str(graph), "--jobs", jobs, "-o", str(out)]) == 0
            tables.append(read(out))
        assert tables[0] == tables[1]

    def test_pagerank_without_convergence_exits_4(self, tmp_path, capsys):
        graph = tmp_path / "cycle.csv"
        graph.write_text("source,target,weight\na,b,1.0\nb,c,1.0\nc,a,1.0\nd,a,1.0\n")
        code = main(["centrality", str(graph), "--measure", "pagerank", "--alpha", "0.99999",
                     "-o", str(tmp_path / "c.csv")])
        assert code == 4
        assert "did not converge" in capsys.readouterr().err

    def test_verbose_prints_raw_pagerank_update(self, chain_graph_csv, tmp_path, capsys):
        main(["centrality", chain_graph_csv, "--measure", "pagerank", "--verbose",
              "-o", str(tmp_path / "c.csv")])
        out = capsys.readouterr().out
        assert "raw update" in out
        assert "iterations" in out

    @pytest.mark.parametrize("measure", ["pagerank", "all", "closeness,pagerank"])
    def test_verbose_iterates_pagerank_once(self, chain_graph_csv, tmp_path, monkeypatch,
                                           measure):
        original = ldcnet.centrality._pagerank_iterate
        calls = []

        def spy(graph, params):
            calls.append(params)
            return original(graph, params)

        monkeypatch.setattr(ldcnet.centrality, "_pagerank_iterate", spy)
        assert main(["centrality", chain_graph_csv, "--measure", measure, "--verbose",
                     "-o", str(tmp_path / "c.csv")]) == 0
        assert len(calls) == 1


class TestSweep:
    def test_paper_grid_emits_90_rows(self, boundary_corpus, tmp_path):
        out = tmp_path / "grid"
        assert main(["sweep", boundary_corpus, "--grid", "paper", "-o", str(out)]) == 0
        rows = read(out / "grid_summary.csv").decode().splitlines()
        assert len(rows) == 1 + 90

    def test_custom_grid_two_rows(self, rich_corpus, tmp_path):
        out = tmp_path / "grid2"
        assert main(["sweep", rich_corpus, "--grid", "ws=1..2,ms=3", "-o", str(out)]) == 0
        rows = read(out / "grid_summary.csv").decode().splitlines()
        assert len(rows) == 1 + 2

    def test_all_cells_failing_exits_3(self, boundary_corpus, tmp_path):
        # a 2-vertex graph cannot support betweenness, so both cells error out
        out = tmp_path / "grid3"
        assert main(["sweep", boundary_corpus, "--grid", "ws=1..2,ms=3", "-o", str(out)]) == 3
        rows = read(out / "grid_summary.csv").decode().splitlines()
        assert len(rows) == 1 + 2
        assert all("error" in row for row in rows[1:])

    def test_bad_grid_spec_exits_1(self, boundary_corpus, tmp_path):
        assert main(["sweep", boundary_corpus, "--grid", "bogus",
                     "-o", str(tmp_path / "g")]) == 1

    @pytest.mark.parametrize("bad", [
        ["--alpha", "1.5"], ["--grid", "ws=0,ms=3"], ["--grid", "ws=1,ws=2,ms=3"],
    ])
    def test_usage_error_leaves_the_output_directory_alone(self, rich_corpus, tmp_path, bad):
        out = tmp_path / "kept"
        grid = ["--grid", "ws=1..2,ms=3"]
        assert main(["sweep", rich_corpus, *grid, "-o", str(out)]) == 0
        key = read(out / "resume_key.json")
        assert main(["sweep", rich_corpus, *grid, "-o", str(out), "--resume", *bad]) == 1
        assert read(out / "resume_key.json") == key
        fresh = tmp_path / "fresh"
        assert main(["sweep", rich_corpus, *grid, "-o", str(fresh), *bad]) == 1
        assert not fresh.exists()

    def test_cell_files_present(self, rich_corpus, tmp_path):
        out = tmp_path / "cells"
        main(["sweep", rich_corpus, "--grid", "ws=2..3,ms=3", "-o", str(out)])
        cell = out / "ws2_ms3"
        for name in ("graph.csv", "centrality.csv", "spearman.csv", "cell.json"):
            assert (cell / name).is_file()
        manifest = load_manifest(out / "manifest.json")
        assert manifest["parameters"]["sd_convention"] == "population"
        assert any(key.endswith("grid_summary.csv") for key in manifest["outputs"])

    def test_jobs_do_not_change_digests(self, rich_corpus, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        main(["sweep", rich_corpus, "--grid", "ws=1..2,ms=3..4", "-o", str(out1),
              "--jobs", "1"])
        main(["sweep", rich_corpus, "--grid", "ws=1..2,ms=3..4", "-o", str(out2),
              "--jobs", "2"])
        d1 = load_manifest(out1 / "manifest.json")["outputs"]
        d2 = load_manifest(out2 / "manifest.json")["outputs"]
        assert d1 == d2

    def test_interrupted_sweep_keeps_its_finished_cells(self, rich_corpus, tmp_path,
                                                        monkeypatch):
        grid = ["--grid", "ws=1..2,ms=3..4"]
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        assert main(["sweep", rich_corpus, *grid, "-o", str(clean)]) == 0
        evaluated, stop = [], [3]
        original = ldcnet.stats.evaluate_cell

        def interrupting(records, ws, ms, *rest):
            evaluated.append((ws, ms))
            if len(evaluated) in stop:
                raise KeyboardInterrupt
            return original(records, ws, ms, *rest)

        monkeypatch.setattr(ldcnet.stats, "evaluate_cell", interrupting)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", rich_corpus, *grid, "-o", str(resumed)])
        del evaluated[:], stop[:]
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed), "--resume"]) == 0
        # the two cells finished before the interruption are reused
        assert evaluated == [(2, 3), (2, 4)]
        assert (load_manifest(resumed / "manifest.json")["outputs"]
                == load_manifest(clean / "manifest.json")["outputs"])

    @pytest.mark.parametrize("entry", [b'{"cell": "ws1_ms3"}\n', b'"ws1_m'],
                             ids=["not-a-name", "torn"])
    def test_resume_distrusts_a_key_file_with_a_bad_entry(self, rich_corpus, tmp_path,
                                                          monkeypatch, entry):
        grid = ["--grid", "ws=1..2,ms=3"]
        out = tmp_path / "out"
        assert main(["sweep", rich_corpus, *grid, "-o", str(out)]) == 0
        with open(out / "resume_key.json", "ab") as fh:
            fh.write(entry)
        evaluated = []
        original = ldcnet.stats.evaluate_cell

        def counting(records, ws, ms, *rest):
            evaluated.append((ws, ms))
            return original(records, ws, ms, *rest)

        monkeypatch.setattr(ldcnet.stats, "evaluate_cell", counting)
        assert main(["sweep", rich_corpus, *grid, "-o", str(out), "--resume"]) == 0
        assert evaluated == [(1, 3), (2, 3)]

    def test_resume_reproduces_clean_run(self, rich_corpus, tmp_path):
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        main(["sweep", rich_corpus, "--grid", "ws=1..3,ms=3", "-o", str(clean)])
        main(["sweep", rich_corpus, "--grid", "ws=1..3,ms=3", "-o", str(resumed)])
        # sabotage one cell and drop the summary, then resume
        victim = resumed / "ws2_ms3" / "graph.csv"
        victim.write_bytes(b"source,target,weight\n")
        (resumed / "grid_summary.csv").unlink()
        assert main(["sweep", rich_corpus, "--grid", "ws=1..3,ms=3", "-o", str(resumed),
                     "--resume"]) == 0
        d_clean = load_manifest(clean / "manifest.json")["outputs"]
        d_resumed = load_manifest(resumed / "manifest.json")["outputs"]
        assert d_clean == d_resumed

    @pytest.mark.parametrize("change", ["corpus", "alpha"])
    def test_resume_recomputes_cells_of_another_key(self, rich_corpus, tmp_path, change):
        other = str(tmp_path / "other.csv")
        write_corpus_csv(random_records(random.Random(8), 25, 10, 10), other)
        grid = ["--grid", "ws=1..2,ms=3"]
        second = [other] if change == "corpus" else [rich_corpus, "--alpha", "0.5"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["sweep", rich_corpus, *grid, "-o", str(reused)]) == 0
        assert main(["sweep", *second, *grid, "-o", str(reused), "--resume"]) == 0
        assert main(["sweep", *second, *grid, "-o", str(fresh)]) == 0
        assert (load_manifest(reused / "manifest.json")["outputs"]
                == load_manifest(fresh / "manifest.json")["outputs"])

    @pytest.mark.parametrize(
        "damaged, content",
        [
            ("resume_key.json", b"\xff"),
            ("ws2_ms3/cell.json", b"\xff"),
            ("ws2_ms3/cell.json", b"5\n"),
            ("ws2_ms3/cell.json", b'{"row": {}, "files": []}\n'),
        ],
    )
    def test_resume_recomputes_past_damaged_files(self, rich_corpus, tmp_path, damaged,
                                                  content):
        grid = ["--grid", "ws=1..2,ms=3"]
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        assert main(["sweep", rich_corpus, *grid, "-o", str(clean)]) == 0
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed)]) == 0
        (resumed / damaged).write_bytes(content)
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed), "--resume"]) == 0
        assert (load_manifest(resumed / "manifest.json")["outputs"]
                == load_manifest(clean / "manifest.json")["outputs"])

    @pytest.mark.parametrize(
        "damage",
        [
            lambda meta: meta.update(row=list(meta["row"].values())),
            lambda meta: meta["row"].update(extra="1"),
            lambda meta: meta["row"].popitem(),
            lambda meta: meta.pop("status"),
        ],
        ids=["row-is-a-list", "row-with-an-extra-key", "row-lacking-a-column", "no-status"],
    )
    def test_resume_recomputes_a_cell_whose_metadata_is_damaged(self, rich_corpus, tmp_path,
                                                                damage, capsys):
        grid = ["--grid", "ws=1..2,ms=3"]
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        assert main(["sweep", rich_corpus, *grid, "-o", str(clean)]) == 0
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed)]) == 0
        cell_json = resumed / "ws2_ms3" / "cell.json"
        meta = json.loads(cell_json.read_text())
        damage(meta)
        cell_json.write_text(json.dumps(meta))
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed), "--resume"]) == 0
        assert "error" not in capsys.readouterr().err
        assert (load_manifest(resumed / "manifest.json")["outputs"]
                == load_manifest(clean / "manifest.json")["outputs"])


    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    def test_stray_file_stays_out_of_the_manifest(self, rich_corpus, tmp_path, resume):
        grid = ["--grid", "ws=1..2,ms=3"]
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert main(["sweep", rich_corpus, *grid, "-o", str(clean)]) == 0
        if resume:
            assert main(["sweep", rich_corpus, *grid, "-o", str(out)]) == 0
        (out / "ws2_ms3").mkdir(parents=True, exist_ok=True)
        (out / "ws2_ms3" / "stray.txt").write_text("not written by the sweep\n")
        argv = ["sweep", rich_corpus, *grid, "-o", str(out)] + (["--resume"] if resume else [])
        assert main(argv) == 0
        assert (load_manifest(out / "manifest.json")["outputs"]
                == load_manifest(clean / "manifest.json")["outputs"])

    def test_resume_recomputes_a_cell_that_lists_a_foreign_file(self, rich_corpus, tmp_path):
        grid = ["--grid", "ws=1..2,ms=3"]
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        assert main(["sweep", rich_corpus, *grid, "-o", str(clean)]) == 0
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed)]) == 0
        stray = resumed / "ws2_ms3" / "stray.txt"
        stray.write_text("not written by the sweep\n")
        cell_json = resumed / "ws2_ms3" / "cell.json"
        meta = json.loads(cell_json.read_text())
        meta["files"]["stray.txt"] = ldcnet.manifest.file_digest(stray)
        cell_json.write_text(json.dumps(meta))
        assert main(["sweep", rich_corpus, *grid, "-o", str(resumed), "--resume"]) == 0
        assert (load_manifest(resumed / "manifest.json")["outputs"]
                == load_manifest(clean / "manifest.json")["outputs"])

    def test_each_output_is_digested_once(self, rich_corpus, tmp_path, monkeypatch):
        digested = []
        digest = ldcnet.manifest.file_digest

        def counted(path):
            digested.append(str(path))
            return digest(path)

        monkeypatch.setattr(ldcnet.cli, "file_digest", counted)
        monkeypatch.setattr(ldcnet.manifest, "file_digest", counted)
        out = tmp_path / "once"
        assert main(["sweep", rich_corpus, "--grid", "ws=1..2,ms=3..4", "-o", str(out)]) == 0
        outputs = load_manifest(out / "manifest.json")["outputs"]
        assert sorted(digested) == sorted([rich_corpus] + [str(out / k) for k in outputs])


class TestStatsCommand:
    def test_schema(self, boundary_corpus, tmp_path):
        out = tmp_path / "words.csv"
        assert main(["stats", boundary_corpus, "-o", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert lines[0] == "word,frequency,log_frequency,avg_location,dt_to,dt_from,n_to,n_from"
        assert lines[1].startswith("cat,4,")

    def test_ldc_join(self, rich_corpus, tmp_path):
        out = tmp_path / "joined.csv"
        assert main(["stats", rich_corpus, "--ws", "2", "--ms", "3", "-o", str(out)]) == 0
        header = read(out).decode().splitlines()[0]
        assert header.endswith(",ldc")

    def test_ws_without_ms_exits_1(self, rich_corpus, tmp_path):
        assert main(["stats", rich_corpus, "--ws", "2", "-o", str(tmp_path / "x.csv")]) == 1

    def test_json_format(self, boundary_corpus, tmp_path):
        out = tmp_path / "words.json"
        assert main(["stats", boundary_corpus, "--format", "json", "-o", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["dog"]["dt_to"] == 1.0
        assert payload["cat"]["dt_to"] is None

    def test_osf_json_input(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({
            "s1": {"words": ["cat", "dog"], "timestamps": [0.0, 1.0]},
            "s2": {"words": ["cat", "dog"], "timestamps": [0.0, 1.5]},
        }))
        out = tmp_path / "words.csv"
        assert main(["stats", str(corpus), "--input-format", "osf-json",
                     "-o", str(out)]) == 0
        assert read(out).decode().splitlines()[1].startswith("cat,2,")


@pytest.mark.parametrize("command, flags, manifest", [
    ("build", ["--ws", "2", "--ms", "3"], "out.manifest.json"),
    ("stats", [], "out.manifest.json"),
    ("sweep", ["--grid", "ws=1..2,ms=3"], "out/manifest.json"),
    ("permtest", ["--ws", "2", "--ms", "3", "--n", "5"], "out.manifest.json"),
], ids=["build", "stats", "sweep", "permtest"])
def test_manifest_records_the_input_format(command, flags, manifest, tmp_path):
    records = random_records(random.Random(7), n_subjects=25, list_len=10, vocab_size=10)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        r.subject_id: {"words": [w for w, _ in r.entries], "timestamps": [t for _, t in r.entries]}
        for r in records
    }))
    assert main([command, str(corpus), *flags, "--input-format", "osf-json",
                 "-o", str(tmp_path / "out")]) == 0
    assert load_manifest(tmp_path / manifest)["parameters"]["input_format"] == "osf-json"


class TestPermtest:
    def test_fixed_seed_reruns_byte_identical(self, rich_corpus, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        args = ["permtest", rich_corpus, "--ws", "2", "--ms", "3", "--target", "dt_from",
                "--n", "25", "--seed", "42"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert read(out1) == read(out2)
        payload = json.loads(read(out1))
        assert payload["repetitions"] == 25
        assert payload["seed"] == 42
        assert 0.0 < payload["p_value"] <= 1.0
        assert "p2.5" in payload["null_quantiles"]

    def test_missing_corpus_exits_2(self, tmp_path):
        assert main(["permtest", str(tmp_path / "absent.csv"), "--ws", "2", "--ms", "3",
                     "-o", str(tmp_path / "p.json")]) == 2

    def test_undefined_actual_exits_4(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "subject,word,onset_seconds\ns1,solo,1.0\ns2,solo,1.0\ns3,solo,1.0\n"
        )
        assert main(["permtest", str(path), "--ws", "1", "--ms", "1", "--n", "5",
                     "-o", str(tmp_path / "p.json")]) == 4

    def test_env_seed_fallback(self, rich_corpus, tmp_path, monkeypatch):
        out_env, out_flag = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("LDC_SEED", "42")
        assert main(["permtest", rich_corpus, "--ws", "2", "--ms", "3", "--n", "10",
                     "-o", str(out_env)]) == 0
        monkeypatch.delenv("LDC_SEED")
        assert main(["permtest", rich_corpus, "--ws", "2", "--ms", "3", "--n", "10",
                     "--seed", "42", "-o", str(out_flag)]) == 0
        assert read(out_env) == read(out_flag)


@pytest.mark.parametrize(
    "exc, code",
    [
        (ldcnet.cli._UsageError("bad flag"), 1),
        (ValueError("bad value"), 1),
        (MalformedLine(3, "bad row"), 2),
        (NonMonotoneTimestamp("s1"), 2),
        (FileNotFoundError("absent.csv"), 2),
        (IsADirectoryError("dir"), 2),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 2),
        (NotADirectoryError("ok.csv/x"), 2),
        (PermissionError("locked.csv"), 2),
        (NoConvergence("pagerank did not converge"), 4),
        (NoRecords("cannot build a graph from zero records"), 3),
        (EmptyGraph("no vertices"), 3),
        (UndefinedActualCorrelation("actual-order correlation undefined"), 4),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_exit_code_table(exc, code, tmp_path, monkeypatch, capsys):
    def raising(args):
        raise exc

    monkeypatch.setattr(ldcnet.cli, "_cmd_build", raising)
    assert main(["build", "corpus.csv", "--ws", "1", "--ms", "1",
                 "-o", str(tmp_path / "g.csv")]) == code
    assert str(exc) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "corpus.csv", "--ws", "1", "--ms", "1", "--jobs", "2"],
        ["centrality", "graph.csv", "--input-format", "csv"],
    ],
    ids=["build-jobs", "centrality-input-format"],
)
def test_flag_a_command_does_not_read_exits_1(argv, tmp_path, capsys):
    assert main(argv + ["-o", str(tmp_path / "out")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["centrality", "graph.csv"],
        ["sweep", "corpus.csv"],
        ["stats", "corpus.csv"],
        ["permtest", "corpus.csv", "--ws", "1", "--ms", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_jobs_below_1_exits_1(argv, jobs, tmp_path, capsys):
    assert main(argv + ["--jobs", jobs, "-o", str(tmp_path / "out")]) == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "centrality", "sweep", "stats", "permtest"])
def test_manifest_started_at_is_taken_before_the_work(command, rich_corpus, tmp_path,
                                                      monkeypatch):
    graph = tmp_path / "graph.csv"
    random_graph(random.Random(5), 8).to_csv(graph)
    ticks = itertools.count()

    def stamp():
        return f"t{next(ticks)}"

    def after_a_stamp(read):
        def reading(*args, **kwargs):
            stamp()
            return read(*args, **kwargs)
        return reading

    # reading the input takes a value too, so a start stamped after the work
    # would not be the first value
    monkeypatch.setattr(ldcnet.cli, "utc_now", stamp)
    monkeypatch.setattr(ldcnet.manifest, "utc_now", stamp)
    monkeypatch.setattr(ldcnet.cli, "load_corpus", after_a_stamp(ldcnet.cli.load_corpus))
    monkeypatch.setattr(WeightedDigraph, "from_csv",
                        staticmethod(after_a_stamp(WeightedDigraph.from_csv)))
    argv = {
        "build": [rich_corpus, "--ws", "2", "--ms", "3"],
        "centrality": [str(graph)],
        "sweep": [rich_corpus, "--grid", "ws=2,ms=3"],
        "stats": [rich_corpus],
        "permtest": [rich_corpus, "--ws", "2", "--ms", "3", "--n", "5"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "-o", str(out)]) == 0
    manifest = load_manifest(out / "manifest.json" if command == "sweep"
                             else f"{out}.manifest.json")
    assert manifest["started_at"] == "t0"
    assert manifest["finished_at"] == "t2"


class TestEntrypoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ldcnet", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("ldcnet ")

    def test_usage_error_exits_1(self):
        result = subprocess.run(
            [sys.executable, "-m", "ldcnet", "build"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
