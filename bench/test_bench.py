"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from corpus_gen import CorpusShape, generate, sha256  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

run._import_package()

import ldcnet.cli  # noqa: E402

TINY_SHAPE = CorpusShape(subjects=30, list_len=8, vocab=12, zipf=True)

TINY_SWEEP = run.Workload(
    name="tiny-sweep",
    argv=("sweep", "{corpus}", "--grid", "ws=1..2,ms=1", "--jobs", "1", "-o", "{out}"),
    shape=TINY_SHAPE,
    cells=2,
    repetitions=0,
    default_seed=-1,
    corpus_sha256="",
    output_digest="",
    spans=run._SWEEP_SPANS,
)
TINY_PERMTEST = run.Workload(
    name="tiny-permtest",
    argv=("permtest", "{corpus}", "--ws", "2", "--ms", "1", "--n", "20", "--seed", "3",
          "--jobs", "1", "-o", "{out}"),
    shape=TINY_SHAPE,
    cells=0,
    repetitions=20,
    default_seed=-1,
    corpus_sha256="",
    output_digest="",
    spans=run._PERMTEST_SPANS,
)


def _runner(workload: run.Workload, tmp_path) -> run.Runner:
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(generate(workload.shape, 5))
    return run.Runner(workload, 5, str(corpus), str(tmp_path))


def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ldcnet.cli.main(argv)


def test_generator_is_deterministic_per_seed():
    shape = CorpusShape(subjects=50, list_len=20, vocab=40, zipf=True)
    assert generate(shape, 3) == generate(shape, 3)
    assert generate(shape, 3) != generate(shape, 4)
    lines = generate(shape, 3).decode().splitlines()
    assert lines[0] == "subject,word,onset_seconds"
    assert len(lines) == 1 + 50 * 20


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_default_seed_corpus_matches_its_pin(name):
    workload = run.WORKLOADS[name]
    assert sha256(generate(workload.shape, workload.default_seed)) == workload.corpus_sha256


def test_tracer_restores_every_binding():
    before = {m.__name__: dict(vars(m)) for m in _modules()}
    methods = dict(vars(ldcnet.graph.WeightedDigraph))
    with Tracer():
        assert getattr(ldcnet.cli.build_graph, "__bench_traced__", False)
        assert ldcnet.stats.build_graph is ldcnet.cli.build_graph
        assert ldcnet.centrality.ldc_vector is ldcnet.stats.ldc_vector
        assert "ldcnet.graph.WeightedDigraph.to_csv" in leftover_wrappers()
    assert leftover_wrappers() == []
    assert {m.__name__: dict(vars(m)) for m in _modules()} == before
    assert dict(vars(ldcnet.graph.WeightedDigraph)) == methods


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ldcnet"]


@pytest.mark.parametrize("workload", [TINY_SWEEP, TINY_PERMTEST], ids=lambda w: w.name)
def test_traced_run_sees_every_expected_span(workload, tmp_path):
    runner = _runner(workload, tmp_path)
    metrics, problems, setup = run.traced_metrics(runner, 0.0)
    assert problems == []
    assert runner.failed == 0
    assert metrics["cli.main.s"] > 0.0
    assert metrics["graph.vertices"] > 0
    assert len(setup) == run.SETUP_SAMPLES
    assert leftover_wrappers() == []


def test_traced_run_fails_when_an_expected_span_never_runs(tmp_path):
    workload = dataclasses.replace(
        TINY_PERMTEST, spans=TINY_PERMTEST.spans + ("stats.exclude_outliers",)
    )
    _, problems, _ = run.traced_metrics(_runner(workload, tmp_path), 0.0)
    assert problems == ["span stats.exclude_outliers recorded no calls"]


def test_flipped_byte_in_copied_sweep_output_counts_a_failed_call(tmp_path):
    runner = _runner(TINY_SWEEP, tmp_path)
    out = str(tmp_path / "out")
    assert _main(run.call_argv(TINY_SWEEP, runner.corpus, out)) == 0
    copy = str(tmp_path / "copy")
    shutil.copytree(out, copy)
    target = os.path.join(copy, "ws1_ms1", "graph.csv")
    data = bytearray(open(target, "rb").read())
    data[-2] ^= 1
    open(target, "wb").write(bytes(data))

    runner.tally(0, "", out)
    assert runner.failed == 0
    runner.tally(0, "", copy)
    assert runner.failed == 1


def test_flipped_byte_in_copied_report_counts_a_failed_call(tmp_path):
    runner = _runner(TINY_PERMTEST, tmp_path)
    out = str(tmp_path / "report.json")
    assert _main(run.call_argv(TINY_PERMTEST, runner.corpus, out)) == 0
    copy = str(tmp_path / "copy.json")
    shutil.copy(out, copy)
    shutil.copy(out + ".manifest.json", copy + ".manifest.json")
    data = bytearray(open(copy, "rb").read())
    data[data.index(b"ws")] ^= 1  # a key changes, the JSON stays valid
    open(copy, "wb").write(bytes(data))

    runner.tally(0, "", out)
    assert runner.failed == 0
    runner.tally(0, "", copy)
    assert runner.failed == 1


def test_pinned_digest_mismatch_counts_a_failed_call(tmp_path):
    pinned = dataclasses.replace(TINY_PERMTEST, default_seed=5, output_digest="0" * 64)
    runner = _runner(pinned, tmp_path)
    runner.call()
    assert runner.attempted == 1 and runner.failed == 1


def test_importtime_table_parsing():
    table = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |     ldcnet.errors",
        "import time:      3000 |     200000 |       numpy",
        "import time:      2000 |    1500000 |       scipy.stats",
        "import time:      5000 |    1710000 |   ldcnet",
    ])
    assert run.parse_importtime(table) == {
        "setup.scipy_stats.s": 1.5,
        "setup.numpy.s": 0.2,
        "setup.ldcnet.self_s": 0.006,
    }

