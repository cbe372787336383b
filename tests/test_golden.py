"""Pinned output bytes of every CLI command on one fixed synthetic corpus.

The digests below were recorded before the measure registry and the shared
text-I/O helper replaced the hand-kept measure lists and per-writer file
handling, so they hold every command's bytes to that earlier version.
"""

import hashlib
import json
import random

from ldcnet.cli import main
from ldcnet.manifest import load_manifest

from corpora import random_records, write_corpus_csv

GOLDEN = {
    "build": "fb672d7a9bae86875ddd16445e2252864bf985604252b4d56321804b94c18ece",
    "centrality-all-wide": "074c7bc8743acd0d40839a29532e2419a75ff90a88d0074d6515e4d9ae09c024",
    "centrality-all-long": "9a6194761fe4ef35fa87abeac9d161e32aaba9f4571b974b15dba5e581dcdce1",
    "centrality-all-json": "28c3cdb54724d4c3aa0786396148c3edf6e5fe39c15b37ace3b67f7793d0d656",
    "centrality-subset-wide": "f8f36a2d4255206ac59603c88f98a6099e5395a67683a74bd4577ec10b77631e",
    "centrality-subset-long": "3073a1e5d88d32b222764384f5cf86453dcbd3036b4b9ff0145a29215ac332c7",
    "centrality-subset-json": "d414ccd3e3f71f4d34e74d18c1d002d351c2095b62f9e66455d09c3184ac7873",
    "stats-csv": "58bfcf5ff7a3c3403e6926f335d46931a61440aa77b13e9e794f8766800b4bb3",
    "stats-json-ldc": "f425fbeed69d7631fcf84f3072bc4a23ffb6a25b98982f574a66dce6747bfb1e",
    "sweep": "3138cdf6c9daa02e5318d5ee4e3364c8b1c16443b15e1a2e9d519efcb2e43d5b",
    "permtest": "55fe8ccd53a9045c91c773451e0811c5f646be50a654531a69ec865e9c45b8f5",
    "permtest-batches": "25a345d998616d9457adaa8c09270a85e8e277b9a18fce036d6b44f3f60e0d84",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(tmp_path) -> dict[str, str]:
    """Run each command once and return the sha256 of what it wrote.

    A sweep is summarized by the digest of its manifest's ``outputs`` map,
    which covers every cell file and the grid summary. ``permtest-batches``
    runs on a second corpus of short records, where its 120 repetitions
    span three batches and 13 of them fail every attempt.
    """
    corpus = tmp_path / "corpus.csv"
    write_corpus_csv(
        random_records(random.Random(2208), n_subjects=30, list_len=10, vocab_size=12),
        corpus,
    )
    corpus = str(corpus)
    short = tmp_path / "short.csv"
    write_corpus_csv(
        random_records(random.Random(5), n_subjects=8, list_len=4, vocab_size=6), short
    )
    graph = str(tmp_path / "graph.csv")
    runs = {
        "build": ["build", corpus, "--ws", "2", "--ms", "3"],
        "stats-csv": ["stats", corpus],
        "stats-json-ldc": ["stats", corpus, "--format", "json", "--ws", "2", "--ms", "3"],
        "permtest": ["permtest", corpus, "--ws", "2", "--ms", "3", "--n", "20",
                     "--seed", "5"],
        "permtest-batches": ["permtest", str(short), "--ws", "1", "--ms", "1", "--target",
                             "dt_to", "--n", "120", "--seed", "5"],
    }
    for selection, measure in (("all", "all"), ("subset", "ldc,betweenness")):
        base = ["centrality", graph, "--measure", measure]
        runs[f"centrality-{selection}-wide"] = base
        runs[f"centrality-{selection}-long"] = base + ["--layout", "long"]
        runs[f"centrality-{selection}-json"] = base + ["--format", "json"]

    digests = {}
    for name, argv in runs.items():
        out = graph if name == "build" else str(tmp_path / name)
        assert main(argv + ["-o", out]) == 0, name
        with open(out, "rb") as fh:
            digests[name] = _sha256(fh.read())

    sweep = tmp_path / "sweep"
    assert main(["sweep", corpus, "--grid", "ws=1..2,ms=3..4", "-o", str(sweep)]) == 0
    outputs = load_manifest(sweep / "manifest.json")["outputs"]
    digests["sweep"] = _sha256(json.dumps(outputs, sort_keys=True).encode("utf-8"))
    return digests


def test_cli_outputs_match_recorded_digests(tmp_path):
    assert cli_digests(tmp_path) == GOLDEN
