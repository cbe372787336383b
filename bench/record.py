"""Record each workload's layer shares at the current commit.

Usage, from the repository root::

    python3 bench/record.py

Runs every workload on its default seed with the tracer installed and
writes ``bench/baseline.json``: the workload's command, corpus shape and
default seed, and for the median of ``CALLS`` traced calls the share of
``cli.main`` wall time spent in each layer. Exits 1 when a share no longer
supports the reason the workload was chosen (its ``why`` in
``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from corpus_gen import generate, sha256  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Traced calls per workload; the median one is recorded.
CALLS = 3

#: Inclusive function times reported as shares; a function's share contains
#: its callees, so these do not add up to 1.
FUNCTION_SHARES = {
    "ldc": ("centrality.ldc_vector",),
    "other_measures": ("centrality.degree", "centrality.closeness", "centrality.triangles",
                       "centrality.pagerank", "centrality.betweenness"),
    "build_graph": ("corpus.build_graph",),
    "covariates": ("metrics.covariates",),
    "spearman_and_outliers": ("stats.spearman", "stats.exclude_outliers"),
    "shuffle_records": ("corpus.shuffle_records",),
    "load_corpus": ("corpus.load_corpus",),
    "writers_and_digests": ("graph.to_csv", "centrality.write_centrality_csv",
                            "stats.write_spearman_csv", "stats.write_distance_csv",
                            "manifest.file_digest"),
}


def traced_call(runner: run.Runner) -> dict[str, dict[str, float]]:
    with Tracer() as tracer:
        runner.call()
        return tracer.summary()


def shares(summary: dict[str, dict[str, float]]) -> dict:
    wall = summary["cli.main"]["s"]
    functions = {
        layer: sum(summary.get(span, {"s": 0.0})["s"] for span in spans) / wall
        for layer, spans in FUNCTION_SHARES.items()
    }
    modules: dict[str, float] = {}
    for span, entry in summary.items():
        module = span.split(".")[0]
        modules[module] = modules.get(module, 0.0) + entry["self_s"] / wall
    return {
        "traced_wall_s": wall,
        "function_shares": {k: round(v, 4) for k, v in functions.items()},
        "module_self_shares": {k: round(v, 4) for k, v in sorted(modules.items())},
    }


def reasons_hold(name: str, entry: dict) -> list[str]:
    """The share each workload was chosen for, checked at this commit."""
    f, m = entry["function_shares"], entry["module_self_shares"]
    if name == "sweep-ldc" and not f["ldc"] > 0.5:
        return [f"{name}: the detour score is not the majority ({f['ldc']})"]
    if name == "sweep-wide" and not f["build_graph"] + f["covariates"] > 0.5:
        return [f"{name}: graph build plus covariates is not the majority"]
    if name == "permtest-small" and max(m.values()) > 0.5:
        return [f"{name}: one module takes more than half ({m})"]
    return []


def main() -> int:
    run._import_package()
    import numpy
    import scipy

    out = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    failures: list[str] = []
    for name, workload in run.WORKLOADS.items():
        data = generate(workload.shape, workload.default_seed)
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_record_") as work:
            corpus = os.path.join(work, "corpus.csv")
            with open(corpus, "wb") as fh:
                fh.write(data)
            runner = run.Runner(workload, workload.default_seed, corpus, work)
            summaries = [traced_call(runner) for _ in range(CALLS)]
        if runner.failed:
            failures += runner.problems
        walls = [s["cli.main"]["s"] for s in summaries]
        median_call = summaries[walls.index(statistics.median_low(walls))]
        entry = {
            "command": workload.command_line(),
            "corpus": workload.shape.describe(),
            "default_seed": workload.default_seed,
            "corpus_sha256": sha256(data),
            **shares(median_call),
        }
        failures += reasons_hold(name, entry)
        out["workloads"][name] = entry
        print(f"{name}: {json.dumps(entry['function_shares'])}")
    with open(os.path.join(run.BENCH_DIR, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    for failure in failures:
        print(f"record: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
