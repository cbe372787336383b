"""Benchmark of the ldcnet batch commands, driven in-process through the CLI.

Usage, from the repository root::

    python3 bench/run.py --workload sweep-ldc --seed 1 --seconds 20 --trace 0

Each run is one fresh interpreter and a single process. It generates the
workload's corpus from ``--seed``, measures the set-up cost of a CLI call in
child interpreters, then calls ``ldcnet.cli.main(argv)`` with ``--jobs 1``
repeatedly for ``--seconds`` seconds and checks every call's outputs. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` ones,
recorded by wrapping the package's functions from outside (see
``tracer.py``). ``BENCHMARK.json`` is the one list of metric names, units and
workload reasons. The lines before it give the raw wall time, the failed
ratio and the sha256 of the generated corpus.

A call fails on a nonzero exit code, an output file whose bytes differ from
its manifest digest, a broken invariant (one ``grid_summary.csv`` row per
cell; ``n_effective + n_failed == repetitions`` and a p-value in (0, 1]), an
output digest that differs from the run's first call, or, on the workload's
default seed, from the pinned digest.

The package is imported from ``src/`` of the checkout the script sits in; the
run exits with code 2, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)

from corpus_gen import CorpusShape, generate, sha256  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

#: Child interpreters timed per run for ``setup_s``, spread evenly over the
#: timed calls so that a slow spell of the host moves few of them. They start
#: after the in-process import, which leaves compiled bytecode and a warm file
#: cache.
SETUP_SAMPLES = 9

#: Spans every workload runs through.
_COMMON_SPANS = (
    "cli.main",
    "corpus.load_corpus",
    "corpus.build_graph",
    "centrality.ldc_vector",
    "centrality.build_context",
    "graph.mean_pairwise_distance",
    "metrics.covariates",
    "stats.spearman",
    "manifest.file_digest",
)
_SWEEP_SPANS = _COMMON_SPANS + (
    "centrality.compute_all",
    "centrality.degree",
    "centrality.closeness",
    "centrality.triangles",
    "centrality.pagerank",
    "centrality.betweenness",
    "stats.exclude_outliers",
    "stats.evaluate_cell",
    "graph.to_csv",
    "centrality.write_centrality_csv",
    "stats.write_spearman_csv",
    "stats.write_distance_csv",
)
_PERMTEST_SPANS = _COMMON_SPANS + (
    "corpus.shuffle_records",
    "stats.ldc_dt_correlation",
    "stats.permutation_test",
)


@dataclass(frozen=True)
class Workload:
    """One CLI command on one generated corpus shape.

    ``corpus_sha256`` and ``output_digest`` are pinned for ``default_seed``:
    the generated corpus bytes, and the digest of the outputs (for a sweep,
    the ``outputs`` map of its manifest; for permtest, the report bytes).
    """

    name: str
    argv: tuple[str, ...]  # CLI arguments; {corpus} and {out} are filled in
    shape: CorpusShape
    cells: int  # sweep grid cells, 0 for permtest
    repetitions: int  # permtest repetitions, 0 for a sweep
    default_seed: int
    corpus_sha256: str
    output_digest: str
    spans: tuple[str, ...]

    def command_line(self) -> str:
        return "ldcnet " + " ".join(self.argv).format(corpus="<corpus>", out="<out>")


#: Left out on purpose: ``--jobs > 1``, since wall-clock scaling on two shared
#: cores would not be meaningful, and ``--resume``, which reuses a 135-cell
#: sweep in well under a second, too short to time steadily.
#:
#: Vocabulary of sweep-ldc: with 80 Zipf words and 400 subjects nearly every
#: word reaches an arc, so V is 79 or 80 for every seed. With 300 words V varied
#: by about 5% across seeds and the detour score's cost, cubic in V, by about
#: 12%. One grid cell keeps a call near a second, so a run makes enough calls
#: for a steady median.
#: Corpus of permtest-small: at 25 subjects (the calibration test's shape) the
#: mean arc count of the shuffled graphs varied by 15% across seeds; at 50
#: subjects it varies by 2%.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-ldc",
            argv=("sweep", "{corpus}", "--grid", "ws=2,ms=3", "--jobs", "1", "-o", "{out}"),
            shape=CorpusShape(subjects=400, list_len=25, vocab=80, zipf=True),
            cells=1,
            repetitions=0,
            default_seed=1,
            corpus_sha256="187201ae7c8993a1b1a39184426baf2f958e15af871e4a40ff88c4caee038625",
            output_digest="1ddf4ff30ac8820691f43a9d0f5a5fe45d532e7f6f82de0c6ed0565d8d38ae6b",
            spans=_SWEEP_SPANS,
        ),
        Workload(
            name="sweep-wide",
            argv=("sweep", "{corpus}", "--grid", "ws=1..2,ms=17..21", "--jobs", "1",
                  "-o", "{out}"),
            shape=CorpusShape(subjects=1500, list_len=25, vocab=600, zipf=True),
            cells=10,
            repetitions=0,
            default_seed=1,
            corpus_sha256="0530b96a26846bf390f739c954525ed285c8a0f6ffb7563152b53b0b706c1691",
            output_digest="4ead31be009aa1350355aaa920730ac540b111f6e9089ad3b3d1b3c287693e76",
            spans=_SWEEP_SPANS,
        ),
        Workload(
            name="permtest-small",
            argv=("permtest", "{corpus}", "--ws", "2", "--ms", "3", "--target", "dt_from",
                  "--n", "200", "--seed", "7", "--jobs", "1", "-o", "{out}"),
            shape=CorpusShape(subjects=50, list_len=10, vocab=10, zipf=False),
            cells=0,
            repetitions=200,
            default_seed=1,
            corpus_sha256="599e4a6a6bd817f24c24f726dd6374817b0cc2b28d0574ebc9668dae2f504cf1",
            output_digest="20d45f6b1676c82489f0e314828bb7e49a555ce4ee83c182a07d70e9952e68a2",
            spans=_PERMTEST_SPANS,
        ),
    )
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- set-up ------------------------------------------------------------------

_SETUP_CHILD = (
    "import time\n"
    "import ldcnet.cli\n"
    "print(time.monotonic(), ldcnet.cli.__file__)\n"
)


def _spawn_setup(importtime: bool) -> tuple[float, str]:
    """One fresh interpreter up to ``import ldcnet.cli`` returning.

    Returns the seconds from just before the spawn to the end of the import,
    read on the system-wide monotonic clock in both processes, and the child's
    stderr (the ``-X importtime`` table when asked for).
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", _SETUP_CHILD]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    stamp, path = proc.stdout.strip().split(" ", 1)
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise BenchError(f"child imported ldcnet from {path}, not from {SRC}")
    return float(stamp) - start, proc.stderr


def parse_importtime(table: str) -> dict[str, float]:
    """Set-up layers from a ``-X importtime`` table, in seconds."""
    cumulative: dict[str, int] = {}
    ldcnet_self = 0
    for line in table.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cum, name = int(fields[0]), int(fields[1]), fields[2].strip()
        cumulative.setdefault(name, cum)
        if name == "ldcnet" or name.startswith("ldcnet."):
            ldcnet_self += own
    missing = [n for n in ("scipy.stats", "numpy") if n not in cumulative]
    if missing or not ldcnet_self:
        raise BenchError(f"import table lacks {missing or ['ldcnet']}")
    return {
        "setup.scipy_stats.s": cumulative["scipy.stats"] / 1e6,
        "setup.numpy.s": cumulative["numpy"] / 1e6,
        "setup.ldcnet.self_s": ldcnet_self / 1e6,
    }


# -- one call and its checks -------------------------------------------------


def call_argv(workload: Workload, corpus: str, out: str) -> list[str]:
    return [a.format(corpus=corpus, out=out) for a in workload.argv]


def _outputs_digest(outputs: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(workload: Workload, out: str) -> tuple[str, list[str]]:
    """Digest of one call's outputs and the invariants it broke.

    Every file the manifest lists is hashed again, so a changed byte in any
    output shows as a broken invariant.
    """
    problems: list[str] = []
    if workload.cells:
        manifest_path = os.path.join(out, "manifest.json")
        root = out
    else:
        manifest_path = out + ".manifest.json"
        root = None
    with open(manifest_path, encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    for key, digest in outputs.items():
        path = os.path.join(root, key) if root else key
        if _file_sha256(path) != digest:
            problems.append(f"{key}: bytes differ from the manifest digest")
    if workload.cells:
        with open(os.path.join(out, "grid_summary.csv"), encoding="utf-8") as fh:
            rows = len(fh.read().splitlines()) - 1
        if rows != workload.cells:
            problems.append(f"grid_summary.csv has {rows} rows, expected {workload.cells}")
        return _outputs_digest(outputs), problems
    with open(out, "rb") as fh:
        data = fh.read()
    report = json.loads(data)
    if report["n_effective"] + report["n_failed"] != workload.repetitions:
        problems.append("n_effective + n_failed != repetitions")
    if report["repetitions"] != workload.repetitions:
        problems.append(f"report says {report['repetitions']} repetitions")
    if not 0.0 < report["p_value"] <= 1.0:
        problems.append(f"p-value {report['p_value']} outside (0, 1]")
    return hashlib.sha256(data).hexdigest(), problems


class Runner:
    """Calls the CLI on one corpus and keeps the tally of checked calls."""

    def __init__(self, workload: Workload, seed: int, corpus: str, work: str):
        import ldcnet.cli

        self.cli = ldcnet.cli
        self.workload = workload
        self.seed = seed
        self.corpus = corpus
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_digest: str | None = None
        self.problems: list[str] = []

    def call(self) -> float:
        """One timed ``main(argv)``; its outputs are checked and removed."""
        self.attempted += 1
        out = os.path.join(self.work, f"call{self.attempted}")
        if self.workload.repetitions:
            out += ".json"
        argv = call_argv(self.workload, self.corpus, out)
        stderr = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.tally(code, stderr.getvalue(), out)
        _remove(out)
        return elapsed

    def tally(self, code: int, stderr: str, out: str) -> None:
        """Count a call as failed on a nonzero exit or any output problem."""
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
        else:
            try:
                digest, problems = check_outputs(self.workload, out)
            except (OSError, ValueError, KeyError) as exc:
                digest, problems = "", [f"unreadable outputs: {exc!r}"]
            if self.first_digest is None:
                self.first_digest = digest
            if digest != self.first_digest:
                problems.append("outputs differ from the first call of this run")
            if self.seed == self.workload.default_seed and digest != self.workload.output_digest:
                problems.append(f"output digest {digest} differs from the pinned one")
        if problems:
            self.failed += 1
            self.problems.extend(f"call {self.attempted}: {p}" for p in problems)

    def loop(self, deadline: float, at_least: int = 0) -> tuple[list[float], list[float]]:
        """Timed calls until ``time.perf_counter()`` reaches ``deadline``, and
        at least ``at_least`` of them.

        Returns each call's wall time and the mean of the reference times
        measured just before and just after it.
        """
        times: list[float] = []
        refs: list[float] = []
        before = reference_seconds()
        while len(times) < at_least or time.perf_counter() < deadline:
            times.append(self.call())
            after = reference_seconds()
            refs.append((before + after) / 2)
            before = after
        return times, refs


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    else:
        for p in (path, path + ".manifest.json"):
            if os.path.exists(p):
                os.remove(p)


def timed_calls(runner: Runner, seconds: float,
                importtime: bool) -> tuple[list[float], list[float], list[tuple[float, str]]]:
    """Calls for ``seconds``, with the set-up samples spread evenly among them.

    The ``SETUP_SAMPLES`` spawns do not count toward ``seconds``. Returns the
    calls' wall and reference times (see ``Runner.loop``) and the spawns.
    """
    times: list[float] = []
    refs: list[float] = []
    setup: list[tuple[float, str]] = []
    start = time.perf_counter()
    spawning = 0.0
    for i in range(1, SETUP_SAMPLES + 1):
        spawn_start = time.perf_counter()
        setup.append(_spawn_setup(importtime))
        spawning += time.perf_counter() - spawn_start
        chunk_times, chunk_refs = runner.loop(start + spawning + i * seconds / SETUP_SAMPLES,
                                              at_least=int(not times))
        times += chunk_times
        refs += chunk_refs
    return times, refs, setup


# -- traced run ----------------------------------------------------------------


def traced_metrics(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str], list]:
    """Per-layer metrics: half the time untraced, half traced.

    Times are medians over the traced calls; counters must repeat exactly.
    The untraced half takes the set-up samples, with ``-X importtime``, and
    returns them too.
    """
    untraced_times, _, setup = timed_calls(runner, seconds / 2, importtime=True)
    untraced = statistics.median(untraced_times)
    per_call: list[dict[str, float]] = []
    walls: list[float] = []
    problems: list[str] = []
    with Tracer() as tracer:
        deadline = time.perf_counter() + seconds / 2
        while len(walls) < 2 or time.perf_counter() < deadline:
            tracer.reset()
            walls.append(runner.call())
            per_call.append(_layer_values(tracer))
    leftover = leftover_wrappers()
    if leftover:
        problems.append(f"wrappers left behind: {', '.join(leftover)}")
    for span in runner.workload.spans:
        if any(call.get(span + ".calls", 0) == 0 for call in per_call):
            problems.append(f"span {span} recorded no calls")
    units = metric_units("per_layer")
    exact = [name for name, unit in units.items() if unit == "count"]
    for name in exact:
        values = {call.get(name, 0) for call in per_call}
        if len(values) != 1:
            problems.append(f"counter {name} varies across identical calls: {sorted(values)}")
    metrics = {}
    for name, unit in units.items():
        if name.startswith("setup.") or name == "trace.overhead_s":
            continue
        metrics[name] = statistics.median(call.get(name, 0) for call in per_call)
        if unit == "count":
            metrics[name] = int(metrics[name])
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced
    return metrics, problems, setup


def _layer_values(tracer: Tracer) -> dict[str, float]:
    values: dict[str, float] = dict(tracer.counters)
    for span, entry in tracer.summary().items():
        values[span + ".s"] = entry["s"]
        values[span + ".self_s"] = entry["self_s"]
        values[span + ".calls"] = entry["calls"]
    return values


# -- entry point ---------------------------------------------------------------


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "ldcnet", "cli.py")):
        raise BenchError(f"no ldcnet source under {SRC}")
    sys.path.insert(0, SRC)
    import ldcnet

    if not os.path.abspath(ldcnet.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported ldcnet from {ldcnet.__file__}, not from {SRC}")


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    _import_package()

    data = generate(workload.shape, args.seed)
    corpus_sha = sha256(data)
    work = os.path.join(WORK_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        corpus = os.path.join(work, "corpus.csv")
        with open(corpus, "wb") as fh:
            fh.write(data)
        runner = Runner(workload, args.seed, corpus, work)
        problems = []
        if args.seed == workload.default_seed and corpus_sha != workload.corpus_sha256:
            problems.append(f"corpus sha256 {corpus_sha} differs from the pinned one")
        if args.trace:
            metrics, trace_problems, setup = traced_metrics(runner, args.seconds)
            problems += trace_problems
            tables = [parse_importtime(stderr) for _, stderr in setup]
            for name in tables[0]:
                metrics[name] = statistics.median(t[name] for t in tables)
            units = metric_units("per_layer")
        else:
            times, refs, setup = timed_calls(runner, args.seconds, importtime=False)
            # wall_ref: each call's wall time over the adjacent reference time
            # (see reference.py). The raw median wall_s, printed below, drifts
            # with the host's speed too much to gate on.
            metrics = {
                "setup_s": statistics.median(s for s, _ in setup),
                "wall_ref": statistics.median(t / r for t, r in zip(times, refs)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = metric_units("end_to_end")
            print(f"wall_s {statistics.median(times)} s (median of {len(times)} calls, "
                  f"min {min(times):.4f}, max {max(times):.4f}); "
                  f"reference {statistics.median(refs):.4f} s; "
                  f"setup_s of {len(setup)} spawns: {sorted(round(s, 4) for s, _ in setup)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    problems = runner.problems + problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {workload.name}: {workload.command_line()}")
    print(f"corpus {workload.shape.describe()} seed={args.seed} sha256={corpus_sha}")
    print(f"failed_ratio {runner.failed / runner.attempted:.4f} ratio "
          f"({runner.failed} of {runner.attempted} calls)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
