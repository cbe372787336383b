"""Command-line front end for reproducible batch runs.

Exit codes: 0 success; 1 usage; 2 input error (a file that cannot be read,
decoded or written, or a malformed input); 3 empty result (a corpus with no
records, a graph too small for a measure, or a sweep whose cells all failed);
4 undefined statistic (including a pagerank that does not converge). Every
command is a pure function of (inputs, flags, seed) and writes a manifest
with content digests of everything it emitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from typing import Callable, Optional, Sequence

from . import __version__
from .centrality import (
    MEASURES,
    SCORERS,
    PageRankParams,
    ldc_vector,
    pagerank_with_raw,
    write_centrality_csv,
)
from .corpus import DistanceFunctionParams, build_graph, load_corpus
from .errors import (
    EmptyGraph,
    InsufficientData,
    LdcnetError,
    MalformedLine,
    NoConvergence,
    NonMonotoneTimestamp,
    NoRecords,
    UndefinedActualCorrelation,
)
from .graph import WeightedDigraph
from .manifest import RunManifest, file_digest, load_manifest, utc_now
from .metrics import covariates, write_stats_csv
from .stats import (
    FULL_GRID_MS_VALUES,
    FULL_GRID_WS_VALUES,
    PermutationConfig,
    SD_CONVENTION,
    cell_dir_name,
    evaluate_cells,
    permutation_test,
    summary_columns,
    summary_row,
    write_distance_csv,
    write_grid_summary,
    write_spearman_csv,
)
from .textio import format_number, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_UNDEFINED = 4

SEED_ENV_VAR = "LDC_SEED"


class _UsageError(Exception):
    """Command-level usage problem mapped to exit code 1."""


#: Exit code for an exception escaping a command; the first matching row wins,
#: so UnicodeDecodeError must come before its base class ValueError.
_EXIT_CODES = (
    (_UsageError, EXIT_USAGE),
    (MalformedLine, EXIT_INPUT),
    (NonMonotoneTimestamp, EXIT_INPUT),
    (OSError, EXIT_INPUT),
    (UnicodeDecodeError, EXIT_INPUT),
    (ValueError, EXIT_USAGE),
    (NoRecords, EXIT_EMPTY),
    (EmptyGraph, EXIT_EMPTY),
    (NoConvergence, EXIT_UNDEFINED),
    (UndefinedActualCorrelation, EXIT_UNDEFINED),
    (LdcnetError, EXIT_INPUT),
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> int:
    print(f"ldcnet: {message}", file=sys.stderr)
    return code


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(format_number(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_json(payload, path) -> None:
    write_json(_round12(payload), path)


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _jobs_count(raw: str) -> int:
    """``--jobs``: a worker count of at least 1."""
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return int(raw)


def _new_manifest(args: argparse.Namespace, parameters: dict) -> RunManifest:
    """The command's manifest, with the seed and start time :func:`main` resolved."""
    return RunManifest(
        command=args.command,
        parameters=parameters,
        seed=args.seed,
        version=__version__,
        started_at=args.started_at,
    )


def _write_output(args: argparse.Namespace, parameters: dict, source: str,
                  write: Callable[[str], None]) -> None:
    """The tail of every single-file command: record ``source``, write
    ``args.out`` with ``write``, record it, and write its manifest beside it."""
    manifest = _new_manifest(args, parameters)
    manifest.add_input(source)
    write(args.out)
    manifest.add_output(args.out)
    manifest.write(f"{args.out}.manifest.json")


def _parse_grid_spec(spec: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grid flag: the "paper" 90-cell preset or "ws=A..B,ms=C..D" ranges."""
    if spec == "paper":
        return FULL_GRID_WS_VALUES, FULL_GRID_MS_VALUES
    values: dict[str, tuple[int, ...]] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad grid component {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("ws", "ms"):
            raise ValueError(f"grid keys are 'ws' and 'ms', got {key!r}")
        if key in values:
            raise ValueError(f"grid key {key!r} given twice")
        if ".." in raw:
            lo, _, hi = raw.partition("..")
            values[key] = tuple(range(int(lo), int(hi) + 1))
        else:
            values[key] = (int(raw),)
        if not values[key]:
            raise ValueError(f"empty range in {part!r}")
    if "ws" not in values or "ms" not in values:
        raise ValueError("grid spec needs both ws and ms")
    return values["ws"], values["ms"]


def _parse_measures(raw: str) -> list[str]:
    if raw == "all":
        return list(MEASURES)
    requested = [m.strip() for m in raw.split(",") if m.strip()]
    if not requested:
        raise ValueError("no measures selected")
    unknown = [m for m in requested if m not in MEASURES]
    if unknown:
        raise ValueError(f"unknown measure(s): {', '.join(unknown)}")
    return requested


# -- commands ----------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus, args.input_format)
    graph = build_graph(corpus, DistanceFunctionParams(args.ws, args.ms))
    if graph.vertex_count == 0:
        raise EmptyGraph(f"empty graph at ws={args.ws} ms={args.ms}")
    _write_output(
        args, {"ws": args.ws, "ms": args.ms, "input_format": args.input_format},
        args.corpus, graph.to_csv,
    )
    print(f"wrote {args.out}: {graph.vertex_count} vertices, {graph.arc_count} arcs")
    return EXIT_OK


def _cmd_centrality(args: argparse.Namespace) -> int:
    measures = _parse_measures(args.measure)
    graph = WeightedDigraph.from_csv(args.graph)
    params = PageRankParams(alpha=args.alpha)
    # compute_all's loop, except that --verbose keeps pagerank's raw update
    # from the one iteration that also gives the scores
    table = {}
    for m in measures:
        if m == "pagerank" and args.verbose:
            table[m], raw, iterations = pagerank_with_raw(graph, params)
        else:
            table[m] = SCORERS[m](graph, params, args.jobs)
    if args.format == "json":
        payload = {
            word: {m: table[m].scores[word] for m in measures}
            for word in sorted(graph.vertices)
        }
        write = functools.partial(_write_json, payload)
    else:
        write = functools.partial(write_centrality_csv, table, layout=args.layout)
    _write_output(
        args,
        {"measures": measures, "alpha": args.alpha, "layout": args.layout,
         "format": args.format},
        args.graph, write,
    )
    if args.verbose and "pagerank" in measures:
        print(f"pagerank converged in {iterations} iterations; raw update per vertex:")
        for word in sorted(raw):
            print(f"  {word}\t{format_number(raw[word])}")
    return EXIT_OK


#: Top-level file of a sweep directory naming what its cells were computed
#: from. It is not digested into the manifest, so it never changes ``outputs``.
RESUME_KEY_FILE = "resume_key.json"

#: The tables a cell may write, in the order it writes them.
CELL_TABLES = ("graph.csv", "centrality.csv", "spearman.csv", "distance.csv")


def _trusted_cells(out_dir: str, key: dict) -> set[str]:
    """Cell directories the key file records as computed under ``key``: the cells
    on its first JSON line, with the key, then one line per cell finished since."""
    try:
        with open(os.path.join(out_dir, RESUME_KEY_FILE), encoding="utf-8") as fh:
            state, *finished = map(json.loads, fh)
    except (OSError, ValueError):  # ValueError covers JSON, UTF-8 and an empty file
        return set()
    cells = state.get("cells") if isinstance(state, dict) and state.get("key") == key else None
    valid = isinstance(cells, list) and all(isinstance(name, str) for name in cells + finished)
    return set(cells + finished) if valid else set()


def _log_resume_key(out_dir: str, mode: str, entry) -> None:
    """Start the key file (``mode`` "w") or append a finished cell's name ("a"),
    unrounded: ``_write_json`` rounds floats, which could merge two alphas."""
    # appending: rewriting the file for every cell cost 7% of a ten-cell sweep
    # on an ext4 disk mounted with discard
    with open(os.path.join(out_dir, RESUME_KEY_FILE), mode, encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _cell_is_complete(cell_dir: str) -> Optional[dict]:
    """Return the cached cell metadata when its files verify, else None."""
    meta_path = os.path.join(cell_dir, "cell.json")
    if not os.path.isfile(meta_path):
        return None
    try:
        meta = load_manifest(meta_path)
    except (OSError, ValueError):
        return None
    row = meta.get("row") if isinstance(meta, dict) else None
    if (
        not isinstance(row, dict)
        or set(row) != set(summary_columns())
        or not all(isinstance(value, str) for value in row.values())
        or meta.get("status") not in ("ok", "empty", "error")
        or not isinstance(meta.get("files"), dict)
        or not set(meta["files"]) <= set(CELL_TABLES)
    ):
        return None
    for name, digest in meta["files"].items():
        path = os.path.join(cell_dir, name)
        if not os.path.isfile(path) or file_digest(path) != digest:
            return None
    return meta


def _write_cell(cell, out_dir: str) -> dict:
    """Write one cell's files and its cell.json; returns the metadata dict."""
    cell_dir = os.path.join(out_dir, cell_dir_name(cell.ws, cell.ms))
    os.makedirs(cell_dir, exist_ok=True)
    for name in CELL_TABLES:
        stale = os.path.join(cell_dir, name)
        if os.path.isfile(stale):
            os.remove(stale)
    files: dict[str, str] = {}
    notes: list[str] = []
    if cell.status == "ok":
        cell.graph.to_csv(os.path.join(cell_dir, "graph.csv"))
        write_centrality_csv(cell.measures, os.path.join(cell_dir, "centrality.csv"))
        write_spearman_csv(cell, os.path.join(cell_dir, "spearman.csv"))
        try:
            write_distance_csv(cell, os.path.join(cell_dir, "distance.csv"))
        except InsufficientData as exc:
            notes.append(f"distance matrix skipped: {exc}")
        for name in CELL_TABLES:
            path = os.path.join(cell_dir, name)
            if os.path.isfile(path):
                files[name] = file_digest(path)
    meta = {
        "ws": cell.ws,
        "ms": cell.ms,
        "status": cell.status,
        "row": summary_row(cell),
        "files": files,
        "notes": notes,
    }
    _write_json(meta, os.path.join(cell_dir, "cell.json"))
    return meta


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        ws_values, ms_values = _parse_grid_spec(args.grid)
    except ValueError as exc:
        raise _UsageError(f"bad --grid value: {exc}") from None
    grid = [(ws, ms) for ws in ws_values for ms in ms_values]
    # every parameter is checked before the output directory is touched
    params = PageRankParams(alpha=args.alpha)
    for ws, ms in grid:
        DistanceFunctionParams(ws, ms)
    corpus = load_corpus(args.corpus, args.input_format)
    if not corpus:
        # before the output directory is made; evaluate_cells would be too late
        raise NoRecords("cannot sweep zero records")

    manifest = _new_manifest(
        args,
        {
            "grid": args.grid,
            "ws_values": list(ws_values),
            "ms_values": list(ms_values),
            "alpha": args.alpha,
            "input_format": args.input_format,
            "jobs": args.jobs,
            "resume": bool(args.resume),
            "sd_convention": SD_CONVENTION,
        },
    )
    # a cell is reused only when the key file lists it under everything the
    # cell depends on; a different key distrusts every cell in the directory
    resume_key = {
        "corpus_sha256": manifest.add_input(args.corpus),
        "input_format": args.input_format,
        "alpha": args.alpha,
        "version": __version__,
    }
    os.makedirs(args.out, exist_ok=True)
    trusted = _trusted_cells(args.out, resume_key)
    metas: dict[tuple[int, int], dict] = {}
    for ws, ms in grid:
        name = cell_dir_name(ws, ms)
        if args.resume and name in trusted:
            meta = _cell_is_complete(os.path.join(args.out, name))
            if meta is not None:
                metas[(ws, ms)] = meta
    pending = [key for key in grid if key not in metas]
    _log_resume_key(args.out, "w", {"key": resume_key, "cells": sorted(trusted)})

    # a cell is trusted once written, so an interrupted sweep keeps it for --resume
    for cell in evaluate_cells(corpus, pending, params, jobs=args.jobs):
        metas[(cell.ws, cell.ms)] = _write_cell(cell, args.out)
        _log_resume_key(args.out, "a", cell_dir_name(cell.ws, cell.ms))

    summary_path = os.path.join(args.out, "grid_summary.csv")
    write_grid_summary([metas[key]["row"] for key in grid], summary_path)

    # only the files this run owns, so stray content in a reused output
    # directory cannot change the manifest: each cell's tables as its
    # cell.json lists them (digested when written, checked on --resume),
    # and cell.json itself
    for ws, ms in grid:
        cell_dir = os.path.join(args.out, cell_dir_name(ws, ms))
        for name, digest in metas[(ws, ms)]["files"].items():
            manifest.add_output(os.path.join(cell_dir, name), root=args.out, digest=digest)
        manifest.add_output(os.path.join(cell_dir, "cell.json"), root=args.out)
    manifest.add_output(summary_path, root=args.out)
    manifest.outputs = dict(sorted(manifest.outputs.items()))
    manifest.write(os.path.join(args.out, "manifest.json"))

    n_failed = sum(1 for key in grid if metas[key]["status"] == "error")
    print(f"sweep: {len(grid)} cells, {n_failed} failed, output in {args.out}")
    if n_failed == len(grid):
        return _fail(EXIT_EMPTY, "all cells failed")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    if (args.ws is None) != (args.ms is None):
        raise _UsageError("--ws and --ms must be given together")
    corpus = load_corpus(args.corpus, args.input_format)
    stats = covariates(corpus)

    ldc_scores = None
    if args.ws is not None:
        graph = build_graph(corpus, DistanceFunctionParams(args.ws, args.ms))
        if graph.vertex_count == 0:
            raise EmptyGraph(f"empty graph at ws={args.ws} ms={args.ms}")
        ldc_scores = dict(ldc_vector(graph, jobs=args.jobs).scores)

    if args.format == "json":
        payload = {}
        for word in sorted(stats):
            entry = asdict(stats[word])
            del entry["word"]
            if ldc_scores is not None:
                entry["ldc"] = ldc_scores.get(word)
            payload[word] = entry
        write = functools.partial(_write_json, payload)
    else:
        write = functools.partial(write_stats_csv, stats, ldc_scores=ldc_scores)
    _write_output(
        args,
        {"ws": args.ws, "ms": args.ms, "format": args.format,
         "input_format": args.input_format},
        args.corpus, write,
    )
    print(f"wrote {args.out}: {len(stats)} words")
    return EXIT_OK


def _cmd_permtest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus, args.input_format)
    config = PermutationConfig(
        ws=args.ws,
        ms=args.ms,
        target=args.target,
        repetitions=args.n,
        seed=args.seed,
        alpha=args.alpha,
        alternative=args.alternative,
    )
    outcome = permutation_test(corpus, config, jobs=args.jobs)
    _write_output(
        args,
        {"ws": args.ws, "ms": args.ms, "target": args.target, "n": args.n,
         "alpha": args.alpha, "alternative": args.alternative,
         "input_format": args.input_format},
        args.corpus, functools.partial(_write_json, outcome.to_dict()),
    )
    print(
        f"actual rho = {outcome.actual_rho:.6g}, permutation p = {outcome.p_value:.6g} "
        f"({outcome.n_effective}/{outcome.repetitions} repetitions)"
    )
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="ldcnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ldcnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes --seed, and --jobs or --input-format only if it reads them
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help=f"master seed (falls back to ${SEED_ENV_VAR}, then 0)")
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--jobs", type=_jobs_count, default=1,
                        help="worker processes, N >= 1 (at most one per task)")
    read_corpus = argparse.ArgumentParser(add_help=False)
    read_corpus.add_argument("--input-format", choices=("csv", "osf-json"), default="csv",
                             help="corpus file layout")

    p = sub.add_parser("build", parents=[seeded, read_corpus],
                       help="build a semantic graph from a transcript corpus")
    p.add_argument("corpus")
    p.add_argument("--ws", type=int, required=True, help="window size (max positional gap)")
    p.add_argument("--ms", type=int, required=True, help="strict minimum subject count")
    p.add_argument("-o", "--out", required=True, help="output graph CSV path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("centrality", parents=[seeded, pooled],
                       help="compute centrality measures for a graph CSV")
    p.add_argument("graph")
    p.add_argument("--measure", default="all",
                   help="'all' or comma-separated measure names")
    p.add_argument("--alpha", type=float, default=0.85, help="pagerank damping")
    p.add_argument("--layout", choices=("wide", "long"), default="wide")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--verbose", action="store_true",
                   help="also print the raw pagerank update")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("sweep", parents=[seeded, pooled, read_corpus],
                       help="evaluate a ws x ms grid and export per-cell results")
    p.add_argument("corpus")
    p.add_argument("--grid", default="paper",
                   help="'paper' (ws 1..9 x ms 3,5,...,21) or e.g. 'ws=1..2,ms=3'")
    p.add_argument("--alpha", type=float, default=0.85, help="pagerank damping")
    p.add_argument("--resume", action="store_true",
                   help="reuse cells computed from the same corpus, input format, "
                        "alpha and version whose files still verify")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("stats", parents=[seeded, pooled, read_corpus],
                       help="export per-word retrieval statistics and covariates")
    p.add_argument("corpus")
    p.add_argument("--ws", type=int, default=None,
                   help="with --ms: also join the detour score at this cell")
    p.add_argument("--ms", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("permtest", parents=[seeded, pooled, read_corpus],
                       help="permutation significance test for the detour score")
    p.add_argument("corpus")
    p.add_argument("--ws", type=int, required=True)
    p.add_argument("--ms", type=int, required=True)
    p.add_argument("--target", choices=("dt_to", "dt_from"), default="dt_from")
    p.add_argument("--n", type=int, default=5000, help="number of repetitions")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--alternative", choices=("two-sided", "greater", "less"),
                   default="two-sided")
    p.add_argument("-o", "--out", required=True, help="output JSON report path")
    p.set_defaults(func=_cmd_permtest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.seed = _resolve_seed(args.seed)
        args.started_at = utc_now()
        return args.func(args)
    except tuple(error for error, _ in _EXIT_CODES) as exc:
        code = next(code for error, code in _EXIT_CODES if isinstance(exc, error))
        if code == EXIT_USAGE:
            print(f"ldcnet {args.command}: error: {exc}", file=sys.stderr)
            return code
        return _fail(code, str(exc))


def entrypoint() -> None:
    sys.exit(main())
