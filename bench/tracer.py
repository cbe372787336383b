"""Span and counter recording around ldcnet's public functions, from outside.

Nothing in the package changes. :class:`Tracer` replaces each traced
function at every binding it is reached through: ``from .corpus import
build_graph`` copies the function into ``stats`` and ``cli``, and
``compute_all`` finds ``ldc_vector`` in ``centrality``'s globals, so the
wrapper goes into every ``ldcnet`` module attribute that holds the original
object. Methods are wrapped on their class. ``uninstall`` puts every
original back.

Spans are kept in memory as (name, start, end, parent); a span's self time
is its duration minus the durations of its direct children. Calls are
single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

_MARK = "__bench_traced__"

#: (module, attribute path, span name). A dotted attribute path is a method.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("ldcnet.cli", "main", "cli.main"),
    ("ldcnet.corpus", "load_corpus", "corpus.load_corpus"),
    ("ldcnet.corpus", "build_graph", "corpus.build_graph"),
    ("ldcnet.corpus", "shuffle_records", "corpus.shuffle_records"),
    ("ldcnet.graph", "WeightedDigraph.mean_pairwise_distance", "graph.mean_pairwise_distance"),
    ("ldcnet.graph", "WeightedDigraph.to_csv", "graph.to_csv"),
    ("ldcnet.centrality", "compute_all", "centrality.compute_all"),
    ("ldcnet.centrality", "ldc_vector", "centrality.ldc_vector"),
    ("ldcnet.centrality", "build_context", "centrality.build_context"),
    ("ldcnet.centrality", "degree", "centrality.degree"),
    ("ldcnet.centrality", "closeness", "centrality.closeness"),
    ("ldcnet.centrality", "triangles", "centrality.triangles"),
    ("ldcnet.centrality", "pagerank", "centrality.pagerank"),
    ("ldcnet.centrality", "betweenness", "centrality.betweenness"),
    ("ldcnet.centrality", "write_centrality_csv", "centrality.write_centrality_csv"),
    ("ldcnet.metrics", "covariates", "metrics.covariates"),
    ("ldcnet.stats", "evaluate_cell", "stats.evaluate_cell"),
    ("ldcnet.stats", "spearman", "stats.spearman"),
    ("ldcnet.stats", "exclude_outliers", "stats.exclude_outliers"),
    ("ldcnet.stats", "ldc_dt_correlation", "stats.ldc_dt_correlation"),
    ("ldcnet.stats", "permutation_test", "stats.permutation_test"),
    ("ldcnet.stats", "write_spearman_csv", "stats.write_spearman_csv"),
    ("ldcnet.stats", "write_distance_csv", "stats.write_distance_csv"),
    ("ldcnet.manifest", "file_digest", "manifest.file_digest"),
)

#: Exact counters; each must repeat exactly for the same input.
COUNTERS = (
    "graph.vertices",
    "graph.arcs",
    "centrality.ldc.members",
    "centrality.ldc.dijkstra_runs",
    "stats.cells_ok",
    "stats.cells_empty",
    "stats.cells_error",
    "stats.perm.attempts",
    "stats.perm.failed",
    "manifest.file_digest.bytes",
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ldcnet" or name.startswith("ldcnet."))]


class Tracer:
    """Wraps the functions in :data:`TRACED`; records spans and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        from ldcnet.errors import LdcnetError

        self._ldcnet_error = LdcnetError
        modules = _package_modules()
        for module_name, attr, span in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(original, span))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, key: str, wrapper: Callable) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, span: str) -> Callable:
        hook: Optional[Callable] = getattr(self, "_on_" + span.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [span, clock(), 0.0, parent]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    # Counter hooks: called in place of the wrapped function, inside its span.

    def _on_corpus_build_graph(self, fn, args, kwargs):
        graph = fn(*args, **kwargs)
        self.counters["graph.vertices"] += graph.vertex_count
        self.counters["graph.arcs"] += graph.arc_count
        return graph

    def _on_centrality_ldc_vector(self, fn, args, kwargs):
        # derived: the all-pairs table under the detour score is V Dijkstra runs
        self.counters["centrality.ldc.dijkstra_runs"] += args[0].vertex_count
        return fn(*args, **kwargs)

    def _on_centrality_build_context(self, fn, args, kwargs):
        ctx = fn(*args, **kwargs)
        self.counters["centrality.ldc.members"] += len(ctx.members)
        self.counters["centrality.ldc.dijkstra_runs"] += len(ctx.members)
        return ctx

    def _on_stats_evaluate_cell(self, fn, args, kwargs):
        cell = fn(*args, **kwargs)
        self.counters[f"stats.cells_{cell.status}"] += 1
        return cell

    def _on_corpus_shuffle_records(self, fn, args, kwargs):
        self.counters["stats.perm.attempts"] += 1
        return fn(*args, **kwargs)

    def _on_stats_ldc_dt_correlation(self, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        except self._ldcnet_error:
            self.counters["stats.perm.failed"] += 1
            raise

    def _on_manifest_file_digest(self, fn, args, kwargs):
        self.counters["manifest.file_digest.bytes"] += os.path.getsize(args[0])
        return fn(*args, **kwargs)

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        for key in self.counters:
            self.counters[key] = 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration ``s``, ``self_s`` and ``calls``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return dict(out)


def leftover_wrappers() -> list[str]:
    """Bindings in loaded ldcnet modules or classes that still hold a wrapper."""
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, _MARK, False):
                        found.append(f"{module.__name__}.{key}.{meth}")
    return found
