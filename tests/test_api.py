"""The package's public surface: ``ldcnet.__all__``, and the names that only tests read."""

import importlib

import ldcnet

PUBLIC = [
    "__version__",
    "MEASURES",
    "VARIABLES",
    "FULL_GRID_WS_VALUES",
    "FULL_GRID_MS_VALUES",
    "CentralityVector",
    "DistanceFunctionParams",
    "DistanceMatrix",
    "EncodedCorpus",
    "FluencyRecord",
    "GridResult",
    "LdcnetError",
    "NeighborhoodContext",
    "PageRankParams",
    "PermutationConfig",
    "PermutationOutcome",
    "RetrievalStats",
    "WeightedDigraph",
    "betweenness",
    "build_context",
    "build_graph",
    "closeness",
    "compute_all",
    "correlation_distance_matrix",
    "covariates",
    "degree",
    "dt_from",
    "dt_to",
    "encode",
    "exclude_outliers",
    "grid_sweep",
    "ldc",
    "ldc_vector",
    "load_corpus",
    "pagerank",
    "parse_corpus",
    "permutation_test",
    "shuffle_records",
    "spearman",
    "triangles",
]

#: Reference helpers that no command reaches, kept in ``tests/`` instead:
#: (defining module, name or ``Class.attribute``).
REMOVED = [
    ("ldcnet.corpus", "normalize_record"),
    ("ldcnet.corpus", "collapse_first_occurrence"),
    ("ldcnet.corpus", "emit_corpus"),
    ("ldcnet.errors", "EmptyRecord"),
    ("ldcnet.graph", "WeightedDigraph.sssp"),
    ("ldcnet.graph", "WeightedDigraph.local_neighborhood"),
    ("ldcnet.centrality", "NeighborhoodContext.with_distances"),
    ("ldcnet.centrality", "NeighborhoodContext.without_distances"),
    ("ldcnet.centrality", "NeighborhoodContext.with_matrix"),
    ("ldcnet.centrality", "NeighborhoodContext.without_matrix"),
]


def test_all_lists_the_public_names_and_each_resolves():
    assert ldcnet.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(ldcnet, name)]
    assert missing == []


def test_removed_names_are_gone_from_the_package_and_their_module():
    for module_name, path in REMOVED:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            assert getattr(ldcnet, cls_name) is cls
            assert not hasattr(cls, attr), path
        else:
            assert not hasattr(module, path), path
            assert not hasattr(ldcnet, path), path
