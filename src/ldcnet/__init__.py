"""Local detour centrality toolkit for fluency-derived semantic networks.

Builds weighted directed graphs from timestamped word-fluency transcripts,
computes the local detour score alongside six baseline centrality measures,
and runs the correlation sweep and permutation significance analyses over a
window-size x minimum-subjects parameter grid.
"""

__version__ = "0.1.0"

from .centrality import (
    MEASURES,
    CentralityVector,
    NeighborhoodContext,
    PageRankParams,
    betweenness,
    build_context,
    closeness,
    compute_all,
    degree,
    ldc,
    ldc_vector,
    pagerank,
    triangles,
)
from .corpus import (
    DistanceFunctionParams,
    EncodedCorpus,
    FluencyRecord,
    build_graph,
    collapse_first_occurrence,
    emit_corpus,
    encode,
    load_corpus,
    normalize_record,
    parse_corpus,
    shuffle_records,
)
from .errors import LdcnetError
from .graph import DistanceMatrix, WeightedDigraph
from .metrics import RetrievalStats, covariates, dt_from, dt_to
from .stats import (
    FULL_GRID_MS_VALUES,
    FULL_GRID_WS_VALUES,
    VARIABLES,
    GridResult,
    PermutationConfig,
    PermutationOutcome,
    correlation_distance_matrix,
    exclude_outliers,
    grid_sweep,
    permutation_test,
    spearman,
)

__all__ = [
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
    "collapse_first_occurrence",
    "compute_all",
    "correlation_distance_matrix",
    "covariates",
    "degree",
    "dt_from",
    "dt_to",
    "emit_corpus",
    "encode",
    "exclude_outliers",
    "grid_sweep",
    "ldc",
    "ldc_vector",
    "load_corpus",
    "normalize_record",
    "pagerank",
    "parse_corpus",
    "permutation_test",
    "shuffle_records",
    "spearman",
    "triangles",
]
