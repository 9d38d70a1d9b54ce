"""Structural and contribution metrics for wiki-style article link
graphs and author edit logs."""

import os
import sys

if "numpy" not in sys.modules:  # wgm makes no BLAS call: skip OpenBLAS's busy-waiting worker pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .degrees import (
    AuthorityQuadrants,
    DegreeHistogram,
    PowerLawFit,
    classify_authorities,
    degree_histogram,
    fit_power_law,
    fit_power_law_mle,
    top_k_by_degree,
)
from .edits import (
    AuthorProfile,
    CategoryStats,
    EditLog,
    EntropyReport,
    active_category_histogram,
    author_entropy,
    build_profiles,
    category_report,
    category_stats,
    edits_per_author,
    entropy_histogram,
    entropy_report,
    max_share,
    pareto_share,
    resolve_edits,
    top_k_share,
)
from .graph import ArticleGraph, DegreeSummary, build_graph, degree_of, mean_degree
from .ingest import (
    CategoryMap,
    EditRecord,
    NodeRecord,
    NodeTable,
    filter_main_namespace,
    load_category_map,
    load_edges,
    load_edit_log,
    load_nodes,
)
from .structure import (
    ClusteringTrace,
    PathSampleResult,
    exact_clustering,
    local_clustering,
    sampled_avg_path,
    sampled_clustering,
)
from .synth import (
    SyntheticEdits,
    generate_preferential,
    generate_uniform,
    generate_zipf_edits,
)

__version__ = "0.1.0"
