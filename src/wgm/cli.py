"""Command-line front end.

Subcommands cover ingestion-backed analyses (degrees, classify,
cluster, paths, fit, categories, entropy), the synthetic generators
(synth), and a combined JSON report (report). Every run with a fixed
config and fixed inputs is byte-reproducible.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 empty-input
error, 5 numeric-domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import degrees as deg
from . import edits as ed
from . import structure as st
from . import synth as sy
from .errors import UsageError, WgmError
from .graph import ArticleGraph, build_graph, mean_degree
from .ingest import (
    NodeRecord,
    filter_main_namespace,
    load_category_map,
    load_edges,
    load_edit_log,
    load_nodes,
    write_category_map,
    write_edges,
    write_edit_log,
    write_nodes,
)

THREADS_ENV = "WGM_THREADS"
# upper bounds checked before any I/O: the sampled pairs and nodes are
# held in arrays, and a histogram has at most ed.MAX_HISTOGRAM_BINS bins
MAX_PAIRS = 10_000_000
MAX_SAMPLES = 10_000_000
MIN_BIN_WIDTH = ed.HISTOGRAM_VALUE_BOUND / ed.MAX_HISTOGRAM_BINS


@dataclass
class RunConfig:
    """Validated parameters for one CLI invocation."""

    command: str
    nodes: str | None = None
    edges: str | None = None
    edits: str | None = None
    catmap: str | None = None
    catnames: str | None = None
    out: str | None = None
    seed: int = 42
    percentile: float = 0.90
    n_samples: int = 50_000
    n_pairs: int = 20_000
    top_fraction: float = 0.2
    x_min: int = 1
    fmt: str = "json"
    include_anonymous: bool = False
    which: str = "total"
    method: str = "ls"
    bin_width: float = 0.25
    undirected: bool = False
    histogram: str = "entropy"
    threads: int = 0
    synth_kind: str | None = None
    n: int = 0
    m: int = 3
    p: float = 0.0
    n_authors: int = 100
    n_categories: int = 40
    total_edits: int = 10_000
    zipf_s: float = 1.0
    home_bias: float = 0.8

    def validate(self) -> None:
        """Check every numeric parameter before any file is touched."""
        checks = [
            (0.0 < self.percentile < 1.0, f"--percentile must be in (0, 1), got {self.percentile}"),
            (1 <= self.n_samples <= MAX_SAMPLES, f"--samples must be in [1, {MAX_SAMPLES}], got {self.n_samples}"),
            (1 <= self.n_pairs <= MAX_PAIRS, f"--pairs must be in [1, {MAX_PAIRS}], got {self.n_pairs}"),
            (0.0 < self.top_fraction <= 1.0, f"--top-fraction must be in (0, 1], got {self.top_fraction}"),
            (self.x_min >= 1, f"--xmin must be >= 1, got {self.x_min}"),
            (self.bin_width >= MIN_BIN_WIDTH, f"--bin-width must be >= {MIN_BIN_WIDTH}, got {self.bin_width}"),
            (self.threads >= 0, f"{THREADS_ENV} must be >= 0, got {self.threads}"),
        ]
        for ok, message in checks:
            if not ok:
                raise UsageError(message)

    def worker_count(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


def _read_threads_env() -> int:
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise UsageError(f"{THREADS_ENV} must be >= 0, got {value}")
    return value


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"--{name} is required for `{cfg.command}`")


def _load_graph(cfg: RunConfig) -> ArticleGraph:
    _require(cfg, "nodes", "edges")
    nodes = load_nodes(cfg.nodes)
    id_space = max((rec.id for rec in nodes), default=-1) + 1
    edges = load_edges(cfg.edges, id_space)
    kept, remapped, _ = filter_main_namespace(nodes, edges)
    return build_graph(remapped, len(kept), titles=[rec.title for rec in kept])


def _load_edit_log(cfg: RunConfig) -> tuple[ed.EditLog, dict[int, str]]:
    _require(cfg, "edits", "catmap", "catnames")
    records = load_edit_log(cfg.edits)
    catmap = load_category_map(cfg.catmap, cfg.catnames)
    log = ed.resolve_edits(records, catmap, catmap.categories())
    return log, catmap.category_names


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _kv_csv(pairs: list[tuple[str, object]]) -> str:
    lines = ["key,value"]
    lines += [f"{k},{v!r}" if isinstance(v, float) else f"{k},{v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _histogram_payload(hist: deg.DegreeHistogram) -> dict:
    return {
        "which": hist.which,
        "entries": [[k, hist.entries[k]] for k in sorted(hist.entries)],
        "zero_count": hist.zero_count,
    }


def _graph_payload(graph: ArticleGraph) -> dict:
    total = graph.indegrees() + graph.outdegrees()
    return {
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "mean_degree": mean_degree(graph) if graph.node_count else None,
        "isolated_nodes": int((total == 0).sum()),
        "dropped_self_loops": graph.dropped_self_loops,
        "dropped_duplicate_edges": graph.dropped_duplicates,
    }


def _top_payload(graph: ArticleGraph, which: str, k: int = 10) -> list[list]:
    rows = []
    for node, degree in deg.top_k_by_degree(graph, which, k):
        row: list = [node, degree]
        if graph.titles is not None:
            row.append(graph.titles[node])
        rows.append(row)
    return rows


def _quadrants_payload(q: deg.AuthorityQuadrants) -> dict:
    return {
        "all_round": q.all_round,
        "referring": q.referring,
        "guru": q.guru,
        "regular": q.regular,
        "in_threshold": q.in_threshold,
        "out_threshold": q.out_threshold,
    }


def _trace_payload(trace: st.ClusteringTrace) -> dict:
    return {
        "estimates": [[s, m] for s, m in trace.estimates],
        "final_estimate": trace.final_estimate,
        "seed": trace.seed,
    }


def _paths_payload(res: st.PathSampleResult) -> dict:
    return {
        "mean_path_length": _jsonable(res.mean_path_length),
        "reachable_pairs": res.reachable_pairs,
        "sampled_pairs": res.sampled_pairs,
        "unreachable_fraction": res.unreachable_fraction,
        "seed": res.seed,
    }


def _fit_payload(fit: deg.PowerLawFit) -> dict:
    return {
        "alpha": fit.alpha,
        "log_prefactor": fit.log_prefactor,
        "x_min": fit.x_min,
        "r_squared": fit.r_squared,
        "points_used": fit.points_used,
    }


def _category_payload(log: ed.EditLog, names: dict[int, str], cfg: RunConfig) -> list[dict]:
    rows = []
    for cat in sorted({c for _, c in log.resolved}):
        try:
            stats = ed.category_stats(log, cat, cfg.top_fraction, cfg.include_anonymous)
        except WgmError:
            continue  # only anonymous edits and those are excluded
        rows.append(
            {
                "category_id": stats.category_id,
                "category": names.get(cat, str(cat)),
                "n_edits": stats.n_edits,
                "n_authors": stats.n_authors,
                "ea_bar": stats.ea_bar,
                "top_fraction_share": stats.top_fraction_share,
                "top1_share": stats.top1_share,
            }
        )
    return rows


def _entropy_payload(log: ed.EditLog, cfg: RunConfig) -> dict:
    report = ed.entropy_report(log)
    active = ed.active_category_histogram(log)
    anon_active = sum(1 for (a, _c) in log.resolved if a == ed.ANONYMOUS_AUTHOR) or None
    return {
        "entries": [[a, h] for a, h in report.entries],
        "min_entropy": report.min_entropy,
        "max_entropy": report.max_entropy,
        "mean_entropy": report.mean_entropy,
        "histogram": [[lo, hi, c] for lo, hi, c in ed.entropy_histogram(report, cfg.bin_width)],
        "active_categories": [[k, active[k]] for k in sorted(active)],
        "anonymous_active_categories": anon_active,
        "max_share_histogram": [[lo, hi, c] for lo, hi, c in ed.max_share_histogram(log)],
    }


def _fit_for(cfg: RunConfig, graph: ArticleGraph) -> deg.PowerLawFit:
    hist = deg.degree_histogram(graph, cfg.which)
    fitter = deg.fit_power_law_mle if cfg.method == "mle" else deg.fit_power_law
    return fitter(hist, cfg.x_min)


def _cmd_degrees(cfg: RunConfig) -> None:
    graph = _load_graph(cfg)
    hist = deg.degree_histogram(graph, cfg.which)
    if cfg.fmt == "csv":
        _emit(deg.histogram_csv(hist), cfg.out)
        return
    payload = _graph_payload(graph)
    payload["histogram"] = _histogram_payload(hist)
    payload["top_in"] = _top_payload(graph, "in")
    payload["top_out"] = _top_payload(graph, "out")
    _emit_json(payload, cfg.out)


def _cmd_classify(cfg: RunConfig) -> None:
    quadrants = deg.classify_authorities(_load_graph(cfg), cfg.percentile)
    payload = _quadrants_payload(quadrants)
    if cfg.fmt == "csv":
        _emit(_kv_csv(sorted(payload.items())), cfg.out)
    else:
        _emit_json(payload, cfg.out)


def _cmd_cluster(cfg: RunConfig) -> None:
    trace = st.sampled_clustering(_load_graph(cfg), cfg.n_samples, cfg.seed)
    if cfg.fmt == "csv":
        _emit(st.trace_csv(trace), cfg.out)
    else:
        _emit_json(_trace_payload(trace), cfg.out)


def _cmd_paths(cfg: RunConfig) -> None:
    result = st.sampled_avg_path(
        _load_graph(cfg), cfg.n_pairs, cfg.seed, directed=not cfg.undirected
    )
    payload = _paths_payload(result)
    if cfg.fmt == "csv":
        _emit(_kv_csv(sorted(payload.items())), cfg.out)
    else:
        _emit_json(payload, cfg.out)


def _cmd_fit(cfg: RunConfig) -> None:
    fit = _fit_for(cfg, _load_graph(cfg))
    payload = _fit_payload(fit)
    if cfg.fmt == "csv":
        _emit(_kv_csv(sorted(payload.items())), cfg.out)
    else:
        _emit_json(payload, cfg.out)


def _cmd_categories(cfg: RunConfig) -> None:
    log, names = _load_edit_log(cfg)
    if cfg.fmt == "csv":
        _emit(ed.category_report_csv(log, names, cfg.top_fraction, cfg.include_anonymous), cfg.out)
    else:
        _emit_json(_category_payload(log, names, cfg), cfg.out)


def _cmd_entropy(cfg: RunConfig) -> None:
    log, _ = _load_edit_log(cfg)
    if cfg.fmt == "csv":
        if cfg.histogram == "active":
            _emit(ed.active_category_csv(log), cfg.out)
        elif cfg.histogram == "max-share":
            _emit(ed.max_share_histogram_csv(log, cfg.bin_width), cfg.out)
        else:
            _emit(ed.entropy_histogram_csv(ed.entropy_report(log), cfg.bin_width), cfg.out)
    else:
        _emit_json(_entropy_payload(log, cfg), cfg.out)


def _cmd_synth(cfg: RunConfig) -> None:
    if cfg.out is None:
        raise UsageError("--out directory is required for `synth`")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    if cfg.synth_kind in ("preferential", "uniform"):
        if cfg.synth_kind == "preferential":
            spec = sy.GeneratorSpec("preferential_attachment", n=cfg.n, m=cfg.m, seed=cfg.seed)
        else:
            spec = sy.GeneratorSpec("uniform_random", n=cfg.n, p=cfg.p, seed=cfg.seed)
        graph = spec.generate()
        write_nodes(
            (NodeRecord(i, f"v{i}", 0) for i in range(graph.node_count)), outdir / "nodes.tsv"
        )
        write_edges(map(tuple, graph.edges().tolist()), outdir / "edges.tsv")
        written += ["nodes.tsv", "edges.tsv"]
    elif cfg.synth_kind == "zipf-edits":
        data = sy.generate_zipf_edits(
            cfg.n_authors, cfg.n_categories, cfg.total_edits, cfg.zipf_s, cfg.seed, cfg.home_bias
        )
        write_edit_log(data.records, outdir / "edits.tsv")
        write_category_map(data.category_map, outdir / "catmap.tsv", outdir / "catnames.tsv")
        written += ["edits.tsv", "catmap.tsv", "catnames.tsv"]
    else:
        raise UsageError(f"unknown synth kind {cfg.synth_kind!r}")

    _emit_json({"out_dir": str(outdir), "written": written, "seed": cfg.seed}, None)


def _cmd_report(cfg: RunConfig) -> None:
    graph = _load_graph(cfg)
    sections: dict[str, object] = {
        "config": {
            "seed": cfg.seed,
            "percentile": cfg.percentile,
            "n_samples": cfg.n_samples,
            "n_pairs": cfg.n_pairs,
            "top_fraction": cfg.top_fraction,
            "x_min": cfg.x_min,
            "include_anonymous": cfg.include_anonymous,
        }
    }
    jobs: dict[str, object] = {
        "graph": lambda: _graph_payload(graph),
        "degree_histogram": lambda: _histogram_payload(deg.degree_histogram(graph, "total")),
        "classification": lambda: _quadrants_payload(
            deg.classify_authorities(graph, cfg.percentile)
        ),
        "clustering": lambda: _trace_payload(
            st.sampled_clustering(graph, cfg.n_samples, cfg.seed)
        ),
        "paths": lambda: _paths_payload(
            st.sampled_avg_path(graph, cfg.n_pairs, cfg.seed, directed=not cfg.undirected)
        ),
        "degree_fit": lambda: _fit_payload(_fit_for(cfg, graph)),
    }
    if cfg.edits is not None:
        log, names = _load_edit_log(cfg)
        jobs["categories"] = lambda: _category_payload(log, names, cfg)
        jobs["entropy"] = lambda: _entropy_payload(log, cfg)

    def guarded(job):
        # a section that is undefined for this input reports its reason
        # instead of sinking the whole document
        try:
            return job()
        except WgmError as err:
            return {"error": str(err)}

    # sections are independent; assembly order is fixed regardless of scheduling
    with ThreadPoolExecutor(max_workers=cfg.worker_count()) as pool:
        futures = {name: pool.submit(guarded, job) for name, job in jobs.items()}
        for name in jobs:
            sections[name] = futures[name].result()
    _emit_json(sections, cfg.out)


_COMMANDS = {
    "degrees": _cmd_degrees,
    "classify": _cmd_classify,
    "cluster": _cmd_cluster,
    "paths": _cmd_paths,
    "fit": _cmd_fit,
    "categories": _cmd_categories,
    "entropy": _cmd_entropy,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def _add_io_flags(sub, graph=False, edit=False):
    if graph:
        sub.add_argument("--nodes", help="node table TSV (id, title, namespace)")
        sub.add_argument("--edges", help="edge list TSV (source_id, target_id)")
    if edit:
        sub.add_argument("--edits", help="edit log TSV (author_id, article_id)")
        sub.add_argument("--catmap", help="article-to-category TSV")
        sub.add_argument("--catnames", help="category-name TSV")
    sub.add_argument("--out", help="output path (stdout if omitted)")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    sub.add_argument("--seed", type=int, default=42)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgm", description="Structural and contribution metrics for wiki link graphs."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("degrees", help="degree summary and histogram export")
    _add_io_flags(s, graph=True)
    s.add_argument("--which", choices=deg.SELECTORS, default="total")

    s = subs.add_parser("classify", help="authority quadrant counts")
    _add_io_flags(s, graph=True)
    s.add_argument("--percentile", type=float, default=0.90)

    s = subs.add_parser("cluster", help="sampled clustering estimate and trace")
    _add_io_flags(s, graph=True)
    s.add_argument("--samples", dest="n_samples", type=int, default=50_000)

    s = subs.add_parser("paths", help="sampled average shortest path length")
    _add_io_flags(s, graph=True)
    s.add_argument("--pairs", dest="n_pairs", type=int, default=20_000)
    s.add_argument("--undirected", action="store_true", help="use the undirected projection")

    s = subs.add_parser("fit", help="power-law exponent of the degree histogram")
    _add_io_flags(s, graph=True)
    s.add_argument("--which", choices=deg.SELECTORS, default="total")
    s.add_argument("--xmin", dest="x_min", type=int, default=1)
    s.add_argument("--method", choices=("ls", "mle"), default="ls")

    s = subs.add_parser("categories", help="per-category contribution statistics")
    _add_io_flags(s, edit=True)
    s.add_argument("--top-fraction", dest="top_fraction", type=float, default=0.2)
    s.add_argument("--include-anonymous", action="store_true")

    s = subs.add_parser("entropy", help="author entropy report and activity histograms")
    _add_io_flags(s, edit=True)
    s.add_argument("--bin-width", dest="bin_width", type=float, default=0.25)
    s.add_argument(
        "--histogram",
        choices=("entropy", "active", "max-share"),
        default="entropy",
        help="which histogram the csv format exports",
    )

    s = subs.add_parser("synth", help="write synthetic TSV datasets")
    s.add_argument("--kind", dest="synth_kind", choices=("preferential", "uniform", "zipf-edits"), required=True)
    s.add_argument("--out", required=False)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--n", type=int, default=1000, help="node count for graph kinds")
    s.add_argument("--m", type=int, default=3, help="edges per new node (preferential)")
    s.add_argument("--p", type=float, default=0.01, help="edge probability (uniform)")
    s.add_argument("--authors", dest="n_authors", type=int, default=100)
    s.add_argument("--categories", dest="n_categories", type=int, default=40)
    s.add_argument("--edits-total", dest="total_edits", type=int, default=10_000)
    s.add_argument("--zipf-s", dest="zipf_s", type=float, default=1.0)
    s.add_argument("--home-bias", dest="home_bias", type=float, default=0.8)

    s = subs.add_parser("report", help="all analyses in one JSON document")
    _add_io_flags(s, graph=True, edit=True)
    s.add_argument("--percentile", type=float, default=0.90)
    s.add_argument("--samples", dest="n_samples", type=int, default=50_000)
    s.add_argument("--pairs", dest="n_pairs", type=int, default=20_000)
    s.add_argument("--undirected", action="store_true")
    s.add_argument("--which", choices=deg.SELECTORS, default="total")
    s.add_argument("--xmin", dest="x_min", type=int, default=1)
    s.add_argument("--method", choices=("ls", "mle"), default="ls")
    s.add_argument("--top-fraction", dest="top_fraction", type=float, default=0.2)
    s.add_argument("--include-anonymous", action="store_true")
    s.add_argument("--bin-width", dest="bin_width", type=float, default=0.25)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, threads=_read_threads_env())
    for name, value in vars(args).items():
        if name != "command" and hasattr(cfg, name) and value is not None:
            setattr(cfg, name, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        cfg.validate()
        _COMMANDS[cfg.command](cfg)
    except WgmError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
