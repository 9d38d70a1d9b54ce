"""Command-line front end.

Subcommands cover ingestion-backed analyses (degrees, classify,
cluster, paths, fit, categories, entropy), the synthetic generators
(synth), and a combined JSON report (report). Every run with a fixed
config and fixed inputs is byte-reproducible.

Each parameter is one `RunConfig` field, holding its default, flag and parser
settings. `_write` is the only code that touches stdout: it writes and flushes every
byte, `--help` included. `main` is the only code that touches stderr.

Exit codes: 0 success, 2 usage error (an --out or a stdout that cannot be written,
or is closed, included), 3 parse error, 4 empty-input error, 5 numeric-domain error.
`main(argv)` returns the code and writes one `error:` line, unless stderr is closed.
`run()`, behind `python -m wgm.cli` and `wgm`, ends the process with `os._exit(main())`:
nothing is left to flush, and no `atexit` handler or interpreter teardown runs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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

# upper bounds checked before any I/O: the sampled pairs and nodes are
# held in arrays, and a histogram has at most ed.MAX_HISTOGRAM_BINS bins
MAX_PAIRS = 10_000_000
MAX_SAMPLES = 10_000_000
MIN_BIN_WIDTH = ed.HISTOGRAM_VALUE_BOUND / ed.MAX_HISTOGRAM_BINS
# `synth` sizes: nodes, authors, categories, edits and the expected edge count
MAX_SYNTH = 10_000_000
# edge rows `synth` turns into Python ints at a time, so that no list of every edge is built
SYNTH_BLOCK = 65_536

# CSV columns of the commands whose export is a table
DEGREE_COLUMNS = ("degree", "count")
TRACE_COLUMNS = ("samples", "running_mean")
# each `categories` CSV header and the CategoryStats field under it
CATEGORY_COLUMNS = {
    "category": "category", "n_edits": "n_edits", "n_authors": "n_authors", "ea_bar": "ea_bar",
    "top20pct_share": "top_fraction_share", "top1_share": "top1_share",
}
BIN_COLUMNS = ("bin_lower", "bin_upper", "author_count")
ACTIVE_COLUMNS = ("active_categories", "author_count")
# the RunConfig fields that `report` echoes in its config block
REPORT_CONFIG = ("seed", "percentile", "n_samples", "n_pairs", "top_fraction", "x_min", "include_anonymous")


def _flag(flag: str, default=None, **spec):
    """A RunConfig field: its default, and its flag with the flag's argparse settings."""
    return field(default=default, metadata={flag: spec})


@dataclass
class RunConfig:
    """Validated parameters for one CLI invocation. Each field but `command` is
    one parameter, the only place its default, flag and parser settings are written."""

    command: str
    nodes: str | None = _flag("--nodes", help="node table TSV (id, title, namespace)")
    edges: str | None = _flag("--edges", help="edge list TSV (source_id, target_id)")
    edits: str | None = _flag("--edits", help="edit log TSV (author_id, article_id)")
    catmap: str | None = _flag("--catmap", help="article-to-category TSV")
    catnames: str | None = _flag("--catnames", help="category-name TSV")
    out: str | None = _flag("--out", help="output path (stdout if omitted)")
    seed: int = _flag("--seed", 42, type=int)
    percentile: float = _flag("--percentile", 0.90, type=float)
    n_samples: int = _flag("--samples", 50_000, type=int)
    n_pairs: int = _flag("--pairs", 20_000, type=int)
    top_fraction: float = _flag("--top-fraction", 0.2, type=float)
    x_min: int = _flag("--xmin", 1, type=int)
    fmt: str = _flag("--format", "json", choices=("csv", "json"))
    include_anonymous: bool = _flag("--include-anonymous", False, action="store_true")
    which: str = _flag("--which", "total", choices=deg.SELECTORS)
    method: str = _flag("--method", "ls", choices=("ls", "mle"))
    bin_width: float = _flag("--bin-width", 0.25, type=float)
    undirected: bool = _flag("--undirected", False, action="store_true", help="use the undirected projection")
    histogram: str = _flag(
        "--histogram", "entropy", choices=("entropy", "active", "max-share"),
        help="which histogram the csv format exports (--bin-width sets the entropy one)",
    )
    synth_kind: str | None = _flag("--kind", choices=("preferential", "uniform", "zipf-edits"), required=True)
    n: int = _flag("--n", 1000, type=int, help="node count for graph kinds")
    m: int = _flag("--m", 3, type=int, help="edges per new node (preferential)")
    p: float = _flag("--p", 0.01, type=float, help="edge probability (uniform)")
    n_authors: int = _flag("--authors", 100, type=int)
    n_categories: int = _flag("--categories", 40, type=int)
    total_edits: int = _flag("--edits-total", 10_000, type=int)
    zipf_s: float = _flag("--zipf-s", 1.0, type=float)
    home_bias: float = _flag("--home-bias", 0.8, type=float)

    def _expected_edges(self) -> float:
        """The edge count `synth` would generate for a valid graph spec; 0
        for an invalid one, which the generator rejects, and for more than
        MAX_SYNTH nodes, which the node cap rejects."""
        if not 0 <= self.n <= MAX_SYNTH:
            return 0
        if self.synth_kind == "preferential" and 1 <= self.m < self.n:
            return self.n * self.m
        if self.synth_kind == "uniform" and 0.0 <= self.p <= 1.0:
            return self.p * self.n * (self.n - 1)
        return 0

    def validate(self) -> None:
        """Check every numeric parameter before any file is touched."""
        sizes = {
            "--n": self.n,
            "--authors": self.n_authors,
            "--categories": self.n_categories,
            "--edits-total": self.total_edits,
            "the edge count to generate": self._expected_edges(),
        }
        checks = [
            (self.seed >= 0, f"--seed must be >= 0, got {self.seed}"),
            *((size <= MAX_SYNTH, f"{name} must be <= {MAX_SYNTH}, got {size}") for name, size in sizes.items()),
            (0.0 < self.percentile < 1.0, f"--percentile must be in (0, 1), got {self.percentile}"),
            (1 <= self.n_samples <= MAX_SAMPLES, f"--samples must be in [1, {MAX_SAMPLES}], got {self.n_samples}"),
            (1 <= self.n_pairs <= MAX_PAIRS, f"--pairs must be in [1, {MAX_PAIRS}], got {self.n_pairs}"),
            (0.0 < self.top_fraction <= 1.0, f"--top-fraction must be in (0, 1], got {self.top_fraction}"),
            (self.x_min >= 1, f"--xmin must be >= 1, got {self.x_min}"),
            (self.bin_width >= MIN_BIN_WIDTH, f"--bin-width must be >= {MIN_BIN_WIDTH}, got {self.bin_width}"),
            (math.isfinite(self.bin_width), f"--bin-width must be finite, got {self.bin_width}"),
            (self.command != "report" or self.fmt == "json", "`report` writes JSON only, not --format csv"),
        ]
        for ok, message in checks:
            if not ok:
                raise UsageError(message)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"--{name} is required for `{cfg.command}`")


def _load_graph(cfg: RunConfig) -> ArticleGraph:
    _require(cfg, "nodes", "edges")
    nodes = load_nodes(cfg.nodes)
    edges = load_edges(cfg.edges)
    kept, remapped = filter_main_namespace(nodes, edges, path=cfg.edges)
    return build_graph(remapped, len(kept), titles=kept.titles)


def _load_edit_log(cfg: RunConfig) -> tuple[ed.EditLog, dict[int, str]]:
    _require(cfg, "edits", "catmap", "catnames")
    records = load_edit_log(cfg.edits)
    catmap = load_category_map(cfg.catmap, cfg.catnames)
    log = ed.resolve_edits(records, catmap, catmap.categories())
    return log, catmap.category_names


@functools.cache
def _names(cls: type) -> tuple[str, ...] | None:
    """A dataclass type's field and property names in sorted order, or None for any other type."""
    if not is_dataclass(cls):
        return None
    props = (name for name, attr in vars(cls).items() if isinstance(attr, property))
    return tuple(sorted((*(f.name for f in fields(cls)), *props)))


# the float reprs that are not JSON
_FLOAT_JSON = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value, pad: str = "\n") -> str:
    """The JSON form of a result, as `json.dumps(..., sort_keys=True, indent=2)`
    writes it, where `pad` is the newline and indent of its own nesting level.

    A dataclass becomes its fields and properties by name, an int-keyed
    dict its ascending [key, value] rows, a tuple a list, and NaN null.
    A subclass of float, int, str, list, tuple or dict (np.float64, say)
    is written as its base type.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is float:
        text = repr(value)
        return _FLOAT_JSON.get(text, text)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    deeper = pad + "  "
    if kind is list or kind is tuple:
        items, ends = [_json(item, deeper) for item in value], "[]"
    elif kind is dict and all(isinstance(key, int) for key in value):
        row = deeper + "  "
        items = [f"[{row}{_json(key, row)},{row}{_json(value[key], row)}{deeper}]" for key in sorted(value)]
        ends = "[]"
    elif kind is dict or (names := _names(kind)) is not None:
        pairs = sorted(value.items()) if kind is dict else [(name, getattr(value, name)) for name in names]
        items, ends = [encode_basestring_ascii(key) + ": " + _json(item, deeper) for key, item in pairs], "{}"
    else:
        for base in (float, int, str, list, tuple, dict):
            if isinstance(value, base):
                return _json(base(value), pad)
        raise TypeError(f"{kind.__name__} is not a plain value")
    return ends[0] + deeper + ("," + deeper).join(items) + pad + ends[1] if items else ends


def _cell(value) -> str:
    """One CSV cell: an int or float by its base type's repr (a bool as
    True or False), None and NaN empty, and a cell that holds `,`, `"` or a
    line break quoted as RFC 4180 quotes it."""
    if isinstance(value, int) and type(value) is not bool:
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if value == value else ""
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def render(result, fmt: str = "json", columns: Sequence[str] | None = None) -> str:
    """The one serializer of every command and script.

    JSON is `result` written by `_json` in one walk. CSV is the rows of
    `result` under `columns` (an int-keyed dict's rows are its sorted
    items), or without them the flat record `result` as sorted `key,value`
    rows, each cell written by `_cell`. A cell is a scalar: a nested list
    or record would be written by `str`, which no command or script asks for.
    """
    if fmt == "json":
        return _json(result) + "\n"
    names = _names(type(result))
    if names is not None:  # a flat record
        rows = [(name, getattr(result, name)) for name in names]
    else:
        rows = sorted(result.items()) if isinstance(result, dict) else result
    return "".join(",".join(map(_cell, row)) + "\n" for row in [columns or ("key", "value"), *rows])


def _unwritable(out, err: OSError) -> UsageError:
    """An --out path or a stdout that cannot be written is a usage error, not an input one."""
    target = "stdout" if out is None else f"--out {out}"
    return UsageError(f"cannot write {target}: {err.strerror or err}")


def _write(text: str, out: str | None) -> None:
    try:
        if out is not None:
            Path(out).write_text(text, encoding="utf-8", newline="\n")
        elif sys.stdout is None:  # fd 1 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as err:
        raise _unwritable(out, err) from None


def _emit(cfg: RunConfig, result, table: tuple[Sequence[str], object] | None = None) -> None:
    """Write a command's result; `table` holds (columns, rows) when its CSV
    is a table rather than the flat record itself."""
    if cfg.fmt == "csv" and table is not None:
        _write(render(table[1], "csv", table[0]), cfg.out)
    else:
        _write(render(result, cfg.fmt), cfg.out)


def _graph_summary(graph: ArticleGraph) -> dict:
    total = graph.indegrees() + graph.outdegrees()
    return {
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "mean_degree": mean_degree(graph) if graph.node_count else None,
        "isolated_nodes": int((total == 0).sum()),
        "dropped_self_loops": graph.dropped_self_loops,
        "dropped_duplicate_edges": graph.dropped_duplicates,
    }


def _paths(cfg: RunConfig, graph: ArticleGraph) -> st.PathSampleResult:
    return st.sampled_avg_path(graph, cfg.n_pairs, cfg.seed, directed=not cfg.undirected)


def _fit_for(cfg: RunConfig, graph: ArticleGraph) -> deg.PowerLawFit:
    hist = deg.degree_histogram(graph, cfg.which)
    fitter = deg.fit_power_law_mle if cfg.method == "mle" else deg.fit_power_law
    return fitter(hist, cfg.x_min)


def _categories(cfg: RunConfig, log: ed.EditLog, names: dict[int, str]) -> list[dict]:
    """Each reported category's statistics under its name."""
    report = ed.category_report(log, cfg.top_fraction, cfg.include_anonymous)
    return [{"category": names.get(s.category_id, str(s.category_id)), **vars(s)} for s in report]


def _entropy(cfg: RunConfig, log: ed.EditLog) -> dict:
    """Entropy report and histograms; `--bin-width` bins the entropies
    only, and the maximum shares keep their default bins."""
    report = ed.entropy_report(log)
    return {
        **vars(report),
        "histogram": ed.entropy_histogram(report, cfg.bin_width),
        "active_categories": ed.active_category_histogram(log),
        "anonymous_active_categories": log.active_categories(ed.ANONYMOUS_AUTHOR) or None,
        "max_share_histogram": ed.max_share_histogram(log),
    }


def _cmd_degrees(cfg: RunConfig) -> None:
    graph = _load_graph(cfg)
    hist = deg.degree_histogram(graph, cfg.which)
    summary = _graph_summary(graph)
    summary["histogram"] = hist
    for which in ("in", "out"):
        top = deg.top_k_by_degree(graph, which, 10)
        summary[f"top_{which}"] = [(node, degree, graph.titles[node]) for node, degree in top]
    _emit(cfg, summary, (DEGREE_COLUMNS, hist.entries))


def _cmd_classify(cfg: RunConfig) -> None:
    _emit(cfg, deg.classify_authorities(_load_graph(cfg), cfg.percentile))


def _cmd_cluster(cfg: RunConfig) -> None:
    trace = st.sampled_clustering(_load_graph(cfg), cfg.n_samples, cfg.seed)
    _emit(cfg, trace, (TRACE_COLUMNS, trace.estimates))


def _cmd_paths(cfg: RunConfig) -> None:
    _emit(cfg, _paths(cfg, _load_graph(cfg)))


def _cmd_fit(cfg: RunConfig) -> None:
    _emit(cfg, _fit_for(cfg, _load_graph(cfg)))


def _cmd_categories(cfg: RunConfig) -> None:
    rows = _categories(cfg, *_load_edit_log(cfg))
    _emit(cfg, rows, (tuple(CATEGORY_COLUMNS), [[row[k] for k in CATEGORY_COLUMNS.values()] for row in rows]))


def _cmd_entropy(cfg: RunConfig) -> None:
    result = _entropy(cfg, _load_edit_log(cfg)[0])
    tables = {
        "entropy": (BIN_COLUMNS, result["histogram"]),
        "active": (ACTIVE_COLUMNS, result["active_categories"]),
        "max-share": (BIN_COLUMNS, result["max_share_histogram"]),
    }
    _emit(cfg, result, tables[cfg.histogram])


def _cmd_synth(cfg: RunConfig) -> None:
    if cfg.out is None:
        raise UsageError("--out directory is required for `synth`")
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if cfg.synth_kind == "zipf-edits":
            data = sy.generate_zipf_edits(
                cfg.n_authors, cfg.n_categories, cfg.total_edits, cfg.zipf_s, cfg.seed, cfg.home_bias
            )
            write_edit_log(data.records, outdir / "edits.tsv")
            write_category_map(data.category_map, outdir / "catmap.tsv", outdir / "catnames.tsv")
            written = ["edits.tsv", "catmap.tsv", "catnames.tsv"]
        else:
            if cfg.synth_kind == "preferential":
                graph = sy.generate_preferential(cfg.n, cfg.m, cfg.seed)
            else:
                graph = sy.generate_uniform(cfg.n, cfg.p, cfg.seed)
            write_nodes((NodeRecord(i, f"v{i}", 0) for i in range(graph.node_count)), outdir / "nodes.tsv")
            edges = graph.edges()
            blocks = (edges[i : i + SYNTH_BLOCK].tolist() for i in range(0, len(edges), SYNTH_BLOCK))
            write_edges(itertools.chain.from_iterable(blocks), outdir / "edges.tsv")
            written = ["nodes.tsv", "edges.tsv"]
    except OSError as err:  # the directory, or the file under it that cannot be written
        raise _unwritable(err.filename or outdir, err) from None

    _write(render({"out_dir": str(outdir), "written": written, "seed": cfg.seed}), None)


def _cmd_report(cfg: RunConfig) -> None:
    if any(getattr(cfg, name) is not None for name in ("edits", "catmap", "catnames")):
        _require(cfg, "edits", "catmap", "catnames")  # before any file is read
    graph = _load_graph(cfg)
    sections = {
        "graph": lambda: _graph_summary(graph),
        "degree_histogram": lambda: deg.degree_histogram(graph, "total"),
        "classification": lambda: deg.classify_authorities(graph, cfg.percentile),
        "clustering": lambda: st.sampled_clustering(graph, cfg.n_samples, cfg.seed),
        "paths": lambda: _paths(cfg, graph),
        "degree_fit": lambda: _fit_for(cfg, graph),
    }
    if cfg.edits is not None:
        log, names = _load_edit_log(cfg)
        sections["categories"] = lambda: _categories(cfg, log, names)
        sections["entropy"] = lambda: _entropy(cfg, log)

    report: dict[str, object] = {"config": {name: getattr(cfg, name) for name in REPORT_CONFIG}}
    for name, section in sections.items():
        # a section that is undefined for this input reports its reason
        # instead of sinking the whole document
        try:
            report[name] = section()
        except WgmError as err:
            report[name] = {"error": str(err)}
    _write(render(report), cfg.out)


# each flag's argparse settings, with its RunConfig field as dest and no default: the field holds it
FLAGS = {flag: dict(spec, dest=f.name) for f in fields(RunConfig) for flag, spec in f.metadata.items()}


class Command(NamedTuple):
    run: Callable[[RunConfig], None]
    help: str
    flags: tuple[str, ...]
    bare: tuple[str, ...] = ()  # flags this command lists without their help text


GRAPH_FLAGS = ("--nodes", "--edges", "--out", "--format", "--seed")
EDIT_FLAGS = ("--edits", "--catmap", "--catnames", "--out", "--format", "--seed")
FIT_FLAGS = ("--which", "--xmin", "--method")
SHARE_FLAGS = ("--top-fraction", "--include-anonymous")
SYNTH_FLAGS = ("--n", "--m", "--p", "--authors", "--categories", "--edits-total", "--zipf-s", "--home-bias")
COMMANDS = {
    "degrees": Command(_cmd_degrees, "degree summary and histogram export", (*GRAPH_FLAGS, "--which")),
    "classify": Command(_cmd_classify, "authority quadrant counts", (*GRAPH_FLAGS, "--percentile")),
    "cluster": Command(_cmd_cluster, "sampled clustering estimate and trace", (*GRAPH_FLAGS, "--samples")),
    "paths": Command(_cmd_paths, "sampled average shortest path length", (*GRAPH_FLAGS, "--pairs", "--undirected")),
    "fit": Command(_cmd_fit, "power-law exponent of the degree histogram", (*GRAPH_FLAGS, *FIT_FLAGS)),
    "categories": Command(_cmd_categories, "per-category contribution statistics", (*EDIT_FLAGS, *SHARE_FLAGS)),
    "entropy": Command(
        _cmd_entropy, "author entropy report and activity histograms", (*EDIT_FLAGS, "--bin-width", "--histogram")
    ),
    # synth's --out is a required directory, not an optional output path
    "synth": Command(
        _cmd_synth, "write synthetic TSV datasets", ("--kind", "--out", "--seed", *SYNTH_FLAGS), bare=("--out",)
    ),
    "report": Command(
        _cmd_report,
        "all analyses in one JSON document",
        ("--nodes", "--edges", *EDIT_FLAGS, "--percentile", "--samples", "--pairs", "--undirected", *FIT_FLAGS)
        + (*SHARE_FLAGS, "--bin-width"),
        bare=("--undirected",),
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one-line usage errors (exit 2) and
    whose help text is written by `_write`, as every other stdout byte is."""

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        _write(self.format_help(), None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wgm", description="Structural and contribution metrics for wiki link graphs.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag in command.flags:
            sub.add_argument(flag, **(dict(FLAGS[flag], help=None) if flag in command.bare else FLAGS[flag]))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = RunConfig(**vars(build_parser().parse_args(argv)))
        cfg.validate()
        COMMANDS[cfg.command].run(cfg)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (WgmError, OSError) as err:
        if sys.stderr is not None:  # closed at start: the exit code alone reports the error
            print(f"error: {err}", file=sys.stderr)
        return err.exit_code if isinstance(err, WgmError) else 3
    return 0


def run() -> None:
    """End the process with `main()`'s code, skipping teardown. Nothing is left to flush:
    `_write` has flushed every stdout byte, and stderr is line-buffered and gets whole lines;
    what a failed write left in the stdout buffer is dropped."""
    os._exit(main())


if __name__ == "__main__":
    run()
