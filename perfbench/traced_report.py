"""Run `wgm report` in-process with a span around every call into a layer.

    python perfbench/traced_report.py RUN_ID report --nodes ... [flags]

The spans are recorded from outside the program: the public functions
that `wgm.cli` calls are wrapped before `wgm.cli.main` runs, wherever a
`wgm` module holds a reference to them. The report document is captured
in memory and never printed; this script prints one JSON object with
the document's size and sha256, the spans, and the per-layer metrics
derived from them. Run it with `src` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import sys
import threading
import time
from contextlib import redirect_stdout

# span name -> (module, attribute path) of each public function it times
LAYER_FUNCTIONS = {
    "ingest.load_nodes": [("wgm.ingest", "load_nodes")],
    "ingest.load_edges": [("wgm.ingest", "load_edges")],
    "ingest.filter": [("wgm.ingest", "filter_main_namespace")],
    "ingest.load_edit_log": [("wgm.ingest", "load_edit_log")],
    "ingest.load_category_map": [("wgm.ingest", "load_category_map")],
    "graph.build": [("wgm.graph", "build_graph")],
    "graph.undirected": [("wgm.graph", "ArticleGraph.undirected_csr")],
    "degrees.histogram": [("wgm.degrees", "degree_histogram")],
    "degrees.classify": [("wgm.degrees", "classify_authorities")],
    "degrees.fit": [("wgm.degrees", "fit_power_law"), ("wgm.degrees", "fit_power_law_mle")],
    "structure.cluster": [("wgm.structure", "sampled_clustering")],
    "structure.paths": [("wgm.structure", "sampled_avg_path")],
    "edits.resolve": [("wgm.edits", "resolve_edits")],
    "edits.categories": [("wgm.edits", "category_stats")],
    "edits.entropy": [
        ("wgm.edits", "entropy_report"),
        ("wgm.edits", "active_category_histogram"),
        ("wgm.edits", "entropy_histogram"),
        ("wgm.edits", "max_share_histogram"),
    ],
}
ROOT = "cli.main"


def _path_bytes(args) -> int:
    return sum(os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _count(name: str, args, result, counts: dict[str, float]) -> None:
    """Counters measured at the layer boundary, from arguments and results.

    A result whose shape this version of the benchmark does not know
    leaves its counters at zero rather than failing the traced run.
    """
    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    try:
        _count_result(name, args, result, add, counts)
    except (AttributeError, IndexError, TypeError):
        pass


def _count_result(name, args, result, add, counts) -> None:
    if name.startswith("ingest."):
        add("ingest.bytes_in", _path_bytes(args))
    if name in ("ingest.load_nodes", "ingest.load_edges"):
        add("ingest.records_in", _size(result))
    elif name == "ingest.load_edit_log":
        # edit records pass ingest unfiltered
        add("ingest.records_in", _size(result))
        add("ingest.records_kept", _size(result))
    elif name == "ingest.filter":
        add("ingest.records_kept", _size(result[0]) + _size(result[1]))
    elif name == "graph.build":
        add("graph.edges", result.edge_count)
    elif name == "graph.undirected":
        counts["graph.undirected_edges"] = _size(result[1]) // 2
    elif name == "structure.paths":
        add("structure.sampled_pairs", result.sampled_pairs)
        add("structure.reachable_pairs", result.reachable_pairs)
    elif name == "edits.resolve":
        add("edits.resolved_pairs", _size(result.resolved))
    elif name == "edits.categories":
        add("edits.categories_reported", 1)


class Tracer:
    """Spans kept in memory; parents follow the calling thread's open spans."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    def open(self, name: str) -> dict:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = {"run": self.run_id, "id": len(self.spans), "name": name,
                    "parent": stack[-1]["id"] if stack else self._root,
                    "thread": threading.get_ident(), "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            if self._root is None:
                self._root = span["id"]
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            with self._lock:
                _count(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function; return the ones this version lacks."""
        missing = []
        wgm_modules = [m for n, m in sys.modules.items() if n == "wgm" or n.startswith("wgm.")]
        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, fn_name, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self.wrap(name, original)
                if cls_path:
                    setattr(owner, fn_name, wrapped)
                    continue
                for module in wgm_modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        return missing


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _union([c for c in covered if c[1] > c[0]])
    return out


def layer_metrics(spans: list[dict], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer self seconds, the CLI residual, and the boundary counters."""
    own = self_times(spans)
    metrics = {f"{name}_s": 0.0 for name in LAYER_FUNCTIONS}
    for s in spans:
        if s["name"] != ROOT:
            metrics[f"{s['name']}_s"] += own[s["id"]]
    # everything main() did outside the layer calls: payloads, pool, JSON
    metrics["cli.residual_s"] = sum(own[s["id"]] for s in spans if s["name"] == ROOT)
    for key in ("ingest.bytes_in", "ingest.records_in", "ingest.records_kept",
                "graph.edges", "graph.undirected_edges", "edits.resolved_pairs", "edits.categories_reported"):
        metrics[key] = counts.get(key, 0)
    records_in = counts.get("ingest.records_in", 0)
    metrics["ingest.kept_ratio"] = counts.get("ingest.records_kept", 0) / records_in if records_in else 0.0
    sampled = counts.get("structure.sampled_pairs", 0)
    metrics["structure.paths_reachable_ratio"] = counts.get("structure.reachable_pairs", 0) / sampled if sampled else 0.0
    return metrics


def main(argv: list[str]) -> int:
    run_id, report_argv = int(argv[0]), argv[1:]
    import wgm.cli

    tracer = Tracer(run_id)
    missing = tracer.install()
    buf = io.StringIO()
    root = tracer.open(ROOT)
    try:
        with redirect_stdout(buf):
            code = wgm.cli.main(report_argv)
    finally:
        tracer.close(root)
    doc = buf.getvalue().encode("utf-8")
    t0 = root["start"]
    for s in tracer.spans:
        s["start"] -= t0
        s["end"] -= t0
    print(json.dumps({
        "exit": code,
        "wall_s": root["end"],
        "output_bytes": len(doc),
        "output_sha256": hashlib.sha256(doc).hexdigest(),
        "missing": missing,
        "layers": layer_metrics(tracer.spans, tracer.counts),
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
