#!/usr/bin/env python3
"""Convergence experiment: several independent sampling runs of the
clustering estimator on one graph, each dumped as a trace CSV so the
stabilization point can be judged by eye.

    python scripts/clustering_convergence.py --nodes tests/data/nodes.tsv \
        --edges tests/data/edges.tsv --runs 4 --samples 50000 --out-dir traces/
"""

import argparse
from pathlib import Path

from wgm.cli import TRACE_COLUMNS, render
from wgm.graph import build_graph
from wgm.ingest import filter_main_namespace, load_edges, load_nodes
from wgm.structure import exact_clustering, sampled_clustering
from wgm.synth import generate_preferential


def load_or_generate(args):
    if args.nodes and args.edges:
        nodes = load_nodes(args.nodes)
        kept, edges = filter_main_namespace(nodes, load_edges(args.edges), path=args.edges)
        return build_graph(edges, len(kept))
    return generate_preferential(args.synth_n, args.synth_m, seed=args.seed)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes")
    ap.add_argument("--edges")
    ap.add_argument("--synth-n", type=int, default=5000, help="fallback synthetic graph size")
    ap.add_argument("--synth-m", type=int, default=3)
    ap.add_argument("--runs", type=int, default=4)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default="traces")
    ap.add_argument("--exact", action="store_true", help="also compute the full mean (slow on big graphs)")
    args = ap.parse_args()

    graph = load_or_generate(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges")
    for run in range(args.runs):
        trace = sampled_clustering(graph, args.samples, seed=args.seed + run)
        path = out_dir / f"clustering_run{run}.csv"
        path.write_text(render(trace.estimates, "csv", TRACE_COLUMNS), encoding="utf-8", newline="\n")
        print(f"run {run} (seed {args.seed + run}): final estimate {trace.final_estimate:.4f} -> {path}")

    if args.exact:
        print(f"exact mean over all nodes: {exact_clustering(graph):.4f}")


if __name__ == "__main__":
    main()
