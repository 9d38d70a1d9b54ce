"""Checks of one `wgm report` document against the generator's counts.

The expected values come from `workloads.generate`, which derives them
from its own arrays, so a check never trusts the code it judges.
"""

from __future__ import annotations

import json

SECTIONS = (
    "config", "graph", "degree_histogram", "classification", "clustering",
    "paths", "degree_fit", "categories", "entropy",
)


def report_problems(doc: bytes, expected: dict[str, int]) -> list[str]:
    """Every invariant the document breaks; empty when it is correct."""
    try:
        report = json.loads(doc)
        return _problems(report, expected)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return [f"unreadable report: {type(err).__name__}: {err}"]


def _problems(report: dict, expected: dict[str, int]) -> list[str]:
    problems = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    for name in SECTIONS:
        check(isinstance(report.get(name), (dict, list)), f"section {name} missing")
        check(not (isinstance(report.get(name), dict) and "error" in report[name]), f"section {name} reports an error")
    if problems:
        return problems

    graph = report["graph"]
    n = expected["node_count"]
    check(graph["node_count"] == n, f"graph.node_count {graph['node_count']} != {n} namespace-0 nodes")
    check(graph["edge_count"] == expected["edge_count"], f"graph.edge_count {graph['edge_count']} != {expected['edge_count']}")

    q = report["classification"]
    quadrants = q["all_round"] + q["referring"] + q["guru"] + q["regular"]
    check(quadrants == n, f"quadrants sum to {quadrants}, not node_count {n}")

    paths = report["paths"]
    sampled = paths["sampled_pairs"]
    unreachable = round(paths["unreachable_fraction"] * sampled)
    check(sampled == expected["sampled_pairs"], f"paths.sampled_pairs {sampled} != {expected['sampled_pairs']}")
    check(paths["reachable_pairs"] + unreachable == sampled,
          f"reachable {paths['reachable_pairs']} + unreachable {unreachable} != sampled {sampled}")

    cats = report["categories"]
    n_edits = sum(row["n_edits"] for row in cats)
    check(n_edits == expected["category_edits"], f"category n_edits sum {n_edits} != {expected['category_edits']} resolved edits")
    check(len(cats) == expected["categories_with_edits"],
          f"{len(cats)} category rows for {expected['categories_with_edits']} categories with edits")

    authors = [a for a, _h in report["entropy"]["entries"]]
    check(len(authors) == expected["entropy_authors"] == len(set(authors)),
          f"{len(authors)} entropy entries ({len(set(authors))} distinct) for {expected['entropy_authors']} authors")
    return problems
