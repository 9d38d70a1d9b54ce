#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run it from the repository root; it takes well under a minute and
writes only under `.bench_build/perfbench-selftest/`. It checks that:

- both modes emit every metric BENCHMARK.json names, with its unit;
- a deliberately corrupted report is counted as failed, both through
  the byte comparison and through the invariants;
- span self times subtract the children's covered time;
- the benchmark refuses to run, without a result, where there are no
  `wgm` sources.

Prints one line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import traced_report  # noqa: E402
from checks import report_problems  # noqa: E402
from workloads import WORKLOADS, Workload, generate, report_args  # noqa: E402

WORK = ROOT / ".bench_build" / "perfbench-selftest"
TINY = Workload("tiny", "self-test", n_articles=300, n_authors=40, n_categories=6, n_edits=3_000)

# stdout wrapper that shifts every node_count, loaded at interpreter start
CORRUPTING_SITECUSTOMIZE = '''
import re, sys

class _Corrupt:
    def __init__(self, inner):
        self._inner = inner

    def write(self, text):
        bump = lambda m: f'"node_count": {int(m[1]) + 1}'
        return self._inner.write(re.sub(r'"node_count": (\\d+)', bump, text))

    def __getattr__(self, name):
        return getattr(self._inner, name)

sys.stdout = _Corrupt(sys.stdout)
'''


def ok(message: str) -> None:
    print(f"PASS {message}")


def check_metrics(result: dict, declared: list[dict], mode: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{mode} metrics {got} != BENCHMARK.json {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{name} = {m['value']!r}"
    assert result["failed"] == 0, result["failures"]
    ok(f"{mode}: {len(want)} metrics with their units, {result['attempted']} operations, none failed")


def test_metrics(bench: dict) -> None:
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS), "workload names differ"
    check_metrics(run.run_workload(TINY, 5, 0.5, False, ROOT, WORK / "tiny"), bench["end_to_end"], "untraced")
    traced = run.run_workload(TINY, 5, 0.5, True, ROOT, WORK / "tiny")
    check_metrics(traced, bench["per_layer"], "traced")
    layers = {s["name"].split(".")[0] for s in map(json.loads, open(traced["spans_file"]))}
    assert layers >= {"ingest", "graph", "degrees", "structure", "edits", "cli"}, layers
    ok(f"spans cover layers {sorted(layers)}")


def test_corruption() -> None:
    inputs = generate(TINY, 6, WORK / "corrupt-inputs")
    cmd = [sys.executable, "-m", "wgm.cli", *report_args(TINY, inputs)]
    first = run.run_child(cmd, run.child_env(ROOT), WORK, ROOT)
    assert first.exit == 0 and not report_problems(first.stdout, inputs.expected), first

    flipped = replace(first, stdout=first.stdout.replace(b'"node_count": ', b'"node_count": 1', 1))
    crashed = replace(first, exit=4, stderr=b"error: boom\n")
    failures = run.count_failures([first, flipped, first, crashed], [], inputs.expected)
    assert len(failures) == 2 and "differs" in failures[0] and "exit 4" in failures[1], failures
    ok("a report that differs from the first operation and a failed exit are each counted once")

    failures = run.count_failures([flipped, flipped], [], inputs.expected)
    assert len(failures) == 2 and all("node_count" in f for f in failures), failures
    ok("a corrupted first report fails the invariants, so every copy of it fails")

    # end to end: a program whose stdout is corrupted at interpreter start
    mutant = WORK / "mutant"
    shutil.rmtree(mutant, ignore_errors=True)
    shutil.copytree(ROOT / "src" / "wgm", mutant / "src" / "wgm", ignore=shutil.ignore_patterns("__pycache__"))
    (mutant / "src" / "sitecustomize.py").write_text(CORRUPTING_SITECUSTOMIZE)
    result = run.run_workload(TINY, 6, 3.0, False, mutant, WORK / "mutant-work")
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"], result["failures"]
    assert result["fail_frac"] == 1.0 and any("node_count" in f for f in result["failures"])
    ok(f"corrupted program: fail_frac {result['fail_frac']} over {result['attempted']} operations")


def test_self_times() -> None:
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "structure.cluster", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "graph.undirected", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "structure.paths", "parent": 0, "start": 3.0, "end": 6.0},
    ]
    own = traced_report.self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 3.0}, own
    m = traced_report.layer_metrics(spans, {"ingest.records_in": 10, "ingest.records_kept": 9})
    assert m["cli.residual_s"] == 5.0 and m["structure.cluster_s"] == 2.0 and m["ingest.kept_ratio"] == 0.9, m
    ok("self time = span minus the union of its children; residual = root self time")


def test_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "links-directed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    ok(f"without wgm sources: exit {proc.returncode}, no result printed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    test_self_times()
    test_metrics(bench)
    test_corruption()
    test_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
