#!/usr/bin/env python3
"""Benchmark for `wgm report`: seeded inputs, a closed loop, checked outputs.

    python3 perfbench/run.py --workload links-directed --seed 1 --seconds 25 --trace 0

Run it from the repository root. It writes the workload's inputs under
`.bench_build/perfbench/<workload>/`, then runs one client in a closed
loop for `--seconds`: each operation is a fresh `python -m wgm.cli
report` process, started after the previous one exited and timed with
`os.wait4`. Every output is checked. With `--trace 1` a traced
in-process report alternates with each operation and the per-layer
metrics are printed instead of the end-to-end ones. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
IMPORT_PROBES = 3
THREADS_ENV = "WGM_THREADS"

END_TO_END_UNITS = {
    "setup_s": "s",
    "report_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "records_per_s": "records/s",
}
PER_LAYER_UNITS = {
    "ingest.load_nodes_s": "s",
    "ingest.load_edges_s": "s",
    "ingest.filter_s": "s",
    "ingest.load_edit_log_s": "s",
    "ingest.load_category_map_s": "s",
    "ingest.bytes_in": "bytes",
    "ingest.records_in": "count",
    "ingest.records_kept": "count",
    "ingest.kept_ratio": "ratio",
    "graph.build_s": "s",
    "graph.undirected_s": "s",
    "graph.edges": "count",
    "graph.undirected_edges": "count",
    "degrees.histogram_s": "s",
    "degrees.classify_s": "s",
    "degrees.fit_s": "s",
    "structure.cluster_s": "s",
    "structure.paths_s": "s",
    "structure.paths_reachable_ratio": "ratio",
    "edits.resolve_s": "s",
    "edits.categories_s": "s",
    "edits.entropy_s": "s",
    "edits.resolved_pairs": "count",
    "edits.categories_reported": "count",
    "cli.import_s": "s",
    "cli.residual_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Op:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict[str, str], scratch: Path, cwd: Path) -> Op:
    """Run `argv` to completion; wall time, own CPU and peak RSS from wait4."""
    out_path, err_path = scratch / "child.stdout", scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
        exit=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def op_failure(op: Op, reference: bytes, reference_problems: list[str]) -> str | None:
    """Why an operation failed, or None: exit code, bytes, then invariants."""
    if op.exit != 0:
        last = op.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return f"exit {op.exit}: {last[0]}"
    if op.stdout != reference:
        return "stdout differs from the run's first operation"
    if reference_problems:
        return "; ".join(reference_problems)
    return None


def traced_failure(op: Op, summary: dict | None, reference: bytes) -> str | None:
    if op.exit != 0 or summary is None:
        return f"traced run exit {op.exit}: {op.stderr.decode('utf-8', 'replace').strip()[-200:]}"
    if summary["exit"] != 0:
        return f"traced report exit {summary['exit']}"
    if summary["output_sha256"] != hashlib.sha256(reference).hexdigest():
        return "traced report differs from the untraced output"
    return None


def count_failures(ops: list[Op], traced: list[tuple[Op, dict | None]], expected: dict[str, int]) -> list[str]:
    """One reason per failed operation; the first operation's bytes are the reference."""
    from checks import report_problems

    reference = ops[0].stdout
    problems = report_problems(reference, expected) if ops[0].exit == 0 else []
    failures = [op_failure(op, reference, problems) for op in ops]
    failures += [traced_failure(op, s, reference) for op, s in traced]
    return [f for f in failures if f]


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(root: Path, threads: str | None) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "wgm").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        THREADS_ENV: threads if threads is not None else f"unset (auto = {os.cpu_count()} workers)",
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with `wgm` from `root/src` and WGM_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_workload(w, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    """Set up, measure and check one workload; returns the full result.

    `root` holds the `wgm` sources under `src`; inputs, child output and
    result files go under `work`.
    """
    from workloads import generate, report_args

    work.mkdir(parents=True, exist_ok=True)

    def setup(out: Path):
        t0 = time.perf_counter()
        made = generate(w, seed, out)
        setup_times.append(time.perf_counter() - t0)
        return made

    setup_times: list[float] = []
    inputs = setup(work / "inputs")
    env = child_env(root)
    if trace:
        # one worker runs the report sections one at a time, so spans do not
        # overlap and the traced/untraced pair compares like with like
        env[THREADS_ENV] = "1"
    py = sys.executable
    report_cmd = [py, "-m", "wgm.cli", *report_args(w, inputs)]

    warm = run_child([py, "-c", "import wgm.cli"], env, work, root)  # fills the bytecode cache
    if warm.exit != 0:
        raise RuntimeError(f"cannot import wgm.cli: {warm.stderr.decode('utf-8', 'replace').strip()}")
    imports = [run_child([py, "-c", "import wgm.cli"], env, work, root) for _ in range(IMPORT_PROBES if trace else 0)]

    def run_traced(run_id: int) -> tuple[Op, dict | None]:
        op = run_child([py, str(HERE / "traced_report.py"), str(run_id), *report_args(w, inputs)], env, work, root)
        try:
            return op, json.loads(op.stdout.decode("utf-8").strip().splitlines()[-1])
        except (ValueError, IndexError):
            return op, None

    ops: list[Op] = []
    traced: list[tuple[Op, dict | None]] = []
    rounds: list[float] = []
    t_start = time.perf_counter()
    # a round starts only if a typical round still ends within `seconds`
    while not rounds or time.perf_counter() - t_start + median(rounds) <= seconds:
        t_round = time.perf_counter()
        if trace and len(rounds) % 2:
            traced.append(run_traced(len(traced)))  # alternate which side goes first
        ops.append(run_child(report_cmd, env, work, root))
        if trace and len(traced) < len(ops):
            traced.append(run_traced(len(traced)))
        # set-up is repeated between operations so its median spans the run
        setup(work / "setup-repeat")
        rounds.append(time.perf_counter() - t_round)
    elapsed = time.perf_counter() - t_start

    reference = ops[0].stdout
    failures = count_failures(ops, traced, inputs.expected)
    attempted = len(ops) + len(traced)

    report_s = median([op.wall_s for op in ops])
    metrics = {
        "setup_s": median(setup_times),
        "report_s": report_s,
        "cpu_s": median([op.cpu_s for op in ops]),
        "peak_rss_mb": median([op.rss_mb for op in ops]),
        "records_per_s": inputs.data_records / report_s,
    }
    spans: list[dict] = []
    missing: set[str] = set()
    if trace:
        good = [s for op, s in traced if traced_failure(op, s, reference) is None]
        layer = {
            key: median([s["layers"][key] for s in good]) if good else 0.0
            for key in PER_LAYER_UNITS
            if not key.startswith(("cli.import", "cli.output", "trace."))
        }
        layer["cli.import_s"] = median([op.wall_s for op in imports])
        layer["cli.output_bytes"] = len(reference)
        layer["trace.overhead_s"] = (median([op.wall_s for op, _ in traced]) - report_s) if traced else 0.0
        metrics = layer
        for _, s in traced:
            spans += (s or {}).get("spans", [])
            missing.update((s or {}).get("missing", []))
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS

    result = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "elapsed_s": elapsed,
        "operations": len(ops),
        "traced_runs": len(traced),
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": sorted(set(failures)),
        "output_sha256": hashlib.sha256(reference).hexdigest(),
        "report_argv": ["wgm", *report_args(w, inputs)],
        "parameters": {k: v for k, v in asdict(w).items() if k != "why"},
        "input_sizes": inputs.sizes,
        "data_records": inputs.data_records,
        "expected": inputs.expected,
        "samples": {
            "setup_s": setup_times,
            "report_s": [op.wall_s for op in ops],
            "cpu_s": [op.cpu_s for op in ops],
            "peak_rss_mb": [op.rss_mb for op in ops],
        },
        "provenance": provenance(root, env.get(THREADS_ENV)),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if trace:
        result["missing_layer_functions"] = sorted(missing)
        result["spans_file"] = os.path.relpath(work / "spans.jsonl")
        with open(work / "spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    (work / f"results-trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, then provenance."""
    lines = [
        f"workload {result['workload']} seed {result['seed']}: {result['operations']} operations"
        + (f" and {result['traced_runs']} traced runs" if result["trace"] else "")
        + f" in {result['elapsed_s']:.1f} s",
        f"fail_frac {result['fail_frac']:.4f} ({result['failed']}/{result['attempted']} failed)",
    ]
    lines += [f"  failure: {f}" for f in result["failures"]]
    lines.append(f"output_sha256 {result['output_sha256']}")
    for name, m in result["metrics"].items():
        note = ""
        if name in result["samples"]:
            vals = result["samples"][name]
            note = f"  (median of {len(vals)}, min {min(vals):.4g}, max {max(vals):.4g})"
        elif name == "records_per_s":
            note = f"  ({result['data_records']} node, edge and edit records / report_s)"
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{note}")
    lines.append("input_sizes " + json.dumps(result["input_sizes"], sort_keys=True))
    lines.append("provenance " + json.dumps(result["provenance"], sort_keys=True))
    if result["trace"]:
        lines.append(f"spans written to {result['spans_file']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wgm" / "cli.py").is_file():
        print(f"error: no wgm sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace), root, root / ".bench_build" / "perfbench" / w.name)
    for line in describe(result):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
