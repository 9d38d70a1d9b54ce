"""The exit-code contract under fuzzing: for any bytes in the five input
files and any flag value, `main` returns 0, 2, 3, 4 or 5, a failure
writes exactly one stderr line starting `error:`, and no exception
escapes. Only sizes beyond a cap are drawn, so nothing here allocates a
capped amount; `tests/test_cli.py::TestSizeCaps` checks the caps
themselves by validation alone."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgm import cli
from wgm.cli import MAX_PAIRS, MAX_SAMPLES, MAX_SYNTH, MIN_BIN_WIDTH, main

FILES = ("nodes", "edges", "edits", "catmap", "catnames")
VALID = {
    "nodes": b"0\tA\t0\n1\tB\t0\n2\tC\t0\n3\tTalk:A\t1\n",
    "edges": b"0\t1\n1\t2\n2\t0\n0\t2\n3\t0\n",
    "edits": b"1\t10\n1\t10\n2\t10\n1\t11\n0\t11\n",
    "catmap": b"10\t5\n11\t6\n",
    "catnames": b"5\tscience\n6\tsports\n",
}

HUGE = "9" * 400  # beyond float range
EDGE_INTS = ["-1", "0", "1", "2", "3", "-9223372036854775809", "10" * 20, HUGE, "-" + HUGE, "9" * 5000, "x", ""]
EDGE_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1", "0.5", "5e-324", "1e308", "x"]
FLAGS = {
    "--seed": EDGE_INTS,
    "--pairs": EDGE_INTS + [str(MAX_PAIRS + 1)],
    "--samples": EDGE_INTS + [str(MAX_SAMPLES + 1)],
    "--xmin": EDGE_INTS,
    "--n": EDGE_INTS + ["10", str(MAX_SYNTH + 1)],
    "--m": EDGE_INTS + [str(MAX_SYNTH + 1)],
    "--authors": EDGE_INTS + [str(MAX_SYNTH + 1)],
    "--categories": EDGE_INTS + [str(MAX_SYNTH + 1)],
    "--edits-total": EDGE_INTS + ["50", str(MAX_SYNTH + 1)],
    "--percentile": EDGE_FLOATS,
    "--top-fraction": EDGE_FLOATS,
    "--bin-width": EDGE_FLOATS + [str(MIN_BIN_WIDTH / 2)],
    "--p": EDGE_FLOATS,
    "--zipf-s": EDGE_FLOATS,
    "--home-bias": EDGE_FLOATS,
    "--which": ["in", "out", "total", "x"],
    "--method": ["ls", "mle", "x"],
    "--format": ["csv", "json", "x"],
    "--histogram": ["entropy", "active", "max-share", "x"],
    "--kind": ["preferential", "uniform", "zipf-edits", "x"],
}
GRAPH = ["--seed", "--format"]
COMMANDS = {
    "degrees": GRAPH + ["--which"],
    "classify": GRAPH + ["--percentile"],
    "cluster": GRAPH + ["--samples"],
    "paths": GRAPH + ["--pairs", "--undirected"],
    "fit": GRAPH + ["--which", "--xmin", "--method"],
    "categories": GRAPH + ["--top-fraction", "--include-anonymous"],
    "entropy": GRAPH + ["--bin-width", "--histogram"],
    "synth": ["--kind", "--seed", "--n", "--m", "--p", "--authors", "--categories", "--edits-total", "--zipf-s", "--home-bias"],
    "report": GRAPH + ["--percentile", "--samples", "--pairs", "--undirected", "--which", "--xmin", "--method",
                       "--top-fraction", "--include-anonymous", "--bin-width"],
}
INPUTS = {"synth": (), "categories": FILES[2:], "entropy": FILES[2:], "report": FILES}


def file_bytes(name):
    valid = VALID[name]
    mutated = st.tuples(st.integers(0, len(valid)), st.binary(max_size=4)).map(
        lambda cut: valid[: cut[0]] + cut[1] + valid[cut[0] + 1 :]
    )
    return st.one_of(st.just(valid), st.just(valid), mutated, st.binary(max_size=64))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = draw(st.lists(st.sampled_from(COMMANDS[command]), unique=True, max_size=4))
    if command == "synth" and "--n" not in flags:
        flags.append("--n")  # the default 1,000 nodes at --p 1 is a million edges
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag not in ("--undirected", "--include-anonymous"):
            argv.append(draw(st.sampled_from(FLAGS[flag])))
    files = {name: draw(file_bytes(name)) for name in INPUTS.get(command, FILES[:2])}
    return argv, files


def run_main(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS.get(argv[0], FILES[:2]):
            (Path(tmp) / f"{name}.tsv").write_bytes(files[name])
            argv = [*argv, f"--{name}", str(Path(tmp) / f"{name}.tsv")]
        if argv[0] == "synth":
            argv = [*argv, "--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None)
@given(invocation=invocations())
@example(invocation=(["paths", "--seed", "-1"], VALID))
@example(invocation=(["cluster", "--seed", "-5"], VALID))
@example(invocation=(["report", "--seed", "-1"], VALID))
@example(invocation=(["synth", "--kind", "zipf-edits", "--seed", "-3"], {}))
@example(invocation=(["synth", "--kind", "zipf-edits", "--zipf-s", "nan"], {}))
@example(invocation=(["paths", "--seed", "x"], VALID))
@example(invocation=(["synth", "--kind", "uniform", "--n", HUGE], {}))
def test_exit_code_contract(invocation):
    code, err = run_main(*invocation)
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err


def test_fuzzed_flags_are_every_flag_of_the_cli():
    # the table above stays hand-written; this keeps a flag added to the CLI
    # from escaping the fuzzing
    paths = {"--nodes", "--edges", "--edits", "--catmap", "--catnames", "--out"}
    assert set(cli.COMMANDS) == set(COMMANDS)
    for command, spec in cli.COMMANDS.items():
        assert set(spec.flags) - paths == set(COMMANDS[command]), command
