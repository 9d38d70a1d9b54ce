"""Smoke runs of the experiment scripts at small sizes, so a change to the
library API they call cannot break them unnoticed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name, argv, files, header",
    [
        ("attachment_vs_uniform.py", ["--n", "300", "--seeds", "1"], ["pref_0.csv", "unif_0.csv"], "degree,count"),
        (
            "clustering_convergence.py",
            ["--synth-n", "300", "--runs", "1", "--samples", "500"],
            ["clustering_run0.csv"],
            "samples,running_mean",
        ),
    ],
)
def test_script_writes_csv(tmp_path, name, argv, files, header):
    run_script(name, tmp_path, *argv, "--out-dir", "out")
    for file in files:
        lines = (tmp_path / "out" / file).read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        assert len(lines) > 1


def test_make_fixtures_regenerates_the_bundled_data(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["catmap.tsv", "catnames.tsv", "edges.tsv", "edits.tsv", "nodes.tsv"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "data" / name).read_bytes(), name
