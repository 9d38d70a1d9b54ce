"""What `wgm` leaves unimported. `build_graph` finds distinct edges without
`np.unique`, whose first call imports numpy.ma (about 20 ms), and `wgm.synth`
reaches numpy.random only when it first draws, so a command that draws
nothing does not pay its import. The package `wgm` itself imports none
of its modules, so a process loads only the modules it names and theirs.
Each check runs in a fresh interpreter, because pytest has loaded numpy's
submodules before any test runs; a numpy submodule check is skipped where
`import numpy` alone loads the module (numpy 1.x does)."""

import pytest
from test_golden import GOLDEN
from test_threads import DATA, run_python


def loaded(module, code, **kwargs):
    """Whether `module` is imported after `import numpy`, and after `code` then
    runs, in a fresh interpreter."""
    script = f"import sys, numpy\nbefore = {module!r} in sys.modules\n{code}\nprint(before, {module!r} in sys.modules)"
    before, after = run_python(["-c", script], **kwargs).splitlines()[-1].split()
    if before == b"True":
        pytest.skip(f"this numpy imports {module} with numpy itself")
    return after == b"True"


def test_report_leaves_numpy_ma_unloaded():
    argv, _ = GOLDEN["report"]
    assert not loaded("numpy.ma", f"import wgm.cli\nassert wgm.cli.main({argv!r}) == 0", cwd=DATA)


def test_import_leaves_numpy_random_unloaded():
    assert not loaded("numpy.random", "import wgm.cli")


def modules_after(code):
    """numpy and the `wgm` modules that are imported after `code` runs in a
    fresh interpreter."""
    script = f"import sys\n{code}\nprint(*(m for m in sys.modules if m == 'numpy' or m.startswith('wgm.')))"
    return set(run_python(["-c", script]).decode().split())


def test_import_wgm_loads_no_module():
    assert modules_after("import wgm") == set()


def test_ingest_and_synth_load_no_analysis_module():
    # what the perfbench harness imports to build its inputs
    found = modules_after("import wgm.ingest, wgm.synth")
    assert not found & {"wgm.degrees", "wgm.edits", "wgm.structure", "wgm.cli"}, found
