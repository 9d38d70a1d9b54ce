"""Structural and contribution metrics for wiki-style article link
graphs and author edit logs. Import each name from its module
(`from wgm.graph import build_graph`). The package itself only pins
OpenBLAS: importing `wgm` or any of its modules sets
OPENBLAS_NUM_THREADS=1 unless numpy is loaded or the variable is set."""

import os
import sys

if "numpy" not in sys.modules:  # wgm makes no BLAS call: skip OpenBLAS's busy-waiting worker pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
