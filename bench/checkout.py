"""Locate the checkout the benchmark runs in and import topokry from it.

Every benchmark script calls :func:`prepare` before anything imports
numpy: it pins the BLAS thread count to 1, so each design runs on one
core, and puts the checkout's ``src`` first on ``sys.path``, so the code
measured is the code in this checkout and never an installed copy.
"""
from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def prepare() -> None:
    """Pin BLAS threads and put ``src`` first on the path.

    Exits with status 1 when the checkout holds no ``src/topokry``.
    """
    for name in _BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "topokry", "__init__.py")):
        sys.exit(f"bench: no topokry sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def import_topokry():
    """Import topokry and check that it comes from this checkout."""
    import topokry

    origin = os.path.realpath(topokry.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: topokry imported from {origin}, not from {SRC}")
    return topokry
