"""Process environment of the benchmark: thread pinning, the import of almqr
from this checkout, and the env block every result records.

Importing this module pins BLAS and OpenMP to one thread, so it must be
imported before numpy; the benchmark's entry points import it first.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS and OpenMP pools read these once, when numpy loads them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout does not hold the almqr sources."""


def pin_threads() -> None:
    """Make the load single-threaded; numpy reads these when it loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("benchenv must be imported before numpy")
    for var in THREAD_VARS:
        os.environ[var] = "1"


pin_threads()


def import_almqr():
    """Import almqr from ``src/`` of this checkout and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "almqr", "__init__.py")):
        raise MissingProgram(f"no almqr sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import almqr

    if os.path.dirname(os.path.abspath(almqr.__file__)) != os.path.join(SRC, "almqr"):
        raise MissingProgram(f"almqr was imported from {almqr.__file__}, not from {SRC}")
    return almqr


def env_block() -> dict:
    """Machine, kernel backend and thread settings of this run."""
    import numpy as np
    from almqr import kernels

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "kernel_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
