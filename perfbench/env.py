"""Process set-up shared by the benchmark's entry points.

Importing this module pins the BLAS and OpenMP thread pools. It must be
imported before numpy, because OpenBLAS reads its thread count once, when
numpy first loads it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError("perfbench.env must be imported before numpy")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"


class MissingProgram(RuntimeError):
    """The checkout holds no taxseq sources to benchmark."""


def use_checkout_sources() -> None:
    """Import taxseq from this checkout's ``src`` and nowhere else."""
    if not (SRC / "taxseq" / "__init__.py").is_file():
        raise MissingProgram(f"no taxseq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import taxseq
    if Path(taxseq.__file__).resolve().parent != (SRC / "taxseq").resolve():
        raise MissingProgram(f"taxseq was imported from {taxseq.__file__}, not {SRC}")


def machine() -> dict:
    """The facts a reader needs to compare two results."""
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }
