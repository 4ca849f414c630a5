"""BLAS thread pinning and the environment fingerprint of a result file.

Unpinned, OpenBLAS starts one thread per core in every process; with a
``jobs=2`` pool on a 2-CPU machine that oversubscribes the cores and the
sweep time swings by 2x.  ``pin_blas`` must therefore run before numpy is
imported, and the fingerprint records that it did.  Results are comparable
only when their fingerprints are identical.
"""
from __future__ import annotations

import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> dict:
    """Set every BLAS thread variable to 1; refuse if numpy is already loaded."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return pinned_setting()


def pinned_setting() -> dict:
    return {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": pinned_setting(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
    }


def fingerprint_mismatch(fingerprints) -> list[str]:
    """Names of the fingerprint fields that differ across ``fingerprints``."""
    fingerprints = list(fingerprints)
    if not fingerprints:
        return []
    keys = sorted(set().union(*fingerprints))
    return [k for k in keys if any(fp.get(k) != fingerprints[0].get(k) for fp in fingerprints)]
