"""Make the benchmark modules and the checkout's fairfront importable.

Run with ``python3 -m pytest bench/tests`` from the checkout root.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fingerprint  # noqa: E402

if "numpy" not in sys.modules:
    fingerprint.pin_blas()
