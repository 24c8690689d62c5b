"""Puts this checkout's library and benchmark workloads on the import path,
with the BLAS/OpenMP thread count pinned to 1 as ``perfbench/run.py`` does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checkout import pin_threads, use_checkout_sources  # noqa: E402

pin_threads()
use_checkout_sources()
