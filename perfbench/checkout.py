"""Locating the library in the checkout and pinning the numerical threads.

Imported before NumPy: the thread variables only take effect when they are
set before the BLAS and OpenMP runtimes load.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
# outputs of a run (suite scenario directories, span files); ignored by git
OUT = ROOT / ".perfbench_out"

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckoutError(RuntimeError):
    """The library sources or the shipped configs are not in the checkout."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread: steadier timings and repeatable iteration
    counts, since the reduction order no longer depends on the thread count."""
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"


def use_checkout_sources() -> None:
    """Import ``multilevel_control`` from this checkout's ``src`` only."""
    if not (SRC / "multilevel_control" / "__init__.py").is_file():
        raise CheckoutError(f"no library sources under {SRC}")
    if not sorted(CONFIGS.glob("*.json")):
        raise CheckoutError(f"no scenario configs under {CONFIGS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multilevel_control

    origin = Path(multilevel_control.__file__).resolve()
    if SRC not in origin.parents:
        raise CheckoutError(f"multilevel_control was imported from {origin}, not from {SRC}")
