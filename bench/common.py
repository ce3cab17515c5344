"""Paths, environment facts and the reference kernel shared by the scripts.

The benchmark always measures the ``dfreud`` sources of the checkout it sits
in (``<root>/src``), never an installed copy, so ``use_checkout_src`` puts
that directory first on ``sys.path`` and refuses to continue without it.

On a shared machine the speed of one core can drift by a quarter or more
over tens of seconds.  ``reference_kernel`` is a fixed piece of mpmath
arithmetic, independent of ``dfreud``, timed between tasks; dividing by
its time scales every measured time to a machine on which the kernel takes
``REFERENCE_S``.  A change to ``dfreud`` cannot change the kernel.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("hankel_sweep", "fast_routes", "identity_checks")

#: seconds the reference kernel takes on the reference machine.
REFERENCE_S = 0.005


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/dfreud`` package to benchmark."""


def use_checkout_src() -> None:
    """Import ``dfreud`` from ``<root>/src``; raise if it is absent or shadowed."""
    if not (SRC / "dfreud" / "__init__.py").is_file():
        raise MissingSourceError(f"no dfreud package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dfreud
    origin = Path(dfreud.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSourceError(f"dfreud imported from {origin}, not from {SRC}")


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import mpmath
    import mpmath.libmp
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def reference_kernel() -> float:
    """Run the fixed reference computation; return its wall time in seconds."""
    from mpmath import exp, log, mp, mpf, sqrt
    start = time.perf_counter()
    with mp.workdps(100):
        x, acc = mpf(2) / 7, mpf(0)
        for k in range(300):
            acc += sqrt(x + k) * x / (acc + 3)
        acc += exp(x) + log(acc)
    return time.perf_counter() - start


def speed_factor(kernel_s) -> float:
    """Factor that scales times measured alongside ``kernel_s`` to the reference."""
    return REFERENCE_S / statistics.median(kernel_s)
