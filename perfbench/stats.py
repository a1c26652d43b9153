"""Order statistics, the host fingerprint and peak memory."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from typing import Dict, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` at the highest percentile that has at least ten
    samples beyond it, capped at p99; the maximum below 20 samples."""
    n = len(values)
    if n < 20:
        return 1.0, max(values) if values else 0.0
    q = min(0.99, 1.0 - 10.0 / n)
    return q, percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
