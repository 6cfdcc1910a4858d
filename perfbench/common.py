"""Small statistics and process helpers shared by the workloads."""

from __future__ import annotations

import math
import resource
import time

clock = time.perf_counter


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(n_samples, q):
    """True if percentile ``q`` has at least 10 samples beyond it."""
    return n_samples * (100.0 - q) / 100.0 >= 10


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
