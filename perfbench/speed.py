"""Host-speed probe for scaling time metrics to a reference speed.

The benchmark runs on shared machines whose effective speed drifts by
+-15 % over tens of seconds (co-tenants on the same cores).  Every run
therefore times a fixed pure-Python loop alongside its work and scales
its host-time metrics by ``REFERENCE_S / median(probe times)``: a run
made while the machine is 10 % slow reports times 10 % lower than it
measured, so runs made at different moments (and commits measured at
different moments) compare at the same speed.  The raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: Median probe time on the reference host (2-core VM, Python 3.11);
#: scaled values read as seconds on that host at its typical speed.
REFERENCE_S = 0.007
_LOOP = 100_000


def probe() -> float:
    """Seconds one fixed interpreter-bound loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    return time.perf_counter() - start


def scale(samples: Sequence[float]) -> float:
    """Factor taking times measured alongside ``samples`` to the
    reference speed."""
    return REFERENCE_S / statistics.median(samples)
