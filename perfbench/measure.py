"""Statistics, host stamp and memory readings shared by every workload."""

from __future__ import annotations

import math
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it: such a percentile is set by a handful of
    outliers and does not repeat.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed")
    return float(sorted(samples)[rank - 1])


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest of :data:`TAIL_PERCENTILES` that
    :func:`percentile` accepts, or ``None`` when none has enough
    samples."""
    for q in TAIL_PERCENTILES:
        try:
            return q, percentile(samples, q)
        except ValueError:
            continue
    return None


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    return float(statistics.median(values)) if values else 0.0


def calibration_score(repeats: int = 7) -> float:
    """Millions of fixed micro-operations per second on this host.

    A fixed mix of interpreted integer work and a numpy cumsum/search —
    the two kinds of work the program's token loops do — scored by the
    fastest of ``repeats`` runs, which interference from other processes
    can only slow.  Compare results across runs only when their scores
    agree: a lower score is a slower host, not slower code.
    """
    data = np.random.default_rng(0).random(400_000)
    probes = np.linspace(0.0, 1.0, 4_000)
    loops = 400_000
    operations = loops + data.shape[0] + probes.shape[0]
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        total = 0
        for value in range(loops):
            total += value & 7
        cumulative = np.cumsum(data)
        np.searchsorted(cumulative / cumulative[-1], probes)
        best = min(best, perf_counter() - start)
    return operations / best / 1e6


def host_stamp() -> dict:
    """What a later comparison needs to tell a slower host from slower
    code."""
    from repro.serving.parallel import available_cpus
    return {"cpus": available_cpus(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "calibration_mops": round(calibration_score(), 3)}


def _private_mb(pid: int) -> float:
    """Resident memory of ``pid`` that no other process shares, in MB."""
    total = 0.0
    try:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text() \
                .splitlines():
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += float(line.split()[1])
    except OSError:
        return 0.0
    return total * 1024 / 1e6


def peak_rss_mb(worker_pids: Iterable[int] = ()) -> tuple[float, list[float]]:
    """Peak RSS of this process in MB, and the private resident memory
    of each live worker.

    Forked workers share this process's pages copy-on-write; counting
    only what each holds privately adds what the pool costs on top of
    the process without counting the shared pages again (and without
    the allocator's noise in how many pages were resident at the fork).
    """
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1e6
    return own, [_private_mb(pid) for pid in worker_pids]
