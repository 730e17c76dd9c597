"""Arithmetic shared by the benchmark: latency summaries, span self time,
failure fractions and the memory-guard estimate.

Everything here is pure (no clock, no I/O) so that it can be unit tested.
"""

from __future__ import annotations

import statistics

# Number of samples that must lie strictly beyond the reported tail value.
TAIL_BEYOND = 10

# Peak resident memory of a workload child, as a multiple of its largest
# complex array.  Measured on the seed commit: rank-3 STFT at n=16 (268 MB)
# peaks at ~930 MB RSS, rank-2 STFT at n=64 (268 MB) at ~920 MB, the
# n=512 a=b=4 Gabor element rows (134 MB) at ~340 MB.  4x covers all three.
PEAK_FACTOR = 4.0

COMPLEX_BYTES = 16


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """(value, percentile, beyond): the highest order statistic that still
    has at least TAIL_BEYOND samples strictly above it in rank.

    With N sorted samples that is index N - TAIL_BEYOND - 1, i.e. the
    100 * (N - TAIL_BEYOND) / N percentile.  When that index would fall
    below the median (N < 2 * TAIL_BEYOND + 1) the maximum is returned
    instead, with percentile 100 and nothing beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    idx = n - TAIL_BEYOND - 1
    if idx < (n - 1) // 2:
        return xs[-1], 100.0, 0
    return xs[idx], 100.0 * (n - TAIL_BEYOND) / n, n - 1 - idx


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no op was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children.

    `spans` is a list of (start, end, parent) with parent an index into
    the same list or None.  Children are clipped to the parent interval
    and overlapping children are counted once.
    """
    children = [[] for _ in spans]
    for idx, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(idx)
    out = []
    for (start, end, _), kids in zip(spans, children):
        intervals = sorted(
            (max(spans[k][0], start), min(spans[k][1], end)) for k in kids)
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def estimate_peak_bytes(largest_array_bytes: int) -> int:
    return int(PEAK_FACTOR * largest_array_bytes)


def stft_bytes(n: int, rank: int) -> int:
    """Bytes of one complex STFT of a rank-`rank` table on Z_n: n^(2 rank) entries."""
    return COMPLEX_BYTES * n ** (2 * rank)


def fits(largest_array_bytes: int, mem_available_bytes: int) -> bool:
    """Memory guard: the estimated peak must not exceed available memory."""
    return estimate_peak_bytes(largest_array_bytes) <= mem_available_bytes


def mem_available_bytes(meminfo_text: str) -> int:
    """MemAvailable from the text of /proc/meminfo, in bytes."""
    for line in meminfo_text.splitlines():
        if line.startswith("MemAvailable:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected MemAvailable unit {unit!r}")
            return int(value) * 1024
    raise ValueError("MemAvailable missing from meminfo")
