"""Order statistics for job timings."""

from __future__ import annotations

from statistics import quantiles

# Candidate tail percentiles, in tenths of a percent.
_TAIL_PERMILLE = (500, 750, 900, 950, 990, 999)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of ``n`` samples beyond it.

    Candidates are p50, p75, p90, p95, p99 and p99.9; ``None`` when fewer
    than 20 samples make even the median's tail too thin.
    """
    best = None
    for pm in _TAIL_PERMILLE:
        if n * (1000 - pm) >= 10 * 1000:
            best = pm
    return None if best is None else best / 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    h = (len(xs) - 1) * p / 100
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def slowest_sum(passes) -> float:
    """Sum over jobs of each job's slowest time; ``passes`` holds one list of job times per pass.

    Job ``i`` of every pass is the same job on the same inputs.  A shared
    host can switch between CPU speeds for tens of seconds at a time (1.6x
    apart on a 2-vCPU cloud VM, mostly at the slow one).  Nearly every run
    then sees each job at least once at the slow speed, while a median or
    mean follows the share of the run spent at the fast speed, which varies
    from run to run.
    """
    return sum(max(times) for times in zip(*passes, strict=True))


def upper_quartile(values) -> float:
    """Third quartile by ``statistics.quantiles``' default method; needs 3 values."""
    if len(values) < 3:
        raise ValueError("upper quartile of fewer than 3 samples")
    return quantiles(values, n=4)[2]
