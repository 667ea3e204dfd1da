"""Arithmetic the benchmark reports with: tail percentiles, interval
unions for cross-thread self time, and failed-unit counting.

Kept free of numpy and of modop so the self-tests can check it on
hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

# A tail percentile is only reported when at least this many samples lie
# strictly beyond it.
MIN_TAIL_SAMPLES = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule: the smallest
    sample with at least a q share of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-quantile."""
    return count - max(math.ceil(q * count), 1)


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile; refuses sample sets too small to put
    ``MIN_TAIL_SAMPLES`` samples beyond it (fewer than 100)."""
    beyond = samples_beyond(len(values), 0.9)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"{len(values)} samples leave {beyond} beyond p90; need {MIN_TAIL_SAMPLES}"
        )
    return nearest_rank(values, 0.9)


def planned_passes(
    seconds: float, pass_seconds: float, commands_per_pass: int, min_commands: int, traced: bool
) -> int:
    """Passes one run makes: ``seconds`` of passes at the workload's
    nominal pass time, and enough commands for the p90 rule.  A traced
    run warms up on one pass and then alternates traced and untraced
    passes, so it makes an odd number, at least three.

    The count depends on the arguments only, never on a clock, so two
    runs with one seed make the same commands and count the same units.
    """
    n = max(1, round(seconds / pass_seconds), math.ceil(min_commands / commands_per_pass))
    if traced:
        n = max(n, 3)
        n += 1 - n % 2
    return n


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def union_length(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def verify_units(n: int, exit_code: int, reported_failures: int | None, check_ok: bool) -> int:
    """Failed units of one ``verify`` command of ``n`` instances.

    Each instance is a unit.  When the payload could not be read or the
    command ended with a usage/data error, every instance counts as
    failed; otherwise the instances the suite reported, and all of them
    if the output check failed.
    """
    if reported_failures is None or exit_code not in (0, 1) or not check_ok:
        return n
    return min(reported_failures, n)


def single_unit(exit_code: int, check_ok: bool) -> int:
    """Failed units (0 or 1) of a command that is one unit."""
    return 0 if exit_code == 0 and check_ok else 1
