"""Percentile helpers: a median, and a tail with at least ten samples
beyond it."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` in ``n`` samples."""
    return min(n, max(1, math.ceil(pct / 100.0 * n - 1e-9)))


def summarize(samples: list[float], fixed_tail: float | None = None) -> dict:
    """Median and tail of ``samples``, with the tail's percentile and the
    sample count.

    ``fixed_tail`` pins the tail percentile, so that time-bounded runs,
    which get a few more or fewer samples, report the same percentile
    every time.  It is used only when at least ``MIN_BEYOND`` samples lie
    beyond its rank; otherwise (and without ``fixed_tail``) the tail is
    the highest percentile that leaves exactly ``MIN_BEYOND`` beyond it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples to summarize")
    ordered = sorted(samples)
    if fixed_tail is not None and n - _rank(fixed_tail, n) >= MIN_BEYOND:
        pct, rank = fixed_tail, _rank(fixed_tail, n)
    elif n > MIN_BEYOND:
        rank = n - MIN_BEYOND
        pct = 100.0 * rank / n
    else:
        pct, rank = 100.0, n
    return {
        "n": n,
        "p50": float(ordered[_rank(50.0, n) - 1]),
        "tail": float(ordered[rank - 1]),
        "tail_pct": pct,
    }


def select(samples: list[float], labels: list, keep: frozenset | None) -> list[float]:
    """The samples whose label is in ``keep`` (all of them for None)."""
    if keep is None:
        return list(samples)
    return [v for v, label in zip(samples, labels) if label in keep]


def geomean_of_label_medians(samples: list[float], labels: list) -> float:
    """Geometric mean, over distinct labels, of each label's median."""
    groups: dict = {}
    for v, label in zip(samples, labels):
        groups.setdefault(label, []).append(v)
    logs = [math.log(sorted(g)[_rank(50.0, len(g)) - 1]) for g in groups.values()]
    return math.exp(sum(logs) / len(logs))
