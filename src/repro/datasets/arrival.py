"""Arrival-time processes for synthetic streams.

Table 1 of the paper lists three kinds of timestamps across its datasets:

* *sequential* — items are simply numbered (RCV1),
* *poisson* — inter-arrival times drawn from an exponential distribution
  (WebSpam, where timestamps were assigned artificially),
* *publishing date* — real posting times (Blogs, Tweets), which are bursty:
  periods of intense activity separated by quieter stretches.

The generators below reproduce those shapes.  Each returns an iterator of
non-decreasing timestamps; they are driven by a ``numpy`` random generator
so runs are reproducible given a seed.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = [
    "sequential_timestamps",
    "poisson_timestamps",
    "bursty_timestamps",
    "make_arrival_process",
    "ARRIVAL_PROCESSES",
]


def sequential_timestamps(count: int, *, start: float = 0.0,
                          step: float = 1.0) -> Iterator[float]:
    """Evenly spaced timestamps ``start, start+step, ...`` (RCV1-style)."""
    if step <= 0:
        raise InvalidParameterError(f"step must be positive, got {step}")
    for i in range(count):
        yield start + i * step


def poisson_timestamps(count: int, rng: np.random.Generator, *, rate: float = 1.0,
                       start: float = 0.0) -> Iterator[float]:
    """Poisson-process arrivals with the given rate (WebSpam-style)."""
    if rate <= 0:
        raise InvalidParameterError(f"rate must be positive, got {rate}")
    current = start
    for _ in range(count):
        current += float(rng.exponential(1.0 / rate))
        yield current


def bursty_timestamps(count: int, rng: np.random.Generator, *, rate: float = 1.0,
                      burst_size: float = 8.0, burst_spread: float = 0.1,
                      start: float = 0.0) -> Iterator[float]:
    """Bursty arrivals mimicking real publication times (Blogs/Tweets-style).

    Items arrive in bursts: the burst *anchors* follow a Poisson process of
    the given rate divided by the mean burst size, and each burst contains a
    geometric number of items spread over ``burst_spread`` time units.  A
    burst whose anchor falls inside the previous burst's spread starts at
    that burst's last item instead, so timestamps never decrease.
    """
    if rate <= 0 or burst_size < 1:
        raise InvalidParameterError(
            f"rate must be positive and burst_size >= 1, got {rate}, {burst_size}"
        )
    produced = 0
    anchor = start
    last = start
    anchor_rate = rate / burst_size
    while produced < count:
        anchor += float(rng.exponential(1.0 / anchor_rate))
        size = 1 + int(rng.geometric(1.0 / burst_size))
        size = min(size, count - produced)
        offsets = np.sort(rng.uniform(0.0, burst_spread, size=size))
        burst_start = max(anchor, last)
        for offset in offsets:
            last = burst_start + float(offset)
            yield last
            produced += 1


def make_arrival_process(name: str, count: int, rng: np.random.Generator, *,
                         rate: float = 1.0, burst_size: float = 8.0,
                         start: float = 0.0) -> Iterator[float]:
    """Build one of the named arrival processes.

    ``name`` is one of ``"sequential"``, ``"poisson"`` or ``"bursty"``.
    """
    key = name.lower()
    if key == "sequential":
        return sequential_timestamps(count, start=start, step=1.0 / rate)
    if key == "poisson":
        return poisson_timestamps(count, rng, rate=rate, start=start)
    if key == "bursty":
        return bursty_timestamps(count, rng, rate=rate, burst_size=burst_size, start=start)
    raise InvalidParameterError(
        f"unknown arrival process {name!r}; expected one of {sorted(ARRIVAL_PROCESSES)}"
    )


ARRIVAL_PROCESSES = ("sequential", "poisson", "bursty")
