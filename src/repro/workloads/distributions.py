"""Seeded random distributions shared by the workload generators.

All generators take an explicit seed so that tests and benchmarks are
deterministic; nothing here depends on global random state.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple, TypeVar

from ..core.errors import ConfigurationError

T = TypeVar("T")


@lru_cache(maxsize=64)
def _zipf_cumulative(n: int, skew: float) -> Tuple[float, ...]:
    """The running sums of :meth:`Distributions.zipf_weights` — exactly the
    ``cum_weights`` ``random.choices`` builds from those weights, so a draw
    given them is the draw given the weights, at O(log n) instead of O(n)."""
    return tuple(accumulate(Distributions.zipf_weights(n, skew)))


class Distributions:
    """A bundle of seeded sampling helpers."""

    def __init__(self, seed: int = 7) -> None:
        self.random = random.Random(seed)

    # -- discrete choices --------------------------------------------------------

    def uniform_choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ConfigurationError("cannot sample from an empty sequence")
        return items[self.random.randrange(len(items))]

    @staticmethod
    def zipf_weights(n: int, skew: float = 1.0) -> List[float]:
        """Normalized Zipf weights for ranks 1..n."""
        if n < 1:
            raise ConfigurationError("n must be at least 1")
        raw = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
        total = sum(raw)
        return [weight / total for weight in raw]

    def zipf_choice(self, items: Sequence[T], skew: float = 1.0) -> T:
        """Sample one item with Zipf-distributed popularity (rank = list order)."""
        return items[self.zipf_index(len(items), skew)]

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        return self.random.choices(range(n), cum_weights=_zipf_cumulative(n, skew))[0]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Sample one item with explicit (not necessarily normalized) weights."""
        if not items or len(items) != len(weights):
            raise ConfigurationError(
                "weighted_choice needs one weight per item (and at least one item)"
            )
        return self.random.choices(list(items), weights=list(weights), k=1)[0]

    # -- numbers ------------------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self.random.uniform(low, high)

    def uniform_int(self, low: int, high: int) -> int:
        return self.random.randint(low, high)

    def gaussian_int(self, mean: float, stddev: float,
                     minimum: int = 0, maximum: int = 10**9) -> int:
        value = int(round(self.random.gauss(mean, stddev)))
        return max(minimum, min(maximum, value))

    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process of ``rate`` per second."""
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        return self.random.expovariate(rate)

    # -- arrival processes -----------------------------------------------------------

    def poisson_arrivals(self, rate: float, horizon: float,
                         start: float = 0.0) -> List[float]:
        """Arrival timestamps of a Poisson process over ``[start, start + horizon]``."""
        arrivals = []
        when = start
        while True:
            when += self.exponential(rate)
            if when > start + horizon:
                break
            arrivals.append(when)
        return arrivals

    def regular_arrivals(self, count: int, interval: float,
                         start: float = 0.0) -> List[float]:
        """Evenly spaced arrival timestamps."""
        return [start + index * interval for index in range(count)]

    def shuffled(self, items: Sequence[T]) -> List[T]:
        shuffled = list(items)
        self.random.shuffle(shuffled)
        return shuffled


__all__ = ["Distributions"]
