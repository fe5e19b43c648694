"""Request-arrival statistics for one operations period.

Creation requests of each slice type arrive as a Poisson process, so the
per-period creation count is Poisson. Each active slice carries an
exponential lifetime, so by memorylessness the number of period-start slices
that release within the period is binomial with per-slice probability
``1 - exp(-1/mean_lifetime)``.

All probability masses are evaluated in log space via ``lgamma`` and
exponentiated once at the end; factorials would overflow doubles near
k = 170 and the normalization checks sum far into the tail.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

State = tuple[int, ...]


@dataclass(frozen=True)
class DemandScenario:
    """Per-type demand statistics: creation rates and mean slice lifetimes.

    Rates are requests per operations period; lifetimes are measured in
    operations periods. Both must be strictly positive for every type.
    """

    creation_rates: tuple[float, ...]
    mean_lifetimes: tuple[float, ...]

    def __init__(self, creation_rates: Sequence[float], mean_lifetimes: Sequence[float]):
        rates = tuple(float(x) for x in creation_rates)
        lifetimes = tuple(float(x) for x in mean_lifetimes)
        if len(rates) != len(lifetimes) or not rates:
            raise ValueError("creation_rates and mean_lifetimes must be nonempty and equal-length")
        if any(not math.isfinite(x) or x <= 0 for x in rates + lifetimes):
            raise ValueError("rates and lifetimes must be finite and > 0")
        object.__setattr__(self, "creation_rates", rates)
        object.__setattr__(self, "mean_lifetimes", lifetimes)

    @property
    def num_types(self) -> int:
        return len(self.creation_rates)


def request_kinds(num_types: int) -> tuple[int, ...]:
    """The canonical ordering of signed request kinds: +1..+N then -1..-N."""
    return tuple(range(1, num_types + 1)) + tuple(range(-1, -num_types - 1, -1))


def creation_pmf(rate: float, count: int) -> float:
    """Poisson mass: probability of ``count`` creation requests in one period.

    ``count = 0`` is part of the domain (mass ``exp(-rate)``); the product
    over request kinds needs the zero-arrival probability of every kind.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return math.exp(count * math.log(rate) - rate - math.lgamma(count + 1))


def release_pmf(mean_lifetime: float, active: int, count: int) -> float:
    """Probability that ``count`` of ``active`` slices release within a period.

    Computed as the binomial form
    ``C(active, count) * p**count * (1-p)**(active-count)`` with
    ``p = 1 - exp(-1/mean_lifetime)``. This equals the factorial-exponential
    form ``active! * p**count / (count! * (active-count)! *
    exp((active-count)/mean_lifetime))`` because the survival factor is
    ``(1-p)**(active-count) = exp(-(active-count)/mean_lifetime)``.
    """
    if active < 0 or count < 0:
        raise ValueError(f"active and count must be >= 0, got {active}, {count}")
    if count > active:
        raise ValueError(f"cannot release {count} of {active} active slices")
    if not mean_lifetime > 0:
        raise ValueError(f"mean_lifetime must be > 0, got {mean_lifetime}")
    if active == 0:
        return 1.0
    log_release = math.log(-math.expm1(-1.0 / mean_lifetime))
    # With no survivors the survival factor is 1, also where a tiny mean
    # lifetime makes log_survive -inf (0 * -inf would be NaN).
    log_survive = (active - count) * (-1.0 / mean_lifetime) if count < active else 0.0
    log_choose = (
        math.lgamma(active + 1) - math.lgamma(count + 1) - math.lgamma(active - count + 1)
    )
    return math.exp(log_choose + count * log_release + log_survive)


def arrival_pmf(scenario: DemandScenario, kind: int, count: int, state: State) -> float:
    """Per-kind arrival mass, conditioned on the period-start state.

    Positive kinds dispatch to the Poisson creation mass, negative kinds to
    the binomial release mass of the addressed type's active count.
    """
    slice_type = abs(kind)
    if kind == 0 or slice_type > scenario.num_types:
        raise ValueError(f"kind {kind!r} does not address a slice type in 1..{scenario.num_types}")
    if len(state) != scenario.num_types:
        raise ValueError(
            f"state has {len(state)} components, scenario has {scenario.num_types} types"
        )
    if kind > 0:
        return creation_pmf(scenario.creation_rates[slice_type - 1], count)
    return release_pmf(scenario.mean_lifetimes[slice_type - 1], state[slice_type - 1], count)


def multiset_prob(scenario: DemandScenario, multiset: Mapping[int, int], state: State) -> float:
    """Joint probability that exactly this bag of requests arrives in a period.

    ``multiset`` maps signed kinds to multiplicities; absent kinds count as
    zero. Independence across kinds makes the joint mass the product of the
    2N per-kind masses, including the zero-arrival factors.
    """
    for kind, count in multiset.items():
        if kind == 0 or abs(kind) > scenario.num_types:
            raise ValueError(f"unknown request kind {kind!r}")
        if count < 0:
            raise ValueError(f"multiplicity of kind {kind} must be >= 0, got {count}")
    prob = 1.0
    for kind in request_kinds(scenario.num_types):
        prob *= arrival_pmf(scenario, kind, multiset.get(kind, 0), state)
    return prob


def sequence_prob(scenario: DemandScenario, requests: Sequence[int], state: State) -> float:
    """Probability of one specific arrival ordering of a request bag.

    Memoryless arrivals make every ordering of the same bag equally likely,
    so this is the bag's joint mass split evenly over the Q! orderings of Q
    individually timestamped requests (orderings that read identically
    because they swap same-kind requests are counted separately).
    """
    counts = Counter(requests)
    total = len(requests)
    return multiset_prob(scenario, counts, state) / math.factorial(total)
