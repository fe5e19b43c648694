"""Synchronous transition-matrix construction and chain analytics.

The transition probability from one period-boundary state to the next
aggregates, over every request bag that can arrive within a period, the bag's
joint probability split across the states its equally likely orderings lead
to. Creation counts are unbounded, so bags are truncated at a per-type cap on
creation multiplicities; release multiplicities are naturally bounded by the
row state. Each row therefore sums to slightly less than one before
renormalization, and the shortfall (the truncated Poisson tail mass) is
recorded per row.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .arrivals import DemandScenario, creation_pmf, release_pmf, request_kinds, sequence_prob
from .domain import (
    AdmissibilityRegion,
    ResourceModel,
    State,
    Strategy,
    apply_sequence,
    state_label,
)
from .errors import ConfigError, GuardExceededError, InvalidStrategyError, ReducibleChainError

ROW_SUM_TOL = 1e-12

# Longest bag brute_force_transition_matrix expands into its Q! orderings.
BRUTE_FORCE_MAX_QUEUE = 8

# Most request bags one build may enumerate, summed over its rows.
MAX_BAGS = 500_000


@dataclass(eq=False)
class TransitionMatrix:
    """A row-indexed transition probability matrix over an enumerated region.

    ``probs[i, j]`` is the one-period probability of moving from region state
    ``i`` to ``j``. ``row_deficits`` holds the truncated tail mass of each row
    before any renormalization; when ``renormalized`` is set the rows have
    been scaled to sum to one.
    """

    probs: np.ndarray
    region: AdmissibilityRegion
    renormalized: bool
    row_deficits: np.ndarray

    def __post_init__(self):
        size = len(self.region)
        self.probs = np.asarray(self.probs, dtype=float)
        self.row_deficits = np.asarray(self.row_deficits, dtype=float)
        if self.probs.shape != (size, size):
            raise ValueError(f"matrix shape {self.probs.shape} does not match region size {size}")
        if self.row_deficits.shape != (size,):
            raise ValueError("row_deficits must have one entry per region state")
        if not (np.all(np.isfinite(self.probs)) and np.all(np.isfinite(self.row_deficits))):
            raise ValueError("matrix entries and row deficits must be finite")
        if np.any(self.probs < -ROW_SUM_TOL) or np.any(self.probs > 1 + ROW_SUM_TOL):
            raise ValueError("matrix entries must lie in [0, 1]")
        if np.any(self.row_deficits < -ROW_SUM_TOL):
            raise ValueError("row deficits must be nonnegative")
        sums = self.probs.sum(axis=1)
        if self.renormalized:
            if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
                raise ValueError("renormalized rows must sum to 1")
        elif np.any(sums > 1 + ROW_SUM_TOL):
            raise ValueError("raw rows must sum to at most 1")
        self.probs.setflags(write=False)
        self.row_deficits.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.region)


def _iter_request_bags(state: State, q_plus_max: int, num_types: int):
    """Yield per-kind count tuples aligned with ``request_kinds(num_types)``.

    Creations range over ``0..q_plus_max`` per type, releases over
    ``0..state[n]`` per type.
    """
    creation_ranges = [range(q_plus_max + 1)] * num_types
    release_ranges = [range(state[n] + 1) for n in range(num_types)]
    for counts in itertools.product(*creation_ranges, *release_ranges):
        yield counts


# One ordering memo per strategy, shared by every row, scenario and depth of
# every build with that strategy; it goes when the strategy does.
_ORDERING_MEMOS: weakref.WeakKeyDictionary[Strategy, dict] = weakref.WeakKeyDictionary()


def _ordering_distribution(
    counts: tuple[int, ...],
    state_index: int,
    next_index: tuple[tuple[int, ...], ...],
    memo: dict,
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Distribution of final state indices over the equally likely bag orderings.

    ``counts`` is aligned with ``request_kinds`` and ``next_index`` is the
    strategy's compiled table. Removes one request at a time, each remaining
    request equally likely to be next (probability proportional to its
    kind's remaining multiplicity), moves to the decided successor, and
    recurses on the reduced bag. The result is a pair of equal-length tuples
    (final indices, weights). The memo key is (remaining bag, current state
    index); it does not depend on the row the bag came from or on the
    demand, so one memo serves every build with the same strategy.
    """
    key = (counts, state_index)
    cached = memo.get(key)
    if cached is not None:
        return cached
    total = sum(counts)
    if total == 0:
        result = ((state_index,), (1.0,))
        memo[key] = result
        return result
    # A bag never releases more slices of a type than are active, so no
    # successor read here is the table's -1.
    successors = next_index[state_index]
    weights: dict[int, float] = {}
    for i, k in enumerate(counts):
        if not k:
            continue
        pick = k / total
        reduced = counts[:i] + (k - 1,) + counts[i + 1:]
        finals, final_weights = _ordering_distribution(reduced, successors[i], next_index, memo)
        for final, weight in zip(finals, final_weights):
            weights[final] = weights.get(final, 0.0) + pick * weight
    result = (tuple(weights), tuple(weights.values()))
    memo[key] = result
    return result


def _check_build_arguments(region: AdmissibilityRegion, strategy: Strategy, q_plus_max: int) -> None:
    """The argument checks both builders make. A row in state s has
    ``(q_plus_max + 1)**N * prod(s_n + 1)`` bags, and a build whose rows
    hold more than ``MAX_BAGS`` in all is refused before it starts."""
    if len(region) == 0:
        raise ValueError("region is empty")
    if q_plus_max < 1:
        raise ValueError(f"q_plus_max must be >= 1, got {q_plus_max}")
    if strategy.region != region:
        raise InvalidStrategyError("strategy is defined over a different region")
    releases = sum(math.prod(count + 1 for count in state) for state in region.states)
    bags = (q_plus_max + 1) ** region.num_types * releases
    if bags > MAX_BAGS:
        raise GuardExceededError(
            f"a build at q_plus_max={q_plus_max} enumerates {bags} request bags, above the cap of {MAX_BAGS}"
        )


def _finish_build(
    probs: np.ndarray, region: AdmissibilityRegion, q_plus_max: int, renormalize: bool
) -> TransitionMatrix:
    """Record each raw row's deficit and, if asked, scale the rows to sum
    to one. A row that kept less mass below the cap than the smallest normal
    double is refused: its bag masses underflowed to subnormals (or to 0),
    which keep too few digits for the scaled row to be right, or to be a
    number at all."""
    sums = probs.sum(axis=1)
    deficits = 1.0 - sums
    if renormalize:
        starved = np.flatnonzero(sums < np.finfo(float).tiny)
        if starved.size:
            raise ConfigError(
                f"row {state_label(region.states[starved[0]])} keeps less than the smallest normal "
                f"double of probability mass at q_plus_max={q_plus_max}, so it cannot be renormalized; "
                "raise q_plus_max or keep the raw rows"
            )
        probs = probs / sums[:, None]
    return TransitionMatrix(probs=probs, region=region, renormalized=renormalize, row_deficits=deficits)


def build_transition_matrix(
    model: ResourceModel,
    region: AdmissibilityRegion,
    scenario: DemandScenario,
    strategy: Strategy,
    q_plus_max: int,
    renormalize: bool = True,
) -> TransitionMatrix:
    """Build the one-period transition matrix under truncated bag traversal.

    Parameters
    ----------
    model : not read; the region already holds what the resource model decides.
    q_plus_max : per-type cap on creation-request multiplicities considered
        per period. Release multiplicities need no cap; they are bounded by
        the row state's active counts.
    renormalize : scale each row to sum to one. The raw shortfall is kept in
        ``row_deficits`` either way.

    Each bag's joint mass is the product of its per-kind masses, taken left
    to right in ``request_kinds`` order from 1.0 as ``multiset_prob`` does.
    The ordering distributions come from the strategy's shared memo, so a
    later build with the same strategy reuses every sub-bag already solved.
    """
    _check_build_arguments(region, strategy, q_plus_max)
    memo = _ORDERING_MEMOS.get(strategy)
    if memo is None:
        memo = _ORDERING_MEMOS[strategy] = {}
    next_index = strategy.next_index
    size = len(region)
    creation_pmfs = [
        [creation_pmf(rate, k) for k in range(q_plus_max + 1)] for rate in scenario.creation_rates
    ]
    probs = np.zeros((size, size))
    for row_index, state in enumerate(region.states):
        release_pmfs = [
            [release_pmf(lifetime, active, k) for k in range(active + 1)]
            for lifetime, active in zip(scenario.mean_lifetimes, state)
        ]
        row = [0.0] * size
        bags = _iter_request_bags(state, q_plus_max, scenario.num_types)
        for counts, masses in zip(bags, itertools.product(*creation_pmfs, *release_pmfs)):
            bag_prob = 1.0
            for mass in masses:
                bag_prob *= mass
            finals, weights = _ordering_distribution(counts, row_index, next_index, memo)
            for final, weight in zip(finals, weights):
                row[final] += bag_prob * weight
        probs[row_index] = row
    return _finish_build(probs, region, q_plus_max, renormalize)


def brute_force_transition_matrix(
    model: ResourceModel,
    region: AdmissibilityRegion,
    scenario: DemandScenario,
    strategy: Strategy,
    q_plus_max: int,
    renormalize: bool = True,
) -> TransitionMatrix:
    """Reference builder: explicit enumeration of every bag ordering.

    Expands each admissible request bag into all Q! timestamped orderings
    (``itertools.permutations`` over the expanded bag, so same-kind swaps are
    counted separately), folds each ordering through the strategy and sums
    its sequence probability into the reached entry. Exponentially slower
    than the memoized builder; intended as an independent check at small
    truncation depths, and a bag longer than ``BRUTE_FORCE_MAX_QUEUE`` raises.
    ``model`` is not read.
    """
    _check_build_arguments(region, strategy, q_plus_max)
    kinds = request_kinds(scenario.num_types)
    size = len(region)
    probs = np.zeros((size, size))
    for row_index, state in enumerate(region.states):
        for counts in _iter_request_bags(state, q_plus_max, scenario.num_types):
            total = sum(counts)
            if total > BRUTE_FORCE_MAX_QUEUE:
                raise GuardExceededError(
                    f"bag of {total} requests exceeds the brute-force guard of {BRUTE_FORCE_MAX_QUEUE}"
                )
            bag = [kind for kind, k in zip(kinds, counts) for _ in range(k)]
            for ordering in itertools.permutations(bag):
                final = apply_sequence(state, ordering, strategy)
                probs[row_index, region.index_of[final]] += sequence_prob(scenario, ordering, state)
    return _finish_build(probs, region, q_plus_max, renormalize)


def truncation_tail_bound(scenario: DemandScenario, q_plus_max: int) -> float:
    """Upper bound on any row deficit: summed per-type Poisson tail masses.

    Each row's raw sum is the product over types of the Poisson mass kept
    below the cap, so the deficit is ``1 - prod(1 - tail_n) <= sum(tail_n)``.
    """
    total = 0.0
    for rate in scenario.creation_rates:
        kept = sum(creation_pmf(rate, k) for k in range(q_plus_max + 1))
        total += max(0.0, 1.0 - kept)
    return total


def _closed_classes(probs: np.ndarray) -> list[np.ndarray]:
    """Closed communicating classes as index arrays, in ascending order of
    their first state.

    Reachability is the transitive closure of ``(P > 0) | I``, found by
    squaring it until it stops changing: about log2(n) matrix products, in
    floating point, where sums of zeros and ones are exact. A state lies in
    a closed class when every state it reaches reaches it back; its class is
    then the set it reaches, and it is the class's first state when it
    reaches no state before it.
    """
    reach = (probs > 0) | np.eye(len(probs), dtype=bool)
    while True:
        closure = (reach.astype(float) @ reach.astype(float)) > 0
        if np.array_equal(closure, reach):
            break
        reach = closure
    closed = ~np.any(reach & ~reach.T, axis=1)
    return [np.flatnonzero(reach[i]) for i in np.flatnonzero(closed) if reach[i].argmax() == i]


def stationary_distribution(matrix: TransitionMatrix) -> np.ndarray:
    """Fixed point of the chain, by a direct solve on its closed class.

    A unique fixed point needs exactly one closed communicating class; with
    several, the limit depends on the start and the call raises, reporting
    the closed classes by state label. States outside the closed class are
    transient and get zero mass. On the class, ``pi (P - I) = 0`` has a
    one-dimensional solution space, so replacing one of its equations by
    ``sum(pi) = 1`` leaves a nonsingular system.
    """
    if not matrix.renormalized:
        raise ValueError("stationary_distribution requires a renormalized matrix")
    closed = _closed_classes(matrix.probs)
    if len(closed) > 1:
        labels = [[state_label(matrix.region.states[i]) for i in cls] for cls in closed]
        raise ReducibleChainError(
            f"chain has {len(closed)} closed communicating classes: {labels}", classes=labels
        )
    (members,) = closed
    system = matrix.probs[np.ix_(members, members)].T - np.eye(len(members))
    system[-1] = 1.0
    rhs = np.zeros(len(members))
    rhs[-1] = 1.0
    dist = np.zeros(matrix.size)
    dist[members] = np.linalg.solve(system, rhs)
    return dist


def occupancy_mean(region: AdmissibilityRegion, distribution: np.ndarray) -> np.ndarray:
    """Expected active-slice count per type under a state distribution."""
    states = np.array(region.states, dtype=float)
    return distribution @ states
