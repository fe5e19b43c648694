"""Resource model, allocation states, and admission strategies.

States are plain tuples of per-type active-slice counts, so they hash and
compare naturally and can index dictionaries. Requests are signed integers:
``+n`` asks to create a type-``n`` slice, ``-n`` to release one (types are
1-based). Decisions are booleans: ``True`` accepts, ``False`` declines.

All arithmetic on pool sizes and costs stays in pure Python: integer and
``fractions.Fraction`` inputs are compared exactly, while float inputs get a
small tolerance so boundary allocations (three 0.3-cost slices against a
pool of 1.0) are classified stably.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .arrivals import request_kinds
from .errors import DegenerateModelError, GuardExceededError, InvalidStrategyError

State = tuple[int, ...]
Request = int

# Slack tolerance for float-valued pools/costs; exact types use strict >= 0.
FEASIBILITY_TOL = 1e-9

# Largest region enumerate_region builds. The bundled and ladder models stay
# below 200 states; every |R| x |R| float64 array a region feeds (a matrix, an
# empirical estimate) takes 134 MB at this size and 1 GB near 11,000 states.
MAX_REGION_STATES = 4096

# Largest number of valid strategies enumerate_valid_strategies lists.
MAX_STRATEGIES = 1 << 20


@dataclass(frozen=True)
class ResourceModel:
    """A resource pool and the per-slice-type cost of drawing from it.

    ``resource_pool`` holds one capacity per resource dimension and
    ``cost_matrix`` one row per resource dimension with one column per slice
    type. Every slice type must have a strictly positive cost in at least one
    resource, otherwise the set of feasible allocations is infinite and the
    model is rejected.
    """

    resource_pool: tuple
    cost_matrix: tuple

    def __init__(self, resource_pool: Sequence, cost_matrix: Sequence[Sequence]):
        pool = tuple(resource_pool)
        costs = tuple(tuple(row) for row in cost_matrix)
        if not pool:
            raise ValueError("resource_pool must have at least one entry")
        if len(costs) != len(pool):
            raise ValueError(
                f"cost_matrix has {len(costs)} rows but resource_pool has "
                f"{len(pool)} entries"
            )
        width = len(costs[0]) if costs else 0
        if width == 0 or any(len(row) != width for row in costs):
            raise ValueError("cost_matrix rows must be nonempty and equal-length")
        for value in pool:
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"resource pool entries must be finite and >= 0, got {value!r}")
        for row in costs:
            for value in row:
                if not math.isfinite(value) or value < 0:
                    raise ValueError(f"cost entries must be finite and >= 0, got {value!r}")
        for n in range(width):
            if not any(costs[m][n] > 0 for m in range(len(costs))):
                raise DegenerateModelError(
                    f"slice type {n + 1} has zero cost in every resource; "
                    "the feasible allocation set would be unbounded"
                )
        object.__setattr__(self, "resource_pool", pool)
        object.__setattr__(self, "cost_matrix", costs)

    @property
    def num_resources(self) -> int:
        return len(self.resource_pool)

    @property
    def num_types(self) -> int:
        return len(self.cost_matrix[0])


def check_feasible(model: ResourceModel, counts: Sequence[int]) -> bool:
    """Return True iff the allocation fits inside the resource pool.

    For every resource the pool minus the summed per-type costs must be
    nonnegative. Exact (int/Fraction) inputs are compared exactly; any float
    in the computation switches the comparison to a ``-FEASIBILITY_TOL``
    threshold.
    """
    if len(counts) != model.num_types:
        raise ValueError(
            f"allocation has {len(counts)} components, model has {model.num_types} slice types"
        )
    for m in range(model.num_resources):
        row = model.cost_matrix[m]
        slack = model.resource_pool[m] - sum(row[n] * counts[n] for n in range(len(counts)))
        tol = FEASIBILITY_TOL if isinstance(slack, float) else 0
        if slack < -tol:
            return False
    return True


@dataclass(frozen=True)
class AdmissibilityRegion:
    """The finite set of feasible allocation states, canonically ordered.

    ``states`` is sorted ascending lexicographically; the position of a state
    in that ordering is its index, and ``index_of`` inverts the mapping.
    """

    states: tuple[State, ...]
    index_of: dict[State, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index_of", {s: i for i, s in enumerate(self.states)})

    def __len__(self) -> int:
        return len(self.states)

    @property
    def num_types(self) -> int:
        return len(self.states[0]) if self.states else 0

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """The accepted successor of every (state, request kind), as indices.

        ``successors[i][p]`` is the region index reached from state ``i``
        when a request of kind ``request_kinds(N)[p]`` (``+1..+N`` then
        ``-1..-N``) is accepted, or ``-1`` where accepting it leaves the
        region: a creation past the pool, or a release with no active slice
        of its type.
        """
        table = []
        for state in self.states:
            row = []
            for kind in request_kinds(self.num_types):
                n = abs(kind) - 1
                moved = state[:n] + (state[n] + (1 if kind > 0 else -1),) + state[n + 1:]
                row.append(self.index_of.get(moved, -1))
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def creation_mask(self) -> int:
        """The admissible creations as strategy bits: bit ``row*N + n`` is
        set iff creating a type-``n+1`` slice in state ``row`` stays in the
        region. The valid strategies are exactly its submasks."""
        width = self.num_types
        return sum(
            1 << (row * width + n)
            for row, successors in enumerate(self.successors)
            for n in range(width)
            if successors[n] >= 0
        )


def state_label(state: Sequence[int]) -> str:
    """Render a state as ``s=[n1,...,nN]`` for headers and traces."""
    return "s=[" + ",".join(str(c) for c in state) + "]"


def enumerate_region(model: ResourceModel) -> AdmissibilityRegion:
    """Enumerate every feasible allocation in ascending lexicographic order.

    Feasibility is downward closed (removing slices never hurts), so a
    depth-first scan can stop raising a component at the first infeasible
    value. The scan stops with :class:`GuardExceededError` as soon as the
    region passes ``MAX_REGION_STATES``.
    """
    num_types = model.num_types
    states: list[State] = []
    counts = [0] * num_types

    def scan(level: int) -> None:
        if level == num_types:
            if len(states) == MAX_REGION_STATES:
                raise GuardExceededError(f"the region has more than {MAX_REGION_STATES} states")
            states.append(tuple(counts))
            return
        value = 0
        while True:
            counts[level] = value
            if not check_feasible(model, counts):
                break
            scan(level + 1)
            value += 1
        counts[level] = 0

    scan(0)
    return AdmissibilityRegion(tuple(states))


def apply_request(state: State, request: Request, accept: bool) -> State:
    """Apply one decided request: add or remove one slice of the given type.

    A declined request leaves the state untouched. Accepting a release when
    no slice of that type is active would drive the count negative and
    raises.
    """
    slice_type = abs(request)
    if request == 0 or slice_type > len(state):
        raise ValueError(f"request {request!r} does not address a slice type in 1..{len(state)}")
    if not accept:
        return state
    index = slice_type - 1
    delta = 1 if request > 0 else -1
    if state[index] + delta < 0:
        raise ValueError(
            f"cannot accept release of type {slice_type}: no active slice in state {state}"
        )
    return state[:index] + (state[index] + delta,) + state[index + 1:]


@dataclass(frozen=True)
class Strategy:
    """A valid admission rule over an enumerated region.

    Only creation requests carry a degree of freedom: bit ``row*N + n`` of
    ``bits`` accepts a creation of type ``n+1`` in region state ``row``.
    Releases are accepted unconditionally by construction, so the release
    half of the decision table never needs storing; a region with ``k``
    free creation decisions therefore stands for ``2**k`` raw accept/decline
    tables whose release bits are all forced to accept.

    Construction raises :class:`InvalidStrategyError` unless ``bits`` is a
    submask of the region's ``creation_mask``, so a strategy that exists is
    valid.
    """

    region: AdmissibilityRegion
    bits: int

    def __post_init__(self):
        # A negative value has every bit past the mask set, so it fails too.
        if self.bits & ~self.region.creation_mask:
            raise InvalidStrategyError("strategy accepts a creation that leaves the region")

    def decide(self, request: Request, state: State) -> bool:
        """The accept/decline decision for one request in one state."""
        width = self.region.num_types
        if request == 0 or abs(request) > width:
            raise ValueError(f"request {request!r} does not address a slice type in 1..{width}")
        if request < 0:
            return True
        try:
            row = self.region.index_of[state]
        except KeyError:
            raise InvalidStrategyError(f"strategy not defined for state {state}") from None
        return bool(self.bits >> (row * width + request - 1) & 1)

    @cached_property
    def next_index(self) -> tuple[tuple[int, ...], ...]:
        """The decided successor of every (state, request kind), as indices.

        ``next_index[i][p]`` is the region index reached from state ``i``
        when a request of kind ``request_kinds(N)[p]`` is decided: ``i``
        for a declined creation, the region's ``successors[i][p]`` for
        everything else, so ``-1`` only where a release has no active slice
        of its type. Computed once per strategy object.
        """
        width = self.region.num_types
        return tuple(
            tuple(
                i if p < width and not self.bits >> (i * width + p) & 1 else successor
                for p, successor in enumerate(row)
            )
            for i, row in enumerate(self.region.successors)
        )


def strategy_from_table(region: AdmissibilityRegion, table: Sequence[Sequence[bool]]) -> Strategy:
    """The strategy whose decision table has one row per region state and
    one accept flag per slice type in each row."""
    if len(table) != len(region) or any(len(row) != region.num_types for row in table):
        raise InvalidStrategyError(
            f"decision table must have {len(region)} rows of {region.num_types} columns, "
            "one row per state and one column per slice type"
        )
    cells = itertools.chain.from_iterable(table)
    return Strategy(region, sum(1 << i for i, accept in enumerate(cells) if accept))


def always_accept_strategy(region: AdmissibilityRegion) -> Strategy:
    """Accept every creation whose resulting allocation stays feasible."""
    return Strategy(region, region.creation_mask)


def decline_all_strategy(region: AdmissibilityRegion) -> Strategy:
    return Strategy(region, 0)


def enumerate_valid_strategies(model: ResourceModel, region: AdmissibilityRegion) -> list[Strategy]:
    """All valid strategies, ordered by ascending decision-table bits.

    ``model`` is not read. The valid tables are exactly the submasks of the
    region's ``creation_mask``, and only those are walked; their number,
    ``2**popcount(creation_mask)``, may not pass ``MAX_STRATEGIES``. Each
    table stands for the ``2**(release bits)`` raw tables that agree on
    creations, all but one of which are ruled out by mandatory release
    acceptance.
    """
    allowed = region.creation_mask
    free = allowed.bit_count()
    if (1 << free) > MAX_STRATEGIES:
        raise GuardExceededError(
            f"2**{free} valid tables exceed the cap of {MAX_STRATEGIES}"
        )
    valid = []
    bits = 0
    while True:
        valid.append(Strategy(region, bits))
        if bits == allowed:
            return valid
        bits = (bits - allowed) & allowed


def apply_sequence(state: State, requests: Sequence[Request], strategy: Strategy) -> State:
    """Fold a buffered request queue through the strategy, left to right.

    Each request is decided against the state produced by its predecessors.
    With a valid strategy and no more releases per type than the starting
    counts, every intermediate state stays in the region and no release ever
    underflows (apply_request raises if that contract is broken).
    """
    current = state
    for request in requests:
        current = apply_request(current, request, strategy.decide(request, current))
    return current
