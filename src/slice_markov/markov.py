"""Synchronous transition-matrix construction and chain analytics.

The transition probability from one period-boundary state to the next
aggregates, over every request bag that can arrive within a period, the bag's
joint probability split across the states its equally likely orderings lead
to. Creation counts are unbounded, so bags are truncated at a per-type cap on
creation multiplicities; release multiplicities are naturally bounded by the
row state. Each row therefore sums to slightly less than one before
renormalization, and the shortfall (the truncated Poisson tail mass) is
recorded per row.

How a bag's orderings split its mass does not depend on the row or the
demand, only on the bag, the state it starts in and the strategy. Each
strategy therefore keeps one ordering table with a row per (bag, start
state) key, filled level by level in bag size with numpy and kept at the
deepest truncation depth built so far; a shallower depth reads its keys out
of it. A row holds only the key's nonzero final states, so the table's bytes
scale with its nonzeros, at most keys x min(|R|, prod(c_n + 1)) for a bag of
c_n creations of type n, not with keys x |R|. A matrix row sums the table
rows of its bags, weighted by the bags' masses, one bag after another.

A build makes no Python call per bag or per key. The creation masses are
one outer product per build; a row extends it by its release pmfs, read
from one table per type and build (``_release_pmf_table``). A row's
keys are the creation box's keys at the build's depth, scaled by the row's
release box and offset by its own (``_KeyBoxes.row_keys``).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .arrivals import DemandScenario, creation_pmf, request_kinds, sequence_prob
from .domain import (
    AdmissibilityRegion,
    ResourceModel,
    State,
    Strategy,
    apply_sequence,
    state_label,
)
from .errors import ConfigError, GuardExceededError, InvalidStrategyError, ReducibleChainError

log = logging.getLogger("slice_markov")

ROW_SUM_TOL = 1e-12

# Longest bag brute_force_transition_matrix expands into its Q! orderings.
BRUTE_FORCE_MAX_QUEUE = 8

# Most request bags one build may enumerate, summed over its rows. It is
# also the ordering table's key count, and the table's bytes scale with its
# nonzeros, at most keys x min(|R|, prod(c_n + 1)).
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


def _release_pmf_table(mean_lifetime: float, max_active: int) -> list[np.ndarray]:
    """``release_pmf(mean_lifetime, active, k)`` for every ``k <= active <=
    max_active``, as one array over ``k`` per ``active``, bit for bit.
    ``mean_lifetime`` is a ``DemandScenario``'s, so finite and > 0, and
    ``max_active`` a count of slices, so >= 0.

    The exponents of the whole triangle are formed with numpy in
    ``release_pmf``'s order of operations, from the same ``math.lgamma``
    values and survival logs; only the final ``math.exp`` is taken per
    entry, since numpy's ``exp`` may differ from it in the last bit.
    """
    sizes = np.arange(1, max_active + 2)
    starts = np.cumsum(sizes) - sizes
    active = np.repeat(sizes - 1, sizes)
    count = np.arange(len(active)) - np.repeat(starts, sizes)
    survivors = active - count
    log_factorial = np.array([math.lgamma(n + 1) for n in range(max_active + 1)])
    log_choose = log_factorial[active] - log_factorial[count] - log_factorial[survivors]
    log_release = math.log(-math.expm1(-1.0 / mean_lifetime))
    # By survivor count, formed as release_pmf forms it: 0.0 with none, also
    # where a tiny mean lifetime takes the others to -inf.
    log_survive = np.array([0.0] + [n * (-1.0 / mean_lifetime) for n in range(1, max_active + 1)])
    exponents = log_choose + count * log_release + log_survive[survivors]
    masses = np.array(list(map(math.exp, exponents.tolist())))
    return [masses[start:start + size] for start, size in zip(starts.tolist(), sizes.tolist())]


# One ordering table per strategy, at the deepest q_plus_max built with it
# so far, shared by every row, scenario and shallower depth of every build
# with that strategy; it goes when the strategy does.
_ORDERING_TABLES: weakref.WeakKeyDictionary[Strategy, tuple[int, "_KeyBoxes", "_OrderingTable"]] = (
    weakref.WeakKeyDictionary()
)

# Bins of the np.bincount that sums one chunk of a level's keys: chunk keys
# x |R| doubles, 2 MB.
_CHUNK_BINS = 1 << 18


@dataclass(frozen=True)
class _KeyBoxes:
    """Where each (bag, state) key of one region and depth sits in its table.

    State ``i`` owns the C-ordered box of count tuples with creation counts
    in ``0..q_plus_max`` and release counts in ``0..states[i][n]``: keys
    ``offsets[i]`` to ``offsets[i] + sizes[i]``, at ``strides[i]`` per
    count, in ``_iter_request_bags`` order.
    """

    dims: np.ndarray
    strides: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, region: AdmissibilityRegion, q_plus_max: int) -> "_KeyBoxes":
        states = np.array(region.states, dtype=np.int64)
        dims = np.concatenate([np.full_like(states, q_plus_max + 1), states + 1], axis=1)
        strides = np.ones_like(dims)
        strides[:, :-1] = np.cumprod(dims[:, :0:-1], axis=1)[:, ::-1]
        sizes = dims.prod(axis=1)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return cls(dims, strides, offsets, sizes)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Every key's state index and its count tuple, in key order."""
        owner = np.repeat(np.arange(len(self.sizes)), self.sizes)
        local = np.arange(len(owner)) - self.offsets[owner]
        counts = np.empty((len(owner), self.dims.shape[1]), dtype=np.int32)
        for n in range(counts.shape[1]):
            counts[:, n] = local // self.strides[owner, n] % self.dims[owner, n]
        return owner, counts

    def children(
        self, counts: np.ndarray, owner: np.ndarray, next_index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (present kind, key) pair of the keys with count tuples
        ``counts`` in states ``owner``, kind after kind: the key's position,
        its child (the bag less one request of that kind, in the state
        ``next_index`` decides that request leads to) and the kind's count."""
        kinds, local_keys = np.nonzero(counts.T)
        pairs = np.arange(len(kinds))
        pair_counts = counts[local_keys]
        target = next_index[owner[local_keys], kinds]
        strides = self.strides[target]
        child = self.offsets[target] + (pair_counts * strides).sum(axis=1) - strides[pairs, kinds]
        return local_keys, child, pair_counts[pairs, kinds]

    def row_keys(self, q_plus_max: int):
        """Yield each state's keys at depth ``q_plus_max``, at most the
        boxes' own, in ``_iter_request_bags`` order.

        Creation counts lead in a box's C order, so a state's release
        counts fill ``span = prod(s_n + 1)`` consecutive keys behind each
        creation tuple, and a creation tuple's keys start at ``span`` times
        its index in the boxes' creation box: ``offsets[i] +
        creation_keys * span + arange(span)``.
        """
        num_types = self.dims.shape[1] // 2
        shallow = (q_plus_max + 1,) * num_types
        creation_keys = np.ravel_multi_index(
            np.unravel_index(np.arange(math.prod(shallow)), shallow), tuple(self.dims[0, :num_types])
        )
        spans = self.strides[:, num_types - 1]
        releases = np.arange(spans.max())
        for offset, span in zip(self.offsets.tolist(), spans.tolist()):
            yield np.add.outer(creation_keys * span + offset, releases[:span]).ravel()


@dataclass(frozen=True)
class _OrderingTable:
    """Each key's nonzero final states, as CSR rows in level order.

    Key ``k`` owns row ``pos[k]``: the final state indices
    ``cols[indptr[row]:indptr[row + 1]]``, ascending, and their
    probabilities, the same slice of ``vals``.
    """

    pos: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.pos.nbytes + self.indptr.nbytes + self.cols.nbytes + self.vals.nbytes


def _ragged(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the nonzeros of CSR rows ``rows`` sit, one row after another,
    and how many each row holds."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths), lengths


def _sum_children(below, local_keys, child_rows, picks, keys: int, size: int):
    """One chunk of a level: ``F[key] = sum_k pick_k * F[child_k]`` for
    each of its ``keys`` keys, as per-key nonzero counts, states and values.

    ``below`` is the CSR (indptr, cols, vals) of the level below. Child
    ``i`` is row ``child_rows[i]`` of it, weighted by ``picks[i]``, and adds
    to key ``local_keys[i]`` of the chunk. The children come kind after
    kind, so ``np.bincount`` adds each (key, state) bin's terms from 0.0 in
    ``request_kinds`` order.
    """
    indptr, cols, vals = below
    index, lengths = _ragged(indptr, child_rows)
    bins = np.repeat(local_keys * size, lengths) + cols[index]
    weights = vals[index] * np.repeat(picks, lengths)
    del index  # let it go before the block is allocated
    block = np.bincount(bins, weights=weights, minlength=keys * size)
    # np.flatnonzero reads a boolean mask several times faster than doubles.
    nonzero = np.flatnonzero(block != 0)
    return np.bincount(nonzero // size, minlength=keys), (nonzero % size).astype(np.int16), block[nonzero]


def _ordering_table(strategy: Strategy, q_plus_max: int) -> tuple[_KeyBoxes, _OrderingTable]:
    """Distribution of final state indices over the equally likely orderings
    of every bag, from every state, for bags with at most ``q_plus_max``
    creations of each type.

    A key is a bag's per-kind counts, aligned with ``request_kinds``, and the
    state it starts in. A bag never releases more slices of a type than its
    start state holds, and neither does any bag left after deciding some of
    its requests, so the keys are exactly the bags the builders enumerate.
    The empty bag ends where it starts. A bag of ``T`` requests picks its
    first request with probability proportional to its kind's multiplicity,
    moves to that request's decided successor and goes on with the bag left,
    so ``F[key] = sum_k (count_k / T) * F[child_k]`` with ``child_k`` the
    bag less one kind-``k`` request in state ``next_index[s][k]``.

    The table is filled level by level in ``T``, each level reading only the
    one below it. For a chunk of a level's keys, every present kind's
    weighted child nonzeros are binned by (key, final state), kind after
    kind, and one ``np.bincount`` adds each bin's terms from 0.0 in
    ``request_kinds`` order. That is the dense sum less its ``+0.0`` terms,
    which change no bit of a nonnegative sum, so each entry has the bits of
    the dense table's.

    Only nonzeros are kept: a bag ends in states it reaches by accepting
    some of its creations, at most ``min(|R|, prod(c_n + 1))`` of them, and
    the table's bytes scale with its nonzeros, not with keys x |R|. At
    q_plus_max=4 the N=3 models of pools 2.0 and 4.0 hold about 6.8 of 34
    and 14 of 174 states per key.
    """
    started = time.perf_counter()
    region = strategy.region
    size = len(region)
    boxes = _KeyBoxes.of(region, q_plus_max)
    owner, counts = boxes.counts()
    keys = len(owner)
    levels = counts.sum(axis=1)
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(levels.max() + 2))
    pos = np.empty(keys, dtype=np.int64)
    pos[order] = np.arange(keys)
    next_index = np.array(strategy.next_index, dtype=np.int64)
    chunk_keys = max(1, _CHUNK_BINS // size)

    # Each level as per-key nonzero counts, states and values. The empty
    # bags, level 0, end in their own state with mass 1.
    parts = [(np.ones(bounds[1], dtype=np.int64), owner[order[:bounds[1]]].astype(np.int16), np.ones(bounds[1]))]
    for level in range(1, len(bounds) - 1):
        below_lengths, below_cols, below_vals = parts[-1]
        below = (np.concatenate([[0], np.cumsum(below_lengths)]), below_cols, below_vals)
        chunks = []
        for lo in range(bounds[level], bounds[level + 1], chunk_keys):
            chunk = order[lo:min(lo + chunk_keys, bounds[level + 1])]
            local_keys, child, picked = boxes.children(counts[chunk], owner[chunk], next_index)
            child_rows = pos[child] - bounds[level - 1]
            chunks.append(_sum_children(below, local_keys, child_rows, picked / level, len(chunk), size))
        parts.append(tuple(map(np.concatenate, zip(*chunks))))
    lengths, cols, vals = map(np.concatenate, zip(*parts))
    table = _OrderingTable(pos, np.concatenate([[0], np.cumsum(lengths)]), cols, vals)
    log.info("ordering table: %d keys, %d nonzeros over %d states, %.1f MB, %.2fs",
             keys, len(table.vals), size, table.nbytes / 1e6, time.perf_counter() - started)
    return boxes, table


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
    to right in ``request_kinds`` order from 1.0 as ``multiset_prob`` does:
    the outer product of the creation pmfs, made once per build, extended by
    the row's release pmfs, which come from one ``_release_pmf_table`` per
    type with ``release_pmf``'s bits. The ordering distributions come from
    the strategy's shared table (see ``_ordering_table``), so a later build
    with the same strategy at the same or a shallower depth builds none; a
    row's keys in it come from ``_KeyBoxes.row_keys``. A row is the sum
    over its bags, in ``_iter_request_bags`` order, of each bag's mass times
    its row of the table, added one bag after another from 0.0 as
    ``np.bincount`` adds its weights; a matrix product would add them in
    another order. A table row holds only its nonzeros, and the zeros it
    leaves out would add ``+0.0``, which changes no bit.
    """
    _check_build_arguments(region, strategy, q_plus_max)
    boxes, table = _cached_table(strategy, q_plus_max)
    size = len(region)
    # Chained outer products multiply each bag's masses left to right in
    # request_kinds order, as multiset_prob does from 1.0. The creation
    # part is the same in every row; each row extends it by its release
    # pmfs, read from one table per type.
    creation_masses = functools.reduce(np.multiply.outer, [
        np.array([creation_pmf(rate, k) for k in range(q_plus_max + 1)]) for rate in scenario.creation_rates
    ])
    release_pmfs = [
        _release_pmf_table(lifetime, max(state[n] for state in region.states))
        for n, lifetime in enumerate(scenario.mean_lifetimes)
    ]
    probs = np.empty((size, size))
    for row_index, (state, keys) in enumerate(zip(region.states, boxes.row_keys(q_plus_max))):
        row_pmfs = [pmfs[active] for pmfs, active in zip(release_pmfs, state)]
        masses = functools.reduce(np.multiply.outer, row_pmfs, creation_masses).ravel()
        index, lengths = _ragged(table.indptr, table.pos[keys])
        weights = table.vals[index] * np.repeat(masses, lengths)
        probs[row_index] = np.bincount(table.cols[index], weights=weights, minlength=size)
    return _finish_build(probs, region, q_plus_max, renormalize)


def _cached_table(strategy: Strategy, q_plus_max: int) -> tuple[_KeyBoxes, _OrderingTable]:
    """The strategy's ordering table at depth ``q_plus_max`` or deeper,
    built (replacing a shallower one) when it has none that deep."""
    cached = _ORDERING_TABLES.get(strategy)
    if cached is None or cached[0] < q_plus_max:
        # Let the shallower table go before the deeper one is built.
        cached = None
        _ORDERING_TABLES.pop(strategy, None)
        cached = _ORDERING_TABLES[strategy] = (q_plus_max, *_ordering_table(strategy, q_plus_max))
    return cached[1], cached[2]


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
    than the table builder; intended as an independent check at small
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

    Reachability is the transitive closure of ``(P > 0) | I``, found in
    place by Warshall's algorithm: after step ``k``, every state that
    reaches ``k`` also reaches what ``k`` reaches. Step ``k`` leaves row and
    column ``k`` unchanged, so one vectorized update per state is exact; it
    takes ``n`` boolean passes over the matrix and no matrix product. A
    state lies in a closed class when every state it reaches reaches it
    back; its class is then the set it reaches, and it is the class's first
    state when it reaches no state before it.
    """
    reach = (probs > 0) | np.eye(len(probs), dtype=bool)
    for k in range(len(reach)):
        reach |= reach[:, k, None] & reach[k]
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
