"""Monte-Carlo simulation of synchronous slice admission.

The simulator is the ground truth the analytical chain is checked against:
it draws real timestamped request traffic (Poisson creations, exponential
slice lifetimes), folds each period's queue through the strategy's compiled
successor table (``Strategy.next_index``), and records the state at every
period boundary. Creation counts are never truncated here.

Each run makes all of its random draws before the first period (the order
is given in :func:`run_episode`) and then runs a plain loop over the
pre-drawn numbers, so the per-period cost is a handful of list and table
lookups rather than several generator calls. The creation counts and
timestamps come from one stream of uniforms, decoded the way numpy's
Poisson sampler reads it (:func:`_creation_draws`), so the variates are
those of numpy's own calls without the cost of its per-call checks.

Within-period mechanics: a slice admitted during period t becomes active at
the t+1 boundary and its lifetime starts counting there, matching the
synchronous model where decisions take effect at period ends. A slice active
at a boundary with remaining lifetime below one period emits a release event
inside the period at an offset equal to that remaining lifetime; survivors
carry their lifetime forward reduced by one period, so each slice's release
period and offset are known when it becomes active, and its release is
filed under that period at once. Equal timestamps (a measure-zero event)
put creations before releases, lower types first, then draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import DemandScenario
from .domain import AdmissibilityRegion, ResourceModel, State, Strategy
from .errors import InvalidStrategyError


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: run count, horizon, seeding, and start policy.

    ``initial_state=None`` starts each run in a state drawn uniformly from
    the region; a fixed tuple starts every run there.
    """

    num_runs: int
    periods_per_run: int
    seed: int
    initial_state: State | None = None

    def __post_init__(self):
        if self.num_runs < 1:
            raise ValueError(f"num_runs must be positive, got {self.num_runs}")
        if self.periods_per_run < 1:
            raise ValueError(f"periods_per_run must be positive, got {self.periods_per_run}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.initial_state is not None:
            object.__setattr__(self, "initial_state", tuple(self.initial_state))


@dataclass
class EmpiricalMatrix:
    """Transition estimates from counted boundary-state pairs.

    Rows with no visits keep zero probabilities and are reported in
    ``zero_visit_rows`` rather than being filled with invented values.
    """

    counts: np.ndarray
    probs: np.ndarray
    visits: np.ndarray
    region: AdmissibilityRegion

    @property
    def zero_visit_rows(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.visits == 0))


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Independent per-run substream derived from (seed, run index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(run_index,))))


# numpy's SeedSequence hash (frozen by NEP 19) and PCG64's 128-bit multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_STATE_BLOCK = 1024


def _seed_words(seed: int, runs: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)`` for
    every r in ``runs``, as an array of shape (len(runs), 4); ``seed`` is
    below 2**128 (``SimConfig`` holds it below 2**64).

    The entropy is the seed's little-endian uint32 words padded with zeros to
    the pool size of 4, then the words of r: one below 2**32, two above. The
    pool's first hashing and cross-mixing depend on the seed alone, so they
    run once on one-element arrays that broadcast; only r's words are mixed
    per run.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    seed = int(seed)
    pool = [hashmix(np.array([seed >> shift & _MASK32], dtype=np.uint32)) for shift in (0, 32, 64, 96)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    runs = np.asarray(runs, dtype=np.uint64)
    low = (runs & np.uint64(_MASK32)).astype(np.uint32)
    for dst in range(4):
        pool[dst] = mix(pool[dst], hashmix(low))
    high = (runs >> np.uint64(32)).astype(np.uint32)
    for dst in range(4):
        pool[dst] = np.where(high > 0, mix(pool[dst], hashmix(high)), pool[dst])

    hash_const = _INIT_B
    out = np.empty((len(runs), 8), dtype="<u4")
    for i in range(8):
        value = np.broadcast_to(pool[i % 4], len(runs)) ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out[:, i] = value ^ (value >> np.uint32(16))
    return out.view("<u8").astype(np.uint64)


def _pcg64_states(seed: int, start: int, stop: int):
    """Yield, for each run r in [start, stop), the ``PCG64.state`` dict of
    ``run_rng(seed, r)``, deriving the seed words ``_STATE_BLOCK`` runs at a
    time from ``start``.

    A PCG64 seeded with words (s0, s1, i0, i1) starts with
    ``inc = 2 * (i0 << 64 | i1) + 1`` and, after two steps of
    ``pcg_setseq_128_srandom_r``, ``state = ((s0 << 64 | s1) + inc) * M + inc``
    modulo 2**128.
    """
    for first in range(start, stop, _STATE_BLOCK):
        runs = np.arange(first, min(first + _STATE_BLOCK, stop), dtype=np.uint64)
        for s0, s1, i0, i1 in _seed_words(seed, runs).tolist():
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}


def _creation_draws(rng: np.random.Generator, rates, periods: int):
    """Draws 3 and 4 of :func:`run_episode`: the creations of every period.

    Returns ``(kinds, ends, stamps)``: the type index of each creation in
    (period, type) order, the number of creations up to the end of each
    period, and each creation's timestamp.

    numpy draws a Poisson count below rate 10 by multiplying uniforms
    (``next_double``) until the product is at most ``exp(-rate)``, and
    ``Generator.random`` reads the same ``next_double`` stream, so the counts
    of ``poisson(rates, (periods, N))`` and the stamps of the following
    ``random(total)`` are one run of uniforms. This replays the
    multiplication on that run, drawn in chunks that never pass the uniforms
    certainly needed: all cells still to decode take at least one more, and
    every creation found needs a stamp. The generator is left exactly where
    the two numpy calls leave it, and no per-call validation of an array of
    rates is paid. From rate 10 up numpy switches to Hörmann's PTRS, so any
    such rate makes the run use numpy's own calls.
    """
    num_types = len(rates)
    cells = periods * num_types
    if max(rates) >= 10.0:
        counts = rng.poisson(rates, (periods, num_types))
        kinds = np.repeat(np.tile(np.arange(num_types), periods), counts.ravel()).tolist()
        ends = np.cumsum(counts.sum(axis=1)).tolist()
        return kinds, ends, rng.random(len(kinds)).tolist()
    limits = [math.exp(-rate) for rate in rates]
    kinds = []
    ends = []
    add = kinds.append
    n = 0
    limit = limits[0]
    product = 1.0
    drawn = cells
    chunk = rng.random(cells).tolist()
    while True:
        for uniform in chunk:
            product *= uniform
            if product > limit:
                add(n)
                continue
            product = 1.0
            n += 1
            if n == num_types:
                n = 0
                ends.append(len(kinds))
                if len(ends) == periods:
                    break
            limit = limits[n]
        if len(ends) == periods:
            break
        # Every uniform drawn went to the counts: each undecoded cell needs
        # one more, and each creation found so far a stamp.
        need = cells - len(ends) * num_types - n + len(kinds)
        drawn += need
        chunk = rng.random(need).tolist()
    # Each uniform either ends a cell or adds a creation; the rest of the
    # last chunk are the first stamps.
    total = len(kinds)
    stamps = chunk[len(chunk) - (drawn - cells - total):]
    if len(stamps) < total:
        stamps += rng.random(total - len(stamps)).tolist()
    return kinds, ends, stamps


def run_episode(
    region: AdmissibilityRegion,
    scenario: DemandScenario,
    strategy: Strategy,
    periods: int,
    rng: np.random.Generator,
    initial_state: State | None = None,
) -> np.ndarray:
    """Simulate one run; returns region indices at each of periods+1 boundaries.

    All of the run's randomness is drawn up front from ``rng``, in this order:

    1. the start index, ``integers(len(region))``, when the start is uniform;
    2. ``standard_exponential(sum(state))``: the initial lifetimes, type by
       type, each scaled by its type's mean lifetime;
    3. the creation counts of every (period, type), as
       ``poisson(creation_rates, (periods, N))`` draws them;
    4. the creation timestamps, as ``random(total)`` draws them, in
       (period, type) order;
    5. ``standard_exponential(total)``: a fresh unit lifetime for every
       creation, scaled by its type's mean and used only if it is accepted.

    Below rate 10 draws 3 and 4 are one stream of uniforms, decoded by
    :func:`_creation_draws` the way numpy's Poisson sampler consumes it;
    from rate 10 up they are numpy's own two calls. Either way the variates
    and the generator's final state are those of the two calls. After these
    draws the run makes no further generator calls. Initial slices get fresh
    exponential lifetimes: the residual lifetime of an exponential in steady
    state is again exponential, so no aging needs to be modeled. The horizon
    sets the size of draw 3, so draws 4 and 5 start elsewhere in the stream:
    a run with a shorter horizon is not a prefix of a longer run from the
    same substream ``(seed, r)``. A run still depends only on that substream
    and its arguments.

    A slice with remaining lifetime ``x`` at the boundary b where it becomes
    active is released in the period that starts at boundary ``b + int(x)``,
    at offset ``x - int(x)``, the value that subtracting one period at a
    time reaches (exactly, below 2**53); its release goes straight into that
    period's bucket. Each period then folds its creations and its bucket, sorted by
    timestamp, through ``strategy.next_index``: column ``n`` is a creation
    of type n+1 and column ``N+n`` its release, the
    :func:`~slice_markov.arrivals.request_kinds` order. A creation is
    accepted when the index changes. A ``-1`` met in the table (a release
    with no slice to release, or a corrupted table) or a count of slices
    outliving the horizon that disagrees with the final state is a
    bookkeeping bug and aborts.
    """
    if initial_state is None:
        index = int(rng.integers(len(region)))
    else:
        index = region.index_of.get(tuple(initial_state))
        if index is None:
            raise ValueError(f"initial state {tuple(initial_state)} not in region")
    num_types = scenario.num_types
    means = scenario.mean_lifetimes
    start_types = [n for n, count in enumerate(region.states[index]) for _ in range(count)]
    initial = rng.standard_exponential(len(start_types)).tolist()
    kinds, ends, stamps = _creation_draws(rng, scenario.creation_rates, periods)
    total = len(kinds)
    fresh = rng.standard_exponential(total).tolist()
    creations = list(zip(stamps, kinds, range(total)))

    table = strategy.next_index
    # releases[t]: the (offset, release column, -1) events of period t;
    # held[n]: the type-n slices still active after the last period.
    releases = [[] for _ in range(periods)]
    held = [0] * num_types
    for n, life in zip(start_types, initial):
        remaining = means[n] * life
        period = int(remaining)
        if period < periods:
            releases[period].append((remaining - period, num_types + n, -1))
        else:
            held[n] += 1
    trajectory = [index]
    start = 0
    for t, end in enumerate(ends):
        events = creations[start:end]
        start = end
        if releases[t]:
            events += releases[t]
        if events:
            events.sort()
            for _, column, creation_id in events:
                successor = table[index][column]
                if successor < 0:
                    raise RuntimeError(
                        f"request kind column {column} has no successor from state "
                        f"{region.states[index]}: a release with no active slice, "
                        "or a corrupted table"
                    )
                if column < num_types and successor != index:
                    # The admitted slice's lifetime starts at the next boundary.
                    remaining = means[column] * fresh[creation_id]
                    period = int(remaining)
                    if t + 1 + period < periods:
                        releases[t + 1 + period].append(
                            (remaining - period, num_types + column, -1)
                        )
                    else:
                        held[column] += 1
                index = successor
        trajectory.append(index)
    if tuple(held) != region.states[index]:
        raise RuntimeError(
            f"lifetime bookkeeping holds {tuple(held)} slices, final state is {region.states[index]}"
        )
    return np.array(trajectory, dtype=np.int64)


def _episode_batch(args) -> np.ndarray:
    region, scenario, strategy, sim, start, stop = args
    out = np.empty((stop - start, sim.periods_per_run + 1), dtype=np.int64)
    # One generator serves every run: setting its bit generator's state to
    # that of run_rng(seed, run) costs far less than building a new one.
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for offset, state in enumerate(_pcg64_states(sim.seed, start, stop)):
        bits.state = state
        out[offset] = run_episode(
            region, scenario, strategy, sim.periods_per_run, rng, sim.initial_state
        )
    return out


def simulate_episodes(
    model: ResourceModel,
    region: AdmissibilityRegion,
    scenario: DemandScenario,
    strategy: Strategy,
    sim: SimConfig,
    workers: int | None = None,
) -> np.ndarray:
    """All runs of a protocol; returns an array of shape (num_runs, periods+1).

    Run r always uses the substream (seed, r), so the result is independent
    of execution order and identical across worker counts.
    """
    if strategy.region != region:
        raise InvalidStrategyError("strategy is defined over a different region")
    if workers is not None and workers > 1:
        bounds = np.linspace(0, sim.num_runs, min(workers, sim.num_runs) + 1, dtype=int)
        tasks = [
            (region, scenario, strategy, sim, int(start), int(stop))
            for start, stop in zip(bounds[:-1], bounds[1:])
            if stop > start
        ]
        # Imported here: it pulls in multiprocessing, which a serial run
        # need not load.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return np.vstack(list(pool.map(_episode_batch, tasks)))
    return _episode_batch((region, scenario, strategy, sim, 0, sim.num_runs))


def estimate_empirical_matrix(region: AdmissibilityRegion, trajectories: np.ndarray) -> EmpiricalMatrix:
    """Count consecutive boundary pairs across all runs and row-normalize."""
    trajectories = np.asarray(trajectories)
    if trajectories.ndim == 1:
        trajectories = trajectories[None, :]
    if trajectories.size == 0 or trajectories.shape[1] < 2:
        raise ValueError("need at least one observed transition")
    size = len(region)
    # One array of pair codes; a ravel of each side and their sum would hold four.
    codes = trajectories[:, :-1] * size
    codes += trajectories[:, 1:]
    counts = np.bincount(codes.ravel(), minlength=size * size).reshape(size, size)
    visits = counts.sum(axis=1)
    probs = np.zeros((size, size))
    visited = visits > 0
    probs[visited] = counts[visited] / visits[visited, None]
    return EmpiricalMatrix(counts=counts, probs=probs, visits=visits, region=region)


def rmse(analytical_probs: np.ndarray, empirical: EmpiricalMatrix) -> float:
    """Symmetric-relative root mean square error between the two matrices.

    Each entry contributes [2(a - e) / (a + e)]^2, with 0/0 counted as zero
    agreement (both sides call the transition impossible). Rows the
    simulation never visited are left out of the sum; the divisor stays the
    full squared region size.
    """
    analytical = np.asarray(analytical_probs, dtype=float)
    size = len(empirical.region)
    if analytical.shape != (size, size):
        raise ValueError(f"matrix shape {analytical.shape} does not match region size {size}")
    diff = 2.0 * (analytical - empirical.probs)
    denom = analytical + empirical.probs
    terms = np.zeros_like(denom)
    np.divide(diff, denom, out=terms, where=denom > 0)
    terms *= terms
    visited = empirical.visits > 0
    return float(np.sqrt(terms[visited].sum() / size**2))


def markov_order_test(trajectories: np.ndarray, num_states: int) -> tuple[float, int, float]:
    """Chi-square check that the next state depends on history only through
    the present: within each stratum of s(t), tests independence of s(t+1)
    from s(t-1) on the observed triple counts, then pools the statistics.

    Returns (statistic, degrees of freedom, p-value). Strata without at
    least a 2x2 table of occupied rows and columns carry no information and
    are skipped.
    """
    from scipy.stats import chi2, chi2_contingency

    trajectories = np.asarray(trajectories)
    if trajectories.ndim == 1:
        trajectories = trajectories[None, :]
    if trajectories.shape[1] < 3:
        raise ValueError("need trajectories of at least 3 boundaries")
    prev = trajectories[:, :-2].ravel()
    mid = trajectories[:, 1:-1].ravel()
    nxt = trajectories[:, 2:].ravel()
    codes = (prev * num_states + mid) * num_states + nxt
    triples = np.bincount(codes, minlength=num_states**3).reshape(num_states, num_states, num_states)
    statistic = 0.0
    dof = 0
    for j in range(num_states):
        table = triples[:, j, :]
        rows = table.sum(axis=1) > 0
        cols = table.sum(axis=0) > 0
        table = table[np.ix_(rows, cols)]
        if table.shape[0] < 2 or table.shape[1] < 2:
            continue
        result = chi2_contingency(table, correction=False)
        statistic += float(result.statistic)
        dof += int(result.dof)
    pvalue = float(chi2.sf(statistic, dof)) if dof else 1.0
    return statistic, dof, pvalue
