"""Monte-Carlo simulation of synchronous slice admission.

The simulator is the ground truth the analytical chain is checked against:
it draws real timestamped request traffic (Poisson creations, exponential
slice lifetimes), folds each period's queue through the strategy's compiled
successor table (``Strategy.next_index``), and records the state at every
period boundary. Creation counts are never truncated here.

Each run makes all of its random draws before the first period, with
numpy's own samplers (the order is given in :func:`run_episode`). Its
creations are one Poisson process on ``[0, periods)`` at the total rate of
all types: one ``poisson`` call gives their number, and one ``random`` call
their positions and, with several types, their type marks. So a run makes
three generator calls, plus one for a drawn start, whatever the number of
types.

A fresh lifetime is drawn for every creation, accepted or not, so the
period and offset of every potential release are known before any request
is decided. Runs are therefore folded a block at a time in numpy
(:func:`_fold_block`): the block's uniforms become periods, offsets and
types, and its creations, initial releases and potential releases are
sorted once and scanned with all of its runs in lockstep, one event per
step; a potential release stays a no-op unless its creation is accepted.
A run draws its start and creation total as Python ints, and its uniforms
and lifetimes straight into its block's two float64 arrays
(:func:`_draw_blocks`), so that no run has arrays of its own and a block
is never gathered. A block's arrays hold ``_BLOCK_DRAWS`` draws between
them, unless one run alone needs more, and no result depends on how runs
are split into blocks. Every run is simulated in the calling process.

Within-period mechanics: a slice admitted during period t becomes active at
the t+1 boundary and its lifetime starts counting there, matching the
synchronous model where decisions take effect at period ends. A slice active
at a boundary with remaining lifetime below one period emits a release event
inside the period at an offset equal to that remaining lifetime; survivors
carry their lifetime forward reduced by one period. Equal timestamps (a
measure-zero event) put creations before releases, lower types first, then
draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .arrivals import DemandScenario
from .domain import AdmissibilityRegion, State, Strategy
from .errors import GuardExceededError


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: run count, horizon, seeding, and start policy.

    ``initial_state=None`` starts each run in a state drawn uniformly from
    the region; a fixed tuple starts every run there. The run count, horizon
    and seed must be integers, Python's or numpy's, and are kept as Python
    ints; a bool, a float or a string is refused with ``ValueError``.
    """

    num_runs: int
    periods_per_run: int
    seed: int
    initial_state: State | None = None

    def __post_init__(self):
        for name in ("num_runs", "periods_per_run", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_runs < 1:
            raise ValueError(f"num_runs must be positive, got {self.num_runs}")
        if self.periods_per_run < 1:
            raise ValueError(f"periods_per_run must be positive, got {self.periods_per_run}")
        if not 0 <= self.seed < 2**64:
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


# numpy's SeedSequence hash, frozen by NEP 19.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Runs whose seed words are hashed at a time.
_SEED_CHUNK = 1024


def _seed_words(seed: int, runs: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)`` for
    every r in ``runs``, a uint32 array, as an array of shape (len(runs), 4).

    numpy hashes the seed's uint32 words, padded with zeros, into a pool of
    four and cross-mixes the pool in 16 hash steps; ``SeedSequence(seed)
    .pool`` is that pool whether or not a spawn key follows. So only r's one
    word is mixed into it per run, from the 17th hash constant on, and the
    pool is hashed out as numpy does. The pool words are one-element arrays:
    a product of numpy uint32 scalars warns when it overflows.
    """
    hash_const = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [mix(word, hashmix(runs)) for word in np.random.SeedSequence(seed).pool.reshape(4, 1)]
    hash_const = _INIT_B
    out = np.empty((len(runs), 8), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out[:, i] = value ^ (value >> np.uint32(16))
    return out.view("<u8").astype(np.uint64)


@cache
def _seed_words_type() -> type:
    """The class of :func:`_run_rngs`' seed-word holder, made on first use:
    importing ``numpy.random`` at module level would load it into every
    command, simulating or not."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Four ``_seed_words``, which it gives PCG64 as its seed state;
        PCG64 asks a seed sequence for four uint64 words, nothing else, and
        reads them straight from the array's buffer when it is made, so they
        are a row of ``_seed_words``' C-contiguous uint64 array."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _run_rngs(seed: int, runs: int):
    """Yield ``run_rng(seed, r)``'s generator for each run r in [0, runs),
    hashing the seed words ``_SEED_CHUNK`` runs at a time. A run index is
    one uint32 word: ``MAX_SIMULATED_PERIODS``, which bounds the runs of a
    simulation, is below 2**32.

    numpy seeds each PCG64 from its words, so that no per-run
    ``SeedSequence`` is made. Every PCG64 of a call is seeded from one
    ``SeedWords`` holder whose words are swapped before each run, so a
    generator's ``bit_generator.seed_seq`` is that shared holder, with
    another run's words; it is never read after seeding, since nothing here
    spawns or jumps a generator. With numpy 2.4 on a 2-core Xeon VM a
    generator takes about 1.0 microsecond a run, against 1.3 with a holder
    per run and 2 to set a reused generator's state dict to the same
    stream.
    """
    holder = _seed_words_type()(None)
    for first in range(0, runs, _SEED_CHUNK):
        for words in _seed_words(seed, np.arange(first, min(first + _SEED_CHUNK, runs), dtype=np.uint32)):
            holder.words = words
            yield np.random.Generator(np.random.PCG64(holder))


# Draws a block of runs may hold before it is folded: its uniforms and unit
# lifetimes, in two arrays of this many draws between them. The fold's
# working set (sort keys, step grid, states after each step) grows with the
# block; its per-step cost is paid once for every run of the block. 28,672
# draws hold about 140 of figure3's 100-period runs of scenario A, and keep
# the fold's working set within 2.41 times the trajectory array of 1000 such
# runs, at tracemalloc's peak.
_BLOCK_DRAWS = 7 << 12
# Event indices ORed into the sort keys at a time, and sorted keys gathered
# at a time by the ascending test.
_TIE_SLICE = 1 << 13
# numpy's largest Poisson mean, int64 max - 10 * sqrt(int64 max). A literal:
# the first np.iinfo call of a process costs about 0.13 MB of resident memory.
_POISSON_MAX = 9.223372006484771e18
# Most draws a run may expect: its uniforms, its lifetimes and the largest
# initial state's. A block holds at least one run, and a long run of the
# baseline's scenario A peaks at about 50 bytes per expected draw under
# tracemalloc, so the cap keeps a run within about 0.8 GB.
MAX_RUN_DRAWS = 1 << 24
# Most periods one protocol, or one figure3 sweep over all its pairs, may
# simulate. figure3 simulates at about 0.18 us per period, and a call's
# trajectory array takes 8 bytes per boundary, so the cap is about 24 s of
# figure3 or a 1.07 GB array.
MAX_SIMULATED_PERIODS = 1 << 27


def _creation_law(rates) -> tuple[float, np.ndarray]:
    """The total creation rate and the edges that mark a creation's type.

    A uniform mark u gives type ``searchsorted(edges, u, side="right")``,
    where the edges are the cumulative rates over their sum, so that type n
    has probability rate_n / total up to rounding.
    """
    cumulative = np.cumsum(rates, dtype=float)
    return float(cumulative[-1]), cumulative[:-1] / cumulative[-1]


def _start_index(region: AdmissibilityRegion, initial_state: State) -> int:
    index = region.index_of.get(tuple(initial_state))
    if index is None:
        raise ValueError(f"initial state {tuple(initial_state)} not in region")
    return index


def _draw_args(scenario: DemandScenario, region: AdmissibilityRegion, periods: int) -> tuple:
    """The arguments of :func:`_draw_blocks` after the generators and their
    count, and before the start: ``(mean, width, slices)``.

    A mean of creations per run at or above numpy's Poisson limit (about
    9.2e18), or one whose expected draws per run, ``mean * (width + 1)``
    plus the most slices a state holds, exceed ``MAX_RUN_DRAWS``, is
    refused with :class:`~slice_markov.errors.GuardExceededError`.
    """
    mean = periods * _creation_law(scenario.creation_rates)[0]
    if not mean < _POISSON_MAX:
        raise GuardExceededError(
            f"{periods} periods at a total creation rate of {mean / periods:g} expect {mean:g} "
            f"creations per run, at or above numpy's Poisson limit of {_POISSON_MAX:g}"
        )
    width = 1 if scenario.num_types == 1 else 2
    slices = [sum(state) for state in region.states]
    draws = mean * (width + 1) + max(slices)
    if draws > MAX_RUN_DRAWS:
        raise GuardExceededError(
            f"{periods} periods at a total creation rate of {mean / periods:g} expect {draws:g} "
            f"draws per run, above the cap of {MAX_RUN_DRAWS} draws per run"
        )
    return mean, width, slices


def check_simulated_periods(periods: int, what: str) -> None:
    """Refuse, with :class:`~slice_markov.errors.GuardExceededError`, a
    simulation of more than ``MAX_SIMULATED_PERIODS`` periods in all."""
    if periods > MAX_SIMULATED_PERIODS:
        raise GuardExceededError(
            f"{what} simulate {periods} periods, above the cap of {MAX_SIMULATED_PERIODS} simulated periods"
        )


def _draw_blocks(rngs, runs: int, mean: float, width: int, slices: list, start: int | None):
    """Every draw of ``runs`` runs, one generator each from ``rngs``, a
    block at a time: yields ``[starts, totals, uniforms, units]``, the runs'
    start indices and creation totals as lists of ints, and their uniforms
    and unit lifetimes, run after run, as two float64 arrays.

    Each run draws in the order :func:`run_episode` gives, straight into the
    block's arrays (``random(out=...)``, ``standard_exponential(out=...)``).
    ``mean`` is a run's expected number of creations, ``width`` the uniforms
    each creation takes (1 with one type, 2 with more), and ``slices`` the
    number of slices held in each state of the region. ``start=None`` draws
    each start index.

    A block's two arrays hold ``_BLOCK_DRAWS`` draws between them, split by
    the share of uniforms a run expects, or an eighth more than the
    remaining runs expect, plus 64, when that is fewer. A block closes when a
    run's draws would overflow either array, and a run too large for an
    empty array gets an array of its own size. The yielded arrays are views
    whose buffers the generator no longer holds, so the fold frees each
    buffer after its last read.
    """
    size = len(slices)
    expected = (width + 1) * mean + (sum(slices) / size if start is None else slices[start])
    share = width * mean / expected
    starts, totals, uniforms, units = [], [], None, None
    used_uniforms = used_units = 0
    room_uniforms = room_units = -1
    for left, rng in zip(range(runs, 0, -1), rngs):
        first = int(rng.random() * size) if start is None else start
        total = int(rng.poisson(mean))
        draw_uniforms = width * total
        draw_units = slices[first] + total
        if used_uniforms + draw_uniforms > room_uniforms or used_units + draw_units > room_units:
            if starts:
                block = [starts, totals, uniforms[:used_uniforms], units[:used_units]]
                starts, totals, uniforms, units = [], [], None, None
                yield block
            draws = min(_BLOCK_DRAWS, left * expected * 9 / 8 + 64)
            room_uniforms = max(draw_uniforms, int(draws * share))
            room_units = max(draw_units, int(draws * (1 - share)))
            uniforms = np.empty(room_uniforms)
            units = np.empty(room_units)
            used_uniforms = used_units = 0
        starts.append(first)
        totals.append(total)
        rng.random(out=uniforms[used_uniforms:used_uniforms + draw_uniforms])
        rng.standard_exponential(out=units[used_units:used_units + draw_units])
        used_uniforms += draw_uniforms
        used_units += draw_units
    if starts:
        block = [starts, totals, uniforms[:used_uniforms], units[:used_units]]
        del uniforms, units
        yield block


def _fold_tables(strategy: Strategy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``strategy.next_index`` as the flat tables of the block fold, and
    the slice counts of every state.

    States are stored premultiplied by the row width ``2N + 1``, so a step
    looks up entry ``state + column``. Column ``2N`` is a no-op, and an
    extra last row, the sink, takes the place of every ``-1`` and maps
    every column to itself, so a run that meets a ``-1`` stays there until
    the block's check. The first table holds the successor; the second the
    column that the step switches on in its creation's release cell:
    ``N + n`` where a type-n creation is accepted (the successor differs
    from the state), the no-op everywhere else. The slice counts have a row
    of -1 for the sink.
    """
    size = len(strategy.region)
    num_types = strategy.region.num_types
    width = 2 * num_types + 1
    successor = np.empty((size + 1, width), dtype=np.int32)
    decided = np.array(strategy.next_index, dtype=np.int32).reshape(size, width - 1)
    successor[:size, :-1] = np.where(decided < 0, size, decided)
    successor[:size, -1] = np.arange(size)
    successor[size] = size
    release = np.full((size + 1, width), width - 1, dtype=np.intp)
    accepted = successor[:size, :num_types] != np.arange(size)[:, None]
    release[:size, :num_types] = np.where(accepted, num_types + np.arange(num_types), width - 1)
    states = np.array(strategy.region.states + ((-1,) * num_types,), dtype=np.int64)
    return (successor * width).ravel(), release.ravel(), states


def _strictly_ascending(key: np.ndarray, order: np.ndarray) -> bool:
    """Whether ``key[order]`` is strictly ascending. The sorted keys are
    gathered ``_TIE_SLICE`` at a time, so that a block holds its keys
    once."""
    for first in range(0, len(order), _TIE_SLICE):
        ranked = key[order[first:first + _TIE_SLICE + 1]]
        if np.any(ranked[1:] <= ranked[:-1]):
            return False
        del ranked
    return True


def _key_order(key: np.ndarray) -> np.ndarray | None:
    """The order that sorts ``key``, an array of nonnegative finite
    doubles, strictly, or None when one sort of packed keys cannot find it.

    The bit patterns of such doubles, read as int64, order as their values
    do. Each pattern's low ``(len(key) - 1).bit_length()`` bits are replaced
    by its key's index, ORed in ``_TIE_SLICE`` indices at a time, so that
    one in-place sort of the patterns carries the order in its low bits.
    The new patterns keep their key's sign and exponent, so they are again
    nonnegative finite doubles, all distinct, and are sorted as doubles:
    numpy's float64 sort is faster here than its int64 sort and pages in
    less code. That order can be wrong only for keys that share their high
    bits, and then ``key[order]`` is not strictly ascending; nor is it when
    two keys are equal. Both give None.
    """
    events = len(key)
    low = (1 << (events - 1).bit_length()) - 1
    packed = key.view(np.int64) & ~low
    for first in range(0, events, _TIE_SLICE):
        packed[first:first + _TIE_SLICE] |= np.arange(first, min(first + _TIE_SLICE, events))
    packed.view(np.float64).sort()
    order = np.bitwise_and(packed, low, out=packed)
    return order if _strictly_ascending(key, order) else None


def _lockstep(successor: np.ndarray, release: np.ndarray, grid: np.ndarray, switch: np.ndarray,
              visited: np.ndarray) -> None:
    """Scan a block's step grid (:func:`_fold_block`) with all of its runs
    in lockstep: ``visited[k]`` receives each run's state after k events,
    from the start states in ``visited[0]``.

    Step k reads its columns from ``grid[1 + k*count:]``, looks up entry
    state + column of both tables, and puts the release column it switches
    on into the grid cells that ``switch`` names for the step. The grid,
    its switches and the lookups are intp, the index type of take and put,
    so that a step converts as little as it can.
    """
    steps, count = len(visited) - 1, visited.shape[1]
    lookup = np.empty(count, dtype=np.intp)
    value = np.empty(count, dtype=np.intp)
    now = visited[0]
    columns = grid[1:1 + steps * count].reshape(steps, count)
    for after, column, cell in zip(visited[1:], columns, switch[1:].reshape(steps, count)):
        np.add(now, column, out=lookup)
        successor.take(lookup, out=after, mode="clip")
        release.take(lookup, out=value, mode="clip")
        grid.put(cell, value)
        now = after


def _fold_block(scenario: DemandScenario, region: AdmissibilityRegion, tables: tuple, periods: int,
                block: list, out: np.ndarray) -> None:
    """Fold the draws of a block of runs, ``[starts, totals, uniforms,
    units]`` as :func:`_draw_blocks` yields them, through ``tables``
    (:func:`_fold_tables`), writing their trajectories to ``out``.

    The events of run r in period t form group ``r * periods + t``: its
    creations, the releases of initial slices whose lifetimes end in t, and
    the potential release of every creation, that is the release it has if
    accepted, in the period and at the offset its fresh lifetime gives. All
    are sorted once, by group, then offset, then column, then creation id,
    and scanned with every run of the block in lockstep, one event per step.
    A potential release sits in the step grid as a no-op until its creation
    is accepted, when the successor differs from the state, and the
    creation writes the release column into the release's cell.

    A run's creations are decoded from its uniforms with IEEE-exact
    operations only: creation i has position ``u = uniforms[w*i]``, where
    ``w`` is the uniforms per creation, period ``floor(periods*u)`` and
    offset ``periods*u - period``; with several types its type is its mark
    ``uniforms[w*i + 1]`` against the edges of :func:`_creation_law`. Its
    fresh unit lifetime is the i-th after the run's initial ones. The
    uniforms and lifetimes of the block's runs follow one another in its two
    arrays.

    ``block`` is emptied once it is unpacked. Each array is dropped after its
    last read and cell numbers are 32-bit where they fit, so that a block
    holds few bytes per event beyond the scan's own grid.
    """
    successor, release, states = tables
    num_types = scenario.num_types
    width = 2 * num_types + 1
    noop = width - 1
    starts, totals, uniforms, units = block
    block.clear()
    count = len(starts)
    groups = count * periods
    size = len(region)
    means = np.array(scenario.mean_lifetimes)
    starts = np.array(starts)
    initial_counts = states[starts]
    initial_total = initial_counts.sum(axis=1)
    per_creation = 1 if num_types == 1 else 2
    totals = np.array(totals, dtype=np.intp)
    # Each run's unit lifetimes are its initial ones, then its fresh ones.
    initial = np.repeat(np.tile((True, False), count), np.column_stack((initial_total, totals)).ravel())
    initial_units = units[initial]
    units = units[~initial]
    del initial

    # Creations in draw order, each with its group and type.
    time = uniforms[::per_creation] * periods
    period = np.floor(time)
    stamps = time - period
    del time
    group = np.repeat(np.arange(0, groups, periods, dtype=np.int32), totals)
    group += period.astype(np.int32)
    if num_types == 1:
        kind = np.zeros(len(group), dtype=np.int32)
    else:
        kind = np.searchsorted(_creation_law(scenario.creation_rates)[1], uniforms[1::2], side="right")
        kind = kind.astype(np.int32)
    del uniforms
    creations = len(group)
    # A slice accepted in period t becomes active at boundary t+1 and is
    # released floor(x) periods later at offset x - floor(x), x its
    # lifetime; x is tested against the periods left after t before
    # flooring, since an inf or huge lifetime has no int.
    with np.errstate(over="ignore"):
        life = means[kind] * units
    del units
    inside = life < (periods - 1) - period
    del period
    released = np.flatnonzero(inside)
    held = np.flatnonzero(~inside)
    del inside
    # The (run, type) code of each creation whose slice would be held.
    held_code = group[held] // periods * num_types + kind[held]
    life = life[released]
    releases = len(released)
    # Initial slices, type by type within each run, are released the same
    # way from boundary 0.
    initial_kind = np.repeat(np.tile(np.arange(num_types), count), initial_counts.ravel())
    initial_run = np.repeat(np.arange(count), initial_total)
    with np.errstate(over="ignore"):
        initial_life = means[initial_kind] * initial_units
    del initial_units
    ending = np.flatnonzero(initial_life < periods)
    initial_life = initial_life[ending]
    initial_kind = initial_kind[ending]
    initial_run = initial_run[ending]

    # Every event's group and offset: creations, potential releases, then
    # initial releases.
    events = creations + releases + len(ending)
    times = np.empty(events)
    times[:creations] = stamps
    del stamps
    at = np.empty(events, dtype=np.int32)
    at[:creations] = group
    for lives, first, stop, base in (
        (life, creations, creations + releases, group[released] + 1),
        (initial_life, creations + releases, events, initial_run * periods),
    ):
        whole = np.floor(lives)
        np.subtract(lives, whole, out=times[first:stop])
        at[first:stop] = whole
        at[first:stop] += base
    del group, life, initial_life, whole, base
    # Each run's events end, period by period, at these counts.
    ends = np.bincount(at, minlength=groups).reshape(count, periods).cumsum(axis=1, dtype=np.int32)

    # Rounding is monotone, so the float key group + offset orders distinct
    # keys exactly. Where the packed sort cannot order them, the full
    # (group, offset, column, creation id) order is used, where a release's
    # id is -1; for distinct keys it is the order that sorts them.
    key = at + times
    order = _key_order(key)
    del key
    if order is None:
        ids = np.full(events, -1)
        ids[:creations] = np.arange(creations)
        order = np.lexsort((
            ids, np.concatenate((kind, num_types + kind[released], num_types + initial_kind)), times, at
        ))
    del times, at

    # Sorted, each run's events are contiguous, and the k-th event of run r
    # goes to cell 1 + k * count + r of the step grid. Cell 0 takes the
    # writes of declined creations, and cells past the grid stand for the
    # releases that fall beyond the horizon. Cell numbers, and the flat
    # indices of the boundary states below, are 32-bit where they fit, and
    # no partial sum exceeds them.
    sizes = ends[:, -1]
    steps = int(sizes.max())
    cells = 1 + steps * count
    cell_type = np.int32 if cells + max(len(held), count) <= np.iinfo(np.int32).max else np.intp
    placed = np.arange(events, dtype=cell_type)
    placed -= np.repeat((np.cumsum(sizes) - sizes).astype(cell_type), sizes)
    placed *= count
    placed += np.repeat(np.arange(1, count + 1, dtype=cell_type), sizes)
    cell_of = np.empty(events, dtype=cell_type)
    cell_of[order] = placed
    del order, placed
    grid = np.full(cells + len(held), noop, dtype=np.intp)
    grid[cell_of[:creations]] = kind
    grid[cell_of[creations + releases:]] = num_types + initial_kind
    del kind
    # Each step writes the column its event switches on into the cell named
    # here: a creation's release cell, or the scratch cell 0.
    switch = np.zeros(cells, dtype=np.intp)
    switch[cell_of[released]] = cell_of[creations:creations + releases]
    del released
    switch[cell_of[held]] = np.arange(cells, cells + len(held))
    del cell_of, held

    visited = np.empty((steps + 1, count), dtype=np.int32)
    visited[0] = starts * width
    _lockstep(successor, release, grid, switch, visited)
    del switch

    final = visited[steps] // width
    # Slices outliving the horizon: initial ones, and accepted creations
    # whose release the grid's tail cells stand for.
    outliving = initial_counts - np.bincount(
        initial_run * num_types + initial_kind, minlength=count * num_types
    ).reshape(count, num_types)
    outliving += np.bincount(
        held_code[grid[cells:] != noop], minlength=count * num_types
    ).reshape(count, num_types)
    bad = np.flatnonzero((final == size) | np.any(states[final] != outliving, axis=1))
    if len(bad):
        run = int(bad[0])
        if final[run] == size:
            step = int(np.argmax(visited[1:, run] == size * width))
            column = int(grid[1 + step * count + run])
            raise RuntimeError(
                f"request kind column {column} has no successor from state "
                f"{region.states[visited[step, run] // width]}: a release with no active slice, "
                "or a corrupted table"
            )
        raise RuntimeError(
            f"lifetime bookkeeping holds {tuple(outliving[run].tolist())} slices, "
            f"final state is {region.states[final[run]]}"
        )
    del grid
    out[:, 0] = starts
    # Run r's state after period t is its state after ends[r, t] events,
    # cell ends[r, t] * count + r of the flat states.
    boundary = ends.astype(cell_type, copy=False)
    boundary *= count
    boundary += np.arange(count, dtype=cell_type)[:, None]
    np.floor_divide(visited.ravel().take(boundary), width, out=out[:, 1:])


def _fold_runs(scenario: DemandScenario, strategy: Strategy, periods: int, rngs, runs: int,
               initial_state: State | None) -> np.ndarray:
    """Draw and fold ``runs`` runs, one generator each from ``rngs``, a
    block at a time; returns their trajectories, an array of shape
    (runs, periods+1).

    Runs refused by :func:`_draw_args`, or of more than
    ``MAX_SIMULATED_PERIODS`` periods in all, are refused in that order,
    before the start lookup, the tables or any draw.
    """
    region = strategy.region
    args = _draw_args(scenario, region, periods)
    check_simulated_periods(runs * periods, f"{runs} runs of {periods} periods")
    start = None if initial_state is None else _start_index(region, initial_state)
    tables = _fold_tables(strategy)
    out = np.empty((runs, periods + 1), dtype=np.int64)
    done = 0
    for block in _draw_blocks(rngs, runs, *args, start):
        end = done + len(block[0])
        _fold_block(scenario, region, tables, periods, block, out[done:end])
        done = end
    return out


def run_episode(
    scenario: DemandScenario,
    strategy: Strategy,
    periods: int,
    rng: np.random.Generator,
    initial_state: State | None = None,
) -> np.ndarray:
    """Simulate one run; returns indices into ``strategy.region`` at each of
    periods+1 boundaries.

    All of the run's randomness is drawn up front from ``rng``, in this order:

    1. the start index, ``int(random() * len(region))``, when the start is
       uniform;
    2. ``poisson(periods * total_rate)``: the number T of the run's
       creations, total_rate being the sum of the types' rates;
    3. ``random(T)``, or ``random(2T)`` with more than one type, where
       creation i takes uniform i, or uniforms 2i and 2i+1: its position
       ``u`` puts it in period ``floor(periods*u)`` at offset
       ``periods*u - floor(periods*u)``, and its mark gives it type n with
       probability ``rate_n / total_rate`` (:func:`_creation_law`);
    4. ``standard_exponential(sum(state) + T)``: the initial lifetimes,
       type by type, then a fresh unit lifetime for each creation in draw
       order; each is scaled by its type's mean, and a fresh one is used
       only if its creation is accepted.

    After these draws the run makes no further generator calls, whatever
    the number of types. Calls 3 and 4 fill slices of its block's arrays
    with ``out=`` (:func:`_draw_blocks`), which draws the same numbers.
    Draws 3 and 4 are read with IEEE-exact operations only (multiply, floor,
    subtract, compare), so no result depends on which SIMD code numpy
    dispatches to. The law is the paper's: given T,
    the points of a Poisson process on ``[0, periods)`` are iid uniform and
    their marks iid, so the counts of every (period, type) cell are
    independent Poisson(rate_n) with uniform offsets. Initial slices get
    fresh exponential lifetimes: the residual lifetime of an exponential in
    steady state is again exponential, so no aging needs to be modeled.
    The horizon sets the mean of draw 2, so draws 3 and 4 start elsewhere
    in the stream: a run with a shorter horizon is not a prefix of a longer
    run from the same substream ``(seed, r)``. A run still depends only on
    that substream and its arguments, and its start only on the substream
    and the region's size.

    Since draw 4 covers every creation, accepted or not, the period and
    offset of every potential release are known before the fold: a slice
    with lifetime ``x`` that becomes active at boundary b is released in the
    period that starts at boundary ``b + floor(x)``, at offset
    ``x - floor(x)``, and one outliving the horizon is never released. The
    run is then the one-run case of the block fold (:func:`_fold_block`):
    each period's events in timestamp order go through
    ``strategy.next_index``, where column ``n`` is a creation of type n+1
    and column ``N+n`` its release, the
    :func:`~slice_markov.arrivals.request_kinds` order. A creation is
    accepted when the index changes. A ``-1`` met in the table (a release
    with no slice to release, or a corrupted table) or a count of slices
    outliving the horizon that disagrees with the final state is a
    bookkeeping bug and aborts. A run refused by the guards of
    :func:`simulate_episodes` is refused here too, before any draw.
    """
    if periods < 1:
        raise ValueError(f"periods must be positive, got {periods}")
    return _fold_runs(scenario, strategy, periods, (rng,), 1, initial_state)[0]


def simulate_episodes(scenario: DemandScenario, strategy: Strategy, sim: SimConfig) -> np.ndarray:
    """All runs of a protocol over ``strategy.region``; returns an array of
    shape (num_runs, periods+1).

    Run r always uses the substream (seed, r), so the result does not depend
    on how the runs are split into blocks. A protocol whose mean count of
    creations per run reaches numpy's Poisson limit, whose runs expect more
    than ``MAX_RUN_DRAWS`` draws, or whose runs hold more than
    ``MAX_SIMULATED_PERIODS`` periods in all, is refused before any draw,
    with :class:`~slice_markov.errors.GuardExceededError`.
    """
    return _fold_runs(scenario, strategy, sim.periods_per_run, _run_rngs(sim.seed, sim.num_runs), sim.num_runs,
                      sim.initial_state)


def _check_states(trajectories: np.ndarray, size: int) -> None:
    """Refuse a state index outside ``[0, size)``, which the pair and triple
    codes would count as another state."""
    if trajectories.size and not 0 <= trajectories.min() <= trajectories.max() < size:
        raise ValueError(
            f"state indices must lie in [0, {size}), got {trajectories.min()} to {trajectories.max()}"
        )


def estimate_empirical_matrix(region: AdmissibilityRegion, trajectories: np.ndarray) -> EmpiricalMatrix:
    """Count consecutive boundary pairs across all runs and row-normalize.
    A state index outside the region raises ``ValueError``."""
    trajectories = np.asarray(trajectories)
    if trajectories.ndim == 1:
        trajectories = trajectories[None, :]
    if trajectories.size == 0 or trajectories.shape[1] < 2:
        raise ValueError("need at least one observed transition")
    size = len(region)
    _check_states(trajectories, size)
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
    full squared region size. A non-finite or negative analytical entry
    raises ``ValueError``: the builders give entries >= 0, and the 0/0 rule
    would drop a NaN entry, or one that cancels its empirical value, from
    the sum.
    """
    analytical = np.asarray(analytical_probs, dtype=float)
    size = len(empirical.region)
    if analytical.shape != (size, size):
        raise ValueError(f"matrix shape {analytical.shape} does not match region size {size}")
    if not np.all((analytical >= 0) & (analytical < np.inf)):
        raise ValueError("analytical entries must be finite and >= 0")
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
    from s(t-1) on the observed triple counts, then pools the statistics
    (Anderson & Goodman 1957).

    Returns (statistic, degrees of freedom, p-value). Strata without at
    least a 2x2 table of occupied rows and columns carry no information and
    are skipped. A kept stratum j with r_j occupied rows (values of s(t-1))
    and c_j occupied columns (values of s(t+1)) adds (r_j - 1)(c_j - 1)
    degrees of freedom and Pearson's

        X_j^2 = n_j * (sum(O^2 / (R * C)) - 1)

    over the triples that occur, where O is a triple's count, R and C its
    row and column totals and n_j the stratum's total. The pooled sum is
    clamped at zero, where an independent table can round below it. Only
    the triples that occur are counted, so the memory taken grows with the
    trajectories, not with ``num_states**3``. A state index outside
    ``[0, num_states)`` raises ``ValueError``.

    The p-value is asymptotic, and unreliable when most expected counts are
    below 5. The simulator's own runs of the 200-state one-type region
    (pool 199, cost 1, always-accept, rate 100, mean lifetime 1), 40 runs of
    50 periods at seeds 5 to 8, are a first-order chain by construction, yet
    give p = 0.0035, 0.0003, 0.0001 and 0.0014. The 4-state chains of the
    acceptance test AC-7 fill every table, so it is not affected.
    """
    from scipy.special import chdtrc

    trajectories = np.asarray(trajectories)
    if trajectories.ndim == 1:
        trajectories = trajectories[None, :]
    if trajectories.shape[1] < 3:
        raise ValueError("need trajectories of at least 3 boundaries")
    _check_states(trajectories, num_states)
    prev = trajectories[:, :-2].ravel()
    mid = trajectories[:, 1:-1].ravel()
    nxt = trajectories[:, 2:].ravel()
    codes, counts = np.unique((mid * num_states + prev) * num_states + nxt, return_counts=True)
    stratum = codes // num_states**2
    # A row is a (stratum, prev) pair and a column a (stratum, next) pair.
    rows, row_of = np.unique(codes // num_states, return_inverse=True)
    cols, col_of = np.unique(stratum * num_states + codes % num_states, return_inverse=True)
    row_totals = np.bincount(row_of, weights=counts)
    col_totals = np.bincount(col_of, weights=counts)
    num_rows = np.bincount(rows // num_states, minlength=num_states)
    num_cols = np.bincount(cols // num_states, minlength=num_states)
    kept = (num_rows >= 2) & (num_cols >= 2)
    totals = np.bincount(stratum, weights=counts, minlength=num_states)[kept]
    ratios = counts * (counts / (row_totals[row_of] * col_totals[col_of]))
    sums = np.bincount(stratum, weights=ratios, minlength=num_states)[kept]
    statistic = max(0.0, float(np.sum(totals * (sums - 1.0))))
    dof = int(np.sum((num_rows[kept] - 1) * (num_cols[kept] - 1)))
    pvalue = float(chdtrc(dof, statistic)) if dof else 1.0
    return statistic, dof, pvalue
