"""Tests for the Monte-Carlo simulator and empirical estimation."""

from __future__ import annotations

import bisect
import math
import os
import subprocess
import sys
import tracemalloc
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_markov import (
    DemandScenario,
    EmpiricalMatrix,
    GuardExceededError,
    ResourceModel,
    SimConfig,
    Strategy,
    always_accept_strategy,
    apply_request,
    build_transition_matrix,
    default_config_path,
    enumerate_region,
    enumerate_valid_strategies,
    estimate_empirical_matrix,
    load_config,
    markov_order_test,
    rmse,
    run_episode,
    run_rng,
    simulate_episodes,
)
from slice_markov import simulate
from slice_markov.simulate import (
    _add_mark_types,
    _creation_law,
    _draw_args,
    _draw_blocks,
    _fold_block,
    _fold_tables,
    _run_rngs,
    _seed_words,
)


# ---------------------------------------------------------------------------
# Configuration and randomness plumbing
# ---------------------------------------------------------------------------


class TestSimConfig:
    def test_valid_config(self):
        cfg = SimConfig(num_runs=10, periods_per_run=5, seed=7, initial_state=[0])
        assert cfg.initial_state == (0,)

    def test_nonpositive_runs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_runs=0, periods_per_run=5, seed=7)

    def test_nonpositive_periods_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_runs=1, periods_per_run=0, seed=7)

    def test_seed_outside_64_bits_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_runs=1, periods_per_run=1, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(num_runs=1, periods_per_run=1, seed=2**64)

    # The first four used to construct, then fail inside numpy with a
    # TypeError; a bool seed simulated seed 1.
    @pytest.mark.parametrize("args", [
        (3, 5, 1.5),
        (3, 5, "7"),
        (2.5, 5, 1),
        (3, 5.0, 1),
        (3, 5, True),
        (True, 5, 1),
        (3, True, 1),
        (3, 5, np.bool_(True)),
    ], ids=["float-seed", "str-seed", "float-runs", "float-periods", "bool-seed", "bool-runs", "bool-periods",
            "numpy-bool-seed"])
    def test_non_integers_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(*args)

    def test_numpy_integers_accepted_as_ints(self, scenario_c, accept_all):
        cfg = SimConfig(np.int64(3), np.uint8(5), np.uint64(2**64 - 1))
        assert (cfg.num_runs, cfg.periods_per_run, cfg.seed) == (3, 5, 2**64 - 1)
        assert {type(value) for value in (cfg.num_runs, cfg.periods_per_run, cfg.seed)} == {int}
        np.testing.assert_array_equal(
            simulate_episodes(scenario_c, accept_all, cfg),
            simulate_episodes(scenario_c, accept_all, SimConfig(3, 5, 2**64 - 1)),
        )


class TestRunRng:
    def test_same_inputs_same_stream(self):
        a = run_rng(42, 3).random(5)
        b = run_rng(42, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_runs_different_streams(self):
        a = run_rng(42, 0).random(5)
        b = run_rng(42, 1).random(5)
        assert not np.array_equal(a, b)


class TestBulkStreams:
    """The simulator hashes every run's seed words in bulk and has numpy
    seed a PCG64 from them; each generator must be run_rng(seed, r)."""

    SEEDS = (0, 1, 42, 2**63 + 5, 2**64 - 1)
    # The tails of a call for 5 runs, for 1030 runs, across the edge of
    # the first chunk of 1024, and for 2100 runs, which hashes three chunks.
    RANGES = ((0, 5), (1021, 1030), (1000, 2100))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start, stop", RANGES)
    def test_states_reproduce_run_rng(self, seed, start, stop):
        rngs = list(_run_rngs(seed, stop))
        assert len(rngs) == stop
        for run, rng in zip(range(start, stop), rngs[start:]):
            reference = run_rng(seed, run)
            assert rng.bit_generator.state == reference.bit_generator.state
            np.testing.assert_array_equal(rng.random(8), reference.random(8))

    def test_run_indices_fit_one_word(self):
        # _seed_words mixes one uint32 word per run; the period cap bounds
        # the runs of a simulation, each at least one period long.
        assert simulate.MAX_SIMULATED_PERIODS <= 2**32

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        runs=st.lists(st.integers(min_value=0, max_value=simulate.MAX_SIMULATED_PERIODS - 1), min_size=8, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_seed_words_equal_numpy_s(self, seed, runs):
        words = _seed_words(seed, np.array(runs, dtype=np.uint32))
        expected = [np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64) for r in runs]
        np.testing.assert_array_equal(words, expected)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


class TestRunEpisode:
    def test_decline_all_from_empty_stays_empty(self, scenario_c, decline_all):
        trajectory = run_episode(scenario_c, decline_all, 50, run_rng(7, 0), initial_state=(0,))
        np.testing.assert_array_equal(trajectory, np.zeros(51, dtype=np.int64))

    def test_trajectory_length_and_start(self, region, scenario_c, accept_all):
        trajectory = run_episode(scenario_c, accept_all, 30, run_rng(8, 0), initial_state=(2,))
        assert trajectory.shape == (31,)
        assert trajectory[0] == region.index_of[(2,)]

    def test_indices_stay_in_region(self, region, scenario_a, accept_all):
        trajectory = run_episode(scenario_a, accept_all, 500, run_rng(9, 0))
        assert trajectory.min() >= 0
        assert trajectory.max() < len(region)

    def test_initial_state_outside_region_rejected(self, scenario_c, accept_all):
        with pytest.raises(ValueError):
            run_episode(scenario_c, accept_all, 5, run_rng(10, 0), initial_state=(9,))

    def test_no_periods_rejected(self, scenario_c, accept_all):
        with pytest.raises(ValueError, match="periods must be positive"):
            run_episode(scenario_c, accept_all, 0, run_rng(10, 0), initial_state=(0,))

    # These used to fail inside numpy with a TypeError.
    @pytest.mark.parametrize("periods", [2.0, True, "5", np.float64(3.0)], ids=["float", "bool", "str", "numpy-float"])
    def test_non_integer_periods_rejected(self, scenario_c, accept_all, periods):
        with pytest.raises(ValueError, match="periods must be an integer"):
            run_episode(scenario_c, accept_all, periods, run_rng(10, 0), initial_state=(0,))

    def test_numpy_integer_periods_accepted(self, scenario_c, accept_all):
        np.testing.assert_array_equal(
            run_episode(scenario_c, accept_all, np.int16(5), run_rng(10, 0)),
            run_episode(scenario_c, accept_all, 5, run_rng(10, 0)),
        )

    def test_period_cap_stops_before_any_draw(self, monkeypatch, scenario_c, accept_all):
        # One run of 10 periods passes a cap of 10 and is refused by a cap
        # of 9 before a draw. 10**400 periods have no float, so the period
        # cap must be met before the draw cap reads their mean, where an
        # OverflowError was raised.
        monkeypatch.setattr(simulate, "MAX_SIMULATED_PERIODS", 10)
        run_episode(scenario_c, accept_all, 10, run_rng(10, 0))
        monkeypatch.setattr(simulate, "MAX_SIMULATED_PERIODS", 9)
        monkeypatch.setattr(simulate, "_draw_blocks", None)  # a draw would raise TypeError
        for periods in (10, 10**400):
            with pytest.raises(GuardExceededError, match="cap of 9 simulated periods"):
                run_episode(scenario_c, accept_all, periods, run_rng(10, 0))

    def test_reproducible_via_seed(self, scenario_b, accept_all):
        a = run_episode(scenario_b, accept_all, 100, run_rng(11, 4))
        b = run_episode(scenario_b, accept_all, 100, run_rng(11, 4))
        np.testing.assert_array_equal(a, b)

    def test_all_states_reached_under_accept_all(self, scenario_a, accept_all):
        trajectory = run_episode(scenario_a, accept_all, 2000, run_rng(12, 0), initial_state=(0,))
        assert set(np.unique(trajectory)) == {0, 1, 2, 3}

    def test_uniform_start_is_the_first_draw(self, region, scenario_c, accept_all):
        for run in range(20):
            trajectory = run_episode(scenario_c, accept_all, 5, run_rng(25, run))
            assert trajectory[0] == int(run_rng(25, run).random() * len(region))

    @staticmethod
    def _capped_counts(seed, scenario, periods, caps):
        """Each type's cumulative creations at every boundary, capped, from
        the draws of a run with a fixed start and no initial slices: the
        total, then a position (and a mark with several types) each."""
        reference = run_rng(seed, 0)
        width = 1 if scenario.num_types == 1 else 2
        uniforms = reference.random(width * reference.poisson(periods * _creation_law(scenario.creation_rates)[0]))
        counts = np.zeros((periods + 1, scenario.num_types), dtype=int)
        for period, _, kind in _decode(scenario, periods, uniforms):
            counts[period + 1, kind] += 1
        return np.minimum(np.cumsum(counts, axis=0), caps)

    def test_creation_counts_come_from_one_bulk_poisson_draw(self):
        # From an empty start there are no initial lifetimes, so the first
        # draw is the Poisson total of all 40 periods, then a position for
        # each creation. Lifetimes of 1e12 periods never end, so
        # always-accept fills up to 12 slices.
        roomy = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.08,),))
        roomy_region = enumerate_region(roomy)
        scenario = DemandScenario(creation_rates=(0.9,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(roomy_region)
        trajectory = run_episode(scenario, strategy, 40, run_rng(26, 0), initial_state=(0,))
        expected = self._capped_counts(26, scenario, 40, 12)[:, 0]
        assert expected[-1] == 12 and expected[10] < 12
        np.testing.assert_array_equal(trajectory, expected)

    def test_two_types_take_their_types_from_the_marks(self):
        # Each type has a resource of its own, so always-accept admits a
        # creation of one type whatever the other holds. From an empty start
        # there are no initial lifetimes; creation i is uniforms 2i (its
        # position) and 2i+1 (its mark: type 1 below 0.9/1.2, type 2 above).
        # With lifetimes of 1e12 periods each type follows its capped
        # cumulative counts.
        roomy = ResourceModel(resource_pool=(1.0, 1.0), cost_matrix=((0.08, 0.0), (0.0, 0.125)))
        roomy_region = enumerate_region(roomy)
        caps = roomy_region.states[-1]
        scenario = DemandScenario(creation_rates=(0.9, 0.3), mean_lifetimes=(1e12, 1e12))
        strategy = always_accept_strategy(roomy_region)
        trajectory = run_episode(scenario, strategy, 40, run_rng(29, 0), initial_state=(0, 0))
        expected = self._capped_counts(29, scenario, 40, caps)
        assert caps == (12, 8) and tuple(expected[-1]) == caps and np.all(expected[10] < caps)
        np.testing.assert_array_equal(np.array([roomy_region.states[i] for i in trajectory]), expected)

    def test_counts_from_rate_ten_up_come_from_numpy_poisson(self):
        # A total mean of 12 x 40 = 480 creations: numpy's Poisson sampler
        # is PTRS from a mean of 10 up. Lifetimes of 1e12 periods never end,
        # so always-accept follows the cumulative counts up to 333 slices.
        roomy = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.003,),))
        roomy_region = enumerate_region(roomy)
        cap = roomy_region.states[-1][0]
        scenario = DemandScenario(creation_rates=(12.0,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(roomy_region)
        trajectory = run_episode(scenario, strategy, 40, run_rng(28, 0), initial_state=(0,))
        expected = self._capped_counts(28, scenario, 40, cap)[:, 0]
        assert cap == 333 and expected[-1] == cap and expected[10] < cap
        np.testing.assert_array_equal(trajectory, expected)

    def test_table_hole_aborts(self, region, scenario_a):
        # A valid strategy's table has a -1 only where a release has no
        # slice to release. Corrupt the compiled table of a fresh strategy
        # so that a creation in s=[3] has no successor: run_episode trusts
        # its table and stops at the -1 it meets.
        strategy = always_accept_strategy(region)
        table = list(strategy.next_index)
        table[3] = (-1, 2)
        strategy.__dict__["next_index"] = tuple(table)
        with pytest.raises(RuntimeError, match="corrupted"):
            run_episode(scenario_a, strategy, 200, run_rng(27, 0), initial_state=(3,))

    def test_bookkeeping_mismatch_aborts(self, region):
        # Corrupt the table so that a creation in s=[1] jumps to s=[3]. With
        # lifetimes of 1e12 periods no slice is released, so two accepted
        # creations leave two slices held against a final state of three.
        scenario = DemandScenario(creation_rates=(0.9,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(region)
        table = list(strategy.next_index)
        table[1] = (3, 0)
        strategy.__dict__["next_index"] = tuple(table)
        with pytest.raises(RuntimeError, match=r"lifetime bookkeeping holds \(2,\) slices, final state is \(3,\)"):
            run_episode(scenario, strategy, 40, run_rng(26, 0), initial_state=(0,))


def _run_draws(rng, mean, width, slices, start) -> tuple:
    """One run's draws as ``(start index, uniforms, unit lifetimes)``, from
    ``_draw_blocks``' block of that one run."""
    starts, _, uniforms, units = next(_draw_blocks((rng,), 1, mean, width, slices, start))
    return starts[0], uniforms, units


class TestCreationDraws:
    """``_draw_blocks`` draws a drawn start with ``random()``, then the total
    with ``poisson(periods * total_rate)``, the uniforms with
    ``random(width * total)`` and the unit lifetimes with
    ``standard_exponential(initial + total)``, and must leave the generator
    where those calls leave it. The rates include the bundled
    baseline.json's 1.0, 0.8 and 0.5, means on both sides of numpy's switch
    to PTRS at 10, the N=3 perfbench model's rates, a pair with one rate
    past that switch and a pair of equal rates. The horizons include
    figure2's 10 and figure3's 100."""

    SEEDS = (0, 1, 42, 2**64 - 1)
    HORIZONS = (1, 7, 10, 100)
    # The slices held in each state of a made-up five-state region.
    SLICES = [0, 1, 2, 3, 5]

    @pytest.mark.parametrize(
        "rates",
        [(1e-9,), (0.3,), (0.5,), (1.0,), (0.8,), (9.99,), (10.0,), (12.0,), (1000.0,),
         (0.6, 0.4, 0.3), (11.0, 0.4), (0.8, 0.8)],
    )
    @pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937", "Philox", "SFC64"])
    def test_replays_poisson_then_random(self, rates, bit_generator):
        make = getattr(np.random, bit_generator)
        width = 1 if len(rates) == 1 else 2
        for seed in self.SEEDS:
            for periods in self.HORIZONS:
                mean = periods * _creation_law(rates)[0]
                for start in (None, 4):
                    reference = np.random.Generator(make(seed))
                    first = int(reference.random() * len(self.SLICES)) if start is None else start
                    total = reference.poisson(mean)
                    uniforms = reference.random(width * total)
                    units = reference.standard_exponential(self.SLICES[first] + total)
                    rng = np.random.Generator(make(seed))
                    drawn = _run_draws(rng, mean, width, self.SLICES, start)
                    assert drawn[0] == first
                    np.testing.assert_array_equal(drawn[1], uniforms)
                    np.testing.assert_array_equal(drawn[2], units)
                    np.testing.assert_array_equal(rng.random(5), reference.random(5))

    def test_draw_args(self, region):
        # One type takes one uniform a creation; three types take two, and
        # their marks split [0, 1) at the cumulative rates over their sum.
        scenario = DemandScenario(creation_rates=(0.5,), mean_lifetimes=(4.0,))
        assert _draw_args(scenario, region, 100) == (50.0, 1, [0, 1, 2, 3])
        total, edges = _creation_law((0.6, 0.4, 0.3))
        assert total == 0.6 + 0.4 + 0.3
        np.testing.assert_array_equal(edges, [0.6 / total, (0.6 + 0.4) / total])

    @pytest.mark.parametrize("shares", [(1.0,), (0.5, 0.25, 0.25)])
    def test_draw_cap(self, region, shares):
        # A run expects (width + 1) draws a creation, plus the lifetimes of
        # the region's largest state (3 slices). One period at a total rate
        # just under the cap passes and one just over it is refused; nothing
        # is drawn.
        width = 1 if len(shares) == 1 else 2
        at_cap = (simulate.MAX_RUN_DRAWS - 3) / (width + 1)
        lifetimes = (4.0,) * len(shares)
        under = DemandScenario(tuple(at_cap * (1 - 1e-12) * share for share in shares), lifetimes)
        mean, drawn_width, _ = _draw_args(under, region, 1)
        assert drawn_width == width
        assert mean == pytest.approx(at_cap, rel=1e-9)
        over = DemandScenario(tuple(at_cap * (1 + 1e-12) * share for share in shares), lifetimes)
        with pytest.raises(GuardExceededError, match=f"cap of {simulate.MAX_RUN_DRAWS} draws per run"):
            _draw_args(over, region, 1)

    @pytest.mark.parametrize("rates", [(0.5,), (0.6, 0.4, 0.3), tuple(0.1 * n for n in range(1, 9))])
    @pytest.mark.parametrize("fixed_start", [False, True])
    def test_calls_do_not_depend_on_the_number_of_types(self, rates, fixed_start):
        # Three calls, after one more for a drawn start, with one, three or
        # eight types. The generator records the name of every call it
        # serves.
        calls = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        num_types = len(rates)
        region = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3,) * num_types,)))
        scenario = DemandScenario(creation_rates=rates, mean_lifetimes=(2.0,) * num_types)
        start = (0,) * num_types if fixed_start else None
        run_episode(scenario, always_accept_strategy(region), 50, Recording(run_rng(3, 0)), start)
        drawn_start = [] if fixed_start else ["random"]
        assert calls == drawn_start + ["poisson", "random", "standard_exponential"]


class TestSimulateEpisodes:
    def test_shape(self, scenario_c, accept_all):
        sim = SimConfig(num_runs=20, periods_per_run=10, seed=13)
        runs = simulate_episodes(scenario_c, accept_all, sim)
        assert runs.shape == (20, 11)

    def test_runs_use_independent_substreams(self, scenario_c, accept_all):
        # Run r depends only on (seed, r): shrinking the run count must not
        # change the runs that remain.
        big = simulate_episodes(
            scenario_c, accept_all,
            SimConfig(num_runs=6, periods_per_run=20, seed=14),
        )
        small = simulate_episodes(
            scenario_c, accept_all,
            SimConfig(num_runs=3, periods_per_run=20, seed=14),
        )
        np.testing.assert_array_equal(big[:3], small)

    @pytest.mark.parametrize("two_types", [False, True])
    @pytest.mark.parametrize("fixed_start", [False, True])
    def test_equals_run_episode_on_run_rng(self, model, region, scenario_b, accept_all, two_types, fixed_start):
        # Pins simulate_episodes to run_rng without a golden file, which a
        # numpy upgrade could break.
        if two_types:
            model, scenario = TestAgainstReferenceSimulator.MODEL, TestAgainstReferenceSimulator.SCENARIO
            region = enumerate_region(model)
            strategy = enumerate_valid_strategies(model, region)[101]
        else:
            scenario, strategy = scenario_b, accept_all
        start = region.states[1] if fixed_start else None
        sim = SimConfig(num_runs=9, periods_per_run=12, seed=2**63 + 5, initial_state=start)
        expected = np.array([
            run_episode(scenario, strategy, sim.periods_per_run, run_rng(sim.seed, r), start)
            for r in range(sim.num_runs)
        ])
        runs = simulate_episodes(scenario, strategy, sim)
        np.testing.assert_array_equal(runs, expected)

    def test_uniform_initialization_covers_region(self, scenario_c, accept_all):
        sim = SimConfig(num_runs=400, periods_per_run=1, seed=16)
        runs = simulate_episodes(scenario_c, accept_all, sim)
        starts = np.bincount(runs[:, 0], minlength=4)
        assert np.all(starts > 0)
        # Uniform draw: each state expects 100 +- 3 sigma ~ 26 starts.
        assert np.all(np.abs(starts - 100) < 50)

    def test_fixed_initialization(self, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=10, periods_per_run=1, seed=17, initial_state=(3,))
        runs = simulate_episodes(scenario_c, accept_all, sim)
        assert np.all(runs[:, 0] == region.index_of[(3,)])



# ---------------------------------------------------------------------------
# The block fold against the per-period reference fold
# ---------------------------------------------------------------------------


def _decode(scenario, periods, uniforms):
    """Each creation of a run as ``(period, offset, type)``, in draw order,
    decoded from its uniforms in plain Python with the IEEE operations of
    the block fold: position u gives period ``floor(periods*u)`` and offset
    ``periods*u - period``, and with several types the next uniform is the
    mark that picks the type against the cumulative rates."""
    _, edges = _creation_law(scenario.creation_rates)
    edges = edges.tolist()
    width = 1 if scenario.num_types == 1 else 2
    uniforms = uniforms.tolist()
    creations = []
    for i in range(0, len(uniforms), width):
        time = uniforms[i] * periods
        period = math.floor(time)
        kind = bisect.bisect_right(edges, uniforms[i + 1]) if width == 2 else 0
        creations.append((period, time - period, kind))
    return creations


def _reference_fold(scenario, strategy, periods, draws) -> np.ndarray:
    """The per-period fold the block fold replaced, on the draws of one run
    (a ``_run_draws`` tuple): a slice's release is filed under its period when
    the slice becomes active, and each period sorts its creations and
    releases as (offset, column, creation id) tuples, a release's id being
    -1, and applies them one by one."""
    index, uniforms, units = draws
    region = strategy.region
    num_types = scenario.num_types
    means = scenario.mean_lifetimes
    start_types = [n for n, count in enumerate(region.states[index]) for _ in range(count)]
    initial = units[:len(start_types)].tolist()
    fresh = units[len(start_types):].tolist()
    by_period = [[] for _ in range(periods)]
    for creation_id, (period, offset, kind) in enumerate(_decode(scenario, periods, uniforms)):
        by_period[period].append((offset, kind, creation_id))
    assert len(fresh) == sum(map(len, by_period))
    table = strategy.next_index
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
    for t in range(periods):
        events = by_period[t] + releases[t]
        events.sort()
        for _, column, creation_id in events:
            successor = table[index][column]
            assert successor >= 0
            if column < num_types and successor != index:
                remaining = means[column] * fresh[creation_id]
                period = int(remaining)
                if t + 1 + period < periods:
                    releases[t + 1 + period].append((remaining - period, num_types + column, -1))
                else:
                    held[column] += 1
            index = successor
        trajectory.append(index)
    assert tuple(held) == region.states[index]
    return np.array(trajectory, dtype=np.int64)


@st.composite
def fold_cases(draw):
    """A model of up to three types with a random valid strategy, rates from
    far below 1 to above numpy's switch at 10, lifetimes from 0.01 to 1e12
    periods, a fixed or uniform start, a split of the runs into blocks, and
    a block budget from one draw, where each run gets arrays of its own size,
    to the default."""
    num_types = draw(st.integers(min_value=1, max_value=3))
    costs = tuple(draw(st.floats(min_value=0.2, max_value=1.0)) for _ in range(num_types))
    region = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=(costs,)))
    strategy = Strategy(region, draw(st.integers(min_value=0, max_value=region.creation_mask)) & region.creation_mask)
    scenario = DemandScenario(
        creation_rates=[draw(st.sampled_from((0.05, 0.4, 1.0, 3.0, 9.99, 10.0, 14.0))) for _ in range(num_types)],
        mean_lifetimes=[10.0 ** draw(st.floats(min_value=-2.0, max_value=12.0)) for _ in range(num_types)],
    )
    periods = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.one_of(st.none(), st.sampled_from(region.states)))
    runs = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    cuts = sorted(set(draw(st.lists(st.integers(min_value=1, max_value=runs), max_size=3))))
    budget = draw(st.sampled_from((1, 4, 16, 64, simulate._BLOCK_DRAWS)))
    return scenario, strategy, periods, start, runs, seed, cuts, budget


def _fold_in_blocks(scenario, strategy, periods, draws, bounds) -> np.ndarray:
    """Fold the runs' ``_run_draws`` tuples in the blocks ``bounds`` cut,
    each gathered into ``_fold_block``'s ``[starts, totals, uniforms,
    units]``."""
    out = np.empty((len(draws), periods + 1), dtype=np.int64)
    tables = _fold_tables(strategy)
    width = 1 if scenario.num_types == 1 else 2
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop > start:
            starts, uniforms, units = zip(*draws[start:stop])
            block = [list(starts), [len(u) // width for u in uniforms], np.concatenate(uniforms), np.concatenate(units)]
            _fold_block(scenario, strategy.region, tables, periods, block, out[start:stop])
    return out


class TestBlockFold:
    @given(case=fold_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_fold(self, case):
        scenario, strategy, periods, start, runs, seed, cuts, budget = case
        region = strategy.region
        index = None if start is None else region.index_of[start]
        args = _draw_args(scenario, region, periods)
        draws = [_run_draws(run_rng(seed, r), *args, index) for r in range(runs)]
        expected = np.array([_reference_fold(scenario, strategy, periods, d) for d in draws])
        sim = SimConfig(num_runs=runs, periods_per_run=periods, seed=seed, initial_state=start)
        np.testing.assert_array_equal(simulate_episodes(scenario, strategy, sim), expected)
        for bounds in ([0, runs], list(range(runs + 1)), [0, *cuts, runs]):
            np.testing.assert_array_equal(
                _fold_in_blocks(scenario, strategy, periods, draws, bounds), expected
            )
        # All runs drawn in blocks of the drawn budget.
        with mock.patch.object(simulate, "_BLOCK_DRAWS", budget):
            np.testing.assert_array_equal(simulate_episodes(scenario, strategy, sim), expected)

    @pytest.mark.parametrize("budget", [1, 500, simulate._BLOCK_DRAWS])
    def test_block_budget_does_not_change_runs(self, monkeypatch, scenario_a, accept_all, budget):
        # A budget of one draw folds every run as its own block, in arrays
        # of the run's own size, the reference here; each of those runs is
        # checked against the reference fold. 500 draws hold a couple of
        # 100-period runs, and the default budget about 140, so 450 runs
        # take at least three blocks. One block of all 450 runs must agree
        # too.
        sim = SimConfig(num_runs=450, periods_per_run=100, seed=33)
        fold = simulate._fold_block
        # Each folded block's [starts, totals, uniforms, units], copied
        # before the fold empties the list.
        blocks = []
        monkeypatch.setattr(simulate, "_fold_block", lambda *args: blocks.append(list(args[4])) or fold(*args))

        def runs(draws, scenario=scenario_a, protocol=sim):
            monkeypatch.setattr(simulate, "_BLOCK_DRAWS", draws)
            blocks.clear()
            return simulate_episodes(scenario, accept_all, protocol)

        def counts():
            return [len(starts) for starts, *_ in blocks]

        expected = runs(1)
        assert counts() == [1] * 450
        for trajectory, (starts, _, uniforms, units) in zip(expected, blocks):
            assert len(uniforms) + len(units) > 1
            np.testing.assert_array_equal(
                trajectory, _reference_fold(scenario_a, accept_all, 100, (starts[0], uniforms, units))
            )
        np.testing.assert_array_equal(runs(budget), expected)
        assert len(blocks) >= 3
        np.testing.assert_array_equal(runs(sys.maxsize), expected)
        assert counts() == [450]

        if budget == 500:
            # Rare creations from starts drawn over 0 to 3 slices: a run's
            # lifetimes are mostly its start's, so a block's two arrays fill
            # unevenly, and it closes when one of them is full while the
            # other still has room for the next run's draws of its kind. A
            # block's arrays are views of its buffers, whose sizes are the
            # bases' lengths; one type takes one uniform a creation.
            sparse = DemandScenario(creation_rates=(0.05,), mean_lifetimes=(4.0,))
            protocol = SimConfig(num_runs=450, periods_per_run=10, seed=34)
            args = _draw_args(sparse, accept_all.region, 10)
            reference = [
                _reference_fold(sparse, accept_all, 10, _run_draws(run_rng(34, r), *args, None)) for r in range(450)
            ]
            np.testing.assert_array_equal(runs(budget, sparse, protocol), reference)
            slices = args[2]
            overflows = [
                (len(uniforms) + totals[0] > len(uniforms.base),
                 len(units) + slices[starts[0]] + totals[0] > len(units.base))
                for (_, _, uniforms, units), (starts, totals, _, _) in zip(blocks, blocks[1:])
            ]
            assert overflows and all(any(full) for full in overflows)
            assert (True, False) in overflows or (False, True) in overflows

    @pytest.mark.parametrize("keys_per_slice", [1, 2, 3, simulate._TIE_SLICE])
    def test_ties_are_found_across_slices(self, monkeypatch, keys_per_slice):
        # Indices are ORed into the keys a slice at a time. Distinct keys
        # get argsort's order, and a tie between any two keys, those at the
        # edges of two slices among them, gives no order.
        monkeypatch.setattr(simulate, "_TIE_SLICE", keys_per_slice)
        distinct = np.array([4.5, 0.5, 2.5, 1.5, 3.5, 5.5])
        np.testing.assert_array_equal(simulate._key_order(distinct.copy()), np.argsort(distinct))
        for first in range(len(distinct)):
            for second in range(first + 1, len(distinct)):
                key = distinct.copy()
                key[second] = key[first]
                assert simulate._key_order(key) is None, (first, second)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        events=st.integers(min_value=1, max_value=3000),
        pairs=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0, max_value=2**20)),
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_packed_order_is_proved_or_refused(self, seed, events, pairs):
        # Keys as a block makes them, group + offset over 140 runs of 100
        # periods, with some pairs forced to share their high bits: the
        # second key takes the first's high bits and the drawn low bits, or
        # is made equal to it when the drawn bits are 0. The packed order
        # is refused exactly when two keys share their high bits, and is
        # otherwise argsort's.
        rng = np.random.default_rng(seed)
        key = rng.integers(0, 140 * 100, events) + rng.random(events)
        low = (1 << (events - 1).bit_length()) - 1
        bits = key.view(np.int64)
        for first, second, low_bits in pairs:
            first, second = first % events, second % events
            bits[second] = bits[first] if low_bits == 0 else bits[first] & ~low | low_bits & low
        shared = len(np.unique(bits & ~low)) < events
        order = simulate._key_order(key.copy())
        if shared:
            assert order is None
        else:
            np.testing.assert_array_equal(order, np.argsort(key))

    @staticmethod
    def _count_lexsorts(monkeypatch) -> list:
        """Wrap ``np.lexsort``, the fold's fallback from the packed order,
        so that the returned list records one entry per call."""
        calls = []
        lexsort = np.lexsort

        def call(*args, **kwargs):
            calls.append(None)
            return lexsort(*args, **kwargs)

        monkeypatch.setattr(np, "lexsort", call)
        return calls

    @pytest.mark.parametrize("events", [1, 2, 3, 1000, simulate._TIE_SLICE + 1, 28_000])
    def test_packed_order_equals_argsort(self, events):
        # Keys as a block makes them, group + offset over 140 runs of 100
        # periods, across the edges of the slices the indices are ORed in.
        rng = np.random.default_rng(events)
        key = rng.integers(0, 140 * 100, events) + rng.random(events)
        np.testing.assert_array_equal(simulate._key_order(key.copy()), np.argsort(key))

    def test_runs_take_the_packed_order(self, monkeypatch, scenario_a, accept_all):
        sim = SimConfig(num_runs=300, periods_per_run=100, seed=35)
        expected = simulate_episodes(scenario_a, accept_all, sim)
        calls = self._count_lexsorts(monkeypatch)
        np.testing.assert_array_equal(simulate_episodes(scenario_a, accept_all, sim), expected)
        assert calls == []

    @pytest.mark.parametrize("ulps", [(5, 3, 2, 0), (7, 0)])
    def test_shared_high_bits_fall_back_to_lexsort(self, ulps):
        # Eight keys, so an index takes the low three bits of a key. Keys
        # 1.0 + k ulp for k < 8 share their high bits; put in reverse order,
        # the packed sort orders them by index, the reverse of their values.
        group = np.array([1] * len(ulps) + [3, 0, 2, 0, 4, 5][:8 - len(ulps)])
        offset = np.concatenate((np.array(ulps) * np.spacing(1.0), [0.5, 0.25, 0.0, 0.5, 0.0, 0.0]))[:8]
        key = group + offset
        assert simulate._key_order(key.copy()) is None
        # The fold's fallback, the order of group, then offset, is the one
        # that sorts the distinct keys.
        np.testing.assert_array_equal(np.lexsort((offset, group)), np.argsort(key))
        # The same keys in ascending index order, which the packed sort
        # orders rightly, fall back too: the sort cannot prove the order of
        # keys that share their high bits.
        assert simulate._key_order(np.sort(key)) is None

    def test_zero_key_is_ordered_first(self):
        # A key of 0.0 packs into a subnormal double, which the float sort
        # must still put below every other key.
        key = np.array([2.5, 0.0, 1e-300, 0.75, 3.0])
        np.testing.assert_array_equal(simulate._key_order(key), [1, 2, 3, 0, 4])

    def test_equal_keys_give_no_order(self):
        assert simulate._key_order(np.array([2.5, 0.5, 1.0, 0.5])) is None

    # Hand-made draws whose keys tie, so the fold falls back to the stable
    # (group, offset, column) order, in which equal creations keep their
    # draw order. Mean lifetimes of 1 make
    # each unit lifetime a lifetime in periods, and over two periods a
    # position of 0.25 puts a creation at offset 0.5 of period 0.
    ONE_TYPE = DemandScenario(creation_rates=(1.0,), mean_lifetimes=(1.0,))
    TWO_TYPES = DemandScenario(creation_rates=(1.0, 1.0), mean_lifetimes=(1.0, 1.0))

    def _tie_case(self, monkeypatch, scenario, strategy, draws, expected):
        calls = self._count_lexsorts(monkeypatch)
        periods = len(expected) - 1
        out = _fold_in_blocks(scenario, strategy, periods, [draws], [0, 1])
        # The packed order fails its check, and lexsort gives the order.
        assert len(calls) == 1
        np.testing.assert_array_equal(out[0], _reference_fold(scenario, strategy, periods, draws))
        region = strategy.region
        assert [region.states[i] for i in out[0]] == expected

    def test_creation_before_release_at_equal_offset(self, monkeypatch, region):
        # Full at s=[3]: a slice releases at offset 0.5 of period 0, where a
        # creation arrives. The creation comes first and is declined.
        draws = (region.index_of[(3,)], np.array([0.25]), np.array([0.5, 5.0, 5.0, 0.25]))
        self._tie_case(monkeypatch, self.ONE_TYPE, always_accept_strategy(region), draws,
                       [(3,), (2,), (2,)])

    def test_equal_stamps_keep_draw_order(self, monkeypatch, region):
        # Room for one more slice and two creations at one stamp: the first
        # drawn is accepted, so its lifetime of 0.5 ends in period 1.
        draws = (region.index_of[(2,)], np.array([0.25, 0.25]), np.array([100.0, 100.0, 0.5, 1e6]))
        self._tie_case(monkeypatch, self.ONE_TYPE, always_accept_strategy(region), draws,
                       [(2,), (3,), (2,)])

    def test_releases_of_two_types_at_equal_offset(self, monkeypatch):
        # From s=[1,1] both slices release at offset 0.5, where a type-2
        # creation (mark 0.75, above the edge at 0.5) arrives: it comes
        # first and is declined, then the releases go in type order.
        two = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3, 0.5),)))
        draws = (two.index_of[(1, 1)], np.array([0.25, 0.75]), np.array([0.5, 0.5, 0.25]))
        self._tie_case(monkeypatch, self.TWO_TYPES, always_accept_strategy(two), draws,
                       [(1, 1), (0, 0), (0, 0)])

    def test_lifetimes_at_the_horizon(self):
        # Over 3 periods from s=[2], an initial lifetime of exactly 3.0
        # outlives the horizon and one an ulp shorter is released in period
        # 2; so, for the two creations of period 0, are a lifetime of
        # exactly 2.0 and one an ulp shorter, counted from boundary 1.
        four = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=((0.25,),)))
        draws = (
            four.index_of[(2,)],
            np.array([0.1, 0.2]),
            np.array([3.0, np.nextafter(3.0, 0.0), 2.0, np.nextafter(2.0, 0.0)]),
        )
        strategy = always_accept_strategy(four)
        out = _fold_in_blocks(self.ONE_TYPE, strategy, 3, [draws], [0, 1])
        np.testing.assert_array_equal(out[0], _reference_fold(self.ONE_TYPE, strategy, 3, draws))
        assert [four.states[i] for i in out[0]] == [(2,), (4,), (4,), (2,)]

    def test_working_set_is_bounded(self):
        # The fold's sort keys, step grid and states are held for one block
        # at a time. Measured peaks on the bundled baseline's scenario A at
        # 1000 runs x 100 periods: about 2.35 times the trajectory array's
        # bytes with blocks of 7 * 2**12 uniforms and lifetimes (2.345 with
        # the packed keys sorted in the key array and their order proved
        # from their own bits; 2.404 with a packed copy and a second,
        # sliced gather of the sorted keys; 2.40 with
        # initial and fresh lifetimes on one path; 2.41 with one in-place
        # sort of packed keys whose indices are ORed in 8k at a time, 2.59
        # with one arange of every index; 2.42 with argsort,
        # drawn into two arrays per block, 2.43 into arrays per run; 3.0
        # with 5 * 2**13; 2.4 with the 5 * 2**13 draws of per-type counts,
        # stamps and lifetimes of earlier folds), against about 17 times
        # when all 1000 runs are one block.
        cfg = load_config(default_config_path())
        strategy = always_accept_strategy(cfg.region())
        sim = SimConfig(num_runs=1000, periods_per_run=100, seed=42)
        simulate_episodes(cfg.scenarios["A"], strategy, sim)
        tracemalloc.start()
        try:
            runs = simulate_episodes(cfg.scenarios["A"], strategy, sim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * runs.nbytes


# numpy's ufuncs whose results are not correctly rounded, so that their
# bits may depend on the SIMD code numpy dispatches to.
TRANSCENDENTAL = (
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power", "float_power", "cbrt", "sin", "cos",
    "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
    "hypot", "logaddexp", "logaddexp2",
)


@pytest.mark.parametrize("two_types", [False, True])
def test_no_transcendental_ufunc_reads_a_variate(monkeypatch, region, scenario_a, accept_all, two_types):
    # Periods, offsets, types and lifetimes come from multiplies, floors,
    # subtractions and comparisons; many runs and a single run call none of
    # the ufuncs above.
    if two_types:
        scenario = TestAgainstReferenceSimulator.SCENARIO
        strategy = always_accept_strategy(enumerate_region(TestAgainstReferenceSimulator.MODEL))
    else:
        scenario, strategy = scenario_a, accept_all
    sim = SimConfig(num_runs=50, periods_per_run=30, seed=8)
    expected = simulate_episodes(scenario, strategy, sim)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.{name} called")
        return call

    for name in TRANSCENDENTAL:
        monkeypatch.setattr(np, name, forbidden(name))
    np.testing.assert_array_equal(simulate_episodes(scenario, strategy, sim), expected)
    np.testing.assert_array_equal(
        run_episode(scenario, strategy, 30, run_rng(8, 0)), expected[0]
    )


class TestMarkTypes:
    """A creation's type is the number of :func:`_creation_law` edges at or
    below its mark, one comparison per edge; it must equal the binary
    search ``searchsorted(edges, marks, side="right")`` on every mark,
    those exactly at an edge, 0.0 and the largest double below 1 included.
    The fold passes a strided view of the uniforms and adds into a prefix
    of the type array, so the test does too."""

    @staticmethod
    def _types(edges, marks) -> np.ndarray:
        uniforms = np.full(2 * len(marks), -1.0)
        uniforms[1::2] = marks
        kind = np.zeros(len(marks) + 3, dtype=np.int32)
        _add_mark_types(uniforms[1::2], edges, kind[:len(marks)])
        assert not kind[len(marks):].any()
        return kind[:len(marks)]

    @pytest.mark.parametrize(
        "rates",
        [(0.6, 0.4, 0.3), (1.0, 0.8, 0.5), (0.8, 0.8), (11.0, 0.4), tuple(0.1 * n for n in range(1, 9)),
         (1.0, 1e-300, 1.0)],
    )
    def test_equals_searchsorted(self, rates):
        _, edges = _creation_law(rates)
        marks = np.concatenate((
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            [0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(len(rates)).random(1000),
        ))
        np.testing.assert_array_equal(self._types(edges, marks), np.searchsorted(edges, marks, side="right"))

    def test_equal_edges(self):
        # 1 + 1e-300 rounds to 1, so the middle type's two edges are equal
        # and no mark gives it: a mark at the edge is counted past both.
        _, edges = _creation_law((1.0, 1e-300, 1.0))
        assert edges.tolist() == [0.5, 0.5]
        marks = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)])
        assert self._types(edges, marks).tolist() == [0, 0, 2, 2, 2]

    @given(
        rates=st.lists(st.floats(min_value=1e-300, max_value=1e10), min_size=2, max_size=8),
        marks=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_searchsorted_on_any_rates(self, rates, marks):
        _, edges = _creation_law(rates)
        marks = np.concatenate((edges, marks))
        np.testing.assert_array_equal(self._types(edges, marks), np.searchsorted(edges, marks, side="right"))


class TestCreationLaw:
    """The creations of a run are one Poisson process at the total rate,
    its points marked with a type. Decoded with the fold's operations, the
    counts of the (period, type) cells must be independent Poisson(rate_n)
    and the offsets uniform. The draws are those of 3000 runs x 10 periods
    of the N=3 perfbench model from an empty start, at one fixed seed; each
    test is at level 0.001."""

    RATES = (0.6, 0.4, 0.3)
    RUNS, PERIODS = 3000, 10

    @pytest.fixture(scope="class")
    def decoded(self):
        scenario = DemandScenario(creation_rates=self.RATES, mean_lifetimes=(1.0,) * len(self.RATES))
        mean = self.PERIODS * _creation_law(self.RATES)[0]
        counts = np.zeros((self.RUNS, self.PERIODS, len(self.RATES)), dtype=int)
        offsets = []
        for run in range(self.RUNS):
            _, uniforms, _ = _run_draws(run_rng(7, run), mean, 2, [0], 0)
            for period, offset, kind in _decode(scenario, self.PERIODS, uniforms):
                counts[run, period, kind] += 1
                offsets.append(offset)
        return counts.reshape(-1, len(self.RATES)), np.array(offsets)

    @staticmethod
    def _poisson_cells(rate, cap):
        """Poisson(rate) masses of 0..cap-1 and of the tail from cap."""
        from scipy.stats import poisson

        masses = poisson.pmf(np.arange(cap), rate)
        return np.append(masses, poisson.sf(cap - 1, rate))

    def test_each_type_counts_are_poisson(self, decoded):
        from scipy.stats import power_divergence

        cells, _ = decoded
        for n, rate in enumerate(self.RATES):
            # The tail starts where fewer than 5 cells are expected.
            expected = len(cells) * self._poisson_cells(rate, 12)
            cap = int(np.argmax(expected < 5))
            expected = len(cells) * self._poisson_cells(rate, cap)
            observed = np.bincount(np.minimum(cells[:, n], cap), minlength=cap + 1)
            result = power_divergence(observed, expected, lambda_="log-likelihood")
            assert result.pvalue > 0.001, (rate, observed, expected)

    def test_types_are_independent(self, decoded):
        # The joint law of the three counts, each capped at 2, against the
        # product of the Poisson laws: 27 cells, each expecting at least 8.
        from scipy.stats import power_divergence

        cells, _ = decoded
        product = np.einsum("i,j,k->ijk", *(self._poisson_cells(rate, 2) for rate in self.RATES))
        observed = np.zeros((3, 3, 3))
        np.add.at(observed, tuple(np.minimum(cells, 2).T), 1)
        expected = len(cells) * product
        assert expected.min() > 8
        result = power_divergence(observed.ravel(), expected.ravel(), lambda_="log-likelihood")
        assert result.pvalue > 0.001

    def test_periods_and_offsets_are_uniform(self, decoded):
        from scipy.stats import chisquare, kstest

        cells, offsets = decoded
        per_period = cells.sum(axis=1).reshape(self.RUNS, self.PERIODS).sum(axis=0)
        assert chisquare(per_period).pvalue > 0.001
        assert offsets.min() >= 0.0 and offsets.max() < 1.0
        assert kstest(offsets, "uniform").pvalue > 0.001


# ---------------------------------------------------------------------------
# Agreement with exact and reference transition rows
# ---------------------------------------------------------------------------


def _max_z_against_exact(exact_probs: np.ndarray, est: EmpiricalMatrix, rows) -> float:
    """Largest binomial |z| of the empirical entries of ``rows`` against exact
    probabilities; an observed entry the exact row calls impossible is inf."""
    worst = 0.0
    for i in rows:
        visits = est.visits[i]
        assert visits > 0
        for p, e in zip(exact_probs[i], est.probs[i]):
            if abs(e - p) <= 1e-12:
                continue
            se = np.sqrt(p * (1.0 - p) / visits)
            worst = max(worst, abs(e - p) / se if se > 0 else np.inf)
    return worst


class TestAgainstExactBuilderRows:
    """Rows on which the paper's builder is exact whatever the event order:
    under decline-all the releases are Binomial(s, 1 - exp(-1/mu)), and from
    s=[0] there are only creations. At q=8 the truncated tail is below 1e-9."""

    def test_decline_all_rows(self, model, region, scenario_c, decline_all):
        exact = build_transition_matrix(model, region, scenario_c, decline_all, q_plus_max=8)
        sim = SimConfig(num_runs=20_000, periods_per_run=3, seed=28, initial_state=(3,))
        est = estimate_empirical_matrix(
            region, simulate_episodes(scenario_c, decline_all, sim)
        )
        assert est.zero_visit_rows == ()
        assert _max_z_against_exact(exact.probs, est, range(len(region))) <= 4.0

    def test_empty_row_under_accept_all(self, model, region, scenario_c, accept_all):
        # Poisson(0.5) creation counts, capped at 3 by the region.
        exact = build_transition_matrix(model, region, scenario_c, accept_all, q_plus_max=8)
        sim = SimConfig(num_runs=20_000, periods_per_run=1, seed=29, initial_state=(0,))
        est = estimate_empirical_matrix(
            region, simulate_episodes(scenario_c, accept_all, sim)
        )
        assert est.visits[0] == 20_000
        assert _max_z_against_exact(exact.probs, est, [0]) <= 4.0


def _reference_episode(region, scenario, strategy, periods, rng) -> np.ndarray:
    """Per-event simulator: scalar draws every period, each request decided
    with ``Strategy.decide`` and applied with ``apply_request``."""
    state = region.states[int(rng.integers(len(region)))]
    means = scenario.mean_lifetimes
    lifetimes = [
        [float(rng.exponential(means[n])) for _ in range(state[n])]
        for n in range(scenario.num_types)
    ]
    trajectory = [region.index_of[state]]
    for _ in range(periods):
        events = []
        for n, rate in enumerate(scenario.creation_rates):
            events.extend((stamp, n + 1) for stamp in rng.random(rng.poisson(rate)))
        for n, per_type in enumerate(lifetimes):
            events.extend((remaining, -(n + 1)) for remaining in per_type if remaining < 1.0)
        events.sort(key=itemgetter(0))
        survivors = [[r - 1.0 for r in per_type if r >= 1.0] for per_type in lifetimes]
        for _, kind in events:
            if strategy.decide(kind, state):
                state = apply_request(state, kind, True)
                if kind > 0:
                    survivors[kind - 1].append(float(rng.exponential(means[kind - 1])))
        lifetimes = survivors
        trajectory.append(region.index_of[state])
    return np.array(trajectory)


def _max_two_sample_z(a: EmpiricalMatrix, b: EmpiricalMatrix, min_visits: int = 100):
    """Largest pooled two-proportion |z| over entries of rows visited at
    least ``min_visits`` times on both sides, and how many entries had a
    pooled probability strictly between 0 and 1."""
    worst, compared = 0.0, 0
    for i in np.flatnonzero((a.visits >= min_visits) & (b.visits >= min_visits)):
        va, vb = a.visits[i], b.visits[i]
        for ca, cb in zip(a.counts[i], b.counts[i]):
            pooled = (ca + cb) / (va + vb)
            if 0.0 < pooled < 1.0:
                se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / va + 1.0 / vb))
                worst = max(worst, abs(ca / va - cb / vb) / se)
                compared += 1
    return worst, compared


class TestAgainstReferenceSimulator:
    """Two slice types with unequal lifetimes, so a release credited to the
    wrong type shifts whole rows; every other simulator test has one type."""

    MODEL = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3, 0.5),))
    SCENARIO = DemandScenario(creation_rates=(0.8, 0.5), mean_lifetimes=(2.0, 0.7))

    def _compare(self, strategy):
        region = enumerate_region(self.MODEL)
        runs, periods = 2000, 100
        sim = SimConfig(num_runs=runs, periods_per_run=periods, seed=30)
        bulk = estimate_empirical_matrix(
            region, simulate_episodes(self.SCENARIO, strategy, sim)
        )
        reference = estimate_empirical_matrix(
            region,
            np.array([
                _reference_episode(region, self.SCENARIO, strategy, periods, run_rng(31, r))
                for r in range(runs)
            ]),
        )
        worst, compared = _max_two_sample_z(bulk, reference)
        assert compared >= 20
        assert worst <= 4.0

    def test_always_accept(self):
        region = enumerate_region(self.MODEL)
        self._compare(always_accept_strategy(region))

    def test_enumerated_strategy(self):
        # D101 declines type-2 creations everywhere but s=[1,0].
        region = enumerate_region(self.MODEL)
        self._compare(enumerate_valid_strategies(self.MODEL, region)[101])


# ---------------------------------------------------------------------------
# Empirical estimation
# ---------------------------------------------------------------------------


class TestEstimateEmpiricalMatrix:
    def test_single_stationary_trajectory(self, region):
        est = estimate_empirical_matrix(region, np.array([0, 0, 0]))
        assert est.counts[0, 0] == 2
        assert est.visits[0] == 2
        np.testing.assert_array_equal(est.probs[0], [1.0, 0.0, 0.0, 0.0])
        assert est.zero_visit_rows == (1, 2, 3)

    def test_counts_total_equals_observed_transitions(self, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=50, periods_per_run=40, seed=19)
        runs = simulate_episodes(scenario_c, accept_all, sim)
        est = estimate_empirical_matrix(region, runs)
        assert est.counts.sum() == 50 * 40

    def test_visited_rows_normalize(self, region, scenario_a, accept_all):
        sim = SimConfig(num_runs=30, periods_per_run=30, seed=20)
        runs = simulate_episodes(scenario_a, accept_all, sim)
        est = estimate_empirical_matrix(region, runs)
        for i in range(4):
            if est.visits[i]:
                assert est.probs[i].sum() == pytest.approx(1.0, abs=1e-12)
            else:
                assert est.probs[i].sum() == 0.0

    def test_full_coverage_under_reference_protocol(self, region, scenario_c, accept_all):
        # 1000 uniformly initialized runs of 100 periods visit every row.
        sim = SimConfig(num_runs=1000, periods_per_run=100, seed=42)
        runs = simulate_episodes(scenario_c, accept_all, sim)
        est = estimate_empirical_matrix(region, runs)
        assert est.zero_visit_rows == ()

    def test_too_short_input_rejected(self, region):
        with pytest.raises(ValueError):
            estimate_empirical_matrix(region, np.array([0]))

    @pytest.mark.parametrize("runs", [[[0, 4], [1, 1]], [[1, -1]]], ids=["past-the-region", "negative"])
    def test_state_outside_region_rejected(self, region, runs):
        # Pair codes state * |R| + next would read 0 -> 4 as 1 -> 0, and
        # 1 -> -1 as 0 -> 3.
        with pytest.raises(ValueError, match=r"state indices must lie in \[0, 4\)"):
            estimate_empirical_matrix(region, np.array(runs))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_pair_codes_do_not_wrap(self, dtype):
        # Pair codes state * 200 + next of the 200-state region reach
        # 39,999, past int16's range.
        wide = enumerate_region(ResourceModel(resource_pool=(199.0,), cost_matrix=((1.0,),)))
        assert len(wide) == 200
        runs = np.random.default_rng(12).integers(150, 200, size=(3, 40))
        expected = np.zeros((200, 200), dtype=np.int64)
        np.add.at(expected, (runs[:, :-1], runs[:, 1:]), 1)
        np.testing.assert_array_equal(estimate_empirical_matrix(wide, runs.astype(dtype)).counts, expected)

    @pytest.mark.parametrize("runs", [[[0.0, 1.0, 0.0]], [[False, True, False]]], ids=["float", "bool"])
    def test_non_integer_states_rejected(self, region, runs):
        for estimate in (lambda: estimate_empirical_matrix(region, np.array(runs)),
                         lambda: markov_order_test(np.array(runs), 4)):
            with pytest.raises(ValueError, match="state indices must be integers"):
                estimate()


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------


def _two_state_empirical() -> tuple:
    flip = ResourceModel(resource_pool=(1.0,), cost_matrix=((1.0,),))
    flip_region = enumerate_region(flip)
    est = estimate_empirical_matrix(flip_region, np.array([0, 1, 0, 1, 0]))
    return flip_region, est


class TestRmse:
    def test_perfect_agreement_is_zero(self):
        _, est = _two_state_empirical()
        assert rmse(np.array([[0.0, 1.0], [1.0, 0.0]]), est) == 0.0

    def test_zero_over_zero_counts_as_agreement(self):
        # The (0,0) and (1,1) entries are zero on both sides and contribute
        # nothing even though their rows are visited.
        _, est = _two_state_empirical()
        assert est.visits[0] > 0 and est.visits[1] > 0
        assert rmse(np.array([[0.0, 1.0], [1.0, 0.0]]), est) == 0.0

    def test_saturated_disagreement(self):
        # Row 0 predicted [1, 0] against observed [0, 1]: two terms of
        # (+/-2)^2 = 4 each; row 1 agrees. sqrt(8 / 2^2) = sqrt(2).
        _, est = _two_state_empirical()
        value = rmse(np.array([[1.0, 0.0], [1.0, 0.0]]), est)
        assert value == pytest.approx(np.sqrt(8.0 / 4.0), rel=1e-12)

    def test_unvisited_rows_excluded(self):
        flip = ResourceModel(resource_pool=(1.0,), cost_matrix=((1.0,),))
        flip_region = enumerate_region(flip)
        est = estimate_empirical_matrix(flip_region, np.array([0, 0, 0]))
        assert est.zero_visit_rows == (1,)
        # Row 1 disagrees wildly but is never observed, so it cannot count.
        assert rmse(np.array([[1.0, 0.0], [1.0, 0.0]]), est) == 0.0

    def test_shape_mismatch_rejected(self, region):
        est = estimate_empirical_matrix(region, np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            rmse(np.eye(3), est)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, value):
        # A NaN entry fails the denominator's > 0 test, so it would drop out
        # of the sum: an all-NaN matrix would score 0.0, an all-inf one NaN.
        _, est = _two_state_empirical()
        with pytest.raises(ValueError, match="finite"):
            rmse(np.full((2, 2), value), est)

    def test_negative_entries_rejected(self):
        # An entry of -e against an empirical e has a zero denominator, so
        # it would drop out of the sum like 0/0.
        _, est = _two_state_empirical()
        with pytest.raises(ValueError, match=">= 0"):
            rmse(-est.probs, est)

    def test_matches_hand_computation(self):
        _, est = _two_state_empirical()
        ana = np.array([[0.2, 0.8], [0.6, 0.4]])
        terms = 0.0
        for i in range(2):
            for j in range(2):
                a, e = ana[i, j], est.probs[i, j]
                if a + e > 0:
                    terms += (2 * (a - e) / (a + e)) ** 2
        assert rmse(ana, est) == pytest.approx(np.sqrt(terms / 4), rel=1e-12)

    def test_converges_with_sample_size(self, model, region, scenario_c, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=6
        )
        errors = []
        for runs in (50, 1000):
            sim = SimConfig(num_runs=runs, periods_per_run=100, seed=21)
            sims = simulate_episodes(scenario_c, accept_all, sim)
            errors.append(rmse(matrix.probs, estimate_empirical_matrix(region, sims)))
        assert errors[1] < errors[0]


# ---------------------------------------------------------------------------
# Markov-order diagnostics
# ---------------------------------------------------------------------------


class TestMarkovOrderTest:
    def test_simulated_chain_not_rejected(self, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=50, periods_per_run=200, seed=22)
        runs = simulate_episodes(scenario_c, accept_all, sim)
        _, dof, pvalue = markov_order_test(runs, len(region))
        assert dof > 0
        assert pvalue >= 0.01

    def test_iid_sequence_not_rejected(self):
        rng = run_rng(23, 0)
        sequence = rng.integers(0, 3, size=30_000)
        _, dof, pvalue = markov_order_test(sequence, 3)
        assert dof > 0
        assert pvalue >= 0.01

    def test_second_order_process_rejected(self):
        # x(t+1) copies x(t-1) with probability 0.95: flagrant second-order
        # memory that a first-order test must reject.
        rng = run_rng(24, 0)
        n = 20_000
        seq = np.empty(n, dtype=np.int64)
        seq[0] = rng.integers(2)
        seq[1] = rng.integers(2)
        flips = rng.random(n) < 0.05
        for t in range(2, n):
            seq[t] = (seq[t - 2] + flips[t]) % 2
        _, dof, pvalue = markov_order_test(seq, 2)
        assert dof > 0
        assert pvalue < 1e-6

    def test_degenerate_strata_are_skipped(self):
        # Pure alternation: each stratum sees one (prev, next) pair only, so
        # no stratum has a 2x2 table and the test is vacuous.
        seq = np.array([0, 1] * 50)
        statistic, dof, pvalue = markov_order_test(seq, 2)
        assert statistic == 0.0
        assert dof == 0
        assert pvalue == 1.0

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            markov_order_test(np.array([0, 1]), 2)

    def test_state_beyond_num_states_rejected(self):
        # With num_states=2 the triple codes of states 2 and 3 would land in
        # other strata and give (3.75, 2, 0.153) instead of 4 states' (3.33,
        # 2, 0.189).
        runs = np.array([[0, 1, 0, 1, 2, 1, 0, 3, 3, 2, 1, 0]])
        assert markov_order_test(runs, 4)[1] == 2
        with pytest.raises(ValueError, match=r"state indices must lie in \[0, 2\)"):
            markov_order_test(runs, 2)

    @staticmethod
    def _dense_reference(trajectories, num_states):
        """The test with a counter for every one of the num_states**3
        triples, each stratum's table cut to its occupied rows and columns."""
        from scipy.stats import chi2, chi2_contingency

        codes = (trajectories[:, :-2] * num_states + trajectories[:, 1:-1]) * num_states + trajectories[:, 2:]
        triples = np.bincount(codes.ravel(), minlength=num_states**3).reshape((num_states,) * 3)
        statistic, dof = 0.0, 0
        for j in range(num_states):
            table = triples[:, j, :]
            table = table[np.ix_(table.sum(axis=1) > 0, table.sum(axis=0) > 0)]
            if min(table.shape) >= 2:
                result = chi2_contingency(table, correction=False)
                statistic += float(result.statistic)
                dof += int(result.dof)
        return statistic, dof, float(chi2.sf(statistic, dof)) if dof else 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_dense_counters(self, seed):
        # Random trajectories over few states, some of which never occur,
        # so that strata, rows and columns are skipped in every pattern.
        rng = np.random.default_rng(seed)
        num_states = int(rng.integers(2, 9))
        occurring = rng.choice(num_states, size=int(rng.integers(1, num_states + 1)), replace=False)
        trajectories = rng.choice(occurring, size=(int(rng.integers(1, 5)), int(rng.integers(3, 80))))
        statistic, dof, pvalue = markov_order_test(trajectories, num_states)
        ref_statistic, ref_dof, ref_pvalue = self._dense_reference(trajectories, num_states)
        # The closed form sums in another order than the dense tables do.
        assert dof == ref_dof
        assert statistic == pytest.approx(ref_statistic, rel=1e-12)
        assert pvalue == pytest.approx(ref_pvalue, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_triple_codes_do_not_wrap(self, dtype):
        # Triple codes (mid * 2000 + prev) * 2000 + next of states 1100 to
        # 1499 of 2,000 reach 6e9, past int32's range.
        runs = np.random.default_rng(13).integers(1100, 1500, size=(4, 500))
        assert markov_order_test(runs.astype(dtype), 2000) == markov_order_test(runs, 2000)

    def test_independent_stratum_reads_zero(self):
        # Stratum 0 holds the table [[2, 1], [2, 1]], whose closed form
        # rounds below zero (to about -7e-16); the chi-square tail at a
        # negative statistic is NaN, so the statistic is clamped at zero.
        trajectories = np.array([[1, 0, 1]] * 2 + [[1, 0, 2]] + [[2, 0, 1]] * 2 + [[2, 0, 2]])
        assert markov_order_test(trajectories, 3) == (0.0, 1, 1.0)

    def test_loads_no_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from slice_markov import markov_order_test\n"
            "markov_order_test(np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]), 2)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_memory_grows_with_the_trajectories_not_the_region(self):
        # 200 states would take a 64 MB array of 200**3 counters; the
        # triples of 40 x 50 periods take a small fraction of a MB.
        region = enumerate_region(ResourceModel(resource_pool=(199.0,), cost_matrix=((1.0,),)))
        assert len(region) == 200
        scenario = DemandScenario(creation_rates=(100.0,), mean_lifetimes=(1.0,))
        sim = SimConfig(num_runs=40, periods_per_run=50, seed=5)
        runs = simulate_episodes(scenario, always_accept_strategy(region), sim)
        markov_order_test(runs[:1], len(region))  # loads scipy.special
        tracemalloc.start()
        try:
            _, dof, _ = markov_order_test(runs, len(region))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dof > 0
        assert peak < 4 * 2**20


class TestEmpiricalMatrixContainer:
    def test_zero_visit_rows_empty_when_all_seen(self, region):
        est = estimate_empirical_matrix(
            region, np.array([[0, 1, 2, 3, 2], [3, 2, 1, 0, 1]])
        )
        assert est.zero_visit_rows == ()

    def test_container_round_trip(self, region):
        est = estimate_empirical_matrix(region, np.array([0, 1, 0]))
        assert isinstance(est, EmpiricalMatrix)
        assert est.region is region
