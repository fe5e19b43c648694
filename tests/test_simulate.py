"""Tests for the Monte-Carlo simulator and empirical estimation."""

from __future__ import annotations

import concurrent.futures
import sys
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_markov import (
    DemandScenario,
    EmpiricalMatrix,
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
    _creation_draws,
    _draw_run,
    _episode_batch,
    _fold_block,
    _fold_tables,
    _pcg64_states,
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
    """The batch simulator derives every run's PCG64 state in bulk; each
    must be the state of run_rng(seed, r)."""

    SEEDS = (0, 1, 42, 2**63 + 5, 2**64 - 1)
    # A batch from 0, one starting mid-range as a --workers batch does, one
    # whose spawn keys take two uint32 words, one crossing 2**32, and one
    # longer than a block of 1024 runs, so that one call derives two blocks.
    RANGES = ((0, 5), (1021, 1030), (2**32 + 7, 2**32 + 9), (2**32 - 2, 2**32 + 2), (1000, 2100))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start, stop", RANGES)
    def test_states_reproduce_run_rng(self, seed, start, stop):
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        states = list(_pcg64_states(seed, start, stop))
        assert len(states) == stop - start
        for run, state in zip(range(start, stop), states):
            reference = run_rng(seed, run)
            assert state == reference.bit_generator.state
            bits.state = state
            np.testing.assert_array_equal(rng.random(8), reference.random(8))

    def test_chunk_holds_no_list_per_run(self):
        # One chunk of 1024 runs: its seed words and the hash's arrays, about
        # 100 KB, against about 280 KB with one Python list per run.
        list(_pcg64_states(42, 0, 1024))
        tracemalloc.start()
        try:
            for _ in _pcg64_states(42, 0, 1024):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024


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
            assert trajectory[0] == run_rng(25, run).integers(len(region))

    def test_creation_counts_come_from_one_bulk_poisson_draw(self):
        # From an empty start there are no initial lifetimes, so the first
        # draw is the (periods, types) Poisson block. Lifetimes of 1e12
        # periods never end, so always-accept fills up to 12 slices.
        roomy = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.08,),))
        roomy_region = enumerate_region(roomy)
        scenario = DemandScenario(creation_rates=(0.9,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(roomy_region)
        trajectory = run_episode(scenario, strategy, 40, run_rng(26, 0), initial_state=(0,))
        counts = run_rng(26, 0).poisson(0.9, (40, 1))[:, 0]
        expected = np.minimum(np.concatenate(([0], np.cumsum(counts))), 12)
        np.testing.assert_array_equal(trajectory, expected)

    def test_two_types_draw_their_counts_type_by_type(self):
        # Each type has a resource of its own, so always-accept admits a
        # creation of one type whatever the other holds. From an empty start
        # there are no initial lifetimes, so the first draws are type 1's
        # counts, then type 2's; with lifetimes of 1e12 periods each type
        # follows its capped cumulative counts.
        roomy = ResourceModel(resource_pool=(1.0, 1.0), cost_matrix=((0.08, 0.0), (0.0, 0.125)))
        roomy_region = enumerate_region(roomy)
        caps = roomy_region.states[-1]
        scenario = DemandScenario(creation_rates=(0.9, 0.3), mean_lifetimes=(1e12, 1e12))
        strategy = always_accept_strategy(roomy_region)
        trajectory = run_episode(scenario, strategy, 40, run_rng(29, 0), initial_state=(0, 0))
        reference = run_rng(29, 0)
        expected = np.column_stack([
            np.minimum(np.concatenate(([0], np.cumsum(reference.poisson(rate, (40, 1))[:, 0]))), cap)
            for rate, cap in zip(scenario.creation_rates, caps)
        ])
        assert caps == (12, 8) and tuple(expected[-1]) == caps and np.all(expected[10] < caps)
        np.testing.assert_array_equal(np.array([roomy_region.states[i] for i in trajectory]), expected)

    def test_counts_from_rate_ten_up_come_from_numpy_poisson(self):
        # From rate 10 numpy's Poisson sampler is PTRS, not the
        # multiplication of uniforms it uses below 10. Lifetimes of 1e12
        # periods never end, so always-accept follows the cumulative counts
        # up to 333 slices.
        roomy = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.003,),))
        roomy_region = enumerate_region(roomy)
        cap = roomy_region.states[-1][0]
        scenario = DemandScenario(creation_rates=(12.0,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(roomy_region)
        trajectory = run_episode(scenario, strategy, 40, run_rng(28, 0), initial_state=(0,))
        counts = run_rng(28, 0).poisson(12.0, (40, 1))[:, 0]
        expected = np.minimum(np.concatenate(([0], np.cumsum(counts))), cap)
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


class TestCreationDraws:
    """``_creation_draws`` draws each type's counts with a scalar-rate
    ``poisson(rate, (periods, 1))`` call, type by type, then the stamps with
    ``random(total)``, and must leave the generator where those calls leave
    it. With one type the reference is the array-of-rates call
    ``poisson((rate,), (periods, 1))``: one-type streams must equal those of
    that call. The one-type rates include the bundled baseline.json's 1.0,
    0.8 and 0.5 and both sides of numpy's switch to PTRS at 10; the
    multi-type rates are the N=3 perfbench model's, a pair with one rate
    past that switch and a pair of equal rates. The horizons include
    figure2's 10 and figure3's 100."""

    SEEDS = (0, 1, 42, 2**64 - 1)
    HORIZONS = (1, 7, 10, 100)

    @pytest.mark.parametrize(
        "rates",
        [(1e-9,), (0.3,), (0.5,), (1.0,), (0.8,), (9.99,), (10.0,), (12.0,), (1000.0,),
         (0.6, 0.4, 0.3), (11.0, 0.4), (0.8, 0.8)],
    )
    @pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937", "Philox", "SFC64"])
    def test_replays_poisson_then_random(self, rates, bit_generator):
        make = getattr(np.random, bit_generator)
        num_types = len(rates)
        for seed in self.SEEDS:
            for periods in self.HORIZONS:
                reference = np.random.Generator(make(seed))
                if num_types == 1:
                    counts = reference.poisson(rates, (periods, 1))
                else:
                    counts = np.hstack([reference.poisson(rate, (periods, 1)) for rate in rates])
                total = int(counts.sum())
                stamps = reference.random(total)
                rng = np.random.Generator(make(seed))
                drawn_counts, drawn_stamps = _creation_draws(rng, rates, periods)
                assert drawn_counts.shape == (periods, num_types)
                np.testing.assert_array_equal(drawn_counts, counts)
                np.testing.assert_array_equal(drawn_stamps, stamps)
                np.testing.assert_array_equal(
                    rng.standard_exponential(total + 3),
                    reference.standard_exponential(total + 3),
                )


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

    def test_parallel_matches_serial(self, scenario_b, accept_all):
        sim = SimConfig(num_runs=12, periods_per_run=25, seed=15)
        serial = simulate_episodes(scenario_b, accept_all, sim)
        parallel = simulate_episodes(scenario_b, accept_all, sim, workers=3)
        np.testing.assert_array_equal(serial, parallel)

    def test_pool_is_no_wider_than_the_batches(self, monkeypatch, scenario_c, accept_all):
        # A pool that maps serially in this process and records its width:
        # 8 workers on 3 runs make 3 batches, so 3 processes would start.
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        sim = SimConfig(num_runs=3, periods_per_run=10, seed=16)
        runs = simulate_episodes(scenario_c, accept_all, sim, workers=8)
        assert widths == [3]
        np.testing.assert_array_equal(runs, simulate_episodes(scenario_c, accept_all, sim))

    @pytest.mark.parametrize("two_types", [False, True])
    @pytest.mark.parametrize("fixed_start", [False, True])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_equals_run_episode_on_run_rng(
        self, model, region, scenario_b, accept_all, two_types, fixed_start, workers
    ):
        # Pins the batch path to run_rng without a golden file, which a
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
        runs = simulate_episodes(scenario, strategy, sim, workers=workers)
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


def _reference_fold(scenario, strategy, periods, draws) -> np.ndarray:
    """The per-period fold the block fold replaced, on the draws of one run
    (a ``_draw_run`` tuple): a slice's release is filed under its period when
    the slice becomes active, and each period sorts its creations and
    releases as (offset, column, creation id) tuples, a release's id being
    -1, and applies them one by one."""
    index, initial, counts, stamps, fresh = draws
    region = strategy.region
    num_types = scenario.num_types
    means = scenario.mean_lifetimes
    start_types = [n for n, count in enumerate(region.states[index]) for _ in range(count)]
    kinds = [n for row in counts.tolist() for n, count in enumerate(row) for _ in range(count)]
    ends = np.cumsum(counts.sum(axis=1)).tolist()
    creations = list(zip(stamps.tolist(), kinds, range(len(kinds))))
    fresh = fresh.tolist()
    table = strategy.next_index
    releases = [[] for _ in range(periods)]
    held = [0] * num_types
    for n, life in zip(start_types, initial.tolist()):
        remaining = means[n] * life
        period = int(remaining)
        if period < periods:
            releases[period].append((remaining - period, num_types + n, -1))
        else:
            held[n] += 1
    trajectory = [index]
    start = 0
    for t, end in enumerate(ends):
        events = creations[start:end] + releases[t]
        start = end
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
    periods, a fixed or uniform start, and a split of the runs into blocks."""
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
    return scenario, strategy, periods, start, runs, seed, cuts


def _fold_in_blocks(scenario, strategy, periods, draws, bounds) -> np.ndarray:
    out = np.empty((len(draws), periods + 1), dtype=np.int64)
    tables = _fold_tables(strategy)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop > start:
            _fold_block(scenario, strategy.region, tables, periods, draws[start:stop], out[start:stop])
    return out


class TestBlockFold:
    @given(case=fold_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_fold(self, case):
        scenario, strategy, periods, start, runs, seed, cuts = case
        region = strategy.region
        index = None if start is None else region.index_of[start]
        draws = [_draw_run(scenario, region, periods, run_rng(seed, r), index) for r in range(runs)]
        expected = np.array([_reference_fold(scenario, strategy, periods, d) for d in draws])
        sim = SimConfig(num_runs=runs, periods_per_run=periods, seed=seed, initial_state=start)
        np.testing.assert_array_equal(simulate_episodes(scenario, strategy, sim), expected)
        for bounds in ([0, runs], list(range(runs + 1)), [0, *cuts, runs]):
            np.testing.assert_array_equal(
                _fold_in_blocks(scenario, strategy, periods, draws, bounds), expected
            )
        # The split of --workers 2, each part one batch.
        bounds = np.linspace(0, runs, 3, dtype=int).tolist()
        batches = [
            _episode_batch((scenario, strategy, sim, a, b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]
        np.testing.assert_array_equal(np.vstack(batches), expected)

    @pytest.mark.parametrize("budget", [1, 500, simulate._BLOCK_DRAWS])
    def test_block_budget_does_not_change_runs(self, monkeypatch, scenario_a, accept_all, budget):
        # A budget of one draw folds every run as its own block, the
        # reference here; 500 draws hold a couple of 100-period runs, and
        # the default budget about 137, so 450 runs take at least three
        # blocks. One block of all 450 runs must agree too.
        sim = SimConfig(num_runs=450, periods_per_run=100, seed=33)
        fold = simulate._fold_block
        blocks = []
        monkeypatch.setattr(simulate, "_fold_block", lambda *args: blocks.append(len(args[4])) or fold(*args))

        def runs(draws):
            monkeypatch.setattr(simulate, "_BLOCK_DRAWS", draws)
            blocks.clear()
            return simulate_episodes(scenario_a, accept_all, sim)

        expected = runs(1)
        assert blocks == [1] * 450
        np.testing.assert_array_equal(runs(budget), expected)
        assert len(blocks) >= 3
        np.testing.assert_array_equal(runs(sys.maxsize), expected)
        assert blocks == [450]

    @pytest.mark.parametrize("keys_per_slice", [1, 2, 3, simulate._TIE_SLICE])
    def test_ties_are_found_across_slices(self, monkeypatch, keys_per_slice):
        # The sorted keys are checked a slice at a time; a tie between the
        # last key of one slice and the first of the next must count.
        monkeypatch.setattr(simulate, "_TIE_SLICE", keys_per_slice)
        distinct = np.array([4.5, 0.5, 2.5, 1.5, 3.5, 5.5])
        assert not simulate._has_ties(distinct, np.argsort(distinct))
        for rank in range(1, len(distinct)):
            key = distinct.copy()
            key[key == rank + 0.5] = rank - 0.5
            assert simulate._has_ties(key, np.argsort(key)), rank

    # Hand-made draws whose keys tie, so the fold falls back to the full
    # (group, offset, column, creation id) order. Mean lifetimes of 1 make
    # each unit lifetime a lifetime in periods.
    ONE_TYPE = DemandScenario(creation_rates=(1.0,), mean_lifetimes=(1.0,))
    TWO_TYPES = DemandScenario(creation_rates=(1.0, 1.0), mean_lifetimes=(1.0, 1.0))

    def _tie_case(self, monkeypatch, scenario, strategy, draws, expected):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        periods = len(expected) - 1
        out = _fold_in_blocks(scenario, strategy, periods, [draws], [0, 1])
        assert calls == [1]
        np.testing.assert_array_equal(out[0], _reference_fold(scenario, strategy, periods, draws))
        region = strategy.region
        assert [region.states[i] for i in out[0]] == expected

    def test_creation_before_release_at_equal_offset(self, monkeypatch, region):
        # Full at s=[3]: a slice releases at offset 0.5 of period 0, where a
        # creation arrives. The creation comes first and is declined.
        draws = (region.index_of[(3,)], np.array([0.5, 5.0, 5.0]), np.array([[1], [0]]),
                 np.array([0.5]), np.array([0.25]))
        self._tie_case(monkeypatch, self.ONE_TYPE, always_accept_strategy(region), draws,
                       [(3,), (2,), (2,)])

    def test_equal_stamps_keep_draw_order(self, monkeypatch, region):
        # Room for one more slice and two creations at one stamp: the first
        # drawn is accepted, so its lifetime of 0.5 ends in period 1.
        draws = (region.index_of[(2,)], np.array([100.0, 100.0]), np.array([[2], [0]]),
                 np.array([0.5, 0.5]), np.array([0.5, 1e6]))
        self._tie_case(monkeypatch, self.ONE_TYPE, always_accept_strategy(region), draws,
                       [(2,), (3,), (2,)])

    def test_releases_of_two_types_at_equal_offset(self, monkeypatch):
        # From s=[1,1] both slices release at offset 0.5, where a type-2
        # creation arrives: it comes first and is declined, then the
        # releases go in type order.
        two = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3, 0.5),)))
        draws = (two.index_of[(1, 1)], np.array([0.5, 0.5]), np.array([[0, 1], [0, 0]]),
                 np.array([0.5]), np.array([0.25]))
        self._tie_case(monkeypatch, self.TWO_TYPES, always_accept_strategy(two), draws,
                       [(1, 1), (0, 0), (0, 0)])

    def test_working_set_is_bounded(self):
        # The fold's sort keys, step grid and states are held for one block
        # at a time. Measured peaks on the bundled baseline's scenario A at
        # 1000 runs x 100 periods: about 2.4 times the trajectory array's
        # bytes with blocks of 5 * 2**13 draws (2.2 with the 2**14 draws and
        # fuller working set of earlier folds), against about 17 times when
        # all 1000 runs are one block.
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
        assert markov_order_test(trajectories, num_states) == self._dense_reference(trajectories, num_states)

    def test_memory_grows_with_the_trajectories_not_the_region(self):
        # 200 states would take a 64 MB array of 200**3 counters; the
        # triples of 40 x 50 periods take a small fraction of a MB.
        region = enumerate_region(ResourceModel(resource_pool=(199.0,), cost_matrix=((1.0,),)))
        assert len(region) == 200
        scenario = DemandScenario(creation_rates=(100.0,), mean_lifetimes=(1.0,))
        sim = SimConfig(num_runs=40, periods_per_run=50, seed=5)
        runs = simulate_episodes(scenario, always_accept_strategy(region), sim)
        markov_order_test(runs[:1], len(region))  # loads scipy.stats
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
