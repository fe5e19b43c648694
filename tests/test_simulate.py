"""Tests for the Monte-Carlo simulator and empirical estimation."""

from __future__ import annotations

from operator import itemgetter

import numpy as np
import pytest

from slice_markov import (
    DemandScenario,
    EmpiricalMatrix,
    InvalidStrategyError,
    ResourceModel,
    SimConfig,
    always_accept_strategy,
    apply_request,
    build_transition_matrix,
    enumerate_region,
    enumerate_valid_strategies,
    estimate_empirical_matrix,
    markov_order_test,
    rmse,
    run_episode,
    run_rng,
    simulate_episodes,
    strategy_from_table,
)
from slice_markov.simulate import _creation_draws, _pcg64_states


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


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


class TestRunEpisode:
    def test_decline_all_from_empty_stays_empty(self, region, scenario_c, decline_all):
        trajectory = run_episode(
            region, scenario_c, decline_all, 50, run_rng(7, 0), initial_state=(0,)
        )
        np.testing.assert_array_equal(trajectory, np.zeros(51, dtype=np.int64))

    def test_trajectory_length_and_start(self, region, scenario_c, accept_all):
        trajectory = run_episode(
            region, scenario_c, accept_all, 30, run_rng(8, 0), initial_state=(2,)
        )
        assert trajectory.shape == (31,)
        assert trajectory[0] == region.index((2,))

    def test_indices_stay_in_region(self, region, scenario_a, accept_all):
        trajectory = run_episode(region, scenario_a, accept_all, 500, run_rng(9, 0))
        assert trajectory.min() >= 0
        assert trajectory.max() < len(region)

    def test_initial_state_outside_region_rejected(self, region, scenario_c, accept_all):
        with pytest.raises(ValueError):
            run_episode(
                region, scenario_c, accept_all, 5, run_rng(10, 0), initial_state=(9,)
            )

    def test_reproducible_via_seed(self, region, scenario_b, accept_all):
        a = run_episode(region, scenario_b, accept_all, 100, run_rng(11, 4))
        b = run_episode(region, scenario_b, accept_all, 100, run_rng(11, 4))
        np.testing.assert_array_equal(a, b)

    def test_all_states_reached_under_accept_all(self, region, scenario_a, accept_all):
        trajectory = run_episode(
            region, scenario_a, accept_all, 2000, run_rng(12, 0), initial_state=(0,)
        )
        assert set(np.unique(trajectory)) == {0, 1, 2, 3}

    def test_uniform_start_is_the_first_draw(self, region, scenario_c, accept_all):
        for run in range(20):
            trajectory = run_episode(region, scenario_c, accept_all, 5, run_rng(25, run))
            assert trajectory[0] == run_rng(25, run).integers(len(region))

    def test_creation_counts_come_from_one_bulk_poisson_draw(self):
        # From an empty start there are no initial lifetimes, so the first
        # draw is the (periods, types) Poisson block. Lifetimes of 1e12
        # periods never end, so always-accept fills up to 12 slices.
        roomy = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.08,),))
        roomy_region = enumerate_region(roomy)
        scenario = DemandScenario(creation_rates=(0.9,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(roomy, roomy_region)
        trajectory = run_episode(
            roomy_region, scenario, strategy, 40, run_rng(26, 0), initial_state=(0,)
        )
        counts = run_rng(26, 0).poisson(0.9, (40, 1))[:, 0]
        expected = np.minimum(np.concatenate(([0], np.cumsum(counts))), 12)
        np.testing.assert_array_equal(trajectory, expected)

    def test_counts_from_rate_ten_up_come_from_numpy_poisson(self):
        # From rate 10 numpy's Poisson sampler is PTRS, which the simulator
        # leaves to numpy. Lifetimes of 1e12 periods never end, so
        # always-accept follows the cumulative counts up to 333 slices.
        roomy = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.003,),))
        roomy_region = enumerate_region(roomy)
        cap = roomy_region.states[-1][0]
        scenario = DemandScenario(creation_rates=(12.0,), mean_lifetimes=(1e12,))
        strategy = always_accept_strategy(roomy, roomy_region)
        trajectory = run_episode(
            roomy_region, scenario, strategy, 40, run_rng(28, 0), initial_state=(0,)
        )
        counts = run_rng(28, 0).poisson(12.0, (40, 1))[:, 0]
        expected = np.minimum(np.concatenate(([0], np.cumsum(counts))), cap)
        assert cap == 333 and expected[-1] == cap and expected[10] < cap
        np.testing.assert_array_equal(trajectory, expected)

    def test_table_hole_aborts(self, model, region, scenario_a):
        # A valid strategy's table has a -1 only where a release has no
        # slice to release. Corrupt the compiled table of a fresh strategy
        # so that a creation in s=[3] has no successor: run_episode trusts
        # its table and stops at the -1 it meets.
        strategy = always_accept_strategy(model, region)
        table = list(strategy.next_index)
        table[3] = (-1, 2)
        strategy.__dict__["next_index"] = tuple(table)
        with pytest.raises(RuntimeError, match="corrupted"):
            run_episode(region, scenario_a, strategy, 200, run_rng(27, 0), initial_state=(3,))


class TestCreationDraws:
    """``_creation_draws`` replays numpy's Poisson sampler on the uniform
    stream; it must give the counts of ``poisson(rates, (periods, N))``, the
    stamps of the ``random(total)`` after it, and leave the generator where
    those two calls leave it."""

    SEEDS = (0, 1, 42, 2**64 - 1)
    HORIZONS = (1, 7, 100)

    @pytest.mark.parametrize(
        "rates", [(1e-9,), (0.3,), (0.6, 0.4, 0.3), (9.99,), (10.0,), (12.0,), (11.0, 0.4)]
    )
    @pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937", "Philox", "SFC64"])
    def test_replays_poisson_then_random(self, rates, bit_generator):
        make = getattr(np.random, bit_generator)
        num_types = len(rates)
        for seed in self.SEEDS:
            for periods in self.HORIZONS:
                reference = np.random.Generator(make(seed))
                counts = reference.poisson(rates, (periods, num_types))
                total = int(counts.sum())
                stamps = reference.random(total)
                rng = np.random.Generator(make(seed))
                kinds, ends = [], []
                for row in counts.tolist():
                    for n, count in enumerate(row):
                        kinds += [n] * count
                    ends.append(len(kinds))
                assert _creation_draws(rng, rates, periods) == (kinds, ends, stamps.tolist())
                np.testing.assert_array_equal(
                    rng.standard_exponential(total + 3),
                    reference.standard_exponential(total + 3),
                )


class TestSimulateEpisodes:
    def test_shape(self, model, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=20, periods_per_run=10, seed=13)
        runs = simulate_episodes(model, region, scenario_c, accept_all, sim)
        assert runs.shape == (20, 11)

    def test_runs_use_independent_substreams(self, model, region, scenario_c, accept_all):
        # Run r depends only on (seed, r): shrinking the run count must not
        # change the runs that remain.
        big = simulate_episodes(
            model, region, scenario_c, accept_all,
            SimConfig(num_runs=6, periods_per_run=20, seed=14),
        )
        small = simulate_episodes(
            model, region, scenario_c, accept_all,
            SimConfig(num_runs=3, periods_per_run=20, seed=14),
        )
        np.testing.assert_array_equal(big[:3], small)

    def test_parallel_matches_serial(self, model, region, scenario_b, accept_all):
        sim = SimConfig(num_runs=12, periods_per_run=25, seed=15)
        serial = simulate_episodes(model, region, scenario_b, accept_all, sim)
        parallel = simulate_episodes(
            model, region, scenario_b, accept_all, sim, workers=3
        )
        np.testing.assert_array_equal(serial, parallel)

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
            run_episode(region, scenario, strategy, sim.periods_per_run, run_rng(sim.seed, r), start)
            for r in range(sim.num_runs)
        ])
        runs = simulate_episodes(model, region, scenario, strategy, sim, workers=workers)
        np.testing.assert_array_equal(runs, expected)

    def test_uniform_initialization_covers_region(self, model, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=400, periods_per_run=1, seed=16)
        runs = simulate_episodes(model, region, scenario_c, accept_all, sim)
        starts = np.bincount(runs[:, 0], minlength=4)
        assert np.all(starts > 0)
        # Uniform draw: each state expects 100 +- 3 sigma ~ 26 starts.
        assert np.all(np.abs(starts - 100) < 50)

    def test_fixed_initialization(self, model, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=10, periods_per_run=1, seed=17, initial_state=(3,))
        runs = simulate_episodes(model, region, scenario_c, accept_all, sim)
        assert np.all(runs[:, 0] == region.index((3,)))

    def test_invalid_strategy_rejected(self, model, region, scenario_c):
        other = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=((0.5,),)))
        foreign = strategy_from_table(other, ((False,),) * len(other))
        sim = SimConfig(num_runs=1, periods_per_run=1, seed=18)
        with pytest.raises(InvalidStrategyError, match="different region"):
            simulate_episodes(model, region, scenario_c, foreign, sim)


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
            region, simulate_episodes(model, region, scenario_c, decline_all, sim)
        )
        assert est.zero_visit_rows == ()
        assert _max_z_against_exact(exact.probs, est, range(len(region))) <= 4.0

    def test_empty_row_under_accept_all(self, model, region, scenario_c, accept_all):
        # Poisson(0.5) creation counts, capped at 3 by the region.
        exact = build_transition_matrix(model, region, scenario_c, accept_all, q_plus_max=8)
        sim = SimConfig(num_runs=20_000, periods_per_run=1, seed=29, initial_state=(0,))
        est = estimate_empirical_matrix(
            region, simulate_episodes(model, region, scenario_c, accept_all, sim)
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
    trajectory = [region.index(state)]
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
        trajectory.append(region.index(state))
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
            region, simulate_episodes(self.MODEL, region, self.SCENARIO, strategy, sim)
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
        self._compare(always_accept_strategy(self.MODEL, region))

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

    def test_counts_total_equals_observed_transitions(self, model, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=50, periods_per_run=40, seed=19)
        runs = simulate_episodes(model, region, scenario_c, accept_all, sim)
        est = estimate_empirical_matrix(region, runs)
        assert est.counts.sum() == 50 * 40

    def test_visited_rows_normalize(self, model, region, scenario_a, accept_all):
        sim = SimConfig(num_runs=30, periods_per_run=30, seed=20)
        runs = simulate_episodes(model, region, scenario_a, accept_all, sim)
        est = estimate_empirical_matrix(region, runs)
        for i in range(4):
            if est.visits[i]:
                assert est.probs[i].sum() == pytest.approx(1.0, abs=1e-12)
            else:
                assert est.probs[i].sum() == 0.0

    def test_full_coverage_under_reference_protocol(self, model, region, scenario_c, accept_all):
        # 1000 uniformly initialized runs of 100 periods visit every row.
        sim = SimConfig(num_runs=1000, periods_per_run=100, seed=42)
        runs = simulate_episodes(model, region, scenario_c, accept_all, sim)
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
            sims = simulate_episodes(model, region, scenario_c, accept_all, sim)
            errors.append(rmse(matrix.probs, estimate_empirical_matrix(region, sims)))
        assert errors[1] < errors[0]


# ---------------------------------------------------------------------------
# Markov-order diagnostics
# ---------------------------------------------------------------------------


class TestMarkovOrderTest:
    def test_simulated_chain_not_rejected(self, model, region, scenario_c, accept_all):
        sim = SimConfig(num_runs=50, periods_per_run=200, seed=22)
        runs = simulate_episodes(model, region, scenario_c, accept_all, sim)
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
