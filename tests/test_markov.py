"""Tests for transition-matrix construction and chain analysis."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from slice_markov import (
    AdmissibilityRegion,
    ConfigError,
    DemandScenario,
    GuardExceededError,
    InvalidStrategyError,
    ReducibleChainError,
    ResourceModel,
    TransitionMatrix,
    always_accept_strategy,
    brute_force_transition_matrix,
    build_transition_matrix,
    decline_all_strategy,
    distribution_after,
    enumerate_region,
    enumerate_valid_strategies,
    occupancy_mean,
    stationary_distribution,
    strategy_from_table,
    truncation_tail_bound,
)
from slice_markov.markov import _closed_classes

RELEASE_P_MU4 = 0.22119921692859512  # 1 - exp(-1/4)
BINOM_2_1_MU4 = 0.3445402467175429  # C(2,1) p (1-p)
TAIL_05_Q4 = 0.00017211562995584078  # Poisson(0.5) mass above 4


@pytest.fixture(scope="module")
def two_type_model() -> ResourceModel:
    """One resource of capacity 1.0 shared by slices costing 0.3 and 0.5."""
    return ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3, 0.5),))


@pytest.fixture(scope="module")
def two_type_region(two_type_model):
    return enumerate_region(two_type_model)


# ---------------------------------------------------------------------------
# Construction basics
# ---------------------------------------------------------------------------


class TestBuildTransitionMatrix:
    def test_empty_to_empty_raw_entry_is_exact(self, model, region, scenario_c, accept_all):
        # From the empty state no releases can occur and every accepted
        # creation moves the state up, so only the empty bag keeps it fixed.
        raw = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4, renormalize=False
        )
        assert raw.probs[0, 0] == math.exp(-0.5)

    def test_renormalized_rows_sum_to_one(
        self, model, region, scenarios, strategies
    ):
        for scenario in scenarios.values():
            for strat in strategies:
                matrix = build_transition_matrix(
                    model, region, scenario, strat, q_plus_max=3
                )
                sums = matrix.probs.sum(axis=1)
                assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_raw_rows_never_exceed_one(self, model, region, scenario_a, accept_all):
        raw = build_transition_matrix(
            model, region, scenario_a, accept_all, q_plus_max=2, renormalize=False
        )
        assert np.all(raw.probs.sum(axis=1) <= 1.0 + 1e-12)

    def test_decline_all_rows_are_release_binomials(
        self, model, region, scenario_c, decline_all
    ):
        # With every creation declined the next state depends only on how
        # many of the active slices release; renormalization divides out the
        # truncated creation mass exactly.
        matrix = build_transition_matrix(
            model, region, scenario_c, decline_all, q_plus_max=4
        )
        p = RELEASE_P_MU4
        row = matrix.probs[region.index((2,))]
        assert row[region.index((0,))] == pytest.approx(p * p, rel=1e-10)
        assert row[region.index((1,))] == pytest.approx(BINOM_2_1_MU4, rel=1e-10)
        assert row[region.index((2,))] == pytest.approx((1 - p) ** 2, rel=1e-10)
        assert row[region.index((3,))] == 0.0

    def test_decline_all_empty_state_is_absorbing(
        self, model, region, scenario_c, decline_all
    ):
        matrix = build_transition_matrix(
            model, region, scenario_c, decline_all, q_plus_max=4
        )
        expected = np.zeros(len(region))
        expected[0] = 1.0
        np.testing.assert_allclose(matrix.probs[0], expected, atol=1e-15)

    def test_single_state_region(self):
        tiny = ResourceModel(resource_pool=(0.0,), cost_matrix=((0.3,),))
        tiny_region = enumerate_region(tiny)
        strat = decline_all_strategy(tiny, tiny_region)
        scenario = DemandScenario(creation_rates=(0.5,), mean_lifetimes=(4.0,))
        matrix = build_transition_matrix(tiny, tiny_region, scenario, strat, q_plus_max=4)
        np.testing.assert_allclose(matrix.probs, [[1.0]])

    def test_vanishing_demand_approaches_identity(self, model, region):
        quiet = DemandScenario(creation_rates=(1e-12,), mean_lifetimes=(1e9,))
        strat = enumerate_valid_strategies(model, region)[-1]
        matrix = build_transition_matrix(model, region, quiet, strat, q_plus_max=2)
        np.testing.assert_allclose(matrix.probs, np.eye(4), atol=1e-8)

    def test_invalid_strategy_rejected(self, model, region, scenario_c):
        other = enumerate_region(ResourceModel(resource_pool=(1.0,), cost_matrix=((0.5,),)))
        foreign = strategy_from_table(other, ((False,),) * len(other))
        for builder in (build_transition_matrix, brute_force_transition_matrix):
            with pytest.raises(InvalidStrategyError, match="different region"):
                builder(model, region, scenario_c, foreign, 2)

    def test_nonpositive_truncation_rejected(self, model, region, scenario_c, accept_all):
        with pytest.raises(ValueError):
            build_transition_matrix(model, region, scenario_c, accept_all, q_plus_max=0)

    def test_empty_region_rejected(self, model, scenario_c, accept_all):
        for builder in (build_transition_matrix, brute_force_transition_matrix):
            with pytest.raises(ValueError, match="region is empty"):
                builder(model, AdmissibilityRegion(()), scenario_c, accept_all, 2)

    def test_matrices_depend_on_strategy(self, model, region, scenario_c, strategies):
        matrices = [
            build_transition_matrix(model, region, scenario_c, s, q_plus_max=2).probs
            for s in strategies
        ]
        for i in range(len(matrices)):
            for j in range(i + 1, len(matrices)):
                assert np.max(np.abs(matrices[i] - matrices[j])) > 1e-6

    def test_shared_memo_changes_no_bits(self, two_type_model, two_type_region):
        # The ordering memo is shared by every build with an equal strategy.
        # A memo warmed by another scenario at several depths must give the
        # same bits as a fresh one.
        scenario_a = DemandScenario(creation_rates=(1.0, 0.8), mean_lifetimes=(4.0, 4.0))
        scenario_c = DemandScenario(creation_rates=(0.6, 0.4), mean_lifetimes=(4.0, 2.0))
        fresh = always_accept_strategy(two_type_model, two_type_region)
        cold = build_transition_matrix(two_type_model, two_type_region, scenario_c, fresh, 3)
        del fresh
        gc.collect()
        warm = always_accept_strategy(two_type_model, two_type_region)
        for q in (1, 2, 3, 4):
            build_transition_matrix(two_type_model, two_type_region, scenario_a, warm, q)
        shared = build_transition_matrix(two_type_model, two_type_region, scenario_c, warm, 3)
        np.testing.assert_array_equal(cold.probs, shared.probs)
        np.testing.assert_array_equal(cold.row_deficits, shared.row_deficits)


# ---------------------------------------------------------------------------
# Truncation accounting
# ---------------------------------------------------------------------------


class TestTruncation:
    def test_deficits_match_poisson_tail(self, model, region, scenario_c, accept_all):
        raw = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4, renormalize=False
        )
        np.testing.assert_allclose(raw.row_deficits, TAIL_05_Q4, rtol=1e-9)

    def test_deficit_identical_across_rows_and_strategies(
        self, model, region, scenario_b, strategies
    ):
        # Ordering weights and release masses both sum to one, so the raw
        # row sum is exactly the kept creation mass: row- and
        # strategy-independent.
        reference = None
        for strat in strategies:
            raw = build_transition_matrix(
                model, region, scenario_b, strat, q_plus_max=3, renormalize=False
            )
            spread = np.max(raw.row_deficits) - np.min(raw.row_deficits)
            assert spread <= 1e-12
            if reference is None:
                reference = raw.row_deficits[0]
            assert raw.row_deficits[0] == pytest.approx(reference, abs=1e-14)

    def test_deficit_bounded_by_tail_bound(self, model, region, scenarios, accept_all):
        for scenario in scenarios.values():
            for q in (1, 2, 3, 4):
                raw = build_transition_matrix(
                    model, region, scenario, accept_all, q_plus_max=q, renormalize=False
                )
                bound = truncation_tail_bound(scenario, q)
                assert np.all(raw.row_deficits <= bound + 1e-12)
                assert np.all(raw.row_deficits >= -1e-12)

    def test_kept_mass_increases_with_truncation_depth(
        self, model, region, scenario_a, accept_all
    ):
        sums = []
        for q in (1, 2, 3, 4, 5):
            raw = build_transition_matrix(
                model, region, scenario_a, accept_all, q_plus_max=q, renormalize=False
            )
            sums.append(raw.probs.sum(axis=1)[0])
        assert all(a < b for a, b in zip(sums, sums[1:]))

    def test_zero_kept_mass_is_not_renormalized(self, model, region, accept_all):
        # exp(-800) underflows, so no bag below the cap keeps any mass and
        # every raw row is zero; scaling one to sum to 1 would divide 0 by 0.
        # At q=1, rates 744 and 745 keep a subnormal mass, whose few digits
        # would scale s=[0]->s=[0] to 0.00173 and 0.00234 instead of 1/745
        # and 1/746.
        for rate, q in ((800.0, 2), (744.0, 1), (745.0, 1)):
            flood = DemandScenario(creation_rates=(rate,), mean_lifetimes=(4.0,))
            for builder in (build_transition_matrix, brute_force_transition_matrix):
                with pytest.raises(ConfigError, match=rf"row s=\[0\] .*q_plus_max={q}"):
                    builder(model, region, flood, accept_all, q)
                raw = builder(model, region, flood, accept_all, q, renormalize=False)
                assert np.all(raw.probs.sum(axis=1) < np.finfo(float).tiny)
                if rate == 800.0:
                    assert not raw.probs.any()
                    np.testing.assert_array_equal(raw.row_deficits, np.ones(len(region)))

    def test_smallest_normal_kept_mass_is_renormalized(self, model, region, accept_all):
        # At rate 712 the kept mass at q=1 is normal, and the renormalized
        # s=[0]->s=[0] entry is the truncated chain's exact 1/713.
        scenario = DemandScenario(creation_rates=(712.0,), mean_lifetimes=(4.0,))
        for builder in (build_transition_matrix, brute_force_transition_matrix):
            matrix = builder(model, region, scenario, accept_all, 1)
            assert matrix.probs[0, 0] == pytest.approx(1 / 713, rel=1e-9)

    def test_tail_bound_decreases_with_depth(self, scenario_a):
        bounds = [truncation_tail_bound(scenario_a, q) for q in range(1, 7)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx(0.26424111765711533, rel=1e-10)

    def test_renormalized_matrix_keeps_deficit_record(
        self, model, region, scenario_c, accept_all
    ):
        norm = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4, renormalize=True
        )
        raw = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4, renormalize=False
        )
        np.testing.assert_allclose(norm.row_deficits, raw.row_deficits, atol=1e-15)
        assert norm.renormalized is True
        assert raw.renormalized is False


# ---------------------------------------------------------------------------
# Agreement with the explicit-ordering reference builder
# ---------------------------------------------------------------------------


class TestBruteForceAgreement:
    def test_all_strategies_small_depths(self, model, region, scenario_c, strategies):
        for q in (1, 2, 3):
            for strat in strategies:
                fast = build_transition_matrix(
                    model, region, scenario_c, strat, q_plus_max=q, renormalize=False
                )
                slow = brute_force_transition_matrix(
                    model, region, scenario_c, strat, q_plus_max=q, renormalize=False
                )
                assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-12

    def test_renormalized_agreement(self, model, region, scenario_a, accept_all):
        fast = build_transition_matrix(
            model, region, scenario_a, accept_all, q_plus_max=2
        )
        slow = brute_force_transition_matrix(
            model, region, scenario_a, accept_all, q_plus_max=2
        )
        assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-12

    def test_two_type_model_with_unequal_lifetimes(self, two_type_model, two_type_region):
        scenario = DemandScenario(creation_rates=(0.6, 0.4), mean_lifetimes=(4.0, 2.0))
        valid = enumerate_valid_strategies(two_type_model, two_type_region)
        assert len(two_type_region) == 7
        assert len(valid) == 128
        picked = [
            always_accept_strategy(two_type_model, two_type_region),
            decline_all_strategy(two_type_model, two_type_region),
            *(valid[i] for i in (1, 42, 101)),
        ]
        for q in (1, 2):
            for strat in picked:
                fast = build_transition_matrix(
                    two_type_model, two_type_region, scenario, strat, q, renormalize=False
                )
                slow = brute_force_transition_matrix(
                    two_type_model, two_type_region, scenario, strat, q, renormalize=False
                )
                assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-12

    def test_queue_length_guard(self, model, region, scenario_c, accept_all):
        with pytest.raises(GuardExceededError):
            brute_force_transition_matrix(
                model, region, scenario_c, accept_all, q_plus_max=9
            )

    def test_guard_is_configurable(self, model, region, scenario_c, accept_all):
        with pytest.raises(GuardExceededError):
            brute_force_transition_matrix(
                model, region, scenario_c, accept_all, q_plus_max=3, max_queue_length=4
            )


# ---------------------------------------------------------------------------
# Matrix container validation
# ---------------------------------------------------------------------------


class TestTransitionMatrixContainer:
    def test_entries_are_read_only(self, model, region, scenario_c, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=2
        )
        with pytest.raises(ValueError):
            matrix.probs[0, 0] = 0.5
        with pytest.raises(ValueError):
            matrix.row_deficits[0] = 0.5

    def test_negative_entry_rejected(self, region):
        probs = np.full((4, 4), 0.25)
        probs[0, 0] = -0.1
        probs[0, 1] = 0.6
        with pytest.raises(ValueError):
            TransitionMatrix(
                probs=probs,
                region=region,
                renormalized=True,
                row_deficits=np.zeros(4),
            )

    def test_row_sum_violation_rejected(self, region):
        probs = np.full((4, 4), 0.3)
        with pytest.raises(ValueError):
            TransitionMatrix(
                probs=probs,
                region=region,
                renormalized=True,
                row_deficits=np.zeros(4),
            )

    @pytest.mark.parametrize("probs, renormalized, deficits, match", [
        (np.eye(4), True, np.zeros(3), "one entry per region state"),
        (np.eye(4), True, np.array([0.0, -0.1, 0.0, 0.0]), "nonnegative"),
        (np.full((4, 4), 0.3), False, np.zeros(4), "at most 1"),
        (np.full((4, 4), np.nan), True, np.zeros(4), "finite"),
        (np.full((4, 4), np.nan), False, np.ones(4), "finite"),
        (np.eye(4), True, np.array([0.0, np.inf, 0.0, 0.0]), "finite"),
    ], ids=["deficit-shape", "negative-deficit", "raw-row-sum", "nan-entries", "raw-nan-entries",
            "infinite-deficit"])
    def test_malformed_container_rejected(self, region, probs, renormalized, deficits, match):
        with pytest.raises(ValueError, match=match):
            TransitionMatrix(
                probs=probs,
                region=region,
                renormalized=renormalized,
                row_deficits=deficits,
            )

    def test_shape_mismatch_rejected(self, region):
        with pytest.raises(ValueError):
            TransitionMatrix(
                probs=np.eye(3),
                region=region,
                renormalized=True,
                row_deficits=np.zeros(3),
            )

    def test_size_property(self, model, region, scenario_c, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=2
        )
        assert matrix.size == 4


# ---------------------------------------------------------------------------
# Distribution evolution
# ---------------------------------------------------------------------------


class TestDistributionAfter:
    def test_zero_periods_is_point_mass(self, model, region, scenario_c, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4
        )
        dist = distribution_after(matrix, 0, 0)
        np.testing.assert_array_equal(dist, [1.0, 0.0, 0.0, 0.0])

    def test_one_period_is_matrix_row(self, model, region, scenario_c, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4
        )
        np.testing.assert_allclose(
            distribution_after(matrix, 0, 1), matrix.probs[0], atol=1e-15
        )

    def test_distribution_stays_normalized(self, model, region, scenario_a, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_a, accept_all, q_plus_max=4
        )
        for t in range(11):
            dist = distribution_after(matrix, 0, t)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist >= 0)

    def test_raw_matrix_rejected(self, model, region, scenario_c, accept_all):
        raw = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4, renormalize=False
        )
        with pytest.raises(ValueError):
            distribution_after(raw, 0, 1)

    def test_invalid_arguments_rejected(self, model, region, scenario_c, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4
        )
        with pytest.raises(ValueError):
            distribution_after(matrix, 0, -1)
        with pytest.raises(ValueError):
            distribution_after(matrix, 7, 1)


# ---------------------------------------------------------------------------
# Stationary analysis
# ---------------------------------------------------------------------------


class TestStationaryDistribution:
    def test_decline_all_concentrates_at_empty(self, model, region, scenario_c, decline_all):
        matrix = build_transition_matrix(
            model, region, scenario_c, decline_all, q_plus_max=4
        )
        pi = stationary_distribution(matrix)
        np.testing.assert_allclose(pi, [1.0, 0.0, 0.0, 0.0], atol=1e-9)

    def test_fixed_point_residual(self, model, region, scenario_a, accept_all):
        matrix = build_transition_matrix(
            model, region, scenario_a, accept_all, q_plus_max=4
        )
        pi = stationary_distribution(matrix)
        assert np.abs(pi @ matrix.probs - pi).sum() <= 1e-9
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi > 0)  # every state recurrent under accept-all

    def test_single_state_chain(self):
        tiny = ResourceModel(resource_pool=(0.0,), cost_matrix=((0.3,),))
        tiny_region = enumerate_region(tiny)
        strat = decline_all_strategy(tiny, tiny_region)
        scenario = DemandScenario(creation_rates=(0.5,), mean_lifetimes=(4.0,))
        matrix = build_transition_matrix(tiny, tiny_region, scenario, strat, q_plus_max=2)
        np.testing.assert_allclose(stationary_distribution(matrix), [1.0])

    def test_two_closed_classes_rejected(self):
        two = ResourceModel(resource_pool=(1.0,), cost_matrix=((1.0,),))
        two_region = enumerate_region(two)
        assert len(two_region) == 2
        frozen = TransitionMatrix(
            probs=np.eye(2),
            region=two_region,
            renormalized=True,
            row_deficits=np.zeros(2),
        )
        with pytest.raises(ReducibleChainError) as excinfo:
            stationary_distribution(frozen)
        assert excinfo.value.classes == [["s=[0]"], ["s=[1]"]]

    def test_transient_state_is_not_closed(self, model, region, scenario_c, decline_all):
        # Decline-all makes [0] absorbing but the chain still has exactly one
        # closed class, so the fixed point is well defined.
        matrix = build_transition_matrix(
            model, region, scenario_c, decline_all, q_plus_max=4
        )
        pi = stationary_distribution(matrix)
        assert pi[region.index((3,))] == pytest.approx(0.0, abs=1e-12)

    def test_slowly_mixing_chain_is_solved(self, model, region, decline_all):
        # Slices of mean lifetime 100000 almost never leave, so an iterative
        # solver crawls towards the one closed class {[0]}; the direct solve
        # lands on it at once.
        sluggish = DemandScenario(creation_rates=(0.5,), mean_lifetimes=(100000.0,))
        matrix = build_transition_matrix(
            model, region, sluggish, decline_all, q_plus_max=4
        )
        np.testing.assert_array_equal(stationary_distribution(matrix), [1.0, 0.0, 0.0, 0.0])

    def test_closed_classes_match_a_graph_search(self):
        # Random sparse chains against a plain depth-first reachability.
        rng = np.random.default_rng(3)
        for size in (1, 2, 5, 9, 14):
            for _ in range(20):
                probs = (rng.random((size, size)) < 1.5 / size) * rng.random((size, size))
                reach = []
                for start in range(size):
                    seen, stack = {start}, [start]
                    while stack:
                        for j in np.flatnonzero(probs[stack.pop()]):
                            if j not in seen:
                                seen.add(int(j))
                                stack.append(int(j))
                    reach.append(seen)
                expected = sorted(
                    sorted(reach[i]) for i in range(size)
                    if all(i in reach[j] for j in reach[i]) and min(reach[i]) == i
                )
                assert [cls.tolist() for cls in _closed_classes(probs)] == expected

    def test_raw_matrix_rejected(self, model, region, scenario_c, accept_all):
        raw = build_transition_matrix(
            model, region, scenario_c, accept_all, q_plus_max=4, renormalize=False
        )
        with pytest.raises(ValueError):
            stationary_distribution(raw)


class TestOccupancyMean:
    def test_point_mass(self, region):
        dist = np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(occupancy_mean(region, dist), [3.0])

    def test_uniform(self, region):
        dist = np.full(4, 0.25)
        np.testing.assert_allclose(occupancy_mean(region, dist), [1.5])

    def test_two_type_region(self):
        wide = ResourceModel(
            resource_pool=(1.0, 1.0), cost_matrix=((0.6, 0.5), (0.5, 0.6))
        )
        wide_region = enumerate_region(wide)  # (0,0), (0,1), (1,0)
        dist = np.array([0.5, 0.25, 0.25])
        np.testing.assert_allclose(occupancy_mean(wide_region, dist), [0.25, 0.25])
