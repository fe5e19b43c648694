"""Tests for transition-matrix construction and chain analysis."""

from __future__ import annotations

import gc
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_markov import (
    AdmissibilityRegion,
    ConfigError,
    DemandScenario,
    GuardExceededError,
    InvalidStrategyError,
    ReducibleChainError,
    ResourceModel,
    Strategy,
    TransitionMatrix,
    always_accept_strategy,
    brute_force_transition_matrix,
    build_transition_matrix,
    decline_all_strategy,
    enumerate_region,
    enumerate_valid_strategies,
    occupancy_mean,
    release_pmf,
    stationary_distribution,
    strategy_from_table,
    truncation_tail_bound,
)
from slice_markov import markov
from slice_markov.markov import _check_build_arguments, _closed_classes, _release_pmf_table

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
        row = matrix.probs[region.index_of[(2,)]]
        assert row[region.index_of[(0,)]] == pytest.approx(p * p, rel=1e-10)
        assert row[region.index_of[(1,)]] == pytest.approx(BINOM_2_1_MU4, rel=1e-10)
        assert row[region.index_of[(2,)]] == pytest.approx((1 - p) ** 2, rel=1e-10)
        assert row[region.index_of[(3,)]] == 0.0

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
        strat = decline_all_strategy(tiny_region)
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

    def test_shared_table_changes_no_bits(self, two_type_model, two_type_region):
        # The ordering table is shared by every build with an equal strategy
        # and kept at the deepest depth built. A table built for another
        # scenario at q=4 must give a q=3 build the same bits as a fresh one.
        scenario_a = DemandScenario(creation_rates=(1.0, 0.8), mean_lifetimes=(4.0, 4.0))
        scenario_c = DemandScenario(creation_rates=(0.6, 0.4), mean_lifetimes=(4.0, 2.0))
        fresh = always_accept_strategy(two_type_region)
        cold = build_transition_matrix(two_type_model, two_type_region, scenario_c, fresh, 3)
        del fresh
        gc.collect()
        warm = always_accept_strategy(two_type_region)
        assert warm not in markov._ORDERING_TABLES
        for q in (1, 2, 3, 4):
            build_transition_matrix(two_type_model, two_type_region, scenario_a, warm, q)
        shared = build_transition_matrix(two_type_model, two_type_region, scenario_c, warm, 3)
        assert markov._ORDERING_TABLES[warm][0] == 4
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
            always_accept_strategy(two_type_region),
            decline_all_strategy(two_type_region),
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


class TestReleasePmfTable:
    """The matrix builder reads every release mass from one table per type;
    each entry must have the bits of ``release_pmf``'s."""

    @staticmethod
    def _assert_bitwise_equal(mu, max_active):
        table = _release_pmf_table(mu, max_active)
        assert [len(pmf) for pmf in table] == list(range(1, max_active + 2))
        direct = np.array([release_pmf(mu, a, k) for a in range(max_active + 1) for k in range(a + 1)])
        np.testing.assert_array_equal(np.concatenate(table).view(np.uint64), direct.view(np.uint64))

    # 1e-310 makes log_survive -inf (and releases every slice), 2.2e-308
    # overflows it to -inf for two or more survivors, 1e-3 rounds the
    # release probability to 1, and 1e300 makes it about 1e-300.
    @pytest.mark.parametrize("mu", [1e-310, 2.2250738585072014e-308, 1e-3, 0.5, 4.0, 1e300])
    def test_equals_release_pmf_up_to_700(self, mu):
        assert -math.expm1(-1.0 / 1e-3) == 1.0
        self._assert_bitwise_equal(mu, 700)

    @given(
        mu=st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False, allow_infinity=False),
        max_active=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_release_pmf(self, mu, max_active):
        self._assert_bitwise_equal(mu, max_active)


@st.composite
def small_builds(draw):
    """A random model of at most two types whose region and bags stay small
    enough for the brute-force builder: at most four slices in any state,
    at most six requests in any bag, a random scenario and strategy, and a
    depth with a deeper one above it."""
    num_types = draw(st.integers(min_value=1, max_value=2))
    num_resources = draw(st.integers(min_value=1, max_value=2))
    pool = tuple(draw(st.floats(min_value=0.0, max_value=2.0)) for _ in range(num_resources))
    costs = tuple(
        tuple(draw(st.floats(min_value=0.45, max_value=1.5)) for _ in range(num_types))
        for _ in range(num_resources)
    )
    model = ResourceModel(resource_pool=pool, cost_matrix=costs)
    region = enumerate_region(model)
    most_active = max(sum(state) for state in region.states)
    q = draw(st.integers(min_value=1, max_value=max(1, min(2, (6 - most_active) // num_types))))
    scenario = DemandScenario(
        creation_rates=[draw(st.floats(min_value=0.1, max_value=2.0)) for _ in range(num_types)],
        mean_lifetimes=[draw(st.floats(min_value=0.5, max_value=10.0)) for _ in range(num_types)],
    )
    mask = region.creation_mask
    strategy = Strategy(region, draw(st.integers(min_value=0, max_value=mask)) & mask)
    return model, region, scenario, strategy, q


@given(build=small_builds(), q=st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_truncation_trend_on_random_models(build, q):
    # A seed-free form of AC-3's trend: one more creation level only adds
    # bags, so no raw entry falls, each row gains exactly the mass its
    # deficit loses, and no deficit exceeds the summed Poisson tails. The
    # 1e-15 allows for the rounding of a deficit, 1 - row sum, and of the
    # bound: a sweep of 500 such cases found both off by at most 5.6e-16.
    model, region, scenario, strategy, _ = build
    shallow = build_transition_matrix(model, region, scenario, strategy, q, renormalize=False)
    deep = build_transition_matrix(model, region, scenario, strategy, q + 1, renormalize=False)
    assert np.all(shallow.probs <= deep.probs)
    gain = deep.probs.sum(axis=1) - shallow.probs.sum(axis=1)
    np.testing.assert_allclose(gain, shallow.row_deficits - deep.row_deficits, rtol=0, atol=1e-15)
    for matrix, depth in ((shallow, q), (deep, q + 1)):
        assert np.all(matrix.row_deficits <= truncation_tail_bound(scenario, depth) + 1e-15)


class TestOrderingTable:
    @given(build=small_builds())
    @settings(max_examples=30, deadline=None)
    def test_equals_brute_force(self, build):
        model, region, scenario, strategy, q = build
        assert len(region) <= 20
        fast = build_transition_matrix(model, region, scenario, strategy, q, renormalize=False)
        slow = brute_force_transition_matrix(model, region, scenario, strategy, q, renormalize=False)
        assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-12

    @given(build=small_builds(), deeper=st.integers(min_value=1, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_depth_read_from_deeper_table_is_bit_identical(self, build, deeper):
        model, region, scenario, strategy, q = build
        markov._ORDERING_TABLES.pop(strategy, None)
        cold = build_transition_matrix(model, region, scenario, strategy, q, renormalize=False)
        build_transition_matrix(model, region, scenario, strategy, q + deeper, renormalize=False)
        shallow = build_transition_matrix(model, region, scenario, strategy, q, renormalize=False)
        assert markov._ORDERING_TABLES[strategy][0] == q + deeper
        np.testing.assert_array_equal(cold.probs, shallow.probs)
        np.testing.assert_array_equal(cold.row_deficits, shallow.row_deficits)

    @staticmethod
    def _sub_box_keys(boxes, state_index, dims):
        """The keys of state ``state_index`` whose counts lie in the sub-box
        ``dims``, in C order, one ``np.add.outer`` per dimension, as the
        builder found them before ``_KeyBoxes.row_keys``."""
        index = np.array(boxes.offsets[state_index])
        for dim, stride in zip(dims, boxes.strides[state_index]):
            index = np.add.outer(index, np.arange(dim) * stride)
        return index.ravel()

    @given(build=small_builds(), deeper=st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_row_keys_at_every_depth(self, build, deeper):
        _, region, _, _, q = build
        depth = q + deeper
        boxes = markov._KeyBoxes.of(region, depth)
        for shallow in range(1, depth + 1):
            rows = list(boxes.row_keys(shallow))
            assert len(rows) == len(region)
            for i, (state, keys) in enumerate(zip(region.states, rows)):
                dims = [shallow + 1] * region.num_types + [active + 1 for active in state]
                np.testing.assert_array_equal(keys, self._sub_box_keys(boxes, i, dims))
                bags = np.array(list(markov._iter_request_bags(state, shallow, region.num_types)))
                np.testing.assert_array_equal(keys, boxes.offsets[i] + bags @ boxes.strides[i])

    # SHA-256 of the raw q=4 build's probs and row_deficits bytes on the N=3
    # ladder rung of pool 3.0 (|R|=86, 126,125 keys), under always-accept
    # and under a fixed random half of the creation bits.
    LADDER_MODEL = ResourceModel(resource_pool=(3.0,), cost_matrix=((0.3, 0.5, 0.7),))
    LADDER_SCENARIO = DemandScenario(creation_rates=(0.6, 0.4, 0.3), mean_lifetimes=(4.0, 4.0, 4.0))
    LADDER_GOLDENS = {
        "always-accept": "f8a37d9faeb76e461dc9422c04c4cb8b3418170888a3bce2df5ef665eae3b06b",
        "random-half": "c7b865dfb64d3138a865982b0dd973b01e545f57ac3510f30fc5b9445dc638e7",
    }

    @pytest.mark.parametrize("name", sorted(LADDER_GOLDENS))
    def test_ladder_rung_bytes(self, name):
        region = enumerate_region(self.LADDER_MODEL)
        assert len(region) == 86
        mask = region.creation_mask
        if name == "always-accept":
            strategy = always_accept_strategy(region)
        else:
            bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
            chosen = random.Random(1).sample(bits, len(bits) // 2)
            strategy = Strategy(region, sum(1 << b for b in chosen))
        raw = build_transition_matrix(
            self.LADDER_MODEL, region, self.LADDER_SCENARIO, strategy, 4, renormalize=False
        )
        digest = hashlib.sha256(raw.probs.tobytes() + raw.row_deficits.tobytes()).hexdigest()
        assert digest == self.LADDER_GOLDENS[name]

    def test_table_bytes_scale_with_nonzeros(self):
        # A one-type region of 300 states stays under the bag cap at q=1
        # with 90,300 keys; a dense keys x |R| table would take 217 MB.
        # Under always-accept a bag's one creation is declined only at the
        # pool, so no key reaches more than 2 final states.
        model = ResourceModel(resource_pool=(299.0,), cost_matrix=((1.0,),))
        region = enumerate_region(model)
        assert len(region) == 300
        strategy = always_accept_strategy(region)
        scenario = DemandScenario(creation_rates=(0.6,), mean_lifetimes=(4.0,))
        matrix = build_transition_matrix(model, region, scenario, strategy, 1)
        assert matrix.size == 300
        depth, _, table = markov._ORDERING_TABLES[strategy]
        keys = len(table.pos)
        assert (depth, keys) == (1, 90_300)
        assert np.max(np.diff(table.indptr)) <= 2
        assert table.nbytes < 32 * keys


class TestBagGuard:
    # The N=3 ladder model of the benchmark: 34 states whose release
    # ranges hold 213 bags in all, times (q+1)**3 creation bags.
    N3_MODEL = ResourceModel(resource_pool=(2.0,), cost_matrix=((0.3, 0.5, 0.7),))
    N3_SCENARIO = DemandScenario(creation_rates=(0.6, 0.4, 0.3), mean_lifetimes=(4.0, 4.0, 4.0))

    def test_oversized_builds_refused(self):
        region = enumerate_region(self.N3_MODEL)
        strategy = always_accept_strategy(region)
        for builder in (build_transition_matrix, brute_force_transition_matrix):
            with pytest.raises(GuardExceededError, match="1972593 request bags, above the cap of 500000"):
                builder(self.N3_MODEL, region, self.N3_SCENARIO, strategy, 20)

    def test_depth_ten_is_under_the_cap(self):
        region = enumerate_region(self.N3_MODEL)
        _check_build_arguments(region, always_accept_strategy(region), 10)  # 283,503 bags

    def test_cap_counts_every_bag(self, monkeypatch, model, region, scenario_c, accept_all):
        # Four states with 1..4 release bags, times 3 creation bags at q=2.
        monkeypatch.setattr(markov, "MAX_BAGS", 30)
        build_transition_matrix(model, region, scenario_c, accept_all, 2)
        monkeypatch.setattr(markov, "MAX_BAGS", 29)
        with pytest.raises(GuardExceededError, match="30 request bags"):
            build_transition_matrix(model, region, scenario_c, accept_all, 2)


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
# Stationary analysis
# ---------------------------------------------------------------------------


def squaring_closed_classes(probs: np.ndarray) -> list[list[int]]:
    """Closed classes by the former closure: square ``(P > 0) | I`` as float
    matrices until it stops changing, then apply the same closed-class rule."""
    reach = (probs > 0) | np.eye(len(probs), dtype=bool)
    while True:
        closure = (reach.astype(float) @ reach.astype(float)) > 0
        if np.array_equal(closure, reach):
            break
        reach = closure
    closed = ~np.any(reach & ~reach.T, axis=1)
    return [np.flatnonzero(reach[i]).tolist() for i in np.flatnonzero(closed) if reach[i].argmax() == i]


@st.composite
def planted_chains(draw):
    """A random nonzero pattern on at most 40 states with planted closed
    classes (singletons among them are absorbing states) and transient
    states, under a random relabelling. Returns the probabilities and the
    planted classes, sorted by first state."""
    size = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    order = rng.permutation(size)
    num_closed = draw(st.integers(min_value=1, max_value=size))
    cuts = np.sort(rng.choice(np.arange(1, num_closed), size=min(num_closed - 1, 4), replace=False))
    classes = np.split(order[:num_closed], cuts)
    transient = order[num_closed:]
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    pattern = np.zeros((size, size), dtype=bool)
    for members in classes:
        # A cycle through the class keeps it strongly connected.
        pattern[members, np.roll(members, 1)] = True
        pattern[np.ix_(members, members)] |= rng.random((len(members), len(members))) < density
    for state in transient:
        # One edge into a closed class, which never leads back, keeps the
        # state transient whatever else it reaches.
        pattern[state, rng.choice(order[:num_closed])] = True
        pattern[state, transient] |= rng.random(len(transient)) < density
    probs = pattern * rng.uniform(0.01, 1.0, (size, size))
    probs /= probs.sum(axis=1, keepdims=True)
    planted = sorted(sorted(members.tolist()) for members in classes)
    return probs, planted


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
        strat = decline_all_strategy(tiny_region)
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
        assert pi[region.index_of[(3,)]] == pytest.approx(0.0, abs=1e-12)

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

    @given(chain=planted_chains())
    @settings(max_examples=200, deadline=None)
    def test_closed_classes_match_squaring(self, chain):
        # Warshall's closure against the squaring closure it replaced: the
        # same classes in the same first-state order, and the same message
        # when there is more than one.
        probs, planted = chain
        found = [cls.tolist() for cls in _closed_classes(probs)]
        assert found == squaring_closed_classes(probs) == planted
        region = enumerate_region(ResourceModel((len(probs) - 1.0,), ((1.0,),)))
        matrix = TransitionMatrix(
            probs=probs, region=region, renormalized=True, row_deficits=np.zeros(len(probs))
        )
        if len(planted) > 1:
            labels = [[f"s=[{i}]" for i in cls] for cls in planted]
            with pytest.raises(ReducibleChainError) as excinfo:
                stationary_distribution(matrix)
            assert str(excinfo.value) == f"chain has {len(planted)} closed communicating classes: {labels}"
            assert excinfo.value.classes == labels
        else:
            pi = stationary_distribution(matrix)
            assert np.all(np.delete(pi, planted[0]) == 0.0)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)

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
