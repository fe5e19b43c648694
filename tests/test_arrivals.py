"""Tests for per-period request-arrival statistics.

High-precision reference values were computed independently with mpmath at
50 decimal digits and frozen here as float literals.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_markov import (
    DemandScenario,
    arrival_pmf,
    creation_pmf,
    multiset_prob,
    release_pmf,
    request_kinds,
    sequence_prob,
)

# mpmath 50-digit references, rounded to nearest float64.
EXP_HALF_NEG = 0.6065306597126334  # exp(-1/2)
EXP_ONE_NEG = 0.36787944117144233  # exp(-1)
POISSON_08_3 = 0.03834273827133624  # 0.8^3 exp(-0.8) / 3!
RELEASE_P_MU4 = 0.22119921692859512  # 1 - exp(-1/4)
BINOM_3_2_MU4 = 0.11431804916145819  # C(3,2) p^2 (1-p), p = 1 - exp(-1/4)
BINOM_2_1_MU4 = 0.3445402467175429  # C(2,1) p (1-p)
EXP_3Q_NEG = 0.4723665527410147  # exp(-3/4)
CREATE1_RELEASE1 = 0.06708205348580935  # 0.5 exp(-1/2) * p

REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


class TestDemandScenario:
    def test_num_types(self, scenario_c):
        assert scenario_c.num_types == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DemandScenario(creation_rates=(0.5, 0.5), mean_lifetimes=(4.0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DemandScenario(creation_rates=(), mean_lifetimes=())

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            DemandScenario(creation_rates=(0.0,), mean_lifetimes=(4.0,))

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(ValueError):
            DemandScenario(creation_rates=(0.5,), mean_lifetimes=(-1.0,))

    def test_infinite_rate_rejected(self):
        with pytest.raises(ValueError):
            DemandScenario(creation_rates=(math.inf,), mean_lifetimes=(4.0,))


class TestRequestKinds:
    def test_one_type(self):
        assert request_kinds(1) == (1, -1)

    def test_two_types(self):
        assert request_kinds(2) == (1, 2, -1, -2)


# ---------------------------------------------------------------------------
# Creation counts
# ---------------------------------------------------------------------------


class TestCreationPmf:
    def test_zero_count_is_exp_neg_rate(self):
        assert creation_pmf(0.5, 0) == math.exp(-0.5)
        assert creation_pmf(0.5, 0) == pytest.approx(EXP_HALF_NEG, rel=REL_TOL)

    def test_single_count_unit_rate(self):
        assert creation_pmf(1.0, 1) == pytest.approx(EXP_ONE_NEG, rel=REL_TOL)

    def test_three_counts_rate_08(self):
        assert creation_pmf(0.8, 3) == pytest.approx(POISSON_08_3, rel=REL_TOL)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            creation_pmf(0.5, -1)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            creation_pmf(0.0, 1)

    def test_normalization(self):
        for rate in (0.1, 0.5, 1.0, 5.0):
            total = sum(creation_pmf(rate, k) for k in range(200))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing_below_unit_rate(self):
        # For rates < 1 the mass ratio p(k+1)/p(k) = rate/(k+1) < 1 always.
        for rate in (0.5, 0.8, 0.99):
            masses = [creation_pmf(rate, k) for k in range(12)]
            assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_far_tail_stays_finite(self):
        mass = creation_pmf(0.5, 300)
        assert 0.0 < mass < 1e-300 or mass == 0.0
        assert math.isfinite(mass)

    @given(
        rate=st.floats(min_value=0.01, max_value=20.0, allow_nan=False),
        count=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=100, deadline=None)
    def test_mass_in_unit_interval(self, rate, count):
        mass = creation_pmf(rate, count)
        assert 0.0 <= mass <= 1.0


# ---------------------------------------------------------------------------
# Release counts
# ---------------------------------------------------------------------------


class TestReleasePmf:
    def test_single_slice_release_probability(self):
        assert release_pmf(4.0, 1, 1) == pytest.approx(RELEASE_P_MU4, rel=REL_TOL)

    def test_two_of_three(self):
        assert release_pmf(4.0, 3, 2) == pytest.approx(BINOM_3_2_MU4, rel=REL_TOL)

    def test_one_of_two(self):
        assert release_pmf(4.0, 2, 1) == pytest.approx(BINOM_2_1_MU4, rel=REL_TOL)

    def test_no_active_slices(self):
        assert release_pmf(4.0, 0, 0) == 1.0

    def test_count_exceeding_active_rejected(self):
        with pytest.raises(ValueError):
            release_pmf(4.0, 1, 2)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            release_pmf(4.0, -1, 0)
        with pytest.raises(ValueError):
            release_pmf(4.0, 1, -1)

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(ValueError):
            release_pmf(0.0, 1, 1)

    def test_tiny_lifetime_releases_every_slice(self):
        # 1/1e-310 overflows to inf, so the survival log is -inf; with no
        # survivors its term is 0, not 0 * -inf = NaN.
        assert release_pmf(1e-310, 2, 2) == 1.0
        assert release_pmf(1e-310, 2, 1) == 0.0

    def test_matches_factorial_exponential_form(self):
        # Independent algebraic form: s! p^k / (k! (s-k)!) * exp(-(s-k)/mu).
        for mu in (0.5, 2.0, 4.0, 10.0):
            p = -math.expm1(-1.0 / mu)
            for active in range(0, 15):
                for count in range(active + 1):
                    direct = (
                        math.factorial(active)
                        * p**count
                        / (math.factorial(count) * math.factorial(active - count))
                        * math.exp(-(active - count) / mu)
                    )
                    assert release_pmf(mu, active, count) == pytest.approx(
                        direct, rel=1e-10, abs=1e-300
                    )

    @given(
        mu=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        active=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_normalization(self, mu, active):
        total = sum(release_pmf(mu, active, k) for k in range(active + 1))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_large_counts_stay_finite(self):
        mass = release_pmf(4.0, 500, 250)
        assert math.isfinite(mass)
        assert 0.0 <= mass <= 1.0


# ---------------------------------------------------------------------------
# Per-kind dispatch
# ---------------------------------------------------------------------------


class TestArrivalPmf:
    def test_creation_kind(self, scenario_c):
        assert arrival_pmf(scenario_c, +1, 0, (3,)) == math.exp(-0.5)

    def test_release_kind_uses_state_count(self, scenario_c):
        assert arrival_pmf(scenario_c, -1, 2, (3,)) == pytest.approx(
            BINOM_3_2_MU4, rel=REL_TOL
        )

    def test_release_kind_zero_active(self, scenario_c):
        assert arrival_pmf(scenario_c, -1, 0, (0,)) == 1.0

    def test_zero_kind_rejected(self, scenario_c):
        with pytest.raises(ValueError):
            arrival_pmf(scenario_c, 0, 0, (0,))

    def test_out_of_range_kind_rejected(self, scenario_c):
        with pytest.raises(ValueError):
            arrival_pmf(scenario_c, +2, 0, (0,))

    def test_state_length_mismatch_rejected(self, scenario_c):
        with pytest.raises(ValueError):
            arrival_pmf(scenario_c, +1, 0, (0, 0))


# ---------------------------------------------------------------------------
# Joint bag and ordering probabilities
# ---------------------------------------------------------------------------


class TestMultisetProb:
    def test_empty_bag(self, scenario_c):
        # No creations and no release of the single active slice:
        # exp(-1/2) * exp(-1/4) = exp(-3/4).
        assert multiset_prob(scenario_c, {}, (1,)) == pytest.approx(
            EXP_3Q_NEG, rel=REL_TOL
        )

    def test_one_creation_one_release(self, scenario_c):
        assert multiset_prob(scenario_c, {+1: 1, -1: 1}, (1,)) == pytest.approx(
            CREATE1_RELEASE1, rel=REL_TOL
        )

    def test_matches_manual_product_two_types(self):
        scenario = DemandScenario(creation_rates=(0.5, 0.8), mean_lifetimes=(4.0, 2.0))
        state = (2, 1)
        bag = {+1: 1, +2: 0, -1: 1, -2: 1}
        manual = (
            creation_pmf(0.5, 1)
            * creation_pmf(0.8, 0)
            * release_pmf(4.0, 2, 1)
            * release_pmf(2.0, 1, 1)
        )
        assert multiset_prob(scenario, bag, state) == pytest.approx(manual, rel=REL_TOL)

    def test_absent_kinds_count_as_zero(self, scenario_c):
        assert multiset_prob(scenario_c, {}, (1,)) == multiset_prob(
            scenario_c, {+1: 0, -1: 0}, (1,)
        )

    def test_unknown_kind_rejected(self, scenario_c):
        with pytest.raises(ValueError):
            multiset_prob(scenario_c, {+2: 1}, (1,))

    def test_negative_multiplicity_rejected(self, scenario_c):
        with pytest.raises(ValueError):
            multiset_prob(scenario_c, {+1: -1}, (1,))

    def test_release_multiplicity_beyond_active_rejected(self, scenario_c):
        with pytest.raises(ValueError):
            multiset_prob(scenario_c, {-1: 2}, (1,))

    def test_normalization_over_bags(self, scenario_c):
        # Sum over all bags = (sum over creation counts) * (sum over release
        # counts) by independence; creation tail capped far out.
        state = (3,)
        total = sum(
            multiset_prob(scenario_c, {+1: k, -1: r}, state)
            for k in range(120)
            for r in range(4)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSequenceProb:
    def test_order_independence_exact(self, scenario_c):
        requests = (+1, -1, +1)
        values = {
            sequence_prob(scenario_c, perm, (2,))
            for perm in itertools.permutations(requests)
        }
        assert len(values) == 1  # bitwise identical across orderings

    def test_sum_over_labeled_orderings_recovers_bag_mass(self, scenario_c):
        # Q requests carry Q distinct timestamps, so there are Q! equally
        # likely labeled orderings; permutations() enumerates exactly those.
        for requests in ((+1,), (+1, -1), (+1, +1, -1), (+1, -1, -1)):
            state = (2,)
            bag_mass = multiset_prob(
                scenario_c,
                {k: requests.count(k) for k in set(requests)},
                state,
            )
            ordering_sum = sum(
                sequence_prob(scenario_c, perm, state)
                for perm in itertools.permutations(requests)
            )
            assert ordering_sum == pytest.approx(bag_mass, rel=1e-12)

    def test_empty_sequence_equals_empty_bag(self, scenario_c):
        assert sequence_prob(scenario_c, (), (1,)) == multiset_prob(
            scenario_c, {}, (1,)
        )

    def test_single_request(self, scenario_c):
        assert sequence_prob(scenario_c, (+1, -1), (1,)) == pytest.approx(
            CREATE1_RELEASE1 / 2, rel=REL_TOL
        )
