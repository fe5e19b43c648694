"""Tests for the resource model, admissibility region, and admission strategies."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_markov import domain
from slice_markov import (
    DegenerateModelError,
    GuardExceededError,
    InvalidStrategyError,
    ResourceModel,
    Strategy,
    always_accept_strategy,
    apply_request,
    apply_sequence,
    check_feasible,
    enumerate_region,
    enumerate_valid_strategies,
    request_kinds,
    state_label,
    strategy_from_table,
)


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


class TestCheckFeasible:
    def test_three_slices_fit(self, model):
        assert check_feasible(model, (3,)) is True

    def test_four_slices_do_not_fit(self, model):
        assert check_feasible(model, (4,)) is False

    def test_empty_state_always_feasible(self, model):
        assert check_feasible(model, (0,)) is True

    def test_boundary_exact_capacity(self):
        # 3 * 0.3 = 0.9 consumes the pool exactly; binary rounding must not
        # flip the decision at the boundary.
        tight = ResourceModel(resource_pool=(0.9,), cost_matrix=((0.3,),))
        assert check_feasible(tight, (3,)) is True
        assert check_feasible(tight, (4,)) is False

    def test_exact_arithmetic_with_fractions(self):
        exact = ResourceModel(
            resource_pool=(Fraction(9, 10),),
            cost_matrix=((Fraction(3, 10),),),
        )
        assert check_feasible(exact, (3,)) is True
        assert check_feasible(exact, (4,)) is False

    def test_two_resources_both_must_fit(self):
        wide = ResourceModel(
            resource_pool=(1.0, 1.0),
            cost_matrix=((0.6, 0.5), (0.5, 0.6)),
        )
        assert check_feasible(wide, (1, 0)) is True
        assert check_feasible(wide, (0, 1)) is True
        assert check_feasible(wide, (1, 1)) is False  # 0.6+0.5 = 1.1 > 1
        assert check_feasible(wide, (2, 0)) is False  # 1.2 > 1

    def test_wrong_length_rejected(self, model):
        with pytest.raises(ValueError):
            check_feasible(model, (1, 1))


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------


class TestResourceModel:
    def test_zero_cost_column_rejected(self):
        # A slice type consuming nothing on every resource would make the
        # set of feasible allocations infinite.
        with pytest.raises(DegenerateModelError):
            ResourceModel(resource_pool=(1.0,), cost_matrix=((0.0,),))

    def test_zero_cost_column_two_types_rejected(self):
        with pytest.raises(DegenerateModelError):
            ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3, 0.0),))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(resource_pool=(1.0,), cost_matrix=((-0.1,),))

    def test_negative_pool_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(resource_pool=(-1.0,), cost_matrix=((0.3,),))

    def test_ragged_cost_matrix_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(
                resource_pool=(1.0, 1.0),
                cost_matrix=((0.3, 0.4), (0.3,)),
            )

    def test_row_count_must_match_pool(self):
        with pytest.raises(ValueError):
            ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3,), (0.4,)))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(resource_pool=(), cost_matrix=())

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(resource_pool=(float("nan"),), cost_matrix=((0.3,),))

    def test_num_properties(self):
        wide = ResourceModel(
            resource_pool=(1.0, 2.0),
            cost_matrix=((0.6, 0.5), (0.5, 0.6)),
        )
        assert wide.num_resources == 2
        assert wide.num_types == 2


# ---------------------------------------------------------------------------
# Region enumeration
# ---------------------------------------------------------------------------


class TestEnumerateRegion:
    def test_reference_region(self, region):
        assert region.states == ((0,), (1,), (2,), (3,))

    def test_zero_pool_gives_singleton(self):
        empty = ResourceModel(resource_pool=(0.0,), cost_matrix=((0.3,),))
        assert enumerate_region(empty).states == ((0,),)

    def test_two_type_region_matches_box_scan(self):
        wide = ResourceModel(
            resource_pool=(1.0, 1.0),
            cost_matrix=((0.6, 0.5), (0.5, 0.6)),
        )
        found = enumerate_region(wide)
        expected = sorted(
            s
            for s in itertools.product(range(4), repeat=2)
            if check_feasible(wide, s)
        )
        assert list(found.states) == expected
        assert found.states == ((0, 0), (0, 1), (1, 0))

    def test_lexicographic_order(self, region):
        assert list(region.states) == sorted(region.states)

    def test_region_guard(self):
        # About 5e7 feasible states: the scan stops as soon as it passes the cap.
        huge = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.0001, 0.0001),))
        with pytest.raises(GuardExceededError, match=f"more than {domain.MAX_REGION_STATES} states"):
            enumerate_region(huge)

    def test_region_cap_admits_a_region_of_its_size(self, model, monkeypatch):
        monkeypatch.setattr(domain, "MAX_REGION_STATES", 4)
        assert len(enumerate_region(model)) == 4
        monkeypatch.setattr(domain, "MAX_REGION_STATES", 3)
        with pytest.raises(GuardExceededError):
            enumerate_region(model)

    def test_contains_origin(self, region):
        assert (0,) in region.index_of

    def test_index_round_trip(self, region):
        for i, s in enumerate(region.states):
            assert region.index_of[s] == i

    def test_index_of_missing_state(self, region):
        with pytest.raises(KeyError):
            region.index_of[(4,)]

    def test_len_and_iter(self, region):
        # A region is walked and searched through its states and index_of,
        # not as a container of its own.
        assert len(region) == 4
        assert region.states == ((0,), (1,), (2,), (3,))
        with pytest.raises(TypeError):
            iter(region)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_region_completeness_random_models(self, data):
        num_resources = data.draw(st.integers(min_value=1, max_value=2))
        num_types = data.draw(st.integers(min_value=1, max_value=2))
        pool = tuple(
            data.draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
            for _ in range(num_resources)
        )
        matrix = tuple(
            tuple(
                data.draw(st.floats(min_value=0.2, max_value=2.0, allow_nan=False))
                for _ in range(num_types)
            )
            for _ in range(num_resources)
        )
        random_model = ResourceModel(resource_pool=pool, cost_matrix=matrix)
        found = enumerate_region(random_model)
        caps = [
            min(
                int(pool[m] / matrix[m][n]) + 1
                for m in range(num_resources)
                if matrix[m][n] > 0
            )
            for n in range(num_types)
        ]
        expected = sorted(
            s
            for s in itertools.product(*(range(c + 2) for c in caps))
            if check_feasible(random_model, s)
        )
        assert list(found.states) == expected


class TestStateLabel:
    def test_format(self):
        assert state_label((0,)) == "s=[0]"
        assert state_label((1, 3)) == "s=[1,3]"


# ---------------------------------------------------------------------------
# Request application
# ---------------------------------------------------------------------------


class TestApplyRequest:
    def test_accepted_release(self):
        assert apply_request((2,), -1, True) == (1,)

    def test_accepted_creation(self):
        assert apply_request((1,), +1, True) == (2,)

    def test_declined_request_is_no_op(self):
        assert apply_request((2,), +1, False) == (2,)
        assert apply_request((2,), -1, False) == (2,)

    def test_release_below_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_request((0,), -1, True)

    def test_zero_request_rejected(self):
        with pytest.raises(ValueError):
            apply_request((1,), 0, True)

    def test_out_of_range_type_rejected(self):
        with pytest.raises(ValueError):
            apply_request((1,), +2, True)

    def test_two_type_example(self):
        assert apply_request((0, 3), +1, True) == (1, 3)
        assert apply_request((0, 3), -2, True) == (0, 2)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class TestStrategy:
    def test_reference_model_has_eight_valid_strategies(self, strategies):
        assert len(strategies) == 8

    def test_raw_table_count_is_sixteen(self, region):
        # 4 states x 1 type -> 16 creation tables; the 8 with the full-state
        # bit set are invalid because that acceptance would leave the region.
        assert 2 ** (len(region) * 1) == 16

    def test_strategies_sorted_by_bits(self, strategies):
        assert [s.bits for s in strategies] == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_decline_all_is_first(self, strategies, decline_all):
        assert strategies[0] == decline_all

    def test_always_accept_is_last(self, strategies, accept_all):
        assert strategies[-1] == accept_all

    def test_always_accept_declines_only_at_full_state(self, accept_all, region):
        for state in region.states:
            expected = state != (3,)
            assert accept_all.decide(+1, state) is expected

    def test_releases_always_accepted(self, strategies, region):
        for strat in strategies:
            for state in region.states:
                assert strat.decide(-1, state) is True

    def test_decide_unknown_state_raises(self, accept_all):
        with pytest.raises(InvalidStrategyError):
            accept_all.decide(+1, (9,))

    @pytest.mark.parametrize("request_kind", [0, +2, -2])
    def test_decide_unknown_request_raises(self, accept_all, request_kind):
        # Bit row*N + n belongs to another state when n falls outside 1..N.
        with pytest.raises(ValueError, match="does not address a slice type"):
            accept_all.decide(request_kind, (0,))

    def test_zero_pool_model_has_one_strategy(self):
        empty = ResourceModel(resource_pool=(0.0,), cost_matrix=((0.3,),))
        found = enumerate_region(empty)
        valid = enumerate_valid_strategies(empty, found)
        assert len(valid) == 1
        assert valid[0].decide(+1, (0,)) is False

    def test_validate_accept_everywhere_invalid(self, region):
        # Accepting a creation in the full state [3] would leave the region.
        with pytest.raises(InvalidStrategyError, match="leaves the region"):
            strategy_from_table(region, ((True,),) * 4)
        with pytest.raises(InvalidStrategyError, match="leaves the region"):
            Strategy(region, 0b1000)

    def test_validate_decline_all_valid(self, decline_all):
        assert decline_all.bits == 0

    def test_validate_accept_until_full_valid(self, region, accept_all):
        assert region.creation_mask == 0b0111
        assert accept_all.bits == region.creation_mask

    def test_validate_foreign_region_raises(self, region):
        # A strategy belongs to the region it was built over; it decides
        # nothing for the states of another region.
        other = enumerate_region(
            ResourceModel(resource_pool=(1.0,), cost_matrix=((0.5,),))
        )
        foreign = strategy_from_table(other, ((False,),) * len(other))
        assert foreign.region != region
        with pytest.raises(InvalidStrategyError):
            foreign.decide(+1, (3,))

    def test_strategy_from_bits_round_trip(self, region):
        for bits in range(8):
            assert Strategy(region, bits).bits == bits
            assert Strategy(region, bits) == strategy_from_table(
                region, [[bits >> row & 1] for row in range(len(region))]
            )
        for bits in range(8, 16):
            with pytest.raises(InvalidStrategyError):
                Strategy(region, bits)

    def test_table_width_must_match_region(self, region):
        with pytest.raises(InvalidStrategyError, match="columns"):
            strategy_from_table(region, ((False, False),) * len(region))

    def test_strategy_from_bits_out_of_range(self, region):
        with pytest.raises(InvalidStrategyError):
            Strategy(region, 16)
        with pytest.raises(InvalidStrategyError):
            Strategy(region, -1)

    def test_strategy_from_table_shape_checked(self, region):
        with pytest.raises(InvalidStrategyError):
            strategy_from_table(region, ((True,),))  # missing rows

    def test_enumeration_guard(self, model, region, monkeypatch):
        monkeypatch.setattr(domain, "MAX_STRATEGIES", 4)
        with pytest.raises(GuardExceededError):
            enumerate_valid_strategies(model, region)

    def test_enumeration_cap_counts_valid_tables(self, model, region, strategies, monkeypatch):
        # 2**4 creation tables but only 2**3 valid ones: a cap of 8 admits them.
        monkeypatch.setattr(domain, "MAX_STRATEGIES", 8)
        capped = enumerate_valid_strategies(model, region)
        assert [s.bits for s in capped] == [s.bits for s in strategies] == list(range(8))

    def test_submask_walk_matches_full_scan(self):
        two_type = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3, 0.5),))
        two_region = enumerate_region(two_type)
        scanned = []
        for bits in range(1 << (2 * len(two_region))):
            try:
                Strategy(two_region, bits)
            except InvalidStrategyError:
                continue
            scanned.append(bits)
        walked = [s.bits for s in enumerate_valid_strategies(two_type, two_region)]
        assert walked == scanned
        assert len(walked) == 128

    def test_next_index_tables(self, region, accept_all, decline_all):
        # Columns follow request_kinds(1) = (+1, -1); -1 marks a release
        # with no active slice or, in the region's table, a creation past
        # the pool.
        assert region.successors == ((1, -1), (2, 0), (3, 1), (-1, 2))
        assert accept_all.next_index == ((1, -1), (2, 0), (3, 1), (3, 2))
        assert decline_all.next_index == ((0, -1), (1, 0), (2, 1), (3, 2))

    @pytest.mark.parametrize("pool, costs", [
        ((1.0,), ((0.3,),)),
        ((1.0,), ((0.3, 0.5),)),
        ((2.0,), ((0.3, 0.5, 0.7),)),  # the N=3 model of perfbench's n3_matrix.json
    ], ids=["N1", "N2", "N3"])
    def test_successors_agree_with_apply_request(self, pool, costs):
        found = enumerate_region(ResourceModel(resource_pool=pool, cost_matrix=costs))
        kinds = request_kinds(found.num_types)
        for i, state in enumerate(found.states):
            expected = []
            for kind in kinds:
                try:
                    reached = apply_request(state, kind, True)
                except ValueError:
                    reached = None  # a release with no active slice
                expected.append(found.index_of.get(reached, -1))
            assert found.successors[i] == tuple(expected)
        assert found.creation_mask == sum(
            1 << (i * found.num_types + n)
            for i, state in enumerate(found.states)
            for n in range(found.num_types)
            if apply_request(state, n + 1, True) in found.index_of
        )

    def test_next_index_agrees_with_apply_request(self, strategies, region):
        for strat in strategies:
            for i, state in enumerate(region.states):
                for p, kind in enumerate((+1, -1)):
                    if kind < 0 and state[0] == 0:
                        continue
                    reached = apply_request(state, kind, strat.decide(kind, state))
                    assert strat.next_index[i][p] == region.index_of[reached]

    def test_every_enumerated_strategy_is_closed(self, region, strategies):
        # Folding any accepted creation from any state stays inside the region.
        for strat in strategies:
            for state in region.states:
                if strat.decide(+1, state):
                    assert apply_request(state, +1, True) in region.index_of


# ---------------------------------------------------------------------------
# Sequential folding
# ---------------------------------------------------------------------------


class TestApplySequence:
    def test_create_then_release(self, accept_all):
        assert apply_sequence((1,), (+1, -1), accept_all) == (1,)

    def test_blocked_creation_is_no_op(self, accept_all):
        assert apply_sequence((3,), (+1,), accept_all) == (3,)

    def test_releases_then_create(self, accept_all):
        assert apply_sequence((2,), (-1, -1, +1), accept_all) == (1,)

    def test_empty_queue_is_identity(self, region, strategies):
        for strat in strategies:
            for s in region.states:
                assert apply_sequence(s, (), strat) == s

    def test_order_sensitivity_witness(self, region):
        # Accept creations only in state [1]: processing [+1, -1] from [1]
        # climbs to [2] then releases back to [1], while [-1, +1] drops to
        # [0] where the creation is declined.
        picky = Strategy(region, 0b0010)
        create_first = apply_sequence((1,), (+1, -1), picky)
        release_first = apply_sequence((1,), (-1, +1), picky)
        assert create_first == (1,)
        assert release_first == (0,)
        assert create_first != release_first

    def test_release_underflow_rejected(self, accept_all):
        with pytest.raises(ValueError):
            apply_sequence((0,), (-1,), accept_all)

    def test_result_always_in_region(self, region, strategies):
        # Any queue whose releases never outrun the running count keeps the
        # fold inside the region.
        for strat in strategies:
            for queue in itertools.product((+1, -1), repeat=3):
                try:
                    final = apply_sequence((2,), queue, strat)
                except ValueError:
                    continue  # more releases than active slices
                assert final in region.index_of

    @given(
        bits=st.integers(min_value=0, max_value=7),
        start=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_declined_creations_never_change_state(self, bits, start):
        reference = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3,),))
        found = enumerate_region(reference)
        strat = Strategy(found, bits)
        state = found.states[start]
        if not strat.decide(+1, state):
            assert apply_sequence(state, (+1,), strat) == state
