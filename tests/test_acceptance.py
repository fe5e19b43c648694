"""Acceptance gate: the seven criteria the package must meet.

Each test evaluates one criterion at its stated tolerance and runtime
budget, records a single PASS/FAIL line (repeated in the terminal summary),
and then asserts. The reference protocols come from the bundled baseline
configuration.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from slice_markov import (
    DemandScenario,
    ResourceModel,
    SimConfig,
    always_accept_strategy,
    brute_force_transition_matrix,
    build_transition_matrix,
    default_config_path,
    enumerate_region,
    enumerate_valid_strategies,
    figure2_document,
    figure3_document,
    load_config,
    markov_order_test,
    occupancy_mean,
    simulate_episodes,
    stationary_distribution,
    truncation_tail_bound,
)
from slice_markov import simulate

# Stationary mean occupancy of the unconstrained single-type chain:
# rate / (1 - exp(-1/lifetime)) for rate 0.5, lifetime 4 (mpmath, 50 digits).
UNCONSTRAINED_MEAN = 2.260405832093899


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _figure2_worst_gap(doc: dict) -> float:
    """AC-2's statistic: the largest |analytical - empirical| state
    probability of a figure2 document over periods 1..10."""
    return max(abs(row[3] - row[4]) for row in doc["rows"] if 1 <= row[0] <= 10)


def _markov_pvalues(periods: int) -> dict[str, float]:
    """AC-7's p-values: one always-accept run of ``periods`` periods at
    seed 42 per bundled scenario, tested for history dependence."""
    cfg = load_config(default_config_path())
    region = cfg.region()
    strategy = always_accept_strategy(region)
    pvalues = {}
    for name in ("A", "B", "C"):
        sim = SimConfig(num_runs=1, periods_per_run=periods, seed=42)
        runs = simulate_episodes(cfg.scenarios[name], strategy, sim)
        _, dof, pvalue = markov_order_test(runs, len(region))
        assert dof > 0
        pvalues[name] = pvalue
    return pvalues


def test_ac1_region_and_strategy_counts(acceptance_report):
    started = perf_counter()
    model = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3,),))
    region = enumerate_region(model)
    strategies = enumerate_valid_strategies(model, region)
    elapsed = perf_counter() - started
    ok = len(region) == 4 and len(strategies) == 8 and elapsed < 1.0
    acceptance_report(
        f"AC-1 {_verdict(ok)}: region size {len(region)} (want 4), "
        f"valid strategies {len(strategies)} (want 8), {elapsed:.3f}s (budget 1s)"
    )
    assert len(region) == 4
    assert len(strategies) == 8
    assert elapsed < 1.0


def test_ac2_distribution_evolution(acceptance_report):
    started = perf_counter()
    cfg = load_config(default_config_path())
    assert cfg.figure2.scenario == "C"
    assert cfg.figure2.episodes == 10_000
    assert cfg.figure2.periods == 10
    assert cfg.figure2.q_plus_max == 4
    assert cfg.figure2.initial_state == (0,)
    doc = figure2_document(cfg)
    worst = _figure2_worst_gap(doc)
    elapsed = perf_counter() - started
    ok = worst <= 0.02 and elapsed < 60.0
    acceptance_report(
        f"AC-2 {_verdict(ok)}: max |analytical - empirical| over periods 1..10 "
        f"= {worst:.4f} (tolerance 0.02), {elapsed:.1f}s (budget 60s)"
    )
    assert worst <= 0.02
    assert elapsed < 60.0


def test_ac3_truncation_error_trend(acceptance_report):
    started = perf_counter()
    cfg = load_config(default_config_path())
    proto = cfg.figure3
    assert proto.scenarios == ("A", "B", "C")
    assert proto.q_plus_max == (1, 2, 3, 4)
    assert proto.num_runs == 1000 and proto.periods_per_run == 100
    assert cfg.sim.initial_state is None  # random initial states
    doc = figure3_document(cfg)
    means: dict[str, dict[int, float]] = {}
    for name, q, mean, _var in doc["summary_rows"]:
        means.setdefault(name, {})[q] = mean
    decreasing = {
        name: all(by_q[q] > by_q[q + 1] for q in (1, 2, 3))
        for name, by_q in means.items()
    }
    ordered = means["C"][1] <= means["A"][1]
    elapsed = perf_counter() - started
    ok = all(decreasing.values()) and ordered and elapsed < 600.0
    detail = "; ".join(
        f"{name}: " + " > ".join(f"{means[name][q]:.4f}" for q in (1, 2, 3, 4))
        for name in ("A", "B", "C")
    )
    acceptance_report(
        f"AC-3 {_verdict(ok)}: mean error strictly decreasing per scenario "
        f"({detail}); C({means['C'][1]:.4f}) <= A({means['A'][1]:.4f}) at depth 1; "
        f"{elapsed:.1f}s (budget 600s)"
    )
    for name in ("A", "B", "C"):
        assert decreasing[name], f"scenario {name} mean error not strictly decreasing"
    assert ordered
    assert elapsed < 600.0


def test_ac4_builder_equivalence(acceptance_report):
    started = perf_counter()
    cfg = load_config(default_config_path())
    region = cfg.region()
    strategies = enumerate_valid_strategies(cfg.model, region)
    worst = 0.0
    for scenario in cfg.scenarios.values():
        for strategy in strategies:
            for q in (1, 2, 3):
                fast = build_transition_matrix(
                    cfg.model, region, scenario, strategy, q, renormalize=False
                )
                slow = brute_force_transition_matrix(
                    cfg.model, region, scenario, strategy, q, renormalize=False
                )
                worst = max(worst, float(np.max(np.abs(fast.probs - slow.probs))))
    elapsed = perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 60.0
    acceptance_report(
        f"AC-4 {_verdict(ok)}: max |table DP - explicit-enumeration| entry "
        f"difference = {worst:.2e} (tolerance 1e-12) over 8 strategies x 3 "
        f"scenarios x depths 1..3, {elapsed:.1f}s (budget 60s)"
    )
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_ac5_unconstrained_occupancy(acceptance_report):
    started = perf_counter()
    model = ResourceModel(resource_pool=(1.0,), cost_matrix=((0.08,),))
    region = enumerate_region(model)
    assert len(region) >= 13  # room for at least 12 active slices
    scenario = DemandScenario(creation_rates=(0.5,), mean_lifetimes=(4.0,))
    strategy = always_accept_strategy(region)
    matrix = build_transition_matrix(model, region, scenario, strategy, q_plus_max=6)
    analytical = float(occupancy_mean(region, stationary_distribution(matrix))[0])

    sim = SimConfig(num_runs=200, periods_per_run=500, seed=42)
    runs = simulate_episodes(scenario, strategy, sim)
    burn_in = 50
    states = np.array(region.states)[:, 0]
    simulated = float(states[runs[:, burn_in:]].mean())

    analytical_err = abs(analytical - UNCONSTRAINED_MEAN) / UNCONSTRAINED_MEAN
    simulated_err = abs(simulated - UNCONSTRAINED_MEAN) / UNCONSTRAINED_MEAN
    elapsed = perf_counter() - started
    ok = analytical_err <= 0.02 and simulated_err <= 0.02 and elapsed < 120.0
    acceptance_report(
        f"AC-5 {_verdict(ok)}: stationary mean {analytical:.4f} "
        f"({100 * analytical_err:.2f}% off {UNCONSTRAINED_MEAN:.4f}), simulated "
        f"{simulated:.4f} ({100 * simulated_err:.2f}% off), tolerance 2%, "
        f"{elapsed:.1f}s (budget 120s)"
    )
    assert analytical_err <= 0.02
    assert simulated_err <= 0.02
    assert elapsed < 120.0


def test_ac6_stochasticity_and_deficits(acceptance_report):
    started = perf_counter()
    cfg = load_config(default_config_path())
    region = cfg.region()
    strategies = enumerate_valid_strategies(cfg.model, region)
    worst_row_gap = 0.0
    worst_excess = -np.inf
    min_deficit = np.inf
    for scenario in cfg.scenarios.values():
        for strategy in strategies:
            for q in (1, 2, 3, 4):
                norm = build_transition_matrix(
                    cfg.model, region, scenario, strategy, q, renormalize=True
                )
                gaps = np.abs(norm.probs.sum(axis=1) - 1.0)
                worst_row_gap = max(worst_row_gap, float(gaps.max()))
                raw = build_transition_matrix(
                    cfg.model, region, scenario, strategy, q, renormalize=False
                )
                bound = truncation_tail_bound(scenario, q)
                min_deficit = min(min_deficit, float(raw.row_deficits.min()))
                worst_excess = max(
                    worst_excess, float((raw.row_deficits - bound).max())
                )
    elapsed = perf_counter() - started
    ok = worst_row_gap <= 1e-12 and min_deficit >= 0.0 and worst_excess <= 1e-12
    acceptance_report(
        f"AC-6 {_verdict(ok)}: worst |row sum - 1| = {worst_row_gap:.2e} "
        f"(tolerance 1e-12); deficits in [{min_deficit:.2e}, bound{worst_excess:+.2e}] "
        f"over 8 strategies x 3 scenarios x depths 1..4, {elapsed:.1f}s"
    )
    assert worst_row_gap <= 1e-12
    assert min_deficit >= 0.0
    assert worst_excess <= 1e-12


def test_ac7_markov_property(acceptance_report):
    started = perf_counter()
    pvalues = _markov_pvalues(100_000)
    elapsed = perf_counter() - started
    ok = all(p >= 0.01 for p in pvalues.values())
    shown = ", ".join(f"{name}: p={p:.3f}" for name, p in pvalues.items())
    acceptance_report(
        f"AC-7 {_verdict(ok)}: history-independence given the present not "
        f"rejected at 0.01 on 10^5 periods ({shown}), {elapsed:.1f}s"
    )
    for name, p in pvalues.items():
        assert p >= 0.01, f"scenario {name} rejected first-order dependence (p={p})"


class TestNegativeControls:
    """AC-2 and AC-7 agree with the chain because slice lifetimes are
    memoryless: the DP releases each slice with probability
    ``1 - exp(-1/mu)`` a period, and initial slices get fresh exponential
    lifetimes. With the simulator's unit lifetimes replaced, at the same
    mean of 1, by a constant or by Erlang-4 draws, both checks must fail.

    The lifetimes are replaced in each block that ``simulate._draw_blocks``
    yields, after the block is drawn and before it is folded, so the
    creations keep their draws. AC-2 runs its bundled protocol; fewer runs
    let sampling noise alone exceed its tolerance. AC-7 runs a tenth of its
    10^5 periods per scenario, where exponential lifetimes still pass."""

    CONTROL_PERIODS = 10_000

    @staticmethod
    def _constant(rng, units):
        units.fill(1.0)

    @staticmethod
    def _erlang(rng, units):
        rng.standard_gamma(4.0, out=units)
        units /= 4.0

    @pytest.fixture(params=["exponential", "constant", "erlang-4"])
    def lifetimes(self, request, monkeypatch) -> str:
        """The unit-lifetime law of the test's runs; "exponential" leaves
        the simulator's own draws in place."""
        replace = {"constant": self._constant, "erlang-4": self._erlang}.get(request.param)
        if replace is not None:
            rng = np.random.default_rng(2024)
            draw = simulate._draw_blocks

            def drawn(*args):
                for block in draw(*args):
                    replace(rng, block[3])
                    yield block

            monkeypatch.setattr(simulate, "_draw_blocks", drawn)
        return request.param

    # AC-2 itself runs the exponential case of this protocol.
    @pytest.mark.parametrize("lifetimes", ["constant", "erlang-4"], indirect=True)
    def test_ac2_gap(self, lifetimes):
        worst = _figure2_worst_gap(figure2_document(load_config(default_config_path())))
        assert worst > 0.02, worst

    def test_ac7_markov_property(self, lifetimes):
        pvalues = _markov_pvalues(self.CONTROL_PERIODS)
        if lifetimes == "exponential":
            assert min(pvalues.values()) >= 0.01, pvalues
        else:
            assert max(pvalues.values()) < 0.01, pvalues
