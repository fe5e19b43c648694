"""Shared fixtures: the single-resource reference configuration used throughout."""

from __future__ import annotations

from operator import itemgetter

import numpy as np
import pytest

from slice_markov import (
    AdmissibilityRegion,
    DemandScenario,
    ResourceModel,
    always_accept_strategy,
    apply_request,
    decline_all_strategy,
    enumerate_region,
    enumerate_valid_strategies,
)


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_report(request):
    """Collect one pass/fail line per acceptance criterion; the lines are
    echoed immediately and repeated in the terminal summary."""
    lines = request.config._acceptance_lines

    def record(line: str) -> None:
        lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "_acceptance_lines", [])
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model() -> ResourceModel:
    """One resource of capacity 1.0; each slice consumes 0.3."""
    return ResourceModel(resource_pool=(1.0,), cost_matrix=((0.3,),))


@pytest.fixture(scope="session")
def region(model: ResourceModel) -> AdmissibilityRegion:
    return enumerate_region(model)


@pytest.fixture(scope="session")
def scenario_a() -> DemandScenario:
    return DemandScenario(creation_rates=(1.0,), mean_lifetimes=(4.0,))


@pytest.fixture(scope="session")
def scenario_b() -> DemandScenario:
    return DemandScenario(creation_rates=(0.8,), mean_lifetimes=(4.0,))


@pytest.fixture(scope="session")
def scenario_c() -> DemandScenario:
    return DemandScenario(creation_rates=(0.5,), mean_lifetimes=(4.0,))


@pytest.fixture(scope="session")
def scenarios(scenario_a, scenario_b, scenario_c):
    return {"A": scenario_a, "B": scenario_b, "C": scenario_c}


@pytest.fixture(scope="session")
def strategies(model, region):
    """All valid creation-decision strategies for the reference model."""
    return enumerate_valid_strategies(model, region)


@pytest.fixture(scope="session")
def accept_all(region):
    return always_accept_strategy(region)


@pytest.fixture(scope="session")
def decline_all(region):
    return decline_all_strategy(region)


def _reference_episode(region, scenario, strategy, periods, rng, decide=None) -> np.ndarray:
    """Per-event simulator: scalar draws every period, each request decided
    and applied with ``apply_request``. A request is decided by
    ``strategy.decide(kind, state)``, or by ``decide(kind, state, last,
    before)`` when given, where ``last`` is the state at the period's start
    and ``before`` the state at the boundary before it (the start itself in
    the first period)."""
    if decide is None:
        def decide(kind, state, last, before):
            return strategy.decide(kind, state)

    state = region.states[int(rng.integers(len(region)))]
    means = scenario.mean_lifetimes
    lifetimes = [
        [float(rng.exponential(means[n])) for _ in range(state[n])]
        for n in range(scenario.num_types)
    ]
    boundaries = [state, state]
    for _ in range(periods):
        events = []
        for n, rate in enumerate(scenario.creation_rates):
            events.extend((stamp, n + 1) for stamp in rng.random(rng.poisson(rate)))
        for n, per_type in enumerate(lifetimes):
            events.extend((remaining, -(n + 1)) for remaining in per_type if remaining < 1.0)
        events.sort(key=itemgetter(0))
        survivors = [[r - 1.0 for r in per_type if r >= 1.0] for per_type in lifetimes]
        for _, kind in events:
            if decide(kind, state, boundaries[-1], boundaries[-2]):
                state = apply_request(state, kind, True)
                if kind > 0:
                    survivors[kind - 1].append(float(rng.exponential(means[kind - 1])))
        lifetimes = survivors
        boundaries.append(state)
    return np.array([region.index_of[s] for s in boundaries[1:]])


@pytest.fixture(scope="session")
def reference_episode():
    """The per-event reference simulator, :func:`_reference_episode`."""
    return _reference_episode
