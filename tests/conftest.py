"""Shared fixtures: the single-resource reference configuration used throughout."""

from __future__ import annotations

import pytest

from slice_markov import (
    AdmissibilityRegion,
    DemandScenario,
    ResourceModel,
    always_accept_strategy,
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
