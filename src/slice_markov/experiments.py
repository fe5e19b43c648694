"""Experiment configurations and protocol drivers.

A single JSON document describes one experiment: the resource model, the
named demand scenarios, a strategy selector, truncation depths, the
simulation protocol, and output options. The drivers here turn a parsed
configuration into plain result documents (dicts of JSON-ready values) that
the serializers write out; they hold no I/O themselves.

Result documents all embed the configuration hash and base seed so that any
output file is traceable to the exact inputs that produced it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .arrivals import DemandScenario
from .domain import (
    AdmissibilityRegion,
    ResourceModel,
    Strategy,
    always_accept_strategy,
    decline_all_strategy,
    enumerate_region,
    enumerate_valid_strategies,
    state_label,
    strategy_from_table,
    validate_strategy,
)
from .errors import ConfigError, InvalidStrategyError
from .markov import build_transition_matrix, distribution_after, truncation_tail_bound
from .simulate import SimConfig, estimate_empirical_matrix, rmse, simulate_episodes

log = logging.getLogger("slice_markov")

OUTPUT_FORMATS = ("csv", "json")

_TOP_LEVEL_KEYS = {
    "model", "scenarios", "strategy", "truncation", "renormalize", "sim",
    "figure2", "figure3", "output",
}


@dataclass(frozen=True)
class Figure2Protocol:
    """Distribution-evolution experiment: one scenario, fixed start, many
    short episodes, analytical and empirical per-period state PMFs."""

    scenario: str
    episodes: int = 10_000
    periods: int = 10
    q_plus_max: int = 4
    initial_state: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class Figure3Protocol:
    """Truncation-error sweep: every valid strategy on every listed
    scenario, simulated once per pair and scored at every truncation depth
    against that shared ground truth."""

    scenarios: tuple[str, ...]
    q_plus_max: tuple[int, ...]
    num_runs: int = 1000
    periods_per_run: int = 100


@dataclass(frozen=True)
class ExperimentConfig:
    model: ResourceModel
    scenarios: dict[str, DemandScenario]
    strategy_spec: object
    truncation: tuple[int, ...]
    sim: SimConfig
    renormalize: bool
    figure2: Figure2Protocol
    figure3: Figure3Protocol
    out_dir: str
    out_format: str

    def region(self) -> AdmissibilityRegion:
        return enumerate_region(self.model)

    def to_dict(self) -> dict:
        """JSON-ready effective configuration, overrides already applied."""
        return {
            "model": {
                "resource_pool": [float(r) for r in self.model.resource_pool],
                "cost_matrix": [[float(c) for c in row] for row in self.model.cost_matrix],
            },
            "scenarios": {
                name: {
                    "creation_rates": list(s.creation_rates),
                    "mean_lifetimes": list(s.mean_lifetimes),
                }
                for name, s in self.scenarios.items()
            },
            "strategy": self.strategy_spec,
            "truncation": list(self.truncation),
            "renormalize": self.renormalize,
            "sim": {
                "num_runs": self.sim.num_runs,
                "periods_per_run": self.sim.periods_per_run,
                "seed": self.sim.seed,
                "initial_state": None if self.sim.initial_state is None else list(self.sim.initial_state),
            },
            "figure2": {
                "scenario": self.figure2.scenario,
                "episodes": self.figure2.episodes,
                "periods": self.figure2.periods,
                "q_plus_max": self.figure2.q_plus_max,
                "initial_state": list(self.figure2.initial_state),
            },
            "figure3": {
                "scenarios": list(self.figure3.scenarios),
                "q_plus_max": list(self.figure3.q_plus_max),
                "num_runs": self.figure3.num_runs,
                "periods_per_run": self.figure3.periods_per_run,
            },
            "output": {"dir": self.out_dir, "format": self.out_format},
        }

    def config_hash(self) -> str:
        """Digest of the experiment inputs. The output section is left out:
        where results land must not change what they contain."""
        hashed = {k: v for k, v in self.to_dict().items() if k != "output"}
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _expect_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array, got {type(value).__name__}")
    return value


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    return value


def _positive_reals(value, where: str) -> tuple[float, ...]:
    out = []
    for x in _expect_list(value, where):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not x > 0:
            raise ConfigError(f"{where} entries must be positive numbers, got {x!r}")
        out.append(float(x))
    if not out:
        raise ConfigError(f"{where} must not be empty")
    return tuple(out)


def _parse_model(raw) -> ResourceModel:
    raw = _expect_mapping(raw, "model")
    unknown = set(raw) - {"resource_pool", "cost_matrix"}
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    if "resource_pool" not in raw or "cost_matrix" not in raw:
        raise ConfigError("model requires resource_pool and cost_matrix")
    pool = _expect_list(raw["resource_pool"], "model.resource_pool")
    costs = [_expect_list(row, "model.cost_matrix rows") for row in _expect_list(raw["cost_matrix"], "model.cost_matrix")]
    try:
        return ResourceModel(tuple(pool), tuple(tuple(row) for row in costs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def _parse_scenarios(raw, model: ResourceModel) -> dict[str, DemandScenario]:
    raw = _expect_mapping(raw, "scenarios")
    if not raw:
        raise ConfigError("scenarios must not be empty")
    out: dict[str, DemandScenario] = {}
    for name, body in raw.items():
        body = _expect_mapping(body, f"scenario {name!r}")
        unknown = set(body) - {"creation_rates", "mean_lifetimes"}
        if unknown:
            raise ConfigError(f"scenario {name!r}: unknown keys {sorted(unknown)}")
        try:
            scenario = DemandScenario(
                _positive_reals(body.get("creation_rates"), f"scenario {name!r} creation_rates"),
                _positive_reals(body.get("mean_lifetimes"), f"scenario {name!r} mean_lifetimes"),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scenario {name!r}: {exc}") from exc
        if scenario.num_types != model.num_types:
            raise ConfigError(
                f"scenario {name!r} describes {scenario.num_types} slice types, model has {model.num_types}"
            )
        out[name] = scenario
    return out


def _parse_strategy_spec(raw):
    if isinstance(raw, str):
        if raw not in ("always-accept", "decline-all"):
            raise ConfigError(f"unknown strategy name {raw!r}; use 'always-accept', 'decline-all', an id, or a table")
        return raw
    if isinstance(raw, bool):
        raise ConfigError("strategy must be a name, id, or table")
    if isinstance(raw, int):
        if raw < 0:
            raise ConfigError(f"strategy id must be nonnegative, got {raw}")
        return raw
    if isinstance(raw, list):
        table = []
        for row in raw:
            row = _expect_list(row, "strategy table rows")
            for cell in row:
                if not isinstance(cell, (bool, int)) or cell not in (0, 1, True, False):
                    raise ConfigError(f"strategy table cells must be 0/1 or booleans, got {cell!r}")
            table.append(tuple(bool(cell) for cell in row))
        return tuple(table)
    raise ConfigError(f"strategy must be a name, id, or table, got {type(raw).__name__}")


def _parse_truncation(raw) -> tuple[int, ...]:
    values = raw if isinstance(raw, list) else [raw]
    if not values:
        raise ConfigError("truncation must not be empty")
    return tuple(_positive_int(v, "truncation") for v in values)


def _parse_state(raw, model: ResourceModel, where: str) -> tuple[int, ...]:
    state = _expect_list(raw, where)
    if len(state) != model.num_types:
        raise ConfigError(f"{where} must have {model.num_types} entries")
    for x in state:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ConfigError(f"{where} entries must be nonnegative integers, got {x!r}")
    return tuple(state)


def _parse_sim(raw, model: ResourceModel) -> SimConfig:
    raw = _expect_mapping(raw, "sim")
    unknown = set(raw) - {"num_runs", "periods_per_run", "seed", "initial_state"}
    if unknown:
        raise ConfigError(f"unknown sim keys: {sorted(unknown)}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError(f"sim.seed must be an unsigned 64-bit integer, got {seed!r}")
    initial = raw.get("initial_state")
    if initial is not None:
        initial = _parse_state(initial, model, "sim.initial_state")
    try:
        return SimConfig(
            num_runs=_positive_int(raw.get("num_runs"), "sim.num_runs"),
            periods_per_run=_positive_int(raw.get("periods_per_run"), "sim.periods_per_run"),
            seed=seed,
            initial_state=initial,
        )
    except ValueError as exc:
        raise ConfigError(f"bad sim section: {exc}") from exc


def _parse_figure2(raw, model, scenarios, truncation) -> Figure2Protocol:
    defaults = {
        "scenario": "C" if "C" in scenarios else next(iter(scenarios)),
        "episodes": 10_000,
        "periods": 10,
        "q_plus_max": max(truncation),
        "initial_state": [0] * model.num_types,
    }
    if raw is not None:
        raw = _expect_mapping(raw, "figure2")
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown figure2 keys: {sorted(unknown)}")
        defaults.update(raw)
    name = defaults["scenario"]
    if name not in scenarios:
        raise ConfigError(f"figure2.scenario {name!r} is not a configured scenario")
    return Figure2Protocol(
        scenario=name,
        episodes=_positive_int(defaults["episodes"], "figure2.episodes"),
        periods=_positive_int(defaults["periods"], "figure2.periods"),
        q_plus_max=_positive_int(defaults["q_plus_max"], "figure2.q_plus_max"),
        initial_state=_parse_state(defaults["initial_state"], model, "figure2.initial_state"),
    )


def _parse_figure3(raw, scenarios, truncation, sim: SimConfig) -> Figure3Protocol:
    defaults = {
        "scenarios": list(scenarios),
        "q_plus_max": list(truncation),
        "num_runs": sim.num_runs,
        "periods_per_run": sim.periods_per_run,
    }
    if raw is not None:
        raw = _expect_mapping(raw, "figure3")
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown figure3 keys: {sorted(unknown)}")
        defaults.update(raw)
    names = _expect_list(defaults["scenarios"], "figure3.scenarios")
    for name in names:
        if name not in scenarios:
            raise ConfigError(f"figure3 scenario {name!r} is not a configured scenario")
    if not names:
        raise ConfigError("figure3.scenarios must not be empty")
    return Figure3Protocol(
        scenarios=tuple(names),
        q_plus_max=_parse_truncation(defaults["q_plus_max"]),
        num_runs=_positive_int(defaults["num_runs"], "figure3.num_runs"),
        periods_per_run=_positive_int(defaults["periods_per_run"], "figure3.periods_per_run"),
    )


def parse_config(
    raw: dict,
    seed_override: int | None = None,
    out_override: str | None = None,
    format_override: str | None = None,
    renormalize_override: bool | None = None,
) -> ExperimentConfig:
    """Validate a loaded JSON document into an ExperimentConfig.

    Overrides mirror the command-line flags and are applied before the
    effective configuration (and so its hash) is fixed.
    """
    raw = _expect_mapping(raw, "configuration")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for required in ("model", "scenarios", "sim"):
        if required not in raw:
            raise ConfigError(f"configuration requires a {required!r} section")
    model = _parse_model(raw["model"])
    scenarios = _parse_scenarios(raw["scenarios"], model)
    strategy_spec = _parse_strategy_spec(raw.get("strategy", "always-accept"))
    truncation = _parse_truncation(raw.get("truncation", [4]))
    sim = _parse_sim(raw["sim"], model)
    if seed_override is not None:
        if not 0 <= seed_override < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed_override}")
        sim = SimConfig(sim.num_runs, sim.periods_per_run, seed_override, sim.initial_state)
    renormalize = raw.get("renormalize", True)
    if not isinstance(renormalize, bool):
        raise ConfigError(f"renormalize must be a boolean, got {renormalize!r}")
    if renormalize_override is not None:
        renormalize = renormalize_override
    output = _expect_mapping(raw.get("output", {}), "output")
    unknown = set(output) - {"dir", "format"}
    if unknown:
        raise ConfigError(f"unknown output keys: {sorted(unknown)}")
    out_dir = out_override if out_override is not None else output.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.dir must be a nonempty string, got {out_dir!r}")
    out_format = format_override if format_override is not None else output.get("format", "csv")
    if out_format not in OUTPUT_FORMATS:
        raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}, got {out_format!r}")
    figure2 = _parse_figure2(raw.get("figure2"), model, scenarios, truncation)
    figure3 = _parse_figure3(raw.get("figure3"), scenarios, truncation, sim)
    return ExperimentConfig(
        model=model,
        scenarios=scenarios,
        strategy_spec=strategy_spec,
        truncation=truncation,
        sim=sim,
        renormalize=renormalize,
        figure2=figure2,
        figure3=figure3,
        out_dir=out_dir,
        out_format=out_format,
    )


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path!r} is not valid JSON: {exc}") from exc
    return parse_config(raw, **overrides)


def default_config_path() -> str:
    """Path of the bundled reference configuration."""
    return str(resources.files("slice_markov").joinpath("configs/baseline.json"))


def resolve_strategy(cfg: ExperimentConfig, region: AdmissibilityRegion | None = None) -> tuple[Strategy, str]:
    """Turn the configured strategy selector into a Strategy and a label."""
    region = cfg.region() if region is None else region
    spec = cfg.strategy_spec
    if spec == "always-accept":
        return always_accept_strategy(cfg.model, region), "always-accept"
    if spec == "decline-all":
        return decline_all_strategy(cfg.model, region), "decline-all"
    if isinstance(spec, int):
        strategies = enumerate_valid_strategies(cfg.model, region)
        if spec >= len(strategies):
            raise ConfigError(f"strategy id {spec} out of range; {len(strategies)} valid strategies exist")
        return strategies[spec], f"D{spec}"
    strategy = strategy_from_table(region, spec)
    if not validate_strategy(cfg.model, region, strategy):
        raise InvalidStrategyError("configured strategy table leads outside the region")
    return strategy, "custom"


def _child_seed(base_seed: int, *key: int) -> int:
    """Derived 64-bit seed for an independent sub-experiment stream."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def region_document(cfg: ExperimentConfig) -> dict:
    region = cfg.region()
    return {
        "kind": "region",
        "config_hash": cfg.config_hash(),
        "seed": cfg.sim.seed,
        "resource_pool": [float(r) for r in cfg.model.resource_pool],
        "cost_matrix": [[float(c) for c in row] for row in cfg.model.cost_matrix],
        "size": len(region),
        "columns": ["index", "label"] + [f"type_{n + 1}" for n in range(cfg.model.num_types)],
        "rows": [[i, state_label(s), *s] for i, s in enumerate(region.states)],
    }


def strategies_document(cfg: ExperimentConfig) -> dict:
    region = cfg.region()
    strategies = enumerate_valid_strategies(cfg.model, region)
    rows = []
    for i, strategy in enumerate(strategies):
        table = "|".join("".join("1" if b else "0" for b in row) for row in strategy.creation_accept)
        rows.append([f"D{i}", strategy.bits, table])
    return {
        "kind": "strategies",
        "config_hash": cfg.config_hash(),
        "seed": cfg.sim.seed,
        "count": len(strategies),
        "state_labels": [state_label(s) for s in region.states],
        "columns": ["id", "bits", "creation_accept"],
        "rows": rows,
    }


def matrix_documents(cfg: ExperimentConfig) -> list[dict]:
    """One analytical matrix per (scenario, truncation depth) with the
    configured strategy."""
    region = cfg.region()
    strategy, label = resolve_strategy(cfg, region)
    labels = [state_label(s) for s in region.states]
    docs = []
    for name, scenario in cfg.scenarios.items():
        for q in cfg.truncation:
            matrix = build_transition_matrix(
                cfg.model, region, scenario, strategy, q, renormalize=cfg.renormalize
            )
            docs.append({
                "kind": "matrix",
                "config_hash": cfg.config_hash(),
                "seed": cfg.sim.seed,
                "scenario": name,
                "creation_rates": list(scenario.creation_rates),
                "mean_lifetimes": list(scenario.mean_lifetimes),
                "strategy": label,
                "strategy_bits": strategy.bits,
                "q_plus_max": q,
                "renormalized": matrix.renormalized,
                "labels": labels,
                "entries": [[float(x) for x in row] for row in matrix.probs],
                "row_deficits": [float(x) for x in matrix.row_deficits],
                "deficit_bound": truncation_tail_bound(scenario, q),
            })
    return docs


def empirical_documents(
    cfg: ExperimentConfig, workers: int | None = None, include_traces: bool = False
) -> list[dict]:
    """Simulate the configured protocol once per scenario; empirical
    matrices, plus raw trajectories when asked for."""
    region = cfg.region()
    strategy, label = resolve_strategy(cfg, region)
    labels = [state_label(s) for s in region.states]
    docs = []
    for si, (name, scenario) in enumerate(cfg.scenarios.items()):
        seed = _child_seed(cfg.sim.seed, si)
        sim = SimConfig(cfg.sim.num_runs, cfg.sim.periods_per_run, seed, cfg.sim.initial_state)
        started = time.perf_counter()
        trajectories = simulate_episodes(cfg.model, region, scenario, strategy, sim, workers=workers)
        log.info("simulated scenario %s: %d runs x %d periods in %.1fs",
                 name, sim.num_runs, sim.periods_per_run, time.perf_counter() - started)
        empirical = estimate_empirical_matrix(region, trajectories)
        docs.append({
            "kind": "empirical",
            "config_hash": cfg.config_hash(),
            "seed": cfg.sim.seed,
            "scenario_seed": seed,
            "scenario": name,
            "strategy": label,
            "strategy_bits": strategy.bits,
            "num_runs": sim.num_runs,
            "periods_per_run": sim.periods_per_run,
            "labels": labels,
            "counts": [[int(c) for c in row] for row in empirical.counts],
            "entries": [[float(x) for x in row] for row in empirical.probs],
            "visits": [int(v) for v in empirical.visits],
            "zero_visit_rows": list(empirical.zero_visit_rows),
        })
        if include_traces:
            docs.append({
                "kind": "traces",
                "config_hash": cfg.config_hash(),
                "seed": cfg.sim.seed,
                "scenario_seed": seed,
                "scenario": name,
                "strategy": label,
                "labels": labels,
                "columns": ["run", "period", "state_index", "state_label"],
                "rows": [
                    [run, period, idx, labels[idx]]
                    for run, trajectory in enumerate(map(np.ndarray.tolist, trajectories))
                    for period, idx in enumerate(trajectory)
                ],
            })
    return docs


def figure2_document(cfg: ExperimentConfig, workers: int | None = None) -> dict:
    """Analytical vs simulated per-period state distributions.

    The analytical side always uses a renormalized matrix: iterating a
    deficit matrix would leak probability mass, so the renormalize flag only
    governs matrix outputs and error sweeps.
    """
    region = cfg.region()
    strategy, label = resolve_strategy(cfg, region)
    proto = cfg.figure2
    scenario = cfg.scenarios[proto.scenario]
    if proto.initial_state not in region.index_of:
        raise ConfigError(f"figure2 initial state {list(proto.initial_state)} lies outside the region")
    start = region.index_of[proto.initial_state]
    matrix = build_transition_matrix(
        cfg.model, region, scenario, strategy, proto.q_plus_max, renormalize=True
    )
    sim = SimConfig(proto.episodes, proto.periods, cfg.sim.seed, proto.initial_state)
    trajectories = simulate_episodes(cfg.model, region, scenario, strategy, sim, workers=workers)
    rows = []
    analytical = distribution_after(matrix, start, 0)
    for t in range(proto.periods + 1):
        if t:
            analytical = analytical @ matrix.probs
        empirical = np.bincount(trajectories[:, t], minlength=len(region)) / proto.episodes
        for i, s in enumerate(region.states):
            stderr = float(np.sqrt(empirical[i] * (1.0 - empirical[i]) / proto.episodes))
            rows.append([t, i, state_label(s), float(analytical[i]), float(empirical[i]), stderr])
    return {
        "kind": "figure2",
        "config_hash": cfg.config_hash(),
        "seed": cfg.sim.seed,
        "scenario": proto.scenario,
        "strategy": label,
        "strategy_bits": strategy.bits,
        "q_plus_max": proto.q_plus_max,
        "episodes": proto.episodes,
        "periods": proto.periods,
        "initial_state": list(proto.initial_state),
        "columns": ["period", "state_index", "state_label", "analytical", "empirical", "stderr"],
        "rows": rows,
    }


def figure3_document(cfg: ExperimentConfig, workers: int | None = None) -> dict:
    """Truncation-error sweep over scenarios, valid strategies, and depths.

    Each (scenario, strategy) pair runs one independent simulation with a
    derived seed; every truncation depth is then scored against that shared
    empirical matrix. Pairing the depths on common ground truth makes the
    depth comparison measure the truncation effect itself: re-simulating
    per depth would inject independent sampling noise that swamps the tiny
    analytical differences between deep truncations (strategies that accept
    little have sparsely visited rows whose estimates fluctuate far more
    than the truncation tail). The summary aggregates the error across
    strategies per (scenario, depth) with mean and population variance.
    """
    region = cfg.region()
    strategies = enumerate_valid_strategies(cfg.model, region)
    proto = cfg.figure3
    rows = []
    summary_rows = []
    for si, name in enumerate(proto.scenarios):
        scenario = cfg.scenarios[name]
        errors = {q: [] for q in proto.q_plus_max}
        started = time.perf_counter()
        for di, strategy in enumerate(strategies):
            seed = _child_seed(cfg.sim.seed, si, di)
            sim = SimConfig(proto.num_runs, proto.periods_per_run, seed, None)
            trajectories = simulate_episodes(cfg.model, region, scenario, strategy, sim, workers=workers)
            empirical = estimate_empirical_matrix(region, trajectories)
            for q in proto.q_plus_max:
                matrix = build_transition_matrix(
                    cfg.model, region, scenario, strategy, q, renormalize=cfg.renormalize
                )
                epsilon = rmse(matrix.probs, empirical)
                rows.append([name, f"D{di}", strategy.bits, q, epsilon, len(empirical.zero_visit_rows)])
                errors[q].append(epsilon)
        for q in proto.q_plus_max:
            summary_rows.append([name, q, float(np.mean(errors[q])), float(np.var(errors[q]))])
        log.info("scenario %s: %d strategies x %d depths in %.1fs; mean error %s",
                 name, len(strategies), len(proto.q_plus_max), time.perf_counter() - started,
                 " ".join(f"q{q}=%.3e" % float(np.mean(errors[q])) for q in proto.q_plus_max))
    return {
        "kind": "figure3",
        "config_hash": cfg.config_hash(),
        "seed": cfg.sim.seed,
        "renormalized": cfg.renormalize,
        "num_runs": proto.num_runs,
        "periods_per_run": proto.periods_per_run,
        "strategy_count": len(strategies),
        "columns": ["scenario", "strategy_id", "strategy_bits", "q_plus_max", "epsilon", "unvisited_rows"],
        "rows": rows,
        "summary_columns": ["scenario", "q_plus_max", "mean_epsilon", "var_epsilon"],
        "summary_rows": summary_rows,
    }
