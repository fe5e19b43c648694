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

import json
import logging
import time
from dataclasses import dataclass
from importlib import resources

try:
    # CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before), the
    # same digest as hashlib's without loading OpenSSL's libcrypto.
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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
)
from .errors import ConfigError, GuardExceededError
from .markov import build_transition_matrix, truncation_tail_bound
from .serialize import TraceRows
from .simulate import (
    SimConfig,
    _draw_args,
    check_simulated_periods,
    estimate_empirical_matrix,
    rmse,
    simulate_episodes,
)

log = logging.getLogger("slice_markov")

OUTPUT_FORMATS = ("csv", "json")
# Most rows figure2's table may hold, (periods + 1) per state. Its rows are
# built in Python at about 6.6 us and 0.29 KB each, so the cap is about
# 28 s or 1.2 GB.
MAX_FIGURE2_ROWS = 1 << 22


@dataclass(frozen=True)
class Figure2Protocol:
    """Distribution-evolution experiment: one scenario, fixed start, many
    short episodes, analytical and empirical per-period state PMFs."""

    scenario: str
    episodes: int
    periods: int
    q_plus_max: int
    initial_state: tuple[int, ...]


@dataclass(frozen=True)
class Figure3Protocol:
    """Truncation-error sweep: every valid strategy on every listed
    scenario, simulated once per pair and scored at every truncation depth
    against that shared ground truth."""

    scenarios: tuple[str, ...]
    q_plus_max: tuple[int, ...]
    num_runs: int
    periods_per_run: int


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment. ``effective`` is the configuration document
    as validated: every default filled in, every flag override applied and
    every value normalised (numbers of the model and scenarios as floats,
    lists as tuples). The typed fields are built from it."""

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
    effective: dict

    def region(self) -> AdmissibilityRegion:
        return enumerate_region(self.model)

    def config_hash(self) -> str:
        """Digest of the experiment inputs. The output section is left out:
        where results land must not change what they contain."""
        hashed = {k: v for k, v in self.effective.items() if k != "output"}
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()


def _section(raw, where: str, required=(), overrides=None, **defaults) -> dict:
    """Check one configuration object (``null`` counts as ``{}``) for
    unknown and missing keys, and return a new dict of its values merged
    over ``defaults``, with the ``overrides`` that are not None (the
    command-line flags) merged over both."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(required) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{where} requires {' and '.join(missing)}")
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    return {**defaults, **raw, **given}


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array, got {type(value).__name__}")
    return value


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    return value


def _floats(value, where: str) -> tuple[float, ...]:
    """Array of numbers as floats; the model and scenario constructors
    check their ranges."""
    values = _expect_list(value, where)
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{where} entries must be numbers, got {x!r}")
    try:
        return tuple(float(x) for x in values)
    except OverflowError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _strategy_spec(raw):
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


def _distinct(values: tuple, where: str) -> tuple:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{where} lists {value!r} more than once")
    return values


def _truncation(raw, where: str) -> tuple[int, ...]:
    values = raw if isinstance(raw, list) else [raw]
    if not values:
        raise ConfigError(f"{where} must not be empty")
    return _distinct(tuple(_positive_int(v, where) for v in values), where)


def _state(raw, num_types: int, where: str) -> tuple[int, ...]:
    state = _expect_list(raw, where)
    if len(state) != num_types:
        raise ConfigError(f"{where} must have {num_types} entries")
    for x in state:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ConfigError(f"{where} entries must be nonnegative integers, got {x!r}")
    return tuple(state)


def _scenario_name(name, scenarios: dict, where: str) -> str:
    if not isinstance(name, str) or name not in scenarios:
        raise ConfigError(f"{where} {name!r} is not a configured scenario")
    return name


def parse_config(
    raw: dict,
    seed_override: int | None = None,
    out_override: str | None = None,
    format_override: str | None = None,
    renormalize_override: bool | None = None,
) -> ExperimentConfig:
    """Validate a loaded JSON document into an ExperimentConfig.

    Overrides mirror the command-line flags. Each is merged into its
    section before that section is checked, so it passes the same checks
    as a value from the file and is part of the effective configuration
    (and so of its hash).
    """
    doc = _section(
        raw, "configuration", ("model", "scenarios", "sim"), {"renormalize": renormalize_override},
        strategy="always-accept", truncation=[4], renormalize=True, figure2=None, figure3=None, output=None,
    )
    model = doc["model"] = _section(doc["model"], "model", ("resource_pool", "cost_matrix"))
    model["resource_pool"] = _floats(model["resource_pool"], "model.resource_pool")
    model["cost_matrix"] = tuple(
        _floats(row, "model.cost_matrix rows") for row in _expect_list(model["cost_matrix"], "model.cost_matrix")
    )
    try:
        resource_model = ResourceModel(**model)
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc

    if not isinstance(doc["scenarios"], dict) or not doc["scenarios"]:
        raise ConfigError("scenarios must be a nonempty object")
    bodies, scenarios = {}, {}
    for name, body in doc["scenarios"].items():
        where = f"scenario {name!r}"
        if {"/", "\\", "\0"} & set(name):
            raise ConfigError(f"{where}: names become part of output file names and must not contain '/', '\\' or NUL")
        body = bodies[name] = _section(body, where, ("creation_rates", "mean_lifetimes"))
        for key in body:
            body[key] = _floats(body[key], f"{where} {key}")
        try:
            scenarios[name] = DemandScenario(**body)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if scenarios[name].num_types != resource_model.num_types:
            raise ConfigError(
                f"{where} describes {scenarios[name].num_types} slice types, model has {resource_model.num_types}"
            )
    doc["scenarios"] = bodies

    doc["strategy"] = _strategy_spec(doc["strategy"])
    truncation = doc["truncation"] = _truncation(doc["truncation"], "truncation")
    if not isinstance(doc["renormalize"], bool):
        raise ConfigError(f"renormalize must be a boolean, got {doc['renormalize']!r}")

    sim = doc["sim"] = _section(
        doc["sim"], "sim", ("num_runs", "periods_per_run"), {"seed": seed_override}, seed=0, initial_state=None
    )
    sim["num_runs"] = _positive_int(sim["num_runs"], "sim.num_runs")
    sim["periods_per_run"] = _positive_int(sim["periods_per_run"], "sim.periods_per_run")
    if not isinstance(sim["seed"], int) or isinstance(sim["seed"], bool) or not 0 <= sim["seed"] < 2**64:
        raise ConfigError(f"sim.seed must be an unsigned 64-bit integer, got {sim['seed']!r}")
    if sim["initial_state"] is not None:
        sim["initial_state"] = _state(sim["initial_state"], resource_model.num_types, "sim.initial_state")

    figure2 = doc["figure2"] = _section(
        doc["figure2"], "figure2", scenario="C" if "C" in scenarios else next(iter(scenarios)),
        episodes=10_000, periods=10, q_plus_max=max(truncation), initial_state=[0] * resource_model.num_types,
    )
    figure2["scenario"] = _scenario_name(figure2["scenario"], scenarios, "figure2.scenario")
    for key in ("episodes", "periods", "q_plus_max"):
        figure2[key] = _positive_int(figure2[key], f"figure2.{key}")
    figure2["initial_state"] = _state(figure2["initial_state"], resource_model.num_types, "figure2.initial_state")

    figure3 = doc["figure3"] = _section(
        doc["figure3"], "figure3", scenarios=list(scenarios), q_plus_max=list(truncation),
        num_runs=sim["num_runs"], periods_per_run=sim["periods_per_run"],
    )
    names = _expect_list(figure3["scenarios"], "figure3.scenarios")
    figure3["scenarios"] = _distinct(
        tuple(_scenario_name(name, scenarios, "figure3 scenario") for name in names), "figure3.scenarios"
    )
    if not names:
        raise ConfigError("figure3.scenarios must not be empty")
    figure3["q_plus_max"] = _truncation(figure3["q_plus_max"], "figure3.q_plus_max")
    for key in ("num_runs", "periods_per_run"):
        figure3[key] = _positive_int(figure3[key], f"figure3.{key}")

    output = doc["output"] = _section(
        doc["output"], "output", (), {"dir": out_override, "format": format_override}, dir="out", format="csv"
    )
    if not isinstance(output["dir"], str) or not output["dir"]:
        raise ConfigError(f"output.dir must be a nonempty string, got {output['dir']!r}")
    if output["format"] not in OUTPUT_FORMATS:
        raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}, got {output['format']!r}")

    return ExperimentConfig(
        model=resource_model,
        scenarios=scenarios,
        strategy_spec=doc["strategy"],
        truncation=truncation,
        sim=SimConfig(**sim),
        renormalize=doc["renormalize"],
        figure2=Figure2Protocol(**figure2),
        figure3=Figure3Protocol(**figure3),
        out_dir=output["dir"],
        out_format=output["format"],
        effective=doc,
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


def resolve_strategy(cfg: ExperimentConfig, region: AdmissibilityRegion) -> tuple[Strategy, str]:
    """Turn the configured strategy selector into a Strategy over ``region``
    and a label."""
    spec = cfg.strategy_spec
    if spec == "always-accept":
        return always_accept_strategy(region), "always-accept"
    if spec == "decline-all":
        return decline_all_strategy(region), "decline-all"
    if isinstance(spec, int):
        # Strategy D<id> is the id-th submask of the creation mask in
        # ascending order: the id's bits, lowest first, placed on the mask's
        # set bits, lowest first.
        mask = region.creation_mask
        free = [bit for bit in range(mask.bit_length()) if mask >> bit & 1]
        if spec >> len(free):
            raise ConfigError(f"strategy id {spec} out of range; {1 << len(free)} valid strategies exist")
        bits = sum(1 << bit for k, bit in enumerate(free) if spec >> k & 1)
        return Strategy(region, bits), f"D{spec}"
    return strategy_from_table(region, spec), "custom"


def _child_seed(base_seed: int, *key: int) -> int:
    """Derived 64-bit seed for an independent sub-experiment stream."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _document(kind: str, cfg: ExperimentConfig, **fields) -> dict:
    """A result document: its kind, the configuration hash and the base
    seed, then its own fields."""
    return {"kind": kind, "config_hash": cfg.config_hash(), "seed": cfg.sim.seed, **fields}


def region_document(cfg: ExperimentConfig) -> dict:
    region = cfg.region()
    return _document(
        "region", cfg,
        resource_pool=[float(r) for r in cfg.model.resource_pool],
        cost_matrix=[[float(c) for c in row] for row in cfg.model.cost_matrix],
        size=len(region),
        columns=["index", "label"] + [f"type_{n + 1}" for n in range(cfg.model.num_types)],
        rows=[[i, state_label(s), *s] for i, s in enumerate(region.states)],
    )


def strategies_document(cfg: ExperimentConfig) -> dict:
    region = cfg.region()
    strategies = enumerate_valid_strategies(cfg.model, region)
    width = region.num_types
    rows = []
    for i, strategy in enumerate(strategies):
        # The decision table, one 0/1 group per state: bit row*N + n, lowest first.
        cells = format(strategy.bits, f"0{len(region) * width}b")[::-1]
        table = "|".join(cells[row:row + width] for row in range(0, len(cells), width))
        rows.append([f"D{i}", strategy.bits, table])
    return _document(
        "strategies", cfg,
        count=len(strategies),
        state_labels=[state_label(s) for s in region.states],
        columns=["id", "bits", "creation_accept"],
        rows=rows,
    )


def matrix_documents(cfg: ExperimentConfig) -> list[dict]:
    """One analytical matrix per (scenario, truncation depth) with the
    configured strategy."""
    region = cfg.region()
    strategy, label = resolve_strategy(cfg, region)
    labels = [state_label(s) for s in region.states]
    docs = []
    for name, scenario in cfg.scenarios.items():
        # Deepest first, so the strategy's ordering table is built once and
        # every shallower depth is read from it.
        matrices = {
            q: build_transition_matrix(cfg.model, region, scenario, strategy, q, renormalize=cfg.renormalize)
            for q in sorted(cfg.truncation, reverse=True)
        }
        for q in cfg.truncation:
            matrix = matrices[q]
            docs.append(_document(
                "matrix", cfg,
                scenario=name,
                creation_rates=list(scenario.creation_rates),
                mean_lifetimes=list(scenario.mean_lifetimes),
                strategy=label,
                strategy_bits=strategy.bits,
                q_plus_max=q,
                renormalized=matrix.renormalized,
                labels=labels,
                entries=matrix.probs.tolist(),
                row_deficits=matrix.row_deficits.tolist(),
                deficit_bound=truncation_tail_bound(scenario, q),
            ))
    return docs


def empirical_documents(cfg: ExperimentConfig, include_traces: bool = False) -> list[dict]:
    """Simulate the configured protocol once per scenario; empirical
    matrices, plus raw trajectories when asked for."""
    region = cfg.region()
    if cfg.sim.initial_state is not None and cfg.sim.initial_state not in region.index_of:
        raise ConfigError(f"sim initial state {list(cfg.sim.initial_state)} lies outside the region")
    strategy, label = resolve_strategy(cfg, region)
    labels = [state_label(s) for s in region.states]
    docs = []
    for si, (name, scenario) in enumerate(cfg.scenarios.items()):
        seed = _child_seed(cfg.sim.seed, si)
        sim = SimConfig(cfg.sim.num_runs, cfg.sim.periods_per_run, seed, cfg.sim.initial_state)
        started = time.perf_counter()
        trajectories = simulate_episodes(scenario, strategy, sim)
        log.info("simulated scenario %s: %d runs x %d periods in %.1fs",
                 name, sim.num_runs, sim.periods_per_run, time.perf_counter() - started)
        empirical = estimate_empirical_matrix(region, trajectories)
        docs.append(_document(
            "empirical", cfg,
            scenario_seed=seed,
            scenario=name,
            strategy=label,
            strategy_bits=strategy.bits,
            num_runs=sim.num_runs,
            periods_per_run=sim.periods_per_run,
            labels=labels,
            counts=empirical.counts.tolist(),
            entries=empirical.probs.tolist(),
            visits=empirical.visits.tolist(),
            zero_visit_rows=list(empirical.zero_visit_rows),
        ))
        if include_traces:
            docs.append(_document(
                "traces", cfg,
                scenario_seed=seed,
                scenario=name,
                strategy=label,
                labels=labels,
                columns=["run", "period", "state_index", "state_label"],
                rows=TraceRows(trajectories, labels),
            ))
    return docs


def figure2_document(cfg: ExperimentConfig) -> dict:
    """Analytical vs simulated per-period state distributions.

    The analytical side always uses a renormalized matrix: iterating a
    deficit matrix would leak probability mass, so the renormalize flag only
    governs matrix outputs and error sweeps. A table of more than
    ``MAX_FIGURE2_ROWS`` rows is refused before the build and the
    simulation, after the simulation's period and draw caps.
    """
    region = cfg.region()
    strategy, label = resolve_strategy(cfg, region)
    proto = cfg.figure2
    scenario = cfg.scenarios[proto.scenario]
    if proto.initial_state not in region.index_of:
        raise ConfigError(f"figure2 initial state {list(proto.initial_state)} lies outside the region")
    start = region.index_of[proto.initial_state]
    # Runs past the period cap or the draw cap are refused as such first, in
    # simulate_episodes' order; it checks them again.
    check_simulated_periods((proto.episodes, "runs"), (proto.periods, "periods"))
    _draw_args(scenario, region, proto.periods)
    table_rows = (proto.periods + 1) * len(region)
    if table_rows > MAX_FIGURE2_ROWS:
        raise GuardExceededError(
            f"figure2 of {proto.periods} periods over {len(region)} states makes {table_rows} rows, "
            f"above the cap of {MAX_FIGURE2_ROWS} rows"
        )
    matrix = build_transition_matrix(
        cfg.model, region, scenario, strategy, proto.q_plus_max, renormalize=True
    )
    sim = SimConfig(proto.episodes, proto.periods, cfg.sim.seed, proto.initial_state)
    trajectories = simulate_episodes(scenario, strategy, sim)
    rows = []
    analytical = np.zeros(len(region))
    analytical[start] = 1.0
    for t in range(proto.periods + 1):
        if t:
            analytical = analytical @ matrix.probs
        empirical = np.bincount(trajectories[:, t], minlength=len(region)) / proto.episodes
        for i, s in enumerate(region.states):
            stderr = float(np.sqrt(empirical[i] * (1.0 - empirical[i]) / proto.episodes))
            rows.append([t, i, state_label(s), float(analytical[i]), float(empirical[i]), stderr])
    return _document(
        "figure2", cfg,
        scenario=proto.scenario,
        strategy=label,
        strategy_bits=strategy.bits,
        q_plus_max=proto.q_plus_max,
        episodes=proto.episodes,
        periods=proto.periods,
        initial_state=list(proto.initial_state),
        columns=["period", "state_index", "state_label", "analytical", "empirical", "stderr"],
        rows=rows,
    )


def figure3_document(cfg: ExperimentConfig) -> dict:
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
    proto = cfg.figure3
    # Counted, not enumerated: listing 2**20 strategies alone takes seconds.
    pairs = len(proto.scenarios) * 2 ** region.creation_mask.bit_count()
    check_simulated_periods(
        (pairs, "(scenario, strategy) pairs"), (proto.num_runs, "runs"), (proto.periods_per_run, "periods")
    )
    strategies = enumerate_valid_strategies(cfg.model, region)
    rows = []
    summary_rows = []
    for si, name in enumerate(proto.scenarios):
        scenario = cfg.scenarios[name]
        errors = {q: [] for q in proto.q_plus_max}
        started = time.perf_counter()
        for di, strategy in enumerate(strategies):
            # Builds draw no randomness; making them first lets a depth over
            # the bag cap fail before any simulation runs, and deepest first
            # builds the strategy's ordering table once.
            matrices = {
                q: build_transition_matrix(cfg.model, region, scenario, strategy, q, renormalize=cfg.renormalize)
                for q in sorted(proto.q_plus_max, reverse=True)
            }
            seed = _child_seed(cfg.sim.seed, si, di)
            sim = SimConfig(proto.num_runs, proto.periods_per_run, seed, None)
            trajectories = simulate_episodes(scenario, strategy, sim)
            empirical = estimate_empirical_matrix(region, trajectories)
            for q in proto.q_plus_max:
                epsilon = rmse(matrices[q].probs, empirical)
                rows.append([name, f"D{di}", strategy.bits, q, epsilon, len(empirical.zero_visit_rows)])
                errors[q].append(epsilon)
        for q in proto.q_plus_max:
            summary_rows.append([name, q, float(np.mean(errors[q])), float(np.var(errors[q]))])
        log.info("scenario %s: %d strategies x %d depths in %.1fs; mean error %s",
                 name, len(strategies), len(proto.q_plus_max), time.perf_counter() - started,
                 " ".join(f"q{q}=%.3e" % float(np.mean(errors[q])) for q in proto.q_plus_max))
    return _document(
        "figure3", cfg,
        renormalized=cfg.renormalize,
        num_runs=proto.num_runs,
        periods_per_run=proto.periods_per_run,
        strategy_count=len(strategies),
        columns=["scenario", "strategy_id", "strategy_bits", "q_plus_max", "epsilon", "unvisited_rows"],
        rows=rows,
        summary_columns=["scenario", "q_plus_max", "mean_epsilon", "var_epsilon"],
        summary_rows=summary_rows,
    )
