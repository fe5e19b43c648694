"""Tests for configuration parsing and the experiment drivers."""

from __future__ import annotations

import copy
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slice_markov import (
    ConfigError,
    DegenerateModelError,
    InvalidStrategyError,
    default_config_path,
    enumerate_valid_strategies,
    figure2_document,
    figure3_document,
    load_config,
    parse_config,
    resolve_strategy,
)
from slice_markov.cli import main
from slice_markov.experiments import (
    empirical_documents,
    matrix_documents,
    region_document,
    strategies_document,
)
from slice_markov.serialize import TraceRows, _write_table, dump

PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
BASELINE_HASH = "195938a4b816e0b89e34b5d69aa0be1198d50b45ea77e387e6ff215e90b7a23a"


def baseline_raw() -> dict:
    with open(default_config_path(), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def raw():
    return baseline_raw()


def n3_traces_raw(num_runs: int, periods_per_run: int) -> dict:
    """The perfbench N=3 traces configuration, shrunk to the given runs."""
    with open(PERFBENCH_CONFIGS / "n3_traces.json", encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["sim"].update(num_runs=num_runs, periods_per_run=periods_per_run)
    return raw


def n3_config(num_runs: int, periods_per_run: int):
    return parse_config(n3_traces_raw(num_runs, periods_per_run))


def two_type_raw() -> dict:
    """baseline.json with two slice types (costs 0.3 and 0.5 of a pool of
    1.0): 7 states, 128 valid strategies."""
    raw = baseline_raw()
    raw["model"] = {"resource_pool": [1.0], "cost_matrix": [[0.3, 0.5]]}
    raw["scenarios"] = {"A": {"creation_rates": [1.0, 0.5], "mean_lifetimes": [4.0, 4.0]}}
    raw["figure2"].update(scenario="A", initial_state=[0, 0])
    raw["figure3"]["scenarios"] = ["A"]
    return raw


def small_config(**edits):
    """Baseline config shrunk for fast driver tests."""
    raw = baseline_raw()
    raw["sim"].update({"num_runs": 20, "periods_per_run": 10})
    raw["figure2"].update({"episodes": 200, "periods": 4})
    raw["figure3"].update(
        {"scenarios": ["C"], "q_plus_max": [1, 2], "num_runs": 10, "periods_per_run": 10}
    )
    for key, value in edits.items():
        raw[key] = value
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParseConfig:
    def test_baseline_parses(self, raw):
        cfg = parse_config(raw)
        assert set(cfg.scenarios) == {"A", "B", "C"}
        assert cfg.truncation == (1, 2, 3, 4)
        assert cfg.sim.seed == 42
        assert cfg.renormalize is True
        assert cfg.out_format == "csv"

    def test_default_config_path_loads(self):
        cfg = load_config(default_config_path())
        assert len(cfg.region()) == 4

    def test_unknown_top_level_key_rejected(self, raw):
        raw["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            parse_config(raw)

    def test_missing_model_rejected(self, raw):
        del raw["model"]
        with pytest.raises(ConfigError, match="model"):
            parse_config(raw)

    def test_missing_scenarios_rejected(self, raw):
        del raw["scenarios"]
        with pytest.raises(ConfigError, match="scenarios"):
            parse_config(raw)

    def test_missing_sim_rejected(self, raw):
        del raw["sim"]
        with pytest.raises(ConfigError, match="sim"):
            parse_config(raw)

    def test_unknown_model_key_rejected(self, raw):
        raw["model"]["color"] = "red"
        with pytest.raises(ConfigError, match="color"):
            parse_config(raw)

    def test_degenerate_model_keeps_its_own_error(self, raw):
        # Unbounded regions are a modelling problem, not a syntax problem;
        # the distinct error type carries its own process exit code.
        raw["model"]["cost_matrix"] = [[0.0]]
        with pytest.raises(DegenerateModelError):
            parse_config(raw)

    def test_unknown_scenario_key_rejected(self, raw):
        raw["scenarios"]["A"]["flavor"] = "sour"
        with pytest.raises(ConfigError, match="flavor"):
            parse_config(raw)

    def test_nonpositive_rate_rejected(self, raw):
        raw["scenarios"]["A"]["creation_rates"] = [0.0]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_scenario_type_count_mismatch_rejected(self, raw):
        raw["scenarios"]["A"]["creation_rates"] = [0.5, 0.5]
        raw["scenarios"]["A"]["mean_lifetimes"] = [4.0, 4.0]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_strategy_name_rejected(self, raw):
        raw["strategy"] = "optimal"
        with pytest.raises(ConfigError, match="optimal"):
            parse_config(raw)

    def test_negative_strategy_id_rejected(self, raw):
        raw["strategy"] = -1
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_strategy_table_accepted(self, raw):
        raw["strategy"] = [[1], [1], [0], [0]]
        cfg = parse_config(raw)
        assert cfg.strategy_spec == ((True,), (True,), (False,), (False,))

    def test_strategy_table_bad_cell_rejected(self, raw):
        raw["strategy"] = [[1], [2], [0], [0]]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_zero_truncation_rejected(self, raw):
        raw["truncation"] = [0]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_scalar_truncation_accepted(self, raw):
        raw["truncation"] = 3
        assert parse_config(raw).truncation == (3,)

    def test_unknown_sim_key_rejected(self, raw):
        raw["sim"]["warmup"] = 5
        with pytest.raises(ConfigError, match="warmup"):
            parse_config(raw)

    def test_bad_seed_rejected(self, raw):
        raw["sim"]["seed"] = -3
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["sim"]["seed"] = "forty-two"
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_initial_state_validated(self, raw):
        raw["sim"]["initial_state"] = [1, 2]
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["sim"]["initial_state"] = [-1]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_figure2_unknown_scenario_rejected(self, raw):
        raw["figure2"]["scenario"] = "Z"
        with pytest.raises(ConfigError, match="Z"):
            parse_config(raw)

    def test_figure3_unknown_scenario_rejected(self, raw):
        raw["figure3"]["scenarios"] = ["A", "Z"]
        with pytest.raises(ConfigError, match="Z"):
            parse_config(raw)

    def test_figure_sections_optional(self, raw):
        del raw["figure2"]
        del raw["figure3"]
        cfg = parse_config(raw)
        assert cfg.figure2.scenario == "C"
        assert cfg.figure2.q_plus_max == 4
        assert cfg.figure3.scenarios == ("A", "B", "C")
        assert cfg.figure3.q_plus_max == (1, 2, 3, 4)

    def test_bad_output_format_rejected(self, raw):
        raw["output"]["format"] = "parquet"
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_not_a_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestOverrides:
    def test_seed_override(self, raw):
        cfg = parse_config(raw, seed_override=7)
        assert cfg.sim.seed == 7

    def test_out_and_format_overrides(self, raw):
        cfg = parse_config(raw, out_override="elsewhere", format_override="json")
        assert cfg.out_dir == "elsewhere"
        assert cfg.out_format == "json"

    def test_renormalize_override(self, raw):
        cfg = parse_config(raw, renormalize_override=False)
        assert cfg.renormalize is False

    def test_bad_seed_override_rejected(self, raw):
        with pytest.raises(ConfigError):
            parse_config(raw, seed_override=-1)


class TestConfigHash:
    def test_hash_is_hex_sha256(self, raw):
        digest = parse_config(raw).config_hash()
        assert len(digest) == 64
        int(digest, 16)

    def test_hash_stable_across_parses(self, raw):
        assert parse_config(raw).config_hash() == parse_config(copy.deepcopy(raw)).config_hash()

    def test_hash_ignores_output_location(self, raw):
        base = parse_config(raw).config_hash()
        moved = parse_config(raw, out_override="elsewhere", format_override="json")
        assert moved.config_hash() == base

    def test_hash_tracks_seed(self, raw):
        base = parse_config(raw).config_hash()
        reseeded = parse_config(raw, seed_override=7)
        assert reseeded.config_hash() != base

    def test_hash_tracks_model(self, raw):
        base = parse_config(raw).config_hash()
        raw["model"]["resource_pool"] = [2.0]
        assert parse_config(raw).config_hash() != base

    @pytest.mark.parametrize("path, digest", [
        (default_config_path(), BASELINE_HASH),
        (PERFBENCH_CONFIGS / "n3_matrix.json",
         "91a3d6102452111247ec45c836d3c387f22461f53a4d6a6aba048a07f08da237"),
        (PERFBENCH_CONFIGS / "n3_traces.json",
         "d137f7708d93e713fe99e72323842d2c3800371a3d580529884765e60230195a"),
    ])
    def test_golden_hash(self, path, digest):
        # Published outputs carry these digests; the hashed document must
        # not change shape, key order or number spelling.
        assert load_config(str(path)).config_hash() == digest

    def test_integer_spelling_hashes_like_float(self, raw):
        raw["model"]["resource_pool"] = [1]
        raw["scenarios"]["A"]["creation_rates"] = [1]
        assert parse_config(raw).config_hash() == BASELINE_HASH


class TestGoldenOutputs:
    # SHA-256 of every file `simulate --traces` writes for a small N=3
    # model, whose state labels ("s=[1,0,2]") need CSV quoting. Published
    # trajectories must keep these bytes through any change to how trace
    # rows are held or written.
    GOLDEN = {
        "csv": {
            "empirical_A.csv":
                "9e6b3fc3ef818e6e50c4886a4fbaf3cbf42ae47b1af04282c2e611a4f989207a",
            "empirical_C.csv":
                "62268490ca5ffd3f2a900bff7c5d304632d950d184391cebf75a305df4753ba7",
            "traces_A.csv":
                "cf28db3a9620890407cc82e2ae0b3d1453b9815a955867d1b55bf49ae79032b4",
            "traces_C.csv":
                "5abd834b0a8ddaf288d5e5fb306b0118eaf6ead1498e61b8cbc01452aaef8daf",
        },
        "json": {
            "empirical_A.json":
                "12f9355732ceb913b20e55c5a27f7d80e86e14edfd6c9d795a5212e42cea0d31",
            "empirical_C.json":
                "fc1c9ed5d5a1c3f692fc53a64c356474add5246e5ff1c9980442bf9e5e30720f",
            "traces_A.json":
                "2e8b6f57bcdb43f2da3b20acc957a74ce75f937f45b918da6bdde904342d38b8",
            "traces_C.json":
                "ad0d8ca5de1bbb0ff9599e70d12641b338bc0d5586f3847e2b2111861ca268a3",
        },
    }

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_simulate_traces_bytes(self, tmp_path, out_format):
        config = tmp_path / "n3_small.json"
        config.write_text(json.dumps(n3_traces_raw(200, 5)), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), "--traces", "--quiet",
                "--out", str(out), "--format", out_format]
        assert main(argv) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == self.GOLDEN[out_format]

    # The same for the one-type baseline.json figures at a reduced protocol;
    # they pin the simulator's single-rate path.
    FIGURE_GOLDEN = {
        ("figure3", "csv"): {
            "figure3.csv": "a8eb06a3e8c32f918af752fb047e7bd3ce16bfcd8d8feaa7685dfa109f7f6b44",
            "figure3_summary.csv":
                "fed407ac456b99fb2207761ab37b14a765ac28f8805dfbac70cdfa063bb2a66a",
        },
        ("figure3", "json"): {
            "figure3.json": "1247535346b7d40aef793d94792af32749d8c913e291bb21f40aea2d2b8e5119",
        },
        ("figure2", "csv"): {
            "figure2.csv": "be4e78ff880cf26bb8937130d2d3ddcd04ee4781de1e6387360008583ffb9a58",
        },
        ("figure2", "json"): {
            "figure2.json": "5b2e5d7ac6dbe191b60c1ef330b058cc40ee6f9baa3b03693309304b6799f7e6",
        },
    }

    def figure_digests(self, tmp_path, command, out_format):
        raw = baseline_raw()
        raw["figure3"].update(num_runs=50, periods_per_run=100)
        raw["figure2"].update(episodes=500)
        config = tmp_path / "baseline_small.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--quiet", "--out", str(out),
                "--format", out_format]
        assert main(argv) == 0
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())}

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_figure3_bytes(self, tmp_path, out_format):
        digests = self.figure_digests(tmp_path, "figure3", out_format)
        assert digests == self.FIGURE_GOLDEN["figure3", out_format]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_figure2_bytes(self, tmp_path, out_format):
        digests = self.figure_digests(tmp_path, "figure2", out_format)
        assert digests == self.FIGURE_GOLDEN["figure2", out_format]

    # The same for the region and the 128 valid strategies of the two-type
    # model, which pin the enumeration order and the strategy bits.
    ENUMERATION_GOLDEN = {
        ("region", "csv"): {
            "region.csv": "4fe25506be0fe08b53e70e4a39ea33cfb864cf651d554ce09610f789dd5d4014",
        },
        ("region", "json"): {
            "region.json": "8ff0ab2e58837083b13eba85c0bfd9270c2db2a781cf6d2c6f6e4b992b84ae2f",
        },
        ("strategies", "csv"): {
            "strategies.csv": "f1b530022bfdfad6cec86bc8de6baea5d02d51e58584761efc85b24faa9af1ff",
        },
        ("strategies", "json"): {
            "strategies.json": "b340e30efea0d16777bd9fe58d7e966ab7dd2178e2afea2debbcb973e5e728d2",
        },
    }

    @pytest.mark.parametrize("command, out_format", sorted(ENUMERATION_GOLDEN))
    def test_enumeration_bytes(self, tmp_path, capsys, command, out_format):
        config = tmp_path / "two_type.json"
        config.write_text(json.dumps(two_type_raw()), encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--quiet", "--out", str(out),
                "--format", out_format]
        assert main(argv) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == self.ENUMERATION_GOLDEN[command, out_format]


# ---------------------------------------------------------------------------
# Strategy resolution
# ---------------------------------------------------------------------------


class TestResolveStrategy:
    def test_always_accept(self, raw):
        cfg = parse_config(raw)
        strategy, label = resolve_strategy(cfg)
        assert label == "always-accept"
        assert strategy.bits == 0b0111

    def test_decline_all(self, raw):
        raw["strategy"] = "decline-all"
        strategy, label = resolve_strategy(parse_config(raw))
        assert label == "decline-all"
        assert strategy.bits == 0

    def test_numeric_id(self, raw):
        raw["strategy"] = 5
        strategy, label = resolve_strategy(parse_config(raw))
        assert label == "D5"
        assert strategy.bits == 5

    def test_ids_match_enumeration(self, raw):
        for body, count in ((raw, 8), (two_type_raw(), 128)):
            cfg = parse_config(body)
            region = cfg.region()
            enumerated = enumerate_valid_strategies(cfg.model, region)
            assert len(enumerated) == count
            for i, expected in enumerate(enumerated):
                body["strategy"] = i
                strategy, label = resolve_strategy(parse_config(body), region)
                assert (label, strategy) == (f"D{i}", expected)

    def test_id_out_of_range(self, raw):
        raw["strategy"] = 8
        with pytest.raises(ConfigError, match="out of range"):
            resolve_strategy(parse_config(raw))

    def test_explicit_table(self, raw):
        raw["strategy"] = [[1], [0], [1], [0]]
        strategy, label = resolve_strategy(parse_config(raw))
        assert label == "custom"
        assert strategy.bits == 0b0101

    def test_invalid_table_rejected(self, raw):
        raw["strategy"] = [[1], [1], [1], [1]]  # accepts out of the region
        with pytest.raises(InvalidStrategyError):
            resolve_strategy(parse_config(raw))


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------


class TestStaticDocuments:
    def test_region_document(self):
        cfg = small_config()
        doc = region_document(cfg)
        assert doc["kind"] == "region"
        assert doc["size"] == 4
        assert doc["rows"][0] == [0, "s=[0]", 0]
        assert doc["rows"][3] == [3, "s=[3]", 3]
        assert doc["config_hash"] == cfg.config_hash()

    def test_strategies_document(self):
        cfg = small_config()
        doc = strategies_document(cfg)
        assert doc["kind"] == "strategies"
        assert doc["count"] == 8
        assert doc["rows"][0][:2] == ["D0", 0]
        assert doc["rows"][7][:2] == ["D7", 7]
        assert doc["rows"][7][2] == "1|1|1|0"
        assert doc["state_labels"] == ["s=[0]", "s=[1]", "s=[2]", "s=[3]"]


class TestMatrixDocuments:
    def test_one_document_per_scenario_and_depth(self):
        cfg = small_config()
        docs = matrix_documents(cfg)
        assert len(docs) == 3 * 4  # scenarios x truncation depths
        combos = {(d["scenario"], d["q_plus_max"]) for d in docs}
        assert ("A", 1) in combos and ("C", 4) in combos

    def test_rows_are_stochastic(self):
        cfg = small_config()
        for doc in matrix_documents(cfg):
            for row in doc["entries"]:
                assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_deficits_within_bound(self):
        cfg = small_config()
        for doc in matrix_documents(cfg):
            for deficit in doc["row_deficits"]:
                assert -1e-12 <= deficit <= doc["deficit_bound"] + 1e-12

    def test_raw_mode(self):
        cfg = small_config(renormalize=False)
        assert cfg.renormalize is False
        for doc in matrix_documents(cfg):
            assert doc["renormalized"] is False
            for row, deficit in zip(doc["entries"], doc["row_deficits"]):
                assert sum(row) == pytest.approx(1.0 - deficit, abs=1e-12)


class TestEmpiricalDocuments:
    def test_one_document_per_scenario(self):
        cfg = small_config()
        docs = empirical_documents(cfg)
        assert [d["scenario"] for d in docs] == ["A", "B", "C"]
        for doc in docs:
            assert doc["kind"] == "empirical"
            total = sum(sum(row) for row in doc["counts"])
            assert total == cfg.sim.num_runs * cfg.sim.periods_per_run

    def test_scenario_seeds_differ(self):
        docs = empirical_documents(small_config())
        seeds = [d["scenario_seed"] for d in docs]
        assert len(set(seeds)) == len(seeds)
        assert all(d["seed"] == 42 for d in docs)

    def test_traces_appended_on_request(self):
        cfg = small_config()
        docs = empirical_documents(cfg, include_traces=True)
        kinds = [d["kind"] for d in docs]
        assert kinds == ["empirical", "traces"] * 3
        trace = docs[1]
        assert len(trace["rows"]) == cfg.sim.num_runs * (cfg.sim.periods_per_run + 1)
        assert trace["columns"] == ["run", "period", "state_index", "state_label"]

    def test_traces_csv_matches_generic_table_writer(self):
        # Trace tables are streamed from the trajectory array; the text must
        # equal the per-cell path that every other table takes, on N=1
        # (plain labels) and on N=3 (quoted labels such as "s=[1,0,2]").
        for cfg in (small_config(), n3_config(20, 10)):
            trace = empirical_documents(cfg, include_traces=True)[1]
            assert isinstance(trace["rows"], TraceRows)
            generic, streamed = io.StringIO(), io.StringIO()
            _write_table(generic, trace, trace["columns"], list(trace["rows"]))
            dump(trace, streamed, "csv")
            assert streamed.getvalue() == generic.getvalue()
        assert '"s=[1,0,0]"' in generic.getvalue()

    def test_streamed_trace_quoting_of_awkward_labels(self):
        labels = ["s=[1,0]", 'say "2"', "", "a\nb", " lead"]
        rows = TraceRows(np.array([[0, 1, 2], [3, 4, 0]]), labels)
        doc = {"kind": "traces", "config_hash": "0" * 64,
               "columns": ["run", "period", "state_index", "state_label"]}
        generic, streamed = io.StringIO(), io.StringIO()
        _write_table(generic, doc, doc["columns"], list(rows))
        dump(dict(doc, rows=rows), streamed, "csv")
        assert streamed.getvalue() == generic.getvalue()

    def test_trace_rows_view_matches_materialised_rows(self):
        trace = empirical_documents(n3_config(20, 10), include_traces=True)[1]
        rows = trace["rows"]
        listed = list(rows)
        assert len(rows) == len(listed) == 20 * 11
        assert rows[0] == listed[0] and rows[-1] == listed[-1]
        assert rows[5:30:7] == listed[5:30:7]
        assert rows == listed and not rows != listed
        assert json.dumps(rows) == json.dumps(listed)
        assert json.dumps(rows, indent=2) == json.dumps(listed, indent=2)
        assert {type(cell) for row in listed for cell in row} == {int, str}
        assert all(type(cell) is int for cell in rows[-1][:3])
        with pytest.raises(TypeError):
            rows.append(listed[0])
        with pytest.raises(TypeError):
            listed[0] in rows

    def test_trace_documents_hold_no_per_row_objects(self):
        # Trace rows are a view over the int64 trajectory arrays. Measured
        # peaks: about 1.75 times the arrays' bytes with the view (most of
        # it the simulation's own buffers), about 13 times with one Python
        # list per boundary.
        cfg = n3_config(3000, 10)
        empirical_documents(cfg)
        array_bytes = len(cfg.scenarios) * cfg.sim.num_runs * (cfg.sim.periods_per_run + 1) * 8
        tracemalloc.start()
        try:
            docs = empirical_documents(cfg, include_traces=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [doc["kind"] for doc in docs] == ["empirical", "traces"] * 2
        assert peak < 4 * array_bytes


class TestFigure2Document:
    def test_structure_and_normalization(self):
        cfg = small_config()
        doc = figure2_document(cfg)
        proto = cfg.figure2
        assert doc["kind"] == "figure2"
        assert len(doc["rows"]) == (proto.periods + 1) * 4
        by_period: dict[int, list] = {}
        for row in doc["rows"]:
            by_period.setdefault(row[0], []).append(row)
        for t, rows in by_period.items():
            assert sum(r[3] for r in rows) == pytest.approx(1.0, abs=1e-9)
            assert sum(r[4] for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_initial_period_is_point_mass_on_both_sides(self):
        doc = figure2_document(small_config())
        start_rows = [r for r in doc["rows"] if r[0] == 0]
        assert start_rows[0][3] == 1.0 and start_rows[0][4] == 1.0
        for row in start_rows[1:]:
            assert row[3] == 0.0 and row[4] == 0.0

    def test_out_of_region_start_rejected(self, raw):
        raw["figure2"]["initial_state"] = [9]
        cfg = parse_config(raw)
        with pytest.raises(ConfigError):
            figure2_document(cfg)


class TestFigure3Document:
    def test_row_grid_and_summary(self):
        cfg = small_config()
        doc = figure3_document(cfg)
        proto = cfg.figure3
        assert len(doc["rows"]) == len(proto.scenarios) * 8 * len(proto.q_plus_max)
        assert len(doc["summary_rows"]) == len(proto.scenarios) * len(proto.q_plus_max)
        for row in doc["rows"]:
            assert row[4] >= 0.0  # epsilon
            assert 0 <= row[5] <= 4  # unvisited rows
        for name, q, mean, var in doc["summary_rows"]:
            assert mean >= 0.0 and var >= 0.0

    def test_summary_means_match_rows(self):
        doc = figure3_document(small_config())
        for name, q, mean, var in doc["summary_rows"]:
            eps = [r[4] for r in doc["rows"] if r[0] == name and r[3] == q]
            assert mean == pytest.approx(np.mean(eps), rel=1e-12)
            assert var == pytest.approx(np.var(eps), rel=1e-9, abs=1e-15)

    def test_depths_share_simulation_per_strategy(self):
        # Zero-visit-row counts come from the shared empirical matrix, so
        # they must agree across depths within one (scenario, strategy).
        doc = figure3_document(small_config())
        seen: dict[tuple, set] = {}
        for name, sid, bits, q, eps, unvisited in doc["rows"]:
            seen.setdefault((name, sid), set()).add(unvisited)
        assert all(len(v) == 1 for v in seen.values())
