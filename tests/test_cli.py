"""End-to-end tests of the command-line interface and serialization."""

from __future__ import annotations

import copy
import csv
import json
import os
import re
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

import slice_markov
from slice_markov import ConfigError, load_config, parse_config
from slice_markov.cli import main
from slice_markov.experiments import empirical_documents, matrix_documents


def config_dict(out_dir: str) -> dict:
    return {
        "model": {"resource_pool": [1.0], "cost_matrix": [[0.3]]},
        "scenarios": {
            "A": {"creation_rates": [1.0], "mean_lifetimes": [4.0]},
            "C": {"creation_rates": [0.5], "mean_lifetimes": [4.0]},
        },
        "strategy": "always-accept",
        "truncation": [1, 2],
        "renormalize": True,
        "sim": {"num_runs": 15, "periods_per_run": 10, "seed": 42},
        "figure2": {
            "scenario": "C",
            "episodes": 150,
            "periods": 3,
            "q_plus_max": 2,
            "initial_state": [0],
        },
        "figure3": {
            "scenarios": ["C"],
            "q_plus_max": [1, 2],
            "num_runs": 8,
            "periods_per_run": 10,
        },
        "output": {"dir": out_dir, "format": "csv"},
    }


@pytest.fixture()
def workspace(tmp_path):
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_dict(str(out_dir))), encoding="utf-8")
    return config_path, out_dir


def write_config(tmp_path, body: dict, name: str = "edited.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Happy paths per subcommand
# ---------------------------------------------------------------------------


class TestCommands:
    def test_region(self, workspace, capsys):
        config_path, out_dir = workspace
        assert main(["region", "--config", str(config_path), "--quiet"]) == 0
        text = (out_dir / "region.csv").read_text()
        assert text.startswith("# kind=region\n# config_hash=")
        assert "s=[3]" in text
        stdout = capsys.readouterr().out
        assert "s=[3]" in stdout

    def test_strategies(self, workspace, capsys):
        config_path, out_dir = workspace
        assert main(["strategies", "--config", str(config_path), "--quiet"]) == 0
        text = (out_dir / "strategies.csv").read_text()
        assert "# count=8" in text
        assert "D7,7,1|1|1|0" in text
        assert "D7,7,1|1|1|0" in capsys.readouterr().out

    def test_matrix_one_file_per_scenario_and_depth(self, workspace):
        config_path, out_dir = workspace
        assert main(["matrix", "--config", str(config_path), "--quiet"]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "matrix_A_q1.csv",
            "matrix_A_q2.csv",
            "matrix_C_q1.csv",
            "matrix_C_q2.csv",
        ]
        text = (out_dir / "matrix_C_q2.csv").read_text()
        assert "# kind=matrix" in text
        assert "# q_plus_max=2" in text
        assert "# renormalized=true" in text

    def test_simulate_with_traces(self, workspace):
        config_path, out_dir = workspace
        code = main(["simulate", "--config", str(config_path), "--traces", "--quiet"])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "empirical_A.csv",
            "empirical_C.csv",
            "traces_A.csv",
            "traces_C.csv",
        ]
        trace = (out_dir / "traces_A.csv").read_text()
        assert "run,period,state_index,state_label" in trace
        # 15 runs x (10+1) boundaries plus comments and header
        assert sum(1 for line in trace.splitlines() if line[:1].isdigit()) == 15 * 11

    def test_figure2(self, workspace):
        config_path, out_dir = workspace
        assert main(["figure2", "--config", str(config_path), "--quiet"]) == 0
        text = (out_dir / "figure2.csv").read_text()
        assert "period,state_index,state_label,analytical,empirical,stderr" in text

    def test_figure3(self, workspace):
        config_path, out_dir = workspace
        assert main(["figure3", "--config", str(config_path), "--quiet"]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["figure3.csv", "figure3_summary.csv"]
        summary = (out_dir / "figure3_summary.csv").read_text()
        assert "scenario,q_plus_max,mean_epsilon,var_epsilon" in summary
        data_lines = [l for l in summary.splitlines() if l.startswith("C,")]
        assert len(data_lines) == 2  # one per truncation depth


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


class TestJsonOutputs:
    def test_every_document_validates_against_schema(self, workspace, capsys):
        config_path, out_dir = workspace
        schema = json.loads(
            resources.files("slice_markov")
            .joinpath("schemas/output.schema.json")
            .read_text(encoding="utf-8")
        )
        validator = jsonschema.Draft202012Validator(schema)
        commands = [
            ["region"],
            ["strategies"],
            ["matrix"],
            ["simulate", "--traces"],
            ["figure2"],
            ["figure3"],
        ]
        for command in commands:
            code = main(
                command
                + ["--config", str(config_path), "--format", "json", "--quiet"]
            )
            assert code == 0
        capsys.readouterr()
        files = sorted(p.name for p in out_dir.iterdir())
        assert "region.json" in files
        assert "traces_C.json" in files
        assert "figure3.json" in files
        kinds = set()
        for path in out_dir.iterdir():
            doc = json.loads(path.read_text())
            validator.validate(doc)
            kinds.add(doc["kind"])
        assert kinds == {
            "region", "strategies", "matrix", "empirical", "traces",
            "figure2", "figure3",
        }

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("command", ["region", "strategies"])
    def test_stdout_equals_written_file(self, workspace, capsys, command, out_format):
        # One writer serves the file and standard output.
        config_path, out_dir = workspace
        assert main([command, "--config", str(config_path), "--format", out_format, "--quiet"]) == 0
        written = (out_dir / f"{command}.{out_format}").read_text(encoding="utf-8")
        assert capsys.readouterr().out == written

    def test_csv_floats_parse_back_bit_identical(self, workspace, tmp_path):
        config_path, out_dir = workspace
        assert main(["matrix", "--config", str(config_path), "--quiet"]) == 0
        cfg = parse_config(json.loads(config_path.read_text()))
        doc = next(
            d for d in matrix_documents(cfg)
            if d["scenario"] == "C" and d["q_plus_max"] == 2
        )
        lines = [
            l for l in (out_dir / "matrix_C_q2.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        rows = list(csv.reader(lines))
        assert rows[0] == ["from", "s=[0]", "s=[1]", "s=[2]", "s=[3]", "deficit"]
        for row, expected_entries, expected_deficit in zip(
            rows[1:], doc["entries"], doc["row_deficits"]
        ):
            parsed = [float(cell) for cell in row[1:5]]
            assert parsed == expected_entries
            assert float(row[5]) == expected_deficit


class TestDeterminism:
    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        config_path, _ = workspace
        out1, out2 = tmp_path / "first", tmp_path / "second"
        for out in (out1, out2):
            code = main(
                ["figure2", "--config", str(config_path), "--out", str(out), "--quiet"]
            )
            assert code == 0
        assert (out1 / "figure2.csv").read_bytes() == (out2 / "figure2.csv").read_bytes()

    def test_seed_override_changes_hash_and_seed_line(self, workspace, tmp_path):
        config_path, out_dir = workspace
        assert main(["region", "--config", str(config_path), "--quiet"]) == 0
        base = (out_dir / "region.csv").read_text()
        reseeded_dir = tmp_path / "reseeded"
        assert main(
            ["region", "--config", str(config_path), "--seed", "7",
             "--out", str(reseeded_dir), "--quiet"]
        ) == 0
        reseeded = (reseeded_dir / "region.csv").read_text()
        assert "# seed=42" in base
        assert "# seed=7" in reseeded
        hash_line = next(l for l in base.splitlines() if l.startswith("# config_hash="))
        reseeded_hash = next(
            l for l in reseeded.splitlines() if l.startswith("# config_hash=")
        )
        assert hash_line != reseeded_hash

    def test_no_renormalize_keeps_deficit_rows(self, workspace, tmp_path):
        config_path, _ = workspace
        out = tmp_path / "raw"
        code = main(
            ["matrix", "--config", str(config_path), "--no-renormalize",
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        text = (out / "matrix_C_q1.csv").read_text()
        assert "# renormalized=false" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        for row in list(csv.reader(lines))[1:]:
            entries = [float(x) for x in row[1:5]]
            deficit = float(row[5])
            assert deficit > 0
            assert sum(entries) == pytest.approx(1.0 - deficit, abs=1e-12)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["region", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["region", "--config", str(path), "--quiet"]) == 2

    def test_unknown_configuration_key(self, tmp_path):
        body = config_dict(str(tmp_path / "out"))
        body["bogus"] = True
        path = write_config(tmp_path, body)
        assert main(["region", "--config", path, "--quiet"]) == 2

    def test_degenerate_model(self, tmp_path):
        body = config_dict(str(tmp_path / "out"))
        body["model"]["cost_matrix"] = [[0.0]]
        path = write_config(tmp_path, body)
        assert main(["region", "--config", path, "--quiet"]) == 3

    def test_invalid_strategy_table(self, tmp_path):
        body = config_dict(str(tmp_path / "out"))
        body["strategy"] = [[1], [1], [1], [1]]
        path = write_config(tmp_path, body)
        assert main(["matrix", "--config", path, "--quiet"]) == 3

    def test_strategy_id_on_large_region(self, tmp_path):
        # 2**57 valid strategies: an id is resolved without enumerating them.
        # In state [0,0,0] every creation is admissible, so D5 accepts
        # creations of types 1 and 3 there and declines all others.
        config = os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs", "n3_matrix.json")
        with open(config, encoding="utf-8") as handle:
            body = json.load(handle)
        body.update(strategy=5, truncation=[1])
        path = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["matrix", "--config", path, "--out", str(out), "--format", "json",
                     "--quiet"]) == 0
        for name in ("matrix_A_q1.json", "matrix_C_q1.json"):
            doc = json.loads((out / name).read_text(encoding="utf-8"))
            assert (doc["strategy"], doc["strategy_bits"]) == ("D5", 0b101)

    def test_strategy_enumeration_guard(self, tmp_path):
        body = config_dict(str(tmp_path / "out"))
        body["model"] = {"resource_pool": [30.0], "cost_matrix": [[1.0]]}
        path = write_config(tmp_path, body)
        assert main(["strategies", "--config", path, "--quiet"]) == 4

    def test_bag_guard_stops_a_build_before_it_starts(self, tmp_path):
        # 1,972,593 request bags per build of the N=3 model at q=20, a
        # build that had not finished after 40 s when it was let run.
        config = os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs", "n3_matrix.json")
        with open(config, encoding="utf-8") as handle:
            body = json.load(handle)
        body["truncation"] = [20]
        path = write_config(tmp_path, body)
        started = time.perf_counter()
        assert main(["matrix", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 4
        assert time.perf_counter() - started < 2.0
        assert not (tmp_path / "out").exists()

    def test_figure3_bag_guard_stops_before_any_simulation(self, tmp_path, caplog):
        # 600,010 bags at q=60000 on the four-state region. One strategy's
        # simulation at 50,000 runs x 100 periods takes several seconds, so
        # the cap must be met before the first one starts. The sweep's
        # periods stay under the cap on simulated periods.
        body = config_dict(str(tmp_path / "out"))
        body["figure3"].update(q_plus_max=[1, 60000], num_runs=50_000, periods_per_run=100)
        path = write_config(tmp_path, body)
        started = time.perf_counter()
        assert main(["figure3", "--config", path, "--quiet"]) == 4
        assert time.perf_counter() - started < 2.0
        assert "request bags" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_figure3_sweep_guard_stops_before_enumeration(self, tmp_path, caplog):
        # The baseline at cost 0.05: 21 states and 2**20 valid strategies,
        # the most that may be listed, of which the sweep would run for
        # about a day. It is refused from the strategy count alone.
        with resources.files("slice_markov").joinpath("configs/baseline.json").open(encoding="utf-8") as handle:
            body = json.load(handle)
        body["model"]["cost_matrix"] = [[0.05]]
        body["output"]["dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, body)
        started = time.perf_counter()
        assert main(["figure3", "--config", path, "--quiet"]) == 4
        assert time.perf_counter() - started < 2.0
        assert f"cap of {slice_markov.simulate.MAX_SIMULATED_PERIODS} simulated periods" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_simulate_period_guard_stops_before_any_draw(self, tmp_path, caplog, monkeypatch):
        # 15 runs of 10 periods pass a cap of 150 periods and are refused
        # by a cap of 149 before a run is drawn.
        path = write_config(tmp_path, config_dict(str(tmp_path / "out")))
        monkeypatch.setattr(slice_markov.simulate, "MAX_SIMULATED_PERIODS", 150)
        assert main(["simulate", "--config", path, "--quiet"]) == 0
        monkeypatch.setattr(slice_markov.simulate, "MAX_SIMULATED_PERIODS", 149)
        monkeypatch.setattr(slice_markov.simulate, "_draw_blocks", None)  # a draw would raise TypeError
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "refused"), "--quiet"]) == 4
        assert "cap of 149 simulated periods" in caplog.text
        assert not (tmp_path / "refused").exists()

    def test_figure2_table_guard_stops_before_any_draw(self, tmp_path, caplog, monkeypatch):
        # baseline.json's 11 boundaries of 4 states make 44 rows, which pass
        # a cap of 44 rows and are refused by a cap of 43 before a run is
        # drawn.
        with resources.files("slice_markov").joinpath("configs/baseline.json").open(encoding="utf-8") as handle:
            body = json.load(handle)
        body["output"]["dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, body)
        monkeypatch.setattr(slice_markov.experiments, "MAX_FIGURE2_ROWS", 44)
        assert main(["figure2", "--config", path, "--quiet"]) == 0
        monkeypatch.setattr(slice_markov.experiments, "MAX_FIGURE2_ROWS", 43)
        monkeypatch.setattr(slice_markov.simulate, "_draw_blocks", None)  # a draw would raise TypeError
        assert main(["figure2", "--config", path, "--out", str(tmp_path / "refused"), "--quiet"]) == 4
        assert "cap of 43 rows" in caplog.text
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("command", ["region", "matrix", "simulate"])
    def test_region_guard(self, tmp_path, command):
        # About 5e7 admissible states: enumeration stops at the region cap.
        body = {
            "model": {"resource_pool": [1.0], "cost_matrix": [[0.0001, 0.0001]]},
            "scenarios": {"A": {"creation_rates": [1.0, 1.0], "mean_lifetimes": [4.0, 4.0]}},
            "sim": {"num_runs": 1, "periods_per_run": 1},
        }
        path = write_config(tmp_path, body)
        assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 4

    @pytest.mark.parametrize("command, edit", [
        ("figure2", lambda body: body["figure2"].update(scenario=["C"])),
        ("figure3", lambda body: body["figure3"].update(scenarios=[{"C": 1}])),
        ("matrix", lambda body: body["scenarios"].update({"x/y": body["scenarios"]["C"]})),
        ("simulate", lambda body: body["sim"].update(initial_state=[5])),
        ("region", lambda body: body["model"].update(resource_pool=1.0)),
        ("region", lambda body: body["model"].update(cost_matrix=[["0.3"]])),
        ("region", lambda body: body["scenarios"]["C"].update(creation_rates=[10 ** 400])),
        ("matrix", lambda body: body.update(strategy=True)),
        ("matrix", lambda body: body.update(strategy=1.5)),
        ("matrix", lambda body: body.update(truncation=[])),
        ("region", lambda body: body["model"].update(resource_pool=[-1.0])),
        ("region", lambda body: body.update(scenarios={})),
        ("matrix", lambda body: body.update(renormalize=1)),
        ("figure3", lambda body: body["figure3"].update(scenarios=[])),
        ("region", lambda body: body["output"].update(dir="")),
        ("region", lambda body: body["output"].update(dir=body["output"]["dir"] + "\0")),
        ("matrix", lambda body: body.update(truncation=[2, 1, 2])),
        ("figure3", lambda body: body["figure3"].update(q_plus_max=[2, 2])),
        ("figure3", lambda body: body["figure3"].update(scenarios=["C", "A", "C"])),
    ], ids=["figure2-scenario-array", "figure3-scenario-object", "slash-in-name", "start-outside-region",
            "number-for-array", "string-for-number", "overflowing-number", "strategy-true",
            "strategy-float", "empty-truncation", "negative-pool", "no-scenarios", "renormalize-int",
            "figure3-no-scenarios", "empty-output-dir", "nul-in-output-dir", "repeated-truncation", "repeated-figure3-depth",
            "repeated-figure3-scenario"])
    def test_outside_input_is_a_configuration_error(self, tmp_path, command, edit):
        # The first four used to escape as a TypeError, FileNotFoundError or
        # ValueError traceback instead of a configuration error, and so did
        # a NUL in output.dir, when the directory was made. The last three
        # were accepted: a repeated depth merged two summary rows'
        # errors and wrote the row twice, a repeated scenario or truncation
        # duplicated output.
        body = config_dict(str(tmp_path / "out"))
        edit(body)
        with pytest.raises(ConfigError):
            cfg = parse_config(copy.deepcopy(body))
            if command == "simulate":
                empirical_documents(cfg)
        path = write_config(tmp_path, body)
        assert main([command, "--config", path, "--quiet"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "figure2"])
    def test_protocol_refusals_in_order(self, tmp_path, caplog, command):
        # One configuration breaks the period cap, the draw cap and the start
        # rule. They are reported in that order, each once the ones before it
        # are mended, and nothing is written.
        body = config_dict(str(tmp_path / "out"))
        body["scenarios"] = {"C": {"creation_rates": [1e12], "mean_lifetimes": [4.0]}}
        body["sim"].update(num_runs=2**27, initial_state=[9])
        body["figure2"].update(episodes=2**27, initial_state=[9])

        def refused(code, message):
            caplog.clear()
            assert main([command, "--config", write_config(tmp_path, body), "--quiet"]) == code
            assert message in caplog.text
            assert not (tmp_path / "out").exists()

        refused(4, "simulated periods")
        body["sim"]["num_runs"] = body["figure2"]["episodes"] = 15
        refused(4, "draws per run")
        body["scenarios"]["C"]["creation_rates"] = [0.5]
        refused(2, "initial state [9] lies outside the region")

    def test_outside_start_has_one_message(self, tmp_path, caplog):
        # simulate, figure2 and run_episode share the start lookup. Its
        # ConfigError is also a ValueError, so callers of run_episode that
        # catch a ValueError keep catching it.
        assert issubclass(ConfigError, ValueError)
        body = config_dict(str(tmp_path / "out"))
        body["sim"]["initial_state"] = body["figure2"]["initial_state"] = [9]
        path = write_config(tmp_path, body)
        messages = []
        for command in ("simulate", "figure2"):
            caplog.clear()
            assert main([command, "--config", path, "--quiet"]) == 2
            (record,) = caplog.records
            messages.append(record.getMessage())
        region = slice_markov.enumerate_region(slice_markov.ResourceModel((1.0,), ((0.3,),)))
        scenario = slice_markov.DemandScenario((0.5,), (4.0,))
        with pytest.raises(ConfigError) as raised:
            slice_markov.run_episode(scenario, slice_markov.always_accept_strategy(region), 5,
                                     slice_markov.run_rng(0, 0), initial_state=(9,))
        messages.append(f"configuration error: {raised.value}")
        assert messages == ["configuration error: initial state [9] lies outside the region"] * 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        json.dumps(config_dict("out")).replace('"A"', '"\u00ff"').encode("latin-1"),
        json.dumps(config_dict("out")).replace('"seed": 42', '"seed": ' + "9" * 4301).encode(),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf-8", "past-int-digit-limit", "nested-100000-deep"])
    def test_unreadable_file_is_a_configuration_error(self, tmp_path, caplog, text):
        # Each escaped load_config as a UnicodeDecodeError, ValueError or
        # RecursionError traceback with exit 1.
        path = tmp_path / "config.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_config(str(path))
        assert main(["region", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "out").exists()

    def test_zero_kept_mass_is_a_configuration_error(self, tmp_path):
        # At rate 800 every Poisson mass up to the cap underflows to 0, so
        # no row keeps any mass to renormalize; at q=1, rates 744 and 745
        # keep only a subnormal mass, too coarse to scale. Nothing is written.
        for rate, q in ((800.0, 2), (744.0, 1), (745.0, 1)):
            out_dir = tmp_path / f"out_{rate:g}"
            body = config_dict(str(out_dir))
            body["scenarios"] = {"C": {"creation_rates": [rate], "mean_lifetimes": [4.0]}}
            body.update(truncation=[q])
            body["figure2"]["q_plus_max"] = q
            path = write_config(tmp_path, body)
            for command in ("matrix", "figure2"):
                assert main([command, "--config", path, "--quiet"]) == 2
                assert not out_dir.exists()
            # Raw rows keep their deficits, and are written as such.
            assert main(["matrix", "--config", path, "--no-renormalize", "--quiet"]) == 0
            for name in os.listdir(out_dir):
                text = (out_dir / name).read_text(encoding="utf-8")
                assert "nan" not in text.lower()
                if rate == 800.0:
                    assert "s=[0],0,0,0,0,1" in text

    def test_tiny_mean_lifetime_builds_finite_entries(self, tmp_path):
        # 1/1e-310 overflows to inf; every active slice then releases with
        # probability 1 instead of the release mass turning NaN.
        body = config_dict(str(tmp_path / "out"))
        body["scenarios"] = {"C": {"creation_rates": [1.0], "mean_lifetimes": [1e-310]}}
        body.update(truncation=[2])
        body["output"]["format"] = "json"
        path = write_config(tmp_path, body)
        for command in ("matrix", "figure2"):
            assert main([command, "--config", path, "--quiet"]) == 0
        matrix = json.loads((tmp_path / "out" / "matrix_C_q2.json").read_text(encoding="utf-8"))
        assert np.all(np.isfinite(matrix["entries"]))
        np.testing.assert_allclose(np.sum(matrix["entries"], axis=1), 1.0)
        figure2 = json.loads((tmp_path / "out" / "figure2.json").read_text(encoding="utf-8"))
        assert np.all(np.isfinite([row[3:] for row in figure2["rows"]]))

    def test_huge_mean_lifetime_outlives_the_horizon(self, tmp_path):
        # A mean of 1e308 times a unit lifetime above about 1.8 overflows to
        # inf; such a slice outlives the horizon like any other long one. So
        # from an empty start under always-accept each run follows its
        # cumulative creation count, capped at the region's 3 slices.
        body = config_dict(str(tmp_path / "out"))
        body["scenarios"] = {"A": {"creation_rates": [1.0], "mean_lifetimes": [1e308]}}
        body["sim"]["initial_state"] = [0]
        body["figure2"]["scenario"] = "A"
        body["figure3"]["scenarios"] = ["A"]
        body["output"]["format"] = "json"
        path = write_config(tmp_path, body)
        assert main(["simulate", "--config", path, "--traces", "--quiet"]) == 0
        for command in ("figure2", "figure3"):
            assert main([command, "--config", path, "--quiet"]) == 0
        traces = json.loads((tmp_path / "out" / "traces_A.json").read_text(encoding="utf-8"))
        states = np.array([row[2] for row in traces["rows"]]).reshape(15, 11)
        for run in range(15):
            # The run's creations: a Poisson total over the 10 periods, then
            # one uniform position each.
            rng = slice_markov.run_rng(traces["scenario_seed"], run)
            positions = rng.random(rng.poisson(10.0))
            counts = np.bincount(np.floor(positions * 10).astype(int), minlength=10)
            np.testing.assert_array_equal(states[run], np.minimum(np.cumsum([0, *counts]), 3))

    @pytest.mark.parametrize("command, edit", [
        ("simulate", lambda body: body["scenarios"]["A"].update(creation_rates=[1e12])),
        ("figure3", lambda body: body.update(renormalize=False)
         or body["scenarios"]["C"].update(creation_rates=[1e12])),
        # At rate 1e19, 10 periods expect creations past numpy's Poisson
        # limit of about 9.2e18, and twice that many draws.
        pytest.param("simulate", lambda body: body["scenarios"]["A"].update(creation_rates=[1e19]),
                     id="simulate-poisson-limit"),
        pytest.param("figure3", lambda body: body.update(renormalize=False)
                     or body["scenarios"]["C"].update(creation_rates=[1e19]), id="figure3-poisson-limit"),
    ])
    def test_draw_cap_is_a_guard(self, tmp_path, caplog, command, edit):
        # 10 periods at rate 1e12 expect about 2e13 draws a run: refused
        # before any draw, where numpy failed to allocate the run's
        # uniforms. At rate 1e19 numpy's Poisson sampler refused the mean.
        body = config_dict(str(tmp_path / "out"))
        edit(body)
        path = write_config(tmp_path, body)
        assert main([command, "--config", path, "--quiet"]) == 4
        assert f"cap of {slice_markov.simulate.MAX_RUN_DRAWS} draws per run" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, edit", [
        pytest.param("simulate", lambda body: body["sim"].update(periods_per_run=10**400), id="simulate"),
        pytest.param("figure2", lambda body: body["figure2"].update(scenario="A", periods=10**400), id="figure2"),
        # Past numpy's Poisson limit at rate 1.0, and far past the cap.
        pytest.param("figure2", lambda body: body["figure2"].update(scenario="A", periods=10**19),
                     id="figure2-poisson-limit"),
        pytest.param("figure3", lambda body: body["figure3"].update(periods_per_run=10**400), id="figure3"),
        # A product of 8,001 digits, past the longest int that str() prints.
        pytest.param("simulate", lambda body: body["sim"].update(num_runs=10**4000, periods_per_run=10**4000),
                     id="simulate-8001-digits"),
    ])
    def test_period_cap_is_a_guard(self, tmp_path, caplog, command, edit):
        # A period count is checked against the period cap before the draw
        # cap turns it into a float, which 10**400 overflows. Counts above
        # 10**15 are logged in short form, so the line stays short.
        body = config_dict(str(tmp_path / "out"))
        edit(body)
        path = write_config(tmp_path, body)
        assert main([command, "--config", path, "--quiet"]) == 4
        assert f"cap of {slice_markov.simulate.MAX_SIMULATED_PERIODS} simulated periods" in caplog.text
        (record,) = caplog.records
        assert len(f"{record.levelname} {record.getMessage()}".encode()) < 200
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_regular_file_is_an_output_error(self, workspace, tmp_path, caplog):
        config_path, _ = workspace
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("keep me", encoding="utf-8")
        code = main(["region", "--config", str(config_path), "--out", str(blocker), "--quiet"])
        assert code == 5
        assert "cannot write output" in caplog.text
        assert blocker.read_text(encoding="utf-8") == "keep me"

    def test_file_name_too_long_is_an_output_error(self, tmp_path, caplog):
        body = config_dict(str(tmp_path / "out"))
        body["scenarios"]["x" * 300] = body["scenarios"].pop("C")
        body["figure2"]["scenario"] = body["figure3"]["scenarios"][0] = "A"
        path = write_config(tmp_path, body)
        assert main(["matrix", "--config", path, "--quiet"]) == 5
        assert "cannot write output" in caplog.text

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["region"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["region", "strategies", "matrix", "simulate", "figure2", "figure3"])
    def test_workers_only_for_simulating_commands(self, workspace, command):
        # Every simulation runs in the calling process, so no command, the
        # simulating ones included, takes a worker count.
        config_path, _ = workspace
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", str(config_path), "--workers", "2", "--quiet"])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x"])
        assert excinfo.value.code == 2


def test_import_loads_no_scipy():
    # scipy is only needed by the Markov-order check, and numpy.random (about
    # 2 MB of resident memory) only by simulation, so neither importing the
    # package nor building and solving a chain may pay for them. numpy 2
    # loads numpy.random on first use and older numpy with numpy itself, so
    # only the numpy.random modules the package adds count.
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import numpy\n"
        "before = {m for m in sys.modules if m.startswith('numpy.random')}\n"
        "from slice_markov import *\n"
        "model = ResourceModel((1.0,), ((0.3,),))\n"
        "region = enumerate_region(model)\n"
        "matrix = build_transition_matrix(model, region, DemandScenario((0.5,), (4.0,)),"
        " always_accept_strategy(region), 2)\n"
        "assert abs(stationary_distribution(matrix).sum() - 1.0) < 1e-12\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.random')) and m not in before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_model_commands_load_no_openssl(tmp_path):
    # region, strategies and matrix hash a config of about 1 KB and solve
    # small chains, so they must not load _hashlib and OpenSSL's libcrypto
    # behind it. numpy 1.24 loads _hashlib with numpy itself (numpy.random
    # imports secrets, which imports hmac), so only what the package adds
    # counts.
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = resources.files("slice_markov") / "configs" / "baseline.json"
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from slice_markov import *\n"
        "from slice_markov.cli import main\n"
        "for command in ('region', 'strategies', 'matrix'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main([command, '--config', {str(config)!r}, '--out', {str(tmp_path)!r},"
        " '--quiet']) == 0\n"
        "model = ResourceModel((1.0,), ((0.3,),))\n"
        "region = enumerate_region(model)\n"
        "matrix = build_transition_matrix(model, region, DemandScenario((0.5,), (4.0,)),"
        " always_accept_strategy(region), 2)\n"
        "assert abs(stationary_distribution(matrix).sum() - 1.0) < 1e-12\n"
        "print(sorted((set(sys.modules) - before) & {'_hashlib'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
    assert len(list(tmp_path.glob("matrix_*.csv"))) == 12


@pytest.mark.parametrize("workload, counts", [
    # q=1..4 for two scenarios.
    pytest.param("matrix-n3", {"markov.builds": 8}, id="matrix-n3"),
    # 3 scenarios x 8 strategies x 1000 runs, scored at q=1..4.
    pytest.param("fig3-baseline", {"markov.builds": 96, "simulate.runs": 24_000}, id="fig3-baseline"),
    # 20,000 runs for each of two scenarios.
    pytest.param("simulate-n3-traces", {"simulate.runs": 40_000}, id="simulate-n3-traces"),
])
def test_benchmark_job_runs_traced(tmp_path, workload, counts):
    # perfbench/job.py drives the package the way the benchmark does and
    # traces the calls it makes into it, through the names it rebinds on
    # experiments, markov and serialize and the results it reads back.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result_path = tmp_path / "result.json"
    job = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "job.py"), workload, "1",
         str(tmp_path / "out"), str(result_path), "trace"],
        env=env, capture_output=True, text=True,
    )
    assert job.returncode == 0, job.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit_code"] == 0
    assert {name: result["counts"][name] for name in counts} == counts


def test_table_log_line_is_silenced_by_quiet(workspace):
    # Each ordering table built writes one INFO line on stderr: keys,
    # nonzeros, |R|, MB and seconds. The region holds 4 states, and q=2
    # gives 3 * (1 + 2 + 3 + 4) keys.
    config_path, _ = workspace
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-m", "slice_markov.cli", "matrix", "--config", str(config_path)]
    loud = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    lines = [line for line in loud.stderr.splitlines() if "ordering table" in line]
    assert len(lines) == 1
    assert re.fullmatch(r"INFO ordering table: 30 keys, 40 nonzeros over 4 states, \d+\.\d MB, \d+\.\d\ds", lines[0])
    quiet = subprocess.run(command + ["--quiet"], env=env, capture_output=True, text=True, check=True)
    assert quiet.stderr == ""


def test_serial_simulation_loads_no_process_pool():
    # Simulation runs in the calling process, so it imports no process pool
    # and no multiprocessing.
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from slice_markov import *\n"
        "model = ResourceModel((1.0,), ((0.3,),))\n"
        "region = enumerate_region(model)\n"
        "runs = simulate_episodes(DemandScenario((0.5,), (4.0,)),"
        " always_accept_strategy(region), SimConfig(3, 5, 7))\n"
        "assert runs.shape == (3, 6)\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# Prints the SIMD targets numpy dispatches to in the process that runs it.
_SIMD_TARGETS = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(" ".join(name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)))
"""


def test_documents_do_not_depend_on_simd_dispatch(tmp_path):
    # The simulator reads its uniforms and lifetimes with IEEE-exact
    # operations only, so its documents must keep their bytes when numpy
    # falls back to its baseline code. A transcendental ufunc such as
    # log1p gives other bits under AVX512 than without it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)

    def targets(run_env):
        return subprocess.run([sys.executable, "-c", _SIMD_TARGETS], env=run_env, capture_output=True,
                              text=True, check=True).stdout.strip()

    dispatched = targets(env)
    if not dispatched:
        pytest.skip("numpy dispatches to no SIMD target on this machine")
    disabled = dict(env, NPY_DISABLE_CPU_FEATURES=dispatched)
    assert targets(disabled) == ""
    commands = (
        ["figure3", "--config", os.path.join(root, "src", "slice_markov", "configs", "baseline.json")],
        ["simulate", "--traces", "--config", os.path.join(root, "perfbench", "configs", "n3_traces.json")],
    )
    outputs = {}
    for name, run_env in (("default", env), ("baseline", disabled)):
        for argv in commands:
            out = tmp_path / name / argv[0]
            subprocess.run([sys.executable, "-m", "slice_markov.cli", *argv, "--out", str(out), "--quiet"],
                           env=run_env, capture_output=True, text=True, check=True)
            outputs[name, argv[0]] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for command in ("figure3", "simulate"):
        default, baseline = outputs["default", command], outputs["baseline", command]
        assert default and sorted(default) == sorted(baseline)
        for file_name in default:
            assert default[file_name] == baseline[file_name], file_name
