"""End-to-end tests of the command-line interface and serialization."""

from __future__ import annotations

import copy
import csv
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import slice_markov
from slice_markov import ConfigError, parse_config
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

    def test_worker_count_does_not_change_results(self, workspace, tmp_path):
        config_path, _ = workspace
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["simulate", "--config", str(config_path), "--out", str(serial), "--quiet"]) == 0
        assert main(
            ["simulate", "--config", str(config_path), "--out", str(parallel),
             "--workers", "2", "--quiet"]
        ) == 0
        for name in ("empirical_A.csv", "empirical_C.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

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
    ], ids=["figure2-scenario-array", "figure3-scenario-object", "slash-in-name", "start-outside-region",
            "number-for-array", "string-for-number", "overflowing-number", "strategy-true",
            "strategy-float", "empty-truncation", "negative-pool", "no-scenarios", "renormalize-int",
            "figure3-no-scenarios", "empty-output-dir"])
    def test_outside_input_is_a_configuration_error(self, tmp_path, command, edit):
        # The first four used to escape as a TypeError, FileNotFoundError or
        # ValueError traceback instead of a configuration error.
        body = config_dict(str(tmp_path / "out"))
        edit(body)
        with pytest.raises(ConfigError):
            cfg = parse_config(copy.deepcopy(body))
            if command == "simulate":
                empirical_documents(cfg)
        path = write_config(tmp_path, body)
        assert main([command, "--config", path, "--quiet"]) == 2
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

    @pytest.mark.parametrize("workers", ["0", "-3", "abc"])
    def test_worker_count_below_one_is_a_usage_error(self, workspace, workers):
        config_path, _ = workspace
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--config", str(config_path), "--workers", workers, "--quiet"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["region", "strategies", "matrix"])
    def test_workers_only_for_simulating_commands(self, workspace, command):
        # These commands simulate nothing, so they take no worker count.
        config_path, _ = workspace
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", str(config_path), "--workers", "2", "--quiet"])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x"])
        assert excinfo.value.code == 2


def test_import_loads_no_scipy():
    # scipy is only needed by the Markov-order check, so neither importing
    # the package nor solving a chain may pay for it.
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from slice_markov import *\n"
        "model = ResourceModel((1.0,), ((0.3,),))\n"
        "region = enumerate_region(model)\n"
        "matrix = build_transition_matrix(model, region, DemandScenario((0.5,), (4.0,)),"
        " always_accept_strategy(model, region), 2)\n"
        "assert abs(stationary_distribution(matrix).sum() - 1.0) < 1e-12\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_serial_simulation_loads_no_process_pool():
    # The process pool, and multiprocessing with it, is only imported for
    # --workers above 1.
    src = os.path.dirname(os.path.dirname(slice_markov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from slice_markov import *\n"
        "model = ResourceModel((1.0,), ((0.3,),))\n"
        "region = enumerate_region(model)\n"
        "runs = simulate_episodes(model, region, DemandScenario((0.5,), (4.0,)),"
        " always_accept_strategy(model, region), SimConfig(3, 5, 7))\n"
        "assert runs.shape == (3, 6)\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
