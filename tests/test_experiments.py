"""Tests for configuration parsing and the experiment drivers."""

from __future__ import annotations

import ast
import copy
import csv
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_markov import (
    ConfigError,
    DegenerateModelError,
    InvalidStrategyError,
    build_transition_matrix,
    default_config_path,
    enumerate_valid_strategies,
    figure2_document,
    figure3_document,
    load_config,
    parse_config,
    resolve_strategy,
)
from slice_markov import experiments
from slice_markov.cli import main
from slice_markov.experiments import (
    empirical_documents,
    matrix_documents,
    region_document,
    strategies_document,
)
from slice_markov import serialize
from slice_markov.serialize import (
    LabelledRows,
    TraceRows,
    _csv_tables,
    _write_labelled_rows,
    _write_table,
    _write_trace_rows,
    dump,
    format_value,
)

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

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        pool=st.floats(min_value=0.3, max_value=3.0),
        cost=st.floats(min_value=0.3, max_value=1.0),
        rate=st.floats(min_value=0.01, max_value=5.0),
        lifetime=st.floats(min_value=0.1, max_value=1e4),
        depths=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4, unique=True),
        runs=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_hash_is_sha256_of_canonical_inputs(self, seed, pool, cost, rate, lifetime, depths, runs):
        # The digest is SHA-256 whichever module supplies it: the same bits
        # as hashlib's, over the canonical JSON of every section but output.
        raw = baseline_raw()
        raw["model"] = {"resource_pool": [pool], "cost_matrix": [[cost]]}
        raw["scenarios"]["A"] = {"creation_rates": [rate], "mean_lifetimes": [lifetime]}
        raw["truncation"] = depths
        raw["sim"].update(seed=seed, num_runs=runs)
        cfg = parse_config(raw)
        hashed = {k: v for k, v in cfg.effective.items() if k != "output"}
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
        assert cfg.config_hash() == hashlib.sha256(canonical).hexdigest()

    @pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                             ids=["as-built", "no-sha2", "no-builtin"])
    def test_sha256_import_chain(self, blocked):
        # The import chain that supplies config_hash's sha256, run on its own
        # in a fresh interpreter with some of its modules made unimportable:
        # _sha2 from 3.12, _sha256 on 3.10 and 3.11, hashlib when neither
        # builtin module imports.
        tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
        (chain,) = [node for node in tree.body if isinstance(node, ast.Try)]
        code = (
            f"import sys\nfor name in {blocked!r}:\n    sys.modules[name] = None\n"
            f"{ast.unparse(chain)}\n"
            "import hashlib\n"
            "same = sha256(b'slice').hexdigest() == hashlib.sha256(b'slice').hexdigest()\n"
            "print(sha256 is hashlib.sha256 or sha256.__module__, same)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        new = sys.version_info >= (3, 12)
        expected = {
            (): "_sha2" if new else "_sha256",
            ("_sha2",): True if new else "_sha256",
            ("_sha2", "_sha256"): True,
        }[blocked]
        assert result.stdout.split() == [str(expected), "True"]


class TestGoldenOutputs:
    # SHA-256 of every file `simulate --traces` writes for a small N=3
    # model, whose state labels ("s=[1,0,2]") need CSV quoting. Published
    # trajectories must keep these bytes through any change to how trace
    # rows are held or written.
    GOLDEN = {
        "csv": {
            "empirical_A.csv":
                "7fa56748d647c9ef86d915905c3424558f28e1e8e143e103fa93362572b5f56a",
            "empirical_C.csv":
                "af7d85eafe064a4f0b42cb35f56130f9def285f0c54a0a09f1cf8e23eaf87f78",
            "traces_A.csv":
                "bb13ddfd48c590c4dde0232e2fa9e7e5a01c4bd2372eadf6cb1b299c45178e34",
            "traces_C.csv":
                "5aa985e4b5b776f0a019cc2cd24a4019a053d843201dea8b5cec8ac7c79415e3",
        },
        "json": {
            "empirical_A.json":
                "039854bc84f6aade67aa49940563ae5b951d2331750b2000d0a32fc17b2bb33b",
            "empirical_C.json":
                "d98457deab8784478ff7fd342cf78ca8a6e223d4d974c5b3e5b83f527ca889b6",
            "traces_A.json":
                "66cf46ba300cd51eff737a132816001519d48fa0fe7ef2e5d09ca3ba4fd11f27",
            "traces_C.json":
                "d356f8a1ccb25e37d2676a86c270ce12e7112fa3382909ef383144a4b24a4e84",
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

    # The same for longer multi-type runs, which pin the creation draws of
    # several types, a position and a type mark per creation: the N=3
    # model's scenario A at 100 periods, and a two-type scenario with one
    # rate from 10 up.
    MULTI_TYPE_GOLDEN = {
        ("n3-A-100", "csv"): {
            "empirical_A.csv": "50dec90e840bbba751e9082eea714e7d6959d78ca085ab3d4af34128f11faadb",
            "traces_A.csv": "55bfc8148a5baff1465fd58fcc0dc549b9ad7e8ed3ef20acb647debdd0b49d59",
        },
        ("n3-A-100", "json"): {
            "empirical_A.json": "ce9a57b42b26690145f7ab0c818b13018c6ea8f01b14b6dea5a8091583125ab5",
            "traces_A.json": "908cdd14d5488a8169fdc3a83b438e1c0b6e202c5dacaa1c4b0f64d26054d282",
        },
        ("two-type-rate-11", "csv"): {
            "empirical_A.csv": "bafb287b5e9a5f2b2b930bc3c33de5817748bae6470157e559197e7f9e32515a",
            "traces_A.csv": "ca00eb3f9989391c14ac2607c22aa518a536f79bc5ef583aac7a42580f98dcdb",
        },
        ("two-type-rate-11", "json"): {
            "empirical_A.json": "9b7e39411b4d0311ca31b06ecc02d29b6dfdbf9520d92da1303b29f5a795125f",
            "traces_A.json": "1be029e7e4360d9c9e6a0f4b7284491f7dbb46932c3cd294636707cb3af15afa",
        },
    }

    @staticmethod
    def multi_type_raw(case: str) -> dict:
        if case == "n3-A-100":
            raw = n3_traces_raw(20, 100)
            raw["scenarios"] = {"A": raw["scenarios"]["A"]}
            return raw
        raw = two_type_raw()
        raw["scenarios"]["A"] = {"creation_rates": [11.0, 0.4], "mean_lifetimes": [0.25, 2.0]}
        # Always-accept keeps three type-1 slices at every boundary; D102
        # declines enough that the boundary states vary.
        raw["strategy"] = 102
        raw["sim"].update(num_runs=20, periods_per_run=50)
        return raw

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("case", ["n3-A-100", "two-type-rate-11"])
    def test_multi_type_traces_bytes(self, tmp_path, case, out_format):
        config = tmp_path / "multi_type.json"
        config.write_text(json.dumps(self.multi_type_raw(case)), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), "--traces", "--quiet",
                "--out", str(out), "--format", out_format]
        assert main(argv) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == self.MULTI_TYPE_GOLDEN[case, out_format]

    # The same for the one-type baseline.json figures at a reduced protocol;
    # they pin the simulator's one-type path, one uniform per creation.
    FIGURE_GOLDEN = {
        ("figure3", "csv"): {
            "figure3.csv": "ec78fc4a049bd690ad0948ad064fa35cd0faa2087a5c96f1f93f11aea56c6a06",
            "figure3_summary.csv":
                "17789ca2fd19e9e4b493f9cb9b4ee39a10516bc816859610f200d61d6170fd11",
        },
        ("figure3", "json"): {
            "figure3.json": "6c47a85c64cc886b17aa8cb7583393b157a7bcb7965041fb35df779a95ffb185",
        },
        ("figure2", "csv"): {
            "figure2.csv": "57c52796925c097dee446ce87a340e0dcaeeb72cb9572e192a7c1ea1d6674dc5",
        },
        ("figure2", "json"): {
            "figure2.json": "41dbbc17e2365088400c1b289a4248b74a7f50aacc5d8c6eabc8a5ecb10025a6",
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

    # The same for the figure3 files of the bundled baseline.json read
    # unchanged (seed 42, 1000 runs x 100 periods): the document a user
    # gets from `slice-markov figure3` with no flags.
    FULL_FIGURE3_GOLDEN = {
        "figure3.csv": "9d339ec3ff60d76a880152674aa2debac39c1a518d933ec09d086f0534553936",
        "figure3_summary.csv": "5b66ac86178c84fedac3822d2aa2cf983eff87f4335b96300a56c66c1c3789ac",
    }

    def test_full_size_figure3_bytes(self, tmp_path):
        out = tmp_path / "out"
        argv = ["figure3", "--config", str(default_config_path()), "--quiet", "--out", str(out),
                "--format", "csv"]
        assert main(argv) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == self.FULL_FIGURE3_GOLDEN

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_figure2_bytes(self, tmp_path, out_format):
        digests = self.figure_digests(tmp_path, "figure2", out_format)
        assert digests == self.FIGURE_GOLDEN["figure2", out_format]

    # The same for the `matrix` files of the perfbench N=3 model (|R|=34)
    # under a mixed strategy id. The depths run deepest first, so q=1 is
    # read from the ordering table built for q=2; both must keep these bytes
    # through any change to how the matrices are built.
    MATRIX_GOLDEN = {
        "csv": {
            "matrix_A_q1.csv": "d10858fa178f6565e5848a3c010ef57a593c3f09f2f768692d71bbaf302fc03e",
            "matrix_A_q2.csv": "43cb2b5bc24b73958ca3bfcfd1773c76909d5ebffba8959d83350ac31051a321",
            "matrix_C_q1.csv": "7ab39effab367996f3e371d64ee7217e1c6469634494be29868fd9fab58d34eb",
            "matrix_C_q2.csv": "1b0d84e293715c0aa04cc6a6ab8b9253d8b05dedfe4ee3b6dc81c02d78094c23",
        },
        "json": {
            "matrix_A_q1.json": "15c242071ce82897e375abd7c6851986723a61a525b6b059b66e5e281f2c9b5e",
            "matrix_A_q2.json": "497157a72678074301b3d0e8ed3a1046066add9999c38c081ed494c9194488af",
            "matrix_C_q1.json": "cd4f1a95a092ef1f36ef969a9b8dfb6d3a2ec3897f0f88251418fc7727414258",
            "matrix_C_q2.json": "c85774b2ad147c77589951eadb92d6e14b20badb76ba4bdf8d8d826e206aea07",
        },
    }

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_n3_matrix_bytes(self, tmp_path, out_format):
        with open(PERFBENCH_CONFIGS / "n3_matrix.json", encoding="utf-8") as handle:
            raw = json.load(handle)
        raw.update(strategy=0x5A5A5A5A5A5A5A, truncation=[2, 1])
        config = tmp_path / "n3_matrix.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["matrix", "--config", str(config), "--quiet", "--out", str(out),
                "--format", out_format]
        assert main(argv) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == self.MATRIX_GOLDEN[out_format]

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


def resolve(raw: dict):
    cfg = parse_config(raw)
    return resolve_strategy(cfg, cfg.region())


class TestResolveStrategy:
    def test_always_accept(self, raw):
        strategy, label = resolve(raw)
        assert label == "always-accept"
        assert strategy.bits == 0b0111

    def test_decline_all(self, raw):
        raw["strategy"] = "decline-all"
        strategy, label = resolve(raw)
        assert label == "decline-all"
        assert strategy.bits == 0

    def test_numeric_id(self, raw):
        raw["strategy"] = 5
        strategy, label = resolve(raw)
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
            resolve(raw)

    def test_explicit_table(self, raw):
        raw["strategy"] = [[1], [0], [1], [0]]
        strategy, label = resolve(raw)
        assert label == "custom"
        assert strategy.bits == 0b0101

    def test_invalid_table_rejected(self, raw):
        raw["strategy"] = [[1], [1], [1], [1]]  # accepts out of the region
        with pytest.raises(InvalidStrategyError):
            resolve(raw)


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
        assert json.dumps(rows) == json.dumps(list(rows))
        assert json.dumps(rows, indent=2) == json.dumps(list(rows), indent=2)

    def test_trace_rows_view_matches_materialised_rows(self):
        trace = empirical_documents(n3_config(20, 10), include_traces=True)[1]
        rows = trace["rows"]
        listed = list(rows)
        assert len(rows) == len(listed) == 20 * 11
        assert json.dumps(rows) == json.dumps(listed)
        assert json.dumps(rows, indent=2) == json.dumps(listed, indent=2)
        assert {type(cell) for row in listed for cell in row} == {int, str}

    def test_trace_documents_hold_no_per_row_objects(self):
        # Trace rows are a view over the int64 trajectory arrays. Measured
        # peaks: about 3.5 times the arrays' bytes with the view (most of
        # it the simulator's block of draws, sort keys and step grid, whose
        # low-rate runs take fewer draws than per-type counts did; 3.34
        # with initial and fresh lifetimes on one path; 3.52 both with one
        # in-place sort of packed keys and with argsort; 3.54
        # in earlier folds both with each run's draws in its block's two
        # arrays and in arrays of its own; 4.5 with blocks of 5 * 2**13
        # uniforms and lifetimes), about 13 times with one Python list per
        # boundary.
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


class TestTraceWriter:
    """The trace CSV writer gathers each slice of rows from per-state and
    per-period strings; its text must equal one ``csv.writer.writerow``
    per row."""

    LABELS = ["s=[1,0]", 'say "2"', "", "a\nb", " lead", "plain", "x,y"]

    @staticmethod
    def _per_row(trajectories, labels) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for run, states in enumerate(trajectories.tolist()):
            for period, state in enumerate(states):
                writer.writerow([run, period, state, labels[state]])
        return out.getvalue()

    # Slices of 5 and 7 rows cut runs of every width here, 11 and 13 hold
    # whole runs of some widths, and widths above the slice take the path
    # that makes period strings slice by slice. "at" and "past" put the
    # slice at the boundaries times the states and one below, so that the
    # rows are just within and just past the bound on (period, state) texts.
    @pytest.mark.parametrize("rows_per_slice", [5, 7, 11, 13, "at", "past", serialize._TRACE_SLICE])
    @pytest.mark.parametrize("runs, width", [(1, 1), (3, 2), (4, 11), (2, 30), (9, 6)])
    def test_equals_per_row_writer(self, monkeypatch, rows_per_slice, runs, width):
        cells = width * len(self.LABELS)
        rows_per_slice = {"at": cells, "past": cells - 1}.get(rows_per_slice, rows_per_slice)
        monkeypatch.setattr(serialize, "_TRACE_SLICE", rows_per_slice)
        tables = self._count_cell_tables(monkeypatch)
        rng = np.random.default_rng(runs * 100 + width)
        trajectories = rng.integers(0, len(self.LABELS), (runs, width))
        out = io.StringIO()
        _write_trace_rows(out, TraceRows(trajectories, self.LABELS))
        assert out.getvalue() == self._per_row(trajectories, self.LABELS)
        assert len(tables) == (cells <= rows_per_slice)

    @staticmethod
    def _count_cell_tables(monkeypatch) -> list:
        """A list that gets one entry each time the writer makes its
        (period, state) texts."""
        made = []
        cell_texts = serialize._cell_texts
        monkeypatch.setattr(serialize, "_cell_texts", lambda *args: made.append(True) or cell_texts(*args))
        return made

    def test_default_slice_boundary(self, monkeypatch):
        # 1,500 runs of 11 boundaries cross the default slice once, one
        # run straddling it; a 20,000-boundary run is longer than a slice.
        # On eight states, 2,048 boundaries make exactly a slice of
        # (period, state) texts and 2,049 one more, which the row path
        # writes, cutting runs.
        rng = np.random.default_rng(5)
        assert 1500 * 11 > serialize._TRACE_SLICE and serialize._TRACE_SLICE % 11
        eight = [*self.LABELS, "eighth"]
        assert 2048 * len(eight) == serialize._TRACE_SLICE
        for labels, shape in ((self.LABELS, (1500, 11)), (self.LABELS, (2, 20_000)),
                              (eight, (9, 2048)), (eight, (9, 2049))):
            tables = self._count_cell_tables(monkeypatch)
            trajectories = rng.integers(0, len(labels), shape)
            out = io.StringIO()
            _write_trace_rows(out, TraceRows(trajectories, labels))
            assert out.getvalue() == self._per_row(trajectories, labels)
            assert len(tables) == (shape[1] * len(labels) <= serialize._TRACE_SLICE)


class TestLabelledRowWriter:
    """Matrix and empirical rows are a csv-encoded label and one join of
    their numbers; the text must equal one ``csv.writer.writerow`` of every
    cell's ``format_value`` per row."""

    LABELS = ["(0,1,2)", 'say "2"', "", "a\nb", " lead", "plain", "x,y"]
    NUMBERS = [0, 1, 7, -3, 10**20, 0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, 0.1, 1 / 3,
               1e-17, 0.99999999999999989, 1.7976931348623157e308, float("inf"), float("nan")]

    @staticmethod
    def _per_cell(rows) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow([format_value(cell) for cell in row])
        return out.getvalue()

    def test_equals_per_cell_writer(self):
        rng = np.random.default_rng(3)
        rows = [[label, *rng.permutation(np.array(self.NUMBERS, dtype=object)).tolist()[:width]]
                for label in self.LABELS for width in (1, 2, 5, len(self.NUMBERS))]
        rows.append([self.LABELS[0], *rng.random(40).tolist(), 12])
        out = io.StringIO()
        _write_labelled_rows(out, rows)
        assert out.getvalue() == self._per_cell(rows)

    def test_other_cells_are_refused(self):
        for cell in (True, np.float64(0.5), "0.5"):
            with pytest.raises(KeyError):
                _write_labelled_rows(io.StringIO(), [["s", 0.5, cell]])

    @pytest.mark.parametrize("kind", ["matrix", "empirical"])
    def test_documents_take_the_labelled_path(self, kind):
        cfg = n3_config(20, 10)
        doc = (matrix_documents(cfg) if kind == "matrix" else empirical_documents(cfg))[0]
        ((columns, rows),) = _csv_tables(doc).values()
        assert isinstance(rows, LabelledRows)
        assert {type(cell) for row in rows for cell in row[1:]} == ({float} if kind == "matrix" else {float, int})
        generic, labelled = io.StringIO(), io.StringIO()
        _write_table(generic, doc, columns, list(rows))
        dump(doc, labelled, "csv")
        assert labelled.getvalue() == generic.getvalue()
        assert '"s=[1,0,0]"' in labelled.getvalue()


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

    def test_analytical_column_is_matrix_power_row(self):
        # The analytical PMF at period t is row `start` of P**t.
        cfg = small_config()
        doc = figure2_document(cfg)
        proto = cfg.figure2
        region = cfg.region()
        strategy, _ = resolve_strategy(cfg, region)
        matrix = build_transition_matrix(
            cfg.model, region, cfg.scenarios[proto.scenario], strategy, proto.q_plus_max
        )
        start = region.index_of[proto.initial_state]
        for t in range(proto.periods + 1):
            analytical = [row[3] for row in doc["rows"] if row[0] == t]
            np.testing.assert_allclose(
                analytical, np.linalg.matrix_power(matrix.probs, t)[start], rtol=0, atol=1e-12
            )

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
