"""Checks of the committed benchmark records (``BENCH_*.json`` at the repo
root): each names only workloads and metrics that ``BENCHMARK.json``
declares, every recorded run succeeded, and each summary recomputes from
its pairs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
TOLERANCE = 1e-6
# Keys of a recorded run that are not metrics.
RUN_FIELDS = {"seed", "exit", "correct", "attempted", "failed"}


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _succeeded(run: dict) -> bool:
    # A traced record of BENCH_17.json has no exit code; every other run has.
    return run.get("exit", 0) == 0 and run["correct"] is True and run["failed"] == 0


def test_records_exist():
    assert len(RECORDS) >= 3


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
class TestBenchRecord:
    def test_names_come_from_the_benchmark(self, path):
        benchmark = _load(ROOT / "BENCHMARK.json")
        workloads = {entry["name"] for entry in benchmark["workloads"]}
        end_to_end = {entry["name"] for entry in benchmark["end_to_end"]}
        per_layer = {entry["name"] for entry in benchmark["per_layer"]}
        record = _load(path)
        assert record["workloads"] and set(record["workloads"]) <= workloads
        for workload in record["workloads"].values():
            assert set(workload["summary"]) <= end_to_end
            for pair in workload["pairs"]:
                for side in ("parent", "change"):
                    assert set(pair[side]) - RUN_FIELDS <= end_to_end
        claim = record["claim"]
        assert claim["workload"] in record["workloads"]
        assert claim["metric"] in end_to_end
        for key, traced in record.items():
            if key.startswith("traced_"):
                for side in ("parent", "change"):
                    assert set(traced[side]) - RUN_FIELDS <= per_layer

    def test_every_run_succeeded(self, path):
        record = _load(path)
        for workload in record["workloads"].values():
            for pair in workload["pairs"]:
                assert pair["first"] in ("parent", "change")
                assert _succeeded(pair["parent"]) and _succeeded(pair["change"])
        for key, traced in record.items():
            if key.startswith("traced_"):
                assert _succeeded(traced["parent"]) and _succeeded(traced["change"])

    def test_summaries_recompute_from_pairs(self, path):
        record = _load(path)
        for workload in record["workloads"].values():
            pairs = workload["pairs"]
            for metric, summary in workload["summary"].items():
                values = {side: np.array([pair[side][metric] for pair in pairs]) for side in ("parent", "change")}
                for side, drawn in values.items():
                    q1, median, q3 = np.percentile(drawn, [25, 50, 75])
                    recorded = summary[side]
                    assert abs(recorded["q1"] - q1) <= TOLERANCE
                    assert abs(recorded["median"] - median) <= TOLERANCE
                    assert abs(recorded["q3"] - q3) <= TOLERANCE
                assert summary["pairs"] == len(pairs)
                assert summary["change_lower_in"] == int(np.sum(values["change"] < values["parent"]))

    def test_claim_matches_its_summary(self, path):
        record = _load(path)
        claim = record["claim"]
        summary = record["workloads"][claim["workload"]]["summary"][claim["metric"]]
        parent, change = summary["parent"], summary["change"]
        assert claim["pairs"] == summary["pairs"]
        assert claim["change_lower_in"] == summary["change_lower_in"]
        assert abs(claim["median_difference"] - (parent["median"] - change["median"])) <= TOLERANCE
        assert abs(claim["parent_interquartile_range"] - (parent["q3"] - parent["q1"])) <= TOLERANCE
