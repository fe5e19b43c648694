"""One benchmark job: a fresh interpreter that runs one workload through
``slice_markov.cli.main``, exactly as the ``slice-markov`` command would.

    python3 perfbench/job.py WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is one of

- ``plain``: only two time marks are taken, when ``load_config`` and the
  first ``enumerate_region`` return; together they end set-up.
- ``trace``: spans (name, start, end, parent) are recorded around the calls
  into each layer's public functions, by rebinding the module attributes the
  program looks them up through. Spans stay in memory and are written with
  the result when the job ends.
- ``setup``: the job stops as soon as set-up has finished.

In every mode a speed probe runs a fixed calibration chunk every
``PROBE_PERIOD_S`` from a timer signal, on the job's own thread, and records
when each chunk ran. ``run.py`` takes the probe's time out of the job's
times and scales them to the reference speed (see README.md).

The result JSON holds the time marks (``time.monotonic``, which is one clock
for every process on the machine), the probe intervals, the spans and the
counts taken at the span boundaries. Workload definitions live here so that
``run.py`` shares them with the job.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
import signal
import sys
import time
from operator import itemgetter

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_PERIOD_S = 0.05  # from the end of one calibration chunk to the next
PROBE_ROUNDS = 250  # about 1 ms of work per chunk at the reference speed

# Workload name -> (subcommand, config, extra arguments). ``None`` as config
# means the bundled ``baseline.json``, read unchanged.
WORKLOADS = {
    "fig3-baseline": ("figure3", None, []),
    "matrix-n3": ("matrix", os.path.join(HERE, "configs", "n3_matrix.json"), []),
    "simulate-n3-traces": ("simulate", os.path.join(HERE, "configs", "n3_traces.json"), ["--traces"]),
}


def iter_csv(path: str):
    """Yield a CSV result file's comment metadata (a dict), then its header
    row, then each data row."""
    with open(path, encoding="utf-8", newline="") as handle:
        meta = {}
        for line in handle:
            if not line.startswith("#"):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
        yield meta
        yield from csv.reader(itertools.chain([line], handle))


def read_matrix_csv(path: str) -> tuple[dict, list[str], list[list[float]], list[float]]:
    """(metadata, row labels, entries, row deficits) of a matrix CSV file."""
    records = iter_csv(path)
    meta = next(records)
    next(records)
    rows = list(records)
    labels = [row[0] for row in rows]
    entries = [[float(x) for x in row[1:-1]] for row in rows]
    deficits = [float(row[-1]) for row in rows]
    return meta, labels, entries, deficits


PROBE_INDEX = {(a, b): 4 * a + b for a in range(4) for b in range(4)}


def calibration_chunk() -> int:
    """Fixed interpreted work shaped like the program's inner loops: small
    tuples and lists, sorts, dict look-ups and scalar random draws."""
    rand = random.Random(0)
    state, visits = (0, 0), 0
    for _ in range(PROBE_ROUNDS):
        events = [(rand.random(), kind) for kind in (1, -1, 2, -2)]
        events.sort(key=itemgetter(0))
        for _, kind in events:
            n = abs(kind) - 1
            level = state[n] + (1 if kind > 0 else -1)
            state = state[:n] + (min(3, max(0, level)),) + state[n + 1:]
        visits += PROBE_INDEX[state]
    return visits


class SetupDone(Exception):
    """Raised out of the program to end a ``setup`` job."""


class Recorder:
    """Time marks and, when tracing, spans around wrapped calls."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.marks: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = {"simulate.runs": 0, "simulate.periods": 0, "markov.builds": 0,
                       "domain.strategies": 0}
        self.max_row_deficit = 0.0
        self.builds: list[tuple] = []
        self.written: list[str] = []
        self.region = None
        self.probes: list[list[float]] = []  # [start, end] of each calibration chunk

    def start_probe(self) -> None:
        """Run a calibration chunk every ``PROBE_PERIOD_S`` until ``stop_probe``.

        The timer is re-armed after each chunk, so chunks never nest. In a
        traced job each chunk is also a span, a child of the span it
        interrupted, so it is taken out of that span's self time.
        """
        spans, stack, probes, tracing = self.spans, self.stack, self.probes, self.tracing

        def probe(signum, frame):
            start = time.monotonic()
            calibration_chunk()
            end = time.monotonic()
            probes.append([start, end])
            if tracing:
                spans.append(["probe", start, end, stack[-1] if stack else None])
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def stop_probe(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def wrap(self, module, attr: str, name: str, after=None, always: bool = False) -> None:
        """Rebind ``module.attr`` to a wrapper recording a span named ``name``.

        ``after(args, kwargs, result)`` runs once the span has ended. With
        tracing off only ``always`` wrappers are installed, and they record
        no span.
        """
        if not (self.tracing or always):
            return
        func = getattr(module, attr)
        spans, stack, tracing = self.spans, self.stack, self.tracing

        def wrapper(*args, **kwargs):
            if tracing:
                index = len(spans)
                spans.append([name, time.monotonic(), None, stack[-1] if stack else None])
                stack.append(index)
                try:
                    result = func(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = time.monotonic()
            else:
                result = func(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)


def install(recorder: Recorder, mode: str) -> None:
    from slice_markov import experiments, markov, serialize

    def config_done(args, kwargs, result):
        recorder.marks.setdefault("config", time.monotonic())

    def region_done(args, kwargs, result):
        if "setup" not in recorder.marks:
            recorder.marks["setup"] = time.monotonic()
            recorder.region = result
            if mode == "setup":
                raise SetupDone

    def simulated(args, kwargs, result):
        runs, periods = result.shape
        recorder.counts["simulate.runs"] += runs
        recorder.counts["simulate.periods"] += runs * (periods - 1)

    def built(args, kwargs, result):
        recorder.counts["markov.builds"] += 1
        recorder.max_row_deficit = max(recorder.max_row_deficit, float(result.row_deficits.max()))
        _, region, scenario, _, q_plus_max = args[:5]
        recorder.builds.append((region, scenario, q_plus_max))

    def enumerated(args, kwargs, result):
        recorder.counts["domain.strategies"] += len(result)

    def wrote(args, kwargs, result):
        recorder.written.extend(result)

    recorder.wrap(experiments, "load_config", "experiments.config", config_done, always=True)
    recorder.wrap(experiments, "enumerate_region", "domain.region", region_done, always=True)
    recorder.wrap(experiments, "enumerate_valid_strategies", "domain.strategies", enumerated)
    for name in ("figure3_document", "matrix_documents", "empirical_documents"):
        recorder.wrap(experiments, name, "experiments.documents")
    recorder.wrap(experiments, "simulate_episodes", "simulate.episodes", simulated)
    recorder.wrap(experiments, "estimate_empirical_matrix", "simulate.estimate")
    recorder.wrap(experiments, "rmse", "simulate.rmse")
    recorder.wrap(experiments, "build_transition_matrix", "markov.build", built)
    recorder.wrap(markov, "stationary_distribution", "markov.stationary")
    recorder.wrap(serialize, "write_document", "serialize.write", wrote)


def stationary_pass(recorder: Recorder, out_dir: str) -> dict[str, list[float]]:
    """Solve for the stationary distribution of every matrix written, read
    back from its CSV file as a user of the ``matrix`` output would."""
    from slice_markov import markov

    solved = {}
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("matrix_") and name.endswith(".csv")):
            continue
        meta, _, entries, deficits = read_matrix_csv(os.path.join(out_dir, name))
        matrix = markov.TransitionMatrix(
            probs=entries, region=recorder.region,
            renormalized=meta["renormalized"] == "true", row_deficits=deficits,
        )
        solved[name] = [float(x) for x in markov.stationary_distribution(matrix)]
    return solved


def bag_probability_pass(builds: list[tuple]) -> tuple[int, float]:
    """Time ``multiset_prob`` over exactly the request bags the recorded
    builds enumerate: creations 0..q per type, releases 0..state[n] per type."""
    from slice_markov.arrivals import multiset_prob, request_kinds

    calls = []
    for region, scenario, q_plus_max in builds:
        kinds = request_kinds(scenario.num_types)
        for state in region.states:
            ranges = [range(q_plus_max + 1)] * scenario.num_types + [range(s + 1) for s in state]
            for counts in itertools.product(*ranges):
                calls.append((scenario, {k: c for k, c in zip(kinds, counts) if c}, state))
    if not calls:
        return 0, 0.0
    started = time.perf_counter()
    for scenario, bag, state in calls:
        multiset_prob(scenario, bag, state)
    return len(calls), time.perf_counter() - started


def main(argv: list[str]) -> int:
    workload, seed, out_dir, result_path, mode = argv
    command, config, extra = WORKLOADS[workload]
    recorder = Recorder(tracing=mode == "trace")

    started = time.monotonic()
    recorder.start_probe()
    import slice_markov
    from slice_markov import cli, experiments
    recorder.marks["import"] = time.monotonic()
    if recorder.tracing:
        recorder.spans.append(["startup.import", started, recorder.marks["import"], None])
    install(recorder, mode)

    if config is None:
        config = experiments.default_config_path()
    args = [command, "--config", config, "--seed", seed, "--out", out_dir, "--quiet", *extra]
    result = {"package": os.path.dirname(slice_markov.__file__), "argv": args}
    try:
        result["exit_code"] = cli.main(args)
    except SetupDone:
        result["exit_code"] = 0
    else:
        if command == "matrix" and result["exit_code"] == 0:
            result["stationary"] = stationary_pass(recorder, out_dir)
    recorder.marks["end"] = time.monotonic()
    recorder.stop_probe()

    if recorder.tracing:
        bags, bag_prob_s = bag_probability_pass(recorder.builds)
        recorder.counts["arrivals.bags"] = bags
        result["bag_prob_s"] = bag_prob_s
        result["max_row_deficit"] = recorder.max_row_deficit
        result["bytes_written"] = sum(os.path.getsize(path) for path in recorder.written)
    result.update(marks=recorder.marks, probes=recorder.probes, spans=recorder.spans, counts=recorder.counts)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
