"""The slice-markov benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``
there. Each job is a fresh interpreter running ``perfbench/job.py``, which
calls ``slice_markov.cli.main`` as the ``slice-markov`` command would. Jobs
run one after another while the next one should end within ``--seconds`` of
the start of the run; every job's output documents are checked after it
ends, outside the timed region. With ``--trace 0`` the last line of
standard output reports the end-to-end metrics as medians over the jobs;
with ``--trace 1`` traced and untraced jobs alternate, and it reports the
per-layer metrics of the traced jobs. Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from job import WORKLOADS, iter_csv, read_matrix_csv  # noqa: E402

JOB = os.path.join(HERE, "job.py")
REFERENCE = os.path.join(HERE, "reference", "n3_matrices.json")
SETUP_PROBES = 1  # set-up-only jobs per run, besides the set-up of every plain job
MATRIX_TOL = 1e-12  # against the stored reference, and DP against brute force
ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-9  # L1 norm of pi P - pi
BRUTE_FORCE_DEPTHS = (1, 2, 3)
PROBE_REFERENCE_S = 0.001  # a calibration chunk's time at the reference speed

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "experiments.config_s": "s",
    "domain.region_s": "s",
    "domain.strategies_s": "s",
    "domain.strategies": "count",
    "simulate.episodes_s": "s",
    "simulate.runs": "count",
    "simulate.periods": "count",
    "simulate.us_per_period": "us",
    "simulate.estimate_s": "s",
    "simulate.rmse_s": "s",
    "markov.build_s": "s",
    "markov.builds": "count",
    "markov.build_us_per_bag": "us",
    "markov.dp_s": "s",
    "markov.stationary_s": "s",
    "markov.max_row_deficit": "prob",
    "arrivals.bags": "count",
    "arrivals.bag_prob_s": "s",
    "experiments.self_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
# Span name -> per-layer metric holding the summed self time of its spans.
SPAN_METRICS = {
    "startup.import": "startup.import_s",
    "experiments.config": "experiments.config_s",
    "domain.region": "domain.region_s",
    "domain.strategies": "domain.strategies_s",
    "experiments.documents": "experiments.self_s",
    "simulate.episodes": "simulate.episodes_s",
    "simulate.estimate": "simulate.estimate_s",
    "simulate.rmse": "simulate.rmse_s",
    "markov.build": "markov.build_s",
    "markov.stationary": "markov.stationary_s",
    "serialize.write": "serialize.write_s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed job)."""


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe_scale(probes: list[list[float]], start: float, end: float) -> float:
    """The reference chunk time over the mean time of the probe chunks that
    started from ``start`` to ``end`` (or of all the job's chunks, if none
    did): the mean, not the median, since the host switches between a fast
    and a slow state many times a second, and the mean weighs the two as
    the job met them."""
    inside = [stop - begin for begin, stop in probes if start <= begin < end] or [
        stop - begin for begin, stop in probes]
    return PROBE_REFERENCE_S / statistics.fmean(inside)


def reference_time(probes: list[list[float]], start: float, end: float) -> float:
    """The job's own time from ``start`` to ``end``, without the probe
    chunks, at the reference speed."""
    own = end - start - sum(max(0.0, min(stop, end) - max(begin, start)) for begin, stop in probes)
    return own * probe_scale(probes, start, end)


class Context:
    """What the jobs of one run share: paths, the seed, and check inputs."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (os.pathsep + path if path else ""))
        self.jobs = 0

    def spawn(self, mode: str) -> dict:
        """Run one job and return its result with the parent's timings."""
        self.jobs += 1
        out_dir = os.path.join(self.work, f"job{self.jobs}")
        result_path = out_dir + ".json"
        log_path = out_dir + ".log"
        argv = [sys.executable, JOB, self.workload, str(self.seed), out_dir, result_path, mode]
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = {}
        if proc.returncode != 0 or result.get("exit_code") != 0:
            with open(log_path, encoding="utf-8") as handle:
                tail = handle.read()[-2000:]
            raise BenchError(f"{mode} job exited with {proc.returncode}, "
                             f"program code {result.get('exit_code')}:\n{tail}")
        if os.path.realpath(result["package"]) != os.path.realpath(os.path.join(self.src, "slice_markov")):
            raise BenchError(f"job imported slice_markov from {result['package']}, not from {self.src}")
        marks, probes = result["marks"], result["probes"]
        if not probes:
            raise BenchError(f"{mode} job ran no speed probe")
        result.update(
            mode=mode,
            out_dir=out_dir,
            spawned=spawned,
            elapsed_wall_s=marks["end"] - marks["setup"],
            elapsed_total_s=exited - spawned,
            setup_s=reference_time(probes, spawned, marks["setup"]),
            wall_s=reference_time(probes, marks["setup"], marks["end"]),
            total_s=reference_time(probes, spawned, exited),
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        return result


# ---------------------------------------------------------------- checks


class Checker:
    """Output checks. Each result document is one op; it fails if any check
    on it fails. The checks hold for any seed and any order of random draws."""

    def __init__(self, ctx: Context):
        sys.path.insert(0, ctx.src)
        import numpy as np
        import slice_markov as sm

        self.np, self.sm = np, sm
        command, config, _ = WORKLOADS[ctx.workload]
        self.command = command
        self.cfg = sm.load_config(config or sm.default_config_path(), seed_override=ctx.seed)
        self.region = sm.enumerate_region(self.cfg.model)
        self.labels = [sm.state_label(s) for s in self.region.states]
        self.dp_ok = True
        if command == "matrix":
            with open(REFERENCE, encoding="utf-8") as handle:
                self.reference = json.load(handle)
        if command in ("matrix", "figure3"):
            self.dp_ok = self.dp_matches_brute_force()

    def dp_matches_brute_force(self) -> bool:
        """The memoized builder equals the explicit-enumeration builder on
        the bundled model, for every valid strategy, scenario and small depth."""
        sm, np = self.sm, self.np
        base = sm.load_config(sm.default_config_path())
        region = sm.enumerate_region(base.model)
        for strategy in sm.enumerate_valid_strategies(base.model, region):
            for scenario in base.scenarios.values():
                for q in BRUTE_FORCE_DEPTHS:
                    dp = sm.build_transition_matrix(base.model, region, scenario, strategy, q)
                    bf = sm.brute_force_transition_matrix(base.model, region, scenario, strategy, q)
                    if np.max(np.abs(dp.probs - bf.probs)) > MATRIX_TOL:
                        return False
        return True

    def check(self, job: dict) -> tuple[int, int, list[str]]:
        """(documents attempted, documents failed, failure messages)."""
        docs = {"figure3": self.figure3_docs, "matrix": self.matrix_docs,
                "simulate": self.simulate_docs}[self.command](job)
        failures = [f"{name}: {problem}" for name, problems in docs.items() for problem in problems]
        return len(docs), sum(1 for problems in docs.values() if problems), failures

    def common(self, meta: dict, kind: str) -> list[str]:
        problems = []
        if meta.get("kind") != kind:
            problems.append(f"kind {meta.get('kind')!r}, expected {kind!r}")
        if meta.get("config_hash") != self.cfg.config_hash():
            problems.append("config_hash differs from the effective configuration's")
        if meta.get("seed") != str(self.cfg.sim.seed):
            problems.append(f"seed {meta.get('seed')!r}")
        return problems

    def valid_strategy_count(self) -> int:
        """2 ** (creation decisions whose accepted target stays in the region)."""
        free = sum(
            1
            for state in self.region.states
            for n in range(len(state))
            if state[:n] + (state[n] + 1,) + state[n + 1:] in self.region.index_of
        )
        return 2 ** free

    def figure3_docs(self, job: dict) -> dict[str, list[str]]:
        problems = []
        path = os.path.join(job["out_dir"], "figure3.csv")
        summary_path = os.path.join(job["out_dir"], "figure3_summary.csv")
        if not (os.path.isfile(path) and os.path.isfile(summary_path)):
            return {"figure3": ["output files missing"]}
        records = iter_csv(path)
        meta = next(records)
        next(records)
        rows = list(records)
        problems += self.common(meta, "figure3")
        if not self.dp_ok:
            problems.append("memoized builder differs from the brute-force builder")
        proto = self.cfg.figure3
        strategies = self.valid_strategy_count()
        if meta.get("strategy_count") != str(strategies):
            problems.append(f"strategy_count {meta.get('strategy_count')}, expected {strategies}")
        expected = {(s, f"D{d}", str(q)) for s in proto.scenarios for d in range(strategies)
                    for q in proto.q_plus_max}
        seen = [(row[0], row[1], row[3]) for row in rows]
        if len(seen) != len(expected) or set(seen) != expected:
            problems.append(f"{len(seen)} rows do not cover scenarios x strategies x depths once each")
        epsilons: dict[tuple[str, str], list[float]] = {}
        for row in rows:
            epsilon = float(row[4])
            if not (math.isfinite(epsilon) and epsilon >= 0.0) or int(row[5]) < 0:
                problems.append(f"bad row {row}")
            epsilons.setdefault((row[0], row[3]), []).append(epsilon)
        records = iter_csv(summary_path)
        next(records)
        next(records)
        means = {}
        for scenario, q, mean, _ in records:
            means[scenario, q] = float(mean)
            values = epsilons.get((scenario, q), [])
            if not values or abs(float(mean) - math.fsum(values) / len(values)) > 1e-12 * max(1.0, float(mean)):
                problems.append(f"summary mean for {scenario} q={q} does not match its rows")
        low, high = str(min(proto.q_plus_max)), str(max(proto.q_plus_max))
        for scenario in proto.scenarios:
            if not means.get((scenario, high), math.inf) < means.get((scenario, low), -math.inf):
                problems.append(f"scenario {scenario}: mean epsilon at q={high} is not below q={low}")
        return {"figure3": problems}

    def matrix_docs(self, job: dict) -> dict[str, list[str]]:
        np = self.np
        docs = {}
        stationary = job.get("stationary", {})
        for name in sorted(self.reference):
            problems = docs.setdefault(name, [])
            path = os.path.join(job["out_dir"], name)
            if not os.path.isfile(path):
                problems.append("missing")
                continue
            meta, labels, entries, deficits = read_matrix_csv(path)
            problems += self.common(meta, "matrix")
            if not self.dp_ok:
                problems.append("memoized builder differs from the brute-force builder")
            if labels != self.labels:
                problems.append("row labels differ from the region")
                continue
            probs = np.array(entries)
            diff = float(np.max(np.abs(probs - np.array(self.reference[name]))))
            if not diff <= MATRIX_TOL:
                problems.append(f"max |entry - reference| = {diff:.3g}")
            if np.any(probs < 0.0) or np.any(probs > 1.0):
                problems.append("entry outside [0, 1]")
            if float(np.max(np.abs(probs.sum(axis=1) - 1.0))) > ROW_SUM_TOL:
                problems.append("a row does not sum to 1")
            scenario = self.cfg.scenarios[meta["scenario"]]
            bound = poisson_tail_bound(scenario.creation_rates, int(meta["q_plus_max"]))
            if min(deficits) < -ROW_SUM_TOL or max(deficits) > bound + ROW_SUM_TOL:
                problems.append(f"deficit outside [0, {bound:.3g}]")
            pi = stationary.get(name)
            if pi is None:
                problems.append("no stationary distribution")
                continue
            pi = np.array(pi)
            if (abs(pi.sum() - 1.0) > STATIONARY_TOL or pi.min() < -ROW_SUM_TOL
                    or np.abs(pi @ probs - pi).sum() > STATIONARY_TOL):
                problems.append("stationary distribution is not a fixed point")
        return docs

    def simulate_docs(self, job: dict) -> dict[str, list[str]]:
        np = self.np
        size = len(self.region)
        runs, periods = self.cfg.sim.num_runs, self.cfg.sim.periods_per_run
        docs = {}
        for name in self.cfg.scenarios:
            trace_problems = docs.setdefault(f"traces_{name}", [])
            empirical_problems = docs.setdefault(f"empirical_{name}", [])
            trace_path = os.path.join(job["out_dir"], f"traces_{name}.csv")
            empirical_path = os.path.join(job["out_dir"], f"empirical_{name}.csv")
            if not os.path.isfile(trace_path):
                trace_problems.append("missing")
            if not os.path.isfile(empirical_path):
                empirical_problems.append("missing")
            if trace_problems or empirical_problems:
                continue
            records = iter_csv(trace_path)
            trace_problems += self.common(next(records), "traces")
            next(records)
            states = np.full(runs * (periods + 1), -1, dtype=np.int64)
            count = 0
            for row in records:
                run, period, index = int(row[0]), int(row[1]), int(row[2])
                if (count < len(states) and run * (periods + 1) + period == count
                        and 0 <= index < size and row[3] == self.labels[index]):
                    states[count] = index
                elif len(trace_problems) < 5:
                    trace_problems.append(f"row {count} is out of order or leaves the region: {row}")
                count += 1
            if count != len(states):
                trace_problems.append(f"{count} rows, expected {len(states)}")
            if trace_problems:
                empirical_problems.append("traces unusable for cross-checking")
                continue
            paths = states.reshape(runs, periods + 1)
            counts = np.bincount(paths[:, :-1].ravel() * size + paths[:, 1:].ravel(),
                                 minlength=size * size).reshape(size, size)
            if int(counts.sum()) != runs * periods:
                trace_problems.append("transition count differs from runs x periods")

            records = iter_csv(empirical_path)
            empirical_problems += self.common(next(records), "empirical")
            header = next(records)
            rows = list(records)
            if header[1:-1] != self.labels or [row[0] for row in rows] != self.labels:
                empirical_problems.append("labels differ from the region")
                continue
            visits = np.array([int(row[-1]) for row in rows])
            entries = np.array([[float(x) for x in row[1:-1]] for row in rows])
            if int(visits.sum()) != runs * periods:
                empirical_problems.append(f"visits total {int(visits.sum())}, expected {runs * periods}")
            if not np.array_equal(visits, counts.sum(axis=1)):
                empirical_problems.append("visits differ from the transitions in the traces")
            expected = np.divide(counts, visits[:, None], out=np.zeros((size, size)), where=visits[:, None] > 0)
            if float(np.max(np.abs(entries - expected))) > 1e-15:
                empirical_problems.append("entries differ from the transition frequencies in the traces")
        return docs


def poisson_tail_bound(rates, q_plus_max: int) -> float:
    """Summed Poisson mass above the creation cap, one term per slice type."""
    return sum(
        max(0.0, 1.0 - math.fsum(math.exp(-rate) * rate ** k / math.factorial(k) for k in range(q_plus_max + 1)))
        for rate in rates
    )


# --------------------------------------------------------------- metrics


def span_self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(job: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (its overhead is added later).

    Times are scaled to the reference speed as the job's ``wall_s`` is.
    Probe chunks are spans of their own, so no layer's self time includes
    them.
    """
    spans = job["spans"]
    scale = probe_scale(job["probes"], job["marks"]["setup"], job["marks"]["end"])
    metrics = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for span, own in zip(spans, span_self_times(spans)):
        if span[0] in SPAN_METRICS:
            metrics[SPAN_METRICS[span[0]]] += scale * own
    counts = job["counts"]
    metrics.update(counts)
    metrics["markov.max_row_deficit"] = job["max_row_deficit"]
    metrics["arrivals.bag_prob_s"] = scale * job["bag_prob_s"]
    metrics["serialize.bytes"] = job["bytes_written"]
    metrics["markov.dp_s"] = metrics["markov.build_s"] - metrics["arrivals.bag_prob_s"]
    bags, periods = counts["arrivals.bags"], counts["simulate.periods"]
    metrics["markov.build_us_per_bag"] = 1e6 * metrics["markov.build_s"] / bags if bags else 0.0
    metrics["simulate.us_per_period"] = 1e6 * metrics["simulate.episodes_s"] / periods if periods else 0.0
    # Top-level spans and the probe chunks between them cover the wall
    # window but for dispatch and the job's own reading.
    window_start, window_end = job["marks"]["setup"], job["marks"]["end"]
    uncovered = window_end - window_start - sum(
        max(0.0, min(end, window_end) - max(start, window_start))
        for _, start, end, parent in spans if parent is None
    )
    metrics["trace.wall_s"] = job["wall_s"]
    metrics["trace.unaccounted_s"] = scale * uncovered
    return metrics


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# ------------------------------------------------------------------ main


def run(args: argparse.Namespace) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "slice_markov", "cli.py")):
        raise BenchError(f"no program at {os.path.join(root, 'src', 'slice_markov')}; "
                         "run from the root of a slice-markov checkout")
    started = time.monotonic()
    ctx = Context(root, args.workload, args.seed % 2**64)
    # Users run from installed byte code: compile it before any timing.
    compileall.compile_dir(os.path.join(ctx.src, "slice_markov"), quiet=1)
    setups = [] if args.trace else [ctx.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    checker = Checker(ctx)
    facts = machine_facts()

    # A job starts only if it should end within the run's seconds, counted
    # from the start of the run, once there are two jobs: two plain ones to
    # take a median of, or one plain and one traced job in a trace run.
    jobs, attempted, failed, failures = [], 0, 0, []
    while True:
        mode = "trace" if args.trace and len(jobs) % 2 == 1 else "plain"
        job = ctx.spawn(mode)
        jobs.append(job)
        tried, bad, problems = checker.check(job)
        attempted, failed = attempted + tried, failed + bad
        failures += problems
        shutil.rmtree(job["out_dir"], ignore_errors=True)
        elapsed = time.monotonic() - started
        if len(jobs) >= 2 and elapsed + job["elapsed_total_s"] > args.seconds:
            break

    plain = [job for job in jobs if job["mode"] == "plain"]
    setups += [job["setup_s"] for job in plain]

    if args.trace:
        traced = [job for job in jobs if job["mode"] == "trace"]
        per_job = [layer_metrics(job) for job in traced]
        metrics = {name: median([m[name] for m in per_job]) for name in per_job[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median([job["wall_s"] for job in plain])
        units = PER_LAYER_UNITS
        with open(os.path.join(ctx.work, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump([{"job": i, "spans": job["spans"]} for i, job in enumerate(traced)], handle)
    else:
        metrics = {name: median([job[name] for job in plain]) for name in END_TO_END_UNITS}
        metrics["setup_s"] = median(setups)
        units = END_TO_END_UNITS

    details = {
        "workload": args.workload,
        "seed": ctx.seed,
        "machine": facts,
        "jobs": [{key: job[key] for key in ("mode", "elapsed_wall_s", "setup_s", "wall_s", "total_s",
                                            "peak_rss_mb")}
                 for job in jobs],
        "setup_samples": setups,
        "failures": failures[:20],
    }
    print(json.dumps(details))
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so the running job is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
