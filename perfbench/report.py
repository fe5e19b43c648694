"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run it from the root of a checkout. For each workload it makes one
``run.py`` run with ``--trace 0`` and one with ``--trace 1`` and prints each
end-to-end and per-layer metric by name with its unit, the checked result
documents, the machine facts, and the share of the traced ``wall_s`` that
each workload's dominant layer takes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from job import WORKLOADS  # noqa: E402

# Workload -> (per-layer metrics summed, least expected share of traced wall_s).
DOMINANT = {
    "fig3-baseline": (("simulate.episodes_s",), 0.90),
    "matrix-n3": (("markov.build_s",), 0.90),
    "simulate-n3-traces": (("serialize.write_s", "experiments.self_s"), 0.15),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        details, plain = run(workload, args.seed, args.seconds, 0)
        _, traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload}  seed {details['seed']}  machine {json.dumps(details['machine'])}")
        for result in (plain, traced):
            print(f"   documents checked {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            ok &= result["correct"]
        for name, metric in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"   {name:28s} {metric['value']:>16.6g} {metric['unit']}")
        layer = {name: metric["value"] for name, metric in traced["metrics"].items()}
        names, least = DOMINANT[workload]
        share = sum(layer[name] for name in names) / layer["trace.wall_s"]
        print(f"   share of traced wall_s in {' + '.join(names)}: {share:.3f} (expected >= {least})")
        print(f"   unaccounted {layer['trace.unaccounted_s']:.4f} s, "
              f"tracing overhead {layer['trace.overhead_s']:.4f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
