"""Regenerate the stored reference matrices of the ``matrix-n3`` workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the root of a checkout, only when a change is meant to alter the
analytical matrices; the benchmark compares every matrix it builds against
this file to within 1e-12.
"""

import json
import os
import sys
import tempfile

from job import WORKLOADS, read_matrix_csv
from run import REFERENCE

from slice_markov import cli


def main() -> int:
    _, config, _ = WORKLOADS["matrix-n3"]
    with tempfile.TemporaryDirectory(dir=".") as out_dir:
        code = cli.main(["matrix", "--config", config, "--out", out_dir, "--quiet"])
        if code:
            return code
        reference = {
            name: read_matrix_csv(os.path.join(out_dir, name))[2]
            for name in sorted(os.listdir(out_dir))
        }
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
            for name, rows in reference.items()
        ) + "\n}\n")
    print(f"wrote {len(reference)} matrices to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
