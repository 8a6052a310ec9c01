"""Record the reference output digests that the correctness gate compares against.

Usage: python3 perfbench/make_reference.py

Runs every workload once for each of SEEDS with OPENBLAS_NUM_THREADS=1 (the outputs
are byte-identical with the thread variables unset, which the benchmark
itself checks on every run) and rewrites perfbench/reference.json. Run it
only on a commit whose outputs are known good: the digests it writes are what
later commits must reproduce.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import REFERENCE_FILE, output_digests
from workloads import OUT_ROOT, WORKLOADS, child_env, cli_argv, git_sha, run_child, steps_for

SEEDS = range(25)


def main() -> int:
    env = child_env(blas_threads="1")
    digests: dict[str, dict[str, dict[str, str]]] = {w: {} for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            out = OUT_ROOT / "reference" / f"{workload}-{seed}"
            shutil.rmtree(out, ignore_errors=True)
            for step in steps_for(workload, seed, out):
                result = run_child(cli_argv(step), env, timeout_s=600.0)
                if result.returncode != 0:
                    print(f"{workload} seed {seed} {step.name} failed: {result.stderr}",
                          file=sys.stderr)
                    return 1
            digests[workload][str(seed)] = output_digests(workload, out)
            shutil.rmtree(out)
            print(f"{workload} seed {seed}: {digests[workload][str(seed)]}", flush=True)
    reference = {"source_commit": git_sha(), "blas_threads": "1", "digests": digests}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
