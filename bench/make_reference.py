"""Write bench/reference.json: the output digest of every instance a run can use.

The digests are taken at the default seed, in unshifted coordinates, for as
many instances as one pass of a 60-second run (the longest a run may
measure) hands over.  Every output must re-verify first.  Run from the root
of a checkout whenever a workload's population changes:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import run

LONGEST_RUN_SECONDS = 60


def main() -> int:
    reference = {}
    for workload in ("corpus", "highdim", "lattice-ball"):
        workloads = run._import_program(workload)
        import gate

        items = workloads.generate(workload, workloads.DEFAULT_SEED,
                                   workloads.instance_count(workload, LONGEST_RUN_SECONDS))
        outcomes, errors, _, _, wall = run.timed_loop(workload, items)
        failures = run.check_outputs(items, outcomes, errors, None)
        if failures:
            for index, problem in sorted(failures.items()):
                print(f"{workload} instance {index}: {problem}", file=sys.stderr)
            return 1
        reference[workload] = [gate.digest(out, item.shift) for item, out in zip(items, outcomes)]
        print(f"{workload}: {len(items)} instances in {wall:.1f} s")
    with open(run.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
