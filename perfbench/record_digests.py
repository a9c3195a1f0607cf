"""Rewrite the stored archive digests of the dpeia-seeds workload.

    python3 perfbench/record_digests.py [--seeds 0-20]

Runs one round of dpeia-seeds operations per benchmark seed, with their
output checks, and stores the SHA-256 of each experiment seed's
archive.tsv in archive_digests.json.  Benchmark runs report whether
their archives match; a change that alters behaviour on purpose
rewrites the file.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-20",
                    help="benchmark seeds, as first-last")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    digests = {}
    for seed in range(int(first), int(last or first) + 1):
        wl = workloads.DpeiaWorkload()
        wl.setup(seed)
        errs = [e for i in range(wl.n_ops) for e in wl.check(i, wl.op(i))]
        if errs:
            print("seed %d: output check failed: %s" % (seed, "; ".join(errs)),
                  file=sys.stderr)
            return 1
        digests[str(seed)] = wl.all_digests()
        print("seed %d: %s" % (seed, digests[str(seed)]))
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump({"config": workloads.reference_config(), "digests": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    workloads.remove_runs_dir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
