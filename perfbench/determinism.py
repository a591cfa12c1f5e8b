"""Check that traced runs repeat their counts exactly.

    python3 perfbench/determinism.py [--seeds 1 2] [--seconds 6] [--workload NAME ...]

For each workload and seed, two traced runs must report the same value for
every per-layer metric that is not a time (calls, raw words, classes,
masks tried, closure elements, patches, export bytes and the ratios built
from them).  Exit code 1 names the first metric that differs.
"""

from __future__ import annotations

import argparse
import sys

from summary import WORKLOADS, invoke
from tracer import is_count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        for seed in args.seeds:
            first, second = (invoke(workload, seed, args.seconds, 1)[0] for _ in range(2))
            if first is None or second is None or not (first["correct"] and second["correct"]):
                print(f"{workload} seed {seed}: a traced run failed")
                ok = False
                continue
            counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
            again = {k: v["value"] for k, v in second["metrics"].items() if is_count(k)}
            differ = [k for k in counts if counts[k] != again.get(k)]
            ok = ok and not differ
            status = f"DIFFER {differ}" if differ else "identical"
            print(f"{workload:16} seed {seed}: {len(counts)} counts {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
