"""Run every workload once and print all of its metrics by name and unit.

    python3 perfbench/summary.py [--seed 1] [--seconds 55] [--trace 0|1]

Each workload runs in its own process (so ``peak_rss_mb`` is its own); the
exit code is 1 when any run failed or reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
sys.path.insert(0, str(BENCH.parent / "src"))
from workloads import WORKLOADS  # noqa: E402  (needs src on the path)


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, str]:
    """One benchmark run: its parsed result line (None on failure) and stdout."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, done.stdout
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        result, text = invoke(workload, args.seed, args.seconds, args.trace)
        print(text)
        ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
