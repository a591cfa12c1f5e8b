"""cubeloops benchmark: one run of one workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 55 --trace 0

Generates the workload's inputs from the seed, then repeats the workload's
pass of CLI invocations in-process (``cubeloops.cli.main`` with captured
output, one closed-loop caller, ``--jobs 1``) until ``--seconds`` have
passed, checking every output.  A timer samples the machine's speed with
a fixed probe all through the ops (``reference.py``), and every time is
reported at the probe's reference speed (see README.md).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
untraced passes for half the time and traced passes for the other half,
and reports the per-layer metrics of the traced passes plus the tracing
overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
with its environment goes to ``perfbench/out/``.  Exit code 2 means the
run could not start (no ``src/cubeloops`` or golden reports beside it).
"""

from __future__ import annotations

import argparse
from bisect import bisect_left
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH / "out"

# metric -> unit; the order is the report order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "classes_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_RUNS = 11
SETUP_CODE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[2])
import reference
sampler = reference.SpeedSampler(float(sys.argv[3]))
sampler.start()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cubeloops import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", "--dim", "4", "--word", "12321434"])
end = time.perf_counter()
sampler.stop()
setup = end - start - sampler.stolen
print(setup if code == 0 else -1.0, sampler.factor(start, end, 0.0))
"""
# seconds between speed probes: during the setup, and during the ops
SETUP_PROBE_INTERVAL = 0.005
PROBE_INTERVAL = 0.01
# probes this many seconds before and after an op also give its speed
PROBE_MARGIN = 0.3


def measure_setup() -> list[tuple[float, float]]:
    """Seconds to import cubeloops and finish one check, in fresh processes.

    Each pair is (setup seconds, speed factor of the probes timed during
    it).  Interpreter start-up is excluded; the first process only warms
    the bytecode cache and is not counted.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), str(SETUP_PROBE_INTERVAL)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        setup, factor = done.stdout.split()
        times.append((float(setup), float(factor)))
    return times[1:]


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubeloops").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs ops through ``cubeloops.cli.main`` and records what happened.

    ``sampler`` is the running ``reference.SpeedSampler``; the time its
    probes take during an op is not part of the op's latency.
    """

    def __init__(self, cli, sampler) -> None:
        self.cli = cli
        self.sampler = sampler
        self.attempted = 0
        self.failures: list[str] = []
        self.op_id = 0
        self.tracer = None

    def run(self, op) -> tuple[float, float, float]:
        """Latency of one invocation in seconds, with its start and end;
        failures are recorded."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op_id = self.op_id
        self.op_id += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            stolen = self.sampler.stolen
            start = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed op
                code = repr(exc)
            end = perf_counter()
            latency = end - start - (self.sampler.stolen - stolen)
        # a fresh CLI process would start without the previous call's
        # garbage; collecting it here, untimed, keeps one call's cyclic
        # garbage from landing in a later call's latency or in peak RSS
        gc.collect()
        self.attempted += 1
        if code != 0:
            problem = f"exit {code}: {err.getvalue().strip()[:200]}"
        else:
            try:
                problem = op.check(out.getvalue())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        return latency, start, end

    def at_reference_speed(self, timed: tuple[float, float, float]) -> float:
        """A latency in seconds at the reference speed (see reference.py)."""
        latency, start, end = timed
        return latency * self.sampler.factor(start, end, PROBE_MARGIN)

    def repeat(self, ops, deadline: float) -> list[list[tuple[float, float, float]]]:
        """Whole passes over ``ops`` while the next one should end by ``deadline``.

        Always at least one pass.  Returns each pass's (latency, start, end)
        triples, as ``run`` gives them.
        """
        passes: list[list[tuple[float, float, float]]] = []
        lengths: list[float] = []
        while not passes or perf_counter() + statistics.median(lengths) <= deadline:
            start = perf_counter()
            passes.append([self.run(op) for op in ops])
            lengths.append(perf_counter() - start)
        return passes


def typical_latencies(passes: list[list[float]]) -> list[float]:
    """Each op's median latency over the passes, sorted.

    Taking the median op by op keeps a slow stretch of the machine that
    covers part of one pass from moving the figures built on it.
    """
    return sorted(statistics.median(column) for column in zip(*passes))


def scaled(runner: Runner, passes) -> list[list[float]]:
    return [[runner.at_reference_speed(timed) for timed in p] for p in passes]


def percentile(sorted_values: list[float], q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubeloops" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"cannot run: {SRC}/cubeloops or {GOLDEN} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from cubeloops import cli

    import reference
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment()
    print(f"# env {json.dumps(env)}")

    workload = workloads.build(args.workload, args.seed, GOLDEN)
    gc.collect()
    gc.freeze()  # inputs and modules stay put; per-call collections stay cheap
    setup = [] if args.trace else measure_setup()
    sampler = reference.SpeedSampler(PROBE_INTERVAL)
    runner = Runner(cli, sampler)
    tracer = tracing.Tracer() if args.trace else None

    sampler.start()
    try:
        began = perf_counter()
        passes = runner.repeat(workload.ops, began + args.seconds / (2 if args.trace else 1))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        traced: list[list[tuple[float, float, float]]] = []
        if tracer is not None:
            runner.tracer = tracer
            first_op = runner.op_id
            tracer.install()
            try:
                traced = runner.repeat(workload.ops, began + args.seconds)
            finally:
                tracer.uninstall()
    finally:
        sampler.stop()

    layer_passes: list[dict] = []
    if tracer is not None:
        # spans are appended in op order, so each pass is one slice of them
        cuts = [
            bisect_left(tracer.op, first_op + k * len(workload.ops))
            for k in range(len(traced) + 1)
        ]
        layer_passes = [tracer.summarize(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    for op in workload.oracle_ops:
        runner.run(op)

    latencies = typical_latencies(scaled(runner, passes))
    wall = sum(latencies)
    raw_wall = sum(typical_latencies([[timed[0] for timed in p] for p in passes]))
    speed = reference.REFERENCE_PROBE_S / statistics.median(sampler.durations)
    classes = sum(op.classes for op in workload.ops)
    samples = {
        "passes": len(passes),
        "ops_per_pass": len(latencies),
        "beyond_p90": sum(1 for t in latencies if t > percentile(latencies, 90)),
        "traced_passes": len(traced),
        "speed_probes": len(sampler.durations),
    }
    if args.trace:
        traced_scaled = scaled(runner, traced)
        # a traced pass's layer times are scaled by the ratio of its
        # scaled and raw op latencies
        for layers, raw, fixed in zip(layer_passes, traced, traced_scaled):
            factor = sum(fixed) / sum(timed[0] for timed in raw)
            for name in layers:
                if not tracing.is_count(name):
                    layers[name] *= factor
        metrics = layer_metrics(layer_passes, sum(typical_latencies(traced_scaled)) - wall, runner, tracing)
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"), began)
    else:
        metrics = {
            "setup_s": statistics.median(seconds * factor for seconds, factor in setup),
            "wall_s": wall,
            "ops_per_s": len(workload.ops) / wall,
            "classes_per_s": classes / wall,
            "op_p50_ms": 1000 * percentile(latencies, 50),
            "op_p90_ms": 1000 * percentile(latencies, 90),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END

    failed = len(runner.failures)
    for problem in runner.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:16} {name:44} {value:14.6g} {units[name]}")
    print(
        f"{args.workload:16} samples: {samples['passes']} untraced passes of "
        f"{samples['ops_per_pass']} ops ({samples['beyond_p90']} beyond p90), "
        f"{samples['traced_passes']} traced passes; "
        f"error_rate {failed}/{runner.attempted} = {failed / runner.attempted:.4g}"
    )
    print(
        f"{args.workload:16} machine speed {speed:.3f} of the reference (median of "
        f"{len(sampler.durations)} probes); unscaled untraced pass {raw_wall:.4g} s"
    )
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, samples=samples, setup_runs_s=setup,
                  machine_speed=speed, unscaled_wall_s=raw_wall,
                  failures=runner.failures[:50])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def layer_metrics(layer_passes, overhead, runner, tracing) -> dict:
    """Counts from the first traced pass, times as the median over passes.

    Every traced pass runs the same ops, so its counts must repeat exactly;
    a pass that differs is recorded as a failure.
    """
    first = layer_passes[0]
    for index, other in enumerate(layer_passes[1:], 2):
        drift = [k for k in first if tracing.is_count(k) and other[k] != first[k]]
        if drift:
            runner.failures.append(f"traced pass {index} counts differ: {drift}")
    metrics = {}
    for name in tracing.LAYER_METRICS:
        if name == "trace_overhead_s":
            metrics[name] = overhead
        elif tracing.is_count(name):
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(p[name] for p in layer_passes)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
