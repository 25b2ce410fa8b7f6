#!/usr/bin/env python3
"""Repository benchmark for mecsched: one command, two workloads.

    python3 perfbench/run.py --workload serve_city|dta_division \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. On first use it builds perfbench/ (the
mecsched libraries compiled from src/ plus the benchmark runner) into
.bench_build/perfbench. It then runs the workload in a process of its own
and prints the host record, every metric with its unit, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an
untraced run of --seconds seconds. --trace 1 reports the per-layer metrics
of a separate traced pass; it runs the runner twice with the same seed, and
the two processes' work counters must match exactly.

Exits 1 when an output check, the counter repeat check or a traced-run
check fails, and 2, without a result line, when the benchmark cannot be
built or run. perfbench/README.md defines the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
# The default seed of each workload; BENCHMARK.json gives the reasons.
DEFAULT_SEEDS = {"serve_city": 1, "dta_division": 1}
# The whole command, build check and runner processes included, ends
# within this many seconds.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (while the runner is missing) and builds the runner;
    build output goes to stderr."""
    tmp = BUILD / "tmp"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and str(HERE) not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)  # configured from another checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not RUNNER.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_runner", "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_once(args, deadline):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MECSCHED_")}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(RUNNER), *args], capture_output=True,
                              text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"runner timed out after {timeout:.0f} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"runner printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=DEFAULT_SEEDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    seed = DEFAULT_SEEDS[opts.workload] if opts.seed is None else opts.seed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if opts.trace else "end_to_end"]}
    build()

    args = ["--workload", opts.workload, "--seed", str(seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    runs = [run_once(args, deadline)]
    if opts.trace:
        runs.append(run_once(args, deadline))
    first = runs[0]

    failures = [f for r in runs for f in r["failures"]]
    if opts.trace:
        a, b = runs[0]["counters"], runs[1]["counters"]
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if differ:
            failures.append(f"work counters differ between two runs of seed "
                            f"{seed}: " + ", ".join(differ))
    metrics = first["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            failures.append(f"metric {name} missing")
        elif metrics[name]["unit"] != unit:
            failures.append(f"metric {name} in {metrics[name]['unit']}, "
                            f"not {unit}")
    correct = not failures and all(r["correct"] for r in runs)

    host = dict(first["host"], nproc_available=len(os.sched_getaffinity(0)),
                git=git_sha(), workload=opts.workload, seed=seed,
                trace=opts.trace)
    print("host: " + json.dumps(host))
    for name in expected:
        if name in metrics:
            print(f"  {name:<32} {metrics[name]['value']!r:>24} "
                  f"{metrics[name]['unit']}")
    if opts.trace:
        print("counters: " + json.dumps(first["counters"]))
    for f in failures:
        print("FAILED: " + f)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: metrics[name] for name in expected if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
