#!/usr/bin/env python3
"""Build and run the distfl benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --describe

Run from the repository root. The benchmark is the Rust package next to
this file; it is built from source into $CARGO_TARGET_DIR (default
`.bench_build`). With --workload, one workload runs in one process and the
last line of standard output is its result object. Without it, every
workload runs, each in its own process, and the command exits non-zero if
any output was wrong. --trace 1 makes the separate traced run that yields
the per-layer metrics. Span files of traced runs land in `.bench_out/`.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["small-requests", "solver-mix", "session-churn", "protocol-sim"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        sys.exit(1)
    if done.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        sys.exit(1)
    return target / "release" / "perfbench"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, e.stdout or ""
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.describe:
        sys.exit(subprocess.run([str(binary), "--describe"]).returncode)
    seconds = args.seconds
    if seconds is None:
        spec = pathlib.Path("BENCHMARK.json")
        seconds = json.loads(spec.read_text())["run_seconds"] if spec.exists() else 10

    if args.workload:
        code, out = run_one(binary, args.workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    results = {}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        lines = out.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if code == 0 and lines else None
        if code != 0:
            print(f"{workload}: FAILED (exit {code})")
            worst = worst or code
    pathlib.Path(".bench_out").mkdir(exist_ok=True)
    summary = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
               "results": results}
    pathlib.Path(".bench_out/summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(worst)


if __name__ == "__main__":
    main()
