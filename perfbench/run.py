#!/usr/bin/env python3
"""Build and run the SPEED benchmark; optionally report its steadiness.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark package from source (into $CARGO_TARGET_DIR, default
.bench_build), runs it, and forwards its output. The last line is one JSON
object; with --trace 0 the runner adds peak_rss_mb, the run's peak resident
memory as the kernel accounts it for the child process.

Steadiness report:

    python3 perfbench/run.py --steady <k> --seconds <s> [--workloads a,b] \
        [--first-seed <n>] [--save <file.json>] [--against <file.json>]

runs each workload k times with seeds n, n+1, ... and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
--save keeps the values; --against compares this set's medians with a saved
set's, as two separately started sets must agree within the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "speed-perfbench")


def provenance():
    """Commit and toolchain, each 'unknown' where the checkout cannot say."""
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
        except OSError:
            return "unknown"
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"
    return first_line(["git", "rev-parse", "HEAD"]), first_line(["rustc", "--version"])


def run_once(binary, workload, seed, seconds, trace):
    """Runs the benchmark once; returns (exit code, output lines, peak RSS in MB)."""
    proc = subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def single(args):
    binary = build()
    commit, rustc = provenance()
    print(f"# commit: {commit}  rustc: {rustc}")
    code, lines, rss_mb = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line)
    if code != 0 or result is None:
        if result is not None:
            print(json.dumps(result), file=sys.stderr)
        sys.exit(f"perfbench: run failed with exit code {code}")
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    print(json.dumps(result))


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    binary = build()
    values = {}
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in metrics}
        for i in range(args.steady):
            seed = args.first_seed + i
            code, lines, rss_mb = run_once(binary, workload, seed, args.seconds, 0)
            if code != 0:
                sys.exit(f"perfbench: {workload} seed {seed} failed with exit code {code}")
            got = json.loads(lines[-1])["metrics"]
            got["peak_rss_mb"] = {"value": rss_mb}
            for m in metrics:
                values[workload][m["name"]].append(got[m["name"]]["value"])
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    worst = 0.0
    for workload in workloads:
        print(f"{workload}: {args.steady} runs of {args.seconds} s")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
              + ("  vs saved" if against else ""))
        for m in metrics:
            vals = values[workload][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            line = (f"  {m['name']:<30} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{spread:>7.3f} {m['bound']:>6}")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            if against and workload in against:
                before = statistics.quantiles(against[workload][m["name"]], n=4)[1]
                worse = (med - before) / abs(before) if m["better"] == "lower" else (before - med) / abs(before)
                line += f"  {worse:+.3f}{'  WORSE THAN BOUND' if worse > m['bound'] else ''}"
            print(line)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="K")
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    if args.steady:
        steady(args)
    elif args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required for a single run")
    else:
        single(args)


if __name__ == "__main__":
    main()
