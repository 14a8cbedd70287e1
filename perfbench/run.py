#!/usr/bin/env python3
"""Build and run the dctopo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --steady <N> [--seed <n>] [--seconds <s>]

The first form builds `perfbench/` (a stand-alone Cargo package that
depends on the repository's crates by path) with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload on a worker pool as wide as the cores this process may use, and
relays its output. The last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; it is printed only when the metric
set matches `BENCHMARK.json` (end-to-end metrics for `--trace 0`,
per-layer metrics for `--trace 1`).

The second form is the steadiness check: it runs the workload N times
with seeds n, n+1, ... and prints, for each end-to-end metric, the
median, the quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median, and that spread against the metric's bound in
`BENCHMARK.json`; its last line gives the largest spread-over-bound of
all of them, `setup_s` included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = os.path.join(target, "release", "dctopo-perfbench")
    if not os.path.isfile(binary):
        fail(f"no benchmark binary at {binary}")
    return binary


def probe(cmd, **kw):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kw)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def child_env():
    """The run's environment: pool width = usable cores, host facts for
    the record, and no inherited trace sink."""
    env = dict(os.environ)
    env.pop("DCTOPO_TRACE", None)
    env.pop("RAYON_NUM_THREADS", None)
    env["DCTOPO_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["DCTOPO_BENCH_RUSTC"] = probe(["rustc", "--version"]).removeprefix("rustc ")
    # the checkout need not be a git repository; never look above it
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    env["DCTOPO_BENCH_COMMIT"] = probe(
        ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"], env=git_env
    )
    return env


def run_once(binary, env, workload, seed, seconds, trace):
    """Run one workload; return (lines before the result, the result line,
    the parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload} seed {seed} exited with code {out.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the last output line is not a JSON result")
    return lines[:-1], lines[-1], result


def validate(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    if result["attempted"] < 1:
        fail("no output was checked")


def steady(binary, env, spec, workload, seed, seconds, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for i in range(runs):
        lines, _, result = run_once(binary, env, workload, seed + i, seconds, 0)
        validate(result, spec, False)
        if not result["correct"] or result["failed"]:
            fail(f"seed {seed + i}: {result['failed']} of {result['attempted']} outputs failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        steal = next((l.split(":")[1].split("%")[0].strip()
                      for l in lines if l.startswith("# host steal")), "?")
        print(f"# seed {seed + i}: " + ", ".join(
            f"{n} {values[n][-1]:.6g}" for n in values) + f", steal {steal}%", flush=True)
    print(f"# steadiness of {workload} over {runs} seeds from {seed}")
    print(f"# {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    worst = 0.0
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < bounds[name] / 3 else (
            "within bound" if spread <= bounds[name] else "OVER BOUND")
        worst = max(worst, spread / bounds[name])
        print(f"# {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bounds[name]:>6}  {verdict}")
    print(json.dumps({"workload": workload, "runs": runs,
                      "worst_spread_over_bound": worst}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    env = child_env()
    if args.steady:
        steady(binary, env, spec, args.workload, args.seed, seconds, args.steady)
        return
    lines, raw, result = run_once(binary, env, args.workload, args.seed, seconds, args.trace)
    print("\n".join(lines), flush=True)
    validate(result, spec, args.trace)
    print(raw)


if __name__ == "__main__":
    main()
