#!/usr/bin/env python3
"""Builds the MACO benchmark from source and runs one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads and metrics are declared in BENCHMARK.json and described in
perfbench/README.md. The build goes to $CARGO_TARGET_DIR (default
.bench_build). The last line of stdout is the JSON result; the exit code is
non-zero when a check failed, the build failed or the sources are missing.

Besides passing the program's own result through, this wrapper
  * prints the host tag (core count, CPU model, rustc version);
  * checks that the program printed exactly the metrics BENCHMARK.json
    declares for the mode, with the declared units;
  * pins the simulated fingerprint and work counters of every
    (binary, workload, seed) it has run in a state file in the build
    directory, and fails the run when a rerun of the same binary and seed
    reports anything different (nondeterminism).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def host_tag():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return f'cores={os.cpu_count()} cpu="{model}" rustc="{rustc}"'


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's progress goes to stderr; stdout stays for the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        die(f"build failed (exit {done.returncode})")
    return os.path.join(target, "release", "maco-perfbench")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_catalogue(bench, trace, metrics):
    """Problems with the printed metric set against BENCHMARK.json."""
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    problems = []
    if set(declared) != set(metrics):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in declared.items():
        got = metrics.get(name, {}).get("unit", unit)
        if got != unit:
            problems.append(f"{name}: unit {got}, declared {unit}")
    return problems


def check_guard(state_path, key, guard):
    """Problems with `guard` against earlier runs of the same key."""
    try:
        with open(state_path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    pinned = state.setdefault(key, {})
    problems = [f"nondeterminism: {k} = {v}, an earlier run gave {pinned[k]}"
                for k, v in sorted(guard.items())
                if k in pinned and pinned[k] != v]
    if not problems:
        pinned.update(guard)
        tmp = state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f, indent=1, sort_keys=True)
        os.replace(tmp, state_path)
    return problems


def main():
    args = parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        die(f"unknown workload {args.workload}")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        die("the simulator sources (crates/) are not in this checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target)
    print(f"host: {host_tag()}")
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        die(f"{args.workload} printed nothing (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"{args.workload} printed no result (exit {done.returncode})")

    guard = {}
    for line in lines:
        if line.startswith("guard: "):
            guard = json.loads(line[len("guard: "):])
    key = f"{sha256(binary)}:{args.workload}:{args.seed}"
    problems = check_catalogue(bench, args.trace, result["metrics"])
    problems += check_guard(os.path.join(target, "perfbench-guard.json"), key, guard)
    for p in problems:
        print(f"FAILED: {p}")
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
