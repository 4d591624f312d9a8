#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt, RelWithDebInfo) into
.bench_build/ at the repository root on first use, runs one workload from the
repository root, relays its report, and checks that the final line is a
result whose metric names are exactly those BENCHMARK.json lists for the run
kind (end_to_end when --trace 0, per_layer when --trace 1). Build output goes
to stderr so that stdout ends with the result line. Exits nonzero, printing
no result, when the build fails or the driver misbehaves.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build():
    """Configures (once) and builds the driver; returns True on success."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.append(configure)
    cmds.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {proc.returncode}",
                  file=sys.stderr)
            return False
    return os.path.exists(DRIVER)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when `line` is a valid result."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(expected) - set(got))}, extra "
                f"{sorted(set(got) - set(expected))}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-mix", "regime-sweep", "fleet-10k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = out.splitlines()
    error = check_result(lines[-1] if lines else "", args.trace == 1)
    # A rejected last line is not a result: print the report without it.
    for line in lines if error is None else lines[:-1]:
        print(line)
    sys.stdout.flush()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
