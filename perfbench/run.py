#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

    python3 perfbench/run.py --workload paper-repro --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver and the repository's libraries are
compiled into .bench_build/perfbench on first use (later runs rebuild only
what changed). The workload runs in its own process; its output is passed
through, and the last line printed is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; a per-layer metric of a layer the workload does not exercise
reads 0. Every result is also kept, with the run metadata, under
.bench_results/.

Maintenance modes (simulated workloads, default seed only):
    --update-expected   rewrite perfbench/expected/<workload>.json
    --self-test         check that a changed knob fails the digest check
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ecf_perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("paper-repro", "scale-1m", "dirty-qos", "codec")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources at {os.path.join(ROOT, 'src')}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise RuntimeError(f"{tool} not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ecf_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        doc = json.load(f)
    return [(m["name"], m["unit"])
            for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-expected", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    sha = git_sha()
    cmd = [BINARY,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", sha,
           "--spec", os.path.join(HERE, "workloads", args.workload + ".json"),
           "--expected", os.path.join(HERE, "expected", args.workload + ".json")]
    if args.update_expected:
        cmd.append("--update-expected")
    if args.self_test:
        cmd.append("--self-test")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if args.update_expected or args.self_test:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        log(f"workload exited with code {proc.returncode}")
        return proc.returncode or 1

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    for name, unit in declared_metrics(args.trace == 1):
        if name in metrics:
            continue
        if args.trace == 0:
            log(f"end-to-end metric {name} missing from the result")
            return 1
        metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
    for line in lines[:-1]:
        print(line)

    meta = {}
    for line in lines:
        if line.startswith("meta "):
            meta = dict(kv.split("=", 1) for kv in line.split()[1:])
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        RESULTS_DIR,
        f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=2)
        f.write("\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
