#!/usr/bin/env python3
"""Build the JanusAQP end-to-end benchmark and run one of its workloads.

    python3 perfbench/run.py --workload churn|serve|rebuild --seed N \
        --seconds S [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that links the repository's `janus` library; it is
configured and built in Release mode under $CARGO_TARGET_DIR (default
.bench_build) on every call, which is a no-op once built. The last line of
standard output is the run's JSON result, holding the metrics BENCHMARK.json
lists (the lines above it print every figure measured); a traced run also
writes its spans to <build>/traces/<workload>-seed<N>.jsonl. --self-test
builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build `target`; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h"))):
        raise RuntimeError(f"no JanusAQP sources next to {HERE}; run from a "
                           "checkout of the repository")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir


def run_workload(args):
    build_dir = build("janus_perfbench")
    cmd = [os.path.join(build_dir, "janus_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"janus_perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    # The result carries the metrics BENCHMARK.json lists; the binary prints
    # every figure it measured in the lines above it.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = [m["name"] for m in
                  json.load(f)["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in listed if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics missing from the result: {missing}")
    result["metrics"] = {n: result["metrics"][n] for n in listed}
    sys.stdout.write("\n".join(lines[:-1]) + "\n" + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def self_test():
    build_dir = build("perfbench_test")
    return subprocess.run([os.path.join(build_dir, "perfbench_test")],
                          timeout=900).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["churn", "serve", "rebuild"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        return run_workload(args)
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
