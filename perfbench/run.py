#!/usr/bin/env python3
"""Build and run the edsim end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the edsim libraries from src/) in Release with
CMake into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild incrementally. The workload then runs in its own driver
process, whose last stdout line is the JSON result. Golden digests for the
recorded seeds come from perfbench/golden.json. With --trace 1 the Chrome
trace of the run is written under the build directory.

setup_s is the median over SETUP_SAMPLES processes: the measured run and
set-up-only runs of the same workload and seed, one after another. Each is
timed from just before this script starts it to its first measured unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("idle_decode", "design_sweep")
BUILD_JOBS = 4
DRIVER_TIMEOUT_S = 170
SETUP_SAMPLES = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: edsim sources (src/) not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(BUILD_JOBS)],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "edsim_perfbench")


def golden_digest(workload, seed):
    with open(os.path.join(HERE, "golden.json")) as f:
        digests = json.load(f)["digests"]
    return digests.get(workload, {}).get(str(seed))


def run_driver(cmd, deadline):
    """Run the driver, timed from just before it starts; returns its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(time.monotonic_ns())],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", help="golden digest (hex) overriding "
                    "perfbench/golden.json")
    args = ap.parse_args()

    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    bdir = build_dir()
    tmpdir = os.path.join(bdir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    base = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--tmpdir", tmpdir]
    cmd = base + ["--trace", str(args.trace)]
    expect = args.golden or golden_digest(args.workload, args.seed)
    if expect:
        cmd += ["--expect", expect]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        lines = run_driver(cmd, deadline).splitlines()
        result = json.loads(lines[-1])
        if not args.trace:
            # Set-up samples on CPU slots 1.. (the measured run used slot 0).
            setup = [result["metrics"]["setup_s"]["value"]]
            for slot in range(1, SETUP_SAMPLES):
                out = run_driver(base + ["--trace", "0", "--setup-only", "1",
                                         "--setup-slot", str(slot)], deadline)
                setup.append(json.loads(out.splitlines()[-1])["setup_s"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setup)
            lines[-1] = ("setup_s samples (s): "
                         + " ".join(f"{v:.4f}" for v in setup)
                         + f"  median {statistics.median(setup):.4f}")
            lines.append(json.dumps(result))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
