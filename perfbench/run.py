#!/usr/bin/env python3
"""Build and run the hdhash routing benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an hdhash checkout.  Configures and builds the
perfbench CMake package (which builds the hdhash library from ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the benchmark's self-tests, then runs perfbench_driver and relays its
output; the last stdout line is the JSON result.  Build output goes to
stderr.  Exits non-zero, without a result, when the sources, the build,
the self-tests or the run fail.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("route-cached", "route-assoc", "route-churn", "route-paced")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for needed in ("CMakeLists.txt", os.path.join("src", "net", "server.hpp")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of an hdhash checkout ({needed} missing)")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    env = dict(os.environ)
    env["CCACHE_DISABLE"] = "1"  # keep every build artefact in the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))

    selftest = os.path.join(build_dir, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr, timeout=60).returncode:
        fail("benchmark self-tests failed")

    command = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(build_dir, "perfbench_server"),
        "--trace-out", os.path.join(root, build_root, "perfbench-trace"),
    ]
    # Plain 4 KB pages unless HDHASH_MEM says otherwise: whether a
    # hugepage is free when the server starts depends on the rest of the
    # host, so THP-advised memory made runs differ in speed and RSS.
    run_env = dict(os.environ)
    run_env.setdefault("HDHASH_MEM", "page")
    # Own process group, so a timeout stops the driver and its server.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=run_env, start_new_session=True)
    try:
        output, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if driver.returncode != 0:
        sys.stderr.write(output)
        fail(f"driver exited with status {driver.returncode}")
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
