#!/usr/bin/env python3
"""Diogenes benchmark: build the tool from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
repository (CMake, RelWithDebInfo) plus the harness in perfbench/ into
.bench_build/; later calls only re-check that the build is current.

Every run gets a fresh temporary directory under .bench_tmp/ that is
removed when the run ends, whatever the outcome. Traced runs
(--trace 1) also write their spans to .bench_out/. The last line of
standard output is the result object; build logs and diagnostics go to
standard error. Any failure exits non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
WORKLOADS = ("ffm_transfers", "ffm_syncs", "trace_roundtrip", "serve_mixed")

# The thread-pool size every run uses (the tool's --threads), the same
# for every commit measured: 4, or fewer when the machine has fewer.
THREADS = max(1, min(4, len(os.sched_getaffinity(0))))
BUILD_JOBS = THREADS
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure (once) and build `targets`; raise on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError(f"no CMakeLists.txt at {ROOT}: not a checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", ROOT, "-B", CMAKE_BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DBUILD_TESTING=OFF",
                 "-DCMAKE_PROJECT_INCLUDE=" +
                 os.path.join(ROOT, "perfbench", "attach.cmake")],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", CMAKE_BUILD, "-j", str(BUILD_JOBS),
             "--target", *targets],
            stdout=sys.stderr, check=True)


def run_child(argv):
    """Run argv to completion (or RUN_TIMEOUT_S); return (code, stdout)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: take down the harness and anything it
        # started (its process group), then reap it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out.decode()


def parse_result(text):
    lines = text.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"malformed result keys: {sorted(result)}")
    return lines[-1]


def main():
    # A SIGTERM unwinds like an exception, so the harness's process group
    # is killed and reaped and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the correctness-check tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        if args.self_test:
            build(["perfbench_checks_test"])
            code, out = run_child(
                [os.path.join(CMAKE_BUILD, "perfbench",
                              "perfbench_checks_test")])
            sys.stderr.write(out)
            return code
        build(["diogenes", "perfbench"])
        tmp_parent = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(tmp_parent, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
        try:
            argv = [os.path.join(CMAKE_BUILD, "perfbench", "perfbench"),
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--threads", str(THREADS),
                    "--tmp", tmp,
                    "--diogenes",
                    os.path.join(CMAKE_BUILD, "src", "cli", "diogenes"),
                    "--out", os.path.join(ROOT, ".bench_out")]
            code, out = run_child(argv)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(tmp_parent)  # only when no other run uses it
            except OSError:
                pass
        if code != 0:
            log(f"harness exited with code {code}")
            return 1
        print(parse_result(out), flush=True)
        return 0
    except Exception as e:  # build failure, timeout, malformed output
        log(f"failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
