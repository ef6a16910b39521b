#!/usr/bin/env python3
"""The repository benchmark: builds geqo_perfbench from source and runs one
workload for one seed.

    python3 perfbench/run.py --workload batch|serve|reuse --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
into .bench_build/perfbench (several minutes); later runs rebuild only what
changed. Everything the run writes stays under .bench_build/. The last line
of stdout is the JSON result; the exit code is non-zero when the build
fails, the run fails, or a correctness gate fails. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "geqo_perfbench")
WORKLOADS = ("batch", "serve", "reuse")
# Thread budget: the pool size is pinned, never taken from the environment.
MAX_THREADS = 4
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout, log_path):
    """Runs a build step in its own process group, so a timeout stops the
    compilers it spawned too. Temporary files stay inside the build tree."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a") as log:
        try:
            process = subprocess.Popen(command, stdout=log,
                                       stderr=subprocess.STDOUT, env=env,
                                       start_new_session=True)
        except OSError as error:
            fail("%s failed: %s (log: %s)" % (command[0], error, log_path))
        try:
            returncode = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            fail("%s timed out after %d s (log: %s)" %
                 (command[0], timeout, log_path))
    if returncode != 0:
        fail("%s exited with %d (log: %s)" %
             (" ".join(command[:2]), returncode, log_path))


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   CONFIGURE_TIMEOUT_S, log_path)
    jobs = str(max(1, min(MAX_THREADS, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", BUILD, "--target", "geqo_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S, log_path)


def bench_environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEQO_")}
    # One core stays free for the operating system and this script, so a
    # pool thread is not preempted in the middle of a parallel region.
    cores = len(os.sched_getaffinity(0))
    env["GEQO_THREADS"] = str(max(1, min(MAX_THREADS, cores) - 1))
    env["GEQO_TRACE"] = "off"  # the traced pass switches metrics on itself
    return env


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomization. With it on, runs of one binary split into a fast and a
    slow layout (batch calls of ~31 ms or ~37 ms on one seed), which no
    statistic inside a run can average away."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def check_result(line):
    """The JSON result line: exactly these keys, finite numbers."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return False
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        return False
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return False
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build()
    workdir = os.path.join(BUILD, "work", "%s-%d-%d" %
                           (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=bench_environment(), cwd=ROOT,
                               start_new_session=True, text=True,
                               preexec_fn=fixed_layout)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    spans = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans):
        kept = os.path.join(BUILD, "spans")
        os.makedirs(kept, exist_ok=True)
        shutil.move(spans, os.path.join(
            kept, "%s-seed%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n") if stdout else []
    # Exit 1 is a failed correctness gate: the result line says so.
    if process.returncode not in (0, 1) or not lines or not check_result(
            lines[-1]):
        sys.stderr.write(stdout or "")
        fail("run failed (exit %d) without a valid result line" %
             process.returncode)
    print("\n".join(lines), flush=True)
    sys.exit(process.returncode)


if __name__ == "__main__":
    main()
