#!/usr/bin/env python3
"""Build and run the pccsim benchmark.

    python3 perfbench/run.py --workload <graph-pr|hub-walks|tenant-mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
simulator library and the harness binary (Release) under .bench_build/perfbench;
later calls rebuild incrementally. The harness prints a raw-samples line
and, as the last line, the result object. See perfbench/README.md.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", jobs]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries the result.
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                fail("build failed: " + " ".join(cmd))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_harness(args):
    rev = commit()
    cmd = [BINARY] + args + (["--commit", rev] if rev else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test():
    """A planted hot-path bug must drive success_ratio below 1.

    skip-l2-fill runs the bug everywhere, so the lockstep oracle must
    reject the verification slice; skip-l2-fill-timed runs it only in
    the timed slices, so their results must differ from the verified
    one (tenant-mix: its invariant sweeps cannot see this bug).
    """
    ok = True
    for workload, mutation in [("hub-walks", "none"),
                               ("hub-walks", "skip-l2-fill"),
                               ("tenant-mix", "skip-l2-fill-timed")]:
        code, out = run_harness(["--workload", workload, "--seed", "1",
                                "--seconds", "1", "--trace", "0",
                                "--mutate", mutation])
        if code:
            fail(f"harness failed on {workload} under mutation {mutation}")
        res = result_of(out)
        ratio = res["metrics"]["success_ratio"]["value"]
        expect_clean = mutation == "none"
        passed = (ratio == 1 and res["correct"]) if expect_clean else (
            ratio < 1 and not res["correct"])
        print(f"{workload} mutation={mutation}: success_ratio={ratio} "
              f"correct={res['correct']} -> {'ok' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--self-test"]:
        sys.exit(self_test())
    code, out = run_harness(argv)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
