#!/usr/bin/env python3
"""Build and run the kilo-dkip repository benchmark.

Run from the repository root:

    python3 kilobench/run.py --workload memstall --seed 1 --seconds 10 --trace 0
    python3 kilobench/run.py --selftest

Configures and builds kilobench/ (which compiles the simulator from
src/) into .bench_build/, then runs the driver with the given arguments.
Build output goes to stderr; the driver's standard output is passed
through, and its last line -- the result JSON -- is checked against the
metric names and units declared in BENCHMARK.json before it is printed.
Exits non-zero without a result when the build or the run fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = "4"


def fail(msg):
    print("kilobench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "kilobench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "kilobench")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(line, args):
    """The result must carry exactly the metrics BENCHMARK.json declares
    for this mode, with the declared units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = "--trace" in args and args[args.index("--trace") + 1] != "0"
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))


def main():
    args = sys.argv[1:]
    binary = build()
    env = dict(os.environ, KILOBENCH_COMMIT=git_commit())
    if "--selftest" in args:
        sys.exit(subprocess.run([binary] + args, env=env).returncode)
    tmp = os.path.join(BUILD, "tmp-%d" % os.getpid())
    proc = subprocess.run([binary, "--tmp-dir", tmp] + args, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode:
        fail("driver exited with code %d" % proc.returncode)
    single = "--workload" in args and \
        args[args.index("--workload") + 1] != "all"
    if single:
        check_result(lines[-1], args)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
