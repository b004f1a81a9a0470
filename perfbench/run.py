#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The first run configures and builds
the Ditto libraries and the benchmark binary from source into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs rebuild only what
changed. Build output goes to stderr. The binary's stdout is relayed
unchanged; its last line is the JSON result. The exit code is the
binary's (0 = every answer correct), or non-zero without a result when
the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("engine-tpcds", "service-closed", "service-open", "serve-durable", "paper-sim")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    out = build_dir()
    # Compiler temporaries stay inside the build directory too.
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    for t in targets:
        subprocess.run(["cmake", "--build", out, "-j4", "--target", t],
                       stdout=sys.stderr, check=True)
    return out


def run_bench(out, argv):
    """Runs the benchmark binary, relays its stdout, returns (code, last line)."""
    proc = subprocess.run([os.path.join(out, "perfbench")] + argv,
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def selftest():
    out = build(["perfbench_selftest", "perfbench"])
    subprocess.run([os.path.join(out, "perfbench_selftest")], check=True)
    # A deliberately corrupted answer must fail the run.
    code, last = run_bench(out, ["--workload", "service-open", "--seed", "1",
                                  "--seconds", "1", "--trace", "0",
                                  "--out-dir", os.path.join(out, "runs"),
                                  "--corrupt-job", "3"])
    result = json.loads(last)
    if code == 0 or result["correct"] or result["failed"] != 1:
        print("self-test FAILED: a corrupted answer did not fail the run", file=sys.stderr)
        return 1
    print("self-test: corrupted answer fails the run (exit %d)" % code)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        return selftest()
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    out = build(["perfbench"])
    code, last = run_bench(out, ["--workload", a.workload, "--seed", str(a.seed),
                                  "--seconds", str(a.seconds), "--trace", str(a.trace),
                                  "--out-dir", os.path.join(out, "runs")])
    if code == 0:
        json.loads(last)  # a run that exits 0 must end with its result
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError,
            OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
