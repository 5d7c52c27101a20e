#!/usr/bin/env python3
"""Builds and runs the SeCo serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to .bench_build/perfbench-build.log and, on failure, to stderr. The
benchmark's stdout is passed through: its last line is the JSON result.
Per-run artifacts (metadata, metrics, trace spans) land in
.bench_build/results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "seco_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SeCo sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "seco_perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-8000:])
                fail("build step failed: " + " ".join(step))


SOURCE_TOPS = ("src", "perfbench", "CMakeLists.txt")


def source_digest():
    """A digest of the files the benchmark is built from."""
    digest = hashlib.sha256()
    for top in SOURCE_TOPS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True, timeout=10)


def source_revision():
    """The git revision, marked dirty with a source digest when the sources
    differ from it; only a source digest when not in git."""
    try:
        rev = git("rev-parse", "--show-toplevel", "HEAD")
        lines = rev.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if (rev.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            status = git("status", "--porcelain", "--untracked-files=all",
                         "--", *SOURCE_TOPS)
            if status.returncode == 0 and not status.stdout.strip():
                return lines[1]
            return lines[1] + "-dirty-" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return "nogit-" + source_digest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")

    build()
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", source_revision(),
               "--out-dir", os.path.join(BUILD_ROOT, "results")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
