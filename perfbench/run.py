#!/usr/bin/env python3
"""Build and run the VIBe simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark from source (Release, into
.bench_build/perfbench under the checkout), runs the benchmark's own
arithmetic tests, then runs one measurement. The last line of stdout is the
benchmark's JSON result; build output goes to stderr. The exit code is the
benchmark's: non-zero when the build fails or any op fails a check.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "perfbench-spans"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    log("$", " ".join(str(c) for c in cmd))
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log(f"perfbench: step failed with exit code {result.returncode}")
        sys.exit(result.returncode or 1)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    run_quiet(["cmake", "-S", HERE, "-B", BUILD, *generator,
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--parallel", jobs])


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, check=True)
            return "git-" + head.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    tests = BUILD / "perfbench_test"
    if tests.exists():
        run_quiet([tests, "--gtest_brief=1"])

    cmd = [BUILD / "perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--source-id", source_id()]
    if args.trace == "1":
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", SPANS / f"{args.workload}-seed{args.seed}.csv"]
    sys.stdout.flush()
    # SIGTERM unwinds through the finally below, so the benchmark process
    # never outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([str(c) for c in cmd])
    code = 1
    try:
        code = proc.wait(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
