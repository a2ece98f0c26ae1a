#!/usr/bin/env python3
"""Build and run the csfma repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a csfma checkout.  The first run configures and builds
perfbench/ (a CMake package that compiles the csfma libraries from ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only check that the build is up to date.  Build output goes to stderr, so
the last line of stdout is the benchmark's one-line JSON result.

Exit status: the benchmark's (0 = every output check passed, 1 = a check
failed), 2 on a usage error, 3 when the build fails or the benchmark prints
no result.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_ieee", "chained_recurrence", "service_mix", "hls_ldlsolve")


class StrictParser(argparse.ArgumentParser):
    """argparse without abbreviations; every error exits 2 with usage."""

    def __init__(self):
        super().__init__(prog="perfbench/run.py", allow_abbrev=False,
                         description="Build and run the csfma benchmark.")


def digits(text):
    if not text.isdigit() or len(text) > 19:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return text


def seconds(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value <= 3600 or text.strip() != text or "e" in text.lower():
        raise argparse.ArgumentTypeError(f"seconds out of range: {text!r}")
    return text


def parse_args(argv):
    p = StrictParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=digits, default="1")
    p.add_argument("--seconds", type=seconds, default="10")
    p.add_argument("--trace", choices=("0", "1"), default="0")
    return p.parse_args(argv)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure once, then bring the benchmark binary up to date.  The
    compiler's temporary files go under the build tree too."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "csfma_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return os.path.join(out_dir, "csfma_perfbench")


def main(argv):
    args = parse_args(argv)
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return proc.returncode or 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
