#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scan_mix --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --list

The C++ program (perfbench/src) is built from the engine sources in src/
into $CARGO_TARGET_DIR, or .bench_build when that is unset. Build output
goes to standard error; the program's standard output is passed through,
and its last line is the JSON result. Traced runs (--trace 1) also write
the virtual-time trace, the wall-clock spans and the metrics registry
under .bench_out/<workload>/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    name = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, name)


def build():
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
        check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench")


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
