#!/usr/bin/env python3
"""Checks the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

It fails (exit 1) when
  * BENCHMARK.json and `perfbench --list` disagree on a metric's name,
    unit, better-direction or group;
  * a run emits a metric BENCHMARK.json lacks, or misses one it lists
    (untraced runs against end_to_end, traced runs against per_layer);
  * runs with the same --seed (two untraced, one traced) differ in any
    virtual-time metric or count (the program prints them exactly on its
    "virtual" line);
  * a different --seed leaves the generated arrival trace unchanged.
"""

import json
import os
import subprocess
import sys

import run

SEED, OTHER_SEED = 11, 12


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def invoke(binary, workload, seed, seconds, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(args[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    virtual = [l for l in lines if l.startswith("virtual ")]
    if not virtual:
        fail(f"{workload}: no virtual line")
    return json.loads(lines[-1]), json.loads(virtual[0][len("virtual "):]), \
        virtual[0]


def main(argv):
    seconds = 1
    if argv[:1] == ["--seconds"] and len(argv) > 1:
        seconds = float(argv[1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()

    listed = {}
    out = subprocess.run([binary, "--list"], capture_output=True, text=True,
                         check=True).stdout.splitlines()[1:]
    for line in out:
        name, unit, better, group = line.split()[:4]
        listed[name] = (unit, better, group)
    declared = {}
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            declared[m["name"]] = (m["unit"], m["better"], group)
    if listed != declared:
        diff = sorted(set(listed.items()) ^ set(declared.items()))
        fail(f"BENCHMARK.json and --list disagree: {diff}")

    for w in bench["workloads"]:
        name = w["name"]
        first, virt, line = invoke(binary, name, SEED, seconds, 0)
        _, _, again = invoke(binary, name, SEED, seconds, 0)
        _, other, _ = invoke(binary, name, OTHER_SEED, seconds, 0)
        traced, _, traced_line = invoke(binary, name, SEED, seconds, 1)
        for other_line in (again, traced_line):
            if line != other_line:
                fail(f"{name}: seed {SEED} is not reproducible:\n"
                     f"{line}\n{other_line}")
        if virt["arrival_digest"] == other["arrival_digest"]:
            fail(f"{name}: seeds {SEED} and {OTHER_SEED} give the same "
                 "arrival trace")
        for result, group in ((first, "end_to_end"), (traced, "per_layer")):
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in bench[group]}
            if emitted != wanted:
                fail(f"{name} {group}: emitted {sorted(emitted.items())}, "
                     f"BENCHMARK.json lists {sorted(wanted.items())}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{name}: bad result line {result}")
        print(f"selftest: {name} ok ({first['attempted']} operations, "
              f"{first['failed']} failed)")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
